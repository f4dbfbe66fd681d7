"""
levelcross.special
==================

The special functions of the closed-form crossing statistics, taken from
libraries: the error function pair ``erf``/``erfc`` from :mod:`math` (the
C library's implementations, odd-symmetric and with erfc accurate in the
far tail), and Owen's T function

    T(h, a) = (1/2pi) * integral_0^a exp(-h^2 (1+t^2)/2) / (1+t^2) dt

from :func:`scipy.special.owens_t` (Patefield & Tandy 2000); and the beta
function ``beta`` with its regularized incomplete form ``betainc``
(:mod:`scipy.special`), which give the power-law kernel's tail integral.
This module holds no numerical code of its own; it is the one place the
package and its tests take these functions from.
"""

from math import erf, erfc

from scipy.special import beta, betainc, owens_t

__all__ = ["beta", "betainc", "erf", "erfc", "owens_t"]
