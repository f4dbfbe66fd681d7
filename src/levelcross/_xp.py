"""
levelcross._xp
==============

The elementary operations that the closed forms of :mod:`levelcross.kernels`
and :mod:`levelcross.crossings` are written in, so that each formula is
written once and takes either Python floats (``xp=_Floats``, one value,
through :mod:`math`) or numpy arrays (``xp=_Arrays``), with the same bits in
every element: numpy's + - * / and square root round as Python's do, while
exp, expm1, log1p, erf, arctan and the circular functions go element by
element through the same functions as the float path.  There is no
per-element branch: a closed form written here holds at every argument it
is given, so both paths evaluate the one expression.
"""

from __future__ import annotations

import math

import numpy as np

from .special import erf


def _each(fn):
    """fn applied element by element through Python floats.  numpy's own exp
    and arctan round differently from the C library's on some inputs, so the
    array path makes the same calls as the float path."""
    return lambda x: np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


class _Floats:
    """The elementary operations on Python floats: one value."""

    exp, expm1, log1p, cos, sin = math.exp, math.expm1, math.log1p, math.cos, math.sin
    atan, sqrt, erf, stack = math.atan, math.sqrt, erf, np.array


class _Arrays:
    """The same operations, element by element, on arrays: many values.  Each
    element equals the float path's value bit for bit."""

    exp, expm1, log1p, cos, sin, atan = map(
        _each, (math.exp, math.expm1, math.log1p, math.cos, math.sin, math.atan))
    erf, sqrt = _each(erf), np.sqrt

    @staticmethod
    def stack(parts):
        return np.stack(np.broadcast_arrays(*parts), axis=-1)
