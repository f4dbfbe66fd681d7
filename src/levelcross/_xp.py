"""
levelcross._xp
==============

The elementary operations that the closed forms of :mod:`levelcross.kernels`
and :mod:`levelcross.crossings` are written in, so that each formula is
written once and takes either Python floats (``xp=_Floats``, one value,
through :mod:`math`) or numpy arrays (``xp=_Arrays``), with the same bits in
every element: numpy's + - * / and square root round as Python's do, while
exp, expm1, log1p, erf, arctan, the circular functions and cubes go element
by element through the same functions as the float path.
"""

from __future__ import annotations

import math

import numpy as np

from .special import erf


def _each(fn):
    """fn applied element by element through Python floats.  numpy's own exp
    and powers round differently from the C library's on some inputs, so the
    array path makes the same calls as the float path."""
    return lambda x: np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


class _Floats:
    """The elementary operations on Python floats: one value."""

    exp, expm1, log1p, cos, sin = math.exp, math.expm1, math.log1p, math.cos, math.sin
    atan, sqrt, erf, stack = math.atan, math.sqrt, erf, np.array

    @staticmethod
    def cube(x):
        return x**3

    @staticmethod
    def select(cond, if_true, if_false, *args):
        """if_true(_Floats, *args) if cond holds, else if_false(_Floats, *args)."""
        return (if_true if cond else if_false)(_Floats, *args)


def _merge(mask, a, b):
    out = np.empty(mask.shape)
    out[mask] = a
    out[~mask] = b
    return out


class _Arrays:
    """The same operations, element by element, on arrays: many values.  Each
    element equals the float path's value bit for bit."""

    exp, expm1, log1p, cos, sin, atan = map(
        _each, (math.exp, math.expm1, math.log1p, math.cos, math.sin, math.atan))
    erf, cube, sqrt = _each(erf), _each(_Floats.cube), np.sqrt

    @staticmethod
    def stack(parts):
        return np.stack(np.broadcast_arrays(*parts), axis=-1)

    @staticmethod
    def select(cond, if_true, if_false, *args):
        """The tuple if_true(_Arrays, *args) where the mask cond holds and
        if_false's elsewhere.  Each branch sees only its own elements of the
        arrays args, as a float evaluation sees only its own branch, so a
        branch's formula never meets the inputs it is not written for."""
        n = np.count_nonzero(cond)
        if n == 0:
            return if_false(_Arrays, *args)
        if n == cond.size:
            return if_true(_Arrays, *args)
        a = if_true(_Arrays, *(x[cond] for x in args))
        b = if_false(_Arrays, *(x[~cond] for x in args))
        return tuple(_merge(cond, u, v) for u, v in zip(a, b))
