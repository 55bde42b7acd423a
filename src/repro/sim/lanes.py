"""Lane values and their operator table: :mod:`repro.sim.values` for arrays.

On the vectorized backend a value is **uniform** — one Python ``int`` /
``float`` that every active lane holds, computed by the scalar table —
or **varying**: an ``int64`` / ``float64`` array with one element per
thread of the launch.  A ``float2``/``float4`` is always per lane
(:class:`LaneVec`).  A mask is a bool array of the active lanes, or
``None`` for every lane of the launch.

This module is what the scalar table cannot do to an array: the casts,
the operators whose scalar definition branches on its operands
(comparisons, ``!``, ``& | ^``), and the builtin functions.
``+ - * / % << >>`` need nothing here — ``operator.add`` and friends and
the C division, shifts and ``int`` cast of :mod:`repro.lang.arith` are
polymorphic already.
"""

from __future__ import annotations

import math
import operator
from functools import reduce
from typing import Callable, Dict, List, Optional, Union

import numpy as np
from numpy import ndarray

from repro.lang.arith import c_int as as_int
from repro.sim.core import KernelRuntimeError


class LaneVec:
    """A float2/float4 value for every lane: an ``(N, lanes)`` array."""

    __slots__ = ("data",)

    def __init__(self, data: ndarray):
        self.data = data

    @property
    def lanes(self) -> int:
        return self.data.shape[1]


#: The active lanes of an evaluation; ``None`` is every lane of the launch.
Mask = Optional[ndarray]
#: Uniform (a Python scalar), varying (``N`` lanes) or a per-lane vector.
Value = Union[int, float, ndarray, LaneVec]


def as_float(value):
    if type(value) is ndarray:
        return value if value.dtype.kind == "f" else value.astype(np.float64)
    return float(value)


#: What a declaration of, or a store to, an ``int`` / ``float`` does.
CASTS: Dict[str, Callable] = {"int": as_int, "float": as_float}


def truth(value):
    """``value != 0``: a ``bool`` if uniform, a bool array if varying."""
    if type(value) is LaneVec:
        raise KernelRuntimeError("vector value used as a condition")
    return value != 0


def flag(value):
    """A truth value as the C ``int`` 0 / 1 it is in an expression."""
    return value.astype(np.int64) if type(value) is ndarray else int(value)


def active(lanes: ndarray, mask: Mask) -> ndarray:
    return lanes if mask is None else lanes[mask]


def narrow(mask: Mask, cond: ndarray):
    """The lanes of ``mask`` where ``cond`` holds: the sentinel ``None``
    when that is the whole launch, ``False`` when it is no lane."""
    if mask is None:
        if cond.all():
            return None
    else:
        cond = mask & cond
    return cond if cond.any() else False


def _compare(fn: Callable) -> Callable:
    return lambda a, b: fn(a, b).astype(np.int64)


def _bitwise(fn: Callable) -> Callable:
    return lambda a, b: fn(as_int(a), as_int(b))


#: Binary operators with at least one varying operand, where they differ
#: from ``values.BINARY_OPS``.
LANE_BINARY: Dict[str, Callable] = {
    "<": _compare(operator.lt), ">": _compare(operator.gt),
    "<=": _compare(operator.le), ">=": _compare(operator.ge),
    "==": _compare(operator.eq), "!=": _compare(operator.ne),
    "&": _bitwise(operator.and_), "|": _bitwise(operator.or_),
    "^": _bitwise(operator.xor),
}

LANE_UNARY: Dict[str, Callable] = {
    "!": lambda a: (a == 0).astype(np.int64),
}


# -- builtin functions with a varying argument: fn(args, mask) ---------------

def _root(args: List[Value], mask: Mask, inactive: float) -> ndarray:
    """``sqrt`` with the domain checked on the active lanes only."""
    x = as_float(args[0])
    if (active(x, mask) < 0).any():
        raise ValueError("math domain error")
    return np.sqrt(x if mask is None else np.where(mask, x, inactive))


def _rsqrtf(args: List[Value], mask: Mask) -> ndarray:
    root = _root(args, mask, 1.0)
    if not root.all():
        raise ZeroDivisionError("float division by zero")
    return 1.0 / root


def _libm(fn: Callable) -> Callable:
    """A transcendental via ``math.*`` per active lane.

    The lockstep interpreter calls libm on python floats; NumPy's
    vectorized versions can differ in the last ulp, which would break
    the bit-exact cross-backend contract.  These are rare in kernels
    (only the FFT suite uses them), so the per-lane loop is fine.
    """
    def call(args: List[Value], mask: Mask) -> ndarray:
        x = as_float(args[0])
        where = slice(None) if mask is None else mask
        out = np.zeros(len(x))
        out[where] = [fn(v) for v in x[where].tolist()]
        return out
    return call


LANE_CALLS: Dict[str, Callable] = {
    "min": lambda args, mask: reduce(np.minimum, args),
    "fminf": lambda args, mask: reduce(np.minimum, args),
    "max": lambda args, mask: reduce(np.maximum, args),
    "fmaxf": lambda args, mask: reduce(np.maximum, args),
    "fabsf": lambda args, mask: np.abs(args[0]),
    "abs": lambda args, mask: np.abs(args[0]),
    "sqrtf": lambda args, mask: _root(args, mask, 0.0),
    "rsqrtf": _rsqrtf,
    # math.floor returns a python int, so lanes become integers.
    "floorf": lambda args, mask: np.floor(as_float(args[0])).astype(np.int64),
    "int": lambda args, mask: as_int(args[0]),
    "float": lambda args, mask: as_float(args[0]),
    "sinf": _libm(math.sin), "cosf": _libm(math.cos),
    "expf": _libm(math.exp), "logf": _libm(math.log),
}
