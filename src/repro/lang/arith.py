"""C ``/``, ``%``, ``<<`` and ``>>`` of the kernel language, defined once.

The operators are polymorphic over Python scalars and NumPy arrays, so
the scalar simulators (``sim/values.py``), the lane backend
(``sim/vectorized.py``), the dataflow transfer functions and the address
evaluator (``ir/access.py``) all divide the same way: an integer quotient
truncates toward zero, the remainder takes the sign of the dividend, and
any zero divisor raises ``ZeroDivisionError``.  A caller that holds
values it does not mean to divide (the lane backend's inactive lanes)
replaces those divisors first.  The shifts cast both operands to
``int`` first (:func:`c_int`, toward zero), and ``>>`` is arithmetic.

This is a leaf module: it imports NumPy and nothing of ``repro``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["c_div", "c_int", "c_mod", "c_shl", "c_shr"]


def _integral(value) -> bool:
    return isinstance(value, int) or (
        isinstance(value, np.ndarray) and value.dtype.kind == "i")


def c_div(a, b):
    """C ``a / b``: integer operands truncate toward zero."""
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise ZeroDivisionError("integer division by zero in kernel")
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q
    if not (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
        return a / b        # Python floats name a zero divisor themselves
    integral = _integral(a) and _integral(b)
    if not np.all(b):
        raise ZeroDivisionError("integer division by zero in kernel"
                                if integral else "float division by zero")
    if not integral:
        return a / b
    q = a // b              # floors; C truncates
    return q + ((q < 0) & (q * b != a))


def c_mod(a, b):
    """C ``a % b``: the remainder has the sign of the dividend.  A zero
    divisor is :func:`c_div`'s fault, as it is one trap in C."""
    if isinstance(a, int) and isinstance(b, int) \
            or _integral(a) and _integral(b):
        return a - c_div(a, b) * b
    raise TypeError("'%' requires integer operands in the kernel language")


def c_int(value):
    """C cast to ``int``: toward zero; an integer array passes through."""
    if isinstance(value, np.ndarray):
        return value if value.dtype.kind == "i" \
            else np.trunc(value).astype(np.int64)
    return int(value)


def c_shl(a, b):
    """C ``a << b`` on the ``int`` casts of its operands."""
    return c_int(a) << c_int(b)


def c_shr(a, b):
    """C ``a >> b`` on the ``int`` casts of its operands (arithmetic)."""
    return c_int(a) >> c_int(b)
