"""Runtime values for the interpreter: C-style numerics and vector types."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict

from repro.lang.arith import c_div, c_mod, c_shl, c_shr


@dataclass
class Float2:
    """A CUDA ``float2``: two 32-bit lanes accessed as ``.x`` / ``.y``."""

    x: float = 0.0
    y: float = 0.0

    LANES = 2
    MEMBERS = ("x", "y")

    def copy(self) -> "Float2":
        return Float2(self.x, self.y)


@dataclass
class Float4:
    """A CUDA ``float4``: four 32-bit lanes ``.x .y .z .w``."""

    x: float = 0.0
    y: float = 0.0
    z: float = 0.0
    w: float = 0.0

    LANES = 4
    MEMBERS = ("x", "y", "z", "w")

    def copy(self) -> "Float4":
        return Float4(self.x, self.y, self.z, self.w)


def truth(value) -> int:
    """C truth value: comparisons and logical operators yield 0 or 1."""
    return 1 if value else 0


#: The strict binary operators on Python ``int``/``float`` scalars.  The
#: lazy ones (``&&``, ``||``, ``?:``) are control flow and belong to
#: whoever walks the tree; their result is :func:`truth` of an operand.
BINARY_OPS: Dict[str, Callable] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": c_div,
    "%": c_mod,
    "<": lambda a, b: 1 if a < b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
    "==": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
    "&": lambda a, b: int(a) & int(b),
    "|": lambda a, b: int(a) | int(b),
    "^": lambda a, b: int(a) ^ int(b),
    "<<": c_shl,
    ">>": c_shr,
}

UNARY_OPS: Dict[str, Callable] = {
    "-": operator.neg,
    "+": lambda a: a,
    "!": lambda a: 0 if a else 1,
}


def default_value(type_name: str):
    """Zero value of a scalar type."""
    if type_name == "int":
        return 0
    if type_name == "float":
        return 0.0
    if type_name == "float2":
        return Float2()
    if type_name == "float4":
        return Float4()
    raise ValueError(f"unknown scalar type {type_name!r}")
