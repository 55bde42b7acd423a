"""The kernel language's small type system.

Scalars: ``int``, ``float``, and the CUDA vector types ``float2``/``float4``
(the unit of the paper's vectorization pass, Section 3.1).  Arrays carry
explicit per-dimension extents, which may be integer literals or the names of
integer kernel parameters; explicit extents are what make the compiler's
address analysis (Section 3.2) exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple, Union


class Type:
    """Base class for all kernel-language types."""

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass(frozen=True)
class ScalarType(Type):
    """A scalar (or short-vector) element type."""

    name: str  # 'int' | 'float' | 'float2' | 'float4'

    def __post_init__(self) -> None:
        if self.name not in ("int", "float", "float2", "float4", "bool"):
            raise ValueError(f"unknown scalar type {self.name!r}")

    @property
    def lanes(self) -> int:
        """Number of 32-bit lanes (1 for int/float, 2/4 for vectors)."""
        return {"int": 1, "float": 1, "bool": 1, "float2": 2, "float4": 4}[self.name]

    @property
    def size_bytes(self) -> int:
        return 4 * self.lanes

    def __str__(self) -> str:
        return self.name


INT = ScalarType("int")
FLOAT = ScalarType("float")
FLOAT2 = ScalarType("float2")
FLOAT4 = ScalarType("float4")
BOOL = ScalarType("bool")

Extent = Union[int, str]


@dataclass(frozen=True)
class ArrayType(Type):
    """A multi-dimensional array with row-major layout.

    ``dims`` are ordered from the slowest-varying (leftmost in source) to the
    fastest-varying dimension, as in C.  A symbolic extent names an ``int``
    kernel parameter.
    """

    elem: ScalarType
    dims: Tuple[Extent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.dims:
            raise ValueError("arrays need at least one dimension")
        for d in self.dims:
            if isinstance(d, int) and d <= 0:
                raise ValueError(f"array extent must be positive, got {d}")

    @property
    def rank(self) -> int:
        return len(self.dims)

    def resolved_dims(self, bindings: dict) -> Tuple[int, ...]:
        """Resolve symbolic extents using ``bindings`` (param name -> int)."""
        out = []
        for d in self.dims:
            if isinstance(d, int):
                out.append(d)
            else:
                if d not in bindings:
                    raise KeyError(f"unbound array extent {d!r}")
                out.append(int(bindings[d]))
        return tuple(out)

    def __str__(self) -> str:
        dims = "".join(f"[{d}]" for d in self.dims)
        return f"{self.elem}{dims}"
