"""Memory objects backing the functional interpreter.

Global memory holds the kernel's array parameters as numpy arrays; shared
memory is allocated per thread block when a ``__shared__`` declaration is
first executed; local memory holds one thread's private arrays.  All
three check bounds on every access — a mis-transformed
kernel faults loudly instead of silently producing garbage.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from repro.sim.values import Float2, Float4

# Signature: (space, array, linear_elem_addr, is_store, block, thread)
TraceHook = Callable[[str, str, int, bool, Tuple[int, int], Tuple[int, int]],
                     None]


class _ArrayStore:
    """Shared implementation: named, typed, bounds-checked nd arrays."""

    space = "abstract"

    def __init__(self):
        self._arrays: Dict[str, np.ndarray] = {}
        self._lanes: Dict[str, int] = {}

    def allocate(self, name: str, dims: Sequence[int], type_name: str) -> None:
        lanes = {"int": 1, "float": 1, "float2": 2, "float4": 4}[type_name]
        dtype = np.int32 if type_name == "int" else np.float32
        shape = tuple(dims) + ((lanes,) if lanes > 1 else ())
        self._arrays[name] = np.zeros(shape, dtype=dtype)
        self._lanes[name] = lanes

    def bind(self, name: str, array: np.ndarray, lanes: int = 1) -> None:
        """Bind an existing numpy array (used for kernel parameters)."""
        self._arrays[name] = array
        self._lanes[name] = lanes

    def has(self, name: str) -> bool:
        return name in self._arrays

    def array(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def lanes(self, name: str) -> int:
        return self._lanes[name]

    def dims(self, name: str) -> Tuple[int, ...]:
        arr = self._arrays[name]
        return arr.shape[:-1] if self._lanes[name] > 1 else arr.shape

    def _check(self, name: str, indices: Tuple[int, ...]) -> None:
        dims = self.dims(name)
        if len(indices) != len(dims):
            raise IndexError(
                f"{self.space} array {name!r} has rank {len(dims)}, "
                f"got {len(indices)} indices")
        for i, (idx, ext) in enumerate(zip(indices, dims)):
            if not 0 <= idx < ext:
                raise IndexError(
                    f"{self.space} array {name!r} index {idx} out of range "
                    f"[0, {ext}) in dimension {i}")

    def linear_address(self, name: str, indices: Tuple[int, ...]) -> int:
        """Row-major element index (for tracing/partition analysis)."""
        dims = self.dims(name)
        addr = 0
        for idx, ext in zip(indices, dims):
            addr = addr * ext + idx
        return addr

    def load(self, name: str, indices: Tuple[int, ...]):
        self._check(name, indices)
        arr = self._arrays[name]
        lanes = self._lanes[name]
        if lanes == 1:
            value = arr[indices]
            return int(value) if arr.dtype == np.int32 else float(value)
        vec = arr[indices]
        if lanes == 2:
            return Float2(float(vec[0]), float(vec[1]))
        return Float4(float(vec[0]), float(vec[1]), float(vec[2]),
                      float(vec[3]))

    def store(self, name: str, indices: Tuple[int, ...], value) -> None:
        self._check(name, indices)
        arr = self._arrays[name]
        lanes = self._lanes[name]
        if lanes == 1:
            arr[indices] = value
        elif isinstance(value, Float2) and lanes == 2:
            arr[indices] = (value.x, value.y)
        elif isinstance(value, Float4) and lanes == 4:
            arr[indices] = (value.x, value.y, value.z, value.w)
        else:
            raise TypeError(
                f"cannot store {type(value).__name__} into {lanes}-lane "
                f"array {name!r}")

    def load_member(self, name: str, indices: Tuple[int, ...],
                    member: str) -> float:
        self._check(name, indices)
        lane = "xyzw".index(member)
        return float(self._arrays[name][indices][lane])

    def store_member(self, name: str, indices: Tuple[int, ...],
                     member: str, value: float) -> None:
        self._check(name, indices)
        lane = "xyzw".index(member)
        self._arrays[name][indices + (lane,)] = value


class GlobalMemory(_ArrayStore):
    """Device global memory: one numpy array per kernel array parameter."""

    space = "global"


class SharedMemory(_ArrayStore):
    """One thread block's on-chip shared memory."""

    space = "shared"


class LocalMemory(_ArrayStore):
    """One thread's private (non-``__shared__``) arrays."""

    space = "local"
