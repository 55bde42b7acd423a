"""Concrete address enumeration for the static verifier.

The affine machinery in :mod:`repro.ir` answers most questions by
coefficient arithmetic, but the verifier also has to handle what the
passes actually emit: quasi-affine locals (``bidx_d = (bidx + bidy) % 2``),
copy loops with thread-dependent starts (``for (cb = tidx + 16*tidy; ...)``)
and non-unit updates (``st = st / 2``), and guard conditions
(``if (tidx < 16 && i + 16 < w)``).  This module evaluates index
expressions *concretely* for enumerated thread positions and (sampled)
loop-iterator values, filtering by guards — a miniature straight-line
interpreter over the same :class:`~repro.ir.access.AccessInfo` records the
compiler's own checks use.

Enumeration under-approximates the dynamic access set (it samples long
loops), so a conflict it finds is real; the ``covered`` flags report
whether the sampling credibly covered the extremes (affine loops sampled
at both endpoints are monotone in the index forms, so extremes are hit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.ir.access import AccessInfo, LoopInfo
from repro.lang.astnodes import (
    AssignStmt,
    Binary,
    DeclStmt,
    Expr,
    Ident,
    IntLit,
    Ternary,
    Unary,
)
from repro.sim.values import BINARY_OPS, UNARY_OPS


class Unresolved(Exception):
    """An expression could not be evaluated concretely."""


# ---------------------------------------------------------------------------
# Concrete integer / boolean expression evaluation
# ---------------------------------------------------------------------------

def eval_int(expr: Expr, bindings: Mapping[str, int],
             term_defs: Mapping[str, Tuple[Expr, int]] = {},
             env: Mapping[str, object] = {}) -> int:
    """Evaluate an integer expression with C semantics.

    Identifiers resolve through ``bindings`` first, then through the
    quasi-affine ``term_defs`` of :class:`AccessInfo` (names stored under
    ``'@name'``), then through ``env`` — the affine definitions of local
    ints in scope (:attr:`AccessInfo.env_forms`).  Comparisons and logical
    operators yield 0/1 like C.
    """
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, Ident):
        if expr.name in bindings:
            return int(bindings[expr.name])
        key = "@" + expr.name
        if key in term_defs:
            return eval_int(term_defs[key][0], bindings, term_defs, env)
        form = env.get(expr.name)
        if form is not None and expr.name not in form.terms:
            return _eval_affine(form, bindings, term_defs, env)
        raise Unresolved(f"unbound identifier {expr.name!r}")
    if isinstance(expr, Unary):
        return UNARY_OPS[expr.op](
            eval_int(expr.operand, bindings, term_defs, env))
    if isinstance(expr, Binary):
        if expr.op == "&&":
            left = eval_int(expr.left, bindings, term_defs, env)
            return int(bool(left) and bool(
                eval_int(expr.right, bindings, term_defs, env)))
        if expr.op == "||":
            left = eval_int(expr.left, bindings, term_defs, env)
            return int(bool(left) or bool(
                eval_int(expr.right, bindings, term_defs, env)))
        left = eval_int(expr.left, bindings, term_defs, env)
        right = eval_int(expr.right, bindings, term_defs, env)
        fn = BINARY_OPS.get(expr.op)
        if fn is None:
            raise Unresolved(f"operator {expr.op!r}")
        try:
            return fn(left, right)
        except ZeroDivisionError:
            raise Unresolved("division by zero") from None
    if isinstance(expr, Ternary):
        cond = eval_int(expr.cond, bindings, term_defs, env)
        branch = expr.then if cond else expr.otherwise
        return eval_int(branch, bindings, term_defs, env)
    raise Unresolved(f"{type(expr).__name__} is not a concrete int")


def eval_guard(cond: Expr, bindings: Mapping[str, int],
               term_defs: Mapping[str, Tuple[Expr, int]] = {},
               env: Mapping[str, object] = {}) -> Optional[bool]:
    """Concrete truth of a guard condition; ``None`` if unresolvable."""
    try:
        return bool(eval_int(cond, bindings, term_defs, env))
    except (Unresolved, KeyError):
        return None


# ---------------------------------------------------------------------------
# Thread and launch bindings
# ---------------------------------------------------------------------------

def thread_bindings(block: Tuple[int, int], grid: Tuple[int, int],
                    tidx: int, tidy: int, bidx: int = 0, bidy: int = 0
                    ) -> Dict[str, int]:
    """Bindings for one thread position under one launch configuration."""
    bx, by = block
    return {
        "tidx": tidx, "tidy": tidy, "bidx": bidx, "bidy": bidy,
        "bdimx": bx, "bdimy": by, "gdimx": grid[0], "gdimy": grid[1],
        "idx": bidx * bx + tidx, "idy": bidy * by + tidy,
    }


def block_threads(block: Tuple[int, int],
                  cap: int = 1024) -> List[Tuple[int, int]]:
    """All (tidx, tidy) positions of one thread block, up to ``cap``."""
    bx, by = max(1, block[0]), max(1, block[1])
    out = [(tx, ty) for ty in range(by) for tx in range(bx)]
    return out[:cap]


def halfwarp_threads(block: Tuple[int, int]) -> List[Tuple[int, int]]:
    """The 16 (tidx, tidy) positions of warp 0's first half warp.

    CUDA linearizes threads x-fastest, so a half warp spans multiple rows
    when ``blockDim.x < 16``.
    """
    bx = max(1, block[0])
    by = max(1, block[1])
    out = []
    for lin in range(16):
        tx, ty = lin % bx, lin // bx
        if ty >= by:
            break
        out.append((tx, ty))
    return out


# ---------------------------------------------------------------------------
# Loop-value enumeration
# ---------------------------------------------------------------------------

@dataclass
class LoopValues:
    """Sampled iterator values of one loop under fixed outer bindings."""

    values: List[int]
    exhaustive: bool        # every dynamic value is in ``values``
    endpoints: bool         # first and last values are in ``values``


_SIM_STEPS = 4096


def _sample(values: List[int], cap: int) -> List[int]:
    if len(values) <= cap:
        return values
    head = values[: cap - 3]
    picks = head + [values[len(values) // 2], values[-2], values[-1]]
    seen, out = set(), []
    for v in picks:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def loop_values(loop: LoopInfo, bindings: Mapping[str, int],
                term_defs: Mapping[str, Tuple[Expr, int]] = {},
                cap: int = 24,
                env: Mapping[str, object] = {}) -> Optional[LoopValues]:
    """Concrete iterator values of ``loop``, sampled to at most ``cap``.

    Tries the resolved affine ``start/step/bound`` first; falls back to
    simulating the loop header (init / cond / update) for shapes like
    ``st = st / 2``.  Returns ``None`` when neither route resolves.
    """
    # Fast path: fully affine loop structure.
    if loop.start is not None and loop.step is not None \
            and loop.step > 0 and loop.bound is not None:
        try:
            lo = _eval_affine(loop.start, bindings, term_defs, env)
            hi = _eval_affine(loop.bound, bindings, term_defs, env)
        except (Unresolved, KeyError):
            lo = hi = None
        if lo is not None:
            count = max(0, -(-(hi - lo) // loop.step))
            if count <= cap:
                vals = [lo + i * loop.step for i in range(count)]
                return LoopValues(vals, exhaustive=True, endpoints=True)
            last = lo + (count - 1) * loop.step
            vals = [lo, lo + loop.step, lo + (count // 2) * loop.step,
                    last - loop.step, last]
            return LoopValues(sorted(set(vals)), exhaustive=False,
                              endpoints=True)

    # Slow path: simulate the for header.
    stmt = loop.stmt
    if stmt is None:
        return None
    try:
        if isinstance(stmt.init, DeclStmt) and stmt.init.init is not None:
            value = eval_int(stmt.init.init, bindings, term_defs, env)
        elif isinstance(stmt.init, AssignStmt):
            value = eval_int(stmt.init.value, bindings, term_defs, env)
        else:
            return None
        values: List[int] = []
        local = dict(bindings)
        for _ in range(_SIM_STEPS):
            local[loop.name] = value
            if stmt.cond is not None \
                    and not eval_int(stmt.cond, local, term_defs, env):
                return LoopValues(_sample(values, cap),
                                  exhaustive=len(values) <= cap,
                                  endpoints=True)
            values.append(value)
            if not isinstance(stmt.update, AssignStmt):
                return None
            new = eval_int(stmt.update.value, local, term_defs, env)
            if stmt.update.op == "+=":
                value += new
            elif stmt.update.op == "-=":
                value -= new
            elif stmt.update.op == "=":
                value = new
            else:
                return None
            if value == local[loop.name]:
                break  # no progress; avoid spinning
        return LoopValues(_sample(values, cap), exhaustive=False,
                          endpoints=False)
    except (Unresolved, KeyError):
        return None


def _eval_affine(form, bindings: Mapping[str, int],
                 term_defs: Mapping[str, Tuple[Expr, int]],
                 env: Mapping[str, object] = {}) -> int:
    """Evaluate an AffineExpr resolving ``@``-prefixed quasi-affine terms."""
    total = form.const
    for name, coeff in form.terms.items():
        if name in bindings:
            total += coeff * int(bindings[name])
        elif name.startswith("@") and name in term_defs:
            total += coeff * eval_int(term_defs[name][0], bindings,
                                      term_defs, env)
        elif name in env and name not in env[name].terms:
            # resolvable local; self-referential entries (an iterator
            # mapped to its own term) stay unresolved
            total += coeff * _eval_affine(env[name], bindings,
                                          term_defs, env)
        else:
            raise Unresolved(f"unbound affine term {name!r}")
    return total


# ---------------------------------------------------------------------------
# Access enumeration
# ---------------------------------------------------------------------------

@dataclass
class Coverage:
    """How credible one enumeration sweep was."""

    complete: bool = True     # every loop fully enumerated
    endpoints: bool = True    # loop extremes included (affine monotone)
    guards_ok: bool = True    # every guard evaluated concretely
    evaluated: bool = True    # no index expression failed to evaluate

    def merge(self, other: "Coverage") -> None:
        self.complete &= other.complete
        self.endpoints &= other.endpoints
        self.guards_ok &= other.guards_ok
        self.evaluated &= other.evaluated

    @property
    def trustworthy(self) -> bool:
        """Extremes credibly covered: no-witness means no violation."""
        return self.endpoints and self.guards_ok and self.evaluated


def iter_access_bindings(access: AccessInfo, base: Dict[str, int],
                         coverage: Coverage, loop_cap: int = 24,
                         skip_loops: Sequence[str] = ()
                         ) -> Iterator[Dict[str, int]]:
    """Yield guard-filtered bindings for every sampled execution of
    ``access`` by the thread fixed in ``base``.

    Loops named in ``skip_loops`` are assumed already bound in ``base``
    (the race detector fixes barrier-loop iterators that way).
    """
    loops = [l for l in access.loops
             if l.name not in skip_loops and l.name not in base]

    def recurse(depth: int, bindings: Dict[str, int]
                ) -> Iterator[Dict[str, int]]:
        if depth == len(loops):
            active = True
            for g in access.guards:
                truth = eval_guard(g, bindings, access.term_defs,
                                   access.env_forms)
                if truth is None:
                    coverage.guards_ok = False
                elif not truth:
                    active = False
                    break
            if active:
                yield bindings
            return
        loop = loops[depth]
        vals = loop_values(loop, bindings, access.term_defs, cap=loop_cap,
                           env=access.env_forms)
        if vals is None:
            coverage.complete = False
            coverage.endpoints = False
            coverage.evaluated = False
            return
        coverage.complete &= vals.exhaustive
        coverage.endpoints &= vals.endpoints
        for v in vals.values:
            inner = dict(bindings)
            inner[loop.name] = v
            yield from recurse(depth + 1, inner)

    full = dict(base)
    full.update(access.sizes)
    yield from recurse(0, full)


def index_values(access: AccessInfo,
                 bindings: Mapping[str, int]) -> Optional[List[int]]:
    """Concrete per-dimension subscript values, or ``None`` if unresolved."""
    out: List[int] = []
    for dim, idx_expr in enumerate(access.ref.indices):
        form = (access.index_forms[dim]
                if dim < len(access.index_forms) else None)
        try:
            if form is not None:
                out.append(_eval_affine(form, bindings, access.term_defs,
                                        access.env_forms))
            else:
                out.append(eval_int(idx_expr, bindings, access.term_defs,
                                    access.env_forms))
        except (Unresolved, KeyError):
            return None
    return out


def linear_address(access: AccessInfo,
                   bindings: Mapping[str, int]) -> Optional[int]:
    """Row-major element address of the access, or ``None`` if unresolved."""
    values = index_values(access, bindings)
    if values is None or len(values) != len(access.dims):
        return None
    addr, stride = 0, 1
    for value, extent in zip(reversed(values), reversed(access.dims)):
        addr += value * stride
        stride *= extent
    return addr
