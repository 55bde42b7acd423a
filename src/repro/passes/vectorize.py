"""Vectorization of memory accesses (paper Section 3.1).

NVIDIA rule (the strict one the paper uses): if a pair of accesses to the
same array reads indices ``2*idx + N`` and ``2*idx + N + 1`` with ``N``
even — the complex-number layout, real next to imaginary — the compiler

* retypes the array as ``float2`` (halving its extent),
* loads one ``float2 f2 = A[idx + N/2];``, and
* replaces the pair with ``f2.x`` / ``f2.y``.

This turns two strided (non-coalescable) float streams into one coalesced
float2 stream, which is why Figure 14's ``optimized`` kernel beats
``optimized_wo_vec``: the latter must stage the strided reads through
shared memory instead.

For AMD-like machines the paper also groups accesses from neighboring
threads; this pass does not, as the paper's NVIDIA evaluation does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ir.access import AccessInfo, collect_accesses
from repro.lang.astnodes import (
    ArrayRef,
    Binary,
    DeclStmt,
    Expr,
    Ident,
    IntLit,
    Member,
    Stmt,
    walk_stmts,
)
from repro.lang.types import FLOAT, FLOAT2
from repro.obs.trace import snippet
from repro.passes.base import CompilationContext, Pass
from repro.passes.coalesce_transform import (_fresh, _used_names,
                                             replace_refs)
from repro.passes.exprutil import add, affine_to_expr, intlit


@dataclass
class _Pair:
    array: str
    even: AccessInfo         # index 2*idx + N
    odd: AccessInfo          # index 2*idx + N + 1
    offset: int              # N (even)


def find_pairs(accesses: List[AccessInfo]) -> List[_Pair]:
    """Find ``A[2*idx+N]`` / ``A[2*idx+N+1]`` load pairs (N even)."""
    candidates: Dict[Tuple[str, int], AccessInfo] = {}
    for acc in accesses:
        if acc.space != "global" or acc.is_store or not acc.resolved:
            continue
        if len(acc.index_forms) != 1:
            continue
        form = acc.index_forms[0]
        ct = form.coeff("idx") + form.coeff("tidx")
        others = [n for n in form.term_names() if n not in ("idx", "tidx")]
        if ct != 2 or others:
            continue
        key = (acc.array, form.const)
        candidates[key] = acc
    pairs: List[_Pair] = []
    for (array, const), acc in sorted(candidates.items()):
        if const % 2 == 0 and (array, const + 1) in candidates:
            pairs.append(_Pair(array=array, even=acc,
                               odd=candidates[(array, const + 1)],
                               offset=const))
    return pairs


class VectorizePass(Pass):
    """Group paired scalar accesses into float2 accesses."""

    name = "vectorize"
    site = "vectorize"

    def run(self, ctx: CompilationContext) -> None:
        kernel = ctx.kernel
        accesses = collect_accesses(kernel, ctx.sizes)
        pairs = find_pairs(accesses)
        if not pairs:
            ctx.note("vectorization: no 2*idx/2*idx+1 access pairs",
                     rule="vectorize.none")
            return
        used = _used_names(kernel)
        arrays_done = set()
        prelude_map: Dict[int, List[Stmt]] = {}
        mapping: Dict[int, Expr] = {}
        new_decls: List[Stmt] = []
        for pair in pairs:
            param = kernel.param(pair.array)
            if param.type != FLOAT or len(param.dims) != 1:
                ctx.note(f"vectorization: {pair.array} is not a 1-D float "
                         f"array; pair skipped",
                         rule="vectorize.skip.type", stmt=pair.even.ref)
                continue
            fname = _fresh(f"f{len(arrays_done)}", used)
            vec_index = add(Ident("idx"), intlit(pair.offset // 2))
            new_decls.append(DeclStmt(
                FLOAT2, fname,
                init=ArrayRef(Ident(pair.array), [vec_index])))
            mapping[id(pair.even.ref)] = Member(Ident(fname), "x")
            mapping[id(pair.odd.ref)] = Member(Ident(fname), "y")
            if pair.array not in arrays_done:
                param.type = FLOAT2
                if isinstance(param.dims[0], int):
                    param.dims[0] //= 2
                else:
                    ctx.halved_extents.add(param.dims[0])
                arrays_done.add(pair.array)
            ctx.note(f"vectorization: grouped {pair.array}[2*idx+"
                     f"{pair.offset}] and +{pair.offset + 1} into float2 "
                     f"{fname}", rule="vectorize.pair",
                     stmt=pair.even.ref,
                     before=snippet(pair.even.ref),
                     after=f"{fname}.x")
        if not mapping:
            return
        kernel.body = new_decls + replace_refs(kernel.body, mapping)
        ctx.vectorized = True
