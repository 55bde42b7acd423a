"""Affine (linear) forms over thread ids, block ids, and loop iterators.

An :class:`AffineExpr` is ``const + sum(coeff[s] * s)`` with integer
coefficients over symbolic terms.  Terms are the predefined ids (``idx``,
``idy``, ``tidx``, ``tidy``, ``bidx``, ``bidy``), loop iterator names, and
free scalar names the builder was told to keep symbolic.

The paper's compiler computes, for every global array access, the addresses
issued by the 16 threads of a half warp and by the first 16 loop-iterator
values (Section 3.2); with an affine address both reduce to coefficient
arithmetic, which is what this module implements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional

from repro.lang.astnodes import (
    Binary,
    Call,
    Expr,
    Ident,
    IntLit,
    Member,
    Ternary,
    Unary,
)


class NotAffine(Exception):
    """The expression is not an integer affine form (paper: 'unresolved')."""


@dataclass(frozen=True)
class AffineExpr:
    """An immutable integer affine form."""

    terms: Mapping[str, int] = field(default_factory=dict)
    const: int = 0

    def __post_init__(self):
        # Normalize: drop zero coefficients, freeze the mapping.
        cleaned = {k: int(v) for k, v in self.terms.items() if int(v) != 0}
        object.__setattr__(self, "terms", cleaned)
        object.__setattr__(self, "const", int(self.const))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value: int) -> "AffineExpr":
        return AffineExpr({}, value)

    @staticmethod
    def term(name: str, coeff: int = 1) -> "AffineExpr":
        return AffineExpr({name: coeff}, 0)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "AffineExpr") -> "AffineExpr":
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0) + v
        return AffineExpr(terms, self.const + other.const)

    def __sub__(self, other: "AffineExpr") -> "AffineExpr":
        return self + other.scale(-1)

    def scale(self, factor: int) -> "AffineExpr":
        return AffineExpr({k: v * factor for k, v in self.terms.items()},
                          self.const * factor)

    def multiply(self, other: "AffineExpr") -> "AffineExpr":
        """Product, defined only when at least one side is constant."""
        if self.is_constant:
            return other.scale(self.const)
        if other.is_constant:
            return self.scale(other.const)
        raise NotAffine("product of two non-constant affine forms")

    def floordiv_const(self, divisor: int) -> "AffineExpr":
        """Exact division by a constant; raises unless all parts divide."""
        if divisor == 0:
            raise NotAffine("division by zero")
        if any(v % divisor for v in self.terms.values()) or self.const % divisor:
            raise NotAffine(f"affine form not divisible by {divisor}")
        return AffineExpr({k: v // divisor for k, v in self.terms.items()},
                          self.const // divisor)

    # -- queries -----------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        return not self.terms

    def coeff(self, name: str) -> int:
        return self.terms.get(name, 0)

    def term_names(self) -> Iterable[str]:
        return self.terms.keys()

    def evaluate(self, bindings: Mapping[str, int]) -> int:
        """Evaluate with every term bound; raises KeyError if one is free.

        A binding may be an integer ndarray; the bindings then broadcast
        against each other and the value is an array.
        """
        total = self.const
        for name, coeff in self.terms.items():
            # Not ``+=``: an in-place add cannot widen to a broadcast shape.
            total = total + coeff * bindings[name]
        return total

    def substitute(self, name: str, replacement: "AffineExpr") -> "AffineExpr":
        """Replace term ``name`` with ``replacement``."""
        coeff = self.coeff(name)
        if coeff == 0:
            return self
        rest = AffineExpr({k: v for k, v in self.terms.items() if k != name},
                          self.const)
        return rest + replacement.scale(coeff)

    def __str__(self) -> str:
        parts = []
        for name in sorted(self.terms):
            coeff = self.terms[name]
            parts.append(name if coeff == 1 else f"{coeff}*{name}")
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts).replace("+ -", "- ")


ZERO = AffineExpr.constant(0)
ONE = AffineExpr.constant(1)


def affine_of(expr: Expr,
              env: Optional[Mapping[str, AffineExpr]] = None,
              symbolic: Iterable[str] = ()) -> AffineExpr:
    """Build the affine form of an index expression.

    ``env`` maps local integer variables to their (affine) definitions —
    e.g. loop iterators map to themselves, a lowered ``idx`` maps to
    ``bidx*bdimx + tidx``.  Names in ``symbolic`` stay as opaque terms.
    Anything else (loads, floats, ``%``, non-constant ``*``) raises
    :class:`NotAffine`, which the callers treat as the paper's *unresolved*
    index class.
    """
    env = env or {}
    symbolic = set(symbolic)

    def build(e: Expr) -> AffineExpr:
        if isinstance(e, IntLit):
            return AffineExpr.constant(e.value)
        if isinstance(e, Ident):
            if e.name in env:
                return env[e.name]
            if e.name in symbolic:
                return AffineExpr.term(e.name)
            raise NotAffine(f"unresolved identifier {e.name!r}")
        if isinstance(e, Unary):
            if e.op == "-":
                return build(e.operand).scale(-1)
            if e.op == "+":
                return build(e.operand)
            raise NotAffine(f"unary {e.op!r} is not affine")
        if isinstance(e, Binary):
            if e.op == "+":
                return build(e.left) + build(e.right)
            if e.op == "-":
                return build(e.left) - build(e.right)
            if e.op == "*":
                return build(e.left).multiply(build(e.right))
            if e.op == "/":
                left, right = build(e.left), build(e.right)
                if not right.is_constant:
                    raise NotAffine("division by non-constant")
                return left.floordiv_const(right.const)
            if e.op == "%":
                left, right = build(e.left), build(e.right)
                if left.is_constant and right.is_constant and right.const != 0:
                    return AffineExpr.constant(left.const % right.const)
                raise NotAffine("modulo of non-constants")
            if e.op == "<<":
                left, right = build(e.left), build(e.right)
                if right.is_constant:
                    return left.scale(1 << right.const)
                raise NotAffine("shift by non-constant")
            raise NotAffine(f"operator {e.op!r} is not affine")
        if isinstance(e, (Call, Member, Ternary)):
            raise NotAffine(f"{type(e).__name__} is not affine")
        raise NotAffine(f"{type(e).__name__} is not an integer expression")

    return build(expr)
