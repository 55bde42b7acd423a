"""Expression construction/simplification helpers shared by the passes.

The paper highlights the *understandability* of its generated code; these
helpers keep emitted index expressions clean (constant folding, dropping
``+ 0`` / ``* 1``) instead of printing raw substitution residue.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.lang.astnodes import Binary, Expr, Ident, IntLit, Unary
from repro.ir.affine import AffineExpr


def intlit(value: int) -> IntLit:
    return IntLit(int(value))


def add(left: Expr, right: Expr) -> Expr:
    """``left + right`` with light folding."""
    if isinstance(left, IntLit) and isinstance(right, IntLit):
        return IntLit(left.value + right.value)
    if isinstance(left, IntLit) and left.value == 0:
        return right
    if isinstance(right, IntLit) and right.value == 0:
        return left
    if isinstance(right, IntLit) and right.value < 0:
        return Binary("-", left, IntLit(-right.value))
    if isinstance(right, Unary) and right.op == "-":
        return Binary("-", left, right.operand)
    return Binary("+", left, right)


def sub(left: Expr, right: Expr) -> Expr:
    if isinstance(left, IntLit) and isinstance(right, IntLit):
        return IntLit(left.value - right.value)
    if isinstance(right, IntLit) and right.value == 0:
        return left
    return Binary("-", left, right)


def mul(left: Expr, right: Expr) -> Expr:
    if isinstance(left, IntLit) and isinstance(right, IntLit):
        return IntLit(left.value * right.value)
    if isinstance(left, IntLit):
        if left.value == 1:
            return right
        if left.value == 0:
            return IntLit(0)
    if isinstance(right, IntLit):
        if right.value == 1:
            return left
        if right.value == 0:
            return IntLit(0)
    return Binary("*", left, right)


def affine_to_expr(form: AffineExpr,
                   order: Iterable[str] = ()) -> Expr:
    """Render an affine form as a clean AST expression.

    ``order`` optionally fixes which terms print first (e.g. the paper
    prints ``i + tidx`` rather than ``tidx + i``); remaining terms follow
    alphabetically.
    """
    names = list(order) + sorted(set(form.terms) - set(order))
    expr: Optional[Expr] = None
    for name in names:
        coeff = form.coeff(name)
        if coeff == 0:
            continue
        term: Expr = Ident(name) if coeff == 1 else \
            mul(intlit(coeff), Ident(name)) if coeff > 0 else None
        if coeff < 0:
            piece = mul(intlit(-coeff), Ident(name)) if coeff != -1 \
                else Ident(name)
            expr = sub(expr, piece) if expr is not None \
                else Unary("-", piece)
            continue
        expr = add(expr, term) if expr is not None else term
    if expr is None:
        return intlit(form.const)
    if form.const:
        expr = add(expr, intlit(form.const))
    return expr
