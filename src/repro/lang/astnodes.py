"""AST node definitions for the kernel language.

Nodes are plain mutable dataclasses: the optimization passes transform the
tree in place or rebuild subtrees, and ``clone()`` provides deep copies for
the code-versioning the design-space exploration needs (Section 4 of the
paper generates multiple kernel versions from the same input).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.lang.types import ArrayType, Extent, ScalarType, Type


class Node:
    """Base class for every AST node."""

    def clone(self) -> "Node":
        """Deep-copy this subtree."""
        return copy.deepcopy(self)


class Expr(Node):
    """Base class for expressions."""


class Stmt(Node):
    """Base class for statements."""


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@dataclass(eq=True)
class IntLit(Expr):
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(eq=True)
class FloatLit(Expr):
    value: float

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(eq=True)
class Ident(Expr):
    """A reference to a variable, parameter, or predefined id.

    The predefined ids (paper Section 2) are ordinary identifiers here:
    ``idx``, ``idy`` (absolute thread ids), ``tidx``, ``tidy`` (ids within a
    block), ``bidx``, ``bidy`` (block ids), ``bdimx``, ``bdimy`` (block
    dims), ``gdimx``, ``gdimy`` (grid dims).
    """

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(eq=True)
class ArrayRef(Expr):
    """``base[indices[0]][indices[1]]...`` — ``base`` is an Ident."""

    base: Ident
    indices: List[Expr]

    @property
    def name(self) -> str:
        return self.base.name


@dataclass(eq=True)
class Member(Expr):
    """Vector component access such as ``f2.x``."""

    base: Expr
    member: str  # 'x' | 'y' | 'z' | 'w'


@dataclass(eq=True)
class Unary(Expr):
    op: str  # '-' | '!' | '+'
    operand: Expr


@dataclass(eq=True)
class Binary(Expr):
    op: str  # '+','-','*','/','%','<','>','<=','>=','==','!=','&&','||','&','|','^','<<','>>'
    left: Expr
    right: Expr


@dataclass(eq=True)
class Ternary(Expr):
    cond: Expr
    then: Expr
    otherwise: Expr


@dataclass(eq=True)
class Call(Expr):
    """A builtin call: ``min``, ``max``, ``fabsf``, ``sqrtf``, ``sinf``,
    ``cosf``, ``expf``, ``make_float2``, ``make_float4``."""

    name: str
    args: List[Expr]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass(eq=True)
class DeclStmt(Stmt):
    """A local declaration, optionally ``__shared__`` and/or an array."""

    type: ScalarType
    name: str
    dims: List[Extent] = field(default_factory=list)
    init: Optional[Expr] = None
    shared: bool = False

    @property
    def is_array(self) -> bool:
        return bool(self.dims)

    def array_type(self) -> ArrayType:
        if not self.dims:
            raise ValueError(f"{self.name} is not an array")
        return ArrayType(self.type, tuple(self.dims))


@dataclass(eq=True)
class AssignStmt(Stmt):
    """``target op value;`` where op is '=', '+=', '-=', '*=' or '/='."""

    target: Expr  # Ident | ArrayRef | Member
    op: str
    value: Expr


@dataclass(eq=True)
class ExprStmt(Stmt):
    expr: Expr


@dataclass(eq=True)
class IfStmt(Stmt):
    cond: Expr
    then_body: List[Stmt]
    else_body: List[Stmt] = field(default_factory=list)


@dataclass(eq=True)
class ForStmt(Stmt):
    """``for (init; cond; update) body`` — init declares or assigns the
    iterator; update is an assignment (including ``i++`` desugared to
    ``i = i + 1`` by the parser)."""

    init: Optional[Stmt]
    cond: Optional[Expr]
    update: Optional[Stmt]
    body: List[Stmt]

    def iter_name(self) -> Optional[str]:
        """The loop iterator's name, if the init is a simple decl/assign."""
        if isinstance(self.init, DeclStmt):
            return self.init.name
        if isinstance(self.init, AssignStmt) and isinstance(self.init.target, Ident):
            return self.init.target.name
        return None

    def start(self) -> Optional[Expr]:
        """The iterator's initial value, if the init is a decl/assign."""
        if isinstance(self.init, DeclStmt):
            return self.init.init
        return self.init.value if isinstance(self.init, AssignStmt) else None


@dataclass(eq=True)
class WhileStmt(Stmt):
    cond: Expr
    body: List[Stmt]


@dataclass(eq=True)
class SyncStmt(Stmt):
    """``__syncthreads()`` (block barrier) or ``__global_sync()`` (grid
    barrier, supported in naive kernels per Section 3 of the paper)."""

    scope: str = "block"  # 'block' | 'global'


@dataclass(eq=True)
class Block(Stmt):
    body: List[Stmt]


@dataclass(eq=True)
class ReturnStmt(Stmt):
    #: Source line (0 when built programmatically); diagnostics only.
    line: int = field(default=0, compare=False)


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------

@dataclass(eq=True)
class Param(Node):
    """A kernel parameter: a scalar or an explicitly-dimensioned array."""

    type: ScalarType
    name: str
    dims: List[Extent] = field(default_factory=list)

    @property
    def is_array(self) -> bool:
        return bool(self.dims)

    def array_type(self) -> ArrayType:
        if not self.dims:
            raise ValueError(f"{self.name} is not an array")
        return ArrayType(self.type, tuple(self.dims))


@dataclass(eq=True)
class Pragma(Node):
    """A ``#pragma`` directive attached to the kernel.

    The paper's interface (Section 3) conveys input/output dimension sizes
    and output variable names, e.g.::

        #pragma output c
        #pragma size a 4096
    """

    text: str

    def words(self) -> List[str]:
        return self.text.split()[1:]  # drop '#pragma'


@dataclass(eq=True)
class Kernel(Node):
    """A full ``__global__ void`` kernel function."""

    name: str
    params: List[Param]
    body: List[Stmt]
    pragmas: List[Pragma] = field(default_factory=list)

    def param(self, name: str) -> Param:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(f"kernel {self.name} has no parameter {name!r}")

    def array_params(self) -> List[Param]:
        return [p for p in self.params if p.is_array]

    def scalar_params(self) -> List[Param]:
        return [p for p in self.params if not p.is_array]

    def output_names(self) -> List[str]:
        """Names named by ``#pragma output`` directives (may be empty)."""
        outs: List[str] = []
        for pr in self.pragmas:
            w = pr.words()
            if w and w[0] == "output":
                outs.extend(w[1:])
        return outs


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------

def child_stmt_lists(stmt: Stmt) -> List[List[Stmt]]:
    """The nested statement lists of a statement (for generic traversal)."""
    if isinstance(stmt, ForStmt):
        return [stmt.body]
    if isinstance(stmt, WhileStmt):
        return [stmt.body]
    if isinstance(stmt, IfStmt):
        return [stmt.then_body, stmt.else_body]
    if isinstance(stmt, Block):
        return [stmt.body]
    return []


def walk_stmts(stmts: Sequence[Stmt]):
    """Yield every statement in ``stmts``, depth-first, pre-order."""
    for s in stmts:
        yield s
        for lst in child_stmt_lists(s):
            yield from walk_stmts(lst)


def early_returns(kernel: Kernel) -> List[ReturnStmt]:
    """Every ``return`` other than the kernel body's final top-level
    statement.  Only that trailing form is supported: no backend models
    one thread leaving a kernel the others keep running."""
    last = kernel.body[-1] if kernel.body else None
    return [s for s in walk_stmts(kernel.body)
            if isinstance(s, ReturnStmt) and s is not last]


def walk_exprs_of_stmt(stmt: Stmt):
    """Yield the top-level expressions attached directly to ``stmt``."""
    if isinstance(stmt, DeclStmt) and stmt.init is not None:
        yield stmt.init
    elif isinstance(stmt, AssignStmt):
        yield stmt.target
        yield stmt.value
    elif isinstance(stmt, ExprStmt):
        yield stmt.expr
    elif isinstance(stmt, IfStmt):
        yield stmt.cond
    elif isinstance(stmt, WhileStmt):
        yield stmt.cond
    elif isinstance(stmt, ForStmt):
        if stmt.init is not None:
            yield from walk_exprs_of_stmt(stmt.init)
        if stmt.cond is not None:
            yield stmt.cond
        if stmt.update is not None:
            yield from walk_exprs_of_stmt(stmt.update)


def walk_exprs(expr: Expr):
    """Yield ``expr`` and every sub-expression, depth-first, pre-order."""
    yield expr
    if isinstance(expr, ArrayRef):
        yield from walk_exprs(expr.base)
        for idx in expr.indices:
            yield from walk_exprs(idx)
    elif isinstance(expr, Member):
        yield from walk_exprs(expr.base)
    elif isinstance(expr, Unary):
        yield from walk_exprs(expr.operand)
    elif isinstance(expr, Binary):
        yield from walk_exprs(expr.left)
        yield from walk_exprs(expr.right)
    elif isinstance(expr, Ternary):
        yield from walk_exprs(expr.cond)
        yield from walk_exprs(expr.then)
        yield from walk_exprs(expr.otherwise)
    elif isinstance(expr, Call):
        for a in expr.args:
            yield from walk_exprs(a)


def all_exprs(stmts: Sequence[Stmt]):
    """Yield every expression anywhere under ``stmts``."""
    for s in walk_stmts(stmts):
        for top in walk_exprs_of_stmt(s):
            yield from walk_exprs(top)


def idents_used(stmts: Sequence[Stmt]) -> set:
    """The set of identifier names referenced anywhere under ``stmts``."""
    names = set()
    for e in all_exprs(stmts):
        if isinstance(e, Ident):
            names.add(e.name)
    return names
