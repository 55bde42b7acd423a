"""Abstract interpretation of kernel ASTs over interval x congruence.

The engine walks a kernel body with an abstract environment mapping each
*integer scalar* variable to a :class:`~.lattice.Val`.  The environment
is seeded from launch geometry — ``tidx in [0, bx)`` stride 1, ``bidx in
[0, gx)``, ``bdimx = bx`` exactly, ``idx in [0, gx*bx)`` — so every
derived index expression inherits sound bounds for *all* threads of
*all* blocks at once.  Floats and anything else non-integer evaluate to
"unknown" (``None``); expressions over them still get traversed so array
loads inside are summarized.

Loops run to fixpoint with widening after a couple of rounds (ragged
``for (pos = ...; pos < n; pos += stride)`` loops stabilize at
``[init_lo, n-1]`` thanks to guard refinement at the loop head); facts
are only *recorded* on one final pass through the stabilized body, so a
site's summary reflects the loop invariant, not a transient.

Recorded outputs (see :mod:`.summaries`):

* one :class:`AccessFact` per reachable global/shared array access site,
* one :class:`GuardVerdict` per reachable ``if`` — three-valued, with
  printable evidence when definite,
* the abstract environment at kernel exit.

Sites the engine proves unreachable get *no* fact: the soundness oracle
treats "executed but never summarized" as a violation, which is exactly
the abstract-covers-concrete contract.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.lang import astnodes as ast
from repro.lang.printer import print_expr

from .lattice import Interval, Val
from .summaries import AccessFact, GuardVerdict, KernelFacts

Env = Dict[str, Val]

# Fixpoint rounds before declaring defeat and forcing written vars to top.
MAX_ROUNDS = 50
# Rounds of plain joining before widening kicks in.
WIDEN_AFTER = 2

_FLIP = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}
_SWAP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}
_CMP_OPS = frozenset(_FLIP)


def seed_env(kernel: ast.Kernel, sizes: Mapping[str, int],
             block: Tuple[int, int], grid: Tuple[int, int]) -> Env:
    """Launch-geometry seeds covering every thread of every block."""
    bx, by = block
    gx, gy = grid
    env: Env = {
        "tidx": Val.range(0, bx - 1, 1 if bx > 1 else 0, 0),
        "tidy": Val.range(0, by - 1, 1 if by > 1 else 0, 0),
        "bidx": Val.range(0, gx - 1, 1 if gx > 1 else 0, 0),
        "bidy": Val.range(0, gy - 1, 1 if gy > 1 else 0, 0),
        "bdimx": Val.const(bx),
        "bdimy": Val.const(by),
        "gdimx": Val.const(gx),
        "gdimy": Val.const(gy),
        "idx": Val.range(0, gx * bx - 1, 1 if gx * bx > 1 else 0, 0),
        "idy": Val.range(0, gy * by - 1, 1 if gy * by > 1 else 0, 0),
    }
    for param in kernel.scalar_params():
        if param.type.name != "int":
            continue
        if param.name in sizes:
            env[param.name] = Val.const(int(sizes[param.name]))
        else:
            env[param.name] = Val.top()
    return env


def _join_envs(a: Optional[Env], b: Optional[Env]) -> Optional[Env]:
    """Pointwise join restricted to keys live on both paths."""
    if a is None:
        return None if b is None else dict(b)
    if b is None:
        return dict(a)
    # Most names reach a merge untouched, as one object: join is idempotent
    # (tests/test_dataflow_lattice.py), so that object is the answer.
    return {name: va if va is b[name] else va.join(b[name])
            for name, va in a.items() if name in b}


def _written_names(stmts: List[ast.Stmt]) -> List[str]:
    """Names syntactically assigned anywhere below ``stmts`` (incl. decls)."""
    names = []
    for stmt in ast.walk_stmts(stmts):
        if isinstance(stmt, ast.AssignStmt) and isinstance(stmt.target, ast.Ident):
            names.append(stmt.target.name)
        elif isinstance(stmt, ast.DeclStmt) and not stmt.is_array:
            names.append(stmt.name)
        elif isinstance(stmt, ast.ForStmt):
            if isinstance(stmt.init, ast.DeclStmt):
                names.append(stmt.init.name)
    return names


class DataflowEngine:
    """One-kernel abstract interpreter; use via :func:`analyze_kernel`."""

    def __init__(self, kernel: ast.Kernel, sizes: Mapping[str, int],
                 block: Tuple[int, int], grid: Tuple[int, int]) -> None:
        self.kernel = kernel
        self.sizes = dict(sizes)
        self.block = block
        self.grid = grid
        self.facts = KernelFacts(kernel.name, block, grid)
        self._recording = False
        self._spaces: Dict[str, str] = {}
        self._dims: Dict[str, Optional[Tuple[int, ...]]] = {}
        for param in kernel.array_params():
            self._register_array(param.name, "global", param.array_type())
        for stmt in ast.walk_stmts(kernel.body):
            if isinstance(stmt, ast.DeclStmt) and stmt.is_array:
                space = "shared" if stmt.shared else "local"
                self._register_array(stmt.name, space, stmt.array_type())

    def _register_array(self, name: str, space: str, atype) -> None:
        self._spaces[name] = space
        try:
            self._dims[name] = atype.resolved_dims(self.sizes)
        except KeyError:
            self._dims[name] = None
            self.facts.warnings.append(
                f"array {name}: unresolved extents, addresses are unbounded")

    # -- entry ---------------------------------------------------------------

    def run(self) -> KernelFacts:
        env = seed_env(self.kernel, self.sizes, self.block, self.grid)
        self._recording = True
        out = self.exec_block(self.kernel.body, env)
        if out is not None:
            self.facts.exit_env = out
        return self.facts

    # -- statements ----------------------------------------------------------

    def exec_block(self, stmts: List[ast.Stmt],
                   env: Optional[Env]) -> Optional[Env]:
        for stmt in stmts:
            if env is None:
                return None
            env = self.exec_stmt(stmt, env)
        return env

    def exec_stmt(self, stmt: ast.Stmt, env: Env) -> Optional[Env]:
        if isinstance(stmt, ast.DeclStmt):
            return self._exec_decl(stmt, env)
        if isinstance(stmt, ast.AssignStmt):
            return self._exec_assign(stmt, env)
        if isinstance(stmt, ast.ExprStmt):
            self.eval(stmt.expr, env)
            return env
        if isinstance(stmt, ast.IfStmt):
            return self._exec_if(stmt, env)
        if isinstance(stmt, ast.ForStmt):
            return self._exec_for(stmt, env)
        if isinstance(stmt, ast.WhileStmt):
            return self._exec_while(stmt, env)
        if isinstance(stmt, ast.Block):
            return self.exec_block(stmt.body, dict(env))
        if isinstance(stmt, ast.ReturnStmt):
            return None
        # SyncStmt and anything side-effect-free for scalars.
        return env

    def _exec_decl(self, stmt: ast.DeclStmt, env: Env) -> Env:
        if stmt.is_array:
            return env
        value: Optional[Val] = None
        if stmt.init is not None:
            value = self.eval(stmt.init, env)
        if stmt.type.name == "int":
            env = dict(env)
            if stmt.init is None:
                # The simulators' default int value is 0.
                env[stmt.name] = Val.const(0)
            else:
                env[stmt.name] = value if value is not None else Val.top()
        return env

    def _exec_assign(self, stmt: ast.AssignStmt, env: Env) -> Env:
        target = stmt.target
        value = self.eval(stmt.value, env)
        if isinstance(target, ast.Ident):
            if target.name in env:
                env = dict(env)
                rhs = value if value is not None else Val.top()
                cur = env[target.name]
                if stmt.op == "=":
                    env[target.name] = rhs
                elif stmt.op == "+=":
                    env[target.name] = cur.add(rhs)
                elif stmt.op == "-=":
                    env[target.name] = cur.sub(rhs)
                elif stmt.op == "*=":
                    env[target.name] = cur.mul(rhs)
                elif stmt.op == "/=":
                    env[target.name] = cur.div(rhs)
                else:
                    env[target.name] = Val.top()
            return env
        ref: Optional[ast.ArrayRef] = None
        if isinstance(target, ast.ArrayRef):
            ref = target
        elif isinstance(target, ast.Member) and isinstance(target.base, ast.ArrayRef):
            ref = target.base
        if ref is not None:
            # A compound op (+= etc.) reads the same site it writes; the
            # single store-fact covers both events (identical address set).
            self._summarize_access(ref, env, is_store=True)
        return env

    def _exec_if(self, stmt: ast.IfStmt, env: Env) -> Optional[Env]:
        env_t = self.refine(env, stmt.cond, True)
        env_f = self.refine(env, stmt.cond, False)
        if self._recording:
            self._record_verdict(stmt, env, env_t, env_f)
        out_t = self.exec_block(stmt.then_body, dict(env_t)) \
            if env_t is not None else None
        out_f = self.exec_block(stmt.else_body, dict(env_f)) \
            if env_f is not None else None
        joined = _join_envs(out_t, out_f)
        if joined is None:
            return None
        # Keep only names visible before the branch (branch-local decls die).
        return {name: val for name, val in joined.items() if name in env}

    def _record_verdict(self, stmt: ast.IfStmt, env: Env,
                        env_t: Optional[Env], env_f: Optional[Env]) -> None:
        verdict = self.eval_bool(stmt.cond, env)
        if verdict is None:
            if env_t is None:
                verdict = False
            elif env_f is None:
                verdict = True
        evidence = ""
        if verdict is not None:
            evidence = self._evidence(stmt.cond, env, verdict)
        self.facts.record_verdict(GuardVerdict(
            stmt=stmt, verdict=verdict,
            cond_text=print_expr(stmt.cond), evidence=evidence))

    def _evidence(self, cond: ast.Expr, env: Env, verdict: bool) -> str:
        if isinstance(cond, ast.Binary) and cond.op in _CMP_OPS:
            lhs = self.eval(cond.left, env)
            rhs = self.eval(cond.right, env)
            return (f"{print_expr(cond.left)} in {lhs} "
                    f"{cond.op} {print_expr(cond.right)} in {rhs} "
                    f"=> always {verdict}")
        value = self.eval(cond, env)
        return f"{print_expr(cond)} in {value} => always {verdict}"

    def _exec_loop(self, env: Env, *,
                   init: Optional[ast.Stmt], cond: Optional[ast.Expr],
                   update: Optional[ast.Stmt],
                   body: List[ast.Stmt]) -> Optional[Env]:
        env = dict(env)
        if init is not None:
            nxt = self.exec_stmt(init, env)
            if nxt is None:
                return None
            env = nxt
        head = env
        outer_recording = self._recording
        self._recording = False
        try:
            stable = False
            for round_no in range(MAX_ROUNDS):
                body_in = self.refine(head, cond, True) \
                    if cond is not None else head
                if body_in is None:
                    stable = True
                    break
                out = self.exec_block(body, dict(body_in))
                if out is not None and update is not None:
                    out = self.exec_stmt(update, out)
                new_head = _join_envs(head, out)
                assert new_head is not None  # head is never None here
                new_head = {k: v for k, v in new_head.items() if k in head}
                if new_head == head:
                    stable = True
                    break
                if round_no >= WIDEN_AFTER:
                    head = {k: head[k].widen(new_head[k]) for k in head}
                else:
                    head = new_head
            if not stable:
                # Post-fixpoint fallback: anything written inside goes top.
                forced = set(_written_names(body))
                if isinstance(update, ast.AssignStmt) \
                        and isinstance(update.target, ast.Ident):
                    forced.add(update.target.name)
                head = {k: (Val.top() if k in forced else v)
                        for k, v in head.items()}
        finally:
            self._recording = outer_recording
        # One recording pass through the stabilized body.
        body_in = self.refine(head, cond, True) if cond is not None else head
        if body_in is not None:
            out = self.exec_block(body, dict(body_in))
            if out is not None and update is not None:
                self.exec_stmt(update, out)
        if cond is None:
            return None  # for(;;) with no break construct: no fallthrough
        exit_env = self.refine(head, cond, False)
        if exit_env is None:
            return None
        if isinstance(init, ast.DeclStmt):
            exit_env = {k: v for k, v in exit_env.items() if k != init.name}
        return exit_env

    def _exec_for(self, stmt: ast.ForStmt, env: Env) -> Optional[Env]:
        return self._exec_loop(env, init=stmt.init, cond=stmt.cond,
                               update=stmt.update, body=stmt.body)

    def _exec_while(self, stmt: ast.WhileStmt, env: Env) -> Optional[Env]:
        return self._exec_loop(env, init=None, cond=stmt.cond,
                               update=None, body=stmt.body)

    # -- access summaries ----------------------------------------------------

    def _summarize_access(self, ref: ast.ArrayRef, env: Env, *,
                          is_store: bool) -> None:
        index_vals = tuple(
            val if (val := self.eval(ix, env)) is not None else Val.top()
            for ix in ref.indices)
        if not self._recording:
            return
        name = ref.name
        space = self._spaces.get(name)
        if space is None or space == "local":
            return  # locals are per-thread registers; profiler skips them too
        dims = self._dims.get(name)
        address = Val.top()
        if len(index_vals) == 1:
            # A 1-D access needs no extents: the index is the address.
            address = index_vals[0]
        elif dims is not None and len(dims) == len(index_vals) and index_vals:
            address = index_vals[0]
            for extent, val in zip(dims[1:], index_vals[1:]):
                address = address.mul(Val.const(int(extent))).add(val)
        self.facts.record_access(AccessFact(
            array=name, space=space, is_store=is_store, ref=ref,
            index_vals=index_vals, address=address, dims=dims))

    # -- expressions ---------------------------------------------------------

    def eval(self, expr: ast.Expr, env: Env) -> Optional[Val]:
        """Abstract value of ``expr``; None if not an integer quantity.

        Always traverses the whole expression so nested array loads get
        summarized even under float arithmetic.
        """
        if isinstance(expr, ast.IntLit):
            return Val.const(expr.value)
        if isinstance(expr, ast.FloatLit):
            return None
        if isinstance(expr, ast.Ident):
            return env.get(expr.name)
        if isinstance(expr, ast.ArrayRef):
            self._summarize_access(expr, env, is_store=False)
            return None  # element values are not tracked
        if isinstance(expr, ast.Member):
            self.eval(expr.base, env)
            return None
        if isinstance(expr, ast.Unary):
            operand = self.eval(expr.operand, env)
            if expr.op == "-":
                return operand.neg() if operand is not None else None
            if expr.op == "+":
                return operand
            if expr.op == "!":
                truth = self.eval_bool(expr.operand, env)
                if truth is None:
                    return Val.range(0, 1)
                return Val.const(0 if truth else 1)
            return None
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr, env)
        if isinstance(expr, ast.Ternary):
            truth = self.eval_bool(expr.cond, env)
            then_val = self.eval(expr.then, env)
            else_val = self.eval(expr.otherwise, env)
            if truth is True:
                return then_val
            if truth is False:
                return else_val
            if then_val is not None and else_val is not None:
                return then_val.join(else_val)
            return None
        if isinstance(expr, ast.Call):
            args = [self.eval(a, env) for a in expr.args]
            if expr.name in ("min", "max") and len(args) == 2 \
                    and args[0] is not None and args[1] is not None:
                a, b = args
                if expr.name == "min":
                    iv = Interval(
                        None if a.iv.lo is None or b.iv.lo is None
                        else min(a.iv.lo, b.iv.lo),
                        b.iv.hi if a.iv.hi is None else
                        (a.iv.hi if b.iv.hi is None else min(a.iv.hi, b.iv.hi)))
                else:
                    iv = Interval(
                        b.iv.lo if a.iv.lo is None else
                        (a.iv.lo if b.iv.lo is None else max(a.iv.lo, b.iv.lo)),
                        None if a.iv.hi is None or b.iv.hi is None
                        else max(a.iv.hi, b.iv.hi))
                return Val(iv, a.st.join(b.st))
            return None
        return None

    def _eval_binary(self, expr: ast.Binary, env: Env) -> Optional[Val]:
        op = expr.op
        if op in ("&&", "||"):
            truth = self.eval_bool(expr, env)
            if truth is None:
                return Val.range(0, 1)
            return Val.const(1 if truth else 0)
        left = self.eval(expr.left, env)
        right = self.eval(expr.right, env)
        if op in _CMP_OPS:
            return self._compare(op, left, right)
        if left is None or right is None:
            return None
        if op == "+":
            return left.add(right)
        if op == "-":
            return left.sub(right)
        if op == "*":
            return left.mul(right)
        if op == "/":
            return left.div(right)
        if op == "%":
            return left.mod(right)
        if op == "<<":
            return left.shl(right)
        if op == ">>":
            return left.shr(right)
        if op in ("&", "|", "^"):
            a, b = left.const_value(), right.const_value()
            if a is not None and b is not None:
                return Val.const(a & b if op == "&" else
                                 a | b if op == "|" else a ^ b)
            if op == "&" and (
                    (a is not None and a >= 0) or (b is not None and b >= 0)):
                cap = min(x for x in (a, b) if x is not None and x >= 0)
                return Val.range(0, cap)
            return Val.top()
        return None

    def _compare(self, op: str, left: Optional[Val],
                 right: Optional[Val]) -> Optional[Val]:
        if left is None or right is None:
            return Val.range(0, 1)
        truth = _static_compare(op, left, right)
        if truth is None:
            return Val.range(0, 1)
        return Val.const(1 if truth else 0)

    # -- conditions ----------------------------------------------------------

    def eval_bool(self, cond: ast.Expr, env: Env) -> Optional[bool]:
        """Three-valued truth of ``cond`` under ``env``."""
        if isinstance(cond, ast.Unary) and cond.op == "!":
            inner = self.eval_bool(cond.operand, env)
            return None if inner is None else not inner
        if isinstance(cond, ast.Binary) and cond.op == "&&":
            a = self.eval_bool(cond.left, env)
            b = self.eval_bool(cond.right, env)
            if a is False or b is False:
                return False
            if a is True and b is True:
                return True
            return None
        if isinstance(cond, ast.Binary) and cond.op == "||":
            a = self.eval_bool(cond.left, env)
            b = self.eval_bool(cond.right, env)
            if a is True or b is True:
                return True
            if a is False and b is False:
                return False
            return None
        if isinstance(cond, ast.Binary) and cond.op in _CMP_OPS:
            return _static_compare(cond.op, self.eval(cond.left, env),
                                   self.eval(cond.right, env))
        value = self.eval(cond, env)
        if value is None:
            return None
        c = value.const_value()
        if c is not None:
            return c != 0
        if not value.contains(0):
            return True
        return None

    def refine(self, env: Optional[Env], cond: Optional[ast.Expr],
               assume: bool) -> Optional[Env]:
        """Environment restricted to executions where ``cond is assume``.

        Returns ``None`` when the assumption is contradictory — the
        guarded code is unreachable under this environment.
        """
        if env is None:
            return None
        if cond is None:
            return env
        if isinstance(cond, ast.Unary) and cond.op == "!":
            return self.refine(env, cond.operand, not assume)
        if isinstance(cond, ast.Binary) and cond.op == "&&":
            if assume:
                env = self.refine(env, cond.left, True)
                return self.refine(env, cond.right, True)
            # !(a && b): only refutable when one side is definitely true.
            if self.eval_bool(cond.left, env) is True:
                return self.refine(env, cond.right, False)
            if self.eval_bool(cond.right, env) is True:
                return self.refine(env, cond.left, False)
            return env
        if isinstance(cond, ast.Binary) and cond.op == "||":
            if not assume:
                env = self.refine(env, cond.left, False)
                return self.refine(env, cond.right, False)
            if self.eval_bool(cond.left, env) is False:
                return self.refine(env, cond.right, True)
            if self.eval_bool(cond.right, env) is False:
                return self.refine(env, cond.left, True)
            return env
        if isinstance(cond, ast.Binary) and cond.op in _CMP_OPS:
            op = cond.op if assume else _FLIP[cond.op]
            out: Optional[Env] = env
            if isinstance(cond.left, ast.Ident) and cond.left.name in env:
                out = self._refine_ident(out, cond.left.name,
                                         op, self.eval(cond.right, env))
            if out is not None and isinstance(cond.right, ast.Ident) \
                    and cond.right.name in env:
                out = self._refine_ident(out, cond.right.name,
                                         _SWAP[op], self.eval(cond.left, out))
            # Even with no refinable ident, a statically-false comparison
            # proves unreachability.
            if out is not None and _static_compare(
                    cond.op, self.eval(cond.left, out),
                    self.eval(cond.right, out)) is (not assume):
                return None
            return out
        truth = self.eval_bool(cond, env)
        if truth is not None and truth != assume:
            return None
        return env

    def _refine_ident(self, env: Optional[Env], name: str, op: str,
                      bound: Optional[Val]) -> Optional[Env]:
        if env is None or bound is None:
            return env
        cur = env[name]
        if op == "<":
            if bound.iv.hi is None:
                return env
            new = cur.meet_interval(Interval(None, bound.iv.hi - 1))
        elif op == "<=":
            if bound.iv.hi is None:
                return env
            new = cur.meet_interval(Interval(None, bound.iv.hi))
        elif op == ">":
            if bound.iv.lo is None:
                return env
            new = cur.meet_interval(Interval(bound.iv.lo + 1, None))
        elif op == ">=":
            if bound.iv.lo is None:
                return env
            new = cur.meet_interval(Interval(bound.iv.lo, None))
        elif op == "==":
            new = cur.meet_interval(bound.iv)
            c = bound.const_value()
            if c is not None and not cur.st.contains(c):
                return None
            if c is not None and not new.is_bottom:
                new = Val.const(c).meet_interval(new.iv)
        elif op == "!=":
            new = cur
            c = bound.const_value()
            if c is not None:
                if cur.iv.lo == c:
                    new = cur.meet_interval(Interval(c + 1, None))
                elif cur.iv.hi == c:
                    new = cur.meet_interval(Interval(None, c - 1))
                elif cur.const_value() == c:
                    return None
        else:
            return env
        if new.is_bottom:
            return None
        out = dict(env)
        out[name] = new
        return out


def _static_compare(op: str, left: Optional[Val],
                    right: Optional[Val]) -> Optional[bool]:
    """Definite truth of ``left op right`` over intervals, else None."""
    if left is None or right is None:
        return None
    a, b = left.iv, right.iv
    if a.is_bottom or b.is_bottom:
        return None

    def lt(x: Interval, y: Interval) -> Optional[bool]:
        if x.hi is not None and y.lo is not None and x.hi < y.lo:
            return True
        if x.lo is not None and y.hi is not None and x.lo >= y.hi:
            return False
        return None

    def le(x: Interval, y: Interval) -> Optional[bool]:
        if x.hi is not None and y.lo is not None and x.hi <= y.lo:
            return True
        if x.lo is not None and y.hi is not None and x.lo > y.hi:
            return False
        return None

    if op == "<":
        return lt(a, b)
    if op == ">":
        return lt(b, a)
    if op == "<=":
        return le(a, b)
    if op == ">=":
        return le(b, a)
    if op == "==":
        la, lb = left.const_value(), right.const_value()
        if la is not None and lb is not None:
            return la == lb
        if a.meet(b).is_bottom:
            return False
        ca, cb = left.st, right.st
        if ca.mod == cb.mod and ca.mod > 1 and ca.res != cb.res:
            return False
        return None
    if op == "!=":
        eq = _static_compare("==", left, right)
        return None if eq is None else not eq
    return None


def analyze_kernel(kernel: ast.Kernel, sizes: Mapping[str, int],
                   block: Tuple[int, int],
                   grid: Tuple[int, int]) -> KernelFacts:
    """Run the dataflow engine and return the fact bundle."""
    return DataflowEngine(kernel, sizes, block, grid).run()
