"""The scalar execution core's contracts, held on every backend.

* one C operator table — every operator x {int,int / float,float /
  int,float} x {positive, negative, zero-divisor} operands gives the
  hand-written C result (or the same error class) on lockstep,
  scheduled and vectorized, and from the static address evaluator
  ``eval_int_expr`` for ints, on a Python int and on an int64 array;
* the same table on the vectorized backend with each operand either
  uniform (one Python scalar for the launch) or varying (a lane array):
  the scalar table, NumPy and the mix of the two must agree with C;
* a store casts to the *declared* type of the variable, not to the type
  of the value it happens to hold;
* ``return`` anywhere but the end of the kernel body is a diagnosed
  refusal by the checker and by all three backends, never a silent
  fall-through;
* a runaway ``while`` trips ``max_steps`` on all three backends.
"""

import signal
from contextlib import contextmanager

import numpy as np
import pytest

from repro.ir.access import eval_int_expr
from repro.lang.astnodes import Binary, Ident, Unary
from repro.lang.parser import parse_kernel
from repro.lang.semantic import SemanticError, check_kernel
from repro.sim.backend import run_kernel
from repro.sim.interp import Interpreter, KernelRuntimeError, LaunchConfig
from repro.sim.scheduled import ScheduledInterpreter
from repro.sim.vectorized import UnsupportedKernelError, VectorizedInterpreter

BACKENDS = ("lockstep", "scheduled", "vectorized")
ONE_THREAD = LaunchConfig(grid=(1, 1), block=(1, 1))

ZDE, TE = ZeroDivisionError, TypeError
SKIP = None     # negative shift counts: undefined in C, not compared

# ---------------------------------------------------------------------------
# The C results, written out by hand
# ---------------------------------------------------------------------------

INT_PAIRS = [(7, 2), (-7, 2), (7, -2), (-7, -2), (3, 3), (5, 0), (0, 0)]
C_INT = {
    "+":  [9, -5, 5, -9, 6, 5, 0],
    "-":  [5, -9, 9, -5, 0, 5, 0],
    "*":  [14, -14, -14, 14, 9, 0, 0],
    "/":  [3, -3, -3, 3, 1, ZDE, ZDE],         # truncates toward zero
    "%":  [1, -1, 1, -1, 0, ZDE, ZDE],         # sign of the dividend
    "<":  [0, 1, 0, 1, 0, 0, 0],
    ">":  [1, 0, 1, 0, 0, 1, 0],
    "<=": [0, 1, 0, 1, 1, 0, 1],
    ">=": [1, 0, 1, 0, 1, 1, 1],
    "==": [0, 0, 0, 0, 1, 0, 1],
    "!=": [1, 1, 1, 1, 0, 1, 0],
    "&":  [2, 0, 6, -8, 3, 0, 0],
    "|":  [7, -5, -1, -1, 3, 5, 0],
    "^":  [5, -5, -7, 7, 0, 5, 0],
    "<<": [28, -28, SKIP, SKIP, 24, 5, 0],
    ">>": [1, -2, SKIP, SKIP, 0, 5, 0],        # arithmetic shift
    "&&": [1, 1, 1, 1, 1, 0, 0],
    "||": [1, 1, 1, 1, 1, 1, 0],
}

FLOAT_PAIRS = [(7.5, 2.0), (-7.5, 2.0), (7.5, -2.0), (-7.5, -2.0),
               (3.0, 3.0), (1.5, 0.0), (0.0, 0.0)]
C_FLOAT = {
    "+":  [9.5, -5.5, 5.5, -9.5, 6.0, 1.5, 0.0],
    "-":  [5.5, -9.5, 9.5, -5.5, 0.0, 1.5, 0.0],
    "*":  [15.0, -15.0, -15.0, 15.0, 9.0, 0.0, 0.0],
    "/":  [3.75, -3.75, -3.75, 3.75, 1.0, ZDE, ZDE],
    "%":  [TE] * 7,                            # '%' needs int operands
    "<":  C_INT["<"], ">": C_INT[">"], "<=": C_INT["<="],
    ">=": C_INT[">="], "==": C_INT["=="], "!=": C_INT["!="],
    # Bitwise operators coerce to int (toward zero): 7.5 -> 7, -7.5 -> -7.
    "&":  [2, 0, 6, -8, 3, 0, 0],
    "|":  [7, -5, -1, -1, 3, 1, 0],
    "^":  [5, -5, -7, 7, 0, 1, 0],
    "<<": [28, -28, SKIP, SKIP, 24, 1, 0],
    ">>": [1, -2, SKIP, SKIP, 0, 1, 0],
    "&&": C_INT["&&"], "||": C_INT["||"],
}

MIXED_PAIRS = [(7, 2.0), (-7, 2.0), (7, -2.0), (-7, -2.0), (3, 3.0),
               (5, 0.0), (0, 0.0)]
C_MIXED = dict(C_INT)
C_MIXED["/"] = [3.5, -3.5, -3.5, 3.5, 1.0, ZDE, ZDE]   # int / float: float
C_MIXED["%"] = [TE] * 7

OPERANDS = {
    "int,int": ("int", "int", INT_PAIRS, C_INT),
    "float,float": ("float", "float", FLOAT_PAIRS, C_FLOAT),
    "int,float": ("int", "float", MIXED_PAIRS, C_MIXED),
}

UNARY_INT = {"-": [-5, 5, 0], "+": [5, -5, 0], "!": [0, 0, 1]}
UNARY_FLOAT = {"-": [-2.5, 2.5, 0.0], "+": [2.5, -2.5, 0.0], "!": [0, 0, 1]}
UNARY_OPERANDS = {"int": ([5, -5, 0], UNARY_INT),
                  "float": ([2.5, -2.5, 0.0], UNARY_FLOAT)}


def _dtype(type_name):
    return np.int32 if type_name == "int" else np.float32


def _evaluate(kernel, backend, inputs, out_type):
    arrays = {name: np.array([value], dtype=_dtype(t))
              for name, (t, value) in inputs.items()}
    arrays["c"] = np.zeros(1, dtype=_dtype(out_type))
    run_kernel(kernel, ONE_THREAD, arrays, {"n": 1}, backend=backend)
    return arrays["c"][0]


def _check(kernel, inputs, out_type, want, label):
    for backend in BACKENDS:
        if isinstance(want, type):
            with pytest.raises(want):
                _evaluate(kernel, backend, inputs, out_type)
        else:
            got = _evaluate(kernel, backend, inputs, out_type)
            assert got == want, \
                f"{label} on {backend}: got {got}, C says {want}"


def _check_static(expr, operands, want, label):
    """``eval_int_expr`` on Python ints, then on int64 arrays."""
    arrays = {name: np.array([value]) for name, value in operands.items()}
    for bindings in (operands, arrays):
        if want is ZDE:
            with pytest.raises(ZeroDivisionError):
                eval_int_expr(expr, bindings, {})
        else:
            got = eval_int_expr(expr, bindings, {})
            assert np.ndim(got) == np.ndim(bindings["a"]) \
                and np.all(got == want), f"eval_int_expr {label}: got {got}"


@pytest.mark.parametrize("kinds", sorted(OPERANDS))
@pytest.mark.parametrize("op", sorted(C_INT))
def test_binary_operator_matches_c(op, kinds):
    ta, tb, pairs, table = OPERANDS[kinds]
    # The result array is int only when C's result is: int operands, or
    # an operator that yields int whatever it is given.
    out = "int" if kinds == "int,int" or op not in "+-*/" else "float"
    kernel = parse_kernel(
        f"__global__ void k({ta} a[n], {tb} b[n], {out} c[n], int n) "
        f"{{ c[idx] = a[idx] {op} b[idx]; }}")
    for (a, b), want in zip(pairs, table[op]):
        if want is SKIP:
            continue
        _check(kernel, {"a": (ta, a), "b": (tb, b)}, out, want,
               f"{a!r} {op} {b!r}")
        if kinds != "int,int":
            continue
        _check_static(Binary(op, Ident("a"), Ident("b")),
                      {"a": a, "b": b}, want, f"{a} {op} {b}")


@pytest.mark.parametrize("type_name", sorted(UNARY_OPERANDS))
@pytest.mark.parametrize("op", sorted(UNARY_INT))
def test_unary_operator_matches_c(op, type_name):
    values, table = UNARY_OPERANDS[type_name]
    out = "int" if op == "!" else type_name
    kernel = parse_kernel(
        f"__global__ void k({type_name} a[n], {out} c[n], int n) "
        f"{{ c[idx] = {op}a[idx]; }}")
    for a, want in zip(values, table[op]):
        _check(kernel, {"a": (type_name, a)}, out, want, f"{op}{a!r}")
        if type_name == "int":
            _check_static(Unary(op, Ident("a")), {"a": a}, want, f"{op}{a}")


# ---------------------------------------------------------------------------
# The vectorized backend: uniform and varying operands
# ---------------------------------------------------------------------------

TWO_THREADS = LaunchConfig(grid=(1, 1), block=(2, 1))

#: ``a[idx]`` is a lane array (idx varies); ``a[0]`` is read through an
#: all-uniform subscript and stays one Python scalar for the launch.
OPERAND = {"lane": "{0}[idx]", "uniform": "{0}[0]"}


@pytest.mark.parametrize("shape", ["uniform,uniform", "uniform,lane",
                                   "lane,uniform", "lane,lane"])
@pytest.mark.parametrize("kinds", sorted(OPERANDS))
@pytest.mark.parametrize("op", sorted(C_INT))
def test_binary_operator_matches_c_whatever_varies(op, kinds, shape):
    ta, tb, pairs, table = OPERANDS[kinds]
    left, right = shape.split(",")
    out = "int" if kinds == "int,int" or op not in "+-*/" else "float"
    kernel = parse_kernel(
        f"__global__ void k({ta} a[n], {tb} b[n], {out} c[n], int n) "
        f"{{ c[idx] = {OPERAND[left].format('a')} {op} "
        f"{OPERAND[right].format('b')}; }}")
    for (a, b), want in zip(pairs, table[op]):
        if want is SKIP:
            continue
        arrays = {"a": np.full(2, a, dtype=_dtype(ta)),
                  "b": np.full(2, b, dtype=_dtype(tb)),
                  "c": np.zeros(2, dtype=_dtype(out))}
        run = lambda: run_kernel(kernel, TWO_THREADS, arrays, {"n": 2},
                                 backend="vectorized")
        if isinstance(want, type):
            with pytest.raises(want):
                run()
        else:
            run()
            assert list(arrays["c"]) == [want, want], \
                f"{a!r} {op} {b!r} with {shape} operands"


@pytest.mark.parametrize("shape", sorted(OPERAND))
@pytest.mark.parametrize("type_name", sorted(UNARY_OPERANDS))
@pytest.mark.parametrize("op", sorted(UNARY_INT))
def test_unary_operator_matches_c_whatever_varies(op, type_name, shape):
    values, table = UNARY_OPERANDS[type_name]
    out = "int" if op == "!" else type_name
    kernel = parse_kernel(
        f"__global__ void k({type_name} a[n], {out} c[n], int n) "
        f"{{ c[idx] = {op}{OPERAND[shape].format('a')}; }}")
    for a, want in zip(values, table[op]):
        arrays = {"a": np.full(2, a, dtype=_dtype(type_name)),
                  "c": np.zeros(2, dtype=_dtype(out))}
        run_kernel(kernel, TWO_THREADS, arrays, {"n": 2},
                   backend="vectorized")
        assert list(arrays["c"]) == [want, want], f"{op}{a!r} ({shape})"


# ---------------------------------------------------------------------------
# A store casts to the declared type
# ---------------------------------------------------------------------------

EIGHT = LaunchConfig(grid=(1, 1), block=(8, 1))

#: (declared type, stores in order, expression read back, C's value)
DECLARED_CASTS = [
    ("float", "s = 3;", "s / 2", 1.5),
    ("float", "if (tidx < 4) { s = 3; }", "s / 2", None),   # per lane
    ("float", "s = 7; s = s / 2;", "s", 3.5),
    ("int", "s = 2.75;", "s", 2.0),
    ("int", "s = 0 - 2.75;", "s", -2.0),                    # toward zero
    ("int", "s = 7; s /= 2.0;", "s", 3.0),
    ("int", "if (tidx < 4) { s = 2.75; }", "s * 2", None),
]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("declared,stores,read,want", DECLARED_CASTS)
def test_store_casts_to_the_declared_type(declared, stores, read, want,
                                          backend):
    kernel = parse_kernel(
        f"__global__ void k(float c[n], int n) "
        f"{{ {declared} s = 0; {stores} c[idx] = {read}; }}")
    c = np.zeros(8, dtype=np.float32)
    run_kernel(kernel, EIGHT, {"c": c}, {"n": 8}, backend=backend)
    if want is None:    # the guarded store reached lanes 0..3 only
        taken = 1.5 if declared == "float" else 4.0
        want = [taken] * 4 + [0.0] * 4
    else:
        want = [want] * 8
    assert list(c) == want


# ---------------------------------------------------------------------------
# `return` is refused, not ignored
# ---------------------------------------------------------------------------

EARLY_RETURN = """
__global__ void k(float c[n], int n) {
    if (idx >= 4) {
        return;
    }
    c[idx] = 1.0;
}
"""

TRAILING_RETURN = """
__global__ void k(float c[n], int n) {
    c[idx] = 1.0;
    return;
}
"""

SIXTEEN = LaunchConfig(grid=(1, 1), block=(16, 1))


def test_checker_rejects_early_return_naming_the_line():
    with pytest.raises(SemanticError, match=r"line 4: 'return'"):
        check_kernel(parse_kernel(EARLY_RETURN))


@pytest.mark.parametrize("backend", BACKENDS + ("auto",))
def test_every_backend_refuses_early_return(backend):
    c = np.zeros(16, dtype=np.float32)
    with pytest.raises((KernelRuntimeError, UnsupportedKernelError),
                       match="return"):
        run_kernel(parse_kernel(EARLY_RETURN), SIXTEEN, {"c": c}, {"n": 16},
                   backend=backend)
    assert not c.any(), "a refused kernel must not have run"


@pytest.mark.parametrize("backend", BACKENDS)
def test_trailing_return_still_runs(backend):
    kernel = parse_kernel(TRAILING_RETURN)
    check_kernel(kernel)
    c = np.zeros(16, dtype=np.float32)
    run_kernel(kernel, SIXTEEN, {"c": c}, {"n": 16}, backend=backend)
    assert (c == 1.0).all()


# ---------------------------------------------------------------------------
# Every loop back-edge is charged to max_steps
# ---------------------------------------------------------------------------

RUNAWAY_WHILE = """
__global__ void k(float c[n], int n) {
    int i = 0;
    while (i < 1) { }
    c[idx] = 1.0;
}
"""


@contextmanager
def wall_clock_limit(seconds):
    """Fail instead of hanging CI if the budget never trips."""
    def expired(signum, frame):
        raise AssertionError(f"still running after {seconds} s: the loop "
                             f"never reached max_steps")
    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("interpreter", [Interpreter, ScheduledInterpreter,
                                         VectorizedInterpreter],
                         ids=BACKENDS)
def test_empty_body_while_trips_the_step_budget(interpreter):
    kernel = parse_kernel(RUNAWAY_WHILE)
    arrays = {"c": np.zeros(16, dtype=np.float32)}
    with wall_clock_limit(30), \
            pytest.raises(KernelRuntimeError, match="exceeded 10000"):
        interpreter(kernel, max_steps=10_000).run(SIXTEEN, arrays, {"n": 16})
