"""Access collection: addresses, loop info, guards, quasi-affine terms."""

import numpy as np
import pytest

from repro.ir.access import collect_accesses, eval_int_expr, \
    int_expr_alignment
from repro.ir.indices import IndexClass
from repro.lang.parser import parse_kernel
from repro.sim.values import c_div, c_mod

SIZES = {"n": 64, "m": 64, "w": 64}


def accesses_of(source, sizes=SIZES):
    return collect_accesses(parse_kernel(source), sizes)


def by_array(source, sizes=SIZES):
    out = {}
    for a in accesses_of(source, sizes):
        out.setdefault(a.array, []).append(a)
    return out


class TestCollection:
    def test_mm_access_addresses(self, mm_source):
        accs = {repr(a): a for a in accesses_of(mm_source)}
        a_load = next(a for a in accs.values() if a.array == "a")
        assert a_load.address.coeff("idy") == 64
        assert a_load.address.coeff("i") == 1
        b_load = next(a for a in accs.values() if a.array == "b")
        assert b_load.address.coeff("i") == 64
        assert b_load.address.coeff("idx") == 1

    def test_store_flag(self, mm_source):
        stores = [a for a in accesses_of(mm_source) if a.is_store]
        assert [a.array for a in stores] == ["c"]

    def test_loop_info(self, mm_source):
        a = next(x for x in accesses_of(mm_source) if x.array == "a")
        assert len(a.loops) == 1
        loop = a.loops[0]
        assert loop.name == "i" and loop.step == 1
        assert loop.start.const == 0
        assert loop.bound.const == 64
        assert loop.trip_count({}) == 64

    def test_triangular_loop_bound_symbolic(self):
        src = """
        __global__ void f(float a[n][n], float c[n], int n) {
            float s = 0;
            for (int i = 0; i < n; i++)
                for (int j = 0; j < i; j++)
                    s += a[i][j];
            c[idx] = s;
        }
        """
        a = next(x for x in accesses_of(src, {"n": 64}) if x.array == "a")
        inner = a.loops[1]
        assert inner.name == "j"
        assert inner.bound.coeff("i") == 1
        assert inner.trip_count({"i": 10}) == 10

    def test_guards_recorded(self):
        src = """
        __global__ void f(float a[n], int n) {
            if (tidx < 16)
                a[idx] = 0;
        }
        """
        (store,) = accesses_of(src, {"n": 64})
        assert len(store.guards) == 1

    def test_shared_accesses_tagged(self):
        src = """
        __global__ void f(float a[n], int n) {
            __shared__ float s[16];
            s[tidx] = a[idx];
            __syncthreads();
            a[idx] = s[tidx];
        }
        """
        spaces = {(a.array, a.space) for a in accesses_of(src, {"n": 64})}
        assert ("s", "shared") in spaces
        assert ("a", "global") in spaces

    def test_unresolved_index(self):
        src = """
        __global__ void f(float a[n], int ind[n], int n) {
            a[ind[idx]] = 0;
        }
        """
        accs = by_array(src, {"n": 64})
        assert accs["a"][0].address is None
        assert not accs["a"][0].resolved

    def test_index_classes_match_paper(self, mm_source):
        accs = by_array(mm_source)
        a_cls = accs["a"][0].index_classes
        assert a_cls == [IndexClass.PREDEFINED, IndexClass.LOOP]
        c_cls = accs["c"][0].index_classes
        assert c_cls == [IndexClass.PREDEFINED, IndexClass.PREDEFINED]


class TestQuasiAffine:
    SRC = """
    __global__ void f(float a[n][w], float c[n], int n, int w) {
        float s = 0;
        for (int i = 0; i < w; i = i + 16) {
            int i_p = (i + 64 * bidx) % w;
            s += a[idx][i_p + tidx];
        }
        c[idx] = s;
    }
    """

    def test_opaque_term_created(self):
        accs = by_array(self.SRC, {"n": 64, "w": 64})
        load = accs["a"][0]
        assert load.resolved
        assert any(t.startswith("@") for t in load.address.terms)

    def test_eval_address_resolves_modulo(self):
        accs = by_array(self.SRC, {"n": 64, "w": 64})
        load = accs["a"][0]
        addr = load.eval_address({"idx": 3, "tidx": 3, "bidx": 1, "i": 16})
        # i_p = (16 + 64) % 64 = 16; addr = 3*64 + 16 + 3
        assert addr == 3 * 64 + 16 + 3

    def test_eval_addresses_broadcasts_the_axes(self):
        accs = by_array(self.SRC, {"n": 64, "w": 64})
        load = accs["a"][0]
        bidx = np.arange(3)[:, None, None]
        tidx = np.arange(16)[:, None]
        i = np.arange(0, 64, 16)
        grid = load.eval_addresses({"idx": bidx * 16 + tidx, "tidx": tidx,
                                    "bidx": bidx, "i": i, "tidy": 7})
        assert grid.shape == (3, 16, 4) and grid.dtype == np.int64
        for b in range(3):
            for t in range(16):
                for k in range(4):
                    assert grid[b, t, k] == load.eval_address(
                        {"idx": b * 16 + t, "tidx": t, "bidx": b,
                         "i": 16 * k})
        # Same failures as the scalar evaluator.
        with pytest.raises(KeyError):
            load.eval_addresses({"idx": tidx, "tidx": tidx, "i": i})

    def test_logical_not_term_follows_c(self):
        src = """
        __global__ void f(float a[n], float c[n], int n) {
            int q = !tidx;
            c[idx] = a[idx + q];
        }
        """
        load = by_array(src, {"n": 64})["a"][0]
        tidx = np.arange(3)
        assert load.eval_addresses({"idx": tidx, "tidx": tidx}).tolist() \
            == [1, 1, 2]
        assert [load.eval_address({"idx": t, "tidx": t})
                for t in range(3)] == [1, 1, 2]

    def test_term_reads_follows_nested_definitions(self):
        src = """
        __global__ void f(float a[n], float c[n], int n, int w) {
            for (int i = 0; i < w; i++) {
                int p = (i + bidx) % w;
                int q = (p * tidx) % 5;
                c[idx] = a[q];
            }
        }
        """
        load = by_array(src, {"n": 64, "w": 64})["a"][0]
        assert load.quasi_terms == ("@q",)
        assert load.term_reads("@q") == {"p", "tidx", "i", "bidx", "w"}

    def test_alignment_of_rotation(self):
        accs = by_array(self.SRC, {"n": 64, "w": 64})
        load = accs["a"][0]
        term = next(t for t in load.address.terms if t.startswith("@"))
        assert load.term_alignment(term) % 16 == 0


class TestHelpers:
    def test_eval_int_expr_c_division(self):
        from repro.lang.parser import parse_kernel
        src = "__global__ void f(int n) { int q = (0 - 7) / 2; }"
        expr = parse_kernel(src).body[0].init
        assert eval_int_expr(expr, {}, {}) == -3  # C truncates toward zero

    def test_eval_int_expr_c_semantics_on_arrays(self):
        src = "__global__ void f(int n) { int q = x / y * 100 + x % y; }"
        expr = parse_kernel(src).body[0].init
        x = np.arange(-9, 10)[:, None]
        y = np.array([-4, -1, 1, 2, 7])
        got = eval_int_expr(expr, {"x": x, "y": y}, {})
        assert got.shape == (19, 5)
        for i, xv in enumerate(x.ravel()):
            for j, yv in enumerate(y):
                assert got[i, j] == eval_int_expr(
                    expr, {"x": int(xv), "y": int(yv)}, {})
                assert got[i, j] == c_div(int(xv), int(yv)) * 100 \
                    + c_mod(int(xv), int(yv))
        with pytest.raises(ZeroDivisionError):
            eval_int_expr(expr, {"x": x, "y": np.array([3, 0])}, {})
        with pytest.raises(ZeroDivisionError):
            eval_int_expr(expr, {"x": 3, "y": 0}, {})

    def test_int_expr_alignment_gcd(self):
        src = "__global__ void f(int n) { int q = i * 16 + b * 64; }"
        expr = parse_kernel(src).body[0].init
        assert int_expr_alignment(expr, {"i": 1, "b": 1}) == 16
