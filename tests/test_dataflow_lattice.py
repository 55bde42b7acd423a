"""Unit pins for the interval x congruence lattice.

Soundness is the only property that matters: every transfer function
must over-approximate the simulator's C arithmetic
(``repro.sim.values.c_div`` / ``c_mod``).  The exhaustive checks at the
bottom enumerate small concrete ranges through every operator and assert
containment, so a broken transfer function fails loudly rather than
producing a subtly-narrow summary the cleanup pass would then trust.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.dataflow import Interval, Stride, Val
from repro.analysis.dataflow.engine import _join_envs
from repro.sim.values import c_div, c_mod


class TestInterval:
    def test_top_contains_everything(self):
        top = Interval.top()
        for v in (-10**9, 0, 10**9):
            assert top.contains(v)

    def test_bottom_contains_nothing(self):
        assert not Interval.bottom().contains(0)
        assert Interval.bottom().is_bottom

    def test_join_and_meet(self):
        a = Interval(0, 10)
        b = Interval(5, 20)
        assert a.join(b) == Interval(0, 20)
        assert a.meet(b) == Interval(5, 10)
        assert a.meet(Interval(11, 20)).is_bottom
        # bottom is the join identity and the meet absorber
        assert a.join(Interval.bottom()) == a
        assert a.meet(Interval.bottom()).is_bottom

    def test_join_with_unbounded_side(self):
        assert Interval(0, 10).join(Interval(5, None)) == Interval(0, None)
        assert Interval(None, 3).join(Interval(0, 4)) == Interval(None, 4)

    def test_widen_moves_unstable_bounds_to_infinity(self):
        prev = Interval(0, 10)
        assert prev.widen(Interval(0, 15)) == Interval(0, None)
        assert prev.widen(Interval(-5, 10)) == Interval(None, 10)
        # A stable iterate widens to itself: the fixpoint terminates.
        assert prev.widen(Interval(0, 10)) == prev
        assert prev.widen(Interval(2, 9)) == prev

    def test_mul_signs_and_zero(self):
        assert Interval(-2, 3).mul(Interval(-5, 4)) == Interval(-15, 12)
        assert Interval(0, 0).mul(Interval(None, None)) == Interval(0, 0)
        assert Interval(1, None).mul(Interval(2, 2)) == Interval(2, None)

    def test_div_const_truncates_like_c(self):
        # C division truncates toward zero: -7/2 == -3, not -4.
        assert Interval(-7, 7).div_const(2) == Interval(c_div(-7, 2),
                                                        c_div(7, 2))
        assert Interval(-7, 7).div_const(2) == Interval(-3, 3)
        assert Interval(4, 9).div_const(-2) == Interval(-4, -2)

    def test_mod_of_nonnegative_range(self):
        assert Interval(0, 100).mod(Interval.const(16)) == Interval(0, 15)
        assert Interval(0, 5).mod(Interval.const(16)) == Interval(0, 5)
        # A range crossing zero picks up C's signed remainder.
        assert Interval(-3, 100).mod(Interval.const(16)) == Interval(-15, 15)

    def test_shifts(self):
        assert Interval(1, 4).shl(Interval.const(3)) == Interval(8, 32)
        assert Interval(8, 32).shr(Interval.const(3)) == Interval(1, 4)
        # Shifting a possibly-negative value right is not floor division
        # in C; the lattice refuses to guess.
        assert Interval(-8, 8).shr(Interval.const(1)) == Interval.top()


class TestStride:
    def test_normalization(self):
        assert Stride(16, 19) == Stride(16, 3)
        assert Stride(-8, -3) == Stride(8, 5)

    def test_const_and_top(self):
        assert Stride.const(7).contains(7)
        assert not Stride.const(7).contains(8)
        assert Stride.top().contains(12345)

    def test_join_is_gcd(self):
        # 4 and 10 are both ≡ 4 (mod 6) ... gcd(0, 0, |4-10|) = 6.
        assert Stride.const(4).join(Stride.const(10)) == Stride(6, 4)
        assert Stride(16, 0).join(Stride(16, 8)) == Stride(8, 0)
        assert Stride(16, 1).join(Stride(16, 1)) == Stride(16, 1)

    def test_add_mul(self):
        a = Stride(16, 3)
        assert a.add(Stride.const(5)) == Stride(16, 8)
        assert a.mul(Stride.const(4)) == Stride(64, 12)
        # (16k+3)(16j+5) ≡ 15 (mod gcd(256, 80, 48) = 16)
        assert Stride(16, 3).mul(Stride(16, 5)) == Stride(16, 15)

    def test_div_exact_and_mod_const(self):
        assert Stride(64, 16).div_exact(16) == Stride(4, 1)
        assert Stride(64, 16).div_exact(3) == Stride.top()
        assert Stride(64, 5).mod_const(16) == Stride(16, 5)
        assert Stride(64, 5).mod_const(7) == Stride.top()


class TestVal:
    def test_product_containment(self):
        v = Val.range(0, 64, 16, 4)   # {4, 20, 36, 52}
        assert v.contains(20)
        assert not v.contains(21)     # right interval, wrong congruence
        assert not v.contains(84)     # right congruence, out of range

    def test_widen_keeps_congruence(self):
        a = Val.range(0, 16, 16, 0)
        b = Val.range(0, 32, 16, 0)
        w = a.widen(b)
        assert w.iv == Interval(0, None)
        assert w.st == Stride(16, 0)

    def test_div_congruence_requires_nonneg_dividend(self):
        pos = Val.range(0, 64, 16, 0).div(Val.const(16))
        assert pos.st == Stride(1, 0) or pos.st == Stride(0, 0) \
            or pos.st.contains(1)    # exact division survives
        assert pos.iv == Interval(0, 4)
        neg = Val.range(-64, 64, 16, 0).div(Val.const(16))
        assert neg.st.is_top       # trunc-vs-floor: congruence dropped

    def test_to_dict_roundtrip_fields(self):
        assert Val.range(0, 7, 2, 1).to_dict() == \
            {"lo": 0, "hi": 7, "mod": 2, "res": 1}


# ---------------------------------------------------------------------------
# Exhaustive soundness: concrete C arithmetic lands inside abstract results.
# ---------------------------------------------------------------------------

_SAMPLES = [Interval(-5, 5), Interval(0, 7), Interval(-3, 0),
            Interval(2, 2), Interval(-4, -1)]


def _members(iv):
    return range(iv.lo, iv.hi + 1)


@pytest.mark.parametrize("a", _SAMPLES)
@pytest.mark.parametrize("b", _SAMPLES)
def test_interval_ops_sound(a, b):
    for x in _members(a):
        for y in _members(b):
            assert a.add(b).contains(x + y)
            assert a.sub(b).contains(x - y)
            assert a.mul(b).contains(x * y)
            if y != 0:
                assert a.div(b).contains(c_div(x, y))
                assert a.mod(b).contains(c_mod(x, y))


@pytest.mark.parametrize("m1,r1", [(0, 4), (3, 1), (16, 5), (6, 0)])
@pytest.mark.parametrize("m2,r2", [(0, -2), (4, 3), (16, 8)])
def test_stride_ops_sound(m1, r1, m2, r2):
    s1, s2 = Stride(m1, r1), Stride(m2, r2)

    def members(mod, res, count=5):
        if mod == 0:
            return [res]
        return [res % mod + k * mod for k in range(-count, count)]

    for x in members(m1, r1):
        for y in members(m2, r2):
            assert s1.add(s2).contains(x + y)
            assert s1.sub(s2).contains(x - y)
            assert s1.mul(s2).contains(x * y)
    joined = s1.join(s2)
    for v in members(m1, r1) + members(m2, r2):
        assert joined.contains(v)


# ---------------------------------------------------------------------------
# join is idempotent: the engine's merge returns an untouched value as is
# ---------------------------------------------------------------------------

_bounds = st.one_of(st.none(), st.integers(-1000, 1000))
_vals = st.builds(
    Val,
    st.builds(Interval, _bounds, _bounds),       # lo > hi draws bottom
    st.builds(Stride, st.integers(-64, 64), st.integers(-200, 200)))


@settings(max_examples=300, deadline=None)
@given(_vals)
def test_join_is_idempotent(v):
    assert v.join(v) == v
    assert v.iv.join(v.iv) == v.iv
    assert v.st.join(v.st) == v.st


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.sampled_from("abcdef"), _vals),
       st.dictionaries(st.sampled_from("abcdef"), _vals))
def test_join_envs_shortcut_agrees_with_the_pointwise_join(a, b):
    shared = {name: a[name] for name in list(a)[::2] if name in b}
    b = dict(b, **shared)       # some names reach the merge as one object
    assert _join_envs(a, b) == {name: a[name].join(b[name])
                                for name in a if name in b}
