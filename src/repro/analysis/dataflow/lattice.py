"""Abstract domains for the dataflow engine: intervals and congruences.

Every integer quantity the engine tracks is a :class:`Val` — the product
of an :class:`Interval` (range of possible values, with ``None`` endpoints
for unbounded sides) and a :class:`Stride` congruence class (``value ≡ res
(mod mod)``).  The pairing is the paper's Section 3.2 address reasoning
made into a proper lattice: the interval bounds a ragged loop's reach,
the congruence captures the regular spacing block/thread merge factors
introduce (``16*idy + k`` is ``≡ k (mod 16)``).

All transfer functions are *sound over-approximations* of the simulator's
C semantics (``repro.lang.arith.c_div`` / ``c_mod``): whatever the
lockstep interpreter computes for an expression is contained in the
``Val`` the engine derives for it.  Anything not provably representable
falls back to :meth:`Val.top`, never to a narrower guess.

Widening (:meth:`Interval.widen`) jumps a still-moving bound to infinity
so loop fixpoints terminate; the congruence component needs no widening
(its chains descend through divisors, which is finite).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional, Tuple

from repro.lang.arith import c_div, c_mod

Bound = Optional[int]  # None = unbounded on that side


def _min_lo(a: Bound, b: Bound) -> Bound:
    """Lower bound of a join: ``None`` (-inf) absorbs."""
    if a is None or b is None:
        return None
    return min(a, b)


def _max_hi(a: Bound, b: Bound) -> Bound:
    if a is None or b is None:
        return None
    return max(a, b)


def _max_lo(a: Bound, b: Bound) -> Bound:
    """Lower bound of a meet: ``None`` (-inf) yields to the other side."""
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def _min_hi(a: Bound, b: Bound) -> Bound:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _add_b(a: Bound, b: Bound) -> Bound:
    if a is None or b is None:
        return None
    return a + b


@dataclass(frozen=True)
class Interval:
    """A (possibly unbounded) integer range ``[lo, hi]``.

    ``lo > hi`` (both concrete) is the *bottom* element — no value; it
    arises from contradictory guard refinement and marks unreachable code.
    """

    lo: Bound = None
    hi: Bound = None

    @staticmethod
    def top() -> "Interval":
        return Interval(None, None)

    @staticmethod
    def bottom() -> "Interval":
        return Interval(0, -1)

    @staticmethod
    def const(value: int) -> "Interval":
        return Interval(value, value)

    @property
    def is_bottom(self) -> bool:
        return self.lo is not None and self.hi is not None and self.lo > self.hi

    @property
    def is_const(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def contains(self, value: int) -> bool:
        if self.is_bottom:
            return False
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    # -- lattice operations -------------------------------------------------

    def join(self, other: "Interval") -> "Interval":
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        return Interval(_min_lo(self.lo, other.lo), _max_hi(self.hi, other.hi))

    def meet(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        return Interval(_max_lo(self.lo, other.lo), _min_hi(self.hi, other.hi))

    def widen(self, other: "Interval") -> "Interval":
        """Standard interval widening: a bound still moving goes infinite."""
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        lo = self.lo if (self.lo is not None and other.lo is not None
                         and other.lo >= self.lo) else (
            self.lo if other.lo == self.lo else None)
        hi = self.hi if (self.hi is not None and other.hi is not None
                         and other.hi <= self.hi) else (
            self.hi if other.hi == self.hi else None)
        return Interval(lo, hi)

    # -- arithmetic ----------------------------------------------------------

    def add(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        return Interval(_add_b(self.lo, other.lo), _add_b(self.hi, other.hi))

    def neg(self) -> "Interval":
        if self.is_bottom:
            return self
        return Interval(None if self.hi is None else -self.hi,
                        None if self.lo is None else -self.lo)

    def sub(self, other: "Interval") -> "Interval":
        return self.add(other.neg())

    def mul(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()

        inf = float("inf")

        def ends(iv: "Interval") -> Tuple[float, float]:
            return (-inf if iv.lo is None else float(iv.lo),
                    inf if iv.hi is None else float(iv.hi))

        def prod(x: float, y: float) -> float:
            if x == 0 or y == 0:
                return 0.0
            return x * y

        a = ends(self)
        b = ends(other)
        products = [prod(x, y) for x in a for y in b]
        lo, hi = min(products), max(products)
        return Interval(None if lo == -inf else int(lo),
                        None if hi == inf else int(hi))

    def div_const(self, divisor: int) -> "Interval":
        """C truncating division by a non-zero constant."""
        if self.is_bottom:
            return self
        if divisor == 0:
            return Interval.top()
        if divisor < 0:
            return self.neg().div_const(-divisor)
        # Monotone in the dividend for a positive divisor.
        return Interval(None if self.lo is None else c_div(self.lo, divisor),
                        None if self.hi is None else c_div(self.hi, divisor))

    def div(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        if other.is_const and other.lo not in (None, 0):
            return self.div_const(int(other.lo))  # type: ignore[arg-type]
        if other.lo is not None and other.lo >= 1 \
                and other.hi is not None:
            # All-positive divisor range: extremes at endpoint pairs.
            if self.lo is None or self.hi is None:
                return Interval.top()
            combos = [c_div(x, d)
                      for x in (self.lo, self.hi)
                      for d in (other.lo, other.hi)]
            return Interval(min(combos), max(combos))
        return Interval.top()

    def mod(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        if not other.is_const or other.lo in (None, 0):
            return Interval.top()
        m = abs(int(other.lo))  # type: ignore[arg-type]
        if self.is_const and self.lo is not None:
            return Interval.const(c_mod(self.lo, int(other.lo)))
        if self.lo is not None and self.lo >= 0:
            hi = m - 1
            if self.hi is not None and self.hi < hi:
                hi = self.hi
            return Interval(0, hi)
        # C remainder carries the dividend's sign.
        return Interval(-(m - 1), m - 1)

    def shl(self, other: "Interval") -> "Interval":
        if other.is_const and other.lo is not None and other.lo >= 0:
            return self.mul(Interval.const(1 << other.lo))
        return Interval.top()

    def shr(self, other: "Interval") -> "Interval":
        if other.is_const and other.lo is not None and other.lo >= 0 \
                and self.lo is not None and self.lo >= 0:
            # Arithmetic shift equals floor division for non-negatives.
            return self.div_const(1 << other.lo)
        return Interval.top()

    def __str__(self) -> str:
        if self.is_bottom:
            return "[]"
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


@dataclass(frozen=True)
class Stride:
    """A congruence class ``value ≡ res (mod mod)``.

    ``mod == 0`` means the exact constant ``res``; ``mod == 1`` is the
    top element (any integer).  Residues are normalized into ``[0, mod)``.
    """

    mod: int = 1
    res: int = 0

    def __post_init__(self) -> None:
        mod = abs(int(self.mod))
        res = int(self.res)
        if mod > 0:
            res = res % mod
        object.__setattr__(self, "mod", mod)
        object.__setattr__(self, "res", res)

    @staticmethod
    def top() -> "Stride":
        return Stride(1, 0)

    @staticmethod
    def const(value: int) -> "Stride":
        return Stride(0, value)

    @property
    def is_top(self) -> bool:
        return self.mod == 1

    @property
    def is_const(self) -> bool:
        return self.mod == 0

    def contains(self, value: int) -> bool:
        if self.mod == 0:
            return value == self.res
        return (value - self.res) % self.mod == 0

    def join(self, other: "Stride") -> "Stride":
        if self == other:
            return self
        m = gcd(gcd(self.mod, other.mod), abs(self.res - other.res))
        if m == 0:
            return self  # both exact constants, equal residues
        return Stride(m, self.res)

    # -- arithmetic ----------------------------------------------------------

    def add(self, other: "Stride") -> "Stride":
        m = gcd(self.mod, other.mod)
        if m == 0:
            return Stride.const(self.res + other.res)
        return Stride(m, self.res + other.res)

    def neg(self) -> "Stride":
        if self.mod == 0:
            return Stride.const(-self.res)
        return Stride(self.mod, -self.res)

    def sub(self, other: "Stride") -> "Stride":
        return self.add(other.neg())

    def mul(self, other: "Stride") -> "Stride":
        if self.mod == 0 and other.mod == 0:
            return Stride.const(self.res * other.res)
        # x ≡ r1 (m1), y ≡ r2 (m2)  =>  x*y ≡ r1*r2 (gcd(m1*m2, m1*r2, m2*r1))
        m = gcd(gcd(self.mod * other.mod, self.mod * other.res),
                other.mod * self.res)
        if m == 0:
            return Stride.const(self.res * other.res)
        return Stride(m, self.res * other.res)

    def div_exact(self, divisor: int) -> "Stride":
        """Division by a constant that exactly divides mod and res."""
        if divisor > 0 and self.mod % divisor == 0 \
                and self.res % divisor == 0:
            return Stride(self.mod // divisor, self.res // divisor)
        return Stride.top()

    def mod_const(self, divisor: int) -> "Stride":
        """Congruence of ``x % c`` (C semantics), when derivable."""
        if self.mod == 0:
            return Stride.top() if divisor == 0 \
                else Stride.const(c_mod(self.res, divisor))
        if divisor > 0 and self.mod % divisor == 0:
            # c divides the modulus: x % c is fixed for non-negative x.
            # (Sign issues for negative x make this const only mod c.)
            return Stride(divisor, self.res)
        return Stride.top()

    def __str__(self) -> str:
        if self.mod == 0:
            return f"={self.res}"
        if self.mod == 1:
            return "any"
        return f"{self.res} (mod {self.mod})"


@dataclass(frozen=True)
class Val:
    """The product domain: interval x congruence."""

    iv: Interval = Interval.top()
    st: Stride = Stride.top()

    @staticmethod
    def top() -> "Val":
        return Val(Interval.top(), Stride.top())

    @staticmethod
    def bottom() -> "Val":
        return Val(Interval.bottom(), Stride.top())

    @staticmethod
    def const(value: int) -> "Val":
        return Val(Interval.const(value), Stride.const(value))

    @staticmethod
    def range(lo: Bound, hi: Bound, mod: int = 1, res: int = 0) -> "Val":
        return Val(Interval(lo, hi), Stride(mod, res))

    @property
    def is_bottom(self) -> bool:
        return self.iv.is_bottom

    @property
    def is_const(self) -> bool:
        return self.iv.is_const

    def const_value(self) -> Optional[int]:
        return self.iv.lo if self.iv.is_const else None

    def contains(self, value: int) -> bool:
        return self.iv.contains(value) and self.st.contains(value)

    def join(self, other: "Val") -> "Val":
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        return Val(self.iv.join(other.iv), self.st.join(other.st))

    def widen(self, other: "Val") -> "Val":
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        return Val(self.iv.widen(other.iv), self.st.join(other.st))

    def meet_interval(self, iv: Interval) -> "Val":
        return Val(self.iv.meet(iv), self.st)

    # -- arithmetic ----------------------------------------------------------

    def add(self, other: "Val") -> "Val":
        return Val(self.iv.add(other.iv), self.st.add(other.st))

    def sub(self, other: "Val") -> "Val":
        return Val(self.iv.sub(other.iv), self.st.sub(other.st))

    def neg(self) -> "Val":
        return Val(self.iv.neg(), self.st.neg())

    def mul(self, other: "Val") -> "Val":
        return Val(self.iv.mul(other.iv), self.st.mul(other.st))

    def div(self, other: "Val") -> "Val":
        st = Stride.top()
        c = other.const_value()
        if c is not None and c > 0 and self.iv.lo is not None \
                and self.iv.lo >= 0:
            # Non-negative dividend, positive divisor: trunc = floor, and
            # exact congruence division is sound when everything divides.
            st = self.st.div_exact(c)
        return Val(self.iv.div(other.iv), st)

    def mod(self, other: "Val") -> "Val":
        st = Stride.top()
        c = other.const_value()
        if c is not None and c > 0 and self.iv.lo is not None \
                and self.iv.lo >= 0:
            st = self.st.mod_const(c)
        return Val(self.iv.mod(other.iv), st)

    def shl(self, other: "Val") -> "Val":
        c = other.const_value()
        if c is not None and c >= 0:
            return self.mul(Val.const(1 << c))
        return Val(self.iv.shl(other.iv), Stride.top())

    def shr(self, other: "Val") -> "Val":
        c = other.const_value()
        st = Stride.top()
        if c is not None and c >= 0 and self.iv.lo is not None \
                and self.iv.lo >= 0:
            st = self.st.div_exact(1 << c)
        return Val(self.iv.shr(other.iv), st)

    def to_dict(self) -> dict:
        return {"lo": self.iv.lo, "hi": self.iv.hi,
                "mod": self.st.mod, "res": self.st.res}

    def __str__(self) -> str:
        if self.is_bottom:
            return "bottom"
        text = str(self.iv)
        if not self.st.is_top:
            text += f" {self.st}"
        return text


TOP = Val.top()
