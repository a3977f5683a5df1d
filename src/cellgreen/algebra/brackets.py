"""Rational interval arithmetic with certified enclosures for logarithms.

A Bracket is a closed interval with Fraction endpoints.  Field operations
are exact; only transcendental functions introduce width, and their tails
are bounded analytically, so every Bracket is a true enclosure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

DEFAULT_LOG_ERR = Fraction(1, 10**30)


@dataclass(frozen=True)
class Bracket:
    low: Fraction
    high: Fraction

    def __post_init__(self):
        if self.low > self.high:
            raise ValueError(f"inverted bracket [{self.low}, {self.high}]")

    @classmethod
    def point(cls, q: Fraction | int) -> Bracket:
        q = Fraction(q)
        return cls(q, q)

    @property
    def width(self) -> Fraction:
        return self.high - self.low

    def midpoint(self) -> Fraction:
        return (self.low + self.high) / 2

    def __float__(self) -> float:
        return float(self.midpoint())

    def __contains__(self, q: Fraction | int) -> bool:
        return self.low <= q <= self.high

    def contains_zero(self) -> bool:
        return self.low <= 0 <= self.high

    def overlaps(self, other: Bracket) -> bool:
        return self.low <= other.high and other.low <= self.high

    def __add__(self, other: Bracket | Fraction | int) -> Bracket:
        other = _coerce(other)
        return Bracket(self.low + other.low, self.high + other.high)

    __radd__ = __add__

    def __neg__(self) -> Bracket:
        return Bracket(-self.high, -self.low)

    def __sub__(self, other: Bracket | Fraction | int) -> Bracket:
        return self + (-_coerce(other))

    def __rsub__(self, other: Fraction | int) -> Bracket:
        return _coerce(other) - self

    def __mul__(self, other: Bracket | Fraction | int) -> Bracket:
        if not isinstance(other, Bracket):
            # A point: the four endpoint products are two, in known order.
            low, high = self.low * other, self.high * other
            return Bracket(low, high) if other >= 0 else Bracket(high, low)
        products = [
            self.low * other.low,
            self.low * other.high,
            self.high * other.low,
            self.high * other.high,
        ]
        return Bracket(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other: Bracket | Fraction | int) -> Bracket:
        other = _coerce(other)
        if other.contains_zero():
            raise ZeroDivisionError("bracket divisor straddles zero")
        inv = Bracket(1 / other.high, 1 / other.low)
        return self * inv

    def __rtruediv__(self, other: Fraction | int) -> Bracket:
        return _coerce(other) / self

    def approx_str(self, digits: int = 12) -> str:
        return f"{float(self):.{digits}g} (+/- {float(self.width) / 2:.3g})"


def _coerce(x: Bracket | Fraction | int) -> Bracket:
    if isinstance(x, Bracket):
        return x
    return Bracket.point(Fraction(x))


def _atanh_bracket(t: Fraction, abs_err: Fraction) -> Bracket:
    """Enclosure of atanh(t) for |t| < 1 via the odd power series.

    The K terms t^(2j+1) / (2j+1), j < K, leave a tail below
    e_K = |t|^(2K+1) / ((2K+1)(1 - t^2)), and K is the least K >= 1 with
    e_K < abs_err.  With t = a / b, e_K = |a|^(2K+1) / (b^(2K-1) (2K+1)
    (b^2 - a^2)), so that test is one integer comparison, and the sum is
    sum_(j<K) a^(2j+1) b^(2(K-1-j)) (L / (2j+1)) over b^(2K-1) L, with
    L = lcm(1, 3, ..., 2K-1): one Fraction.
    """
    if not abs(t) < 1:
        raise ValueError("atanh needs |t| < 1")
    if t == 0:
        return Bracket.point(0)
    a, b = t.numerator, t.denominator
    a2, b2 = a * a, b * b
    gap = b2 - a2
    # e_k = top / (bottom (2k + 1) gap).
    top, bottom, k = abs(a) * a2, b, 1
    while top * abs_err.denominator >= abs_err.numerator * bottom * (2 * k + 1) * gap:
        top *= a2
        bottom *= b2
        k += 1
    odd = lcm(*range(1, 2 * k, 2))
    acc, power = 0, a
    for j in range(k):
        acc = acc * b2 + odd // (2 * j + 1) * power
        power *= a2
    total = Fraction(acc, bottom * odd)
    tail = Fraction(top, bottom * (2 * k + 1) * gap)
    return Bracket(total - tail, total + tail)


@lru_cache(maxsize=None)
def _ln2(abs_err: Fraction) -> Bracket:
    return _atanh_bracket(Fraction(1, 3), abs_err / 2) * 2


def ln_bracket(q: Fraction | int, abs_err: Fraction = DEFAULT_LOG_ERR) -> Bracket:
    """Certified enclosure of ln(q) for a positive rational q.

    Reduces q into [3/4, 3/2) by powers of two, then sums
    ln(m) = 2 atanh((m-1)/(m+1)) with an explicit tail bound.  m = q / 2^k
    is kept as the integers n / d: halving doubles d, doubling doubles n.
    """
    q = Fraction(q)
    if q <= 0:
        raise ValueError("logarithm of a non-positive rational")
    k = 0
    n, d = q.numerator, q.denominator
    while 2 * n >= 3 * d:
        d *= 2
        k += 1
    while 4 * n < 3 * d:
        n *= 2
        k -= 1
    t = Fraction(n - d, n + d)
    half = abs_err / 2
    series = _atanh_bracket(t, half / 2) * 2
    if k == 0:
        return series
    scale_err = half / (2 * abs(k))
    return series + _ln2(scale_err) * k

