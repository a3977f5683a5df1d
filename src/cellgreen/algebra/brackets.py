"""Rational interval arithmetic with certified enclosures for logarithms.

A Bracket is a closed interval with Fraction endpoints.  Field operations
are exact; only transcendental functions introduce width, and their tails
are bounded analytically, so every Bracket is a true enclosure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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
        other = _coerce(other)
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

    def to_json(self) -> dict:
        return {
            "low": str(self.low),
            "high": str(self.high),
            "approx": float(self),
        }


def _coerce(x: Bracket | Fraction | int) -> Bracket:
    if isinstance(x, Bracket):
        return x
    return Bracket.point(Fraction(x))


def _atanh_bracket(t: Fraction, abs_err: Fraction) -> Bracket:
    """Enclosure of atanh(t) for |t| < 1 via the odd power series.

    Tail after the x**(2n+1) term is bounded by |t|**(2n+3) / ((2n+3)(1-t*t)).
    """
    if not abs(t) < 1:
        raise ValueError("atanh needs |t| < 1")
    if t == 0:
        return Bracket.point(0)
    t2 = t * t
    term = t
    total = Fraction(0)
    k = 0
    while True:
        total += term / (2 * k + 1)
        k += 1
        term *= t2
        tail = abs(term) / ((2 * k + 1) * (1 - t2))
        if tail < abs_err:
            return Bracket(total - tail, total + tail)


@lru_cache(maxsize=None)
def _ln2(abs_err: Fraction) -> Bracket:
    return _atanh_bracket(Fraction(1, 3), abs_err / 2) * 2


def ln_bracket(q: Fraction | int, abs_err: Fraction = DEFAULT_LOG_ERR) -> Bracket:
    """Certified enclosure of ln(q) for a positive rational q.

    Reduces q into [3/4, 3/2) by powers of two, then sums
    ln(m) = 2 atanh((m-1)/(m+1)) with an explicit tail bound.
    """
    q = Fraction(q)
    if q <= 0:
        raise ValueError("logarithm of a non-positive rational")
    k = 0
    m = q
    while m >= Fraction(3, 2):
        m /= 2
        k += 1
    while m < Fraction(3, 4):
        m *= 2
        k -= 1
    t = (m - 1) / (m + 1)
    half = abs_err / 2
    series = _atanh_bracket(t, half / 2) * 2
    if k == 0:
        return series
    scale_err = half / (2 * abs(k))
    return series + _ln2(scale_err) * k

