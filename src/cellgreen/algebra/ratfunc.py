"""Rational functions over exact rationals, eagerly normalized.

Every ``RatFunc`` keeps numerator and denominator coprime with a monic
denominator, so two equal functions always have identical representations.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly, _coerce, poly_gcd


class ZeroDenominatorError(ZeroDivisionError):
    """Denominator is identically zero."""


class PoleError(ArithmeticError):
    """Evaluation attempted at a pole."""

    def __init__(self, point: Fraction):
        super().__init__(f"pole at z = {point}")
        self.point = point


class RatFunc:
    """Quotient of two Polys, normalized on construction."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly | Fraction | int, den: Poly | Fraction | int = 1):
        num, den = _coerce(num), _coerce(den)
        if den.is_zero:
            raise ZeroDenominatorError("denominator is zero")
        # With num = 0 the gcd is den made monic, and den becomes 1.
        g = poly_gcd(num, den)
        num, den = num // g, den // g
        num, den = num * (1 / den.leading_coefficient()), den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    # -- queries ------------------------------------------------------------

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __call__(self, x: Fraction | int) -> Fraction:
        dx = self.den(x)
        if dx == 0:
            raise PoleError(Fraction(x))
        return self.num(x) / dx

    # -- plumbing ---------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (Poly, Fraction, int)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash(("RatFunc", self.num, self.den))

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r}, {self.den!r})"

    def __str__(self) -> str:
        if self.is_polynomial:
            return str(self.num * self.den.coefficient(0) ** -1)
        return f"({self.num}) / ({self.den})"

