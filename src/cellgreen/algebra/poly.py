"""Dense univariate polynomials over the rationals, stored as integers.

A ``Poly`` is ``content * sum(ints[i] z^i)``: ``ints`` is a tuple of
coprime integers, lowest degree first, with trailing zeros stripped, and
``content`` is a positive ``Fraction``.  The zero polynomial has ``ints``
``()``, content 1 and degree -1.  So each polynomial has exactly one
representation, and equality is structural.  ``coeffs`` gives the
``Fraction`` coefficients, for printing and interval evaluation.

Arithmetic runs on the integers.  A product multiplies the primitive parts
and the contents; a sum works over the lcm of the two content denominators
and takes one gcd; ``//`` is exact division only.  Evaluation is one
homogenized integer Horner, and ``poly_gcd`` steps a primitive
pseudo-remainder sequence (Collins, J. ACM 14, 1967) on ``ints``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Iterable, Sequence, Union

Scalar = Union[Fraction, int]


def clear_denominators(coeffs: Sequence[Scalar]) -> tuple[list[int], int]:
    """Integer numerators of ``coeffs`` over the lcm of their denominators."""
    den = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _exact_div(a: int, b: int) -> int:
    """a // b for ints where b divides a; raises if it does not."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("inexact integer division")
    return q


def schoolbook(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """First ``n`` coefficients of the product of integer lists, term by term."""
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i]):
                out[i + j] += x * y
    return out


def _homogeneous_horner(ints: Sequence[int], a: int, b: int) -> int:
    """``b**n`` times the polynomial ``ints`` (degree n) at ``a/b``, b > 0."""
    acc, bp = 0, 1
    for c in reversed(ints):
        acc = acc * a + c * bp
        bp *= b
    return acc


class Poly:
    """Immutable polynomial ``content * sum(ints[i] z^i)``."""

    __slots__ = ("ints", "content")

    def __new__(cls, coeffs: Iterable[Scalar] = ()):
        ints, den = clear_denominators(list(coeffs))
        return cls.from_ints(ints, Fraction(1, den))

    @classmethod
    def from_ints(
        cls, ints: Iterable[int], content: Fraction = Fraction(1)
    ) -> Poly:
        """``content * sum(ints[i] z^i)`` for integers ``ints`` and a
        ``Fraction`` ``content > 0``: trailing zeros stripped, one gcd taken."""
        ints = list(ints)
        while ints and ints[-1] == 0:
            ints.pop()
        g = gcd(*ints) or 1
        content = content * g if ints else Fraction(1)
        return cls._of(tuple(v // g for v in ints), content)

    @classmethod
    def _of(cls, ints: tuple[int, ...], content: Fraction) -> Poly:
        """The Poly of coprime, stripped ``ints`` and ``content > 0``, unchecked."""
        p = object.__new__(cls)
        object.__setattr__(p, "ints", ints)
        object.__setattr__(p, "content", content)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- basic queries ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, lowest degree first."""
        return tuple(self.content * v for v in self.ints)

    @property
    def degree(self) -> int:
        return len(self.ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self.ints

    def leading_coefficient(self) -> Fraction:
        return self.coefficient(self.degree)

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.ints):
            return self.content * self.ints[k]
        return Fraction(0)

    def valuation(self) -> int:
        """Index of the lowest nonzero coefficient; -1 for the zero polynomial."""
        return next((i for i, v in enumerate(self.ints) if v), -1)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: Poly | Scalar) -> Poly:
        """The sum over the lcm of the two content denominators, made
        primitive by one gcd."""
        other = _coerce(other)
        a, b = self.content, other.content
        den = lcm(a.denominator, b.denominator)
        ka = a.numerator * (den // a.denominator)
        kb = b.numerator * (den // b.denominator)
        pairs = zip_longest(self.ints, other.ints, fillvalue=0)
        return Poly.from_ints((ka * u + kb * v for u, v in pairs), Fraction(1, den))

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly._of(tuple(-v for v in self.ints), self.content)

    def __sub__(self, other: Poly | Scalar) -> Poly:
        return self + (-_coerce(other))

    def __rsub__(self, other: Scalar) -> Poly:
        return _coerce(other) - self

    def __mul__(self, other: Poly | Scalar) -> Poly:
        """The product of the primitive parts times that of the contents.

        By Gauss's lemma a product of primitive integer polynomials is
        primitive, so the product takes no gcd.  A scalar is the constant
        polynomial of its sign times its absolute value.
        """
        other = _coerce(other)
        x, y = self.ints, other.ints
        if not x or not y:
            return Poly()
        ints = schoolbook(x, y, len(x) + len(y) - 1)
        return Poly._of(tuple(ints), self.content * other.content)

    __rmul__ = __mul__

    def __floordiv__(self, other: Poly | Scalar) -> Poly:
        """The exact quotient; ``ArithmeticError`` when ``other`` does not divide.

        Let primitive B divide primitive A, with quotient c Q0, Q0
        primitive.  Then A = c (B Q0), and B Q0 is primitive by Gauss's
        lemma, so c = +-1: the quotient has integer coefficients, and each
        step of the long division of ``ints`` by ``other.ints`` divides
        exactly.
        """
        other = _coerce(other)
        b = other.ints
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        if not self.ints:
            return self
        rem, top = list(self.ints), len(b) - 1
        quo = [0] * max(len(rem) - top, 0)
        for k in reversed(range(len(quo))):
            q = quo[k] = _exact_div(rem[k + top], b[-1])
            for j, v in enumerate(b, k):
                rem[j] -= q * v
        if any(rem):
            raise ArithmeticError("polynomial division leaves a remainder")
        return Poly._of(tuple(quo), self.content / other.content)

    def __call__(self, x: Scalar) -> Fraction:
        """Exact value at x: an integer Horner, then one Fraction."""
        c = self.content
        v = _homogeneous_horner(self.ints, x.numerator, x.denominator) * c.numerator
        return Fraction(v, c.denominator * x.denominator ** max(self.degree, 0))

    def sign_at(self, x: Scalar) -> int:
        """-1, 0 or 1 as p(x) is negative, zero or positive; builds no Fraction."""
        v = _homogeneous_horner(self.ints, x.numerator, x.denominator)
        return (v > 0) - (v < 0)

    def derivative(self) -> Poly:
        return Poly.from_ints(
            (i * v for i, v in enumerate(self.ints[1:], 1)), self.content
        )

    def monic(self) -> Poly:
        if not self.ints:
            return self
        lead = self.ints[-1]
        ints = self.ints if lead > 0 else tuple(-v for v in self.ints)
        return Poly._of(ints, Fraction(1, abs(lead)))

    # -- dunder plumbing ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (Fraction, int)):
            other = Poly([other])
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ints == other.ints and self.content == other.content

    def __hash__(self) -> int:
        return hash(("Poly", self.ints, self.content))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return format_poly(self)


def _coerce(x: Poly | Scalar) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (Fraction, int)):
        return Poly([x])
    raise TypeError(f"cannot interpret {type(x).__name__} as a polynomial")


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor by a primitive remainder sequence.

    Each step replaces (u, v) by v and the primitive part of the pseudo-
    remainder of u by v, which is ``lc(v)^(deg u - deg v + 1) u`` mod v.
    """
    u, v = a.ints, b.ints
    while v:
        r, lc = list(u), v[-1]
        for k in range(len(r) - len(v), -1, -1):
            q = r.pop()
            r = [lc * c for c in r]
            for j, c in enumerate(v[:-1], k):
                r[j] -= q * c
        while r and r[-1] == 0:
            r.pop()
        g = gcd(*r)
        u, v = v, [c // g for c in r] if g > 1 else r
    return Poly._of(tuple(u), Fraction(1)).monic()


def squarefree_part(p: Poly) -> Poly:
    """p with all repeated factors reduced to multiplicity one (monic)."""
    if p.degree <= 0:
        return p.monic()
    g = poly_gcd(p, p.derivative())
    return (p // g).monic()


def format_poly(p: Poly, var: str = "z") -> str:
    """Human-readable form like ``z^4 - 9z^2 + 9`` (highest degree first)."""
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for i in range(p.degree, -1, -1):
        c = p.coefficient(i)
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            z = var if i == 1 else f"{var}^{i}"
            body = z if mag == 1 else f"{mag}{z}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)
