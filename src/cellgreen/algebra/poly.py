"""Dense univariate polynomials over exact rationals, with an integer kernel.

Coefficients are ``fractions.Fraction`` stored lowest degree first with
trailing zeros stripped, so the representation of each polynomial is unique
and equality is structural.  The zero polynomial has an empty coefficient
tuple and degree -1.

The hot routines run on plain ints: ``integer_content`` splits a Poly into
a positive content times primitive integers, evaluation is one homogenized
integer Horner, and ``poly_gcd`` and the Sturm chains in ``roots`` step a
primitive pseudo-remainder sequence (Collins, J. ACM 14, 1967).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

Scalar = Union[Fraction, int]


def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected a rational scalar, got {type(x).__name__}")


def clear_denominators(coeffs: Sequence[Scalar]) -> tuple[list[int], int]:
    """Integer numerators of ``coeffs`` over the lcm of their denominators."""
    den = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def integer_content(coeffs: Sequence[Scalar]) -> tuple[list[int], Fraction]:
    """``(ints, c)``: coprime integers and a rational ``c > 0``, coeffs == c * ints."""
    ints, den = clear_denominators(coeffs)
    g = gcd(*ints) or 1
    return [v // g for v in ints], Fraction(g, den)


def _homogeneous_horner(ints: Sequence[int], x: Fraction) -> int:
    """``b**n`` times the polynomial ``ints`` (degree n) at ``x = a/b``, b > 0."""
    a, b = x.numerator, x.denominator
    acc, bp = 0, 1
    for c in reversed(ints):
        acc = acc * a + c * bp
        bp *= b
    return acc


class Poly:
    """Immutable polynomial with exact rational coefficients."""

    __slots__ = ("coeffs", "_integer")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_integer", None)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- basic queries ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def integer_form(self) -> tuple[list[int], Fraction]:
        """``integer_content`` of the coefficients, computed once per Poly."""
        form = self._integer
        if form is None:
            form = integer_content(self.coeffs)
            object.__setattr__(self, "_integer", form)
        return form

    def valuation(self) -> int:
        """Index of the lowest nonzero coefficient; -1 for the zero polynomial."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return -1

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: Poly | Scalar) -> Poly:
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            self.coefficient(i) + other.coefficient(i) for i in range(n)
        )

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other: Poly | Scalar) -> Poly:
        return self + (-_coerce(other))

    def __rsub__(self, other: Scalar) -> Poly:
        return _coerce(other) - self

    def __mul__(self, other: Poly | Scalar) -> Poly:
        if isinstance(other, (Fraction, int)):
            q = _as_fraction(other)
            return Poly(c * q for c in self.coeffs)
        other = _coerce(other)
        if self.is_zero or other.is_zero:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        """Exact euclidean division; remainder degree < divisor degree."""
        other = _coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        quo = [Fraction(0)] * (dq + 1)
        lead = other.leading_coefficient()
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] / lead
            quo[k] = c
            if c != 0:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return Poly(quo), Poly(rem[: other.degree if other.degree > 0 else 0])

    def __floordiv__(self, other: Poly) -> Poly:
        return divmod(self, other)[0]

    def __mod__(self, other: Poly) -> Poly:
        return divmod(self, other)[1]

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative power")
        result = Poly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x: Scalar) -> Fraction:
        """Exact value at x: an integer Horner, then one Fraction."""
        x = _as_fraction(x)
        ints, c = self.integer_form()
        v = _homogeneous_horner(ints, x) * c.numerator
        return Fraction(v, c.denominator * x.denominator ** max(self.degree, 0))

    def sign_at(self, x: Scalar) -> int:
        """-1, 0 or 1 as p(x) is negative, zero or positive; builds no Fraction."""
        v = _homogeneous_horner(self.integer_form()[0], _as_fraction(x))
        return (v > 0) - (v < 0)

    def derivative(self) -> Poly:
        return Poly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def monic(self) -> Poly:
        if self.is_zero:
            return self
        return self * (1 / self.leading_coefficient())

    # -- dunder plumbing ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (Fraction, int)):
            other = Poly([other])
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("Poly", self.coeffs))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return format_poly(self)


def _coerce(x: Poly | Scalar) -> Poly:
    if isinstance(x, Poly):
        return x
    return Poly([_as_fraction(x)])


def prs_step(a: list[int], b: list[int]) -> list[int]:
    """The primitive part of ``a mod b``, with its sign, on integer lists.

    Pseudo-division by the nonzero ``b`` multiplies by ``|lc(b)| > 0`` at
    each step, which changes no sign.  Empty when ``b`` divides ``a``.
    """
    lb = b[-1]
    if lb < 0:
        b, lb = [-c for c in b], -lb
    r = list(a)
    for k in range(len(r) - len(b), -1, -1):
        q = r.pop()
        r = [lb * c for c in r]
        for j, c in enumerate(b[:-1], k):
            r[j] -= q * c
    while r and r[-1] == 0:
        r.pop()
    return integer_content(r)[0]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor by a primitive remainder sequence."""
    u, v = a.integer_form()[0], b.integer_form()[0]
    while v:
        u, v = v, prs_step(u, v)
    if not u:
        return Poly()
    return Poly(Fraction(c, u[-1]) for c in u)


def squarefree_part(p: Poly) -> Poly:
    """p with all repeated factors reduced to multiplicity one (monic)."""
    if p.degree <= 0:
        return p.monic() if not p.is_zero else p
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
