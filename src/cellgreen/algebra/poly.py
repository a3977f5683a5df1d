"""Dense univariate polynomials over exact rationals.

Coefficients are ``fractions.Fraction`` stored lowest degree first with
trailing zeros stripped, so the representation of each polynomial is unique
and equality is structural.  The zero polynomial has an empty coefficient
tuple and degree -1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[Fraction, int]


def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected a rational scalar, got {type(x).__name__}")


class Poly:
    """Immutable polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

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
        x = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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


X = Poly([0, 1])
ONE = Poly([1])
ZERO = Poly()


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor via the euclidean algorithm."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def squarefree_part(p: Poly) -> Poly:
    """p with all repeated factors reduced to multiplicity one (monic)."""
    if p.degree <= 0:
        return p.monic() if not p.is_zero else p
    g = poly_gcd(p, p.derivative())
    return (p // g).monic()


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: monic factors [(q_i, i)] with p ~ prod q_i**i.

    Factors are squarefree, pairwise coprime, and nonconstant; the rational
    leading content is dropped.
    """
    if p.degree <= 0:
        return []
    p = p.monic()
    out: list[tuple[Poly, int]] = []
    dp = p.derivative()
    g = poly_gcd(p, dp)
    if g.degree == 0:
        return [(p, 1)]
    w = p // g
    y = dp // g
    i = 1
    while w.degree > 0:
        z = y - w.derivative()
        q = poly_gcd(w, z)
        if q.degree > 0:
            out.append((q.monic(), i))
        w = w // q
        y = z // q
        i += 1
    return out


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
