"""Truncated power series with explicit knowledge tracking.

A ``PowerSeries`` stores exactly ``order`` known coefficients (indices
0..order-1); everything from z**order on is unknown.  Arithmetic propagates
the number of known coefficients conservatively so a result never claims
more knowledge than its inputs justify.  ``expand_scaled`` expands a
rational function by an integer recurrence in a scaled variable, for
``series_from_ratfunc`` and for the integer levels of ``green_series``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Union

from .poly import clear_denominators
from .ratfunc import PoleError, RatFunc

Scalar = Union[Fraction, int]


class PowerSeries:
    """Immutable truncated series: ``coeffs`` has length exactly ``order``.

    The product of two series is one big-integer product (Kronecker
    substitution).  Each operand's first ``n = min(orders)`` coefficients
    are written as integer numerators ``a_i`` over the lcm ``den_a`` of their
    denominators, and packed into the integer ``A = sum a_i 2**(w*i)``;
    likewise ``B`` from ``b_j`` over ``den_b``.  Then ``A*B = sum c_k
    2**(w*k)`` with ``c_k = sum_{i+j=k} a_i b_j``, the numerators of the
    product over ``den_a*den_b``.

    The slot width ``w`` is ``bits(max|a|) + bits(max|b|) + bits(n) + 2``,
    rounded up to whole bytes.  A slot sums at most ``n`` products, so
    ``|c_k| < 2**(w-2)``: no slot overflows into its neighbour.  The slots
    are signed, so a negative ``c_k`` borrows from the slot above.  Adding
    ``2**(w-1)`` to each of the low ``n`` slots settles every borrow in one
    big-integer addition: slot ``k`` then holds ``c_k + 2**(w-1)``, which lies
    in ``[0, 2**w)``, so the low ``n*w`` bits split into exactly these digits
    and the higher slots only add multiples of ``2**(n*w)``.  Subtracting
    ``2**(w-1)`` from each digit gives ``c_k`` exactly, and ``Fraction``
    reduces ``c_k / (den_a*den_b)`` to the canonical coefficient that the
    schoolbook sum would give.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Iterable[Scalar], order: int | None = None):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if order is None:
            order = len(cs)
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(cs) > order:
            raise ValueError("more coefficients than the stated order")
        cs.extend(Fraction(0) for _ in range(order - len(cs)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("PowerSeries is immutable")

    @classmethod
    def one(cls, order: int) -> PowerSeries:
        return cls([1] if order > 0 else [], order)

    @classmethod
    def from_scaled(cls, ints: list[int], den: int, scale: int) -> PowerSeries:
        """The series with coefficient n equal to ints[n] / (den scale^n)."""
        coeffs = []
        for x in ints:
            coeffs.append(Fraction(x, den))
            den *= scale
        return cls(coeffs)

    # -- queries ---------------------------------------------------------

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k < self.order:
            raise IndexError(f"coefficient {k} is beyond the known order {self.order}")
        return self.coeffs[k]

    def valuation(self) -> int:
        """Index of the first nonzero known coefficient, or ``order`` if none."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return self.order

    @property
    def is_zero(self) -> bool:
        """True when every known coefficient vanishes."""
        return all(c == 0 for c in self.coeffs)

    def truncate(self, order: int) -> PowerSeries:
        if order > self.order:
            raise ValueError("cannot extend knowledge by truncation")
        return PowerSeries(self.coeffs[:order], order)

    # -- arithmetic: result order = min of operand orders -----------------

    def __add__(self, other: PowerSeries) -> PowerSeries:
        n = min(self.order, other.order)
        return PowerSeries(
            [self.coeffs[i] + other.coeffs[i] for i in range(n)], n
        )

    def __neg__(self) -> PowerSeries:
        return PowerSeries([-c for c in self.coeffs], self.order)

    def __sub__(self, other: PowerSeries) -> PowerSeries:
        return self + (-other)

    def __mul__(self, other: PowerSeries | Scalar) -> PowerSeries:
        if isinstance(other, (Fraction, int)):
            return PowerSeries([c * other for c in self.coeffs], self.order)
        n = min(self.order, other.order)
        if n == 0:
            return PowerSeries([], 0)
        a, den_a = clear_denominators(self.coeffs[:n])
        b, den_b = clear_denominators(other.coeffs[:n])
        den = den_a * den_b
        return PowerSeries([Fraction(c, den) for c in int_product(a, b, n)], n)

    __rmul__ = __mul__

    def compose(self, inner: PowerSeries) -> PowerSeries:
        """Substitute ``inner`` for the variable.

        Requires valuation(inner) >= 1 (a nonzero constant term would feed the
        unknown tail of the outer series into every coefficient).  The result
        carries order

            n = min(inner.order, outer.order * max(valuation(inner), 1))

        because the unknown tail of the outer series contributes only from
        z**(outer.order * valuation) on, while the unknown tail of the inner
        series perturbs the result from z**inner.order on.  In particular a
        valuation >= 2 inner with outer.order * valuation >= inner.order
        preserves the inner order, and composing with z of sufficient order
        is the identity.

        Horner's rule runs over outer coefficients k = k_max .. 0 with
        k_max = (n - 1) // val, val = max(valuation(inner), 1): higher
        powers of ``inner`` vanish mod z**n.  The step for coefficient k is
        computed only mod z**(n - k*val), since the accumulator is then
        multiplied by ``inner`` k more times and each product raises its
        valuation by val.  The accumulator is one list of integer numerators
        over a common denominator, reduced by one gcd per step; the
        ``Fraction`` coefficients are built once, at the end.
        """
        if inner.order == 0:
            return PowerSeries([], 0)
        if inner.coeffs[0] != 0:
            raise ValueError("inner series must have zero constant term")
        val = max(inner.valuation(), 1)
        n = min(inner.order, self.order * val)
        if n == 0 or self.order == 0:
            return PowerSeries([], n)
        k_max = min(self.order - 1, (n - 1) // val)
        b, den_b = clear_denominators(inner.coeffs[:n])
        top = self.coeffs[k_max]
        acc, den = [top.numerator], top.denominator
        for k in range(k_max - 1, -1, -1):
            m = n - k * val
            acc = int_product(acc, b[:m], m)
            den *= den_b
            c = self.coeffs[k]
            scale = c.denominator // math.gcd(den, c.denominator)
            if scale > 1:
                acc = [x * scale for x in acc]
                den *= scale
            acc[0] += c.numerator * (den // c.denominator)
            g = math.gcd(den, *acc)
            if g > 1:
                acc = [x // g for x in acc]
                den //= g
        return PowerSeries([Fraction(x, den) for x in acc], n)

    # -- plumbing ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("PowerSeries", self.order, self.coeffs))

    def __repr__(self) -> str:
        return f"PowerSeries({list(self.coeffs)!r}, order={self.order})"


def int_product(a: list[int], b: list[int], n: int) -> list[int]:
    """First ``n`` coefficients of the product of integer coefficient lists.

    One big-integer product by Kronecker substitution; the class docstring
    gives the slot width and the borrow settling.  Slot ``k < n`` sums at
    most ``n`` products, whatever the lengths of ``a`` and ``b``.
    """
    a, b = a[:n], b[:n]
    width = _bits_of_max(a) + _bits_of_max(b) + n.bit_length() + 2
    size = (width + 7) // 8
    half = 1 << (8 * size - 1)
    low = _pack(a, size) * _pack(b, size) + pack_slots([half] * n, size)
    return [x - half for x in unpack_slots(low, size, n)]


def _bits_of_max(nums: list[int]) -> int:
    return max(max(nums), -min(nums)).bit_length()


def _pack(nums: list[int], size: int) -> int:
    """``sum nums[i] * 256**(size*i)`` for signed ``|nums[i]| < 256**size``."""
    pos = pack_slots([x if x > 0 else 0 for x in nums], size)
    return pos - pack_slots([-x if x < 0 else 0 for x in nums], size)


def pack_slots(nums: list[int], size: int) -> int:
    """``sum nums[i] * 256**(size*i)`` for ``0 <= nums[i] < 256**size``."""
    return int.from_bytes(
        b"".join(x.to_bytes(size, "little") for x in nums), "little"
    )


def unpack_slots(packed: int, size: int, n: int) -> list[int]:
    """The low ``n`` slots of ``size`` bytes of a nonnegative ``packed``."""
    digits = (packed & ((1 << (8 * size * n)) - 1)).to_bytes(size * n, "little")
    return [
        int.from_bytes(digits[k : k + size], "little")
        for k in range(0, size * n, size)
    ]


def expand_scaled(r: RatFunc, scale: int, count: int) -> tuple[list[int], int]:
    """Integers ``a_n`` and ``c >= 1`` with coefficient n of r = a_n / (c scale^n).

    Put z = scale w and divide numerator and denominator by den(0): then
    r(scale w) = N(w) / Q(w) with Q(0) = 1.  Q must have integer
    coefficients (``ArithmeticError`` otherwise), and ``c`` is the lcm of
    the denominators of N's coefficients.  The coefficients of
    c r(scale w) then obey a_n = c N_n - sum_(k >= 1) Q_k a_(n-k), a
    recurrence in integers alone, with no division.
    """
    den0 = r.den.coefficient(0)
    if den0 == 0:
        raise PoleError(Fraction(0))
    q = [c / den0 * scale**k for k, c in enumerate(r.den.coeffs)]
    if any(x.denominator != 1 for x in q):
        raise ArithmeticError(f"the denominator is not integral in z/{scale}")
    num, c = clear_denominators(
        [x / den0 * scale**k for k, x in enumerate(r.num.coeffs)]
    )
    # Coefficients -Q_deg .. -Q_1, against a_(n-deg) .. a_(n-1).
    back = [-x.numerator for x in reversed(q[1:])]
    deg = len(back)
    out: list[int] = []
    for n in range(count):
        lo = max(n - deg, 0)
        s = sum(map(mul, back[deg - n + lo :], out[lo:n]))
        out.append(s + num[n] if n < len(num) else s)
    return out, c


def series_from_ratfunc(r: RatFunc, order: int) -> PowerSeries:
    """Expand a rational function with den(0) != 0 to ``order`` coefficients.

    The scale is the lcm of the denominators of den(z) / den(0), so that
    ``expand_scaled`` finds its denominator integral.
    """
    den0 = r.den.coefficient(0)
    if den0 == 0:
        raise PoleError(Fraction(0))
    scale = math.lcm(*[(c / den0).denominator for c in r.den.coeffs])
    return PowerSeries.from_scaled(*expand_scaled(r, scale, order), scale)
