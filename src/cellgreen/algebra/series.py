"""Power series as integer coefficient lists in a scaled variable.

``expand_scaled`` expands a rational function by an integer recurrence in
w = z / scale, at the scale ``CellFunctions.scale``, for ``green_series``
and the ``functions`` subcommand; ``scaled_fractions`` turns such integers
back into the ``Fraction`` coefficients in z.  ``int_product``,
``pack_slots`` and ``unpack_slots`` are the Kronecker substitution that
the nonnegative integer levels of ``green_series`` run on; the checks of
that series multiply with ``poly.schoolbook`` instead, so that they share
no packing with it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Sequence

from .ratfunc import PoleError, RatFunc


def int_product(a: list[int], b: list[int], n: int) -> list[int]:
    """First ``n`` coefficients of the product of nonnegative integer lists.

    One big-integer product by Kronecker substitution: ``a`` and ``b`` are
    packed into slots of ``size`` bytes, and the slots of the product are
    its coefficients.  A slot has ``bits(max a) + bits(max b) + bits(n)``
    bits or more, so it holds each input, and slot ``k < n``, which sums at
    most ``n`` products whatever the lengths of ``a`` and ``b``, holds
    ``c_k <= n max(a) max(b)`` and carries nothing into the slot above.
    """
    a, b = a[:n], b[:n]
    width = max(a).bit_length() + max(b).bit_length() + n.bit_length()
    size = (width + 7) // 8
    return unpack_slots(pack_slots(a, size) * pack_slots(b, size), size, n)


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


def scaled_fractions(
    ints: Sequence[int], den: int, scale: int
) -> tuple[Fraction, ...]:
    """The coefficients ``ints[n] / (den scale^n)``, one per integer."""
    out = []
    for x in ints:
        out.append(Fraction(x, den))
        den *= scale
    return tuple(out)


def expand_scaled(r: RatFunc, scale: int, count: int) -> tuple[list[int], int]:
    """Integers ``a_n`` and ``c >= 1`` with coefficient n of r = a_n / (c scale^n).

    Put z = scale w and divide numerator and denominator by den(0): then
    r(scale w) = N(w) / Q(w) with Q(0) = 1.  Q must have integer
    coefficients (``ArithmeticError`` otherwise), and ``c`` is the lcm of
    the denominators of N's coefficients.  The coefficients of
    c r(scale w) then obey a_n = c N_n - sum_(k >= 1) Q_k a_(n-k), a
    recurrence in integers alone, with no division.

    All of it runs on ``Poly.ints``: Q_k = den_k scale^k / den_0, where
    the content cancels, and N_k = u n_k scale^k / (v den_0) with
    u / v = num.content / den.content.  Over the common denominator
    v |den_0|, the lcm of the reduced denominators is that denominator
    divided by its gcd with every numerator.
    """
    den = r.den.ints
    d0 = den[0]
    if d0 == 0:
        raise PoleError(Fraction(0))
    # Coefficients -Q_deg .. -Q_1, against a_(n-deg) .. a_(n-1).
    back = []
    for k in range(len(den) - 1, 0, -1):
        q, rem = divmod(den[k] * scale**k, d0)
        if rem:
            raise ArithmeticError(f"the denominator is not integral in z/{scale}")
        back.append(-q)
    ratio = r.num.content / r.den.content
    top = ratio.numerator if d0 > 0 else -ratio.numerator
    bottom = ratio.denominator * abs(d0)
    num = [top * x * scale**k for k, x in enumerate(r.num.ints)]
    g = math.gcd(bottom, *num)
    num = [x // g for x in num]
    c = bottom // g
    deg = len(back)
    out: list[int] = []
    for n in range(count):
        lo = max(n - deg, 0)
        s = sum(map(mul, back[deg - n + lo :], out[lo:n]))
        out.append(s + num[n] if n < len(num) else s)
    return out, c
