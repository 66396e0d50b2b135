"""Exact fixed-point arithmetic on stdlib integers.

A real number x is held as an integer n with |x - n / 2^bits| <= bound / 2^bits:
``FixedValues`` carries a tuple of such numerators with one ``bits`` and one
``bound``. π comes from Machin's formula and the background spectrum
-2cos(jπ/(d+1)) from one cosine and the Chebyshev recurrence, each with the
error bound its docstring states. No float enters either.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .linalg import require_count

#: Fractional bits of ``toeplitz_spectrum``. A recurrence length q adds
#: q / 2^400 to its certificate, below 1e-55 for every q a d <= 16 plan needs.
SPECTRUM_BITS = 400


@dataclass(frozen=True)
class FixedValues:
    """Real values x_j with |x_j - nums[j] / 2^bits| <= bound / 2^bits."""

    nums: tuple[int, ...]
    bits: int
    bound: int


def _arctan_inverse(x: int, one: int) -> int:
    """arctan(1/x) * one for an integer x >= 2, below the true value by less
    than the number of series terms plus 1: floor(floor(a/b)/c) is
    floor(a/(bc)), so each term is its true value floored, and the
    alternating tail after the last nonzero term is below 1."""
    power, square = one // x, x * x
    total, k, sign = 0, 1, 1
    while power:
        total += sign * (power // k)
        power //= square
        k, sign = k + 2, -sign
    return total


@cache
def pi_fixed(bits: int) -> int:
    """π * 2^bits rounded to an integer, within 1 of the true value.

    Machin's formula π = 16 arctan(1/5) - 4 arctan(1/239) is summed at
    ``guard`` extra bits. Its error there is below 16(t5 + 1) + 4(t239 + 1)
    for t5 <= (bits + guard)/4.6 + 1 and t239 <= (bits + guard)/15.8 + 1
    terms, which is at most 2^guard / 4, so rounding off the guard bits
    leaves at most 1/2 + 1/4.
    """
    guard = (bits + 64).bit_length() + 4
    one = 1 << (bits + guard)
    total = 16 * _arctan_inverse(5, one) - 4 * _arctan_inverse(239, one)
    return (total + (1 << (guard - 1))) >> guard


@cache
def toeplitz_spectrum(d: int) -> FixedValues:
    """-2cos(jπ/(d+1)), j = 1..d, at ``SPECTRUM_BITS`` fractional bits, each
    within 2^-SPECTRUM_BITS of the true value (bound 1).

    The values are antisymmetric by construction: the upper half is the
    negated mirror of the lower half, and the middle value of odd d is 0.

    The lower half is c_j = 2cos(jθ), θ = π/(d+1), at W = SPECTRUM_BITS + G
    work bits. c_1 comes from the Taylor series of cos at π_W // (d+1): the
    argument is off by under 3/2 work ulps, and each of the 50 or so floored
    terms by under 4, so c_1 is off by e_1 < 2^9 ulps. The Chebyshev
    recurrence c_{j+1} = c_1 c_j - c_{j-1} then carries each step's error
    f_k <= 2e_1 + 1 to c_j with weight |U_{j-1-k}(c_1/2)| <= j - k, so c_j is
    off by at most j^2 (e_1 + 1) < 2^(G-2) work ulps for
    G = 2 bitlen(j_max) + 12. Rounding to SPECTRUM_BITS adds 1/2 ulp, so the
    total stays below one.
    """
    require_count(d, "dimension")
    half = d // 2
    guard = 2 * max(half, 1).bit_length() + 12
    work = SPECTRUM_BITS + guard
    one = 1 << work
    x = pi_fixed(work) // (d + 1)
    square = x * x >> work
    cos, term, k = one, one, 0
    while term:
        k += 2
        term = term * square // (k * (k - 1)) >> work
        cos += term if k % 4 == 0 else -term
    c1 = current = 2 * cos
    previous, lower = 2 * one, []
    for _ in range(half):
        lower.append(-((current + (1 << (guard - 1))) >> guard))
        previous, current = current, (c1 * current >> work) - previous
    values = lower + [0] * (d % 2) + [-v for v in reversed(lower)]
    return FixedValues(tuple(values), SPECTRUM_BITS, 1)
