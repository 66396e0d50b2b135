"""Exact-integer LLL reduction and simultaneous Diophantine approximation.

The planner needs integers q, p_1..p_d with |lambda_j q - p_j| <= eps for the
eigenvalues lambda_j = -2cos(j pi/(d+1)) of the uniform coupling matrix. It
passes them as ``exact.toeplitz_spectrum(d)``: 400-bit fixed-point values,
each within 2^-400 of the real number. The reduction to lattice basis
reduction is the standard one: a basis whose first row carries the scaled
values and a unit weight on q, reduced with LLL, with candidate denominators
read off the first column. The basis has one column per distinct nonzero
|lambda_j|; the spectrum is antisymmetric, so that is about half of them.
Candidates are certified on all the values in exact integer arithmetic, with
the margin q * 2^-400 added to each residual, so neither the lattice scaling
nor the fixed-point rounding leaks into the certificate, and the certificate
holds for the real eigenvalues. A ``DiophantineResult`` is built from the
values and q alone and derives the rest of its certificate, so q is the only
part of it a plan needs to store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exact import FixedValues
from .linalg import require_count, require_positive

#: Classic Lovasz parameter.
LOVASZ_DELTA = Fraction(3, 4)

#: Times ``simultaneous_diophantine`` multiplies the lattice scale by 16
#: before it gives up.
ESCALATIONS = 64


def lll_reduce(basis) -> list[list[int]]:
    """LLL-reduce integer basis rows with ``LOVASZ_DELTA``, all-integer
    arithmetic throughout.

    This is the textbook integral variant that carries the Gram-Schmidt data
    as integers lam[i][j] = d_{j+1} mu_{ij} and subdeterminants d_i, so every
    division below is exact. Raises ValueError for dependent rows.
    """
    rows = [[int(x) for x in row] for row in basis]
    n = len(rows)
    if n == 0:
        raise ValueError("empty basis")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged basis rows")
    dnum, dden = LOVASZ_DELTA.numerator, LOVASZ_DELTA.denominator

    lam = [[0] * n for _ in range(n)]
    sub = [0] * (n + 1)
    sub[0] = 1

    def gram_row(k):
        for j in range(k + 1):
            u = sum(a * b for a, b in zip(rows[k], rows[j]))
            for i in range(j):
                u = (sub[i + 1] * u - lam[k][i] * lam[j][i]) // sub[i]
            if j < k:
                lam[k][j] = u
            else:
                if u <= 0:
                    raise ValueError("basis rows are linearly dependent")
                sub[k + 1] = u

    def size_reduce(k, l):
        if 2 * abs(lam[k][l]) > sub[l + 1]:
            q, r = divmod(lam[k][l], sub[l + 1])
            if 2 * r > sub[l + 1]:
                q += 1
            if q:
                rows[k] = [a - q * b for a, b in zip(rows[k], rows[l])]
                lam[k][l] -= q * sub[l + 1]
                for i in range(l):
                    lam[k][i] -= q * lam[l][i]

    gram_row(0)
    known = 1
    k = 1
    while k < n:
        if k >= known:
            gram_row(k)
            known = k + 1
        size_reduce(k, k - 1)
        if dden * (sub[k + 1] * sub[k - 1] + lam[k][k - 1] ** 2) < dnum * sub[k] ** 2:
            rows[k - 1], rows[k] = rows[k], rows[k - 1]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            pivot = lam[k][k - 1]
            updated = (sub[k - 1] * sub[k + 1] + pivot * pivot) // sub[k]
            for i in range(k + 1, known):
                t = lam[i][k]
                lam[i][k] = (sub[k + 1] * lam[i][k - 1] - pivot * t) // sub[k]
                lam[i][k - 1] = (updated * t + pivot * lam[i][k]) // sub[k + 1]
            sub[k] = updated
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return rows


@dataclass(frozen=True)
class DiophantineResult:
    """The certificate of the denominator q for ``lambdas``: numerators
    p_j = round(lambda_j q), residuals lambda_j q - p_j and epsilon, the
    largest |residual| plus the margin q * (rounding bound) of the values. They
    are derived on construction from q and ``lambdas`` in exact integer
    arithmetic, and cannot be given, so a certificate always describes its q.

    ``lambdas`` is a ``FixedValues`` or a sequence of floats, which are held
    as the exact binary rationals they are (bound 0). The residuals are those
    of the fixed-point values; the true ones differ by at most the margin,
    which epsilon includes."""

    lambdas: FixedValues
    denominator: int
    numerators: tuple[int, ...] = field(init=False)
    residuals: tuple[float, ...] = field(init=False)
    epsilon: float = field(init=False)

    def __post_init__(self):
        values = _fixed_values(self.lambdas)
        q = require_count(self.denominator, "denominator")
        den = 1 << values.bits
        numerators, residuals = _score(values.nums, den, q)
        for name, value in (
            ("lambdas", values), ("denominator", q),
            ("epsilon", (max(map(abs, residuals)) + q * values.bound) / den),
            ("numerators", numerators), ("residuals", tuple(r / den for r in residuals)),
        ):
            object.__setattr__(self, name, value)


class PrecisionUnreachable(RuntimeError):
    """The escalation ladder ran out before reaching the requested epsilon.
    Carries the best certificate found."""

    def __init__(self, message: str, best: DiophantineResult | None):
        super().__init__(message)
        self.best = best


def _fixed_values(lambdas) -> FixedValues:
    """``lambdas`` as given, or its floats as exact binary rationals over the
    largest of their power-of-two denominators."""
    if isinstance(lambdas, FixedValues):
        return lambdas
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or lam.size == 0 or not np.all(np.isfinite(lam)):
        raise ValueError("lambdas must be a non-empty 1-d sequence of finite numbers")
    ratios = [v.as_integer_ratio() for v in lam.tolist()]
    den = max(r for _, r in ratios)
    return FixedValues(tuple(n * (den // r) for n, r in ratios), den.bit_length() - 1, 0)


def _score(nums: tuple[int, ...], den: int, q: int) -> tuple[tuple[int, ...], list[int]]:
    """p_j = round(q nums[j] / den), half up, and the residuals q nums[j] - p_j den."""
    numerators = tuple((2 * q * n + den) // (2 * den) for n in nums)
    return numerators, [q * n - p * den for n, p in zip(nums, numerators)]


def _candidates(nums: list[int], den: int, eps: float):
    """The denominators to try in order: 1, then each escalation's reduced
    lattice's first column, smallest first, for lambda_j = nums[j] / den."""
    yield 1
    scale = max(16, int(4.0 / float(eps)))
    for _ in range(ESCALATIONS):
        top = [1] + [(2 * n * scale + den) // (2 * den) for n in nums]
        basis = [top] + [[-scale * (i == j) for i in range(len(top))] for j in range(1, len(top))]
        yield from sorted({abs(v[0]) for v in lll_reduce(basis) if v[0] != 0})
        scale *= 16


def simultaneous_diophantine(lambdas, eps: float) -> DiophantineResult:
    """Find q >= 1 and integers p_j with |lambda_j q - p_j| <= eps for all j.

    ``lambdas`` is a ``FixedValues``, such as the exact background spectrum
    ``exact.toeplitz_spectrum(d)``, or a sequence of floats. A q certifies
    when every residual of the fixed-point values plus the margin
    q * bound / 2^bits meets eps, so the certificate holds for the real
    numbers the values stand for; a q whose margin alone exceeds eps never
    certifies.

    The lattice has one column per distinct nonzero |lambda_j|: a value and
    its negation have residuals of opposite sign, and an exact 0 has none, so
    for the antisymmetric background spectrum it is about half the size. Every
    candidate is still scored on all the values. The lattice scale starts
    near 1/eps (so q comes out small when possible) and is multiplied by 16
    until a candidate certifies, walking the ladder at most ``ESCALATIONS``
    times before raising PrecisionUnreachable with the best certificate
    found. q is small-effort, not guaranteed minimal.
    """
    values = DiophantineResult(lambdas, 1).lambdas  # checked and converted
    require_positive(eps, "eps")
    den = 1 << values.bits
    eps_num, eps_den = float(eps).as_integer_ratio()
    columns = list(dict.fromkeys(abs(n) for n in values.nums if n))
    best = None
    for q in _candidates(columns, den, eps):
        worst = max(map(abs, _score(values.nums, den, q)[1])) + q * values.bound
        if worst * eps_den <= eps_num * den:
            return DiophantineResult(values, q)
        if best is None or worst < best[0]:
            best = (worst, q)
    worst, q = best
    raise PrecisionUnreachable(
        f"no (q, p) with residual <= {eps:g} within {ESCALATIONS} escalations; "
        f"best residual {worst / den:.3e} at q={q}",
        DiophantineResult(values, q),
    )
