"""Exact-integer LLL reduction and simultaneous Diophantine approximation.

The planner needs integers q, p_1..p_d with |lambda_j q - p_j| <= eps for the
eigenvalues of the uniform coupling matrix. The reduction to lattice basis
reduction is the standard one: a (d+1)-dimensional basis whose first row
carries the scaled eigenvalues and a unit weight on q, reduced with LLL, with
candidate denominators read off the first column. Candidates are certified
against the original float eigenvalues in exact integer arithmetic, so the
lattice scaling never leaks into the certificate. A ``DiophantineResult`` is
built from the eigenvalues and q alone and derives the rest of its
certificate, so q is the only part of it a plan needs to store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

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
    largest |residual|. They are derived on construction from q and the
    float64 values of ``lambdas`` in exact integer arithmetic, and cannot be
    given, so a certificate always describes its q."""

    lambdas: tuple[float, ...]
    denominator: int
    numerators: tuple[int, ...] = field(init=False)
    residuals: tuple[float, ...] = field(init=False)
    epsilon: float = field(init=False)

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.ndim != 1 or lam.size == 0 or not np.all(np.isfinite(lam)):
            raise ValueError("lambdas must be a non-empty 1-d sequence of finite numbers")
        values = tuple(lam.tolist())
        q = require_count(self.denominator, "denominator")
        nums, den = _integer_ratios(values)
        numerators, residuals = _score(nums, den, q)
        for name, value in (
            ("lambdas", values), ("denominator", q), ("epsilon", max(map(abs, residuals)) / den),
            ("numerators", numerators), ("residuals", tuple(r / den for r in residuals)),
        ):
            object.__setattr__(self, name, value)


class PrecisionUnreachable(RuntimeError):
    """The escalation ladder ran out before reaching the requested epsilon.
    Carries the best certificate found."""

    def __init__(self, message: str, best: DiophantineResult | None):
        super().__init__(message)
        self.best = best


def _integer_ratios(values) -> tuple[list[int], int]:
    """nums and den with values[j] == nums[j] / den exactly, den a power of two."""
    den = max(v.as_integer_ratio()[1] for v in values)
    return [n * (den // r) for n, r in map(float.as_integer_ratio, values)], den


def _score(nums: list[int], den: int, q: int) -> tuple[tuple[int, ...], list[int]]:
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

    The lattice scale starts near 1/eps (so q comes out small when possible)
    and is multiplied by 16 until a candidate certifies, walking the ladder at
    most ``ESCALATIONS`` times before raising PrecisionUnreachable with the
    best certificate found. q is small-effort, not guaranteed minimal.

    The certificate holds for the float64 values of ``lambdas``, not for the
    irrational numbers they round. For the background eigenvalues
    -2cos(j pi/(d+1)) of 6 mm plans at (d, N) = (5, 32), (6, 8) and (6, 32),
    q is 2^52 or about 6.3e14: the float residuals meet eps, the true ones
    are 0.08 to 1, and the plans' true error is 1.9 to 2.0 while their
    ``measured_error``, built from the same residuals, reads about 1e-3.
    """
    lambdas = DiophantineResult(lambdas, 1).lambdas  # checked and converted
    require_positive(eps, "eps")
    nums, den = _integer_ratios(lambdas)
    eps_num, eps_den = float(eps).as_integer_ratio()
    best = None
    for q in _candidates(nums, den, eps):
        worst = max(map(abs, _score(nums, den, q)[1]))
        if worst * eps_den <= eps_num * den:
            return DiophantineResult(lambdas, q)
        if best is None or worst < best[0]:
            best = (worst, q)
    worst, q = best
    raise PrecisionUnreachable(
        f"no (q, p) with residual <= {eps:g} within {ESCALATIONS} escalations; "
        f"best residual {worst / den:.3e} at q={q}",
        DiophantineResult(lambdas, q),
    )
