"""Exact-integer LLL reduction and simultaneous Diophantine approximation.

The planner needs integers q, p_1..p_d with |lambda_j q - p_j| <= eps for the
eigenvalues of the uniform coupling matrix. The reduction to lattice basis
reduction is the standard one: a (d+1)-dimensional basis whose first row
carries the scaled eigenvalues and a unit weight on q, reduced with LLL, with
candidate denominators read off the first column. Candidates are certified
against the original float eigenvalues in exact rational arithmetic, so the
lattice scaling never leaks into the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor

import numpy as np

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

    def dot(x, y):
        return sum(a * b for a, b in zip(x, y))

    def gram_row(k):
        for j in range(k + 1):
            u = dot(rows[k], rows[j])
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
    """Certificate for |lambda_j q - p_j| <= eps, verified exactly on construction."""

    denominator: int
    numerators: tuple[int, ...]
    residuals: tuple[float, ...]
    epsilon: float
    requested: float

    def __post_init__(self):
        if self.denominator < 1:
            raise ValueError("denominator must be >= 1")
        if len(self.numerators) != len(self.residuals):
            raise ValueError("numerators and residuals disagree in length")

    def verify(self, lambdas) -> bool:
        """Re-check the certificate by direct exact multiplication."""
        lam = [Fraction(float(x)) for x in lambdas]
        if len(lam) != len(self.numerators):
            return False
        bound = Fraction(float(self.requested))
        return all(
            abs(self.denominator * f - p) <= bound for f, p in zip(lam, self.numerators)
        )


class PrecisionUnreachable(RuntimeError):
    """The escalation ladder ran out before reaching the requested epsilon.
    Carries the best certificate found."""

    def __init__(self, message: str, best: DiophantineResult | None):
        super().__init__(message)
        self.best = best


def _attempt(fractions: list[Fraction], q: int):
    numerators = [floor(q * f + Fraction(1, 2)) for f in fractions]
    residuals = [q * f - p for f, p in zip(fractions, numerators)]
    worst = max((abs(r) for r in residuals), default=Fraction(0))
    return numerators, residuals, worst


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
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("lambdas must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(lam)):
        raise ValueError("lambdas must be finite")
    if not (np.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be positive, got {eps!r}")
    fractions = [Fraction(float(x)) for x in lam]
    bound = Fraction(float(eps))
    d = lam.size

    def result_for(q, numerators, residuals, worst):
        return DiophantineResult(
            denominator=int(q),
            numerators=tuple(int(p) for p in numerators),
            residuals=tuple(float(r) for r in residuals),
            epsilon=float(worst),
            requested=float(eps),
        )

    numerators, residuals, worst = _attempt(fractions, 1)
    if worst <= bound:
        return result_for(1, numerators, residuals, worst)
    best = (worst, 1, numerators, residuals)

    scale = max(16, int(4.0 / float(eps)))
    for _ in range(ESCALATIONS):
        scaled = [floor(f * scale + Fraction(1, 2)) for f in fractions]
        basis = [[1] + scaled]
        for j in range(d):
            row = [0] * (d + 1)
            row[j + 1] = -scale
            basis.append(row)
        reduced = lll_reduce(basis)
        for q in sorted({abs(v[0]) for v in reduced if v[0] != 0}):
            numerators, residuals, worst = _attempt(fractions, q)
            if worst < best[0]:
                best = (worst, q, numerators, residuals)
            if worst <= bound:
                return result_for(q, numerators, residuals, worst)
        scale *= 16
    worst, q, numerators, residuals = best
    raise PrecisionUnreachable(
        f"no (q, p) with residual <= {eps:g} within {ESCALATIONS} escalations; "
        f"best residual {float(worst):.3e} at q={q}",
        result_for(q, numerators, residuals, worst),
    )
