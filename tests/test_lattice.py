import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from pwa_synth import (
    DiophantineResult,
    PrecisionUnreachable,
    TrotterConfig,
    lll_reduce,
    simultaneous_diophantine,
    toeplitz_eigenvalues,
)
from pwa_synth import lattice
from pwa_synth.exact import FixedValues, toeplitz_spectrum

from conftest import (
    assert_exact_certificate,
    assert_lll_reduced,
    brute_force_diophantine,
    gram_determinant,
    in_lattice,
)


class TestLllReduce:
    def test_identity_unchanged(self):
        for n in (1, 2, 5):
            basis = np.eye(n, dtype=int).tolist()
            assert lll_reduce(basis) == basis

    def test_small_3x3_basis_reaches_optimal_norms(self):
        basis = [[1, 1, 1], [-1, 0, 2], [3, 5, 6]]
        reduced = lll_reduce(basis)
        assert_lll_reduced(reduced)
        assert gram_determinant(reduced) == gram_determinant(basis)
        for row in reduced:
            assert in_lattice(row, basis)
        # the shortest achievable max-norm basis of this lattice is
        # {(0,1,0), (1,0,1), (-1,0,2)}: two vectors of norm <= sqrt(2) plus
        # one of norm sqrt(5); verify the reduction reaches that quality
        norms = sorted(sum(x * x for x in row) for row in reduced)
        assert norms == [1, 2, 5]

    def test_skewed_2d_first_vector_bound(self):
        basis = [[1, 10**6], [0, 1]]
        reduced = lll_reduce(basis)
        assert_lll_reduced(reduced)
        det = abs(gram_determinant(reduced))
        n = 2
        bound = 2 ** ((n - 1) / 4.0) * det ** (1.0 / (2 * n))  # det here is Gram det
        first_norm = np.sqrt(sum(x * x for x in reduced[0]))
        assert first_norm <= bound + 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_random_lattices_reduced_and_equal(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        while True:
            basis = rng.integers(-50, 50, size=(n, n))
            if abs(np.linalg.det(basis.astype(float))) > 0.5:
                break
        basis = basis.tolist()
        reduced = lll_reduce(basis)
        assert_lll_reduced(reduced)
        assert gram_determinant(reduced) == gram_determinant(basis)
        for row in reduced:
            assert in_lattice(row, basis)

    def test_rejects_dependent_rows(self):
        with pytest.raises(ValueError, match="dependent"):
            lll_reduce([[1, 2, 3], [2, 4, 6], [1, 0, 0]])

    def test_delta_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            lll_reduce([[1, 0], [0, 1]], delta=Fraction(1, 2))

    def test_rejects_ragged(self):
        with pytest.raises(ValueError, match="ragged"):
            lll_reduce([[1, 0], [0]])


class TestSimultaneousDiophantine:
    def test_integer_lambdas_trivial(self):
        result = simultaneous_diophantine([3.0, -2.0, 0.0], 1e-9)
        assert result.denominator == 1
        assert result.numerators == (3, -2, 0)
        assert result.epsilon == 0.0

    def test_exact_rational(self):
        result = simultaneous_diophantine([0.5], 1e-6)
        assert result.denominator == 2
        assert result.numerators == (1,)
        assert result.epsilon == 0.0

    def test_toeplitz_d3_certificate_and_bruteforce(self):
        lam = toeplitz_eigenvalues(3)
        eps = 1e-2
        result = simultaneous_diophantine(toeplitz_spectrum(3), eps)
        assert result.epsilon <= eps
        assert_exact_certificate(result, 3, eps)
        # independent re-verification by direct multiplication
        for value, p in zip(lam, result.numerators):
            assert abs(value * result.denominator - p) <= eps
        q_min = brute_force_diophantine(lam, eps)
        assert q_min is not None  # feasibility confirmed independently
        x = lam * result.denominator
        assert np.max(np.abs(x - np.round(x))) <= eps

    @pytest.mark.parametrize(
        "d, n, q",
        [(2, 8, 1), (2, 32, 1), (3, 8, 15994428), (3, 32, 225058681), (4, 8, 39088169),
         (4, 32, 433494437), (5, 8, 29354524), (5, 32, 408855776), (6, 8, 1032510632574499),
         (6, 32, 431488151587413508), (7, 8, 77509325532983109645231),
         (7, 32, 319639887868700608023368670), (8, 8, 1538408380798180),
         (8, 32, 876738913955302570)],
    )
    def test_plan_denominators_are_pinned(self, d, n, q):
        # q at the 6 mm plan budgets, certified for the exact eigenvalues
        eps = TrotterConfig.epsilon_budget(d, 6e-3, n)
        result = simultaneous_diophantine(toeplitz_spectrum(d), eps)
        assert result.denominator == q
        assert_exact_certificate(result, d, eps)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_certificates_hold_exactly(self, d):
        result = simultaneous_diophantine(toeplitz_spectrum(d), 1e-3)
        assert_exact_certificate(result, d, 1e-3)
        margin = result.denominator / 2**400
        assert max(abs(r) for r in result.residuals) == result.epsilon - margin

    def test_certificate_is_derived_from_q(self):
        spectrum = toeplitz_spectrum(3)
        solved = simultaneous_diophantine(spectrum, 1e-3)
        result = DiophantineResult(spectrum, solved.denominator)
        assert result == solved
        assert result.lambdas is spectrum
        assert [f.name for f in dataclasses.fields(result) if f.init] == ["lambdas", "denominator"]
        assert not hasattr(result, "verify") and not hasattr(result, "requested")
        other = DiophantineResult(spectrum, solved.denominator + 1)
        assert other.epsilon > 1e-3
        assert_exact_certificate(other, 3, 0.5)
        # floats are held as the exact binary rationals they are
        floats = DiophantineResult([0.5, -0.75], 4)
        assert floats.lambdas == FixedValues((2, -3), 2, 0)
        assert floats.numerators == (2, -3) and floats.epsilon == 0.0

    def test_the_spectrum_search_is_not_the_float_search(self):
        # the float64 eigenvalues at (d, N) = (5, 32) certify q = 2^52 with
        # residual 0.0, a vacuous q whose true residuals reach 0.08 to 1
        eps = TrotterConfig.epsilon_budget(5, 6e-3, 32)
        assert simultaneous_diophantine(toeplitz_eigenvalues(5), eps).denominator == 2**52
        true = DiophantineResult(toeplitz_spectrum(5), 2**52)
        assert true.epsilon > 0.01

    @pytest.mark.parametrize("n", [8, 32])
    def test_recurrence_lengths_follow_the_scaling_law(self, n):
        # every lambda_j lies in the field of 2cos(pi/(d+1)), of degree
        # r = phi(2(d+1))/2, so there are r - 1 independent irrationals to
        # approximate at once and Dirichlet's exponent gives q ~ eps^-(r-1)
        for d in range(2, 13):
            eps = TrotterConfig.epsilon_budget(d, 6e-3, n)
            r = sum(math.gcd(k, 2 * (d + 1)) == 1 for k in range(1, 2 * (d + 1))) // 2
            law = (r - 1) * math.log10(1.0 / eps)
            q = simultaneous_diophantine(toeplitz_spectrum(d), eps).denominator
            assert law - 3 <= math.log10(q) <= law + 1, (d, q, law)

    def test_a_margin_above_eps_never_certifies(self):
        # sqrt(2) to 30 bits: as a binary rational its value certifies at a
        # q near 2^30, where the margin q / 2^30 of the real number it stands
        # for is near 1
        values = FixedValues((math.isqrt(2 << 60),), 30, 1)
        with pytest.raises(PrecisionUnreachable, match="within 64 escalations") as err:
            simultaneous_diophantine(values, 1e-12)
        assert err.value.best.epsilon > 1e-12
        rational = simultaneous_diophantine([values.nums[0] / 2**30], 1e-12)
        assert rational.epsilon == 0.0 and rational.denominator <= 2**30

    @pytest.mark.parametrize("name", ["numerators", "residuals", "epsilon"])
    def test_derived_fields_cannot_be_given(self, name):
        result = simultaneous_diophantine(toeplitz_eigenvalues(3), 1e-3)
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(result, **{name: getattr(result, name)})
        with pytest.raises(TypeError):
            DiophantineResult(result.lambdas, result.denominator, **{name: getattr(result, name)})

    @pytest.mark.parametrize(
        "lambdas, q, match",
        [([0.5], 0, "denominator"), ([0.5], 2.0, "denominator"), ([0.5], True, "denominator"),
         ([], 1, "non-empty"), ([[0.5]], 1, "1-d"), ([np.nan], 1, "finite")],
        ids=["q-zero", "q-float", "q-bool", "empty", "2-d", "nan"],
    )
    def test_construction_validation(self, lambdas, q, match):
        with pytest.raises(ValueError, match=match):
            DiophantineResult(lambdas, q)

    def test_unreachable_raises_with_best(self, monkeypatch):
        monkeypatch.setattr(lattice, "ESCALATIONS", 2)
        with pytest.raises(PrecisionUnreachable, match="within 2 escalations") as err:
            simultaneous_diophantine(toeplitz_spectrum(3), 1e-20)
        best = err.value.best
        assert isinstance(best, DiophantineResult)
        assert best.epsilon > 1e-20
        assert_exact_certificate(best, 3, 0.5)

    def test_escalations_are_not_a_parameter(self):
        with pytest.raises(TypeError):
            simultaneous_diophantine([0.5], 1e-6, max_escalations=2)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            simultaneous_diophantine([], 1e-3)
        with pytest.raises(ValueError):
            simultaneous_diophantine([1.0], 0.0)
        with pytest.raises(ValueError):
            simultaneous_diophantine([np.inf], 1e-3)
