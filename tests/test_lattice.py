from fractions import Fraction

import numpy as np
import pytest

from pwa_synth import (
    DiophantineResult,
    PrecisionUnreachable,
    lll_reduce,
    simultaneous_diophantine,
    toeplitz_eigenvalues,
)
from pwa_synth import lattice

from conftest import assert_lll_reduced, brute_force_diophantine, gram_determinant, in_lattice


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
        result = simultaneous_diophantine(lam, eps)
        assert result.epsilon <= eps
        assert result.verify(lam)
        # independent re-verification by direct multiplication
        for value, p in zip(lam, result.numerators):
            assert abs(value * result.denominator - p) <= eps
        q_min = brute_force_diophantine(lam, eps)
        assert q_min is not None  # feasibility confirmed independently
        x = lam * result.denominator
        assert np.max(np.abs(x - np.round(x))) <= eps

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_certificates_hold_exactly(self, d):
        lam = toeplitz_eigenvalues(d)
        result = simultaneous_diophantine(lam, 1e-3)
        assert result.verify(lam)
        assert result.epsilon <= 1e-3
        assert max(abs(r) for r in result.residuals) == result.epsilon

    def test_unreachable_raises_with_best(self, monkeypatch):
        monkeypatch.setattr(lattice, "ESCALATIONS", 2)
        lam = toeplitz_eigenvalues(3)
        with pytest.raises(PrecisionUnreachable, match="within 2 escalations") as err:
            simultaneous_diophantine(lam, 1e-20)
        best = err.value.best
        assert isinstance(best, DiophantineResult)
        assert best.epsilon > 1e-20

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
