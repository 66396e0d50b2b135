import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwa_synth import (
    TridiagonalHamiltonian,
    expm_hermitian,
    fidelity,
    haar_random_unitary,
    operator_norm,
    toeplitz_eigenvalues,
    unitarity_defect,
)
from pwa_synth.linalg import assemble_unitary, toeplitz_eigenvectors

from conftest import power_iteration_norm, taylor_expm


def random_hermitian(d, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (a + a.conj().T) / 2.0


class TestExpmHermitian:
    def test_zero_hamiltonian_is_identity(self):
        np.testing.assert_allclose(expm_hermitian(np.zeros((3, 3)), 1.0), np.eye(3), atol=1e-15)

    def test_pauli_x_quarter_period(self, pauli_x):
        # cos(pi/2) I - i sin(pi/2) sigma_x = -i sigma_x
        got = expm_hermitian(pauli_x, np.pi / 2.0)
        np.testing.assert_allclose(got, -1j * pauli_x, atol=1e-14)

    def test_matches_taylor_series_oracle(self):
        h = random_hermitian(4, seed=11)
        got = expm_hermitian(h, 0.7)
        want = taylor_expm(h, 0.7)
        assert operator_norm(got - want) < 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_output_unitary_at_large_scale(self, seed):
        # covers beta ~ 1e7 1/m times L ~ 1e-2 m products
        h = random_hermitian(5, seed=seed, scale=1e5) + 1e6 * np.eye(5)
        u = expm_hermitian(h, 1.0)
        assert unitarity_defect(u) <= 1e-10

    @given(
        a=st.floats(-5.0, 5.0, allow_nan=False),
        b=st.floats(-5.0, 5.0, allow_nan=False),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=40, deadline=None)
    def test_group_property(self, a, b, seed):
        h = random_hermitian(3, seed=seed)
        lhs = expm_hermitian(h, a) @ expm_hermitian(h, b)
        rhs = expm_hermitian(h, a + b)
        assert operator_norm(lhs - rhs) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            expm_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            expm_hermitian(np.array([[np.inf, 0.0], [0.0, 0.0]]), 1.0)


class TestAssembleUnitary:
    @staticmethod
    def _formula(v, phases):
        # V diag(e^{-i phases}) V^dag, with V^dag always conjugated
        return (v * np.exp(-1j * phases)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))

    @pytest.mark.parametrize("shape", [(2, 2), (3, 5, 5), (4, 2, 3, 3), (7, 5, 8, 8)])
    def test_real_eigenvectors_keep_the_bits_of_the_conjugated_product(self, shape):
        # real eigenvectors skip the conjugate copy; the product must not move
        rng = np.random.default_rng(len(shape) * 10 + shape[-1])
        a = rng.standard_normal(shape)
        w, v = np.linalg.eigh(a + np.swapaxes(a, -1, -2))
        phases = w * 6e-3 * rng.uniform(0.5, 2.0)
        assert v.dtype == np.float64
        assert assemble_unitary(v, phases).tobytes() == self._formula(v, phases).tobytes()

    def test_complex_eigenvectors_are_conjugated(self):
        h = np.stack([random_hermitian(4, seed) for seed in range(3)])
        w, v = np.linalg.eigh(h)
        got = assemble_unitary(v, 0.7 * w)
        assert got.tobytes() == self._formula(v, 0.7 * w).tobytes()
        for u, one in zip(got, h):
            assert operator_norm(u - taylor_expm(one, 0.7)) < 1e-10


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(7)) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal(self):
        assert operator_norm(np.diag([1.0, 2.0])) == pytest.approx(2.0, abs=1e-14)

    def test_matches_power_iteration_oracle(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert operator_norm(m) == pytest.approx(power_iteration_norm(m), abs=1e-8)

    @pytest.mark.parametrize("seed", range(3))
    def test_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u = haar_random_unitary(4, seed + 100)
        v = haar_random_unitary(4, seed + 200)
        assert operator_norm(u @ m @ v) == pytest.approx(operator_norm(m), abs=1e-10)

    def test_equals_numpys_two_norm_bit_for_bit(self):
        # plan files store measured_error = operator_norm(...): its bits must not move
        rng = np.random.default_rng(11)
        for d in range(1, 9):
            for rows in (d, d + 1):
                for _ in range(50):
                    m = rng.standard_normal((rows, d)) + 1j * rng.standard_normal((rows, d))
                    m *= 10.0 ** rng.uniform(-16, 2)
                    assert operator_norm(m) == np.linalg.norm(m, 2)


class TestFidelity:
    def test_self_fidelity(self):
        u = haar_random_unitary(4, 5)
        assert fidelity(u, u) == pytest.approx(1.0, abs=1e-14)

    @given(phi=st.floats(-np.pi, np.pi, allow_nan=False), seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_global_phase_invariance(self, phi, seed):
        u = haar_random_unitary(3, seed)
        assert fidelity(np.exp(1j * phi) * u, u) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_gates(self, pauli_x):
        assert fidelity(np.eye(2), pauli_x) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("seed", range(3))
    def test_symmetry_and_left_invariance(self, seed):
        u = haar_random_unitary(3, seed)
        v = haar_random_unitary(3, seed + 10)
        w = haar_random_unitary(3, seed + 20)
        assert fidelity(u, v) == pytest.approx(fidelity(v, u), abs=1e-12)
        assert fidelity(w @ u, w @ v) == pytest.approx(fidelity(u, v), abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(np.eye(2), np.eye(3))


class TestToeplitzEigenvalues:
    def test_d1(self):
        np.testing.assert_allclose(toeplitz_eigenvalues(1), [0.0])

    def test_d2(self):
        np.testing.assert_allclose(toeplitz_eigenvalues(2), [-1.0, 1.0], atol=1e-15)

    def test_d3(self):
        np.testing.assert_allclose(
            toeplitz_eigenvalues(3), [-np.sqrt(2.0), 0.0, np.sqrt(2.0)], atol=1e-15
        )

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 17, 33, 64])
    def test_matches_numeric_eigendecomposition(self, d):
        matrix = np.eye(d, k=1) + np.eye(d, k=-1)
        numeric = np.linalg.eigvalsh(matrix)
        np.testing.assert_allclose(toeplitz_eigenvalues(d), numeric, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 6, 11])
    def test_exact_antisymmetry_and_order(self, d):
        lam = toeplitz_eigenvalues(d)
        assert np.all(np.diff(lam) > 0)
        assert np.all(lam == -lam[::-1])

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            toeplitz_eigenvalues(0)

    @pytest.mark.parametrize("d", [1, 2, 5, 8])
    def test_eigenvalues_are_one_read_only_array_per_d(self, d):
        lam = toeplitz_eigenvalues(d)
        assert toeplitz_eigenvalues(d) is lam
        assert not lam.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            lam[0] = 1.0
        # the formula's bits: -2 cos(j pi/(d+1)) below the middle, negated above it
        lower = -2.0 * np.cos(np.arange(1, d // 2 + 1) * np.pi / (d + 1))
        formula = np.concatenate([lower, [0.0] * (d % 2), -lower[::-1]])
        assert lam.tobytes() == formula.tobytes()
        # a bool or float equal to d is rejected, not served d's cached array
        for bad in (float(d), d == 1):
            with pytest.raises(ValueError, match="dimension must be an integer"):
                toeplitz_eigenvalues(bad)

    @pytest.mark.parametrize("d", [1, 2, 5, 8])
    def test_eigenvectors_are_one_read_only_array_per_d(self, d):
        basis = toeplitz_eigenvectors(d)
        assert toeplitz_eigenvectors(d) is basis
        assert not basis.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            basis[0, 0] = 1.0
        fresh = toeplitz_eigenvectors.__wrapped__(d)
        assert fresh is not basis and fresh.tobytes() == basis.tobytes()
        matrix = np.eye(d, k=1) + np.eye(d, k=-1)
        np.testing.assert_allclose(
            matrix @ basis, basis * toeplitz_eigenvalues(d), atol=1e-12
        )


class TestHaarRandomUnitary:
    def test_deterministic_per_seed(self):
        a = haar_random_unitary(4, 9)
        b = haar_random_unitary(4, 9)
        np.testing.assert_array_equal(a, b)
        c = haar_random_unitary(4, 10)
        assert not np.array_equal(a, c)

    def test_d1_unimodular(self):
        u = haar_random_unitary(1, 3)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    @pytest.mark.parametrize("d,seed", [(2, 0), (3, 1), (6, 2)])
    def test_unitarity(self, d, seed):
        assert unitarity_defect(haar_random_unitary(d, seed)) <= 1e-10

    def test_first_entry_moment(self):
        # |u_11|^2 ~ Beta(1, d-1): mean 1/d, var (d-1)/(d^2 (d+1))
        d, samples = 3, 10_000
        values = [abs(haar_random_unitary(d, seed)[0, 0]) ** 2 for seed in range(samples)]
        sigma = np.sqrt((d - 1) / (d**2 * (d + 1)) / samples)
        assert abs(np.mean(values) - 1.0 / d) <= 3.0 * sigma


class TestTridiagonalHamiltonian:
    def test_rejects_nonpositive_entries(self):
        with pytest.raises(ValueError, match="positive"):
            TridiagonalHamiltonian(betas=[1.0, -1.0], couplings=[1.0], length=1.0)
        with pytest.raises(ValueError, match="positive"):
            TridiagonalHamiltonian(betas=[1.0, 1.0], couplings=[0.0], length=1.0)
        for length in (0.0, -0.1, np.nan):
            with pytest.raises(ValueError, match="length"):
                TridiagonalHamiltonian(betas=[1.0, 1.0], couplings=[1.0], length=length)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="couplings"):
            TridiagonalHamiltonian(betas=[1.0, 1.0, 1.0], couplings=[1.0], length=1.0)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_uniform_unitary_matches_generic_path(self, d):
        h = TridiagonalHamiltonian(
            betas=np.full(d, 3.7), couplings=np.full(d - 1, 2.2), length=0.9
        )
        assert h.is_uniform()
        direct = expm_hermitian(h.to_matrix(), h.length)
        assert operator_norm(h.unitary() - direct) < 1e-13

    @pytest.mark.parametrize(
        "betas, couplings",
        [
            ([3.7] * 4, [2.2] * 3),
            ([3.7, 3.7, 3.7000000000000006, 3.7], [2.2] * 3),
            ([3.7] * 4, [2.2, 2.2, 2.1]),
            ([5.0], []),
            ([1.0, 2.0], [0.5]),
        ],
        ids=["uniform", "beta-off-by-one-ulp", "coupling-differs", "d1", "d2-non-uniform"],
    )
    def test_memoized_is_uniform_matches_elementwise_check(self, betas, couplings):
        h = TridiagonalHamiltonian(betas=betas, couplings=couplings, length=1.0)
        expected = all(b == betas[0] for b in betas) and all(c == couplings[0] for c in couplings)
        assert h.is_uniform() is expected
        assert h.is_uniform() is expected

    def test_non_uniform_matrix(self):
        h = TridiagonalHamiltonian(betas=[1.0, 2.0], couplings=[0.5], length=1.0)
        assert not h.is_uniform()
        expected = np.array([[1.0, 0.5], [0.5, 2.0]], dtype=complex)
        np.testing.assert_array_equal(h.to_matrix(), expected)
