import numpy as np
import pytest

from pwa_synth import (
    DeviceModel,
    TridiagonalHamiltonian,
    VoltageSettings,
    compile_unitary,
    dyson_first_order,
    expm_hermitian,
    hamiltonian_from_voltages,
    operator_norm,
    propagate,
    realize,
    unitarity_defect,
)


@pytest.fixture
def model():
    return DeviceModel()


def volts(levels, couplings):
    return VoltageSettings(level_volts=np.asarray(levels, float),
                           coupling_volts=np.asarray(couplings, float))


class TestDeviceModel:
    def test_zero_voltage_constants(self, model):
        h = hamiltonian_from_voltages(model, volts([0, 0, 0], [0, 0]))
        expected_beta = 2.0 * np.pi * 2.713 / 808e-9
        np.testing.assert_array_equal(h.betas, np.full(3, expected_beta))
        np.testing.assert_array_equal(h.couplings, np.full(2, 100.0))
        assert 2.0e7 < expected_beta < 2.2e7

    def test_coupling_extremes(self, model):
        h = hamiltonian_from_voltages(model, volts([0, 0], [15.0]))
        assert h.couplings[0] == pytest.approx(121.0)
        h = hamiltonian_from_voltages(model, volts([0, 0], [-15.0]))
        assert h.couplings[0] == pytest.approx(79.0)

    def test_level_shift_formula(self, model):
        h = hamiltonian_from_voltages(model, volts([15.0, 0], [0]))
        assert h.betas[0] == pytest.approx(model.beta_zero * (1 + 5e-6 * 15.0 / 2.713))
        assert np.all(h.betas > 0)

    def test_affine_map(self, model):
        v1 = volts([3.0, -2.0], [1.5])
        v2 = volts([4.0, 5.0], [-6.0])
        lhs = (
            hamiltonian_from_voltages(model, v1).to_matrix()
            + hamiltonian_from_voltages(model, v2).to_matrix()
            - hamiltonian_from_voltages(model, volts([0, 0], [0])).to_matrix()
        )
        combined = volts([7.0, 3.0], [-4.5])
        rhs = hamiltonian_from_voltages(model, combined).to_matrix()
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-6)

    def test_out_of_range_rejected(self, model):
        with pytest.raises(ValueError, match="exceeds"):
            hamiltonian_from_voltages(model, volts([16.0, 0], [0]))

    def test_model_validation(self):
        with pytest.raises(ValueError, match="gap"):
            DeviceModel(gap_length=7e-3)
        with pytest.raises(ValueError, match="positive"):
            DeviceModel(base_coupling=-1.0)


class TestRealize:
    def test_empty_plan_rejected_without_dimension(self):
        with pytest.raises(ValueError, match="empty"):
            realize([])

    def test_uniform_section_with_2pi_phases_is_identity(self):
        # eigenphases (beta + C lambda_j) L with lambda = +-1 (d=2):
        # beta L = 6 pi, C L = 4 pi -> all phases multiples of 2 pi
        h = TridiagonalHamiltonian(betas=[6 * np.pi, 6 * np.pi], couplings=[4 * np.pi], length=1.0)
        assert operator_norm(realize([h]) - np.eye(2)) <= 1e-9

    def test_compiled_hadamard_plan(self, model, hadamard_matrix):
        plan = compile_unitary(hadamard_matrix, section_length=model.section_length)
        u = realize(plan)
        from pwa_synth import fidelity

        assert fidelity(u, hadamard_matrix) >= 1.0 - 1e-9

    def test_concatenation_associativity(self, model):
        rng = np.random.default_rng(0)
        hams = [
            TridiagonalHamiltonian(
                betas=rng.uniform(1, 5, 3), couplings=rng.uniform(0.5, 2, 2), length=0.3
            )
            for _ in range(4)
        ]
        left = realize(hams[2:]) @ realize(hams[:2])
        assert operator_norm(realize(hams) - left) <= 1e-10

    def test_voltage_chip_includes_gaps(self, model):
        settings = [volts([1.0, -1.0], [2.0]), volts([0.5, 0.5], [-2.0])]
        u = realize(settings, model)
        assert unitarity_defect(u) <= 1e-9
        manual = (
            hamiltonian_from_voltages(model, settings[1]).unitary()
            @ model.zero_voltage_hamiltonian(2).unitary()
            @ hamiltonian_from_voltages(model, settings[0]).unitary()
        )
        assert operator_norm(u - manual) <= 1e-12

    def test_voltage_chip_requires_model(self):
        with pytest.raises(ValueError, match="DeviceModel"):
            realize([volts([0, 0], [0])])


class TestPropagate:
    def test_two_mode_rabi_oscillation(self, model):
        # zero voltage, 2 modes: P2(z) = sin^2(C0 z); full transfer at pi/(2 C0)
        c0 = model.base_coupling
        half = np.pi / (2.0 * c0)
        chip = [TridiagonalHamiltonian(betas=[model.beta_zero] * 2, couplings=[c0], length=2 * half)]
        state = np.array([1.0, 0.0], dtype=complex)
        trace = propagate(state, chip, dz=half / 200.0)
        probs_at = lambda z: trace.probabilities[np.argmin(np.abs(trace.z - z))]
        assert probs_at(half)[1] == pytest.approx(1.0, abs=1e-6)
        assert probs_at(2 * half)[0] == pytest.approx(1.0, abs=1e-6)
        # analytic check along the whole grid
        np.testing.assert_allclose(
            trace.probabilities[:, 1], np.sin(c0 * trace.z) ** 2, atol=1e-8
        )

    def test_identity_plan_flat_trace(self):
        plan = compile_unitary(np.eye(3), prune_identity=True)
        h = TridiagonalHamiltonian(betas=[6 * np.pi] * 2, couplings=[4 * np.pi], length=1.0)
        trace = propagate(np.array([0.0, 1.0]), [h], dz=0.01)
        np.testing.assert_allclose(trace.probabilities[-1], [0.0, 1.0], atol=1e-8)
        assert plan.sections == []

    def test_final_state_matches_realize(self, model):
        # propagate and realize share one evolution kernel, so the last
        # sample matches the cascade unitary to rounding on every input of
        # three-section chips (two gaps included)
        rng = np.random.default_rng(11)
        vmax = model.max_voltage
        for d in range(3, 9):
            settings = [
                volts(rng.uniform(-vmax, vmax, d), rng.uniform(-vmax, vmax, d - 1))
                for _ in range(3)
            ]
            u = realize(settings, model)
            for m in range(d):
                state = np.eye(d, dtype=complex)[m]
                trace = propagate(state, settings, model, dz=model.section_length / 40)
                np.testing.assert_allclose(trace.amplitudes[-1], u[:, m], rtol=0, atol=1e-13)

    def test_norm_conserved_everywhere(self, model):
        settings = [volts([5.0, -5.0, 3.0], [2.0, -7.0]), volts([1.0, 1.0, 1.0], [0.5, 0.5])]
        state = np.full(3, 1.0 / np.sqrt(3.0), dtype=complex)
        trace = propagate(state, settings, model, dz=1e-4)
        totals = trace.probabilities.sum(axis=1)
        assert np.max(np.abs(totals - 1.0)) <= 1e-9

    def test_dz_validation(self, model):
        chip = [TridiagonalHamiltonian(betas=[1.0, 1.0], couplings=[1.0], length=0.1)]
        state = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(ValueError, match="shortest"):
            propagate(state, chip, dz=0.2)
        with pytest.raises(ValueError, match="norm"):
            propagate(np.array([1.0, 1.0]), chip, dz=0.01)

    def test_csv_format(self):
        chip = [TridiagonalHamiltonian(betas=[1.0, 1.0], couplings=[1.0], length=0.1)]
        trace = propagate(np.array([1.0, 0.0]), chip, dz=0.05)
        lines = trace.to_csv().strip().splitlines()
        assert lines[0] == "z_m,mode_index,re,im,probability"
        assert len(lines) == 1 + 2 * trace.z.size

    def test_shift_optimized_chip_moves_mass_cyclically(self, model):
        # five optimized sections implementing the d=5 cyclic shift: every
        # basis input ends up concentrated on the next mode
        from pwa_synth import OptimizationTask, optimize, shift

        d = 5
        task = OptimizationTask(
            target=shift(d), sections=5, restarts=4, seed=0, max_iterations=800
        )
        result = optimize(task)
        assert result.fidelity >= 0.9
        for k in range(d):
            state = np.zeros(d, dtype=complex)
            state[k] = 1.0
            trace = propagate(state, result.voltages, model, dz=model.section_length / 25)
            final = trace.probabilities[-1]
            assert int(np.argmax(final)) == (k + 1) % d
            assert final.max() >= 0.5


class TestDysonFirstOrder:
    def test_zero_coupling_gives_exact_diagonal(self):
        betas = np.array([2.0, 3.0, 5.0])
        u = dyson_first_order(betas, np.zeros(2), 0.7)
        np.testing.assert_allclose(np.diagonal(u), np.exp(-1j * betas * 0.7), atol=1e-15)
        assert operator_norm(u - np.diag(np.diagonal(u))) == 0.0

    def test_degenerate_branch_small_coupling(self):
        beta, c, length = 7.0, 0.01, 0.1
        u = dyson_first_order([beta, beta], [c], length)
        expected = -1j * c * length * np.exp(-1j * beta * length)
        assert u[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_realistic_parameters_nearly_tridiagonal(self, model):
        # alternating +-15 V levels, max coupling: the exact unitary keeps
        # almost all its mass on the tridiagonal band
        d = 5
        levels = np.array([15.0, -15.0, 15.0, -15.0, 15.0])
        betas = model.beta_zero + model.beta_shift_per_volt * levels
        couplings = np.full(d - 1, 121.0)
        h = np.diag(betas) + np.diag(couplings, 1) + np.diag(couplings, -1)
        exact = expm_hermitian(h, model.section_length)
        tri_mask = np.abs(np.arange(d)[:, None] - np.arange(d)[None, :]) <= 1
        off_mass = np.linalg.norm(exact[~tri_mask]) ** 2 / np.linalg.norm(exact) ** 2
        assert off_mass <= 0.05
        approx = dyson_first_order(betas, couplings, model.section_length)
        entry_err = np.max(np.abs(np.abs(approx[tri_mask]) - np.abs(exact[tri_mask])))
        assert entry_err <= 0.1

    def test_error_shrinks_with_length(self):
        betas = np.array([10.0, 240.0, 90.0])
        couplings = np.array([3.0, 2.0])
        h = np.diag(betas) + np.diag(couplings, 1) + np.diag(couplings, -1)

        def err(length):
            return operator_norm(
                dyson_first_order(betas, couplings, length) - expm_hermitian(h, length)
            )

        assert err(0.005) <= err(0.01)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            dyson_first_order([1.0, 2.0], [1.0, 2.0], 1.0)
        with pytest.raises(ValueError):
            dyson_first_order([1.0, 2.0], [1.0], 0.0)
