import json
import sys

import numpy as np
import pytest

from pwa_synth import (
    DeviceModel,
    OptimizationResult,
    OptimizationTask,
    VoltageSettings,
    clock,
    dft,
    fidelity,
    haar_random_unitary,
    infidelity_and_gradient,
    optimize,
    realize,
    shift,
)
from pwa_synth import optimizer
from pwa_synth.linalg import assemble_unitary
from pwa_synth.optimizer import _ChipObjective

from conftest import taylor_expm


def random_settings(rng, d, vmax=15.0):
    return VoltageSettings(
        level_volts=rng.uniform(-vmax, vmax, d),
        coupling_volts=rng.uniform(-vmax, vmax, d - 1),
    )


def _reference_value_and_gradient(task, volts_flat):
    """The objective evaluated one section at a time, with Python lists for
    the prefix and suffix products: an oracle for the stacked evaluation."""
    model = task.model
    d, k, length = task.dimension, task.sections, model.section_length
    target = task.target
    v = volts_flat.reshape(k, 2 * d - 1)
    hams = np.zeros((k, d, d))
    idx = np.arange(d)
    off = np.arange(d - 1)
    hams[:, idx, idx] = model.beta_shift_per_volt * v[:, :d]
    hams[:, off, off + 1] = model.base_coupling + model.coupling_shift_per_volt * v[:, d:]
    hams[:, off + 1, off] = hams[:, off, off + 1]
    eigvals, eigvecs = np.linalg.eigh(hams)
    units = assemble_unitary(eigvecs, eigvals * length)
    mats = []
    for i in range(k):
        if i:
            mats.append(model.zero_voltage_hamiltonian(d).unitary())
        mats.append(units[i])
    n = len(mats)
    below = [np.eye(d, dtype=complex)]
    for m in mats:
        below.append(m @ below[-1])
    above = [np.eye(d, dtype=complex)] * (n + 1)
    for i in range(n - 1, -1, -1):
        above[i] = above[i + 1] @ mats[i]
    overlap = np.vdot(below[-1], target)
    value = 1.0 - (abs(overlap) / d) ** 2
    grad = np.zeros_like(v)
    for i in range(k):
        pos = 2 * i
        middle = above[pos + 1].conj().T @ target @ below[pos].conj().T
        lam = eigvals[i]
        vec = eigvecs[i]
        mean = 0.5 * (lam[:, None] + lam[None, :])
        diffs = lam[:, None] - lam[None, :]
        kernel = -1j * length * np.exp(-1j * length * mean) * np.sinc(
            diffs * length / (2.0 * np.pi)
        )
        core = np.conj(kernel) * (vec.conj().T @ middle @ vec)
        t_mat = vec @ core @ vec.conj().T
        d_overlap_beta = model.beta_shift_per_volt * np.diagonal(t_mat)
        d_overlap_coupling = model.coupling_shift_per_volt * (
            np.diagonal(t_mat, 1) + np.diagonal(t_mat, -1)
        )
        grad[i, :d] = -(2.0 / d**2) * np.real(np.conj(overlap) * d_overlap_beta)
        grad[i, d:] = -(2.0 / d**2) * np.real(np.conj(overlap) * d_overlap_coupling)
    return float(value), grad.ravel()


def _assert_gradient_matches_finite_differences(d, k, seed):
    rng = np.random.default_rng(seed)
    task = OptimizationTask(target=dft(d), sections=k)
    objective = _ChipObjective(task)
    flat = rng.uniform(-15.0, 15.0, k * (2 * d - 1))
    _, grad = objective.value_and_gradient(flat)
    step = 1e-4
    for i in range(flat.size):
        plus = flat.copy()
        plus[i] += step
        minus = flat.copy()
        minus[i] -= step
        fd = (
            objective.value_and_gradient(plus)[0]
            - objective.value_and_gradient(minus)[0]
        ) / (2.0 * step)
        if abs(grad[i]) > 1e-8:
            assert abs(grad[i] - fd) / abs(grad[i]) <= 1e-4


def _taylor_infidelity(settings, task):
    """1 - |tr(U^dag U_T)|^2 / d^2 with every section and gap exponentiated by
    the Taylor oracle, the identity offset beta0 left out of both."""
    model, d = task.model, task.dimension
    off = np.arange(d - 1)
    gap = np.zeros((d, d))
    gap[off, off + 1] = gap[off + 1, off] = model.base_coupling
    u = np.eye(d, dtype=complex)
    for i, volts in enumerate(settings):
        if i:
            u = taylor_expm(gap, model.gap_length) @ u
        h = np.diag(model.beta_shift_per_volt * volts.level_volts)
        h[off, off + 1] = h[off + 1, off] = (
            model.base_coupling + model.coupling_shift_per_volt * volts.coupling_volts
        )
        u = taylor_expm(h, model.section_length) @ u
    return 1.0 - (abs(np.trace(u.conj().T @ task.target)) / d) ** 2


class TestInfidelityAndGradient:
    @pytest.mark.parametrize("seed", range(20))
    def test_value_matches_offset_free_oracle(self, seed):
        # the realized chip carries the ~2.1e7 /m offset, whose rounding put
        # its infidelity up to 5.7e-12 away from the oracle on these chips
        rng = np.random.default_rng([seed, 14])
        d, k = 2 + seed % 5, 1 + seed // 5 % 5
        model = DeviceModel()
        settings = [random_settings(rng, d) for _ in range(k)]
        task = OptimizationTask(target=haar_random_unitary(d, seed), sections=k, model=model)
        value, grad = infidelity_and_gradient(settings, task)
        assert abs(value - _taylor_infidelity(settings, task)) <= 1e-13
        flat = np.concatenate([np.concatenate([v.level_volts, v.coupling_volts]) for v in settings])
        ref_value, ref_grad = _ChipObjective(task).value_and_gradient(flat)
        assert value == ref_value
        np.testing.assert_array_equal(grad, ref_grad)

    def test_self_target_is_stationary(self):
        rng = np.random.default_rng(7)
        d, k = 3, 1
        model = DeviceModel()
        settings = [random_settings(rng, d)]
        target = realize(settings, model)
        task = OptimizationTask(target=target, sections=k, model=model)
        value, grad = infidelity_and_gradient(settings, task)
        assert value <= 1e-12
        assert np.linalg.norm(grad) <= 1e-6

    def test_zero_voltage_self_target(self):
        d = 3
        model = DeviceModel()
        settings = [VoltageSettings(np.zeros(d), np.zeros(d - 1))]
        target = realize(settings, model)
        task = OptimizationTask(target=target, sections=1, model=model)
        value, _ = infidelity_and_gradient(settings, task)
        assert value <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_matches_finite_differences(self, seed):
        _assert_gradient_matches_finite_differences(3, 2, seed)

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("d", [2, 5, 8])
    def test_gradient_matches_finite_differences_at_shape_edges(self, d, k, seed):
        # K = 1 has no gap, and d = 2 has one coupling, so the +-1
        # diagonals of the stacked gradient have length 1
        _assert_gradient_matches_finite_differences(d, k, 10 + seed)

    @pytest.mark.parametrize("k", [1, 2, 5, 8])
    @pytest.mark.parametrize("d", range(2, 9))
    def test_matches_per_section_reference(self, d, k):
        model = DeviceModel()
        rng = np.random.default_rng(10 * d + k)
        for gate in (dft, shift, clock):
            task = OptimizationTask(target=gate(d), sections=k, model=model)
            flat = rng.uniform(-model.max_voltage, model.max_voltage, k * (2 * d - 1))
            value, grad = _ChipObjective(task).value_and_gradient(flat)
            ref_value, ref_grad = _reference_value_and_gradient(task, flat)
            assert abs(value - ref_value) <= 1e-13
            np.testing.assert_allclose(grad, ref_grad, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("d", range(3, 9))
    def test_objective_value_is_realized_infidelity(self, d, k):
        # the value L-BFGS minimizes is the realized chip's infidelity, even
        # though the objective drops the identity offset from its sections
        rng = np.random.default_rng(100 * d + k)
        model = DeviceModel()
        settings = [random_settings(rng, d) for _ in range(k)]
        task = OptimizationTask(target=dft(d), sections=k, model=model)
        flat = np.concatenate([np.concatenate([v.level_volts, v.coupling_volts]) for v in settings])
        value, _ = _ChipObjective(task).value_and_gradient(flat)
        expected = 1.0 - fidelity(realize(settings, model), dft(d))
        assert abs(value - expected) <= 1e-10

    def test_validation(self):
        task = OptimizationTask(target=dft(3), sections=2)
        with pytest.raises(ValueError, match="sections"):
            infidelity_and_gradient([VoltageSettings(np.zeros(3), np.zeros(2))], task)
        bad = [VoltageSettings(np.full(3, 20.0), np.zeros(2))] * 2
        with pytest.raises(ValueError, match="exceeds"):
            infidelity_and_gradient(bad, task)


class TestOptimize:
    def test_task_validation(self):
        with pytest.raises(ValueError):
            OptimizationTask(target=dft(3), sections=0)
        with pytest.raises(ValueError):
            OptimizationTask(target=dft(3), sections=1, restarts=0)
        with pytest.raises(ValueError, match="not unitary"):
            OptimizationTask(target=np.ones((3, 3)), sections=1)

    def test_d2_hadamard_exactly_realizable(self, hadamard_matrix):
        task = OptimizationTask(
            target=hadamard_matrix, sections=4, restarts=8, seed=0, max_iterations=600
        )
        result = optimize(task)
        assert result.infidelity <= 1e-6
        assert result.fidelity >= 1.0 - 1e-6

    def test_determinism_and_aggregation(self):
        task = OptimizationTask(
            target=dft(3), sections=2, restarts=3, seed=5, max_iterations=60
        )
        a = optimize(task)
        b = optimize(task)
        assert a.restart_infidelities == b.restart_infidelities
        assert a.iteration_counts == b.iteration_counts
        assert a.infidelity == min(a.restart_infidelities)
        for va, vb in zip(a.voltages, b.voltages):
            np.testing.assert_array_equal(va.level_volts, vb.level_volts)
            np.testing.assert_array_equal(va.coupling_volts, vb.coupling_volts)

    def test_threaded_matches_serial(self):
        # three sections take every thread through the gap and prefix
        # products; a short switch interval interleaves the threads' calls
        task = OptimizationTask(
            target=dft(3), sections=3, restarts=4, seed=2, max_iterations=40
        )
        serial = optimize(task, jobs=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = optimize(task, jobs=4)
        finally:
            sys.setswitchinterval(interval)
        assert serial.restart_infidelities == threaded.restart_infidelities
        for a, b in zip(serial.voltages, threaded.voltages):
            np.testing.assert_array_equal(a.level_volts, b.level_volts)
            np.testing.assert_array_equal(a.coupling_volts, b.coupling_volts)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_restarts_call_the_module_minimize(self, monkeypatch, jobs):
        # a tracer times each restart by swapping optimizer.minimize
        task = OptimizationTask(target=dft(3), sections=2, restarts=3, seed=5, max_iterations=60)
        expected = optimize(task)
        calls = []
        scipy_backed = optimizer.minimize

        def counting(fun, x0, **options):
            calls.append(x0.size)
            return scipy_backed(fun, x0, **options)

        monkeypatch.setattr(optimizer, "minimize", counting)
        result = optimize(task, jobs=jobs)
        assert calls == [task.parameters] * task.restarts
        assert result.restart_infidelities == expected.restart_infidelities
        assert result.iteration_counts == expected.iteration_counts
        for a, b in zip(result.voltages, expected.voltages):
            np.testing.assert_array_equal(a.level_volts, b.level_volts)
            np.testing.assert_array_equal(a.coupling_volts, b.coupling_volts)

    def test_voltages_within_box(self):
        task = OptimizationTask(target=dft(3), sections=2, restarts=2, max_iterations=80)
        result = optimize(task)
        for v in result.voltages:
            assert np.max(np.abs(v.level_volts)) <= 15.0
            assert np.max(np.abs(v.coupling_volts)) <= 15.0

    def test_more_sections_do_not_hurt(self):
        target = dft(3)
        best = {}
        for k in (1, 2):
            task = OptimizationTask(
                target=target, sections=k, restarts=6, seed=0, max_iterations=400
            )
            best[k] = optimize(task).infidelity
        assert best[2] <= best[1] + 1e-6

    def test_longer_sections_reach_better_fidelity(self):
        # more accumulated coupling/detuning phase per section enlarges the
        # reachable set: at fixed K the best infidelity falls with L
        infidelities = []
        for length in (1e-3, 3.6e-3, 9e-3):
            model = DeviceModel(section_length=length, gap_length=0.1 * length)
            task = OptimizationTask(
                target=dft(3), sections=2, model=model,
                restarts=6, seed=0, max_iterations=500,
            )
            infidelities.append(optimize(task).infidelity)
        assert infidelities[1] < infidelities[0]
        assert infidelities[2] < infidelities[1]

    def test_shift_d5_five_sections_high_fidelity(self):
        # five sections lift the d=5 shift gate above 90% fidelity
        task = OptimizationTask(
            target=np.array(
                [[0, 0, 0, 0, 1],
                 [1, 0, 0, 0, 0],
                 [0, 1, 0, 0, 0],
                 [0, 0, 1, 0, 0],
                 [0, 0, 0, 1, 0]], dtype=complex
            ),
            sections=5,
            restarts=8,
            seed=1,
            max_iterations=1500,
        )
        result = optimize(task)
        assert result.fidelity >= 0.9

    def test_json_and_csv_round_trip(self):
        model = DeviceModel()
        task = OptimizationTask(
            target=dft(3), sections=2, model=model, restarts=2, max_iterations=40
        )
        result = optimize(task)
        text = result.to_json(model=model, extra={"target": "dft"})
        volts, loaded_model = OptimizationResult.voltages_from_json(text)
        assert loaded_model == model
        for a, b in zip(volts, result.voltages):
            np.testing.assert_array_equal(a.level_volts, b.level_volts)
        payload = json.loads(text)
        assert payload["target"] == "dft"
        csv = result.restarts_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "restart_id,final_infidelity,iterations"
        assert len(lines) == 1 + task.restarts
