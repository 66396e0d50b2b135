import importlib.machinery
import json
import re
import sys
import threading
from pathlib import Path

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


class _StackedReference:
    """The stacked objective as it stood before its per-task workspace, kept
    verbatim: the new evaluation must reproduce its bits, since rounding
    steers L-BFGS."""

    def __init__(self, task: OptimizationTask):
        self.task = task
        self.d = task.dimension
        self.k = task.sections
        model = task.model
        self.length = model.section_length
        self.beta_sens = model.beta_shift_per_volt
        self.coupling_sens = model.coupling_shift_per_volt
        self.gap_unitary = model.zero_voltage_hamiltonian(self.d).unitary()
        self.levels = np.arange(self.d)
        self.bonds = np.arange(self.d - 1)
        self.identity = np.eye(self.d, dtype=complex)

    def value_and_gradient(self, volts_flat: np.ndarray) -> tuple[float, np.ndarray]:
        d, k, length = self.d, self.k, self.length
        target, idx, off = self.task.target, self.levels, self.bonds
        v = volts_flat.reshape(k, 2 * d - 1)
        hams = np.zeros((k, d, d))
        hams[:, idx, idx] = self.beta_sens * v[:, :d]
        hams[:, off, off + 1] = self.task.model.base_coupling + self.coupling_sens * v[:, d:]
        hams[:, off + 1, off] = hams[:, off, off + 1]
        eigvals, eigvecs = np.linalg.eigh(hams)
        units = assemble_unitary(eigvecs, eigvals * length)
        # factors: section, gap, section, ...; below[j] holds factors < j, above[j] >= j
        n = 2 * k - 1
        mats = [self.gap_unitary] * n
        mats[::2] = units
        below = np.empty((n + 1, d, d), dtype=complex)
        above = np.empty((n + 1, d, d), dtype=complex)
        below[0] = above[n] = self.identity
        for j in range(n):
            np.matmul(mats[j], below[j], out=below[j + 1])
        for j in range(n - 1, -1, -1):
            np.matmul(above[j + 1], mats[j], out=above[j])
        overlap = np.vdot(below[-1], target)
        value = 1.0 - (abs(overlap) / d) ** 2
        # section i is factor 2i; every product keeps the per-section order
        # (A^H T) B^H, (V^H M) V, (V C) V^H, since rounding steers L-BFGS
        middle = _dagger(above[1::2]) @ target @ _dagger(below[::2])
        mean = 0.5 * (eigvals[:, :, None] + eigvals[:, None, :])
        cycles = (eigvals[:, :, None] - eigvals[:, None, :]) * length / (2.0 * np.pi)
        kernel = -1j * length * np.exp(-1j * length * mean) * np.sinc(cycles)
        core = np.conj(kernel) * (_dagger(eigvecs) @ middle @ eigvecs)
        t_mat = eigvecs @ core @ _dagger(eigvecs)
        d_beta = self.beta_sens * t_mat.diagonal(0, 1, 2)
        d_coupling = self.coupling_sens * (t_mat.diagonal(1, 1, 2) + t_mat.diagonal(-1, 1, 2))
        grad = -(2.0 / d**2) * np.real(np.conj(overlap) * np.concatenate([d_beta, d_coupling], 1))
        return float(value), grad.ravel()


def _dagger(stack: np.ndarray) -> np.ndarray:
    return stack.conj().transpose(0, 2, 1)


def _one_row(objective, flat):
    """The objective's value and gradient at one point, as a one-row stack."""
    values, grads = objective.value_and_gradient(flat[None])
    assert len(values) == 1 and grads.shape == (1, flat.size)
    return values[0], grads[0]


def minimize(fun, x0, **options):
    """``scipy.optimize.minimize(fun, x0, **options)``, importing scipy on first use."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **options)


def _run_restart(task: OptimizationTask, objective: _ChipObjective, restart: int):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=task.seed, spawn_key=(restart,)))
    vmax = task.model.max_voltage
    v0 = rng.uniform(-vmax, vmax, task.parameters)
    u0 = np.arctanh(np.clip(v0 / vmax, -1.0 + 1e-12, 1.0 - 1e-12))

    def fun(u):
        th = np.tanh(u)
        value, grad = objective.value_and_gradient(vmax * th)
        return value, grad * vmax * (1.0 - th * th)

    res = minimize(
        fun,
        u0,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": task.max_iterations, "ftol": 1e-12, "gtol": 1e-12},
    )
    volts = vmax * np.tanh(res.x)
    return float(res.fun), volts, int(res.nit)


def _serial_optimize(task):
    """The restarts run one after another through public
    ``scipy.optimize.minimize``: ``minimize`` and ``_run_restart`` above are
    kept verbatim from the serial optimizer, with ``_StackedReference`` as
    its one-point objective. Returns the restart infidelities, the iteration
    counts and the best restart's voltages."""
    objective = _StackedReference(task)
    outcomes = [_run_restart(task, objective, r) for r in range(task.restarts)]
    infidelities = [min(max(o[0], 0.0), 1.0) for o in outcomes]
    best = int(np.argmin(infidelities))
    return infidelities, [o[2] for o in outcomes], outcomes[best][1]


def _assert_matches_serial_optimize(task):
    result = optimize(task)
    infidelities, iterations, volts = _serial_optimize(task)
    assert result.restart_infidelities == infidelities
    assert result.iteration_counts == iterations
    flat = np.concatenate([np.concatenate([v.level_volts, v.coupling_volts])
                           for v in result.voltages])
    assert flat.tobytes() == volts.tobytes()


def _pinned_points(rng, task):
    """Random voltages, all zero, all at +-max_voltage and random corners."""
    vmax, size = task.model.max_voltage, task.parameters
    return [
        *(rng.uniform(-vmax, vmax, size) for _ in range(3)),
        np.zeros(size),
        np.full(size, vmax),
        np.full(size, -vmax),
        rng.choice([-vmax, vmax], size),
    ]


def _assert_gradient_matches_finite_differences(d, k, seed):
    rng = np.random.default_rng(seed)
    task = OptimizationTask(target=dft(d), sections=k)
    objective = _ChipObjective(task)
    flat = rng.uniform(-15.0, 15.0, k * (2 * d - 1))
    _, grad = _one_row(objective, flat)
    step = 1e-4
    for i in range(flat.size):
        plus = flat.copy()
        plus[i] += step
        minus = flat.copy()
        minus[i] -= step
        fd = (_one_row(objective, plus)[0] - _one_row(objective, minus)[0]) / (2.0 * step)
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
        ref_value, ref_grad = _one_row(_ChipObjective(task), flat)
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
            value, grad = _one_row(_ChipObjective(task), flat)
            ref_value, ref_grad = _reference_value_and_gradient(task, flat)
            assert abs(value - ref_value) <= 1e-13
            np.testing.assert_allclose(grad, ref_grad, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("d", range(2, 9))
    def test_bits_match_stacked_reference(self, d, k):
        rng = np.random.default_rng([d, k, 18])
        task = OptimizationTask(target=haar_random_unitary(d, 10 * d + k), sections=k)
        objective, reference = _ChipObjective(task), _StackedReference(task)
        for flat in _pinned_points(rng, task):
            value, grad = _one_row(objective, flat)
            ref_value, ref_grad = reference.value_and_gradient(flat)
            assert value == ref_value
            np.testing.assert_array_equal(grad, ref_grad)

    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_bits_match_stacked_reference_on_degenerate_sections(self, d, k):
        # the default device's couplings stay above 79 /m, so its sections
        # have distinct eigenvalues and the sinc's zero branch is met only on
        # the diagonal; here -max_voltage zeroes every coupling, and equal
        # level voltages make every eigenvalue equal
        model = DeviceModel(base_coupling=15.0, coupling_shift_per_volt=1.0)
        task = OptimizationTask(target=dft(d), sections=k, model=model)
        flat = np.zeros((k, 2 * d - 1))
        flat[:, d:] = -model.max_voltage
        flat[1:, :d] = 3.0
        objective, reference = _ChipObjective(task), _StackedReference(task)
        value, grad = _one_row(objective, flat.ravel())
        eigvals = np.linalg.eigh(objective.hams[0])[0]
        assert np.all(eigvals == eigvals[:, :1])
        ref_value, ref_grad = reference.value_and_gradient(flat.ravel())
        assert value == ref_value
        np.testing.assert_array_equal(grad, ref_grad)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("d", range(2, 9))
    def test_rows_match_one_row_calls(self, d, k):
        # every row of a stacked call has the bits of a one-row call at that
        # point, for stacks of 1 to 7 rows through one 7-row workspace: on
        # random points and +-max_voltage corners, and on the degenerate
        # sections of the test above mixed with random points
        rng = np.random.default_rng([d, k, 22])
        task = OptimizationTask(target=haar_random_unitary(d, d + k), sections=k, restarts=7)
        model = DeviceModel(base_coupling=15.0, coupling_shift_per_volt=1.0)
        degenerate = OptimizationTask(target=dft(d), sections=k, model=model, restarts=7)
        flat = np.zeros((k, 2 * d - 1))
        flat[:, d:] = -model.max_voltage
        flat[1:, :d] = 3.0
        sinc_zeros = [flat.ravel(), *(rng.uniform(-15.0, 15.0, task.parameters) for _ in range(2))]
        for t, points in ((task, _pinned_points(rng, task)), (degenerate, sinc_zeros * 3)):
            stacked, single = _ChipObjective(t), _ChipObjective(t, rows=1)
            assert stacked.rows == 7
            for a in range(1, 8):
                stack = np.array([points[(a + i) % 7] for i in range(a)])
                values, grads = stacked.value_and_gradient(stack)
                assert len(values) == a and grads.shape == stack.shape
                for flat_row, value, grad in zip(stack, values, grads):
                    one_value, one_grad = _one_row(single, flat_row)
                    assert value == one_value
                    np.testing.assert_array_equal(grad, one_grad)

    def test_workspace_reuse_keeps_the_bits_of_fresh_objectives(self):
        rng = np.random.default_rng(18)
        for d, k in ((2, 1), (5, 5), (4, 2)):
            task = OptimizationTask(target=haar_random_unitary(d, k), sections=k)
            x1, x2 = (rng.uniform(-15.0, 15.0, task.parameters) for _ in range(2))
            fresh = [_one_row(_ChipObjective(task), x) for x in (x1, x2, x1)]
            objective = _ChipObjective(task)
            for x, (value, grad) in zip((x1, x2, x1), fresh):
                got_value, got_grad = _one_row(objective, x)
                assert got_value == value
                np.testing.assert_array_equal(got_grad, grad)
                got_grad[:] = np.nan  # a returned gradient is the caller's own
            value, grad = _one_row(objective, x2)
            assert value == fresh[1][0]
            np.testing.assert_array_equal(grad, fresh[1][1])

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
        value, _ = _one_row(_ChipObjective(task), flat)
        expected = 1.0 - fidelity(realize(settings, model), dft(d))
        assert abs(value - expected) <= 1e-10

    def test_validation(self):
        task = OptimizationTask(target=dft(3), sections=2)
        with pytest.raises(ValueError, match="sections"):
            infidelity_and_gradient([VoltageSettings(np.zeros(3), np.zeros(2))], task)
        with pytest.raises(ValueError, match="target dimension"):
            infidelity_and_gradient([VoltageSettings(np.zeros(4), np.zeros(3))] * 2, task)
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

    def test_task_freezes_a_copy_of_its_target(self):
        u = dft(3)
        task = OptimizationTask(target=u, sections=1)
        assert u.flags.writeable
        assert not np.shares_memory(u, task.target)
        assert not task.target.flags.writeable
        np.testing.assert_array_equal(task.target, dft(3))

    def test_d2_hadamard_exactly_realizable(self, hadamard_matrix):
        task = OptimizationTask(
            target=hadamard_matrix, sections=4, restarts=8, seed=0, max_iterations=600
        )
        result = optimize(task)
        assert result.infidelity <= 1e-6
        assert result.fidelity >= 1.0 - 1e-6

    def test_determinism_and_aggregation(self):
        # each call builds its own objective and workspace; K = 1 has no gap
        for sections in (1, 2, 4):
            task = OptimizationTask(
                target=dft(3), sections=sections, restarts=3, seed=5, max_iterations=60
            )
            a = optimize(task)
            b = optimize(task)
            assert a.restart_infidelities == b.restart_infidelities
            assert a.iteration_counts == b.iteration_counts
            assert a.infidelity == min(a.restart_infidelities)
            for va, vb in zip(a.voltages, b.voltages):
                np.testing.assert_array_equal(va.level_volts, vb.level_volts)
                np.testing.assert_array_equal(va.coupling_volts, vb.coupling_volts)

    def test_jobs_starts_no_thread(self, monkeypatch):
        task = OptimizationTask(
            target=dft(3), sections=3, restarts=4, seed=2, max_iterations=40
        )
        serial = optimize(task, jobs=1)

        def refuse(thread):
            raise AssertionError(f"optimize started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        result = optimize(task, jobs=2)
        assert result.restart_infidelities == serial.restart_infidelities
        assert result.iteration_counts == serial.iteration_counts
        for a, b in zip(result.voltages, serial.voltages):
            np.testing.assert_array_equal(a.level_volts, b.level_volts)
            np.testing.assert_array_equal(a.coupling_volts, b.coupling_volts)

    @pytest.mark.parametrize(
        "name, value",
        [("sections", True), ("sections", 2.5), ("restarts", 1.5), ("max_iterations", 3.7),
         ("restarts", 0)],
    )
    def test_counts_must_be_integers(self, name, value):
        fields = {"sections": 1, "restarts": 1, "max_iterations": 5, name: value}
        message = f"{name} must be an integer >= 1, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            OptimizationTask(target=dft(2), **fields)

    @pytest.mark.parametrize("seed", [-1, True, 1.5, None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        message = f"seed must be an integer >= 0, got {seed!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            OptimizationTask(target=dft(2), sections=1, seed=seed)

    @pytest.mark.parametrize("jobs", [2.5, True, 0])
    def test_jobs_must_be_an_integer(self, jobs):
        task = OptimizationTask(target=dft(2), sections=1, restarts=1, max_iterations=5)
        message = f"jobs must be an integer >= 1, got {jobs!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            optimize(task, jobs=jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_optimize_calls_the_module_minimize_once(self, monkeypatch, jobs):
        # a tracer times the lockstep restarts by swapping optimizer.minimize
        task = OptimizationTask(target=dft(3), sections=2, restarts=3, seed=5, max_iterations=60)
        expected = optimize(task)
        calls = []
        lockstep = optimizer.minimize

        def counting(fun, x0, **options):
            calls.append(x0.shape)
            return lockstep(fun, x0, **options)

        monkeypatch.setattr(optimizer, "minimize", counting)
        result = optimize(task, jobs=jobs)
        assert calls == [(task.restarts, task.parameters)]
        assert result.restart_infidelities == expected.restart_infidelities
        assert result.iteration_counts == expected.iteration_counts
        for a, b in zip(result.voltages, expected.voltages):
            np.testing.assert_array_equal(a.level_volts, b.level_volts)
            np.testing.assert_array_equal(a.coupling_volts, b.coupling_volts)

    @pytest.mark.parametrize("restarts", [1, 3, 5])
    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("d", range(2, 7))
    def test_lockstep_restarts_match_public_scipy(self, d, k, restarts, hadamard_matrix):
        # the lockstep driver steps scipy's private setulb; each restart must
        # take public scipy.optimize.minimize's steps. At d = 2 restarts
        # converge on the Hadamard gate after different iteration counts,
        # so rows leave the lockstep at different rounds; at d >= 3 most
        # restarts stop at maxiter.
        maxiter = 150 if d == 2 else 30
        task = OptimizationTask(
            target=hadamard_matrix if d == 2 else shift(d), sections=k,
            restarts=restarts, seed=d + k, max_iterations=maxiter,
        )
        _assert_matches_serial_optimize(task)

    def test_lockstep_restarts_match_public_scipy_on_every_stop(self):
        # with scipy 1.17.1 these restarts stop on a small projected
        # gradient, on a small relative reduction of f (twice) and at
        # maxiter, after 37, 161, 107 and 400 iterations
        task = OptimizationTask(target=shift(3), sections=2, restarts=4, seed=2,
                                max_iterations=400)
        _assert_matches_serial_optimize(task)

    @pytest.mark.parametrize("d", range(2, 6))
    def test_evaluates_as_often_as_public_scipy(self, monkeypatch, d, hadamard_matrix):
        # scipy answers a request at an unchanged x from its last evaluation,
        # and so must the lockstep driver; a driver that re-evaluated there
        # would take the same steps, so only the evaluation count shows it
        task = OptimizationTask(
            target=hadamard_matrix if d == 2 else shift(d), sections=2,
            restarts=3, seed=d, max_iterations=60,
        )
        rows, evaluations = [], []
        lockstep, public = optimizer.minimize, minimize

        def counting(fun, x0, **options):
            def counted(u):
                rows.append(len(u))
                return fun(u)

            return lockstep(counted, x0, **options)

        def recording(fun, x0, **options):
            result = public(fun, x0, **options)
            evaluations.append(result.nfev)
            return result

        monkeypatch.setattr(optimizer, "minimize", counting)
        monkeypatch.setitem(globals(), "minimize", recording)
        optimize(task)
        _serial_optimize(task)
        assert len(evaluations) == task.restarts
        assert sum(rows) == sum(evaluations)

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

    @pytest.mark.parametrize(
        "levels, couplings, message",
        [
            (["1.5", "2", "0"], [True, 1], "level_volts must be a list of numbers, got item '1.5'"),
            ([1.5, 2, 0], [True, 1], "coupling_volts must be a list of numbers, got item True"),
            ([1.5, 2, 0], "0.5", "coupling_volts must be a list of numbers, got str"),
        ],
    )
    def test_voltages_must_be_json_numbers(self, levels, couplings, message):
        text = json.dumps({"voltages": [{"level_volts": [0.0] * 3, "coupling_volts": [0.0] * 2},
                                        {"level_volts": levels, "coupling_volts": couplings}]})
        with pytest.raises(ValueError, match=f"^{re.escape('voltages[1] ' + message)}$"):
            OptimizationResult.voltages_from_json(text)
        numbers = json.dumps({"voltages": [{"level_volts": [1.5, 2, 0], "coupling_volts": [1, 1]}]})
        volts, _ = OptimizationResult.voltages_from_json(numbers)
        np.testing.assert_array_equal(volts[0].level_volts, [1.5, 2.0, 0.0])

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


class TestSetulbLoader:
    """``optimizer._setulb`` uncached: the extension file is loaded alone."""

    def test_reuses_the_extension_scipy_optimize_loaded(self):
        import scipy.optimize

        before = dict(sys.modules)
        assert optimizer._setulb.__wrapped__() is scipy.optimize._lbfgsb.setulb
        assert sys.modules == before

    def test_loads_the_extension_file_and_leaves_sys_modules_as_it_found_it(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.optimize._lbfgsb", raising=False)
        before = dict(sys.modules)
        setulb = optimizer._setulb.__wrapped__()
        assert sys.modules == before
        assert setulb.__name__ == "setulb"
        # the freshly loaded step drives the restarts to the same bits
        task = OptimizationTask(target=dft(3), sections=2, restarts=3, seed=4, max_iterations=50)
        expected = optimize(task)
        monkeypatch.setattr(optimizer, "_setulb", lambda: setulb)
        result = optimize(task)
        assert result.restart_infidelities == expected.restart_infidelities
        assert result.iteration_counts == expected.iteration_counts

    def test_no_extension_file_raises_import_error(self, monkeypatch):
        import scipy

        monkeypatch.delitem(sys.modules, "scipy.optimize._lbfgsb", raising=False)
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing.so"])
        before = dict(sys.modules)
        with pytest.raises(ImportError, match=re.escape(f"(scipy {scipy.__version__})")) as info:
            optimizer._setulb.__wrapped__()
        assert str(Path(scipy.__file__).parent / "optimize") in str(info.value)
        assert sys.modules == before
