"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Budgets are asserted against the wall clock.
"""

import time

import numpy as np
import pytest

from pwa_synth import (
    DeviceModel,
    OptimizationTask,
    TridiagonalHamiltonian,
    adjacent_expand,
    clock,
    compile_unitary,
    count_sections,
    dft,
    expm_hermitian,
    fidelity,
    gap_compensate,
    haar_random_unitary,
    operator_norm,
    optimize,
    realize,
    reconstruct_adjacent,
    shift,
    simultaneous_diophantine,
    synthesize_su2,
    toeplitz_eigenvalues,
    two_level_decompose,
    unitarity_defect,
)
from pwa_synth.exact import toeplitz_spectrum
from pwa_synth.optimizer import _ChipObjective

from conftest import assert_exact_certificate

L = 6e-3


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] {self.name} ({self.elapsed:.1f} s / budget {self.seconds:.0f} s)")
        if exc_type is None and self.elapsed > self.seconds:
            raise AssertionError(
                f"{self.name}: runtime {self.elapsed:.1f} s exceeds budget {self.seconds} s"
            )
        return False


def test_criterion_1_d2_exactness():
    with _Budget("criterion 1: d=2 synthesis exact for 1000 Haar unitaries", 5):
        worst = 0.0
        for seed in range(1000):
            u = haar_random_unitary(2, seed)
            sections = synthesize_su2(u, L)
            assert len(sections) <= 4
            for s in sections:  # positivity is also enforced by construction
                assert s.couplings[0] > 0.0 and np.all(s.betas > 0.0)
            worst = max(worst, operator_norm(realize(sections) - u))
        assert worst <= 1e-9, f"worst reconstruction error {worst:.3e}"


def test_criterion_2_reck_reconstruction():
    with _Budget("criterion 2: adjacent-op reconstruction for d=2..8", 30):
        for d in range(2, 9):
            expected_ops = count_sections(d)
            assert expected_ops == d * (d - 1) * (2 * d - 1) // 6
            for seed in range(100):
                u = haar_random_unitary(d, seed)
                ops = adjacent_expand(two_level_decompose(u), d)
                assert len(ops) == expected_ops
                err = operator_norm(u - reconstruct_adjacent(ops, d))
                assert err <= 1e-8, f"d={d} seed={seed}: error {err:.3e}"
        assert count_sections(3) == 5 and count_sections(5) == 30


def test_criterion_3_trotter_error_scaling():
    with _Budget("criterion 3: compile error scales as O(1/N) at d=3", 120):
        steps = np.array([4, 8, 16, 32])
        for name, target in (("dft", dft(3)), ("clock", clock(3)), ("shift", shift(3))):
            errors = np.array(
                [
                    compile_unitary(target, section_length=L, trotter_steps=int(n)).measured_error
                    for n in steps
                ]
            )
            assert np.all(np.diff(errors) < 0.0), f"{name}: errors not strictly decreasing"
            slope = float(np.polyfit(np.log(steps), np.log(errors), 1)[0])
            assert -1.3 <= slope <= -0.7, f"{name}: slope {slope:.3f} outside [-1.3, -0.7]"


def test_criterion_4_diophantine_certificates():
    with _Budget("criterion 4: Diophantine certificates for d=2..10 at eps=1e-3", 60):
        eps = 1e-3
        for d in range(2, 11):
            lam = toeplitz_eigenvalues(d)
            result = simultaneous_diophantine(toeplitz_spectrum(d), eps)
            # re-verify by direct multiplication, independently of the solver
            direct = np.abs(lam * result.denominator - np.array(result.numerators))
            assert float(np.max(direct)) <= eps
            assert_exact_certificate(result, d, eps)
            if d <= 4:
                # brute-force scan: feasibility plus residual agreement at our q
                found = None
                for q in range(1, 10**6 + 1):
                    x = lam * q
                    if np.max(np.abs(x - np.round(x))) <= eps:
                        found = q
                        break
                assert found is not None
                # float64 recomputation agrees with the exact-rational
                # certificate up to the rounding of the lam*q products
                x = lam * result.denominator
                brute_residual = float(np.max(np.abs(x - np.round(x))))
                assert brute_residual == pytest.approx(result.epsilon, abs=1e-12)


def test_criterion_5_gap_compensation_identity():
    with _Budget("criterion 5: gap compensation composite identity, 50 configs", 5):
        rng = np.random.default_rng(0)
        checked = 0
        while checked < 50:
            d = int(rng.integers(2, 6))
            beta = float(rng.uniform(0.5, 20.0))
            coupling = float(rng.uniform(0.5, 20.0))
            length = float(rng.uniform(0.5, 2.0))
            gap = float(rng.uniform(0.0, 0.2 * length))
            zero_beta = float(rng.uniform(0.2, 3.0))
            zero_coupling = float(rng.uniform(0.2, 3.0))
            if beta * length <= 2.0 * zero_beta * gap + 1e-6:
                continue
            if coupling * length <= 2.0 * zero_coupling * gap + 1e-6:
                continue
            section = TridiagonalHamiltonian(
                betas=np.full(d, beta), couplings=np.full(d - 1, coupling), length=length
            )
            gap_section = TridiagonalHamiltonian(
                betas=np.full(d, zero_beta), couplings=np.full(d - 1, zero_coupling), length=gap
            )
            electrode = gap_compensate(section, gap_section)
            composite = gap_section.unitary() @ electrode.unitary() @ gap_section.unitary()
            assert operator_norm(composite - section.unitary()) <= 1e-10
            checked += 1


def test_criterion_6_optimizer_desk_scale():
    with _Budget("criterion 6: d=5 shift, K=1 capped vs K=5 high fidelity", 1200):
        target = shift(5)

        def best_fidelity(k, seed):
            task = OptimizationTask(
                target=target, sections=k, restarts=16, seed=seed, max_iterations=2000
            )
            return optimize(task).fidelity

        passed = False
        for seed in (0, 1):  # fixed seed set, one retry allowed
            low = best_fidelity(1, seed)
            high = best_fidelity(5, seed)
            if low <= 0.5 and high >= 0.9:
                passed = True
                print(f"  seed {seed}: K=1 fidelity {low:.4f} <= 0.5, K=5 fidelity {high:.4f} >= 0.9")
                break
        assert passed, "neither seed met the single/five-section fidelity targets"


def test_criterion_7_monotonicity_trends():
    with _Budget("criterion 7: infidelity trends in K and d", 1800):
        gates = {"dft": dft, "clock": clock, "shift": shift}
        for name, build in gates.items():
            for d in (3, 4):
                best = {}
                for k in (1, 3, 5):
                    task = OptimizationTask(
                        target=build(d), sections=k, restarts=8, seed=0, max_iterations=400
                    )
                    best[k] = optimize(task).infidelity
                assert best[3] <= best[1] + 1e-6, f"{name} d={d}: K=3 worse than K=1"
                assert best[5] <= best[3] + 1e-6, f"{name} d={d}: K=5 worse than K=3"
        medians = {}
        for d in (3, 4):
            infidelities = []
            for i in range(10):
                task = OptimizationTask(
                    target=haar_random_unitary(d, i),
                    sections=3,
                    restarts=6,
                    seed=0,
                    max_iterations=300,
                )
                infidelities.append(optimize(task).infidelity)
            medians[d] = float(np.median(infidelities))
        print(f"  haar medians at K=3: d=3 -> {medians[3]:.3e}, d=4 -> {medians[4]:.3e}")
        assert medians[4] >= medians[3]


def test_criterion_8_gradient_correctness():
    with _Budget("criterion 8: analytic gradient vs finite differences", 60):
        task = OptimizationTask(target=dft(3), sections=2)
        objective = _ChipObjective(task)
        rng = np.random.default_rng(2024)
        step = 1e-4
        for _ in range(20):
            flat = rng.uniform(-15.0, 15.0, task.parameters)
            _, grads = objective.value_and_gradient(flat[None])
            grad = grads[0]
            for i in range(flat.size):
                if abs(grad[i]) <= 1e-8:
                    continue
                plus = flat.copy()
                plus[i] += step
                minus = flat.copy()
                minus[i] -= step
                # one stacked call evaluates both sides as rows
                values, _ = objective.value_and_gradient(np.stack([plus, minus]))
                fd = (values[0] - values[1]) / (2.0 * step)
                rel = abs(grad[i] - fd) / abs(grad[i])
                assert rel <= 1e-4, f"component {i}: relative error {rel:.2e}"


def test_criterion_9_dyson_tridiagonality():
    with _Budget("criterion 9: single sections are nearly tridiagonal", 5):
        from pwa_synth import dyson_first_order

        model = DeviceModel()
        d = 5
        rng = np.random.default_rng(9)
        # the off-tridiagonal mass bound holds across the whole voltage box
        mass_cases = [
            (np.zeros(d), np.full(d - 1, 100.0)),
            (15.0 * np.array([1.0, -1.0, 1.0, -1.0, 1.0]), np.full(d - 1, 121.0)),
            (rng.uniform(-15.0, 15.0, d), np.full(d - 1, 121.0)),
        ]
        tri = np.abs(np.arange(d)[:, None] - np.arange(d)[None, :]) <= 1
        for levels, couplings in mass_cases:
            betas = model.beta_zero + model.beta_shift_per_volt * levels
            h = np.diag(betas) + np.diag(couplings, 1) + np.diag(couplings, -1)
            exact = expm_hermitian(h, model.section_length)
            off_mass = np.linalg.norm(exact[~tri]) ** 2 / np.linalg.norm(exact) ** 2
            assert off_mass <= 0.05, f"off-tridiagonal mass {off_mass:.3%}"
        # the entrywise first-order match needs the level detuning that
        # suppresses the coupling integrals (|f_k| <= 2/|dbeta| << L):
        # evaluate at the fully detuned operating point of the envelope
        levels = 15.0 * np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        couplings = np.full(d - 1, 121.0)
        betas = model.beta_zero + model.beta_shift_per_volt * levels
        h = np.diag(betas) + np.diag(couplings, 1) + np.diag(couplings, -1)
        exact = expm_hermitian(h, model.section_length)
        approx = dyson_first_order(betas, couplings, model.section_length)
        assert approx[~tri].ravel().tolist() == [0.0] * (~tri).sum()  # tridiagonal by construction
        worst = float(np.max(np.abs(np.abs(approx[tri]) - np.abs(exact[tri]))))
        assert worst <= 0.1, f"entrywise modulus error {worst:.3f}"


def test_criterion_10_kernel_invariants():
    with _Budget("criterion 10: kernel property suite", 30):
        rng = np.random.default_rng(1)
        # expm unitarity, including large-phase products up to ~1e6 rad
        for scale in (1.0, 1e3, 1e6):
            a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            h = (a + a.conj().T) / 2.0
            u = expm_hermitian(h, scale / operator_norm(h))
            assert unitarity_defect(u) <= 1e-10
        # group property
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (h + h.conj().T) / 2.0
        for a, b in ((0.3, 1.9), (-2.0, 0.7), (1e3, -1e3)):
            lhs = expm_hermitian(h, a) @ expm_hermitian(h, b)
            assert operator_norm(lhs - expm_hermitian(h, a + b)) <= 1e-10
        # Toeplitz eigenvalues against dense eigendecomposition up to d=64
        for d in range(1, 65):
            matrix = np.eye(d, k=1) + np.eye(d, k=-1)
            np.testing.assert_allclose(
                toeplitz_eigenvalues(d), np.linalg.eigvalsh(matrix), atol=1e-12
            )
        # fidelity phase invariance and symmetry
        for seed in range(20):
            u = haar_random_unitary(3, seed)
            v = haar_random_unitary(3, seed + 1000)
            phase = np.exp(1j * rng.uniform(-np.pi, np.pi))
            assert fidelity(phase * u, u) == pytest.approx(1.0, abs=1e-12)
            assert fidelity(u, v) == pytest.approx(fidelity(v, u), abs=1e-12)
