import collections
import copy
import dataclasses
import decimal
import functools
import json
import marshal
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from pwa_synth import (
    BoundsInfeasible,
    ChipPlan,
    DeviceModel,
    GapInfeasible,
    TridiagonalHamiltonian,
    TrotterConfig,
    adjacent_expand,
    clock,
    compile_unitary,
    count_sections,
    dft,
    expm_hermitian,
    gap_compensate,
    haar_random_unitary,
    named_gate,
    operator_norm,
    PlanBlock,
    PlanError,
    PlanSection,
    ParameterBounds,
    VoltageSettings,
    plan_trotter_pair,
    planner,
    synthesize_su2,
    toeplitz_eigenvalues,
    two_level_decompose,
)

from pwa_synth.device import realize as device_realize
from pwa_synth.exact import SPECTRUM_BITS
from pwa_synth.linalg import section_unitaries

from conftest import (
    assert_exact_certificate,
    decimal_recurrence_unitary,
    decimal_product,
    decimal_toeplitz_eigenvalues,
    physical_sections,
    single_section_unitary,
    taylor_expm,
)

L = 6e-3


def _d3_certificate(steps: int) -> tuple[float, float]:
    """(lambda_1 q - p_1, its epsilon) of the d = 3 plan at (L, steps), from
    the plan's q and 60-digit eigenvalues: epsilon is |lambda_1 q - p_1|, the
    largest residual, plus the margin q / 2^SPECTRUM_BITS."""
    q = TrotterConfig.plan(3, L, steps).q
    with decimal.localcontext() as context:
        context.prec = 100
        product = decimal_toeplitz_eigenvalues(3)[0] * q
        residual = product - product.to_integral_value()
        return float(residual), float(abs(residual) + decimal.Decimal(q) / 2**SPECTRUM_BITS)


_D3_N2 = _d3_certificate(2)
_D3_N8 = _d3_certificate(8)


def make_config(d=3, length=L, steps=8, j1=1, j2=1):
    return TrotterConfig.plan(d, length, steps, j1, j2)


def uniform_section(d, beta, coupling, length):
    return TridiagonalHamiltonian(
        betas=np.full(d, beta), couplings=np.full(d - 1, coupling), length=length
    )


def device_gap(d, length=6e-4):
    """The device's zero-voltage section over an electrode gap of ``length``."""
    return dataclasses.replace(DeviceModel().zero_voltage_hamiltonian(d), length=length)


class TestTrotterConfig:
    def test_budget_enforced(self):
        budget = TrotterConfig.epsilon_budget(3, L, 8, 1)
        cfg = TrotterConfig.plan(3, L, 8)
        assert cfg.epsilon == budget
        assert [f.name for f in dataclasses.fields(cfg)] == [
            "dimension", "section_length", "trotter_steps", "j1", "j2", "q"
        ]
        # epsilon is the budget, not a field
        with pytest.raises(TypeError):
            dataclasses.replace(cfg, epsilon=10.0 * budget)
        # a q whose certificate misses the budget goes through the same
        # constructor as a plan file's q
        with pytest.raises(ValueError, match=rf"^q {cfg.q + 1} certifies 0\.\d+, above the budget"):
            dataclasses.replace(cfg, q=cfg.q + 1)
        for bad in (0, float(cfg.q), True):
            with pytest.raises(ValueError, match="q must be an integer >= 1"):
                dataclasses.replace(cfg, q=bad)
        # a plan file whose epsilon is not the budget is rejected
        payload = json.loads(compile_unitary(dft(3), trotter_steps=8, measure=False).to_json())
        assert payload["metadata"]["config"]["epsilon"] == budget
        for bad in (10.0 * budget, float("nan"), float("inf"), 0.0, -budget):
            payload["metadata"]["config"]["epsilon"] = bad
            with pytest.raises(ValueError, match="^plan epsilon .* is not what j1, j2 and q give"):
                ChipPlan.from_json(json.dumps(payload))

    @pytest.mark.parametrize("d, n", [(d, n) for d in range(2, 9) for n in (8, 32)])
    def test_certificate_holds_for_the_exact_eigenvalues(self, d, n):
        # every residual lambda_j q - p_j of the plan's q and numerators,
        # with lambda_j to 60 digits, is within the budget
        config = TrotterConfig.plan(d, L, n)
        q, numerators = config.q, config.recurrence.numerators
        with decimal.localcontext() as context:
            context.prec = 100
            residuals = [abs(lam * q - p)
                         for lam, p in zip(decimal_toeplitz_eigenvalues(d), numerators)]
            assert max(residuals) <= decimal.Decimal(config.epsilon), (q, max(residuals))

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_measured_error_is_the_exact_recurrence_error(self, d):
        # the cascade with every recurrence section formed from the exact q,
        # j1, j2 and L/N in decimal arithmetic (never from the stored floats)
        # and every drive by Taylor series lies as far from the target as
        # the plan claims
        for gate in ("dft", "shift", "haar:1"):
            target = named_gate(gate, d)
            plan = compile_unitary(target, section_length=L, trotter_steps=8)
            c = plan.config
            recurrence = decimal_recurrence_unitary(d, c.q, c.j1, c.j2, L / 8)
            drives = {}
            u = np.eye(d, dtype=complex)
            for section in plan.sections:
                h = section.hamiltonian
                if section.kind == "B":
                    u = recurrence @ u
                else:
                    if id(h) not in drives:
                        drives[id(h)] = taylor_expm(h.to_matrix(), h.length)
                    u = drives[id(h)] @ u
            error = np.linalg.norm(target - u, 2)
            assert error == pytest.approx(plan.measured_error, rel=1e-9, abs=0), gate

    def test_precision_is_not_a_parameter(self):
        budget = TrotterConfig.epsilon_budget(3, L, 8, 1)
        with pytest.raises(TypeError):
            TrotterConfig.plan(3, L, 8, epsilon=budget)
        with pytest.raises(TypeError):
            compile_unitary(dft(3), epsilon=budget)

    def test_background_values(self):
        cfg = make_config(j1=2, j2=3)
        assert cfg.background_coupling == pytest.approx(4.0 * np.pi)
        assert cfg.background_beta == pytest.approx(
            6.0 * np.pi / cfg.recurrence.denominator
        )
        assert cfg.background_beta > 0.0
        assert cfg.recurrence_length == pytest.approx(
            cfg.recurrence.denominator - L / 8.0
        )

    def test_recurrence_error_within_residual_bound(self):
        cfg = make_config()
        bound = 2.0 * np.pi * cfg.j1 * 3 * cfg.trotter_steps / L * cfg.epsilon + 1e-9
        assert cfg.recurrence_error() <= bound

    def test_recurrence_direction_identity(self):
        # e^{-i B Ltil} == e^{+i B L/N} up to the certified residuals,
        # checked against a directly exponentiated backward step
        cfg = make_config()
        d = cfg.dimension
        b = cfg.background_hamiltonian()
        basis_phases = cfg.recurrence_phases()
        from pwa_synth.linalg import toeplitz_eigenvectors

        s = toeplitz_eigenvectors(d)
        forward = (s * np.exp(-1j * basis_phases)) @ s.T
        backward = expm_hermitian(b.to_matrix(), -L / cfg.trotter_steps)
        bound = 2.0 * np.pi * cfg.j1 * d * cfg.trotter_steps / L * cfg.epsilon + 1e-9
        assert operator_norm(forward - backward) <= bound

    def test_background_over_full_q_is_near_identity(self):
        cfg = make_config(d=4)
        d = 4
        b = TridiagonalHamiltonian(
            betas=np.full(d, cfg.background_beta),
            couplings=np.full(d - 1, cfg.background_coupling),
            length=float(cfg.recurrence.denominator),
        )
        # phases reduce to 2 pi j1 Delta_j; use the certified residuals
        bound = 2.0 * np.pi * cfg.j1 * d * cfg.epsilon + 1e-9
        assert operator_norm(b.unitary() - np.eye(d)) <= bound

    def test_validation(self):
        with pytest.raises(ValueError):
            TrotterConfig.plan(1, L, 8)
        with pytest.raises(ValueError):
            TrotterConfig.plan(3, L, 0)
        with pytest.raises(ValueError):
            TrotterConfig.plan(3, -L, 8)

    @pytest.mark.parametrize(
        "args",
        [(3.0, L, 8), (True, L, 8), (3, L, 8.0), (3, L, True), (3, L, 8, 1.0), (3, L, 8, 1, 1.5),
         (3, L, 8, 1, False)],
        ids=["d-float", "d-bool", "N-float", "N-bool", "j1-float", "j2-float", "j2-bool"],
    )
    def test_rejects_non_integer_design_values(self, args):
        with pytest.raises(ValueError, match="must be an integer"):
            TrotterConfig.plan(*args)

    @pytest.mark.parametrize("d", [2, 3])
    def test_compile_rejects_fractional_winding(self, d):
        with pytest.raises(ValueError, match="j2 must be an integer >= 1, got 1.5"):
            compile_unitary(dft(d), trotter_steps=2, j2=1.5)

    @pytest.mark.parametrize("length", [3.0, 9.0])
    def test_recurrence_no_longer_than_step_raises(self, length):
        # q = 1 m at these budgets, so q - L/N is not positive
        with pytest.raises(PlanError, match="q - L/N"):
            TrotterConfig.plan(3, length, 1)


class TestPlanTrotterPair:
    """The drive section A against its partner, the bare background B that
    plans store: ``config.background_hamiltonian()``."""

    def test_block_difference_is_bitwise_exact(self):
        cfg = make_config()
        sec = synthesize_su2(haar_random_unitary(2, 0), L)[3]
        drive = plan_trotter_pair(sec, 1, cfg)
        background = cfg.background_hamiltonian()
        diff_betas = drive.betas - background.betas
        diff_coups = drive.couplings - background.couplings
        # zeros off the block, bitwise
        assert diff_betas[2] == 0.0
        assert diff_coups[1] == 0.0
        # and the block is the section added onto the background, bitwise
        assert drive.betas[0] == background.betas[0] + sec.betas[0]
        assert drive.betas[1] == background.betas[1] + sec.betas[1]
        assert drive.couplings[0] == background.couplings[0] + sec.couplings[0]

    def test_lengths(self):
        cfg = make_config()
        sec = synthesize_su2(haar_random_unitary(2, 1), L)[0]
        drive = plan_trotter_pair(sec, 2, cfg)
        background = cfg.background_hamiltonian()
        assert drive.length == pytest.approx(L / cfg.trotter_steps)
        assert background.length == pytest.approx(cfg.recurrence_length)
        assert background.is_uniform()

    def test_trotter_product_converges_to_block_unitary(self):
        # one Hadamard section at modes (1,2) of d=3: N pairs approach
        # I_1 (+) e^{-i H L} with error shrinking like 1/N
        d = 3
        target_block = synthesize_su2(np.array([[1, 1], [1, -1]]) / np.sqrt(2.0), L)[0]
        errors = []
        for steps in (8, 16, 32):
            cfg = make_config(d=d, steps=steps)
            drive = plan_trotter_pair(target_block, 1, cfg)
            step_u = drive.unitary() @ cfg.background_hamiltonian().unitary()
            total = np.linalg.matrix_power(step_u, steps)
            want = np.eye(d, dtype=complex)
            want[:2, :2] = expm_hermitian(target_block.to_matrix(), L)
            errors.append(operator_norm(total - want))
        assert errors[1] <= 0.75 * errors[0]
        assert errors[2] <= 0.75 * errors[1]

    def test_mode_range_checked(self):
        cfg = make_config()
        sec = synthesize_su2(np.eye(2), L)[0]
        with pytest.raises(ValueError, match="mode"):
            plan_trotter_pair(sec, 3, cfg)

    def test_rejects_section_that_is_not_2_mode(self):
        cfg = make_config()
        three_mode = TridiagonalHamiltonian(betas=[1.0] * 3, couplings=[1.0] * 2, length=L)
        with pytest.raises(ValueError, match="2-mode"):
            plan_trotter_pair(three_mode, 1, cfg)

    @pytest.mark.parametrize("target", [dft(3), haar_random_unitary(4, 5)], ids=["d3", "d4"])
    def test_compiled_drive_minus_stored_background_is_zero_off_block(self, target):
        d = target.shape[0]
        plan = compile_unitary(target, trotter_steps=4)
        modes = [op.mode for op in adjacent_expand(two_level_decompose(target), d)]
        backgrounds = {id(s.hamiltonian): s.hamiltonian for s in plan.sections if s.kind == "B"}
        (background,) = backgrounds.values()
        expected = plan.config.background_hamiltonian()
        np.testing.assert_array_equal(background.betas, expected.betas)
        np.testing.assert_array_equal(background.couplings, expected.couplings)
        assert background.length == expected.length
        drives = [s for s in plan.sections if s.kind == "A"]
        assert drives
        for s in drives:
            m = modes[s.factor_index]
            diff_betas = s.hamiltonian.betas - background.betas
            diff_coups = s.hamiltonian.couplings - background.couplings
            assert np.all(np.delete(diff_betas, [m - 1, m]) == 0.0)
            assert np.all(np.delete(diff_coups, m - 1) == 0.0)


class TestGapCompensate:
    def test_worked_example(self):
        b = uniform_section(3, 10.0, 2.0 * np.pi, 1.0)
        gap = uniform_section(3, 1.0, 1.0, 0.1)
        electrode = gap_compensate(b, gap)
        assert electrode.is_uniform()
        assert electrode.length == pytest.approx(0.8)
        assert electrode.betas[0] == pytest.approx((10.0 - 0.2) / 0.8)
        assert electrode.betas[0] == pytest.approx(12.25)
        assert electrode.couplings[0] == pytest.approx((2.0 * np.pi - 0.2) / 0.8)
        composite = gap.unitary() @ electrode.unitary() @ gap.unitary()
        assert operator_norm(composite - b.unitary()) <= 1e-10

    def test_infeasible_raises(self):
        b = uniform_section(3, 1.0, 6.0, 1.0)
        with pytest.raises(GapInfeasible):
            gap_compensate(b, uniform_section(3, 2.0, 1.0, 0.4))

    def test_requires_uniform(self):
        b = TridiagonalHamiltonian(betas=[1.0, 2.0], couplings=[1.0], length=1.0)
        with pytest.raises(ValueError, match="uniform"):
            gap_compensate(b, uniform_section(2, 1.0, 1.0, 0.1))

    def test_requires_uniform_gap(self):
        b = uniform_section(2, 10.0, 1.0, 1.0)
        gap = TridiagonalHamiltonian(betas=[1.0, 2.0], couplings=[1.0], length=0.1)
        with pytest.raises(ValueError, match="uniform"):
            gap_compensate(b, gap)

    def test_gap_with_other_mode_count_rejected(self):
        b = uniform_section(3, 10.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="modes"):
            gap_compensate(b, uniform_section(4, 1.0, 1.0, 0.1))

    def test_gap_longer_than_section_rejected(self):
        b = uniform_section(2, 10.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="electrode"):
            gap_compensate(b, uniform_section(2, 1.0, 1.0, 0.6))


class TestCompileUnitary:
    def test_d2_exact_plan(self):
        u = haar_random_unitary(2, 42)
        plan = compile_unitary(u, section_length=L)
        assert plan.dimension == 2
        assert len(plan.sections) <= 4
        assert plan.section_budget == 4
        assert all(s.kind == "A" for s in plan.sections)
        assert plan.measured_error <= 1e-9

    def test_d2_sections_match_taylor_oracle(self):
        u = haar_random_unitary(2, 2)
        plan = compile_unitary(u, section_length=L)
        total = np.eye(2, dtype=complex)
        for s in plan.sections:
            total = taylor_expm(s.hamiltonian.to_matrix(), s.hamiltonian.length) @ total
        assert operator_norm(total - u) <= 1e-9

    def test_clock_d3_counts(self):
        plan = compile_unitary(clock(3), section_length=L, trotter_steps=8)
        assert plan.section_budget == 4 * 5 * 8
        counts = collections.Counter(s.kind for s in plan.sections)
        assert counts["A"] == counts["B"]
        assert counts["A"] <= 4 * 5 * 8
        assert plan.measured_error < 0.05

    def test_identity_with_pruning_is_empty_and_exact(self):
        plan = compile_unitary(np.eye(3), trotter_steps=8, prune_identity=True)
        assert plan.sections == []
        assert plan.measured_error <= 1e-12

    def test_identity_error_decreases_without_pruning(self):
        e8 = compile_unitary(np.eye(3), trotter_steps=8).measured_error
        e32 = compile_unitary(np.eye(3), trotter_steps=32).measured_error
        assert e32 < e8

    def test_positivity_of_every_section(self):
        plan = compile_unitary(dft(3), trotter_steps=4)
        for s in plan.sections:
            assert np.all(s.hamiltonian.betas > 0.0)
            assert np.all(s.hamiltonian.couplings > 0.0)

    def test_error_decreases_with_n(self):
        errors = [
            compile_unitary(dft(3), section_length=L, trotter_steps=n).measured_error
            for n in (4, 8, 16)
        ]
        assert errors[1] < errors[0]
        assert errors[2] < errors[1]

    def test_b_then_a_ordering(self):
        plan = compile_unitary(dft(3), trotter_steps=2)
        kinds = [s.kind for s in plan.sections[:4]]
        assert kinds == ["B", "A", "B", "A"]

    def test_gap_compensated_plan_matches_plain_plan(self):
        u = dft(3)
        plain = compile_unitary(u, trotter_steps=4)
        gapped = compile_unitary(u, trotter_steps=4, gap=uniform_section(3, 100.0, 50.0, 1e-4))
        counts = collections.Counter(s.kind for s in gapped.sections)
        assert counts["gap"] == 2 * counts["B"]
        assert gapped.measured_error == pytest.approx(plain.measured_error, abs=1e-8)

    def test_gap_windings_autoescalate(self):
        # device-scale beta0 would make j2=1 infeasible; compile must pick a
        # feasible winding automatically
        gap = device_gap(3)
        plan = compile_unitary(dft(3), trotter_steps=4, gap=gap)
        assert plan.config.j2 > 1
        assert all(s.hamiltonian is gap for s in plan.sections if s.kind == "gap")
        for s in plan.sections:
            assert np.all(s.hamiltonian.betas > 0.0)

    def test_gap_rejected_on_d2_plan(self):
        with pytest.raises(ValueError, match="d=2"):
            compile_unitary(dft(2), gap=uniform_section(2, 100.0, 50.0, 1e-4))

    @pytest.mark.parametrize("modes", [1, 4])
    def test_gap_with_other_mode_count_rejected(self, modes):
        gap = uniform_section(modes, 100.0, 50.0, 1e-4)
        with pytest.raises(ValueError, match="modes"):
            compile_unitary(dft(3), gap=gap)

    def test_gap_escalation_uses_budget_of_final_windings(self):
        # device-scale beta0 escalates j2, and the re-plan certifies at the
        # budget of the windings it ends with
        plan = compile_unitary(dft(3), trotter_steps=4, gap=device_gap(3))
        assert plan.config.j2 > 1
        assert plan.config.epsilon == TrotterConfig.epsilon_budget(3, L, 4, plan.config.j1)
        assert plan.epsilon_certificate <= plan.config.epsilon

    def test_gap_escalating_only_j2_solves_once(self, monkeypatch):
        # the budget, and so q, depends on j1 alone: raising j2 keeps q
        calls = []
        solve = planner.simultaneous_diophantine
        monkeypatch.setattr(planner, "simultaneous_diophantine",
                            lambda *args: calls.append(args) or solve(*args))
        plan = compile_unitary(clock(3), trotter_steps=8, gap=device_gap(3))
        assert (plan.config.j1, len(calls)) == (1, 1)
        assert plan.config.j2 > 1
        assert plan.config == TrotterConfig.plan(3, L, 8, 1, plan.config.j2)

    def test_json_round_trip_preserves_error(self):
        plan = compile_unitary(clock(3), trotter_steps=4)
        loaded = ChipPlan.from_json(plan.to_json())
        err = operator_norm(clock(3) - loaded.realize())
        assert err == pytest.approx(plan.measured_error, abs=1e-12)
        assert loaded.section_budget == plan.section_budget
        assert loaded.epsilon_certificate == plan.epsilon_certificate

    @pytest.mark.parametrize(
        "target, kwargs",
        [
            (dft(2), {}),
            (dft(3), {"trotter_steps": 4}),
            (clock(3), {"trotter_steps": 4, "gap": device_gap(3)}),
            (haar_random_unitary(4, 5), {"trotter_steps": 4}),
        ],
        ids=["d2", "d3", "d3-gap", "d4"],
    )
    def test_json_round_trips_byte_for_byte(self, target, kwargs):
        text = compile_unitary(target, **kwargs).to_json()
        assert ChipPlan.from_json(text).to_json() == text

    def test_json_rejects_other_recurrence_unit(self):
        text = compile_unitary(dft(3), trotter_steps=2).to_json()
        assert text.count('"recurrence_unit": 1.0') == 1
        with pytest.raises(ValueError, match="recurrence_unit"):
            ChipPlan.from_json(text.replace('"recurrence_unit": 1.0', '"recurrence_unit": 2.0'))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            compile_unitary(np.ones((3, 3)))


def reference_json(plan: ChipPlan) -> str:
    """Schema v1 text from the stdlib encoder over the whole payload, built
    from the plan's fields in the v1 key order."""
    config = plan.config
    payload = {
        "schema_version": 1,
        "metadata": {
            "d": plan.dimension,
            "N": plan.trotter_steps,
            "K": plan.section_budget,
            "measured_error": plan.measured_error,
            "epsilon_certificate": plan.epsilon_certificate,
            "section_length_m": plan.section_length,
            "global_phase": plan.global_phase,
            "target_name": plan.target_name,
            "config": None
            if config is None
            else {
                "j1": config.j1,
                "j2": config.j2,
                "epsilon": config.epsilon,
                "recurrence_unit": 1.0,
                "q": config.recurrence.denominator,
                "numerators": list(config.recurrence.numerators),
                "residuals": list(config.recurrence.residuals),
                "achieved_epsilon": config.recurrence.epsilon,
            },
        },
        "sections": [
            {
                "kind": s.kind,
                "betas": [float(x) for x in s.hamiltonian.betas],
                "couplings": [float(x) for x in s.hamiltonian.couplings],
                "length_m": s.hamiltonian.length,
                "provenance": {
                    "factor_index": s.factor_index,
                    "su2_index": s.su2_index,
                    "trotter_step": s.trotter_step,
                },
                "reduced_phases": None if s.reduced_phases is None else list(s.reduced_phases),
            }
            for s in plan.sections
        ],
    }
    return json.dumps(payload, indent=2)


def hand_built_plan() -> ChipPlan:
    """No config, no provenance on some sections, no reduced phases on most,
    equal Hamiltonians held by separate objects, and one Hamiltonian object
    held by sections of other kinds and reduced phases (0.0 and -0.0 among
    them)."""

    def ham(betas, couplings, length):
        return TridiagonalHamiltonian(betas=betas, couplings=couplings, length=length)

    shared = ham([2.0, 2.0, 2.0], [1.0, 1.0], 7.5)
    sections = [
        PlanSection("A", ham([1.0, 2.5, 3.0], [0.5, 0.25], 1e-3)),
        PlanSection("A", ham([1.0, 2.5, 3.0], [0.5, 0.25], 1e-3)),
        PlanSection("B", shared, 0, None, 3),
        PlanSection("gap", shared, 12, 3, None, (0.1, -0.2, 3.0)),
        PlanSection("B", shared, 1, 1, 1, (0.1, -0.2, 3.0)),
        PlanSection("B", shared, 2, 0, 0, (0.0, -0.2, 3.0)),
        PlanSection("B", shared, 2, 0, 1, (-0.0, -0.2, 3.0)),
        PlanSection("B", ham([1e7, 1e7, 1e7], [2 * np.pi] * 2, 4.0e9), 1, 2, 0),
    ]
    return ChipPlan(
        dimension=3, trotter_steps=1, section_budget=7, section_length=1e-3,
        blocks=flat_blocks(sections),
    )


def single_mode_plan() -> ChipPlan:
    section = PlanSection("A", TridiagonalHamiltonian(betas=[4.0], couplings=[], length=0.5))
    return ChipPlan(
        dimension=1, trotter_steps=1, section_budget=1, section_length=0.5,
        blocks=flat_blocks([section]), measured_error=0.0, target_name="identity",
    )


def flat_blocks(sections) -> list[PlanBlock]:
    """One single-step, single-body block per section: a plan's flat form."""
    return [
        PlanBlock(
            (dataclasses.replace(s, factor_index=None, su2_index=None, trotter_step=None),),
            s.factor_index, s.su2_index, (s.trotter_step,),
        )
        for s in sections
    ]


class TestPlanJson:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: compile_unitary(dft(2)),
            lambda: compile_unitary(dft(3), trotter_steps=4),
            lambda: compile_unitary(haar_random_unitary(4, 5), trotter_steps=2),
            lambda: compile_unitary(haar_random_unitary(5, 6), trotter_steps=2),
            lambda: compile_unitary(clock(6), trotter_steps=2, target_name="clock"),
            lambda: compile_unitary(clock(3), trotter_steps=4, gap=device_gap(3)),
            lambda: compile_unitary(haar_random_unitary(4, 2), trotter_steps=2, gap=device_gap(4)),
            lambda: compile_unitary(dft(3), trotter_steps=2, measure=False),
            lambda: compile_unitary(np.eye(3), prune_identity=True),
            hand_built_plan,
            single_mode_plan,
        ],
        ids=["d2", "d3", "d4", "d5", "d6", "d3-gap", "d4-gap", "unmeasured", "empty",
             "hand-built", "d1"],
    )
    def test_to_json_equals_stdlib_encoding(self, build):
        plan = build()
        text = plan.to_json()
        assert text == reference_json(plan)
        assert ChipPlan.from_json(text).to_json() == text

    def test_each_body_text_is_formed_once(self, monkeypatch):
        calls = []
        list_text = planner._list_text
        monkeypatch.setattr(planner, "_list_text", lambda v: calls.append(v) or list_text(v))
        # compiling forms no plan text: drives are interned by value
        plan = compile_unitary(haar_random_unitary(4, 3), trotter_steps=8, gap=device_gap(4))
        assert len(calls) == 0
        text = plan.to_json()
        loaded = ChipPlan.from_json(text)
        calls.clear()
        # the first write formed every body's text, and the reader formed
        # the loaded bodies' texts when it checked them
        assert plan.to_json() == text
        assert len(calls) == 0
        assert loaded.to_json() == text
        assert len(calls) == 0

    @pytest.mark.parametrize(
        "kind, tamper, match",
        [
            ("A", lambda s: s["betas"].__setitem__(0, 0.0), "strictly positive"),
            ("A", lambda s: s["betas"].__setitem__(1, -3.0), "strictly positive"),
            ("B", lambda s: s["couplings"].append(1.0), "couplings"),
            ("A", lambda s: s.__setitem__("reduced_phases", [0.0, 0.0, 0.0]), "uniform"),
            ("B", lambda s: s.__setitem__("kind", "C"), "kind"),
            ("A", lambda s: s["couplings"].__setitem__(1, float("nan")), "non-finite"),
            ("A", lambda s: s.__setitem__("length_m", -s["length_m"]), "positive"),
            ("B", lambda s: s["reduced_phases"].__setitem__(0, float("inf")), "finite numbers"),
            ("B", lambda s: s["reduced_phases"].pop(), "finite numbers"),
            ("B", lambda s: s.__setitem__("reduced_phases", "0.1"), "must be a list"),
        ],
        ids=["zero-beta", "negative-beta", "coupling-count", "phases-on-drive", "kind",
             "nan-coupling", "negative-length", "inf-phase", "short-phases", "phases-string"],
    )
    def test_tampering_with_one_copy_is_rejected(self, kind, tamper, match):
        payload = json.loads(compile_unitary(dft(3), trotter_steps=4).to_json())
        copies = [s for s in payload["sections"] if s["kind"] == kind
                  and s["provenance"]["factor_index"] == 0 and s["provenance"]["su2_index"] == 0]
        assert len(copies) == 4
        assert all(c["betas"] == copies[0]["betas"] for c in copies)
        tamper(copies[2])
        with pytest.raises(ValueError, match=match):
            ChipPlan.from_json(json.dumps(payload, indent=2))

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("B", "reduced_phases", 0), "0.5",
             "plan reduced_phases must be a list of numbers, got item '0.5'"),
            (("A", "length_m"), "0.006", "plan length_m must be a number, got '0.006'"),
            (("A", "betas", 0), True, "plan betas must be a list of numbers, got item True"),
            (("B", "couplings", 1), True,
             "plan couplings must be a list of numbers, got item True"),
            (("config", "residuals", 0), "0.0",
             f"plan residuals ['0.0', 0.0, {-_D3_N2[0]!r}] is not what j1, j2 and q "
             f"give: [{_D3_N2[0]!r}, 0.0, {-_D3_N2[0]!r}]"),
            (("config", "achieved_epsilon"), "1e-3",
             f"plan achieved_epsilon '1e-3' is not what j1, j2 and q give: {_D3_N2[1]!r}"),
            (("config", "epsilon"), True,
             "plan epsilon True is not what j1, j2 and q give: 4.77464829275686e-07"),
            (("config", "recurrence_unit"), True,
             "plan recurrence_unit True is not what j1, j2 and q give: 1.0"),
            (("meta", "global_phase"), "0.1", "plan global_phase must be a number, got '0.1'"),
            (("meta", "measured_error"), "0", "plan measured_error must be a number, got '0'"),
        ],
        ids=["phases", "length", "beta", "coupling", "residual", "achieved", "epsilon", "unit",
             "global-phase", "measured-error"],
    )
    def test_values_must_be_json_numbers(self, path, value, message):
        payload = json.loads(compile_unitary(dft(3), trotter_steps=2).to_json())
        where, *keys = path
        if where == "meta":
            target = payload["metadata"]
        elif where == "config":
            target = payload["metadata"]["config"]
        else:
            target = next(s for s in payload["sections"] if s["kind"] == where)
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        # the compact text takes the general reader; the indented one starts
        # in the layout reader, which hands the text over on the failed check
        for text in (json.dumps(payload), json.dumps(payload, indent=2)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                ChipPlan.from_json(text)

    # `compile --gate identity --N 8|32 --prune-identity` as written by the
    # version that certified q on the float64-rounded eigenvalues
    _FLOAT_CERTIFIED = {
        3: '{"schema_version": 1, "metadata": {"d": 3, "N": 8, "K": 160, "measured_error": 0.0, '
           '"epsilon_certificate": 2.0558556634853176e-08, "section_length_m": 0.006, '
           '"global_phase": 0.0, "target_name": "identity", "config": {"j1": 1, "j2": 1, '
           '"epsilon": 2.9841551829730376e-08, "recurrence_unit": 1.0, "q": 15994428, '
           '"numerators": [-22619537, 0, 22619537], "residuals": [2.0558556634853176e-08, 0.0, '
           '-2.0558556634853176e-08], "achieved_epsilon": 2.0558556634853176e-08}}, '
           '"sections": []}',
        5: '{"schema_version": 1, "metadata": {"d": 5, "N": 32, "K": 3840, "measured_error": 0.0, '
           '"epsilon_certificate": 0.0, "section_length_m": 0.006, "global_phase": 0.0, '
           '"target_name": "identity", "config": {"j1": 1, "j2": 1, '
           '"epsilon": 1.1190581936148891e-09, "recurrence_unit": 1.0, "q": 4503599627370496, '
           '"numerators": [-7800463371553963, -4503599627370497, 0, 4503599627370497, '
           '7800463371553963], "residuals": [0.0, 0.0, 0.0, 0.0, 0.0], "achieved_epsilon": 0.0}}, '
           '"sections": []}',
    }

    @pytest.mark.parametrize(
        "d, check",
        [(3, f"plan residuals [2.0558556634853176e-08, 0.0, -2.0558556634853176e-08] is not what "
             f"j1, j2 and q give: [{_D3_N8[0]!r}, 0.0, {-_D3_N8[0]!r}]"),
         (5, "q 4503599627370496 certifies 0.45194, above the budget 1.11906e-09")],
        ids=["residuals", "vacuous-q"],
    )
    def test_a_float_certified_plan_says_to_compile_it_again(self, d, check):
        text = self._FLOAT_CERTIFIED[d]
        message = (f"{check} (this plan's q was certified on the float64-rounded eigenvalues, "
                   "as older versions wrote plans: compile it again)")
        for layout in (text, json.dumps(json.loads(text), indent=2)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                ChipPlan.from_json(layout)
        if d == 3:
            # the same q with its certificate on the exact eigenvalues loads
            payload = json.loads(text)
            config = TrotterConfig(3, L, 8, 1, 1, 15994428)
            payload["metadata"]["config"]["residuals"] = list(config.recurrence.residuals)
            payload["metadata"]["config"]["achieved_epsilon"] = config.recurrence.epsilon
            payload["metadata"]["epsilon_certificate"] = config.recurrence.epsilon
            assert ChipPlan.from_json(json.dumps(payload)).config == config

    @pytest.mark.parametrize(
        "kind, key, index, number, flag",
        [("A", "length_m", None, 1.0, True), ("A", "betas", 0, 1.0, True),
         ("B", "reduced_phases", 0, 0.0, False), ("B", "reduced_phases", 1, 1.0, True)],
        ids=["length-true", "beta-true", "phase-false", "phase-true"],
    )
    def test_bool_copy_of_an_equal_number_is_rejected(self, kind, key, index, number, flag):
        # true == 1.0 and false == 0.0 in Python, so a copy holding a bool
        # compares equal to a checked body holding that number
        def text_with(third):
            payload = json.loads(compile_unitary(dft(3), trotter_steps=4).to_json())
            copies = [s for s in payload["sections"] if s["kind"] == kind
                      and s["provenance"]["factor_index"] == 0
                      and s["provenance"]["su2_index"] == 0]
            assert len(copies) == 4
            for i, section in enumerate(copies):
                holder, name = (section, key) if index is None else (section[key], index)
                holder[name] = third if i == 2 else number
            return json.dumps(payload)

        ChipPlan.from_json(text_with(number))
        what = "plan length_m must be a number" if index is None else f"plan {key} must be a list"
        with pytest.raises(ValueError, match=what):
            ChipPlan.from_json(text_with(flag))

    @pytest.mark.parametrize(
        "phases", [[float("nan"), 1.0], [float("inf"), 0.0], [1.0], [0.0, 1.0, 2.0]],
        ids=["nan", "inf", "short", "long"],
    )
    def test_reduced_phases_must_be_d_finite_numbers(self, phases):
        payload = json.loads(compile_unitary(dft(2)).to_json())
        coupler = payload["sections"][1]
        assert coupler["betas"][0] == coupler["betas"][1] and coupler["reduced_phases"] is None
        coupler["reduced_phases"] = phases
        with pytest.raises(ValueError, match="reduced_phases must be 2 finite numbers"):
            ChipPlan.from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "provenance",
        [{"trotter_step": "x"}, {"factor_index": 0.5}, {"su2_index": True}, {"trotter_step": [1]}],
    )
    def test_provenance_must_be_integer_or_null(self, provenance):
        section = compile_unitary(dft(2)).sections[0]
        with pytest.raises(ValueError, match="provenance"):
            dataclasses.replace(section, **provenance)
        text = compile_unitary(dft(3), trotter_steps=4).to_json()
        for position in ("last", "copy 2 of 4"):
            payload = json.loads(text)
            if position == "last":
                target = payload["sections"][-1]
            else:
                copies = [s for s in payload["sections"] if s["kind"] == "A"
                          and s["provenance"]["factor_index"] == 0
                          and s["provenance"]["su2_index"] == 0]
                assert len(copies) == 4
                target = copies[2]
            target["provenance"].update(provenance)
            with pytest.raises(ValueError, match="provenance"):
                ChipPlan.from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: compile_unitary(haar_random_unitary(4, 3), trotter_steps=4),
            lambda: compile_unitary(clock(3), trotter_steps=4, gap=device_gap(3)),
            hand_built_plan,
        ],
        ids=["d4", "d3-gap", "hand-built"],
    )
    def test_shared_and_unshared_sections_realize_identically(self, build):
        plan = build()
        loaded = ChipPlan.from_json(plan.to_json())
        unshared = dataclasses.replace(
            loaded, blocks=flat_blocks(copy.deepcopy(s) for s in loaded.sections)
        )
        assert len({id(s.hamiltonian) for s in plan.sections}) < len(plan.sections)
        assert len({id(s.hamiltonian) for s in unshared.sections}) == len(unshared.sections)
        realized = loaded.realize()
        assert_near_flat(loaded, realized, unshared.realize())
        assert np.array_equal(realized, plan.realize())


def flat_reference(target, steps: int, gap, config) -> list[tuple]:
    """The flat section list of the paper's construction, built one section
    at a time: for every synthesized section of every adjacent op, N copies
    of (recurrence sections, drive), or each synthesized section once at
    d = 2. Each entry is (kind, provenance, betas, couplings, length, phases
    bits). ``config`` is the plan's resolved design."""
    d = target.shape[0]
    recurrence, step_values = [], [None]
    if d > 2:
        background, phases = config.background_hamiltonian(), config.recurrence_phases()
        recurrence = [("B", background, phases)]
        if gap is not None:
            gap_phases = (gap.betas[0] + gap.couplings[0] * toeplitz_eigenvalues(d)) * gap.length
            electrode = gap_compensate(background, gap)
            recurrence = [("gap", gap, gap_phases), ("B", electrode, phases - 2.0 * gap_phases),
                          ("gap", gap, gap_phases)]
        step_values = range(steps)
    sections = []
    for op_index, op in enumerate(adjacent_expand(two_level_decompose(target), d)):
        for su2_index, sec in enumerate(synthesize_su2(op.matrix, L)):
            drive = sec if d == 2 else plan_trotter_pair(sec, op.mode, config)
            for step in step_values:
                for kind, h, phases in (*recurrence, ("A", drive, None)):
                    sections.append((
                        kind, (op_index, su2_index, step), h.betas.tobytes(),
                        h.couplings.tobytes(), h.length,
                        None if phases is None else np.asarray(phases, dtype=float).tobytes(),
                    ))
    return sections


def section_entries(sections) -> list[tuple]:
    return [
        (s.kind, (s.factor_index, s.su2_index, s.trotter_step), s.hamiltonian.betas.tobytes(),
         s.hamiltonian.couplings.tobytes(), s.hamiltonian.length,
         None if s.reduced_phases is None else np.asarray(s.reduced_phases).tobytes())
        for s in sections
    ]


def flat_product(sections, d: int) -> np.ndarray:
    u = np.eye(d, dtype=complex)
    for s in sections:
        u = s.unitary() @ u
    return u


def assert_near_flat(plan: ChipPlan, realized, flat) -> None:
    """``realized``, the plan's product, against ``flat``, its sections'
    product one by one: bit for bit when every block has one step, and
    otherwise within 1e-12, what binary powering may move by rounding."""
    if all(len(block.trotter_steps) == 1 for block in plan.blocks):
        assert np.array_equal(realized, flat)
    assert operator_norm(realized - flat) <= 1e-12


def general_load(text: str) -> ChipPlan:
    """The general reader's plan of ``text``, or its error."""
    return planner._read_general(ChipPlan, text)


def reencodings(text: str) -> dict[str, str]:
    """``text`` re-encoded compactly, and with the keys of its metadata and
    of each section in reverse order; both take the general reader."""
    payload = json.loads(text)
    reordered = {
        "sections": [dict(reversed(list(s.items()))) for s in payload["sections"]],
        "metadata": dict(reversed(list(payload["metadata"].items()))),
        "schema_version": payload["schema_version"],
    }
    return {"compact": json.dumps(payload), "reordered": json.dumps(reordered)}


def body_objects(plan: ChipPlan) -> int:
    """How many distinct body objects the plan's blocks hold."""
    return len({id(body) for block in plan.blocks for body in block.bodies})


def plan_summary(plan: ChipPlan) -> tuple:
    """What a loaded plan holds: its metadata, its blocks' shape, its
    sections with floats by their bits, the bits of its realized product
    and its text."""
    return (
        dataclasses.replace(plan, blocks=[]),
        [(len(b.bodies), b.factor_index, b.su2_index, b.trotter_steps) for b in plan.blocks],
        section_entries(plan.sections),
        plan.realize().tobytes(),
        plan.to_json(),
    )


EQUIVALENCE_CASES = [(2, 2, False), (2, 8, False)] + [
    (d, n, gap) for d in range(3, 7) for n in (2, 8) for gap in (False, True)
]


class TestBlocksMatchFlatReference:
    @pytest.mark.parametrize(
        "d, steps, with_gap", EQUIVALENCE_CASES,
        ids=[f"d{d}-N{n}{'-gap' if g else ''}" for d, n, g in EQUIVALENCE_CASES],
    )
    def test_sections_realize_and_reload_match_the_flat_list(self, d, steps, with_gap):
        target = haar_random_unitary(d, 10 + d)
        gap = device_gap(d) if with_gap else None
        plan = compile_unitary(target, section_length=L, trotter_steps=steps, gap=gap)
        sections = plan.sections
        assert section_entries(sections) == flat_reference(target, steps, gap, plan.config)
        realized = plan.realize()
        assert_near_flat(plan, realized, flat_product(sections, d))
        assert plan.measured_error == operator_norm(target - realized)

        text = plan.to_json()
        # the canonical text takes the layout reader, the other texts and
        # general_load the general reader; all give the compiled plan
        expected = plan_summary(plan)
        assert expected[2:4] == (section_entries(sections), realized.tobytes())
        assert expected[4] == text
        for variant in (text, *reencodings(text).values()):
            assert plan_summary(ChipPlan.from_json(variant)) == expected
        assert plan_summary(general_load(text)) == expected


@pytest.mark.parametrize("d, with_gap", [(3, True), (4, True), (5, False)])
def test_powered_and_flat_products_are_near_the_exact_product(d, with_gap):
    plan = compile_unitary(
        haar_random_unitary(d, 20 + d), trotter_steps=8, gap=device_gap(d) if with_gap else None
    )
    sections = plan.sections
    exact = decimal_product(sections)
    assert np.max(np.abs(plan.realize() - exact)) <= 3e-13
    assert np.max(np.abs(flat_product(sections, d) - exact)) <= 3e-13


def per_block_product(plan: ChipPlan) -> np.ndarray:
    """The plan's product one block at a time: each block's step
    S = (last body) ... (first body) as S^n by binary powering, the bodies one
    by one if n is odd, then S^2, S^4, ... for the higher set bits of n."""
    u = np.eye(plan.dimension, dtype=complex)
    for block in plan.blocks:
        mats = [single_section_unitary(body.hamiltonian, body.reduced_phases)
                for body in block.bodies]
        n = len(block.trotter_steps)
        while n:
            if n & 1:
                for mat in mats:
                    u = mat @ u
            n >>= 1
            if n:
                step = functools.reduce(lambda product, mat: mat @ product, mats)
                mats = [step @ step]
    return u


def mixed_shape_plan(seed: int) -> ChipPlan:
    """A d=3 plan whose blocks mix 0, 1, 2, 3, 5 and 8 steps with 1 to 3 bodies,
    drawn from the gap, electrode (both with reduced phases) and drive bodies
    of a compiled plan, in a seeded order, so blocks of one shape stand apart."""
    compiled = compile_unitary(haar_random_unitary(3, seed), trotter_steps=4, gap=device_gap(3))
    pool = list({id(body): body for block in compiled.blocks for body in block.bodies}.values())
    rng = np.random.default_rng(seed)
    shapes = [(n, m) for n in (0, 1, 2, 3, 5, 8) for m in (1, 2, 3)] * 2
    blocks = [
        PlanBlock(tuple(pool[i] for i in rng.integers(len(pool), size=m)), k, 0, tuple(range(n)))
        for k, (n, m) in enumerate(shapes[i] for i in rng.permutation(len(shapes)))
    ]
    assert any(body.reduced_phases is not None for block in blocks for body in block.bodies)
    return dataclasses.replace(compiled, trotter_steps=8, blocks=blocks, config=None)


STACKING_CASES = [(d, n, gap) for d in range(3, 7) for n in (8, 32) for gap in (False, True)]


class TestStackedPowering:
    @pytest.mark.parametrize(
        "d, steps, with_gap", STACKING_CASES,
        ids=[f"d{d}-N{n}{'-gap' if g else ''}" for d, n, g in STACKING_CASES],
    )
    def test_compiled_and_loaded_plans_realize_as_block_by_block(self, d, steps, with_gap):
        target = haar_random_unitary(d, 30 + d)
        plan = compile_unitary(
            target, trotter_steps=steps, gap=device_gap(d) if with_gap else None
        )
        loaded = ChipPlan.from_json(plan.to_json())
        for each in (plan, loaded):
            assert np.array_equal(each.realize(), per_block_product(each))
        assert plan.measured_error == operator_norm(target - per_block_product(plan))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mixed_block_shapes_realize_as_block_by_block(self, seed):
        plan = mixed_shape_plan(seed)
        realized = plan.realize()
        assert np.array_equal(realized, per_block_product(plan))
        loaded = planner._read_general(ChipPlan, plan.to_json())
        assert np.array_equal(loaded.realize(), realized)


def distinct_bodies(plan: ChipPlan) -> list[PlanSection]:
    return list({id(body): body for block in plan.blocks for body in block.bodies}.values())


def _compiled_case(d, steps, with_gap, loaded):
    def build():
        gap = device_gap(d) if with_gap else None
        plan = compile_unitary(haar_random_unitary(d, 40 + d), trotter_steps=steps, gap=gap)
        return ChipPlan.from_json(plan.to_json()) if loaded else plan
    return build


def _mixed_bodies_plan() -> ChipPlan:
    """``mixed_shape_plan``'s phased (gap, electrode) and non-uniform (drive)
    bodies, and one more block with a uniform body that has no phases."""
    plan = mixed_shape_plan(4)
    bare = PlanSection(kind="B", hamiltonian=uniform_section(3, 7.0, 2.0, 0.3))
    plan.blocks.append(PlanBlock((bare, plan.blocks[0].bodies[0]), 99, 0, (0, 1, 2)))
    return plan


def _voltage_chip():
    rng = np.random.default_rng(3)
    model = DeviceModel()
    volts = [VoltageSettings(rng.uniform(-15.0, 15.0, 5), rng.uniform(-15.0, 15.0, 4))
             for _ in range(3)]
    return volts, model


STACKED_EVOLUTION_CASES = {
    **{
        f"d{d}-N{n}{'-gap' if gap else ''}{'-loaded' if loaded else ''}":
            _compiled_case(d, n, gap, loaded)
        for d in range(2, 7) for n in (1, 8, 32) for gap in (False, True) for loaded in (False, True)
        if not (gap and d == 2)
    },
    "mixed-bodies": _mixed_bodies_plan,
    "voltage-chip": _voltage_chip,
}


class TestStackedEvolution:
    @pytest.mark.parametrize("case", STACKED_EVOLUTION_CASES)
    def test_stacked_rows_match_single_section_evolution(self, case):
        built = STACKED_EVOLUTION_CASES[case]()
        if isinstance(built, ChipPlan):
            bodies = distinct_bodies(built)
            hamiltonians = [body.hamiltonian for body in bodies]
            phases = [body.reduced_phases for body in bodies]
            singles = [body.unitary() for body in bodies]
            realized, expected = built.realize(), per_block_product(built)
        else:
            hamiltonians = physical_sections(*built)
            phases = [None] * len(hamiltonians)
            singles = [h.unitary() for h in hamiltonians]
            realized = device_realize(*built)
            expected = np.eye(hamiltonians[0].dimension, dtype=complex)
            for h in hamiltonians:
                expected = single_section_unitary(h) @ expected
        if case == "mixed-bodies":
            kinds = {(p is not None, h.is_uniform()) for h, p in zip(hamiltonians, phases)}
            assert kinds == {(True, True), (False, False), (False, True)}
        stacked = section_unitaries(hamiltonians, phases)
        assert stacked.shape == (len(hamiltonians), *singles[0].shape)
        for row, h, p, single in zip(stacked, hamiltonians, phases, singles):
            reference = single_section_unitary(h, p)
            assert np.array_equal(row, reference)
            assert np.array_equal(single, reference)
        assert np.array_equal(realized, expected)

    def test_sections_of_two_dimensions_do_not_stack(self):
        with pytest.raises(ValueError, match="one mode count"):
            section_unitaries([uniform_section(3, 1.0, 1.0, 1.0), uniform_section(4, 1.0, 1.0, 1.0)])

    def test_reduced_phases_need_one_row_per_section(self):
        # a short list once left the rows past its end uninitialized
        h = uniform_section(3, 1.0, 1.0, 1.0)
        for phases in ([None], [None, None, None, None]):
            with pytest.raises(ValueError, match="reduced-phase rows for 3 sections"):
                section_unitaries([h, h, h], phases)


class TestSynthesisMemo:
    @staticmethod
    def count_syntheses(monkeypatch, synthesize=synthesize_su2) -> list[bytes]:
        calls = []

        def counted(matrix, length):
            calls.append(matrix.tobytes())
            return synthesize(matrix, length)

        monkeypatch.setattr(planner, "synthesize_su2", counted)
        return calls

    def test_each_distinct_factor_is_synthesized_once_per_call(self, monkeypatch):
        calls = self.count_syntheses(monkeypatch)
        target = haar_random_unitary(6, 11)
        ops = adjacent_expand(two_level_decompose(target), 6)
        distinct = {op.matrix.tobytes() for op in ops}
        plan = compile_unitary(target, trotter_steps=8)
        assert sorted(calls) == sorted(distinct)
        assert len(distinct) < len(ops) == 1 + max(block.factor_index for block in plan.blocks)
        # the memo lives for one call: the next call synthesizes every factor again
        again = compile_unitary(target, trotter_steps=8)
        assert sorted(calls) == sorted(2 * list(distinct))
        assert again.to_json() == plan.to_json()

    def test_an_infeasible_factor_raises_its_own_message(self, monkeypatch):
        bounds = ParameterBounds(kappa_max=600.0)
        target = haar_random_unitary(5, 2)
        ops = adjacent_expand(two_level_decompose(target), 5)
        messages = []
        for op in ops:
            try:
                synthesize_su2(op.matrix, L, bounds)
            except BoundsInfeasible as error:
                messages.append(str(error))
        assert messages and len(messages) < len(ops)
        calls = self.count_syntheses(
            monkeypatch, lambda matrix, length: synthesize_su2(matrix, length, bounds)
        )
        with pytest.raises(BoundsInfeasible) as raised:
            compile_unitary(target, trotter_steps=8)
        assert str(raised.value) == messages[0]
        assert len(calls) == len(set(calls))


class TestDriveMemo:
    @staticmethod
    def count_plans(monkeypatch) -> list[tuple]:
        """The (mode, section value) of every plan_trotter_pair call."""
        calls = []

        def counted(section, mode, config):
            calls.append((mode, section.betas.tobytes(), section.couplings.tobytes(),
                          section.length))
            return plan_trotter_pair(section, mode, config)

        monkeypatch.setattr(planner, "plan_trotter_pair", counted)
        return calls

    def test_each_distinct_mode_and_section_is_planned_once_per_call(self, monkeypatch):
        calls = self.count_plans(monkeypatch)
        target = clock(6)
        plan = compile_unitary(target, trotter_steps=8)
        distinct = {
            (op.mode, s.betas.tobytes(), s.couplings.tobytes(), s.length)
            for op in adjacent_expand(two_level_decompose(target), 6)
            for s in synthesize_su2(op.matrix, L)
        }
        assert sorted(calls) == sorted(distinct)
        assert len(distinct) < len(plan.blocks)
        # one drive object per distinct drive
        assert len({id(block.bodies[-1]) for block in plan.blocks}) == len(distinct)
        # the memo lives for one call: the next call plans every drive again
        compile_unitary(target, trotter_steps=8)
        assert len(calls) == 2 * len(distinct)

    def test_equal_sections_share_a_drive_only_at_one_mode(self, monkeypatch):
        calls = self.count_plans(monkeypatch)

        def equal_sections(matrix, length):
            # new objects with equal values for every op
            return [TridiagonalHamiltonian(np.array([3.0, 4.0]), np.array([5.0]), length)
                    for _ in range(2)]

        monkeypatch.setattr(planner, "synthesize_su2", equal_sections)
        target = dft(3)
        plan = compile_unitary(target, trotter_steps=2, measure=False)
        modes = [op.mode for op in adjacent_expand(two_level_decompose(target), 3)]
        assert sorted(set(modes)) == [1, 2] and len(modes) > 2
        assert sorted(mode for mode, *_ in calls) == [1, 2]
        drives = {}
        for block in plan.blocks:
            assert drives.setdefault(modes[block.factor_index], block.bodies[-1]) is block.bodies[-1]
        assert drives[1] is not drives[2]


def block_copies(payload, factor=0, su2=0) -> list[dict]:
    return [s for s in payload["sections"]
            if (s["provenance"]["factor_index"], s["provenance"]["su2_index"]) == (factor, su2)]


def _new_su2_index(copies):
    copies[5]["provenance"]["su2_index"] = 7


def _scaled_beta(copies):
    copies[5]["betas"][0] *= 1.5


def _dropped_recurrence(copies, payload):
    payload["sections"].remove(copies[4])


def _zero_signs(copies, flipped=4):
    for c in copies:
        if c["kind"] == "B":
            c["reduced_phases"][0] = -0.0 if c is copies[flipped] else 0.0


class TestRunGrouping:
    @pytest.mark.parametrize(
        "edit",
        [
            lambda copies, payload: _new_su2_index(copies),
            lambda copies, payload: _scaled_beta(copies),
            _dropped_recurrence,
            lambda copies, payload: _zero_signs(copies),
        ],
        ids=["provenance", "drive-body", "missing-body", "zero-sign"],
    )
    def test_changed_middle_copy_splits_the_run(self, edit):
        plan = compile_unitary(dft(3), trotter_steps=4)
        payload = json.loads(plan.to_json())
        copies = block_copies(payload)
        assert [c["kind"] for c in copies] == ["B", "A"] * 4
        edit(copies, payload)  # copies[4] and copies[5] are step 2 of 4
        text = json.dumps(payload, indent=2)
        loaded = ChipPlan.from_json(text)
        assert len(loaded.blocks) > len(plan.blocks)
        assert loaded.to_json() == text
        assert plan_summary(loaded) == plan_summary(general_load(text))
        assert [(s.kind, s.factor_index, s.su2_index, s.trotter_step) for s in loaded.sections] == [
            (s["kind"], *s["provenance"].values()) for s in payload["sections"]
        ]
        assert_near_flat(loaded, loaded.realize(), flat_product(loaded.sections, 3))

    def test_equal_int_literal_joins_its_block(self):
        # every drive copy of block (0, 0) holds the beta 1000.0, the step-2
        # copy as the int literal 1000: an equal value, so the same body
        payload = json.loads(compile_unitary(dft(3), trotter_steps=4).to_json())
        drives = [c for c in block_copies(payload) if c["kind"] == "A"]
        assert [c["provenance"]["trotter_step"] for c in drives] == [0, 1, 2, 3]
        for c in drives:
            c["betas"][0] = "@" if c is drives[2] else 1000.0
        text = json.dumps(payload, indent=2).replace('"@"', "1000")
        loaded = ChipPlan.from_json(text)
        assert loaded.blocks[0].trotter_steps == (0, 1, 2, 3)
        assert len(loaded.blocks) == 20
        drives[2]["betas"][0] = 1000.0
        assert plan_summary(loaded) == plan_summary(ChipPlan.from_json(json.dumps(payload)))

    def test_float_literals_load_to_the_default_parsers_bits(self):
        rows = [
            ["0.0", "-0.0", "5e-324"],
            ["-0.0", "0.0", "5e-324"],
            ["0.1", "1e-1", "2.2250738585072009e-308"],
            ["1e-1", "0.1", "2.2250738585072009e-308"],
        ]
        payload = json.loads(hand_built_plan().to_json())
        payload["sections"] = [
            {"kind": "B", "betas": [2.0] * 3, "couplings": [1.0] * 2, "length_m": 7.5,
             "provenance": {"factor_index": 0, "su2_index": 0, "trotter_step": step},
             "reduced_phases": f"@{step}"}
            for step in range(len(rows))
        ]
        text = json.dumps(payload, indent=2)
        for step, row in enumerate(rows):
            text = text.replace(f'"@{step}"', "[" + ", ".join(row) + "]")
        loaded = ChipPlan.from_json(text)
        expected = [np.array(s["reduced_phases"]).tobytes() for s in json.loads(text)["sections"]]
        assert [np.array(s.reduced_phases).tobytes() for s in loaded.sections] == expected
        # the signs of zero keep rows 0 and 1 apart; rows 2 and 3 hold the same bits
        assert [b.trotter_steps for b in loaded.blocks] == [(0,), (1,), (2, 3)]
        assert loaded.to_json() == json.dumps(json.loads(text), indent=2)


def edit_first_block(edit) -> str:
    """The text of the d=3 dft plan (N=4) with its first block edited:
    ``edit(copies)`` changes the payload of the block's sections, a
    recurrence and a drive for each of the 4 steps, and may put the string
    "@" where a literal goes; it returns that literal."""
    payload = json.loads(compile_unitary(dft(3), trotter_steps=4).to_json())
    copies = block_copies(payload)
    assert [c["kind"] for c in copies] == ["B", "A"] * 4
    literal = edit(copies)
    text = json.dumps(payload, indent=2)
    return text if literal is None else text.replace('"@"', literal)


def edit_step_two(edit) -> str:
    """``edit_first_block`` with ``edit(recurrence, drive)`` changing the
    two sections of step 2."""
    return edit_first_block(lambda copies: edit(copies[4], copies[5]))


def _drive_literal(literal, *path):
    """An edit that writes ``literal`` at ``path`` in the drive copy."""
    def edit(recurrence, drive):
        target = drive
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = "@"
        return literal
    return edit


def _reversed_keys(recurrence, drive):
    items = list(drive.items())
    drive.clear()
    drive.update(reversed(items))


NEAR_LAYOUT_EDITS = {
    "nan-beta": (_drive_literal("NaN", "betas", 0), "non-finite"),
    "negative-beta": (_drive_literal("-3.0", "betas", 1), "strictly positive"),
    "nan-phase": (lambda b, a: b["reduced_phases"].__setitem__(0, float("nan")), "finite numbers"),
    "step-float": (_drive_literal("1.0", "provenance", "trotter_step"), "provenance trotter_step"),
    "step-true": (_drive_literal("true", "provenance", "trotter_step"), "provenance trotter_step"),
    "step-leading-zero": (_drive_literal("01", "provenance", "trotter_step"), "Expecting"),
    "duplicate-step-key": (
        _drive_literal('2,\n        "trotter_step": 2', "provenance", "trotter_step"), None
    ),
    "duplicate-provenance-key": (
        _drive_literal('null,\n      "provenance": {"factor_index": 9, "su2_index": 9, '
                       '"trotter_step": 9}', "reduced_phases"),
        None,
    ),
    "extra-key": (lambda b, a: a.__setitem__("note", 1), None),
    "reordered-keys": (_reversed_keys, None),
    "int-beta": (_drive_literal("1000", "betas", 0), None),
    "true-beta": (_drive_literal("true", "betas", 0), "plan betas must be a list of numbers"),
    "string-length": (_drive_literal('"0.006"', "length_m"), "plan length_m must be a number"),
}


#: Edits of step 0 of the first block. The layout reader raises on each,
#: since step 0's text is not the text the writer gives its bodies.
FIRST_STEP_EDITS = {
    # the drive length L/N = 0.0015 m, as the writer never writes it
    "equal-length-literal": lambda copies: _drive_literal("1.5e-3", "length_m")(*copies[:2]),
    "reordered-keys": lambda copies: _reversed_keys(*copies[:2]),
    "zero-sign": lambda copies: _zero_signs(copies, flipped=0),
}


LAYOUT_STEPS = (1, 2, 8)
STRUCTURED_EDITS = 75


def assert_layout_load(plan: ChipPlan) -> None:
    """The layout reader loads ``plan.to_json()`` to ``plan``, and loads the
    text it writes back, without the general reader."""
    text = plan.to_json()
    expected = plan_summary(plan)
    with mock.patch("pwa_synth.planner._read_general", side_effect=AssertionError("general")):
        loaded = ChipPlan.from_json(text)
        assert plan_summary(loaded) == expected
        assert plan_summary(ChipPlan.from_json(loaded.to_json())) == expected


def structured_edit(plan: ChipPlan, rng) -> str:
    """The text of ``plan`` after one or two seeded edits: a section
    inserted, deleted or swapped with another, one provenance value changed,
    a provenance value relabelled in every section or the metadata's N
    changed. Each section is written as a block of its own, so the text is
    in the writer's layout."""
    sections = [
        [body, block.factor_index, block.su2_index, step]
        for block in plan.blocks for step in block.trotter_steps for body in block.bodies
    ]
    steps = plan.trotter_steps
    for _ in range(rng.integers(1, 3)):
        edit = rng.integers(6)
        i, j = rng.integers(len(sections), size=2)
        field = 1 + rng.integers(3)
        old, new = (None, 0, 1, 2, 3)[rng.integers(5)], (None, 0, 1, 2, 3)[rng.integers(5)]
        if edit == 0:
            sections.insert(j, list(sections[i]))
        elif edit == 1 and len(sections) > 1:
            del sections[i]
        elif edit == 2:
            sections[i], sections[j] = sections[j], sections[i]
        elif edit == 3:
            sections[i][field] = new
        elif edit == 4:
            for section in sections:
                if section[field] == old:
                    section[field] = new
        elif edit == 5:
            steps = int(rng.integers(1, 5))
    blocks = [PlanBlock((body,), factor, su2, (step,)) for body, factor, su2, step in sections]
    return dataclasses.replace(plan, trotter_steps=steps, blocks=blocks).to_json()


class TestLayoutReader:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: compile_unitary(dft(2)),
            lambda: compile_unitary(haar_random_unitary(4, 3), trotter_steps=8),
            lambda: compile_unitary(clock(3), trotter_steps=4, gap=device_gap(3)),
            lambda: compile_unitary(dft(6), trotter_steps=2),
            lambda: compile_unitary(np.eye(3), prune_identity=True),
            hand_built_plan,
            single_mode_plan,
        ],
        ids=["d2", "d4", "d3-gap", "d6", "empty", "hand-built", "d1"],
    )
    def test_canonical_text_parses_each_distinct_body_once(self, build, monkeypatch):
        plan = build()
        text = plan.to_json()
        calls = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda *a, **k: calls.append(a) or loads(*a, **k))
        loaded = ChipPlan.from_json(text)
        monkeypatch.undo()
        distinct = {entry[:1] + entry[2:] for entry in section_entries(plan.sections)}
        assert len(calls) <= len(distinct) + 1
        # equal bodies anywhere in the file share one object, and the general
        # reader shares them alike, whatever the layout of the text
        assert body_objects(loaded) == len(distinct)
        expected = plan_summary(loaded)
        assert plan_summary(general_load(text)) == expected
        for name, variant in reencodings(text).items():
            other = ChipPlan.from_json(variant)
            assert (name, body_objects(other)) == (name, len(distinct))
            assert plan_summary(other) == expected

    @pytest.mark.parametrize("edit, error", NEAR_LAYOUT_EDITS.values(), ids=NEAR_LAYOUT_EDITS)
    def test_near_layout_text_loads_as_the_general_reader_loads_it(self, edit, error):
        text = edit_step_two(edit)
        if error is None:
            loaded = plan_summary(ChipPlan.from_json(text))
            assert loaded == plan_summary(general_load(text))
            assert loaded[4] != text
            return
        with pytest.raises(ValueError, match=error) as expected:
            general_load(text)
        with pytest.raises(type(expected.value)) as caught:
            ChipPlan.from_json(text)
        assert str(caught.value) == str(expected.value)

    @pytest.mark.parametrize("edit", FIRST_STEP_EDITS.values(), ids=FIRST_STEP_EDITS)
    def test_first_step_edits_load_as_the_general_reader_loads_them(self, edit):
        text = edit_first_block(edit)
        with pytest.raises(ValueError, match="not laid out"):
            planner._read_layout(ChipPlan, text)
        assert plan_summary(ChipPlan.from_json(text)) == plan_summary(general_load(text))

    @pytest.mark.parametrize(
        "d, steps, with_gap",
        [(2, n, False) for n in LAYOUT_STEPS]
        + [(d, n, gap) for d in range(3, 7) for n in LAYOUT_STEPS for gap in (False, True)],
        ids=lambda value: str(value),
    )
    def test_compiled_plans_take_the_layout_reader(self, d, steps, with_gap):
        gap = device_gap(d) if with_gap else None
        plan = compile_unitary(haar_random_unitary(d, d), trotter_steps=steps, gap=gap)
        assert_layout_load(plan)

    def test_empty_pruned_plan_takes_the_layout_reader(self):
        plan = compile_unitary(np.eye(3), prune_identity=True)
        assert plan.blocks == []
        assert_layout_load(plan)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: compile_unitary(dft(2)),
            lambda: compile_unitary(clock(3), trotter_steps=2, gap=device_gap(3)),
            lambda: compile_unitary(dft(3), trotter_steps=3),
            lambda: compile_unitary(haar_random_unitary(4, 7), trotter_steps=1),
        ],
        ids=["d2", "d3-gap", "d3", "d4"],
    )
    def test_structured_edits_load_as_the_general_reader_loads_them(self, build):
        plan = build()
        rng = np.random.default_rng(20)
        accepted = 0
        for _ in range(STRUCTURED_EDITS):
            edited = structured_edit(plan, rng)
            try:
                expected = plan_summary(general_load(edited))
            except Exception as error:
                with pytest.raises(Exception) as caught:
                    ChipPlan.from_json(edited)
                assert (type(caught.value), str(caught.value)) == (type(error), str(error))
                continue
            assert plan_summary(ChipPlan.from_json(edited)) == expected
            try:
                planner._read_layout(ChipPlan, edited)
                accepted += 1
            except Exception:
                pass
        # some edits give back text the layout reader accepts (a section
        # swapped with an equal one, a value relabelled that no section
        # holds), most do not
        assert 0 < accepted < STRUCTURED_EDITS

    def test_a_repeated_block_loads_through_the_layout_reader(self):
        # both readers join the second copy's steps to the first's
        plan = compile_unitary(dft(3), trotter_steps=2)
        text = dataclasses.replace(plan, blocks=[plan.blocks[0], *plan.blocks]).to_json()
        loaded = planner._read_layout(ChipPlan, text)
        assert loaded.blocks[0].trotter_steps == (0, 1, 0, 1)
        assert len(loaded.blocks) == len(plan.blocks)
        assert plan_summary(loaded) == plan_summary(general_load(text))
        assert loaded.to_json() == text

    def test_a_huge_claimed_step_count_is_never_allocated(self):
        # N = 10^8 in the metadata, one step in the text: the config is
        # planned at that N (q = 2.3e21 certifies the exact eigenvalues), and
        # K grows with N
        plan = compile_unitary(dft(3), trotter_steps=1)
        config = TrotterConfig.plan(3, L, 10**8)
        assert config.q == 2326317944764069484905
        assert_exact_certificate(config.recurrence, 3, config.epsilon)
        plan = dataclasses.replace(
            plan, trotter_steps=10**8, section_budget=plan.section_budget * 10**8, config=config
        )
        text = plan.to_json()
        tracemalloc.start()
        try:
            loaded = ChipPlan.from_json(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.trotter_steps == 10**8
        assert plan_summary(loaded) == plan_summary(general_load(text))
        assert peak < 1e6

    def test_a_last_step_edit_loads_as_the_general_reader_loads_it(self):
        # one digit of the first block's last section: step 7 of the drive
        # becomes 9, so that block's text is not the one the writer gives it
        plan = compile_unitary(dft(3), trotter_steps=8)
        text = plan.to_json()
        mark = '"trotter_step": 7'
        at = [found.end() - 1 for found in re.finditer(mark, text)][len(plan.blocks[0].bodies) - 1]
        edited = text[:at] + "9" + text[at + 1:]
        with pytest.raises(ValueError, match="not laid out"):
            planner._read_layout(ChipPlan, edited)
        loaded = ChipPlan.from_json(edited)
        assert plan_summary(loaded) == plan_summary(general_load(edited))
        assert [b.trotter_steps for b in loaded.blocks[:3]] == [tuple(range(7)), (7,), (9,)]
        assert loaded.to_json() == edited

    def test_loading_peak_memory_is_a_fraction_of_the_text(self):
        text = compile_unitary(haar_random_unitary(4, 3), trotter_steps=32, measure=False).to_json()
        tracemalloc.start()
        try:
            ChipPlan.from_json(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * len(text)


class TestMetadataChecks:
    @pytest.mark.parametrize("layout", ["writer", "compact"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_certificate_must_be_the_configs_achieved_epsilon(self, d, layout):
        # a d=3 plan claiming a zero certificate, a d=2 plan (no config) any
        plan = compile_unitary(dft(d), trotter_steps=2)
        assert plan.epsilon_certificate == (None if d == 2 else plan.config.recurrence.epsilon)
        with pytest.raises(AttributeError):
            plan.epsilon_certificate = 0.0
        text = plan.to_json()
        claim = f'"epsilon_certificate": {json.dumps(plan.epsilon_certificate)}'
        assert text.count(claim) == 1
        edited = text.replace(claim, '"epsilon_certificate": 0.0')
        if layout == "compact":
            edited = json.dumps(json.loads(edited))
        readers = [ChipPlan.from_json, general_load]
        if layout == "writer":
            readers.append(lambda text: planner._read_layout(ChipPlan, text))
        for read in readers:
            with pytest.raises(ValueError, match="epsilon_certificate 0.0 is not its achieved"):
                read(edited)

    #: Edits of a value the config derives from j1, j2 and q, or of the
    #: certificate: the next integer or float, an int in place of a float,
    #: -0.0 in place of 0.0, and a bool.
    DERIVED_EDITS = {
        "epsilon-next": ("epsilon", lambda v: math.nextafter(v, 1.0)),
        "epsilon-true": ("epsilon", lambda v: True),
        "unit-int": ("recurrence_unit", lambda v: 1),
        "unit-true": ("recurrence_unit", lambda v: True),
        "numerator-next": ("numerators", lambda v: [v[0] + 1, *v[1:]]),
        "numerator-false": ("numerators", lambda v: [v[0], False, v[2]]),
        "residual-next": ("residuals", lambda v: [math.nextafter(v[0], 1.0), *v[1:]]),
        "residual-int": ("residuals", lambda v: [v[0], 0, v[2]]),
        "residual-negative-zero": ("residuals", lambda v: [v[0], -0.0, v[2]]),
        "achieved-next": ("achieved_epsilon", lambda v: math.nextafter(v, 0.0)),
        "achieved-true": ("achieved_epsilon", lambda v: True),
        "certificate-next": ("epsilon_certificate", lambda v: math.nextafter(v, 0.0)),
        "certificate-true": ("epsilon_certificate", lambda v: True),
    }

    @pytest.mark.parametrize("layout", ["writer", "compact"])
    @pytest.mark.parametrize("key, edit", DERIVED_EDITS.values(), ids=DERIVED_EDITS)
    def test_derived_values_must_be_what_the_writer_writes(self, key, edit, layout):
        payload = json.loads(compile_unitary(dft(3), trotter_steps=2).to_json())
        meta = payload["metadata"]
        holder = meta if key == "epsilon_certificate" else meta["config"]
        holder[key] = edit(holder[key])
        text = json.dumps(payload, indent=2) if layout == "writer" else json.dumps(payload)
        # the layout reader checks the metadata before the layout
        for read in (ChipPlan.from_json, general_load,
                     lambda text: planner._read_layout(ChipPlan, text)):
            with pytest.raises(ValueError, match=f"^plan {key} "):
                read(text)

    @pytest.mark.parametrize("n", [8, 32])
    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_planned_configs_reload_bit_for_bit(self, d, n):
        # the benchmark's cells, q of 1.0e15 at (6, 8) and 4.3e17 at (6, 32)
        # among them
        config = TrotterConfig.plan(d, L, n)
        text = ChipPlan(d, n, 4 * count_sections(d) * n, L, [], config=config).to_json()
        fields = marshal.dumps(
            (dataclasses.astuple(config), dataclasses.astuple(config.recurrence)), 2
        )
        for read in (ChipPlan.from_json, general_load):
            loaded = read(text)
            assert marshal.dumps(
                (dataclasses.astuple(loaded.config), dataclasses.astuple(loaded.config.recurrence)),
                2,
            ) == fields
            assert loaded.to_json() == text

    @pytest.mark.parametrize("layout", ["writer", "compact"])
    def test_a_compiled_plans_K_must_be_its_section_budget(self, layout):
        # d=3, N=2: K = 4 * count_sections(3) * 2 = 40; one less is rejected
        plan = compile_unitary(dft(3), trotter_steps=2)
        assert plan.section_budget == 40
        text = plan.to_json()
        assert text.count('"K": 40,') == 1
        edited = text.replace('"K": 40,', '"K": 39,')
        if layout == "compact":
            edited = json.dumps(json.loads(edited))
        readers = [ChipPlan.from_json, general_load]
        if layout == "writer":
            readers.append(lambda text: planner._read_layout(ChipPlan, text))
        for read in readers:
            with pytest.raises(ValueError, match=r"plan K 39 is not 4 \* count_sections\(d\) \* N = 40"):
                read(edited)

    @pytest.mark.parametrize("layout", ["writer", "compact"])
    def test_a_plan_without_a_config_keeps_K_free(self, layout):
        plan = compile_unitary(dft(2))
        assert plan.config is None
        text = plan.to_json()
        claim = f'"K": {plan.section_budget},'
        assert text.count(claim) == 1
        edited = text.replace(claim, '"K": 7,')
        if layout == "compact":
            edited = json.dumps(json.loads(edited))
        for read in (ChipPlan.from_json, general_load):
            assert read(edited).section_budget == 7

    def test_a_plan_without_a_schema_version_is_rejected(self):
        payload = json.loads(compile_unitary(dft(3), trotter_steps=2).to_json())
        del payload["schema_version"]
        for text in (json.dumps(payload, indent=2), json.dumps(payload)):
            for read in (ChipPlan.from_json, general_load):
                with pytest.raises(ValueError, match="unsupported plan schema None"):
                    read(text)
