import collections
import copy
import dataclasses
import json

import numpy as np
import pytest

from pwa_synth import (
    ChipPlan,
    DeviceModel,
    GapInfeasible,
    TridiagonalHamiltonian,
    TrotterConfig,
    adjacent_expand,
    clock,
    compile_unitary,
    dft,
    expm_hermitian,
    gap_compensate,
    haar_random_unitary,
    operator_norm,
    PlanError,
    PlanSection,
    plan_trotter_pair,
    synthesize_su2,
    two_level_decompose,
)

from conftest import taylor_expm

L = 6e-3


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
        # a plan file's epsilon goes through the same constructor
        with pytest.raises(ValueError, match="budget"):
            dataclasses.replace(cfg, epsilon=10.0 * budget)
        for bad in (float("nan"), float("inf"), 0.0, -budget):
            with pytest.raises(ValueError, match="positive and finite"):
                dataclasses.replace(cfg, epsilon=bad)

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
        with pytest.raises(ValueError, match="j2 must be an integer, got 1.5"):
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
        dimension=3, trotter_steps=1, section_budget=7, section_length=1e-3, sections=sections
    )


def single_mode_plan() -> ChipPlan:
    section = PlanSection("A", TridiagonalHamiltonian(betas=[4.0], couplings=[], length=0.5))
    return ChipPlan(
        dimension=1, trotter_steps=1, section_budget=1, section_length=0.5, sections=[section],
        measured_error=0.0, target_name="identity",
    )


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

    @pytest.mark.parametrize(
        "kind, tamper, match",
        [
            ("A", lambda s: s["betas"].__setitem__(0, 0.0), "strictly positive"),
            ("A", lambda s: s["betas"].__setitem__(1, -3.0), "strictly positive"),
            ("B", lambda s: s["couplings"].append(1.0), "couplings"),
            ("A", lambda s: s.__setitem__("reduced_phases", [0.0, 0.0, 0.0]), "uniform"),
            ("B", lambda s: s.__setitem__("kind", "C"), "kind"),
        ],
        ids=["zero-beta", "negative-beta", "coupling-count", "phases-on-drive", "kind"],
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
        payload = json.loads(compile_unitary(dft(3), trotter_steps=2).to_json())
        payload["sections"][-1]["provenance"].update(provenance)
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
            loaded, sections=[copy.deepcopy(s) for s in loaded.sections]
        )
        assert len({id(s.hamiltonian) for s in loaded.sections}) < len(loaded.sections)
        assert len({id(s.hamiltonian) for s in unshared.sections}) == len(unshared.sections)
        realized = loaded.realize()
        assert np.array_equal(realized, unshared.realize())
        assert np.array_equal(realized, plan.realize())
