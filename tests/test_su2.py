import numpy as np
import pytest

from pwa_synth import (
    BoundsInfeasible,
    ParameterBounds,
    PhaseGateRequired,
    haar_random_unitary,
    operator_norm,
    parse_su2,
    realize,
    rotation_section,
    synthesize_su2,
)
from pwa_synth.su2 import Su2GateParams, hadamard_section

L = 6e-3


def levels(section):
    """(mean level, detune, coupling) of a 2-mode section."""
    top, bottom = section.betas
    return (top + bottom) / 2.0, (top - bottom) / 2.0, section.couplings[0]


def same_section(a, b):
    return (
        np.array_equal(a.betas, b.betas)
        and np.array_equal(a.couplings, b.couplings)
        and a.length == b.length
    )


class TestParseSu2:
    def test_identity(self):
        p = parse_su2(np.eye(2))
        assert p.amplitude == pytest.approx(1.0)
        assert p.top_phase == 0.0
        assert p.off_phase == 0.0
        assert p.global_phase == pytest.approx(0.0)

    def test_pauli_x(self, pauli_x):
        p = parse_su2(pauli_x)
        assert p.amplitude == pytest.approx(0.0, abs=1e-12)
        assert p.global_phase == pytest.approx(np.pi / 2.0)
        assert p.off_phase == pytest.approx(-np.pi / 2.0)
        assert operator_norm(p.reconstruct() - pauli_x) <= 1e-12

    def test_hadamard(self, hadamard_matrix):
        p = parse_su2(hadamard_matrix)
        assert p.amplitude == pytest.approx(1.0 / np.sqrt(2.0))
        assert operator_norm(p.reconstruct() - hadamard_matrix) <= 1e-12

    @pytest.mark.parametrize("seed", range(25))
    def test_round_trip(self, seed):
        u = haar_random_unitary(2, seed)
        p = parse_su2(u)
        assert operator_norm(p.reconstruct() - u) <= 1e-12
        assert -np.pi / 2.0 < p.global_phase <= np.pi / 2.0
        assert p.amplitude == pytest.approx(abs(u[0, 0]), abs=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            parse_su2(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestRotationSection:
    def test_hadamard_parameters(self, hadamard_matrix):
        p = parse_su2(hadamard_matrix)
        sec = rotation_section(p, L)
        mean, detune, coupling = levels(sec)
        expected = np.pi / (2.0 * np.sqrt(2.0) * L)
        assert coupling == pytest.approx(expected, rel=1e-12)
        assert detune == pytest.approx(expected, rel=1e-12)
        # mean level realizes the pi/2 global phase: beta*L = -pi/2 mod 2pi
        phase = (mean * L) % (2.0 * np.pi)
        assert phase == pytest.approx(2.0 * np.pi - np.pi / 2.0, abs=1e-9)
        assert operator_norm(sec.unitary() - hadamard_matrix) <= 1e-10

    def test_amplitude_zero(self):
        # r = 0: quarter rotation, no detuning
        p = Su2GateParams(amplitude=0.0, top_phase=0.0, off_phase=-np.pi / 2, global_phase=0.3)
        sec = rotation_section(p, L)
        _, detune, coupling = levels(sec)
        assert p.rotation_angle == pytest.approx(np.pi / 2.0)
        assert coupling == pytest.approx(np.pi / (2.0 * L), rel=1e-12)
        assert detune == pytest.approx(0.0, abs=1e-12)

    def test_matches_rotation_block(self):
        # e^{i eta} R(r, zeta, pi/2) for (r, zeta, eta) = (0.6, 0.3, 1.1)
        r, zeta, eta = 0.6, 0.3, 1.1
        xi = 0.0
        p = Su2GateParams(
            amplitude=r, top_phase=-(zeta + xi), off_phase=xi - np.pi / 2.0, global_phase=eta
        )
        assert p.rotation_phase == pytest.approx(zeta)
        sec = rotation_section(p, L)
        s = np.sqrt(1.0 - r * r)
        target = np.exp(1j * eta) * np.array(
            [[r * np.exp(-1j * zeta), -1j * s], [-1j * s, r * np.exp(1j * zeta)]]
        )
        assert operator_norm(sec.unitary() - target) <= 1e-10
        assert sec.couplings[0] > 0.0

    def test_phase_gate_raises(self):
        p = Su2GateParams(amplitude=1.0, top_phase=0.4, off_phase=0.0, global_phase=0.0)
        with pytest.raises(PhaseGateRequired):
            rotation_section(p, L)


class TestSynthesizeSu2:
    def test_phase_gate_three_sections(self):
        xi = 0.4
        u = np.diag([np.exp(-1j * xi), np.exp(1j * xi)])
        sections = synthesize_su2(u, L)
        assert len(sections) == 3
        assert sections[0] is sections[2]
        assert same_section(sections[0], hadamard_section(L))
        middle = sections[1]
        assert middle.couplings[0] == pytest.approx(xi / L, rel=1e-12)
        assert middle.betas[0] == middle.betas[1]  # a pure coupler has equal levels
        assert operator_norm(realize(sections) - u) <= 1e-10

    def test_identity_two_hadamards(self):
        sections = synthesize_su2(np.eye(2), L)
        assert len(sections) == 2
        assert all(same_section(s, hadamard_section(L)) for s in sections)
        assert operator_norm(realize(sections) - np.eye(2)) <= 1e-10

    def test_haar_four_sections(self):
        u = haar_random_unitary(2, 3)
        sections = synthesize_su2(u, L)
        assert len(sections) == 4
        assert same_section(sections[3], rotation_section(parse_su2(u), L))
        assert sections[1].betas[0] == sections[1].betas[1]
        assert operator_norm(realize(sections) - u) <= 1e-10

    def test_hadamard_sections_match_table_columns(self):
        # sections 1 and 3 of any synthesis are the same Hadamard section
        u = haar_random_unitary(2, 8)
        sections = synthesize_su2(u, L)
        assert sections[0] is sections[2]
        assert same_section(sections[0], hadamard_section(L))
        _, detune, coupling = levels(sections[0])
        expected = np.pi / (2.0 * np.sqrt(2.0) * L)
        assert coupling == pytest.approx(expected, rel=1e-12)
        assert detune == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", range(30))
    def test_positivity_always_holds(self, seed):
        sections = synthesize_su2(haar_random_unitary(2, seed), L)
        for s in sections:
            assert s.dimension == 2
            assert s.length == L
            assert s.couplings[0] > 0.0
            assert np.all(s.betas > 0.0)

    @pytest.mark.parametrize(
        "u_builder",
        [
            lambda: np.eye(2, dtype=complex),
            lambda: -np.eye(2, dtype=complex),
            lambda: np.exp(0.3j) * np.eye(2, dtype=complex),
            lambda: np.array([[0, 1], [1, 0]], dtype=complex),
            lambda: np.diag([np.exp(0.9j), np.exp(-0.9j)]),
        ],
    )
    def test_special_gates_exact(self, u_builder):
        u = u_builder()
        sections = synthesize_su2(u, L)
        assert len(sections) <= 4
        assert operator_norm(realize(sections) - u) <= 1e-10

    def test_bounds_respected_and_infeasible(self):
        bounds = ParameterBounds(beta_min=100.0, beta_max=5000.0, kappa_min=0.0, kappa_max=1e4)
        sections = synthesize_su2(haar_random_unitary(2, 5), L, bounds)
        for s in sections:
            assert 100.0 < s.betas.min() and s.betas.max() <= 5000.0
        tight = ParameterBounds(beta_min=0.0, beta_max=10.0)
        with pytest.raises(BoundsInfeasible):
            synthesize_su2(haar_random_unitary(2, 5), L, tight)

    def test_kappa_bounds_infeasible_for_fixed_hadamard_coupling(self):
        bounds = ParameterBounds(kappa_min=0.0, kappa_max=1.0)
        with pytest.raises(BoundsInfeasible, match="^hadamard: "):
            hadamard_section(L, bounds)

    @pytest.mark.parametrize(
        "seed, bounds, message",
        [
            (0, ParameterBounds(kappa_min=150.0, kappa_max=200.0),
             r"coupler: coupling outside \(150, 200\] for every 2\*pi winding"),
            (0, ParameterBounds(beta_max=1000.0),
             r"coupler: diagonal levels outside \(0, 1000\] for every 2\*pi winding"),
            (0, ParameterBounds(beta_max=1100.0),
             r"rotation: diagonal levels outside \(0, 1100\] for every 2\*pi winding"),
            (5, ParameterBounds(kappa_min=150.0, kappa_max=200.0),
             r"rotation: coupling 268\.896 outside \(150, 200\]"),
        ],
        ids=["coupler-coupling", "coupler-levels", "rotation-levels", "rotation-coupling"],
    )
    def test_bounds_failure_names_role_and_window(self, seed, bounds, message):
        with pytest.raises(BoundsInfeasible, match=f"^{message}$"):
            synthesize_su2(haar_random_unitary(2, seed), L, bounds)

    def test_rejects_bad_length(self):
        params = parse_su2(haar_random_unitary(2, 5))
        for build in (
            lambda length: synthesize_su2(np.eye(2), length),
            hadamard_section,
            lambda length: rotation_section(params, length),
        ):
            for length in (0.0, -L, np.nan, np.inf):
                with pytest.raises(ValueError, match="section length must be positive and finite"):
                    build(length)
