"""Exact synthesis of 2x2 unitaries as at most four physical sections.

Every section is a 2-mode ``TridiagonalHamiltonian``

    [[beta_mean + detune, coupling], [coupling, beta_mean - detune]]

with strictly positive couplings and diagonal entries, the one section type
that the planner and the device use. A generic gate costs four sections:
Hadamard, a pure-coupling rotation, Hadamard, and a final rotation carrying
the gate's amplitude/phase structure. Diagonal (phase) gates need three
sections; the identity is two Hadamards. Free 2*pi windings of the diagonal
level and of the middle coupling are chosen to put every parameter inside
the caller's bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import TridiagonalHamiltonian, require_unitary

#: Input unitarity tolerance for parsing.
PARSE_ATOL = 1e-10
#: Gates with amplitude above this are routed to the phase-gate path.
ROTATION_AMPLITUDE_LIMIT = 1.0 - 1e-9
#: Angle comparisons mod 2*pi.
ANGLE_ATOL = 1e-12


class PhaseGateRequired(Exception):
    """Raised by rotation_section when the gate is (nearly) diagonal: the
    rotation form would need a vanishing coupling, which the hardware
    forbids. Callers must take the three-section phase-gate path."""


class BoundsInfeasible(ValueError):
    """No integer winding places a section's parameters inside the bounds.
    The message starts with the section's role: hadamard, coupler or rotation."""


def _wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    w = -((-a + np.pi) % (2.0 * np.pi) - np.pi)
    return float(w)


@dataclass(frozen=True)
class Su2GateParams:
    """Parameters of U = e^{i eta} [[r e^{i phi}, s e^{i delta}], [-s e^{-i delta}, r e^{-i phi}]]
    with s = sqrt(1 - r^2)."""

    amplitude: float    # r in [0, 1]
    top_phase: float    # phi
    off_phase: float    # delta (0 when the off-diagonal vanishes)
    global_phase: float # eta, branch (-pi/2, pi/2]

    @property
    def z_rotation(self) -> float:
        """xi = delta + pi/2; angle of the diagonal rotation factored off the gate."""
        return self.off_phase + np.pi / 2.0

    @property
    def rotation_phase(self) -> float:
        """zeta = -(phi + xi); phase of the residual rotation block."""
        return -(self.top_phase + self.z_rotation)

    @property
    def rotation_angle(self) -> float:
        """theta = arccos(r cos zeta), in (0, pi) whenever r < 1."""
        return float(np.arccos(np.clip(self.amplitude * np.cos(self.rotation_phase), -1.0, 1.0)))

    def reconstruct(self) -> np.ndarray:
        r = self.amplitude
        s = math.sqrt(max(0.0, 1.0 - r * r))
        inner = np.array(
            [
                [r * np.exp(1j * self.top_phase), s * np.exp(1j * self.off_phase)],
                [-s * np.exp(-1j * self.off_phase), r * np.exp(-1j * self.top_phase)],
            ]
        )
        return np.exp(1j * self.global_phase) * inner


def parse_su2(u) -> Su2GateParams:
    """Extract (r, phi, delta, eta) from a 2x2 unitary.

    eta = arg(det U)/2 on the branch (-pi/2, pi/2]; r = |U11|. Angles of
    vanishing entries are set to zero.
    """
    u = require_unitary(u, atol=PARSE_ATOL, what="gate")
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {u.shape}")
    eta = float(np.angle(np.linalg.det(u)) / 2.0)
    inner = u * np.exp(-1j * eta)
    r = min(1.0, float(abs(inner[0, 0])))
    phi = float(np.angle(inner[0, 0])) if r > 1e-12 else 0.0
    off = inner[0, 1]
    delta = float(np.angle(off)) if abs(off) > 1e-12 else 0.0
    return Su2GateParams(amplitude=r, top_phase=phi, off_phase=delta, global_phase=eta)


@dataclass(frozen=True)
class ParameterBounds:
    """Admissible windows for section parameters. Lower bounds are strict
    (positivity is a hard hardware constraint); upper bounds are inclusive."""

    beta_min: float = 0.0
    beta_max: float = math.inf
    kappa_min: float = 0.0
    kappa_max: float = math.inf

    def __post_init__(self):
        if not self.beta_min < self.beta_max:
            raise ValueError("empty beta window")
        if not self.kappa_min < self.kappa_max:
            raise ValueError("empty kappa window")
        if self.beta_min < 0.0 or self.kappa_min < 0.0:
            raise ValueError("lower bounds below zero would violate positivity")


def _require_length(length: float):
    if not (math.isfinite(length) and length > 0.0):
        raise ValueError(f"section length must be positive and finite, got {length!r}")


def _section(mean: float, detune: float, coupling: float, length: float) -> TridiagonalHamiltonian:
    """Levels mean +- detune coupled by ``coupling`` over ``length``."""
    return TridiagonalHamiltonian(
        betas=np.array([mean + detune, mean - detune]),
        couplings=np.array([coupling]),
        length=length,
    )


def _wind_mean_level(
    phase: float, half_span: float, length: float, bounds: ParameterBounds, role: str
) -> float:
    """(-phase + 2 pi k)/length for the smallest integer k that puts the
    levels +- half_span inside the beta window."""
    low = bounds.beta_min + half_span
    k = math.floor((low * length + phase) / (2.0 * math.pi)) + 1
    value = (-phase + 2.0 * math.pi * k) / length
    while not value - half_span > bounds.beta_min:  # guard against rounding at the boundary
        k += 1
        value = (-phase + 2.0 * math.pi * k) / length
    if value + half_span > bounds.beta_max:
        raise BoundsInfeasible(
            f"{role}: no 2*pi winding places the diagonal levels inside "
            f"({bounds.beta_min:g}, {bounds.beta_max:g}]"
        )
    return value


def _wind_coupling(angle: float, length: float, bounds: ParameterBounds, role: str) -> float:
    """(angle + 2 pi l)/length for the smallest integer l that puts it inside the kappa window."""
    l = math.floor((bounds.kappa_min * length - angle) / (2.0 * math.pi)) + 1
    value = (angle + 2.0 * math.pi * l) / length
    while not value > bounds.kappa_min:
        l += 1
        value = (angle + 2.0 * math.pi * l) / length
    if value > bounds.kappa_max:
        raise BoundsInfeasible(
            f"{role}: no 2*pi winding places the coupling inside "
            f"({bounds.kappa_min:g}, {bounds.kappa_max:g}]"
        )
    return value


def hadamard_section(
    length: float, bounds: ParameterBounds | None = None
) -> TridiagonalHamiltonian:
    """Single section realizing the Hadamard gate exactly:
    detune = coupling = pi/(2 sqrt(2) L), mean level set so e^{-i beta L} = e^{i pi/2}."""
    _require_length(length)
    bounds = bounds or ParameterBounds()
    half = np.pi / (2.0 * np.sqrt(2.0) * length)
    if not bounds.kappa_min < half <= bounds.kappa_max:
        raise BoundsInfeasible(f"hadamard: fixed coupling {half:g} outside the kappa window")
    mean = _wind_mean_level(np.pi / 2.0, half, length, bounds, "hadamard")
    return _section(mean, half, half, length)


def _coupler_section(
    xi: float, folded_phase: float, length: float, bounds: ParameterBounds
) -> TridiagonalHamiltonian:
    """Pure-coupling section: e^{i folded_phase} Rx(xi) with Rx(xi) = e^{-i xi sigma_x}."""
    kappa = _wind_coupling(xi, length, bounds, "coupler")
    mean = _wind_mean_level(folded_phase, 0.0, length, bounds, "coupler")
    return _section(mean, 0.0, kappa, length)


def rotation_section(
    params: Su2GateParams, length: float, bounds: ParameterBounds | None = None
) -> TridiagonalHamiltonian:
    """Section realizing e^{i eta} R(r, zeta, pi/2) exactly.

    coupling = sqrt(1-r^2) theta / (L sin theta) and
    detune = r sin(zeta) coupling / sqrt(1-r^2); both follow from matching
    the axis-angle form of e^{-iHL} entry by entry. Raises PhaseGateRequired
    when r is too close to 1 for a strictly positive coupling.
    """
    _require_length(length)
    bounds = bounds or ParameterBounds()
    r = params.amplitude
    if r >= ROTATION_AMPLITUDE_LIMIT:
        raise PhaseGateRequired(
            f"amplitude {r!r} too close to 1; use the three-section phase-gate path"
        )
    theta = params.rotation_angle
    root = math.sqrt(1.0 - r * r)
    coupling = root * theta / (length * math.sin(theta))
    detune = r * math.sin(params.rotation_phase) * coupling / root
    if not bounds.kappa_min < coupling <= bounds.kappa_max:
        raise BoundsInfeasible(f"rotation: fixed coupling {coupling:g} outside the kappa window")
    mean = _wind_mean_level(params.global_phase, abs(detune), length, bounds, "rotation")
    return _section(mean, detune, coupling, length)


def synthesize_su2(
    u, length: float, bounds: ParameterBounds | None = None
) -> list[TridiagonalHamiltonian]:
    """Synthesize a 2x2 unitary as <= 4 sections, exact including global phase.

    Returned sections are 2-mode Hamiltonians in physical order (first
    applied first); the reverse-order product of their unitaries equals
    ``u``. Generic gates take [Hadamard, coupler(xi), Hadamard, rotation];
    diagonal gates take [Hadamard, coupler, Hadamard] with the global phase
    folded into the middle section; the identity takes two Hadamards. Both
    Hadamard slots hold the same object.
    """
    bounds = bounds or ParameterBounds()
    params = parse_su2(u)
    hadamard = hadamard_section(length, bounds)
    if params.amplitude >= ROTATION_AMPLITUDE_LIMIT:
        xi = _wrap_angle(-params.top_phase)
        eta = params.global_phase
        if abs(xi) <= ANGLE_ATOL and abs(eta) <= ANGLE_ATOL:
            return [hadamard, hadamard]
        return [hadamard, _coupler_section(xi, eta, length, bounds), hadamard]
    return [
        hadamard,
        _coupler_section(_wrap_angle(params.z_rotation), 0.0, length, bounds),
        hadamard,
        rotation_section(params, length, bounds),
    ]
