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

from .linalg import TridiagonalHamiltonian, require_positive, require_unitary

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


def _wind(angle: float, length: float, half_span: float, low: float, high: float, what: str) -> float:
    """(angle + 2 pi k)/length for the smallest integer k that puts the value
    +- half_span inside (low, high]; ``what`` starts the error message."""
    k = math.floor(((low + half_span) * length - angle) / (2.0 * math.pi)) + 1
    value = (angle + 2.0 * math.pi * k) / length
    while not value - half_span > low:  # guard against rounding at the boundary
        k += 1
        value = (angle + 2.0 * math.pi * k) / length
    if value + half_span > high:
        raise BoundsInfeasible(f"{what} outside ({low:g}, {high:g}] for every 2*pi winding")
    return value


def _section(
    phase: float, detune: float, coupling: float, length: float, bounds: ParameterBounds, role: str
) -> TridiagonalHamiltonian:
    """Levels mean +- detune coupled by ``coupling`` over ``length``, with
    e^{-i mean L} = e^{i phase} and the mean wound into the beta window."""
    if not bounds.kappa_min < coupling <= bounds.kappa_max:
        raise BoundsInfeasible(
            f"{role}: coupling {coupling:g} outside ({bounds.kappa_min:g}, {bounds.kappa_max:g}]"
        )
    mean = _wind(
        -phase, length, abs(detune), bounds.beta_min, bounds.beta_max, f"{role}: diagonal levels"
    )
    return TridiagonalHamiltonian(
        betas=np.array([mean + detune, mean - detune]),
        couplings=np.array([coupling]),
        length=length,
    )


def hadamard_section(
    length: float, bounds: ParameterBounds | None = None
) -> TridiagonalHamiltonian:
    """Single section realizing the Hadamard gate exactly:
    detune = coupling = pi/(2 sqrt(2) L), mean level set so e^{-i beta L} = e^{i pi/2}."""
    require_positive(length, "section length")
    half = np.pi / (2.0 * np.sqrt(2.0) * length)
    return _section(np.pi / 2.0, half, half, length, bounds or ParameterBounds(), "hadamard")


def rotation_section(
    params: Su2GateParams, length: float, bounds: ParameterBounds | None = None
) -> TridiagonalHamiltonian:
    """Section realizing e^{i eta} R(r, zeta, pi/2) exactly.

    coupling = sqrt(1-r^2) theta / (L sin theta) and
    detune = r sin(zeta) coupling / sqrt(1-r^2); both follow from matching
    the axis-angle form of e^{-iHL} entry by entry. Raises PhaseGateRequired
    when r is too close to 1 for a strictly positive coupling.
    """
    require_positive(length, "section length")
    r = params.amplitude
    if r >= ROTATION_AMPLITUDE_LIMIT:
        raise PhaseGateRequired(
            f"amplitude {r!r} too close to 1; use the three-section phase-gate path"
        )
    theta = params.rotation_angle
    root = math.sqrt(1.0 - r * r)
    coupling = root * theta / (length * math.sin(theta))
    detune = r * math.sin(params.rotation_phase) * coupling / root
    return _section(
        params.global_phase, detune, coupling, length, bounds or ParameterBounds(), "rotation"
    )


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
    rotation = params.amplitude < ROTATION_AMPLITUDE_LIMIT
    if rotation:
        xi, phase = _wrap_angle(params.z_rotation), 0.0
    else:
        xi, phase = _wrap_angle(-params.top_phase), params.global_phase
        if abs(xi) <= ANGLE_ATOL and abs(phase) <= ANGLE_ATOL:
            return [hadamard, hadamard]
    # The coupler Rx(xi) = e^{-i xi sigma_x} winds its coupling instead of a fixed one.
    kappa = _wind(xi, length, 0.0, bounds.kappa_min, bounds.kappa_max, "coupler: coupling")
    sections = [hadamard, _section(phase, 0.0, kappa, length, bounds, "coupler"), hadamard]
    if rotation:
        sections.append(rotation_section(params, length, bounds))
    return sections
