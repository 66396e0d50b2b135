"""Voltage-controlled device model and chip simulator.

The proton-exchanged lithium-niobate model is linear in the applied voltages:

    beta_m    = (2 pi / lambda) n0 (1 + (dn/n0) dV_m)
    C_{m,m+1} = C0 + dC dV_{m,m+1}

with every |dV| bounded by V_max. A chip is a cascade of voltage sections of
length L separated by zero-voltage gaps; the simulator realizes the cascade
unitary, resolves the state along the propagation axis, and provides the
first-order interaction-picture expansion used to explain why single-section
unitaries stay nearly tridiagonal.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import TridiagonalHamiltonian, reduce_phases
from .planner import ChipPlan


@dataclass(frozen=True)
class DeviceModel:
    """Lithium-niobate constants mapping voltages to Hamiltonians."""

    wavelength: float = 808e-9            # m
    base_index: float = 2.713             # refractive index at zero voltage
    index_shift_per_volt: float = 5e-6    # 1/V
    base_coupling: float = 100.0          # 1/m
    coupling_shift_per_volt: float = 1.4  # 1/(m V)
    max_voltage: float = 15.0             # V
    section_length: float = 6e-3          # m
    gap_length: float = 6e-4              # m, 0.1 L

    def __post_init__(self):
        values = (
            self.wavelength,
            self.base_index,
            self.index_shift_per_volt,
            self.base_coupling,
            self.coupling_shift_per_volt,
            self.max_voltage,
            self.section_length,
            self.gap_length,
        )
        if any(not (math.isfinite(v) and v > 0.0) for v in values):
            raise ValueError("device constants must all be positive and finite")
        if self.gap_length >= self.section_length:
            raise ValueError("gap must be shorter than a section")

    @property
    def beta_zero(self) -> float:
        """Zero-voltage propagation constant 2 pi n0 / lambda (~2.11e7 1/m)."""
        return 2.0 * math.pi * self.base_index / self.wavelength

    @property
    def beta_shift_per_volt(self) -> float:
        return 2.0 * math.pi * self.index_shift_per_volt / self.wavelength

    def zero_voltage_hamiltonian(self, d: int) -> TridiagonalHamiltonian:
        if d < 2:
            raise ValueError("need at least two modes")
        return TridiagonalHamiltonian(
            betas=np.full(d, self.beta_zero),
            couplings=np.full(d - 1, self.base_coupling),
            length=self.gap_length,
        )


@dataclass(frozen=True)
class VoltageSettings:
    """Per-section control voltages: d for the levels, d-1 for the couplings."""

    level_volts: np.ndarray
    coupling_volts: np.ndarray

    def __post_init__(self):
        levels = np.array(self.level_volts, dtype=float)
        couplings = np.array(self.coupling_volts, dtype=float)
        if levels.ndim != 1 or levels.size < 2:
            raise ValueError("need at least two level voltages")
        if couplings.shape != (levels.size - 1,):
            raise ValueError(
                f"expected {levels.size - 1} coupling voltages, got {couplings.shape}"
            )
        if not (np.all(np.isfinite(levels)) and np.all(np.isfinite(couplings))):
            raise ValueError("non-finite voltages")
        levels.flags.writeable = False
        couplings.flags.writeable = False
        object.__setattr__(self, "level_volts", levels)
        object.__setattr__(self, "coupling_volts", couplings)

    @property
    def dimension(self) -> int:
        return self.level_volts.size

    def require_in_range(self, model: DeviceModel) -> "VoltageSettings":
        worst = max(
            float(np.max(np.abs(self.level_volts))), float(np.max(np.abs(self.coupling_volts)))
        )
        if worst > model.max_voltage + 1e-12:
            raise ValueError(f"voltage {worst:g} V exceeds the +-{model.max_voltage:g} V range")
        return self


def hamiltonian_from_voltages(model: DeviceModel, volts: VoltageSettings) -> TridiagonalHamiltonian:
    """Affine voltage-to-Hamiltonian map; strictly positive for in-range voltages."""
    volts.require_in_range(model)
    betas = model.beta_zero + model.beta_shift_per_volt * volts.level_volts
    couplings = model.base_coupling + model.coupling_shift_per_volt * volts.coupling_volts
    return TridiagonalHamiltonian(betas=betas, couplings=couplings, length=model.section_length)


def chip_sections(chip, model: DeviceModel | None = None) -> list[TridiagonalHamiltonian]:
    """Normalize a plan / Hamiltonian list / voltage list into physical sections.

    Voltage lists become K sections of length L separated by K-1 zero-voltage
    gaps of length 0.1 L, the layout of the numerical experiments.
    """
    if isinstance(chip, ChipPlan):
        return [s.hamiltonian for s in chip.sections]
    chip = list(chip)
    if not chip:
        return []
    if all(isinstance(s, TridiagonalHamiltonian) for s in chip):
        return chip
    if all(isinstance(s, VoltageSettings) for s in chip):
        if model is None:
            raise ValueError("voltage-based chips need a DeviceModel")
        d = chip[0].dimension
        if any(s.dimension != d for s in chip):
            raise ValueError("all sections must share the same mode count")
        gap = model.zero_voltage_hamiltonian(d)
        sections: list[TridiagonalHamiltonian] = []
        for k, volts in enumerate(chip):
            if k:
                sections.append(gap)
            sections.append(hamiltonian_from_voltages(model, volts))
        return sections
    raise ValueError("chip must be a ChipPlan, TridiagonalHamiltonians, or VoltageSettings")


def realize(chip, model: DeviceModel | None = None) -> np.ndarray:
    """Cascade unitary, sections multiplied right to left in arrival order."""
    if isinstance(chip, ChipPlan):
        return chip.realize()
    sections = chip_sections(chip, model)
    if not sections:
        raise ValueError("cannot realize an empty chip with unknown dimension")
    u = np.eye(sections[0].dimension, dtype=complex)
    for section in sections:
        u = section.unitary() @ u
    return u


@dataclass(frozen=True)
class PropagationTrace:
    """State amplitudes sampled along the propagation axis."""

    z: np.ndarray
    amplitudes: np.ndarray
    probabilities: np.ndarray = field(init=False)

    def __post_init__(self):
        z = np.array(self.z, dtype=float)
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape[0] != z.size:
            raise ValueError("z grid and amplitude rows disagree")
        probs = np.abs(amps) ** 2
        z.flags.writeable = False
        amps.flags.writeable = False
        probs.flags.writeable = False
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "probabilities", probs)

    def to_csv(self) -> str:
        """Long-format CSV: z_m, mode_index, re, im, probability."""
        out = io.StringIO()
        out.write("z_m,mode_index,re,im,probability\n")
        d = self.amplitudes.shape[1]
        for i, z in enumerate(self.z):
            for m in range(d):
                a = self.amplitudes[i, m]
                out.write(
                    f"{z:.17g},{m},{a.real:.17g},{a.imag:.17g},{self.probabilities[i, m]:.17g}\n"
                )
        return out.getvalue()


def propagate(state0, chip, model: DeviceModel | None = None, dz: float = 1e-4) -> PropagationTrace:
    """Resolve the state along z through the section cascade.

    Sampling is exact within each constant-Hamiltonian section (the grid only
    controls where the evolution is evaluated, not its accuracy): the state
    is advanced in the section's eigenbasis with the same eigensystem and
    phase reduction as ``realize``, so the last sample agrees with the
    realized cascade to rounding. dz must not exceed the shortest section.
    """
    sections = chip_sections(chip, model)
    if not sections:
        raise ValueError("cannot propagate through an empty chip")
    d = sections[0].dimension
    state = np.asarray(state0, dtype=complex).reshape(-1)
    if state.size != d:
        raise ValueError(f"state has {state.size} modes, chip has {d}")
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"initial state norm {norm!r} is not 1")
    if not (np.isfinite(dz) and dz > 0.0):
        raise ValueError("dz must be positive")
    shortest = min(s.length for s in sections)
    if dz > shortest * (1.0 + 1e-12):
        raise ValueError(f"dz={dz:g} m exceeds the shortest section ({shortest:g} m)")
    total_steps = sum(int(np.ceil(s.length / dz - 1e-9)) for s in sections)
    if total_steps > 5_000_000:
        raise ValueError("dz too small for this chip: more than 5e6 sample points")

    zs = [0.0]
    amps = [state]
    z_offset = 0.0
    for section in sections:
        offset, w, v = section.eigensystem()
        local = v.conj().T @ state
        steps = int(np.ceil(section.length / dz - 1e-9))
        grid = np.minimum(dz * np.arange(1, steps + 1), section.length)
        grid[-1] = section.length
        phases = np.exp(-1j * reduce_phases(w, grid, offset))
        block = (v @ (phases * local).T).T
        amps.extend(block)
        zs.extend(z_offset + grid)
        z_offset += section.length
        state = block[-1]
    return PropagationTrace(z=np.array(zs), amplitudes=np.array(amps))


def dyson_first_order(betas, couplings, length: float) -> np.ndarray:
    """First-order interaction-picture expansion of a single section.

    Returns the tridiagonal matrix sum_m e^{-i beta_m L}|m><m|
    - i sum_k C_k (e^{-i beta_k L} f_k |k><k+1| + e^{-i beta_{k+1} L} f_k^* |k+1><k|)
    with f_k = L for degenerate levels and
    f_k = (e^{-i (beta_k - beta_{k+1}) L} - 1)/(-i (beta_k - beta_{k+1})) otherwise.
    """
    b = np.asarray(betas, dtype=float)
    c = np.asarray(couplings, dtype=float)
    if b.ndim != 1 or c.shape != (b.size - 1,):
        raise ValueError("betas and couplings have inconsistent shapes")
    if not (math.isfinite(length) and length > 0.0):
        raise ValueError("length must be positive")
    d = b.size
    diff = b[:-1] - b[1:]
    safe = np.where(diff == 0.0, 1.0, diff)
    f = np.where(
        diff == 0.0,
        complex(length),
        (np.exp(-1j * diff * length) - 1.0) / (-1j * safe),
    )
    diag_phase = np.exp(-1j * b * length)
    u = np.diag(diag_phase)
    for k in range(d - 1):
        u[k, k + 1] = -1j * c[k] * diag_phase[k] * f[k]
        u[k + 1, k] = -1j * c[k] * diag_phase[k + 1] * np.conj(f[k])
    return u
