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

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import TridiagonalHamiltonian, reduce_phases
from .planner import ChipPlan

# Samples formatted per block by ``PropagationTrace.to_csv``. The block, not
# the trace length, bounds the temporary Python objects (about 1.5 MB at
# d = 8); blocks of a few hundred samples fragmented the malloc heap and
# raised peak RSS by 1-2 MB on 1000-sample traces.
_CSV_CHUNK = 1024


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


def _read_only(values, dtype) -> np.ndarray:
    """``values`` as a read-only array of ``dtype``. A read-only array that
    owns its data, as ``propagate`` hands over, is kept; anything else is
    copied, so a caller's array is neither shared nor frozen."""
    if (type(values) is np.ndarray and values.dtype == dtype and values.base is None
            and not values.flags.writeable):
        return values
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PropagationTrace:
    """State amplitudes sampled along the propagation axis."""

    z: np.ndarray
    amplitudes: np.ndarray
    probabilities: np.ndarray = field(init=False)

    def __post_init__(self):
        z = _read_only(self.z, float)
        amps = _read_only(self.amplitudes, complex)
        if z.ndim != 1 or amps.ndim != 2 or amps.shape[0] != z.size or amps.shape[1] < 1:
            raise ValueError(
                f"z must be 1-D and amplitudes (z.size, d) with d >= 1, "
                f"got shapes {z.shape} and {amps.shape}"
            )
        probs = np.abs(amps)
        np.square(probs, out=probs)
        probs.flags.writeable = False
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "probabilities", probs)

    def to_csv(self) -> str:
        """Long-format CSV: z_m, mode_index, re, im, probability.

        Rows are grouped by sample, then by mode index; floats are written
        as ``%.17g``. Each block of samples is filled into a repeated row
        template by one ``%``, with z formatted once per sample.
        """
        n, d = self.amplitudes.shape
        template = "".join(f"%s,{m},%.17g,%.17g,%.17g\n" for m in range(d))
        parts = ["z_m,mode_index,re,im,probability\n"]
        for start in range(0, n, _CSV_CHUNK):
            rows = slice(start, start + _CSV_CHUNK)
            amps = self.amplitudes[rows]
            block = np.empty((len(amps), d, 4), dtype=object)
            zs = ["%.17g" % z for z in self.z[rows].tolist()]
            block[:, :, 0] = np.array(zs, dtype=object)[:, None]
            block[:, :, 1:] = np.stack([amps.real, amps.imag, self.probabilities[rows]], axis=-1)
            parts.append(template * len(amps) % tuple(block.ravel().tolist()))
        return "".join(parts)


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
    steps = [int(np.ceil(s.length / dz - 1e-9)) for s in sections]
    if sum(steps) > 5_000_000:
        raise ValueError("dz too small for this chip: more than 5e6 sample points")

    zs = np.empty(1 + sum(steps))
    amps = np.empty((zs.size, d), dtype=complex)
    zs[0], amps[0] = 0.0, state
    row, z_offset = 1, 0.0
    for section, count in zip(sections, steps):
        offset, w, v = section.eigensystem()
        local = v.conj().T @ state
        grid = np.minimum(dz * np.arange(1, count + 1), section.length)
        grid[-1] = section.length
        phases = np.exp(-1j * reduce_phases(w, grid, offset))
        block = (v @ (phases * local).T).T
        amps[row:row + count] = block
        zs[row:row + count] = z_offset + grid
        row += count
        z_offset += section.length
        # the next section reads the block's own (strided) row: a contiguous
        # copy of it takes another BLAS path and changes the last bit
        state = block[-1]
    # read-only arrays that own their data pass into the trace uncopied
    zs.flags.writeable = amps.flags.writeable = False
    return PropagationTrace(z=zs, amplitudes=amps)


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
