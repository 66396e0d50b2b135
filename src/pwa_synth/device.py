"""Voltage-controlled device model and chip simulator.

The proton-exchanged lithium-niobate model is linear in the applied voltages:

    beta_m    = (2 pi / lambda) n0 (1 + (dn/n0) dV_m)
    C_{m,m+1} = C0 + dC dV_{m,m+1}

with every |dV| bounded by V_max. A chip is a cascade of voltage sections of
length L separated by zero-voltage gaps; the simulator realizes the cascade
unitary, resolves the state along the propagation axis, and provides the
first-order interaction-picture expansion used to explain why single-section
unitaries stay nearly tridiagonal.

Every chip lowers to one cascade form, run-length plan blocks
(``chip_sections``), a voltage chip to one block with one shared gap body;
``realize`` and ``propagate`` read only that form. ``propagate`` samples
inside recurrence and gap sections from their float length, and ends each
section that carries ``reduced_phases`` on them, as ``realize`` does.
"""

from __future__ import annotations

import collections
import io
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .linalg import (
    TridiagonalHamiltonian,
    reduce_phases,
    require_count,
    require_positive,
    section_eigensystems,
)
from .planner import SECTION_A, SECTION_GAP, ChipPlan, PlanBlock, PlanSection, cascade_unitary

# Rows (one sample and one mode each) formatted per block by
# ``PropagationTrace.write_csv``. The block, not the trace length, bounds the
# row buffer (128 bytes a row up to 100 modes), the block's word array (32
# bytes a float) and the kernel's temporaries (about 90 bytes a float). On
# the 33 voltage traces of the simulate benchmark at seed 1 (up to 961
# samples, d = 3..8), the writer took 91 ms at 1024 rows, 83 ms at 2048 and
# 81-83 ms at 4096 (minimum of 15 passes), and the benchmark's peak RSS read
# 47.05-47.11, 46.76-46.99 and 47.31-47.33 MB (two runs each): 2048 rows
# is about as fast as larger blocks and no larger in memory than smaller
# ones.
_CSV_ROWS = 2048


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
        for constant in fields(self):
            require_positive(getattr(self, constant.name), constant.name)
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
        require_count(d, "mode count", 2)
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


def chip_sections(chip, model: DeviceModel | None = None) -> tuple[int, list[PlanBlock]]:
    """A chip as (mode count, run-length ``PlanBlock``s). A plan gives its
    own. A list of Hamiltonians or of voltage settings becomes one block of
    one step (``trotter_steps == (None,)``) whose bodies are its sections in
    order; voltage lists give K sections of length L with one shared
    zero-voltage gap body of length 0.1 L between each pair, the layout of
    the numerical experiments. An empty list has no mode count.
    """
    if isinstance(chip, ChipPlan):
        return chip.dimension, chip.blocks
    chip = list(chip)
    if not chip:
        raise ValueError("an empty chip has no mode count")
    if all(isinstance(s, TridiagonalHamiltonian) for s in chip):
        bodies = [PlanSection(SECTION_A, h) for h in chip]
    elif all(isinstance(s, VoltageSettings) for s in chip):
        if model is None:
            raise ValueError("voltage-based chips need a DeviceModel")
        d = chip[0].dimension
        if any(s.dimension != d for s in chip):
            raise ValueError("all sections must share the same mode count")
        gap = PlanSection(SECTION_GAP, model.zero_voltage_hamiltonian(d))
        bodies = [gap] * (2 * len(chip) - 1)
        bodies[::2] = [PlanSection(SECTION_A, hamiltonian_from_voltages(model, v)) for v in chip]
    else:
        raise ValueError("chip must be a ChipPlan, TridiagonalHamiltonians, or VoltageSettings")
    return bodies[0].hamiltonian.dimension, [PlanBlock(tuple(bodies), None, None, (None,))]


def realize(chip, model: DeviceModel | None = None) -> np.ndarray:
    """Cascade unitary, sections multiplied right to left in arrival order:
    ``cascade_unitary`` of the chip's ``chip_sections``, as ``ChipPlan.realize``."""
    return cascade_unitary(*chip_sections(chip, model))


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


# ``PropagationTrace.write_csv`` formats a block's floats into a word array
# of one 8-word row per float: a slot of seven uint32 words (28 bytes) of
# text, then the word of the separator that follows the float in its CSV
# row, which the writer copies into its row buffer with the slot (z's slot
# is copied alone). A 0 byte is no byte (a stripped zero, a missing '.' or
# exponent, padding), and the bytes that remain, in order, are
# ``'%.17g' % x``:
#   words 0-1  sign, lead, '.', three leading zeros, first digit, (empty)
#   words 2-5  the 16 digits after the first, four to a word
#   word 6     'e', '-', two exponent digits
# ``_put_floats`` takes the digits of 2^-32 <= |x| < 10 from a float64
# estimate within 23 of the exact 17-digit quotient and one exact uint64
# correction; every other value (or one whose exponent it misjudged) is
# formatted by one ``%`` call of Python's, left-justified to the slot. The
# kernel keeps to a few numpy loops (float products, fmin and floor; uint64
# products, sums, shifts, comparisons and floor division; take, where and
# nonzero): each further loop a process runs maps about 64 KB more of
# numpy's code into memory.
_SLOT = 7
_U64 = np.uint64
_POW5 = np.array([5**s for s in range(28)], dtype=np.uint64)  # 5^27 < 2^63
_POW10 = np.array([float(f"1e{16 - k}") for k in range(-10, 2)])  # fl(10^(16 - k))
_E16, _E17 = _U64(10**16), _U64(10**17)  # the range of 17-digit quotients
_COMMA, _NEWLINE = np.frombuffer(b",\0\0\0\n\0\0\0", dtype=np.uint32)


def _digit_words() -> np.ndarray:
    """The four ASCII digits of 0..9999 as one word each, then the same
    words with their trailing '0's emptied (0000 becomes an empty word)."""
    digits = np.frombuffer(b"0123456789", dtype=np.uint8)
    full = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)  # by digit, then position
    full[..., 0] = digits[:, None, None, None]
    full[..., 1] = digits[:, None, None]
    full[..., 2] = digits[:, None]
    full[..., 3] = digits
    stripped = full.copy()
    stripped[..., 0, 3] = 0
    stripped[..., 0, 0, 2] = 0
    stripped[:, 0, 0, 0, 1] = 0
    stripped[0, 0, 0, 0, 0] = 0
    return np.concatenate([full.ravel(), stripped.ravel()]).view(np.uint32)


def _head_words() -> np.ndarray:
    """Words 0-1 of a slot as one uint64, row ((sign * 11 + k + 10) * 10 +
    lead) * 2 + has_fraction for a decimal exponent k in [-10, 0]. From
    1e-4 up to 1 the lead digit follows "0." and -k - 1 zeros; elsewhere it
    leads, and the '.' goes when no fraction follows (so k = 0 with lead 0
    writes +-0)."""
    digits = np.frombuffer(b"0123456789", dtype=np.uint8)
    head = np.zeros((2, 11, 10, 2, 8), dtype=np.uint8)  # sign, k + 10, lead, fraction
    head[1, ..., 0] = ord("-")
    head[..., 1] = digits[:, None]
    head[..., 1, 2] = ord(".")
    fixed = head[:, 6:10]  # k = -4..-1
    fixed[..., 1:3] = np.frombuffer(b"0.", dtype=np.uint8)
    for zeros in range(1, 4):  # k = -2, -3, -4
        fixed[:, 3 - zeros, ..., 3:3 + zeros] = ord("0")
    fixed[..., 6] = digits[:, None]
    return head.view(np.uint64).ravel()


_DIGITS = _digit_words()
_HEADS = _head_words()
_TAILS = np.frombuffer(
    b"".join(b"e-%02d" % -k if k < -4 else bytes(4) for k in range(-10, 1)), dtype=np.uint32
)


def _put_floats(slots: np.ndarray, x: np.ndarray) -> None:
    """Write ``'%.17g' % v`` for each v of the 1-D float array ``x`` into
    ``slots``, a uint32 array of shape (x.size, 7) whose rows start on
    8-byte boundaries.

    A normal x = m 2^e (m < 2^53) with 2^-32 <= |x| < 10 and decimal
    exponent k gets its 17 digits from the exact quotient v = m 5^s / 2^r,
    s = 16 - k, r = -(e + s) <= 58, rounded half to even: the correctly
    rounded digits of Python's formatter. The float t = |x| fl(10^s) is
    within 23 of v, so n = floor(t) - 32 leaves a remainder m 5^s - n 2^r
    in [9 2^r, 56 2^r), exact in wrapping uint64 arithmetic; its top bits
    correct n and its low r bits are the fraction. k is estimated from e and
    raised once where t reaches 1e17; floor(v) lies in [1e16, 1e17) exactly
    when k is right. Rounding never carries n up to 1e17: that needs v within
    5e-18 (relative) below a power of ten, and the float nearest below each
    power of ten in range lies 4.5e-17 or more below it. +-0 is written
    directly; every other value (nan, inf, subnormals, |x| below 2^-32 or
    from 10 up, a k misjudged next to a power of ten) is formatted by Python.
    """
    ax = np.abs(x)
    bits = ax.view(np.uint64)
    biased = bits >> _U64(52)
    # floor(log10 |x|) is floor(b log10 2) or one more, for |x| = 1.f 2^b
    k = np.floor((biased.astype(np.float64) - 1023.0) * 0.3010299956639812).astype(np.int64)
    ax = np.fmin(ax, 10.0)  # nan and inf give a finite t: no warnings
    t = ax * np.take(_POW10, k + 10, mode="clip")
    k = np.where(t >= 1e17, k + 1, k)
    t = ax * np.take(_POW10, k + 10, mode="clip")
    n = (np.floor(t) - 32.0).astype(np.int64).view(np.uint64)
    del ax, t
    zero = x == 0.0
    m = np.where(zero, _U64(0), bits - (biased - _U64(1)) * _U64(2**52))
    r = k + 1059 - biased.view(np.int64)
    exact = (k <= 0) & (r <= 58)
    # elsewhere any r in [0, 58] keeps the shifts defined; +-0 (m = 0,
    # n = -32) then gets q = 32: 0 digits
    r = np.where(exact, r, 58).view(np.uint64)
    rem = m * np.take(_POW5, 16 - k, mode="clip") - (n << r)
    del m, bits, biased
    n += rem >> r
    frac = rem << (_U64(64) - r)
    del rem, r
    exact &= (n >= _E16) & (n < _E17)
    k = np.where(exact, k, 0)
    # half to even: up when the fraction passes 1/2, or is 1/2 and n is odd
    low_bit = n - (n >> _U64(1)) * _U64(2)
    n += np.where(frac > _U64(2**63) - low_bit, _U64(1), _U64(0))
    del frac, low_bit

    lead = n // _E16
    n -= lead * _E16
    fraction = np.where(n == _U64(0), 0, 1)
    high = n // _U64(10**8)
    n -= high * _U64(10**8)
    hh, lh = high // _U64(10_000), n // _U64(10_000)
    high -= hh * _U64(10_000)
    n -= lh * _U64(10_000)
    # the last word drops its trailing '0's; a word before it drops them
    # only when every later digit is 0, so only where the last word is 0000
    slots[:, 5] = np.take(_DIGITS[10_000:], n, mode="clip")
    for word, g in zip((4, 3, 2), (lh, high, hh)):
        slots[:, word] = np.take(_DIGITS, g, mode="clip")
    ends = np.flatnonzero(n == _U64(0))
    strip = _U64(10_000)  # offset of the stripped words
    for word, g in zip((4, 3, 2), (lh[ends], high[ends], hh[ends])):
        slots[ends, word] = np.take(_DIGITS, g + strip, mode="clip")
        strip = np.where(g == _U64(0), strip, _U64(0))
    del hh, lh, high, n
    sign = x.view(np.uint64) >> _U64(63)
    head = (sign.view(np.int64) * 11 + k + 10) * 10 + lead.view(np.int64)
    head = head * 2 + fraction
    slots[:, :2].view(np.uint64)[:, 0] = np.take(_HEADS, head, mode="clip")
    slots[:, 6] = np.take(_TAILS, k + 10, mode="clip")
    others = np.flatnonzero(~(exact | zero))
    if others.size:
        # one formatting call; the padding spaces become empty bytes
        text = ("%-28.17g" * others.size % tuple(x[others].tolist())).encode().replace(b" ", b"\0")
        slots[others] = np.frombuffer(text, dtype=np.uint32).reshape(-1, _SLOT)


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

    def write_csv(self, file) -> None:
        """Write the long-format CSV (z_m, mode_index, re, im, probability)
        to ``file``, a binary file, one block of rows at a time.

        Rows are grouped by sample, then by mode index, and end in a line
        feed; floats are written as ``'%.17g' % x`` would write them, by
        ``_put_floats``. Each block of about ``_CSV_ROWS`` rows gathers its
        re, im and probability values, then its z values, into one reused
        float buffer and formats them with one ``_put_floats`` call into a
        word array of one slot per float. The value slots, each with its
        separator, are copied into a reused buffer of fixed-width rows of
        uint32 words (z, ",m,", then re, im and probability), a sample's z
        slot into all d of its rows, and the block is written with its empty
        bytes dropped by one ``bytearray.translate``.
        """
        n, d = self.amplitudes.shape
        file.write(b"z_m,mode_index,re,im,probability\n")
        modes = [f",{m},".encode() for m in range(d)]
        width = -(-len(modes[-1]) // 4)  # words of the longest ",m,"
        mode_words = np.frombuffer(
            b"".join(text.ljust(4 * width, b"\0") for text in modes), dtype=np.uint32
        ).reshape(d, width)
        re = _SLOT + width
        chunk = min(max(n, 1), max(_CSV_ROWS // d, 1))  # samples per block
        raw = bytearray(4 * chunk * d * (re + 3 * (_SLOT + 1)))
        buf = np.frombuffer(raw, dtype=np.uint32).reshape(chunk, d, -1)
        buf[:, :, _SLOT:re] = mode_words
        floats = np.empty(chunk * (3 * d + 1))  # re, im, probability by row, then z
        words = np.empty((floats.size, _SLOT + 1), dtype=np.uint32)
        words[: 3 * d * chunk].reshape(-1, 3, _SLOT + 1)[..., _SLOT] = [_COMMA, _COMMA, _NEWLINE]
        for start in range(0, n, chunk):
            rows = slice(start, start + chunk)
            size = min(chunk, n - start)
            if size < chunk:
                buf[size:] = 0  # the last block: no bytes past it
            cells = 3 * d * size
            values = floats[:cells].reshape(size, d, 3)
            values[..., :2] = self.amplitudes[rows, :, None].view(float)
            values[..., 2] = self.probabilities[rows]
            floats[cells:cells + size] = self.z[rows]
            _put_floats(words[:cells + size, :_SLOT], floats[:cells + size])
            buf[:size, :, re:] = words[:cells].reshape(size, d, -1)
            buf[:size, :, :_SLOT] = words[cells:cells + size, None, :_SLOT]
            file.write(raw.translate(None, b"\0"))

    def to_csv(self) -> str:
        """The CSV text that ``write_csv`` writes."""
        out = io.BytesIO()
        self.write_csv(out)
        return out.getvalue().decode("ascii")


def propagate(state0, chip, model: DeviceModel | None = None, dz: float = 1e-4) -> PropagationTrace:
    """Resolve the state along z through the chip's ``chip_sections`` blocks.

    Sampling is exact within each constant-Hamiltonian section (the grid only
    controls where the evolution is evaluated, not its accuracy): the state
    is advanced in its eigenbasis from ``section_eigensystems`` (one call per
    chip, one row per distinct body), the one place that picks it for
    ``realize`` too, with the same phase reduction. Each distinct body's
    table of e^{-i phi} per sample is formed once per call, and kept for the
    call if later steps reuse the body; the last row of a body with
    ``reduced_phases`` takes them, so the last sample matches the realized
    cascade to rounding.
    dz must not exceed the shortest section. A chip of no sections gives the
    one sample z = 0.
    """
    d, blocks = chip_sections(chip, model)
    state = np.asarray(state0, dtype=complex).reshape(-1)
    if state.size != d:
        raise ValueError(f"state has {state.size} modes, chip has {d}")
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"initial state norm {norm!r} is not 1")
    require_positive(dz, "dz")
    runs = [(len(block.trotter_steps), block.bodies) for block in blocks if block.trotter_steps]
    # one Hamiltonian per distinct body
    hamiltonians = {id(body): body.hamiltonian for _, bodies in runs for body in bodies}
    if not hamiltonians:
        return PropagationTrace(z=[0.0], amplitudes=state[None])
    shortest = min(h.length for h in hamiltonians.values())
    if dz > shortest * (1.0 + 1e-12):
        raise ValueError(f"dz={dz:g} m exceeds the shortest section ({shortest:g} m)")
    steps = {key: int(np.ceil(h.length / dz - 1e-9)) for key, h in hamiltonians.items()}
    total = sum(n * sum(steps[id(body)] for body in bodies) for n, bodies in runs)
    if total > 5_000_000:
        fewest = sum(n * math.ceil(hamiltonians[id(body)].length / shortest - 1e-9)
                     for n, bodies in runs for body in bodies)
        if fewest > 5_000_000:
            raise ValueError(
                f"no allowed dz fits this chip: even dz = its shortest section ({shortest:g} m) "
                f"needs {fewest:.3g} samples, more than 5e6 sample points"
            )
        raise ValueError("dz too small for this chip: more than 5e6 sample points")

    systems = dict(zip(hamiltonians, zip(*section_eigensystems(list(hamiltonians.values())))))
    uses = collections.Counter()
    for n, bodies in runs:
        for body in bodies:
            uses[id(body)] += n
    tables = {}  # id of a body that later steps reuse -> (grid, e^{-i phi})
    zs = np.empty(1 + total)
    amps = np.empty((zs.size, d), dtype=complex)
    zs[0], amps[0] = 0.0, state
    row, z_offset = 1, 0.0
    for n, bodies in runs:
        for _ in range(n):
            for body in bodies:
                key = id(body)
                length, count = body.hamiltonian.length, steps[key]
                offset, w, v = systems[key]
                if key in tables:
                    grid, table = tables[key]
                else:
                    grid = np.minimum(dz * np.arange(1, count + 1), length)
                    grid[-1] = length
                    table = np.multiply(-1j, reduce_phases(w, grid, offset))
                    if body.reduced_phases is not None:
                        table[-1] = np.multiply(-1j, body.reduced_phases)
                    np.exp(table, out=table)
                    if uses[key] > 1:
                        tables[key] = grid, table
                local = v.conj().T @ state
                # a body used once fills its own table in place
                ph = table * local if key in tables else np.multiply(table, local, out=table)
                sampled = (v @ ph.T).T
                amps[row:row + count] = sampled
                zs[row:row + count] = z_offset + grid
                row += count
                z_offset += length
                # the next section reads this one's own (strided) last row: a
                # contiguous copy takes another BLAS path and changes the last bit
                state = sampled[-1]
    del ph, local, sampled, state, table, tables  # the trace's probabilities need the room
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
    require_positive(length, "length")
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
