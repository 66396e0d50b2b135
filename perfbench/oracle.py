"""Independent oracles for the benchmark's output checks.

Nothing here imports ``pwa_synth``. Targets are rebuilt from their
definitions, compiled plans are re-evaluated from the plan JSON text, and
voltage chips are rebuilt from the device formulas of the paper:

    beta_m = (2 pi / lambda) n0 (1 + (dn / n0) dV_m),   C = C0 + dC dV

Uniform (Toeplitz) sections use the analytic sine basis with the eigenphases
(beta + 2 C cos(k pi / (d + 1))) * length reduced mod 2 pi in 60-digit
decimal arithmetic from the stored floats; recurrence sections are up to
4.5e15 m long, so double precision cannot form those products. Every other
section uses a scaled-and-squared Taylor series after the mean diagonal is
split off as an exactly reduced phase.
"""

from __future__ import annotations

import json
import math
from decimal import Decimal, localcontext

import numpy as np

_PREC = 60

# Device constants as stated in the paper, keyed as in the voltages JSON.
MODEL = {
    "wavelength": 808e-9,
    "base_index": 2.713,
    "index_shift_per_volt": 5e-6,
    "base_coupling": 100.0,
    "coupling_shift_per_volt": 1.4,
    "max_voltage": 15.0,
    "section_length": 6e-3,
    "gap_length": 6e-4,
}
WAVELENGTH = MODEL["wavelength"]
INDEX_SHIFT_PER_VOLT = MODEL["index_shift_per_volt"]
BASE_COUPLING = MODEL["base_coupling"]
COUPLING_SHIFT_PER_VOLT = MODEL["coupling_shift_per_volt"]
MAX_VOLTAGE = MODEL["max_voltage"]
SECTION_LENGTH = MODEL["section_length"]
GAP_LENGTH = MODEL["gap_length"]


def _dec_pi() -> Decimal:
    """pi to the working precision (series from the decimal module docs)."""
    with localcontext() as ctx:
        ctx.prec = _PREC + 5
        three = Decimal(3)
        lasts, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return +s


def _dec_cos(x: Decimal) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = _PREC + 5
        i, lasts, s, fact, num, sign = 0, 0, Decimal(1), 1, Decimal(1), 1
        while s != lasts:
            lasts = s
            i += 2
            fact *= i * (i - 1)
            num *= x * x
            sign *= -1
            s += num / fact * sign
    return +s


_PI = _dec_pi()
_TWO_PI = 2 * _PI
_COS_CACHE: dict[int, list[Decimal]] = {}


def _toeplitz_cosines(d: int) -> list[Decimal]:
    """2 cos(k pi / (d + 1)) for k = 1..d, to 60 digits."""
    if d not in _COS_CACHE:
        with localcontext() as ctx:
            ctx.prec = _PREC
            _COS_CACHE[d] = [2 * _dec_cos(_PI * k / (d + 1)) for k in range(1, d + 1)]
    return _COS_CACHE[d]


def _reduced(x: Decimal) -> float:
    """x mod 2 pi as a float in [0, 2 pi)."""
    with localcontext() as ctx:
        ctx.prec = _PREC
        return float(x - _TWO_PI * (x / _TWO_PI).to_integral_value(rounding="ROUND_FLOOR"))


def _sine_basis(d: int) -> np.ndarray:
    m = np.arange(1, d + 1)
    return math.sqrt(2.0 / (d + 1)) * np.sin(np.outer(m, m) * math.pi / (d + 1))


def uniform_unitary(beta: float, coupling: float, length: float, d: int) -> np.ndarray:
    """e^{-i H z} for H = beta I + coupling (shift + shift^T), exactly reduced phases."""
    with localcontext() as ctx:
        ctx.prec = _PREC
        b, c, z = Decimal(beta), Decimal(coupling), Decimal(length)
        phases = np.array([_reduced((b + c * cos) * z) for cos in _toeplitz_cosines(d)])
    s = _sine_basis(d)
    return (s * np.exp(-1j * phases)) @ s.T


def taylor_expm(h: np.ndarray, length: float) -> np.ndarray:
    """e^{-i h length} for Hermitian h: exact mean-diagonal phase times a
    scaled-and-squared Taylor series of the traceless remainder."""
    h = np.asarray(h, dtype=complex)
    d = h.shape[0]
    mu = float(np.real(np.trace(h))) / d
    with localcontext() as ctx:
        ctx.prec = _PREC
        mean_phase = _reduced(Decimal(mu) * Decimal(length))
    a = -1j * (h - mu * np.eye(d)) * length
    norm = float(np.max(np.sum(np.abs(a), axis=1)))
    squarings = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0
    a = a / 2.0**squarings
    term = np.eye(d, dtype=complex)
    total = term.copy()
    for n in range(1, 25):
        term = term @ a / n
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return np.exp(-1j * mean_phase) * total


def _tridiagonal(betas, couplings) -> np.ndarray:
    h = np.diag(np.asarray(betas, dtype=float)).astype(complex)
    for k, c in enumerate(couplings):
        h[k, k + 1] = h[k + 1, k] = c
    return h


def section_unitary(betas, couplings, length: float) -> np.ndarray:
    d = len(betas)
    if d > 1 and len(set(betas)) == 1 and len(set(couplings)) == 1:
        return uniform_unitary(betas[0], couplings[0], length, d)
    return taylor_expm(_tridiagonal(betas, couplings), length)


def operator_norm(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False)[0])


# ---------------------------------------------------------------- targets


def haar(d: int, seed: int) -> np.ndarray:
    """QR of a seeded complex Ginibre matrix, R-diagonal phases divided out."""
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q / (diag / np.abs(diag))


def target(name: str, d: int) -> np.ndarray:
    """dft (omega^{(d-j)k}/sqrt d), clock diag(omega^k), shift |k> -> |k+1>, haar:<seed>."""
    omega = np.exp(2j * math.pi / d)
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    if name.startswith("haar:"):
        return haar(d, int(name.split(":", 1)[1]))
    if name == "dft":
        return omega ** (((d - j) * k) % d) / math.sqrt(d)
    if name == "clock":
        return np.diag(omega ** np.arange(d))
    if name == "shift":
        return (j == (k + 1) % d).astype(complex)
    raise ValueError(f"no oracle for target {name!r}")


# ---------------------------------------------------------------- plans


def plan_sections(plan_text: str) -> tuple[int, list[dict], dict]:
    payload = json.loads(plan_text)
    return int(payload["metadata"]["d"]), payload["sections"], payload["metadata"]


def plan_unitary(plan_text: str) -> np.ndarray:
    """Cascade unitary of a plan JSON, first section applied first."""
    d, sections, _ = plan_sections(plan_text)
    cache: dict = {}
    u = np.eye(d, dtype=complex)
    for s in sections:
        key = (tuple(s["betas"]), tuple(s["couplings"]), s["length_m"])
        mat = cache.get(key)
        if mat is None:
            mat = cache[key] = section_unitary(s["betas"], s["couplings"], s["length_m"])
        u = mat @ u
    return u


def plan_error(plan_text: str, target_matrix: np.ndarray) -> float:
    """Operator-norm distance of the plan's cascade from the target."""
    return operator_norm(np.asarray(target_matrix) - plan_unitary(plan_text))


# ---------------------------------------------------------------- voltage chips


def voltage_hamiltonian(level_volts, coupling_volts) -> np.ndarray:
    """Section Hamiltonian from the device formulas, minus the common
    zero-voltage offset 2 pi n0 / lambda (a global phase of the whole chip)."""
    k0 = 2.0 * math.pi / WAVELENGTH
    betas = k0 * INDEX_SHIFT_PER_VOLT * np.asarray(level_volts, dtype=float)
    couplings = BASE_COUPLING + COUPLING_SHIFT_PER_VOLT * np.asarray(coupling_volts, dtype=float)
    return _tridiagonal(betas, couplings)


def voltage_chip_unitary(voltages: list[tuple[list[float], list[float]]]) -> np.ndarray:
    """K sections of length L with zero-voltage gaps of 0.1 L in between, up to global phase."""
    d = len(voltages[0][0])
    gap = taylor_expm(_tridiagonal(np.zeros(d), np.full(d - 1, BASE_COUPLING)), GAP_LENGTH)
    u = np.eye(d, dtype=complex)
    for i, (levels, couplings) in enumerate(voltages):
        if i:
            u = gap @ u
        u = taylor_expm(voltage_hamiltonian(levels, couplings), SECTION_LENGTH) @ u
    return u


def infidelity(u: np.ndarray, t: np.ndarray) -> float:
    d = u.shape[0]
    return 1.0 - (abs(np.trace(u.conj().T @ t)) / d) ** 2


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over phi of ||a - e^{i phi} b||."""
    overlap = np.vdot(b, a)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.linalg.norm(a - phase * b))
