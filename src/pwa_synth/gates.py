"""Canonical target unitaries: DFT, clock and shift matrices plus named 2x2 gates.

Basis indexing here is the 0-based computational basis {|0>, ..., |d-1>};
waveguide modes elsewhere in the package are 1-based {|1>, ..., |d>}.
"""

from __future__ import annotations

import numpy as np

from .linalg import haar_random_unitary, require_count


def dft(d: int) -> np.ndarray:
    """DFT matrix with entries omega^{(d-j)k} / sqrt(d), 0-based j, k, omega = e^{2 pi i/d}."""
    d = require_count(d, "gate dimension", 2)
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    exponent = ((d - j) * k) % d
    return np.exp(2j * np.pi * exponent / d) / np.sqrt(d)


def clock(d: int) -> np.ndarray:
    """Diagonal clock matrix Z_d = diag(omega^k)."""
    d = require_count(d, "gate dimension", 2)
    return np.diag(np.exp(2j * np.pi * np.arange(d) / d))


def shift(d: int) -> np.ndarray:
    """Cyclic shift matrix X_d mapping |k> to |k+1 mod d>."""
    d = require_count(d, "gate dimension", 2)
    x = np.zeros((d, d), dtype=complex)
    x[(np.arange(d) + 1) % d, np.arange(d)] = 1.0
    return x


def identity(d: int) -> np.ndarray:
    return np.eye(require_count(d, "gate dimension"), dtype=complex)


def hadamard() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


def pauli_x() -> np.ndarray:
    return np.array([[0, 1], [1, 0]], dtype=complex)


def named_gate(name: str, dimension: int) -> np.ndarray:
    """Resolve a CLI gate string: one of the named kinds, or "haar:<seed>"."""
    name = name.strip().lower()
    if name.startswith("haar:"):
        try:
            seed = require_count(int(name.split(":", 1)[1]), "seed", 0)
        except ValueError:
            raise ValueError(f"bad Haar gate spec {name!r}, expected haar:<seed>") from None
        return haar_random_unitary(dimension, seed)
    gates = {
        "dft": dft,
        "clock": clock,
        "shift": shift,
        "identity": identity,
        "hadamard": hadamard,
        "pauli-x": pauli_x,
    }
    if name not in gates:
        valid = ", ".join(gates)
        raise ValueError(f"unknown gate {name!r}; expected one of {valid} or haar:<seed>")
    if name in ("hadamard", "pauli-x"):
        if dimension != 2:
            raise ValueError(f"{name} is a 2x2 gate, got d={dimension}")
        return gates[name]()
    return gates[name](dimension)
