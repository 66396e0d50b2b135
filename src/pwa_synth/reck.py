"""Two-level decomposition with adjacent-mode permutation chains.

An arbitrary d x d unitary is triangularized by 2-mode factors that null the
strictly-lower entries column by column, Gaussian-elimination style. Each
factor touching non-adjacent modes (low, high) is then conjugated by a chain
of high-low-1 adjacent transpositions on each side, so that every emitted
operation acts on neighbouring waveguides only. The total operation count is

    d (d - 1)(2 d - 1) / 6,

and applying the emitted operations in physical order reproduces the input
unitary exactly, global phase included (the residual determinant phase is
folded into the factor that is applied first).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import require_count, require_unitary

#: Input unitarity tolerance for decomposition.
TWO_LEVEL_ATOL = 1e-8
#: Ops whose matrix is within this of the identity may be pruned on request.
IDENTITY_PRUNE_ATOL = 1e-12

_X2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


@dataclass(frozen=True)
class TwoLevelFactor:
    """Elimination factor acting on modes (low, high), 1-based, low < high.

    ``core`` is the 2x2 unitary block in (low, high) ordering; embedding it
    on those two modes gives the full d x d factor. Applying the factors in
    list order to the input unitary yields the identity.
    """

    low: int
    high: int
    core: np.ndarray

    def __post_init__(self):
        if not 1 <= self.low < self.high:
            raise ValueError(f"need 1 <= low < high, got ({self.low}, {self.high})")
        core = np.array(self.core, dtype=complex)
        if core.shape != (2, 2):
            raise ValueError(f"core must be 2x2, got {core.shape}")
        core.flags.writeable = False
        object.__setattr__(self, "core", core)


@dataclass(frozen=True)
class AdjacentOp:
    """A 2x2 unitary acting on modes (mode, mode+1), 1-based."""

    mode: int
    matrix: np.ndarray

    def __post_init__(self):
        require_count(self.mode, "mode")
        matrix = np.array(self.matrix, dtype=complex)
        if matrix.shape != (2, 2):
            raise ValueError(f"op matrix must be 2x2, got {matrix.shape}")
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)


def count_sections(d: int) -> int:
    """Adjacent-op count d(d-1)(2d-1)/6 for a full decomposition."""
    d = require_count(d, "dimension", 2)
    return d * (d - 1) * (2 * d - 1) // 6


def embed_two_level(block, low: int, high: int, d: int) -> np.ndarray:
    """Identity with a 2x2 block placed on (low, high), 1-based."""
    if not 1 <= low < high <= d:
        raise ValueError(f"bad mode pair ({low}, {high}) for d={d}")
    block = np.asarray(block, dtype=complex)
    full = np.eye(d, dtype=complex)
    full[low - 1, low - 1] = block[0, 0]
    full[low - 1, high - 1] = block[0, 1]
    full[high - 1, low - 1] = block[1, 0]
    full[high - 1, high - 1] = block[1, 1]
    return full


def two_level_decompose(u) -> list[TwoLevelFactor]:
    """Null the lower triangle of a unitary with d(d-1)/2 two-mode factors.

    Column q is cleared top to bottom; the factor for entry (high, low) mixes
    rows low and high so that the entry cancels exactly. When both pivot
    entries are already zero (permutation-like columns) the factor is the
    identity. The leftover diagonal phase e^{i arg det U} lands on the last
    mode and is folded into the final factor, so the factor product inverts
    U exactly rather than up to a phase.
    """
    u = require_unitary(u, atol=TWO_LEVEL_ATOL, what="input")
    d = require_count(u.shape[0], "two-level decomposition dimension", 2)
    running = u.copy()
    factors: list[TwoLevelFactor] = []
    for low in range(1, d):
        for high in range(low + 1, d + 1):
            pivot = running[low - 1, low - 1]
            target = running[high - 1, low - 1]
            weight = abs(pivot) ** 2 + abs(target) ** 2
            if weight < 1e-30:
                core = np.eye(2, dtype=complex)
            else:
                s = np.sqrt(weight)
                core = np.array(
                    [[np.conj(pivot), np.conj(target)], [-target, pivot]], dtype=complex
                ) / s
                row_low = running[low - 1].copy()
                row_high = running[high - 1].copy()
                running[low - 1] = core[0, 0] * row_low + core[0, 1] * row_high
                running[high - 1] = core[1, 0] * row_low + core[1, 1] * row_high
            factors.append(TwoLevelFactor(low=low, high=high, core=core))
    residual = running[d - 1, d - 1]
    residual /= abs(residual)
    last = factors[-1]
    phase_fix = np.array([[1.0, 0.0], [0.0, np.conj(residual)]], dtype=complex)
    factors[-1] = TwoLevelFactor(low=last.low, high=last.high, core=phase_fix @ last.core)
    return factors


def reconstruct_factors(factors: list[TwoLevelFactor], d: int) -> np.ndarray:
    """Rebuild the unitary as the ordered product of daggered factors."""
    u = np.eye(d, dtype=complex)
    for f in factors:
        u = u @ embed_two_level(f.core.conj().T, f.low, f.high, d)
    return u


def adjacent_expand(
    factors: list[TwoLevelFactor], d: int, prune_identity: bool = False
) -> list[AdjacentOp]:
    """Expand elimination factors into a physical cascade of adjacent 2-mode ops.

    Output is in physical order (first op applied first to the state). The
    factor applied first is the one produced last by the elimination, and its
    core appears daggered. A factor on modes (low, high) with high > low + 1
    is bracketed by the transposition chain that walks mode ``high`` down to
    ``low + 1`` and back, costing 2(high - low - 1) permutations.

    With ``prune_identity`` set, factors whose daggered core is within
    1e-12 of the identity are dropped wholesale (their permutation brackets
    cancel exactly).
    """
    for f in factors:
        if f.high > d:
            raise ValueError(f"factor on modes ({f.low}, {f.high}) inconsistent with d={d}")
    ops: list[AdjacentOp] = []
    for f in reversed(factors):
        core = f.core.conj().T
        if prune_identity and np.max(np.abs(core - np.eye(2))) <= IDENTITY_PRUNE_ATOL:
            continue
        ops += [AdjacentOp(mode, _X2) for mode in range(f.high - 1, f.low, -1)]
        ops.append(AdjacentOp(f.low, core))
        ops += [AdjacentOp(mode, _X2) for mode in range(f.low + 1, f.high)]
    return ops


def reconstruct_adjacent(ops: list[AdjacentOp], d: int) -> np.ndarray:
    """Multiply the embedded ops in physical order (first applied first)."""
    u = np.eye(d, dtype=complex)
    for op in ops:
        u = embed_two_level(op.matrix, op.mode, op.mode + 1, d) @ u
    return u
