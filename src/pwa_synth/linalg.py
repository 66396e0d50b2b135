"""Dense complex linear-algebra kernel.

Everything downstream (decomposition, planning, device simulation) is built
on a handful of primitives: the Hermitian matrix exponential, the operator
norm, the phase-invariant gate fidelity, the analytic eigenvalues of the
uniform tridiagonal coupling matrix, and Haar-random unitary sampling.

This module is also the single place where section evolutions e^{-iHz} are
formed, for the compiler, the simulator and the optimizer alike.
``section_eigensystems`` is the one place that picks a section's eigenbasis,
for a whole stack of same-dimension sections at once: it splits each
section's mean diagonal off as an exact phase offset and diagonalizes the
rest (the analytic sine basis for uniform sections, one stacked ``eigh`` for
the others). ``reduce_phases`` forms (eigenvalue + offset) * z mod 2 pi in
extended precision, row by row; ``assemble_unitary`` builds
V diag(e^{-i phi}) V^dag, batched over leading axes. ``section_unitaries``
joins the three over a stack, and ``device.propagate`` samples the same
eigensystems. Each row is bit for bit what the section alone gives, so one
section's ``unitary()`` is the one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from numbers import Real

import numpy as np

#: Entrywise tolerance for accepting a matrix as Hermitian.
HERMITICITY_ATOL = 1e-12
#: Operator-norm tolerance for accepting a matrix as unitary.
UNITARITY_ATOL = 1e-10

_TWO_PI_LD = np.longdouble(2.0) * np.longdouble(np.pi)


def require_positive(value, what: str) -> float:
    """``value`` as a float; it must be a real number (not a bool), positive
    and finite."""
    if not (_is_number(value) and math.isfinite(value) and value > 0.0):
        raise ValueError(f"{what} must be positive and finite, got {value!r}")
    return float(value)


def require_count(value, what: str, minimum: int = 1) -> int:
    """``value`` as an int; it must be an ``int`` or ``np.integer`` (not a
    bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def require_number(value, what: str) -> float:
    """``value`` as a float; it must be a real number, not a bool or a
    string, as JSON numbers load."""
    if not _is_number(value):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def require_numbers(values, what: str) -> list:
    """``values``, which must be a list of numbers as ``require_number``
    reads them."""
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a list of numbers, got {type(values).__name__}")
    for value in values:
        if not _is_number(value):
            raise ValueError(f"{what} must be a list of numbers, got item {value!r}")
    return values


def _is_number(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def as_square_matrix(matrix, what: str = "matrix") -> np.ndarray:
    """Coerce to a finite square complex ndarray, raising ValueError otherwise."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"{what} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} contains non-finite entries")
    return a


def operator_norm(matrix) -> float:
    """Largest singular value (spectral norm)."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"operator norm needs a 2-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    # np.linalg.norm(a, 2) takes the max of this same call, whose values are sorted
    return float(np.linalg.svd(a, compute_uv=False)[0])


def unitarity_defect(matrix) -> float:
    """Operator-norm distance of U†U from the identity."""
    u = as_square_matrix(matrix)
    return operator_norm(u.conj().T @ u - np.eye(u.shape[0]))


def require_unitary(matrix, atol: float = UNITARITY_ATOL, what: str = "matrix") -> np.ndarray:
    u = as_square_matrix(matrix, what)
    defect = unitarity_defect(u)
    if defect > atol:
        raise ValueError(f"{what} is not unitary: ||U^dag U - I|| = {defect:.3e} > {atol:g}")
    return u


def reduce_phases(eigenvalues, length, offset=0.0) -> np.ndarray:
    """Eigenphases (eigenvalue + offset) * length, reduced mod 2 pi.

    The exponential only depends on the phase mod 2 pi; products like
    beta*L reach 1e5 rad and recurrence sections 1e10 rad and beyond, where
    forming them in float64 loses the digits that matter after reduction,
    so they are formed in extended precision. ``length`` may be an array of
    sample positions; the result then has shape length.shape + (d,).
    ``length`` and ``offset`` may also hold one value per row of a stack of
    eigenvalues, shape (n, d); each row is then reduced as it would be alone.
    """
    z = np.asarray(length, dtype=np.longdouble)[..., None]
    prod = np.asarray(eigenvalues, dtype=np.longdouble) * z
    prod += np.asarray(offset, dtype=np.longdouble)[..., None] * z
    return np.mod(prod, _TWO_PI_LD, out=prod).astype(float)


def assemble_unitary(eigenvectors, phases) -> np.ndarray:
    """V diag(e^{-i phases}) V^dag, batched over any leading axes; real
    eigenvectors are not conjugated, so V^dag is a view of them."""
    v = np.asarray(eigenvectors)
    rotated = v * np.exp(-1j * np.asarray(phases))[..., None, :]
    v_t = np.swapaxes(v, -1, -2)
    return rotated @ (np.conj(v_t) if np.iscomplexobj(v) else v_t)


def _centered_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mu, w, V) with H = mu I + V diag(w) V^dag and mu the mean diagonal,
    batched over leading axes.

    Waveguide Hamiltonians carry a ~1e7 m^-1 identity offset that would
    otherwise dominate the eigensolver's error budget.
    """
    d = h.shape[-1]
    mu = np.trace(h, axis1=-2, axis2=-1).real / d
    w, v = np.linalg.eigh(h - np.multiply.outer(mu, np.eye(d)))
    return mu, w, v


def section_eigensystems(sections) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """(offsets, w, V): one offset, one eigenvalue row and one eigenbasis per
    same-dimension section, H = offset I + V diag(w) V^dag. A uniform section
    (d > 1) takes its beta, w = coupling * toeplitz_eigenvalues(d) in extended
    precision (recurrence sections are 1e7 m long and more) and the shared real
    sine basis; the others take one stacked ``eigh`` of H minus its mean
    diagonal."""
    d = sections[0].dimension
    if any(s.dimension != d for s in sections):
        raise ValueError("sections must share one mode count")
    offsets = np.empty(len(sections))
    w = np.empty((len(sections), d), dtype=np.longdouble)
    bases = [toeplitz_eigenvectors(d)] * len(sections)
    sine = [k for k, s in enumerate(sections) if d > 1 and s.is_uniform()]
    if sine:
        offsets[sine] = [sections[k].betas[0] for k in sine]
        couplings = np.array([sections[k].couplings[0] for k in sine], dtype=np.longdouble)
        w[sine] = couplings[:, None] * toeplitz_eigenvalues(d).astype(np.longdouble)
    dense = sorted(set(range(len(sections))).difference(sine))
    if dense:
        h = np.zeros((len(dense), d, d), dtype=complex)
        i = np.arange(d)
        h[:, i, i] = [sections[k].betas for k in dense]
        couplings = np.array([sections[k].couplings for k in dense])
        h[:, i[:-1], i[1:]] = h[:, i[1:], i[:-1]] = couplings
        offsets[dense], w[dense], v = _centered_eigh(h)
        for k, basis in zip(dense, v):
            bases[k] = basis
    return offsets, w, bases


def section_unitaries(sections, reduced_phases=None) -> np.ndarray:
    """The evolutions e^{-i H L} of same-dimension ``TridiagonalHamiltonian``
    sections over their own lengths, stacked with shape (n, d, d), each in
    its eigenbasis from ``section_eigensystems``, the one place that picks
    it. ``reduced_phases`` has one row per section; a row that is not None
    holds that section's eigenphases in its eigenbasis (the sine basis of a
    uniform section), already reduced mod 2 pi, and replaces its own.
    """
    if reduced_phases is None:
        reduced_phases = [None] * len(sections)
    elif len(reduced_phases) != len(sections):
        raise ValueError(f"{len(reduced_phases)} reduced-phase rows for {len(sections)} sections")
    offsets, w, v = section_eigensystems(sections)
    phases = reduce_phases(w, [s.length for s in sections], offsets)
    for k, given in enumerate(reduced_phases):
        if given is not None:
            phases[k] = given
    # Real sine-basis rows and complex eigh rows stay in separate stacks, each
    # assembled as one section alone is: V^dag is a transposed view of a real
    # V and a conjugated copy of a complex one.
    units = np.empty((len(sections), *v[0].shape), dtype=complex)
    for kind in "fc":
        rows = [k for k, basis in enumerate(v) if basis.dtype.kind == kind]
        if rows:
            units[rows] = assemble_unitary(np.array([v[k] for k in rows]), phases[rows])
    return units


def expm_hermitian(hamiltonian, scale: float = 1.0) -> np.ndarray:
    """Unitary e^{-i H scale} of a Hermitian matrix via eigendecomposition,
    with the mean diagonal split off as an exact phase offset."""
    h = as_square_matrix(hamiltonian, "hamiltonian")
    defect = float(np.max(np.abs(h - h.conj().T)))
    if defect > HERMITICITY_ATOL:
        raise ValueError(
            f"matrix is not Hermitian: max |H - H^dag| = {defect:.3e} > {HERMITICITY_ATOL:g}"
        )
    if not np.isfinite(scale):
        raise ValueError("scale must be finite")
    mu, w, v = _centered_eigh(h)
    return assemble_unitary(v, reduce_phases(w, scale, mu))


def fidelity(u, u_target) -> float:
    """Phase-invariant gate fidelity |tr(U† U_T)|^2 / d^2, in [0, 1]."""
    a = require_unitary(u, atol=1e-8, what="U")
    b = require_unitary(u_target, atol=1e-8, what="U_target")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    d = a.shape[0]
    t = np.trace(a.conj().T @ b)
    return float(min(1.0, (abs(t) / d) ** 2))


@lru_cache(maxsize=None, typed=True)  # typed, so True and 2.0 still fail require_count
def toeplitz_eigenvalues(d: int) -> np.ndarray:
    """Eigenvalues -2 cos(j pi/(d+1)), j = 1..d, of the 0-diagonal/1-offdiagonal
    tridiagonal Toeplitz matrix, sorted ascending, as one read-only array per d.

    Built antisymmetrically so that lambda_j == -lambda_{d+1-j} holds exactly
    (the middle eigenvalue of odd d is exactly 0.0, which the Diophantine
    solver relies on).
    """
    require_count(d, "dimension")
    j = np.arange(1, d // 2 + 1)
    lower = -2.0 * np.cos(j * np.pi / (d + 1))
    middle = [0.0] if d % 2 else []
    values = np.concatenate([lower, middle, -lower[::-1]])
    values.flags.writeable = False
    return values


@cache
def toeplitz_eigenvectors(d: int) -> np.ndarray:
    """Orthonormal sine-basis eigenvectors, column j paired with toeplitz_eigenvalues(d)[j].

    Built once per d; every caller shares the one read-only array."""
    m = np.arange(1, d + 1)
    k = d + 1 - np.arange(1, d + 1)
    basis = np.sqrt(2.0 / (d + 1)) * np.sin(np.outer(m, k) * np.pi / (d + 1))
    basis.flags.writeable = False
    return basis


def haar_random_unitary(d: int, seed: int) -> np.ndarray:
    """Haar-random d x d unitary: QR of a complex Ginibre matrix, with each
    column of Q divided by the phase of the matching R diagonal entry.
    Deterministic per (d, seed)."""
    require_count(d, "dimension")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q / (diag / np.abs(diag))


@dataclass(frozen=True)
class TridiagonalHamiltonian:
    """One chip section: d propagation constants, d-1 couplings, a length.

    All entries are strictly positive (forward propagation; waveguides are
    never erased). Units are m^-1 for the matrix entries and m for the length.
    """

    betas: np.ndarray
    couplings: np.ndarray
    length: float

    def __post_init__(self):
        betas = np.array(self.betas, dtype=float)
        couplings = np.array(self.couplings, dtype=float)
        if betas.ndim != 1 or betas.size < 1:
            raise ValueError("betas must be a non-empty 1-d array")
        if couplings.shape != (betas.size - 1,):
            raise ValueError(
                f"expected {betas.size - 1} couplings for {betas.size} modes, "
                f"got {couplings.shape}"
            )
        # Python floats: a few entries check faster than numpy reductions.
        beta_values, coupling_values = betas.tolist(), couplings.tolist()
        if not all(map(math.isfinite, beta_values + coupling_values)):
            raise ValueError("non-finite Hamiltonian entries")
        if min(beta_values) <= 0.0:
            raise ValueError("propagation constants must be strictly positive")
        if coupling_values and min(coupling_values) <= 0.0:
            raise ValueError("couplings must be strictly positive")
        length = require_positive(self.length, "section length")
        betas.flags.writeable = False
        couplings.flags.writeable = False
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "couplings", couplings)
        object.__setattr__(self, "length", length)

    @property
    def dimension(self) -> int:
        return self.betas.size

    def is_uniform(self) -> bool:
        """True when all betas agree and all couplings agree (Toeplitz form)."""
        return self._uniform

    @cached_property
    def _uniform(self) -> bool:
        # The entries are read-only, so the answer is computed once per object.
        return bool(
            np.all(self.betas == self.betas[0])
            and (self.couplings.size == 0 or np.all(self.couplings == self.couplings[0]))
        )

    def to_matrix(self) -> np.ndarray:
        h = np.diag(self.betas).astype(complex)
        if self.couplings.size:
            i = np.arange(self.dimension - 1)
            h[i, i + 1] = self.couplings
            h[i + 1, i] = self.couplings
        return h

    def unitary(self) -> np.ndarray:
        """Section evolution e^{-i H L} over the section's own length."""
        return section_unitaries([self])[0]
