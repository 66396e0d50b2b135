"""Shared independent oracles for the test suite.

These deliberately avoid the library's own code paths: the Taylor expm uses
scaling-and-squaring on the series, the norm oracle is power iteration, the
LLL checker re-derives the Gram-Schmidt data in exact rational arithmetic,
plan products are multiplied out in 40-digit decimal arithmetic, and the
background eigenvalues are summed from series in 60-digit decimals.
"""

import decimal
from fractions import Fraction

import numpy as np
import pytest


def taylor_expm(h, scale: float, terms: int = 60) -> np.ndarray:
    """e^{-i h scale} by scaled-and-squared Taylor series."""
    a = -1j * np.asarray(h, dtype=complex) * scale
    norm = np.linalg.norm(a, 2)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300) / 0.5)))) if norm > 0.5 else 0
    a = a / (2**squarings)
    term = np.eye(a.shape[0], dtype=complex)
    total = term.copy()
    for n in range(1, terms + 1):
        term = term @ a / n
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total


def power_iteration_norm(m, iterations: int = 500, seed: int = 0) -> float:
    """Largest singular value via power iteration on M^dag M."""
    m = np.asarray(m, dtype=complex)
    rng = np.random.default_rng(seed)
    g = m.conj().T @ m
    v = rng.standard_normal(m.shape[1]) + 1j * rng.standard_normal(m.shape[1])
    v = v / np.linalg.norm(v)
    for _ in range(iterations):
        v = g @ v
        v = v / np.linalg.norm(v)
    return float(np.sqrt(np.real(np.vdot(v, g @ v))))


def _single_section_eigensystem(hamiltonian):
    """(offset, w, V) of one section on its own: the uniform sine basis with
    extended-precision eigenvalues (d > 1), else ``eigh`` of H minus its
    mean diagonal."""
    from pwa_synth.linalg import toeplitz_eigenvalues, toeplitz_eigenvectors

    d = hamiltonian.dimension
    if hamiltonian.is_uniform() and d > 1:
        w = np.longdouble(hamiltonian.couplings[0]) * toeplitz_eigenvalues(d).astype(np.longdouble)
        return float(hamiltonian.betas[0]), w, toeplitz_eigenvectors(d)
    h = hamiltonian.to_matrix()
    offset = float(np.trace(h).real) / d
    w, v = np.linalg.eigh(h - offset * np.eye(d))
    return offset, w, v


def _reduced_phases(w, offset, z) -> np.ndarray:
    """(eigenvalue + offset) * z reduced mod 2 pi in extended precision."""
    z = np.asarray(z, dtype=np.longdouble)[..., None]
    prod = np.asarray(w, dtype=np.longdouble) * z + np.longdouble(offset) * z
    return np.mod(prod, 2 * np.longdouble(np.pi)).astype(float)


def single_section_unitary(hamiltonian, reduced_phases=None) -> np.ndarray:
    """One section's evolution e^{-iHL} formed on its own, step by step, as
    the kernel formed it before it was stacked: the section's own
    eigensystem; the phases (eigenvalue + offset) * L reduced mod 2 pi in
    extended precision, or the given ``reduced_phases`` in the sine basis;
    then V diag(e^{-i phi}) V^dag, with V^dag a transposed view for a real V."""
    from pwa_synth.linalg import toeplitz_eigenvectors

    if reduced_phases is not None:
        v, phases = toeplitz_eigenvectors(hamiltonian.dimension), np.asarray(reduced_phases)
    else:
        offset, w, v = _single_section_eigensystem(hamiltonian)
        phases = _reduced_phases(w, offset, hamiltonian.length)
    rotated = v * np.exp(-1j * phases)[None, :]
    return rotated @ (v.conj().T if np.iscomplexobj(v) else v.T)


def sectionwise_propagation(state, sections, dz: float, reduced_phases=None) -> np.ndarray:
    """The sampled amplitudes of ``propagate``, formed one section at a time
    as the simulator formed them before its eigensystems were stacked: each
    section's own eigensystem; the phases (eigenvalue + offset) * z reduced
    mod 2 pi in extended precision, except at the last sample of a section
    whose row of ``reduced_phases`` is given, which takes that row; the
    weights V^dag psi scaled by e^{-i phi} per sample and rotated back by V,
    the next section starting from the block's own strided last row."""
    state = np.asarray(state, dtype=complex)
    blocks = [state[None, :]]
    for h, given in zip(sections, reduced_phases or [None] * len(sections), strict=True):
        offset, w, v = _single_section_eigensystem(h)
        count = int(np.ceil(h.length / dz - 1e-9))
        grid = np.minimum(dz * np.arange(1, count + 1), h.length)
        grid[-1] = h.length
        phases = _reduced_phases(w, offset, grid)
        if given is not None:
            phases[-1] = given
        block = (v @ (np.exp(-1j * phases) * (v.conj().T @ state)).T).T
        blocks.append(block)
        state = block[-1]
    return np.concatenate(blocks)


def physical_sections(chip, model=None) -> list:
    """The Hamiltonians of a chip's sections in physical order, listed
    without ``device.chip_sections``: a plan's from its flat ``sections``; a
    voltage chip's from each setting's ``hamiltonian_from_voltages`` with the
    model's zero-voltage gap between each pair."""
    from pwa_synth import ChipPlan, hamiltonian_from_voltages

    if isinstance(chip, ChipPlan):
        return [section.hamiltonian for section in chip.sections]
    gap = model.zero_voltage_hamiltonian(chip[0].dimension)
    sections = []
    for k, volts in enumerate(chip):
        sections += [gap] * (k > 0) + [hamiltonian_from_voltages(model, volts)]
    return sections


def decimal_product(sections) -> np.ndarray:
    """The product of the sections' float64 unitaries, first section applied
    first, multiplied out in 40-digit decimal arithmetic and rounded to
    complex128 once at the end: the exact product of the float64 factors, up
    to about 1e-40 per factor."""
    to_decimal = np.frompyfunc(decimal.Decimal, 1, 1)
    factors = {}  # each distinct float64 unitary, converted once
    with decimal.localcontext() as context:
        context.prec = 40
        re = im = None
        for section in sections:
            m = section.unitary()
            key = m.tobytes()
            if key not in factors:
                factors[key] = to_decimal(m.real), to_decimal(m.imag)
            a, b = factors[key]
            if re is None:
                re, im = a, b
            else:
                re, im = a @ re - b @ im, a @ im + b @ re
        return re.astype(float) + 1j * im.astype(float)


def decimal_pi(digits: int) -> decimal.Decimal:
    """pi to ``digits`` significant digits from the decimal module docs'
    series pi = 3 + 1/8 + 9/640 + ..., summed with guard digits."""
    with decimal.localcontext() as context:
        context.prec = digits + 10
        pi = t = decimal.Decimal(3)
        last, n, na, k, da = 0, 1, 0, 0, 24
        while pi != last:
            last = pi
            n, na = n + na, na + 8
            k, da = k + da, da + 32
            t = (t * n) / k
            pi += t
    with decimal.localcontext() as context:
        context.prec = digits
        return +pi


def decimal_toeplitz_eigenvalues(d: int, digits: int = 60) -> list[decimal.Decimal]:
    """-2 cos(j pi/(d+1)), j = 1..d, rounded to ``digits`` decimal places in
    stdlib decimal arithmetic: pi from ``decimal_pi`` and each cosine from
    its Taylor series, both with guard digits. The guard digits' error is
    absolute, so values that are exactly 0 or +-1 come out exact."""
    with decimal.localcontext() as context:
        context.prec = digits + 10
        pi = decimal_pi(digits + 10)
        values = []
        for j in range(1, d + 1):
            x = j * pi / (d + 1)
            total, term, i = decimal.Decimal(1), decimal.Decimal(1), 0
            while True:
                i += 2
                term = -term * x * x / (i * (i - 1))
                if total + term == total:
                    break
                total += term
            values.append((-2 * total).quantize(decimal.Decimal(10) ** -digits))
    return values


def decimal_recurrence_unitary(d: int, q: int, j1: int, j2: int, step) -> np.ndarray:
    """e^{-i B (q - step)} of the d-mode background B = 2 pi j1 T + (2 pi j2 / q) I
    from the exact q, j1, j2 and step (the float L/N, taken at its binary
    value): the eigenphases (2 pi j1 lambda_j + 2 pi j2 / q)(q - step) formed
    and reduced mod 2 pi in decimal arithmetic with 60 digits beyond q's,
    then assembled in a sine basis computed here. No stored coupling or
    length enters."""
    with decimal.localcontext() as context:
        context.prec = 60 + len(str(q))
        two_pi = 2 * decimal_pi(context.prec)
        length = q - decimal.Decimal(step)
        phases = []
        for lam in decimal_toeplitz_eigenvalues(d, context.prec):
            phase = (two_pi * j1 * lam + two_pi * j2 / q) * length
            phases.append(float(phase - two_pi * (phase / two_pi).to_integral_value()))
    # T sin(m k pi/(d+1)) = 2cos(k pi/(d+1)) sin(m k pi/(d+1)): lambda_j pairs with k = d+1-j
    m, k = np.arange(1, d + 1)[:, None], d + 1 - np.arange(1, d + 1)[None, :]
    basis = np.sqrt(2.0 / (d + 1)) * np.sin(m * k * np.pi / (d + 1))
    return (basis * np.exp(-1j * np.array(phases))) @ basis.T


def exact_gram_schmidt(rows):
    """Gram-Schmidt over Fractions: returns (mu, squared norms of b*)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    n = len(rows)
    ortho = [list(r) for r in rows]
    mu = [[Fraction(0)] * n for _ in range(n)]
    norms = []
    for i in range(n):
        for j in range(i):
            denom = norms[j]
            num = sum(a * b for a, b in zip(rows[i], ortho[j]))
            mu[i][j] = num / denom
            ortho[i] = [a - mu[i][j] * b for a, b in zip(ortho[i], ortho[j])]
        norms.append(sum(a * a for a in ortho[i]))
    return mu, norms


def assert_lll_reduced(rows, delta=Fraction(3, 4)):
    """Exact size-reduction and Lovasz checks."""
    mu, norms = exact_gram_schmidt(rows)
    n = len(rows)
    for i in range(n):
        for j in range(i):
            assert abs(mu[i][j]) <= Fraction(1, 2), f"size reduction fails at ({i},{j})"
    for k in range(1, n):
        lhs = norms[k]
        rhs = (Fraction(delta) - mu[k][k - 1] ** 2) * norms[k - 1]
        assert lhs >= rhs, f"Lovasz condition fails at k={k}"


def gram_determinant(rows) -> int:
    """det of the Gram matrix over exact integers (Bareiss on Fractions)."""
    rows = [[int(x) for x in r] for r in rows]
    n = len(rows)
    g = [[sum(a * b for a, b in zip(rows[i], rows[j])) for j in range(n)] for i in range(n)]
    mat = [[Fraction(x) for x in row] for row in g]
    det = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            mat[col], mat[pivot_row] = mat[pivot_row], mat[col]
            det = -det
        pivot = mat[col][col]
        det *= pivot
        for r in range(col + 1, n):
            factor = mat[r][col] / pivot
            mat[r] = [a - factor * b for a, b in zip(mat[r], mat[col])]
    assert det.denominator == 1
    return int(det)


def in_lattice(vector, basis) -> bool:
    """Exact membership test for a full-rank square integer basis."""
    basis = [[Fraction(x) for x in row] for row in basis]
    n = len(basis)
    # solve c @ basis = vector over Fractions (Gaussian elimination on rows)
    aug = [list(row) + [Fraction(0)] * n for row in basis]
    for i in range(n):
        aug[i][n + i] = Fraction(1)
    # bring basis rows to echelon form, tracking the transform
    mat = [row[:] for row in aug]
    pivots = []
    r = 0
    for c in range(n):
        pivot_row = next((i for i in range(r, n) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pivots.append(c)
        for i in range(n):
            if i != r and mat[i][c] != 0:
                f = mat[i][c] / mat[r][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    if r < n:
        raise ValueError("basis not full rank")
    target = [Fraction(x) for x in vector]
    coeffs = [Fraction(0)] * n
    residual = target[:]
    for row_idx, c in enumerate(pivots):
        f = residual[c] / mat[row_idx][c]
        coeffs_row = mat[row_idx][n:]
        residual = [a - f * b for a, b in zip(residual, mat[row_idx][:n])]
        coeffs = [a + f * b for a, b in zip(coeffs, coeffs_row)]
    if any(x != 0 for x in residual):
        return False
    return all(c.denominator == 1 for c in coeffs)


def brute_force_diophantine(lambdas, eps: float, q_max: int = 10**6):
    """Smallest q <= q_max with max_j |lambda_j q - round(lambda_j q)| <= eps."""
    lam = np.asarray(lambdas, dtype=float)
    for q in range(1, q_max + 1):
        x = lam * q
        if np.max(np.abs(x - np.round(x))) <= eps:
            return q
    return None


def assert_exact_certificate(result, d: int, eps: float) -> None:
    """Re-derive ``result``, a certificate of the d-mode background
    eigenvalues, from its q with those eigenvalues to 100 digits: each
    numerator is the integer nearest lambda_j q, each residual is
    lambda_j q - p_j rounded to a float, and epsilon is the largest
    |residual| plus the solver's margin q / 2^SPECTRUM_BITS rounded to a
    float, with that sum at most ``eps``."""
    from pwa_synth.exact import SPECTRUM_BITS

    q = result.denominator
    lambdas = decimal_toeplitz_eigenvalues(d, 100)
    with decimal.localcontext() as context:
        context.prec = 160
        exact = [lam * q - p for lam, p in zip(lambdas, result.numerators, strict=True)]
        assert all(abs(r) <= decimal.Decimal("0.5") for r in exact)
        assert result.residuals == tuple(float(r) for r in exact)
        certified = max(abs(r) for r in exact) + decimal.Decimal(q) / 2**SPECTRUM_BITS
        assert result.epsilon == float(certified)
        assert certified <= decimal.Decimal(eps)


@pytest.fixture(scope="session")
def pauli_x():
    return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


@pytest.fixture(scope="session")
def hadamard_matrix():
    return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
