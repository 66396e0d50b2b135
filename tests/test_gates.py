import numpy as np
import pytest

from pwa_synth import (
    clock,
    dft,
    haar_random_unitary,
    named_gate,
    operator_norm,
    shift,
    unitarity_defect,
)

DIMS = [2, 3, 4, 5, 7]


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("build", [dft, clock, shift])
def test_all_gates_unitary(build, d):
    assert unitarity_defect(build(d)) <= 1e-12


def test_dft_d2_is_hadamard(hadamard_matrix):
    np.testing.assert_allclose(dft(2), hadamard_matrix, atol=1e-15)


def test_dft_first_column_uniform():
    np.testing.assert_allclose(dft(4)[:, 0], np.full(4, 0.5), atol=1e-15)


def test_dft_entry_formula():
    d = 5
    w = dft(d)
    omega = np.exp(2j * np.pi / d)
    for j in range(d):
        for k in range(d):
            assert w[j, k] == pytest.approx(omega ** ((d - j) * k) / np.sqrt(d), abs=1e-12)


def test_clock_d2():
    np.testing.assert_allclose(clock(2), np.diag([1.0, -1.0]), atol=1e-15)


def test_clock_d4():
    np.testing.assert_allclose(clock(4), np.diag([1.0, 1j, -1.0, -1j]), atol=1e-15)


@pytest.mark.parametrize("d", DIMS)
def test_clock_order_d(d):
    z = clock(d)
    assert operator_norm(np.linalg.matrix_power(z, d) - np.eye(d)) <= 1e-12


def test_shift_d2_is_pauli_x(pauli_x):
    np.testing.assert_array_equal(shift(2), pauli_x)


def test_shift_moves_basis_states():
    x = shift(3)
    e0 = np.array([1.0, 0.0, 0.0])
    np.testing.assert_array_equal(x @ e0, [0.0, 1.0, 0.0])


@pytest.mark.parametrize("d", DIMS)
def test_shift_is_permutation_with_order_d(d):
    x = shift(d)
    assert np.array_equal(np.abs(x) > 0, np.abs(x) > 0.5)  # 0/1 entries
    np.testing.assert_array_equal(np.linalg.matrix_power(x, d), np.eye(d))


@pytest.mark.parametrize("d", DIMS)
def test_dft_diagonalizes_shift(d):
    w = dft(d)
    conjugated = w.conj().T @ shift(d) @ w
    off = conjugated - np.diag(np.diagonal(conjugated))
    assert operator_norm(off) <= 1e-10


@pytest.mark.parametrize("d", DIMS)
def test_weyl_commutation(d):
    z, x = clock(d), shift(d)
    omega = np.exp(2j * np.pi / d)
    assert operator_norm(z @ x - omega * x @ z) <= 1e-12


@pytest.mark.parametrize("build", [dft, clock, shift])
def test_rejects_small_dimension(build):
    with pytest.raises(ValueError):
        build(1)


def test_named_gate_strings():
    np.testing.assert_array_equal(named_gate("shift", 4), shift(4))
    np.testing.assert_array_equal(named_gate("identity", 3), np.eye(3))
    np.testing.assert_array_equal(named_gate("haar:7", 3), haar_random_unitary(3, 7))
    with pytest.raises(ValueError, match="unknown gate"):
        named_gate("qft", 3)
    for spec in ("haar:x", "haar:-1"):
        with pytest.raises(ValueError, match=f"^bad Haar gate spec '{spec}', expected haar:<seed>$"):
            named_gate(spec, 3)


def test_named_gate_validation():
    with pytest.raises(ValueError, match="2x2"):
        named_gate("hadamard", 3)
    with pytest.raises(ValueError, match=">= 2"):
        named_gate("dft", 1)
    assert named_gate("pauli-x", 2)[0, 1] == 1.0
