import decimal

import pytest

from pwa_synth.exact import SPECTRUM_BITS, FixedValues, pi_fixed, toeplitz_spectrum

from conftest import decimal_pi, decimal_toeplitz_eigenvalues


@pytest.mark.parametrize("bits", [1, 53, 256, 400, 1000])
def test_pi_is_within_one_unit(bits):
    with decimal.localcontext() as context:
        context.prec = 400
        error = decimal.Decimal(pi_fixed(bits)) - decimal_pi(380) * 2**bits
        assert abs(error) < 1


def test_the_spectrum_is_within_its_bound_of_the_true_eigenvalues():
    for d in range(1, 17):
        spectrum = toeplitz_spectrum(d)
        assert (spectrum.bits, spectrum.bound) == (SPECTRUM_BITS, 1)
        with decimal.localcontext() as context:
            context.prec = 200
            for num, lam in zip(spectrum.nums, decimal_toeplitz_eigenvalues(d, 160), strict=True):
                assert abs(decimal.Decimal(num) - lam * 2**SPECTRUM_BITS) <= spectrum.bound


@pytest.mark.parametrize("d", [2, 3, 5, 6, 9])
def test_the_spectrum_is_antisymmetric_and_exact_where_rational(d):
    nums = toeplitz_spectrum(d).nums
    assert nums == tuple(-n for n in reversed(nums))
    # -2cos(j pi/(d+1)) is 0 or -+1 exactly where j/(d+1) is 1/2, 1/3 or 2/3
    one = 1 << SPECTRUM_BITS
    for j, num in enumerate(nums, 1):
        if 2 * j == d + 1:
            assert num == 0
        if 3 * j == d + 1 or 3 * j == 2 * (d + 1):
            assert num == (-one if 3 * j == d + 1 else one)


def test_the_spectrum_is_built_once_per_dimension():
    assert toeplitz_spectrum(7) is toeplitz_spectrum(7)
    assert isinstance(toeplitz_spectrum(7), FixedValues)
    with pytest.raises(ValueError, match="dimension"):
        toeplitz_spectrum(0)
