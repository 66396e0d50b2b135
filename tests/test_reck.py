import numpy as np
import pytest

from pwa_synth import (
    adjacent_expand,
    count_sections,
    haar_random_unitary,
    operator_norm,
    reconstruct_adjacent,
    reconstruct_factors,
    shift,
    two_level_decompose,
)
from pwa_synth.reck import embed_two_level


class TestTwoLevelDecompose:
    def test_identity_gives_identity_cores(self):
        factors = two_level_decompose(np.eye(4))
        assert len(factors) == 6
        for f in factors:
            np.testing.assert_allclose(f.core, np.eye(2), atol=1e-12)

    def test_single_2x2_factor_inverts_input(self):
        u = haar_random_unitary(2, 1)
        factors = two_level_decompose(u)
        assert len(factors) == 1
        applied = embed_two_level(factors[0].core, 1, 2, 2) @ u
        assert operator_norm(applied - np.eye(2)) <= 1e-10

    def test_reconstruction_d4(self):
        u = haar_random_unitary(4, 7)
        factors = two_level_decompose(u)
        assert operator_norm(u - reconstruct_factors(factors, 4)) <= 1e-9

    def test_factor_count(self):
        for d in (2, 3, 5, 6):
            u = haar_random_unitary(d, d)
            assert len(two_level_decompose(u)) == d * (d - 1) // 2

    def test_nulling_progress(self):
        # after the factor targeting (high, low), that entry of the running
        # product is (numerically exactly) zero
        d = 5
        u = haar_random_unitary(d, 3)
        running = u.copy()
        for f in two_level_decompose(u):
            running = embed_two_level(f.core, f.low, f.high, d) @ running
            assert abs(running[f.high - 1, f.low - 1]) <= 1e-10
        assert operator_norm(running - np.eye(d)) <= 1e-9

    def test_elimination_order(self):
        factors = two_level_decompose(haar_random_unitary(4, 0))
        pairs = [(f.low, f.high) for f in factors]
        assert pairs == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]

    def test_permutation_input_hits_degenerate_pivot(self):
        # columns of shift powers have zero pivots; those factors are identity
        d = 4
        u = np.linalg.matrix_power(shift(d), 2)
        factors = two_level_decompose(u)
        assert operator_norm(u - reconstruct_factors(factors, d)) <= 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            two_level_decompose(np.ones((3, 3)))

    def test_global_phase_exact(self):
        u = np.exp(0.37j) * haar_random_unitary(3, 5)
        factors = two_level_decompose(u)
        assert operator_norm(u - reconstruct_factors(factors, 3)) <= 1e-9


class TestCountSections:
    @pytest.mark.parametrize("d,expected", [(2, 1), (3, 5), (4, 14), (5, 30), (8, 140)])
    def test_closed_form(self, d, expected):
        assert count_sections(d) == expected
        assert count_sections(d) == d * (d - 1) * (2 * d - 1) // 6

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            count_sections(1)


class TestAdjacentExpand:
    def test_adjacent_factor_is_single_op(self):
        u = haar_random_unitary(2, 4)
        factors = two_level_decompose(u)
        ops = adjacent_expand(factors, 2)
        assert len(ops) == 1
        assert ops[0].mode == 1
        np.testing.assert_array_equal(ops[0].matrix, factors[0].core.conj().T)

    def test_chain_structure_for_distant_factor(self):
        # the (high, low) = (5, 2) factor walks mode 5 down to 3 and back:
        # two transpositions per side around the core at mode 2
        d = 5
        u = haar_random_unitary(d, 2)
        factors = two_level_decompose(u)
        target = next(f for f in factors if (f.low, f.high) == (2, 5))
        ops = adjacent_expand([target], d)
        assert [op.mode for op in ops] == [4, 3, 2, 3, 4]
        for op in ops[:2] + ops[3:]:
            np.testing.assert_array_equal(op.matrix, [[0, 1], [1, 0]])
        np.testing.assert_array_equal(ops[2].matrix, target.core.conj().T)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_op_count_matches_closed_form(self, d):
        u = haar_random_unitary(d, d + 20)
        ops = adjacent_expand(two_level_decompose(u), d)
        assert len(ops) == count_sections(d)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
    def test_reconstruction(self, d):
        for seed in range(3):
            u = haar_random_unitary(d, seed)
            ops = adjacent_expand(two_level_decompose(u), d)
            assert operator_norm(u - reconstruct_adjacent(ops, d)) <= 1e-8

    def test_prune_identity_drops_whole_factors(self):
        d = 3
        ops = adjacent_expand(two_level_decompose(np.eye(d)), d, prune_identity=True)
        assert ops == []
        u = haar_random_unitary(d, 1)
        ops = adjacent_expand(two_level_decompose(u), d, prune_identity=True)
        assert operator_norm(u - reconstruct_adjacent(ops, d)) <= 1e-8

    def test_rejects_inconsistent_dimension(self):
        factors = two_level_decompose(haar_random_unitary(4, 0))
        with pytest.raises(ValueError, match="inconsistent"):
            adjacent_expand(factors, 3)
