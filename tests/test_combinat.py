import random
import re
import sys
import tracemalloc
from collections import Counter
from itertools import combinations, permutations, product
from math import factorial

import pytest

from hyperpfaffian.combinat import (
    composition_tilings,
    equal_block_partitions,
    increasing_composition_count,
    increasing_compositions,
    increasing_compositions_summing,
    inversion_sign,
    oriented_partitions,
    oriented_sign,
    partition_sign,
    permutation_sign,
    signed_equal_block_partitions,
    tiling_sign,
)

VALID_NK = [(2, 2), (4, 2), (6, 2), (8, 2), (4, 4), (8, 4), (6, 6)]


def partition_count(n, k):
    return factorial(n) // (factorial(n // k) * factorial(k) ** (n // k))


def signed_partitions_by_labelling(n, k):
    """Every partition of [n] into k-blocks, found among all labellings of
    the elements by n/k block labels (element 1 always in block 0), in
    canonical form, sorted and signed."""
    found = set()
    for rest in product(range(n // k), repeat=n - 1):
        labels = (0, *rest)
        blocks = [tuple(e for e, label in enumerate(labels, 1) if label == b) for b in range(n // k)]
        if all(len(block) == k for block in blocks):
            found.add(tuple(sorted(blocks)))
    return [(partition_sign(blocks), blocks) for blocks in sorted(found)]


class TestPermutationSign:
    def test_identity(self):
        assert permutation_sign((1, 2, 3)) == 1

    def test_transposition(self):
        assert permutation_sign((2, 1)) == -1

    def test_zero_based(self):
        # two inversions: (3,1) and (3,2)
        assert permutation_sign((0, 3, 1, 2)) == 1

    def test_rejects_non_permutations(self):
        with pytest.raises(ValueError):
            permutation_sign((1, 1, 2))
        with pytest.raises(ValueError):
            permutation_sign((2, 3))

    @pytest.mark.parametrize("perm,bad", [((1.0, 2.0), 1.0), ((True, 2), True), ((0, 1, 2.0), 2.0)])
    def test_rejects_inexact_entries(self, perm, bad):
        message = f"permutation entry {bad!r} is not an integer"
        with pytest.raises(ValueError, match=re.escape(message)):
            permutation_sign(perm)

    def test_multiplicative_on_random_pairs(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(1, 7)
            p = rng.sample(range(1, n + 1), n)
            q = rng.sample(range(1, n + 1), n)
            composed = tuple(p[q[i] - 1] for i in range(n))
            assert permutation_sign(composed) == permutation_sign(p) * permutation_sign(q)


class TestEqualBlockPartitions:
    def test_smallest_case(self):
        assert list(equal_block_partitions(2, 2)) == [((1, 2),)]

    def test_matchings_of_four(self):
        assert list(equal_block_partitions(4, 2)) == [
            ((1, 2), (3, 4)),
            ((1, 3), (2, 4)),
            ((1, 4), (2, 3)),
        ]

    @pytest.mark.parametrize("n,k", VALID_NK)
    def test_counts_match_formula(self, n, k):
        seen = list(equal_block_partitions(n, k))
        assert len(seen) == partition_count(n, k)
        assert len(set(seen)) == len(seen)

    def test_large_count(self):
        assert sum(1 for _ in equal_block_partitions(12, 4)) == 5775

    def test_canonical_block_form(self):
        for blocks in equal_block_partitions(6, 2):
            assert all(block == tuple(sorted(block)) for block in blocks)
            assert [block[0] for block in blocks] == sorted(block[0] for block in blocks)

    @pytest.mark.parametrize("n,k", VALID_NK)
    def test_streamed_signs_match_partition_sign(self, n, k):
        for sign, blocks in signed_equal_block_partitions(n, k):
            assert sign == partition_sign(blocks)

    @pytest.mark.parametrize("n,k", VALID_NK + [(12, 4), (12, 6)])
    def test_signed_order_is_the_sorted_brute_force(self, n, k):
        assert list(signed_equal_block_partitions(n, k)) == signed_partitions_by_labelling(n, k)

    def test_one_block_of_a_thousand_answers_at_once(self):
        assert next(signed_equal_block_partitions(1000, 1000)) == (1, (tuple(range(1, 1001)),))

    def test_no_split_table_before_a_second_remainder_of_2k(self):
        # the 6,435 splits of 16 elements as a table take about 2.3 MB
        tracemalloc.start()
        try:
            count = sum(1 for _ in signed_equal_block_partitions(16, 8))
            first = next(signed_equal_block_partitions(24, 8))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == partition_count(16, 8) == 6435
        assert first == (1, (tuple(range(1, 9)), tuple(range(9, 17)), tuple(range(17, 25))))
        assert peak < 1 << 20

    def test_invalid_arguments(self):
        for n, k in [(3, 2), (4, 3), (2, 4), (0, 2), (4, 0)]:
            with pytest.raises(ValueError):
                equal_block_partitions(n, k)


class TestPartitionSign:
    def test_identity_partition(self):
        assert partition_sign(((1, 2), (3, 4))) == 1

    def test_one_inversion(self):
        assert partition_sign(((1, 3), (2, 4))) == -1

    def test_two_inversions(self):
        assert partition_sign(((1, 4), (2, 3))) == 1


class TestOrientedPartitions:
    def test_smallest_case(self):
        assert list(oriented_partitions(2, 2)) == [((1, 2),), ((2, 1),)]

    @pytest.mark.parametrize("n,k,count", [(2, 2, 2), (4, 2, 12), (4, 4, 24), (6, 2, 120), (8, 4, 20160)])
    def test_counts(self, n, k, count):
        assert sum(1 for _ in oriented_partitions(n, k)) == factorial(n) // factorial(n // k)

    @pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (4, 4), (8, 4)])
    def test_orders_are_the_product_of_the_block_orders(self, n, k):
        expected = [orders for blocks in equal_block_partitions(n, k)
                    for orders in product(*(permutations(block) for block in blocks))]
        assert list(oriented_partitions(n, k)) == expected

    def test_first_element_builds_no_block_orders(self):
        # all 8! orders of the one block of (8, 8) take about 5 MB
        tracemalloc.start()
        try:
            first = next(oriented_partitions(8, 8))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first == (tuple(range(1, 9)),)
        assert peak < 1 << 20

    @pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (4, 4)])
    def test_forgetting_orientation_is_uniform(self, n, k):
        fibers = Counter(
            tuple(tuple(sorted(block)) for block in blocks)
            for blocks in oriented_partitions(n, k)
        )
        expected_fiber = factorial(k) ** (n // k)
        assert set(fibers) == set(equal_block_partitions(n, k))
        assert all(size == expected_fiber for size in fibers.values())

    def test_sign_examples(self):
        assert oriented_sign(((1, 2), (3, 4))) == 1
        assert oriented_sign(((2, 1), (3, 4))) == -1
        assert oriented_sign(((9, 1, 2, 4), (5, 3, 8, 10), (11, 12, 7, 6))) == -1

    @pytest.mark.parametrize("n,k", [(2, 2), (4, 2), (6, 2), (4, 4)])
    def test_orientation_sign_factorization(self, n, k):
        # the oriented sign splits into the plain partition sign times the
        # per-block sorting signs
        for blocks in oriented_partitions(n, k):
            plain = tuple(tuple(sorted(block)) for block in blocks)
            per_block = 1
            for block in blocks:
                per_block *= inversion_sign(block)
            assert oriented_sign(blocks) == partition_sign(plain) * per_block

    @pytest.mark.parametrize("n,k", [(6, 2), (4, 4), (12, 4)])
    def test_sign_invariant_under_block_reordering(self, n, k):
        rng = random.Random(n * 100 + k)
        sample = []
        for blocks in oriented_partitions(n, k):
            sample.append(blocks)
            if len(sample) >= 30:
                break
        for blocks in sample:
            shuffled = list(blocks)
            for _ in range(5):
                rng.shuffle(shuffled)
                assert oriented_sign(tuple(shuffled)) == oriented_sign(blocks)


class TestIncreasingCompositions:
    def test_known_small_families(self):
        assert list(increasing_compositions(4, 2)) == [(0, 3), (1, 2)]
        assert list(increasing_compositions(2, 2)) == [(0, 1)]
        assert list(increasing_compositions(4, 4)) == [(0, 1, 2, 3)]

    def test_lexicographic_order_and_validity(self):
        for n, k in [(6, 2), (8, 2), (8, 4), (12, 4)]:
            comps = list(increasing_compositions(n, k))
            assert comps == sorted(comps)
            target = k * (n - 1) // 2
            for comp in comps:
                assert len(comp) == k
                assert all(a < b for a, b in zip(comp, comp[1:]))
                assert comp[0] >= 0
                assert sum(comp) == target

    def test_pair_family_is_complementary(self):
        for n in (2, 4, 6, 8):
            expected = [(i, n - 1 - i) for i in range(n // 2)]
            assert list(increasing_compositions(n, 2)) == expected

    def test_exhaustive_against_brute_force(self):
        from itertools import combinations

        for total, parts in [(3, 2), (6, 3), (14, 4), (5, 1)]:
            brute = [
                combo
                for combo in combinations(range(total + 1), parts)
                if sum(combo) == total
            ]
            assert list(increasing_compositions_summing(total, parts)) == brute
        assert list(increasing_compositions_summing(5, 1)) == [(5,)]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            increasing_compositions(4, 3)
        with pytest.raises(ValueError):
            increasing_compositions(0, 2)

    @pytest.mark.parametrize("total,parts,message", [
        (True, 1, "total must be a nonnegative integer, got True"),
        (3.0, 1, "total must be a nonnegative integer, got 3.0"),
        (3, True, "parts must be a positive integer, got True"),
    ])
    def test_summing_rejects_bool_and_float(self, total, parts, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            increasing_compositions_summing(total, parts)

    def test_more_parts_than_the_recursion_limit(self):
        parts = 2 * sys.getrecursionlimit()
        total = parts * (parts - 1) // 2
        assert list(increasing_compositions_summing(total, parts)) == [tuple(range(parts))]

    def test_count_is_the_enumerated_count(self):
        for k in (2, 4, 6, 8):
            for n in range(1, 21):
                expected = sum(1 for _ in increasing_compositions(n, k))
                assert increasing_composition_count(n, k) == expected, (n, k)

    @pytest.mark.parametrize("n,k", [(80, 8), (100, 10), (41, 40)])
    def test_count_at_sizes_too_large_to_enumerate(self, n, k):
        # partitions of m into at most k parts: p(m, j) = p(m, j - 1) + p(m - j, j)
        table: dict = {}

        def p(m, j):
            if m == 0:
                return 1
            if m < 0 or j == 0:
                return 0
            if (m, j) not in table:
                table[m, j] = p(m, j - 1) + p(m - j, j)
            return table[m, j]

        assert increasing_composition_count(n, k) == p(k * (n - 1) // 2 - k * (k - 1) // 2, k)

    def test_count_validates_like_the_enumerator(self):
        for n, k in [(4, 3), (0, 2), (True, 2), (4, True)]:
            with pytest.raises(ValueError) as enumerated:
                increasing_compositions(n, k)
            with pytest.raises(ValueError, match=re.escape(str(enumerated.value))):
                increasing_composition_count(n, k)


class TestCompositionTilings:
    def test_singleton_family(self):
        assert list(composition_tilings(4, 2)) == [((0, 3), (1, 2))]

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_pair_tilings_are_unique(self, n):
        expected = tuple((i, n - 1 - i) for i in range(n // 2))
        assert list(composition_tilings(n, 2)) == [expected]

    def test_count_at_twelve_four(self):
        assert sum(1 for _ in composition_tilings(12, 4)) == 32

    @pytest.mark.parametrize("n,k", [(4, 2), (8, 2), (8, 4), (12, 4)])
    def test_parts_tile_the_range(self, n, k):
        gamma = set(increasing_compositions(n, k))
        for tiling in composition_tilings(n, k):
            parts = [part for comp in tiling for part in comp]
            assert sorted(parts) == list(range(n))
            assert set(tiling) <= gamma

    @pytest.mark.parametrize("n,k", [(4, 2), (8, 2), (8, 4), (12, 4), (12, 6)])
    def test_order_is_the_sorted_tiling_subsets_of_gamma(self, n, k):
        gamma = list(increasing_compositions(n, k))
        expected = sorted(
            subset for subset in combinations(gamma, n // k)
            if sorted(part for comp in subset for part in comp) == list(range(n))
        )
        assert list(composition_tilings(n, k)) == expected

    def test_more_blocks_than_the_recursion_limit(self):
        n = 2 * (sys.getrecursionlimit() + 200)  # 2400 at the default limit of 1000
        assert list(composition_tilings(n, 2)) == [tuple((i, n - 1 - i) for i in range(n // 2))]

    def test_sign_examples(self):
        assert tiling_sign(((0, 1),)) == 1
        assert tiling_sign(((0, 3), (1, 2))) == 1
        assert tiling_sign(((0, 1, 10, 11), (2, 3, 8, 9), (4, 5, 6, 7))) == 1

    def test_sign_invariant_under_reordering(self):
        rng = random.Random(12)
        for tiling in composition_tilings(12, 4):
            shuffled = list(tiling)
            for _ in range(4):
                rng.shuffle(shuffled)
                assert tiling_sign(tuple(shuffled)) == tiling_sign(tiling)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            composition_tilings(3, 2)
        with pytest.raises(ValueError):
            composition_tilings(8, 6)
