import random
import re
from itertools import product
from math import factorial

import pytest

from hyperpfaffian.combinat import (
    composition_tilings,
    increasing_compositions,
    oriented_partitions,
    oriented_sign,
    permutation_sign,
    tiling_sign,
)
from hyperpfaffian.hpf import SkewSpec, pf_closed_form, pf_definition, skew_function_from_spec
import hyperpfaffian.combinat as combinat
import hyperpfaffian.involution as involution
from hyperpfaffian.involution import (
    WeightedOrientedPartition,
    check_involution,
    compose_distinct,
    decompose_distinct,
    has_distinct_weights,
    pairing_involution,
    smallest_repeated_pair,
    weighted_oriented_partitions,
)
from hyperpfaffian.poly import Polynomial
from hyperpfaffian.randgen import Lcg, random_skew_spec

WORKED_BLOCKS = ((9, 1, 2, 4), (5, 3, 8, 10), (11, 12, 7, 6))
WORKED_WEIGHTS = ((1, 4, 5, 12), (0, 1, 7, 14), (2, 4, 6, 10))


def inadmissible(vector, total):
    """combinat's refusal of a weight 2-tuple that breaks the Gamma-tuple rule."""
    return (f"weight vector {list(vector)} is not a strictly increasing 2-tuple of nonnegative "
            f"integers that sums to {total}")


def worked_example():
    return WeightedOrientedPartition(WORKED_BLOCKS, WORKED_WEIGHTS)


def random_weighted(rng, n, k, want_repeated=None):
    """Uniform-ish random element; optionally resample until the weight
    class matches."""
    vectors = list(increasing_compositions(n, k))
    while True:
        elements = list(range(1, n + 1))
        rng.shuffle(elements)
        blocks = tuple(
            tuple(elements[i * k:(i + 1) * k]) for i in range(n // k)
        )
        weights = tuple(rng.choice(vectors) for _ in range(n // k))
        wop = WeightedOrientedPartition(blocks, weights)
        if want_repeated is None or has_distinct_weights(wop) != want_repeated:
            return wop


class TestConstruction:
    def test_blocks_normalized_by_minimum(self):
        wop = WeightedOrientedPartition(((3, 4), (2, 1)), ((0, 3), (1, 2)))
        assert wop.blocks == ((2, 1), (3, 4))
        assert wop.weights == ((1, 2), (0, 3))

    @pytest.mark.parametrize("blocks,weights,message", [
        ((), (), "need the same positive number of blocks and weight vectors"),
        (((1, 2),), (), "need the same positive number of blocks and weight vectors"),
        (((1,), (2,)), ((0,), (1,)), "block size k must be a positive even integer, got k=1"),
        (((1, 2, 3),), ((0, 1, 2),), "block size k must be a positive even integer, got k=3"),
    ], ids=["empty", "unmatched", "odd-one", "odd-three"])
    def test_rejects_unmatched_or_odd_blocks(self, blocks, weights, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            WeightedOrientedPartition(blocks, weights)

    def test_fields_cannot_be_assigned_or_deleted(self):
        wop = worked_example()
        for name in WeightedOrientedPartition.__slots__:
            value = getattr(wop, name)
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(wop, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(wop, name)
            assert getattr(wop, name) is value
        with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
            wop.extra = 1

    def test_equality_leaves_other_types_to_themselves(self):
        class Reflected:  # answers == with its name
            __eq__ = lambda self, other: "eq"

        assert (worked_example() == Reflected()) == "eq"
        assert worked_example() == worked_example() != WeightedOrientedPartition(
            ((1, 2), (3, 4)), ((0, 3), (1, 2)))

    def test_weights_travel_with_blocks(self):
        wop = worked_example()
        assert wop.blocks == WORKED_BLOCKS
        assert wop.weights == WORKED_WEIGHTS

    def test_rejects_non_partitions(self):
        with pytest.raises(ValueError):
            WeightedOrientedPartition(((1, 2), (2, 3)), ((0, 3), (1, 2)))

    def test_rejects_bad_weight_vectors(self):
        with pytest.raises(ValueError):
            WeightedOrientedPartition(((1, 2), (3, 4)), ((3, 0), (1, 2)))
        with pytest.raises(ValueError):
            WeightedOrientedPartition(((1, 2), (3, 4)), ((0, 1), (1, 2)))

    @pytest.mark.parametrize("bad", [5, None])
    def test_rejects_a_weight_vector_that_is_not_iterable(self, bad):
        message = (f"weight vector {bad!r} is not a strictly increasing 2-tuple of "
                   f"nonnegative integers that sums to 3")
        with pytest.raises(ValueError, match=re.escape(message)):
            WeightedOrientedPartition(((1, 2), (3, 4)), (bad, (1, 2)))

    def test_rejects_a_negative_first_weight(self):
        with pytest.raises(ValueError, match=re.escape(inadmissible((-1, 4), 3))):
            WeightedOrientedPartition(((1, 2), (3, 4)), ((-1, 4), (1, 2)))

    @pytest.mark.parametrize("blocks,weights,message", [
        (((1.0, 2.0),), ((0.0, 1.0),), "block element 1.0 is not an integer"),
        (((True, 2),), ((False, True),), "block element True is not an integer"),
        (((1, 2),), ((0.0, 1.0),), inadmissible((0.0, 1.0), 1)),
        (((2, 1), (3, 4)), ((0, 3), (True, 2)), inadmissible((True, 2), 3)),
    ])
    def test_rejects_inexact_elements_and_weights(self, blocks, weights, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            WeightedOrientedPartition(blocks, weights)

    def test_derived_quantities(self):
        wop = worked_example()
        assert (wop.n, wop.k) == (12, 4)
        assert wop.sign == -1
        assert wop.weight_of[9 - 1] == 1
        assert wop.weight_of[5 - 1] == 0
        expected = Polynomial.monomial(
            {1: 4, 2: 5, 3: 1, 4: 12, 6: 10, 7: 6, 8: 7, 9: 1, 10: 14, 11: 2, 12: 4}
        )
        assert wop.weight_monomial() == expected

    def test_orders_of_a_single_block(self):
        wop = WeightedOrientedPartition(((2, 1),), ((0, 1),))
        assert (wop.n, wop.k, wop.sign, wop.weight_of) == (2, 2, -1, (1, 0))

    def test_coefficient_multiplies_spec_lookups(self):
        spec = SkewSpec(12, 4, {(1, 4, 5, 12): 2, (0, 1, 7, 14): 3, (2, 4, 6, 10): 5})
        assert worked_example().coefficient(spec) == 30
        missing = SkewSpec(12, 4, {(1, 4, 5, 12): 2})
        assert worked_example().coefficient(missing) == 0


class TestEnumeration:
    @pytest.mark.parametrize(
        "n,k,count",
        [(2, 2, 2), (4, 2, 48), (4, 4, 24), (6, 2, 3240)],
    )
    def test_counts(self, n, k, count):
        assert sum(1 for _ in weighted_oriented_partitions(n, k)) == count

    def test_count_formula(self):
        for n, k in [(2, 2), (4, 2), (4, 4), (6, 2)]:
            gamma = sum(1 for _ in increasing_compositions(n, k))
            expected = factorial(n) // factorial(n // k) * gamma ** (n // k)
            assert sum(1 for _ in weighted_oriented_partitions(n, k)) == expected

    def test_distinct_elements(self):
        seen = list(weighted_oriented_partitions(4, 2))
        assert len(set(seen)) == len(seen)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            weighted_oriented_partitions(3, 2)

    def test_order_is_pinned(self):
        elements = list(weighted_oriented_partitions(6, 2))
        assert repr(elements[0]) == ("WeightedOrientedPartition(blocks=((1, 2), (3, 4), (5, 6)), "
                                     "weights=((0, 5), (0, 5), (0, 5)))")
        assert repr(elements[-1]) == ("WeightedOrientedPartition(blocks=((6, 1), (5, 2), (4, 3)), "
                                      "weights=((2, 3), (2, 3), (2, 3)))")


class TestTrustedConstruction:
    """The walk builds its elements and pairing images without validating;
    each must be the element the public constructor builds from the same
    blocks and weights."""

    @staticmethod
    def assert_validated_twin(wop):
        twin = WeightedOrientedPartition(wop.blocks, wop.weights)
        assert wop == twin
        assert hash(wop) == hash(twin)
        assert repr(wop) == repr(twin)
        assert wop.weight_of == twin.weight_of
        assert wop.sign == twin.sign == oriented_sign(wop.blocks)

    @pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (4, 4), (6, 6)])
    def test_walk_and_images_match_the_public_constructor(self, n, k):
        for wop in weighted_oriented_partitions(n, k):
            self.assert_validated_twin(wop)
            if not has_distinct_weights(wop):
                self.assert_validated_twin(pairing_involution(wop))

    def test_images_are_the_swapped_elements_after_walks_at_other_orders(self):
        # the plan memo is shared by every (n, k) of the process: a plan key
        # that leaves out what an image depends on gives a wrong image here
        involution._swap_plan.cache_clear()
        for n, k in [(4, 2), (6, 2), (4, 2)]:
            for wop in weighted_oriented_partitions(n, k):
                if has_distinct_weights(wop):
                    continue
                i, j = smallest_repeated_pair(wop)
                swapped = [[i if c == j else j if c == i else c for c in block]
                           for block in wop.blocks]
                image = pairing_involution(wop)
                back = pairing_involution(image)
                assert image == WeightedOrientedPartition(swapped, wop.weights)
                self.assert_validated_twin(image)
                self.assert_validated_twin(back)
                assert back == wop
                assert (back.weight_of, back.sign) == (wop.weight_of, wop.sign)

    def test_only_compose_distinct_validates_in_the_walk(self, monkeypatch):
        validated = []  # per validation: whether compose_distinct asked for it
        composing = []
        init = WeightedOrientedPartition.__init__
        compose = involution.compose_distinct

        def counting_init(wop, blocks, weights):
            validated.append(bool(composing))
            init(wop, blocks, weights)

        def counting_compose(perm, tiling):
            composing.append(perm)
            try:
                return compose(perm, tiling)
            finally:
                composing.pop()

        monkeypatch.setattr(WeightedOrientedPartition, "__init__", counting_init)
        monkeypatch.setattr(involution, "compose_distinct", counting_compose)
        check = check_involution(random_skew_spec(4, 2, Lcg(6)))
        assert check.failure is None
        assert validated == [True] * check.distinct == [True] * 24


class TestWrappersAndCores:
    """The public functions wrap the tuple-level cores the check walks:
    each gives, on every element, what its core gives on the element tuple."""

    @pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (4, 4)])
    def test_each_wrapper_gives_what_its_core_gives(self, n, k):
        assignments = [(weights, (involution._flat(weights),))
                       for weights in product(increasing_compositions(n, k), repeat=n // k)]
        elements = [element for element, _ in
                    involution._elements(oriented_partitions(n, k), assignments)]
        wops = list(weighted_oriented_partitions(n, k))
        assert [involution._fields(wop) for wop in wops] == elements
        paired = 0
        for wop, element in zip(wops, elements):
            if has_distinct_weights(wop):
                assert decompose_distinct(wop) == (involution._permutation(element[2]),
                                                   involution._tiling(element[1]))
            else:
                assert smallest_repeated_pair(wop) == involution._repeated_pair(element[2])
                assert involution._fields(pairing_involution(wop)) == involution._pair(element)
                paired += 1
        assert paired == len(wops) - factorial(n) * sum(1 for _ in composition_tilings(n, k))


class TestClassification:
    def test_worked_example_is_repeated(self):
        assert not has_distinct_weights(worked_example())

    def test_single_block_distinct(self):
        wop = WeightedOrientedPartition(((1, 2),), ((0, 1),))
        assert has_distinct_weights(wop)

    def test_same_vector_twice_is_repeated(self):
        wop = WeightedOrientedPartition(((1, 2), (3, 4)), ((1, 2), (1, 2)))
        assert not has_distinct_weights(wop)

    def test_distinct_weights_are_exactly_the_range(self):
        for wop in weighted_oriented_partitions(6, 2):
            if has_distinct_weights(wop):
                assert sorted(wop.weight_of) == list(range(6))


class TestPairingInvolution:
    def test_worked_example_pair_and_image(self):
        wop = worked_example()
        assert smallest_repeated_pair(wop) == (1, 12)
        image = pairing_involution(wop)
        expected = WeightedOrientedPartition(
            ((9, 12, 2, 4), (5, 3, 8, 10), (11, 1, 7, 6)), WORKED_WEIGHTS
        )
        assert image == expected

    def test_single_repeated_pair_is_swapped(self):
        wop = WeightedOrientedPartition(((1, 2), (3, 4)), ((0, 3), (0, 3)))
        image = pairing_involution(wop)
        # weights: 1 and 3 carry 0; 2 and 4 carry 3; smallest pair is (1, 3);
        # the swapped blocks (3, 2) and (1, 4) reorder by minimum element
        assert smallest_repeated_pair(wop) == (1, 3)
        assert image.blocks == ((1, 4), (3, 2))

    def test_rejects_distinct_weights(self):
        wop = WeightedOrientedPartition(((1, 2),), ((0, 1),))
        assert smallest_repeated_pair(wop) is None
        with pytest.raises(ValueError):
            pairing_involution(wop)

    def test_involution_properties_on_random_elements(self):
        rng = random.Random(2024)
        spec = random_skew_spec(6, 2, Lcg(9))
        for _ in range(1000):
            wop = random_weighted(rng, 6, 2, want_repeated=True)
            image = pairing_involution(wop)
            assert image != wop
            assert not has_distinct_weights(image)
            assert pairing_involution(image) == wop
            assert image.sign == -wop.sign
            assert image.weight_monomial() == wop.weight_monomial()
            assert image.coefficient(spec) == wop.coefficient(spec)


def exhaustive_pairing_check(n, k, spec):
    """Every repeated element pairs off; distinct elements factor with
    multiplicative signs.  Returns (total, repeated, distinct)."""
    total = repeated = distinct = 0
    factorizations = set()
    for wop in weighted_oriented_partitions(n, k):
        total += 1
        if has_distinct_weights(wop):
            distinct += 1
            perm, tiling = decompose_distinct(wop)
            assert wop.sign == tiling_sign(tiling) * permutation_sign(perm)
            assert compose_distinct(perm, tiling) == wop
            factorizations.add((perm, tiling))
        else:
            repeated += 1
            image = pairing_involution(wop)
            assert image != wop
            assert not has_distinct_weights(image)
            assert pairing_involution(image) == wop
            assert image.sign == -wop.sign
            assert image.weight_monomial() == wop.weight_monomial()
            assert image.coefficient(spec) == wop.coefficient(spec)
    assert len(factorizations) == distinct
    return total, repeated, distinct


class TestExhaustiveSmallCases:
    def test_four_two(self):
        spec = random_skew_spec(4, 2, Lcg(5))
        total, repeated, distinct = exhaustive_pairing_check(4, 2, spec)
        assert (total, repeated, distinct) == (48, 24, 24)
        tilings = sum(1 for _ in composition_tilings(4, 2))
        assert distinct == factorial(4) * tilings

    def test_four_four(self):
        spec = random_skew_spec(4, 4, Lcg(6))
        total, repeated, distinct = exhaustive_pairing_check(4, 4, spec)
        # the single weight vector makes every element distinct-weighted
        assert (total, repeated, distinct) == (24, 0, 24)
        assert distinct == factorial(4) * 1

    def test_six_two_bijection_count(self):
        distinct = sum(
            1 for wop in weighted_oriented_partitions(6, 2) if has_distinct_weights(wop)
        )
        tilings = sum(1 for _ in composition_tilings(6, 2))
        assert distinct == factorial(6) * tilings == 720


class TestDecomposition:
    def test_identity_orientation(self):
        wop = WeightedOrientedPartition(((1, 2),), ((0, 1),))
        perm, tiling = decompose_distinct(wop)
        assert perm == (1, 2)
        assert tiling == ((0, 1),)
        assert wop.sign == tiling_sign(tiling) * permutation_sign(perm) == 1

    def test_reversed_orientation(self):
        wop = WeightedOrientedPartition(((2, 1),), ((0, 1),))
        perm, tiling = decompose_distinct(wop)
        assert perm == (2, 1)
        assert wop.sign == -1 == tiling_sign(tiling) * permutation_sign(perm)

    def test_rejects_repeated_weights(self):
        with pytest.raises(ValueError):
            decompose_distinct(worked_example())

    def test_compose_validates(self):
        with pytest.raises(ValueError):
            compose_distinct((1, 1), ((0, 1),))
        with pytest.raises(ValueError):
            compose_distinct((1, 2, 3, 4), ((0, 3), (0, 3)))

    def test_compose_refuses_a_weight_outside_the_permutation(self):
        message = "weight 5 does not occur in the permutation"
        with pytest.raises(ValueError, match=re.escape(message)):
            compose_distinct((2, 1), ((0, 5),))

    @pytest.mark.parametrize("tiling,message", [
        (((0, 1), (2, 3)), inadmissible((0, 1), 3)),
        (((3, 0), (1, 2)), inadmissible((3, 0), 3)),
    ], ids=["sum", "order"])
    def test_compose_refuses_inadmissible_vectors(self, tiling, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            compose_distinct((1, 2, 3, 4), tiling)

    @pytest.mark.parametrize("perm,bad", [((1.0, 2.0), 1.0), ((2, True), True)])
    def test_compose_rejects_inexact_permutation_entries(self, perm, bad):
        message = f"permutation entry {bad!r} is not an integer"
        with pytest.raises(ValueError, match=re.escape(message)):
            compose_distinct(perm, ((0, 1),))

    def test_compose_keeps_a_type_error_the_rule_admits(self):
        class Unhashable(int):
            __hash__ = None

        with pytest.raises(TypeError, match="unhashable"):
            compose_distinct((1, 2, 3, 4), ((Unhashable(0), 3), (1, 2)))


class TestSignedWeightedSum:
    """The two class sums of check_involution: together the partition sum,
    the repeated class zero, the distinct class the closed form."""

    def test_smallest_case(self):
        spec = SkewSpec(2, 2, {(0, 1): 4})
        x1, x2 = Polynomial.variable(1), Polynomial.variable(2)
        check = check_involution(spec)
        assert check.repeated_sum + check.distinct_sum == 4 * (x2 - x1)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_full_sum_is_the_partition_sum(self, seed):
        spec = random_skew_spec(4, 2, Lcg(seed))
        expected = pf_definition(skew_function_from_spec(spec))
        check = check_involution(spec)
        assert check.repeated_sum + check.distinct_sum == expected

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_repeated_class_cancels(self, seed):
        spec = random_skew_spec(4, 2, Lcg(seed))
        assert check_involution(spec).repeated_sum.is_zero()

    @pytest.mark.parametrize("seed", [1, 2])
    def test_distinct_class_gives_closed_form(self, seed):
        spec = random_skew_spec(4, 2, Lcg(seed))
        assert check_involution(spec).distinct_sum == pf_closed_form(spec)

    def test_six_two_split(self):
        spec = random_skew_spec(6, 2, Lcg(8))
        check = check_involution(spec)
        full = check.repeated_sum + check.distinct_sum
        assert check.repeated_sum.is_zero()
        assert check.distinct_sum == full == pf_closed_form(spec)

    @pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (4, 4), (6, 6)])
    def test_sums_are_the_checked_construction(self, n, k):
        # the class sums, built from trusted exponent vectors, against the
        # sum of every element's term keyed by its (variable, exponent) pairs
        # and built by the checking constructor
        spec = random_skew_spec(n, k, Lcg(n * k))
        sums = ({}, {})
        for wop in weighted_oriented_partitions(n, k):
            mono = tuple((v, e) for v, e in enumerate(wop.weight_of, 1) if e)
            terms = sums[has_distinct_weights(wop)]
            terms[mono] = terms.get(mono, 0) + wop.sign * wop.coefficient(spec)
        check = check_involution(spec)
        for built, terms in zip((check.repeated_sum, check.distinct_sum), sums):
            old = Polynomial({mono: c for mono, c in terms.items() if c})
            assert built == old and built.terms == old.terms
        assert check.distinct_sum == pf_closed_form(spec) != 0

    def test_rejects_deficient_degree(self):
        spec = SkewSpec(4, 2, {(0, 1): 1}, degree=1)
        with pytest.raises(ValueError):
            check_involution(spec)


class TestCheckInvolution:
    @pytest.mark.parametrize("n,k", [(4, 2), (4, 4), (6, 2)])
    def test_counts_are_the_closed_forms(self, n, k):
        check = check_involution(random_skew_spec(n, k, Lcg(n + k)))
        gamma = sum(1 for _ in increasing_compositions(n, k))
        tilings = sum(1 for _ in composition_tilings(n, k))
        elements = factorial(n) // factorial(n // k) * gamma ** (n // k)
        assert check.failure is None
        assert (check.elements, check.tilings) == (elements, tilings)
        assert check.distinct == factorial(n) * tilings
        assert check.repeated == elements - check.distinct

    def test_sums_cover_every_element_after_a_failure(self, monkeypatch):
        spec = random_skew_spec(4, 2, Lcg(3))
        monkeypatch.setattr(involution, "_pair", lambda element: element)
        check = check_involution(spec)
        assert check.failure.startswith("pairing involution misbehaves on ")
        assert (check.elements, check.repeated, check.distinct) == (48, 24, 24)
        assert check.repeated_sum.is_zero()
        assert check.distinct_sum == pf_definition(skew_function_from_spec(spec))


class TestWalkMechanism:
    """Signs are computed once per oriented partition and once per swap
    plan, not once per element."""

    @staticmethod
    def count_calls(monkeypatch, module, name):
        calls = []
        real = getattr(module, name)

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(module, name, counting)
        return calls

    def test_enumerator_lays_out_each_oriented_partition_once(self, monkeypatch):
        signs = self.count_calls(monkeypatch, involution, "oriented_sign")
        getters = self.count_calls(monkeypatch, involution, "_weight_getter")
        assert sum(1 for _ in weighted_oriented_partitions(6, 2)) == 3240
        assert len(signs) == len(getters) == factorial(6) // factorial(3) == 120

    def test_inversion_signs_in_the_walk(self, monkeypatch):
        # 120 oriented partitions, 360 swap plans, two signs per distinct
        # element (its permutation and compose_distinct's constructor), and
        # one tiling sign per distinct assignment: each tiling's n/k vectors
        # in each of the (n/k)! block orders
        involution._swap_plan.cache_clear()
        calls = self.count_calls(monkeypatch, combinat, "inversion_sign")
        check = check_involution(random_skew_spec(6, 2, Lcg(8)))
        assert check.failure is None
        assert involution._swap_plan.cache_info().misses == 360
        distinct_assignments = check.tilings * factorial(6 // 2)
        assert len(calls) == 120 + 360 + 2 * check.distinct + distinct_assignments == 1926

    @pytest.mark.parametrize("n,k,assignments", [(6, 2, 27), (8, 2, 256)])
    def test_spec_coefficients_multiplied_once_per_assignment(self, monkeypatch, n, k,
                                                              assignments):
        products = self.count_calls(monkeypatch, involution, "prod")
        check = check_involution(random_skew_spec(n, k, Lcg(n)))
        gamma = sum(1 for _ in increasing_compositions(n, k))
        assert check.failure is None
        assert len(products) == gamma ** (n // k) == assignments
