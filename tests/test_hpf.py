import random
import re
import time
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from hyperpfaffian.combinat import increasing_compositions_summing, permutation_sign
from hyperpfaffian.hpf import (
    SkewFunction,
    SkewSpec,
    pf_closed_form,
    pf_definition,
    pf_exterior,
    relabel,
    skew_expand,
    skew_function_at,
    skew_function_from_spec,
    skew_function_from_spec_at,
    theorem_coefficient,
    torelli_constant,
    torelli_spec,
)
from hyperpfaffian.poly import Polynomial, vandermonde
from hyperpfaffian.randgen import Lcg, check_point_order, random_point, random_skew_spec


def x(i):
    return Polynomial.variable(i)


def symbolic_skew_function(n, k):
    """One fresh variable per sorted subset: fully generic values."""
    values = {
        subset: Polynomial.variable(i + 1)
        for i, subset in enumerate(combinations(range(1, n + 1), k))
    }
    return SkewFunction(n, k, values)


def scalar_random_skew_function(n, k, rng, fractions=False):
    values = {}
    for subset in combinations(range(1, n + 1), k):
        if fractions:
            values[subset] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        else:
            values[subset] = rng.randint(-9, 9)
    return SkewFunction(n, k, values)


def deficient_spec(n, k, rng):
    """Random homogeneous spec of the largest admissible degree below the
    closed-form threshold."""
    degree = k * (n - 1) // 2 - k
    coeffs = {}
    for exponents in increasing_compositions_summing(degree, k):
        coeff = rng.randint(-9, 9)
        if coeff:
            coeffs[exponents] = coeff
    return SkewSpec(n, k, coeffs, degree)


class TestSkewSpec:
    def test_degree_defaults_to_closed_form_degree(self):
        spec = SkewSpec(6, 2, {(1, 4): 2})
        assert spec.degree == 5 == spec.full_degree

    def test_rejects_bad_exponent_tuples(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SkewSpec(4, 2, {(2, 1): 1})
        with pytest.raises(ValueError, match="sums to"):
            SkewSpec(4, 2, {(0, 2): 1})
        with pytest.raises(ValueError, match="rational"):
            SkewSpec(4, 2, {(0, 3): 0.5})

    def test_rejects_a_negative_first_exponent(self):
        message = "exponent tuple [-1, 2] is not strictly increasing"
        with pytest.raises(ValueError, match=re.escape(message)):
            SkewSpec(2, 2, {(-1, 2): 1})

    def test_rejects_bool_coefficient(self):
        with pytest.raises(ValueError, match=re.escape("(0, 1) is not an exact rational: True")):
            SkewSpec(2, 2, {(0, 1): True})

    def test_rejects_bool_exponents(self):
        with pytest.raises(ValueError, match=re.escape("[False, True] is not a 2-tuple of integers")):
            SkewSpec(2, 2, {(False, True): 1})
        with pytest.raises(ValueError, match=re.escape("exponent False is not an integer")):
            torelli_spec(4).coefficient((False, 3))

    def test_rejects_float_exponents(self):
        with pytest.raises(ValueError, match=re.escape("[0.0, 3.0] is not a 2-tuple of integers")):
            SkewSpec(4, 2, {(0.0, 3.0): 1})
        with pytest.raises(ValueError, match=re.escape("exponent 0.0 is not an integer")):
            torelli_spec(4).coefficient((0.0, 3.0))

    @pytest.mark.parametrize(
        "n,degree,message",
        [(True, 0, "order n must be a positive integer, got True"),
         (2, False, "degree must be a nonnegative integer, got False")],
    )
    def test_rejects_bool_order_and_degree(self, n, degree, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SkewSpec(n, 2, {}, degree=degree)

    def test_absent_coefficients_read_as_zero(self):
        spec = SkewSpec(4, 2, {(0, 3): 1})
        assert spec.coefficient((1, 2)) == 0
        assert spec.coefficient((0, 3)) == 1

    def test_rejects_two_keys_of_one_exponent_tuple(self):
        with pytest.raises(ValueError, match=re.escape("duplicate exponent tuple [0, 1]")):
            SkewSpec(2, 2, {(0, 1): 1, range(2): 2})

    def test_equality_reads_every_field(self):
        spec = torelli_spec(4)
        assert spec == SkewSpec(4, 2, {(1, 2): -3, (0, 3): 1})
        assert spec.__eq__(spec.coeffs) is NotImplemented
        for one, other in [  # each pair differs in one field: n, k, degree, coeffs
                (SkewSpec(4, 2, {}, degree=3), SkewSpec(6, 2, {}, degree=3)),
                (SkewSpec(4, 2, {}, degree=0), SkewSpec(4, 4, {}, degree=0)),
                (SkewSpec(4, 2, {}), SkewSpec(4, 2, {}, degree=2)),
                (spec, SkewSpec(4, 2, {(0, 3): 1}))]:
            assert one != other
        with pytest.raises(TypeError):
            hash(spec)

    def test_repr_names_every_field(self):
        assert repr(torelli_spec(4)) == (
            "SkewSpec(n=4, k=2, degree=3, coeffs={(0, 3): 1, (1, 2): -3})")


class TestSkewExpand:
    def test_smallest_case(self):
        spec = SkewSpec(2, 2, {(0, 1): 1})
        assert skew_expand(spec) == x(2) - x(1)

    def test_binomial_power_spec(self):
        assert skew_expand(torelli_spec(4)) == (x(2) - x(1)) ** 3

    def test_full_arity_unit_spec_is_vandermonde(self):
        spec = SkewSpec(4, 4, {(0, 1, 2, 3): 1})
        assert skew_expand(spec) == vandermonde(4)

    def test_term_count(self):
        rng = Lcg(3)
        spec = random_skew_spec(6, 2, rng)
        assert len(skew_expand(spec).terms) == 2 * len(spec.coeffs)

    @pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (4, 4)])
    def test_expansion_is_skew_symmetric(self, n, k):
        expanded = skew_expand(random_skew_spec(n, k, Lcg(n * 10 + k)))
        for a in range(1, k):
            swap = {a: a + 1, a + 1: a}
            assert expanded.map_variables(swap) == -expanded


def expand_and_rename(spec):
    """The spec values as an oracle builds them: the expansion on x_1..x_k,
    renamed onto each sorted k-subset with map_variables."""
    expanded = skew_expand(spec)
    return {block: expanded.map_variables(dict(enumerate(block, start=1)))
            for block in combinations(range(1, spec.n + 1), spec.k)}


SPEC_VALUE_CASES = {
    **{f"{n}-{k}": random_skew_spec(n, k, Lcg(n * 10 + k))
       for n, k in [(2, 2), (4, 2), (6, 2), (8, 2), (4, 4), (8, 4), (6, 6)]},
    "fraction-coefficients": SkewSpec(6, 2, {(0, 5): Fraction(3, 2), (1, 4): -2,
                                             (2, 3): Fraction(-5, 7)}),
    "below-full-degree": SkewSpec(6, 2, {(0, 3): 2, (1, 2): -5}, degree=3),
    "empty": SkewSpec(6, 4, {}),
    "binomial": torelli_spec(4),
}


class TestSpecValues:
    @pytest.mark.parametrize("case", SPEC_VALUE_CASES)
    def test_matches_the_expand_and_rename_oracle(self, case):
        spec = SPEC_VALUE_CASES[case]
        values = skew_function_from_spec(spec).values
        oracle = expand_and_rename(spec)
        assert list(values) == list(oracle)
        for block, value in values.items():
            assert list(value.terms.items()) == list(oracle[block].terms.items()), block


class TestSkewFunction:
    def test_requires_every_sorted_subset(self):
        with pytest.raises(ValueError, match="missing"):
            SkewFunction(4, 2, {(1, 2): 1})

    @pytest.mark.parametrize("keys,found", [
        ([(1, 2), (1, 3), (2, 1), (0, 1), (3, 4)], "; missing [(1, 4), (2, 3), (2, 4)]; "
                                                   "unexpected [(0, 1), (2, 1)]"),
        ([*combinations(range(1, 5), 2), (1, 5)], "; unexpected [(1, 5)]"),
        ([(1, 2, 3)], "; missing [(1, 2), (1, 3), (1, 4)]; unexpected [(1, 2, 3)]"),
        ([(1, 1), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)], "; missing [(3, 4)]; unexpected [(1, 1)]"),
        ([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)], "; missing [(3, 4)]"),
        ([*combinations(range(1, 5), 2), (5, 6), (2, 2), (1, 5), (0, 1)],
         "; unexpected [(0, 1), (1, 5), (2, 2)]"),
    ], ids=["both", "above-n", "long", "repeated", "short", "four-unexpected"])
    def test_names_the_first_missing_and_unexpected_subsets(self, keys, found):
        message = "values must cover exactly the sorted 2-subsets of [4]" + found
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            SkewFunction(4, 2, dict.fromkeys(keys, 1))

    def test_refuses_a_wrong_table_without_listing_every_subset(self):
        # C(40, 20) = 137,846,528,820 subsets; the first three are found at once
        first = tuple(range(1, 20))
        message = (f"values must cover exactly the sorted 20-subsets of [40]; missing "
                   f"[{first + (20,)}, {first + (21,)}, {first + (22,)}]")
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            SkewFunction(40, 20, {})
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("value", [0.5, False])
    def test_rejects_inexact_values(self, value):
        message = f"(1, 2) is not an exact rational or polynomial: {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            SkewFunction(2, 2, {(1, 2): value})

    @pytest.mark.parametrize("subset,bad", [((1.0, 2.0), 1.0), ((True, 2), True)])
    def test_rejects_inexact_subset_elements(self, subset, bad):
        values = {s: 1 for s in combinations(range(1, 5), 2)}
        del values[1, 2]
        values[subset] = 1
        with pytest.raises(ValueError, match=re.escape(f"subset element {bad!r} is not an integer")):
            SkewFunction(4, 2, values)

    def test_rejects_bool_order(self):
        with pytest.raises(ValueError, match="order n must be a positive integer, got True"):
            SkewFunction(True, 2, {})

    def test_value_at_reorders_with_sign(self):
        f = symbolic_skew_function(4, 2)
        assert f.value_at((3, 1)) == -f[(1, 3)]
        assert f.value_at((1, 1)) == 0

    @pytest.mark.parametrize("args", [(1.0, 2), (True, 2), (1, 2, 3), (1,), (1, 9), (0, 2)],
                             ids=["float", "bool", "long", "short", "above-n", "zero"])
    def test_value_at_refuses_arguments_outside_its_domain(self, args):
        message = f"arguments {args!r} are not 2 integers in 1..4"
        with pytest.raises(ValueError, match=re.escape(message)):
            symbolic_skew_function(4, 2).value_at(args)

    @pytest.mark.parametrize("subset", [(1.0, 2), (True, 2), (1, 2, 3), (1,), (1, 9), (2, 1)],
                             ids=["float", "bool", "long", "short", "above-n", "unsorted"])
    def test_getitem_refuses_what_is_not_a_sorted_subset(self, subset):
        message = f"{subset!r} is not a sorted 2-subset of [4]"
        with pytest.raises(ValueError, match=re.escape(message)):
            symbolic_skew_function(4, 2)[subset]


class TestPfDefinition:
    def test_single_pair(self):
        f = symbolic_skew_function(2, 2)
        assert pf_definition(f) == f[(1, 2)]

    def test_three_matchings(self):
        f = symbolic_skew_function(4, 2)
        expected = (
            f[(1, 2)] * f[(3, 4)] - f[(1, 3)] * f[(2, 4)] + f[(1, 4)] * f[(2, 3)]
        )
        assert pf_definition(f) == expected

    def test_single_block(self):
        f = symbolic_skew_function(4, 4)
        assert pf_definition(f) == f[(1, 2, 3, 4)]

    def test_scalar_values(self):
        rng = random.Random(17)
        f = scalar_random_skew_function(6, 2, rng)
        value = pf_definition(f)
        assert isinstance(value, int)
        assert isinstance(pf_exterior(f), int) and pf_exterior(f) == value
        # one polynomial value, in a block with 1 or not, even a zero one, makes both
        # routes polynomial
        for subset, p in [((1, 2), x(1) + 1), ((5, 6), x(1) + 1), ((5, 6), Polynomial.zero())]:
            mixed = SkewFunction(6, 2, {**f.values, subset: p})
            results = [pf_definition(mixed), pf_exterior(mixed)]
            assert all(isinstance(result, Polynomial) for result in results)
            assert results[0] == results[1]


class TestPfExterior:
    def test_single_pair(self):
        f = symbolic_skew_function(2, 2)
        assert pf_exterior(f) == f[(1, 2)]

    def test_refuses_an_arity_that_does_not_divide_the_order(self):
        f = SkewFunction(6, 4, dict.fromkeys(combinations(range(1, 7), 4), 1))
        with pytest.raises(ValueError, match="arity 4 does not divide order 6"):
            pf_exterior(f)

    def test_matches_definition_symbolically(self):
        f = symbolic_skew_function(4, 2)
        assert pf_exterior(f) == pf_definition(f)

    def test_matches_definition_on_random_rational_values(self):
        rng = random.Random(23)
        f = scalar_random_skew_function(8, 4, rng, fractions=True)
        assert pf_exterior(f) == pf_definition(f)

    def test_matches_definition_on_mixed_small_cases(self):
        rng = random.Random(29)
        for n, k in [(4, 2), (6, 2), (4, 4)]:
            f = scalar_random_skew_function(n, k, rng)
            assert pf_exterior(f) == pf_definition(f)


@pytest.mark.parametrize("route", [pf_definition, pf_exterior])
def test_routes_on_high_powers_of_a_shared_variable(route):
    # block products add x1's exponents past what one block's degree needs
    values = {
        subset: (i + 1) * x(1) ** (200 + i) - x(2)
        for i, subset in enumerate(combinations(range(1, 5), 2))
    }
    f = SkewFunction(4, 2, values)
    expected = f[(1, 2)] * f[(3, 4)] - f[(1, 3)] * f[(2, 4)] + f[(1, 4)] * f[(2, 3)]
    assert route(f) == expected


@pytest.mark.parametrize("route", [pf_definition, pf_exterior])
@pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (4, 4)])
def test_routes_leave_block_values_unchanged(route, n, k):
    f = skew_function_from_spec(random_skew_spec(n, k, Lcg(n + k)))
    before = {subset: str(value) for subset, value in f.values.items()}
    result = route(f)
    assert {subset: str(value) for subset, value in f.values.items()} == before
    # the result is a fresh polynomial, never one of the caller's values
    assert all(result is not value for value in f.values.values())
    assert all(result._packed is not value._packed for value in f.values.values())


class TestClosedForm:
    def test_single_pair(self):
        spec = SkewSpec(2, 2, {(0, 1): 1})
        assert pf_closed_form(spec) == x(2) - x(1)

    def test_binomial_spec_constant(self):
        spec = torelli_spec(4)
        assert pf_closed_form(spec) == -3 * vandermonde(4)
        assert pf_definition(skew_function_from_spec(spec)) == -3 * vandermonde(4)

    def test_full_arity_spec(self):
        spec = SkewSpec(4, 4, {(0, 1, 2, 3): 7})
        assert pf_closed_form(spec) == 7 * vandermonde(4)
        assert pf_definition(skew_function_from_spec(spec)) == 7 * vandermonde(4)

    def test_pair_coefficient_formula(self):
        # for matchings the tiling is unique, so the coefficient is the
        # product over the complementary exponent pairs
        rng = Lcg(31)
        for n in (2, 4, 6, 8):
            spec = random_skew_spec(n, 2, rng)
            expected = 1
            for i in range(n // 2):
                expected *= spec.coefficient((i, n - 1 - i))
            assert theorem_coefficient(spec) == expected

    def test_smallest_tiling_coefficient(self):
        spec = SkewSpec(2, 2, {(0, 1): Fraction(3, 4)})
        assert theorem_coefficient(spec) == Fraction(3, 4)

    def test_wrong_degree_rejected(self):
        spec = deficient_spec(6, 2, random.Random(5))
        with pytest.raises(ValueError, match="degree"):
            theorem_coefficient(spec)
        with pytest.raises(ValueError, match="degree"):
            pf_closed_form(spec)

    @pytest.mark.parametrize("n,k", [(2, 2), (4, 2), (6, 2), (4, 4)])
    def test_three_way_agreement(self, n, k):
        for seed in (1, 2, 3):
            spec = random_skew_spec(n, k, Lcg(seed))
            f = skew_function_from_spec(spec)
            definition = pf_definition(f)
            assert pf_exterior(f) == definition
            assert pf_closed_form(spec) == definition


class TestTorelli:
    @pytest.mark.parametrize("n,value", [(2, 1), (4, -3), (6, -50)])
    def test_known_constants(self, n, value):
        assert torelli_constant(n) == value

    def test_formula_matches_brute_force_at_six(self):
        spec = torelli_spec(6)
        assert pf_definition(skew_function_from_spec(spec)) == torelli_constant(6) * vandermonde(6)

    def test_spec_coefficients_are_signed_binomials(self):
        spec = torelli_spec(6)
        assert spec.coeffs == {(0, 5): 1, (1, 4): -5, (2, 3): 10}
        assert all(
            spec.coefficient((i, 5 - i)) == (-1) ** i * comb(5, i) for i in range(3)
        )

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            torelli_constant(5)


class TestVanishing:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_equal_variable_substitution_kills_pfaffian(self, n):
        spec = random_skew_spec(n, 2, Lcg(n))
        pfaffian = pf_definition(skew_function_from_spec(spec))
        for i, j in combinations(range(1, n + 1), 2):
            assert pfaffian.map_variables({j: i}).is_zero()

    @pytest.mark.parametrize("n,k", [(4, 4), (8, 4)])
    def test_equal_variable_substitution_higher_arity(self, n, k):
        spec = random_skew_spec(n, k, Lcg(n + k))
        pfaffian = pf_definition(skew_function_from_spec(spec))
        for i, j in [(1, 2), (2, 5) if n > 4 else (3, 4), (1, n)]:
            assert pfaffian.map_variables({j: i}).is_zero()

    @pytest.mark.parametrize("n", [4, 6])
    def test_degree_deficient_specs_vanish(self, n):
        rng = random.Random(60 + n)
        for _ in range(3):
            spec = deficient_spec(n, 2, rng)
            assert pf_definition(skew_function_from_spec(spec)).is_zero()
            assert pf_exterior(skew_function_from_spec(spec)).is_zero()


class TestRelabel:
    def test_identity(self):
        f = symbolic_skew_function(4, 2)
        g = relabel(f, (1, 2, 3, 4))
        assert g.values == f.values

    def test_transposition_on_single_pair(self):
        f = symbolic_skew_function(2, 2)
        g = relabel(f, (2, 1))
        assert pf_definition(g) == -f[(1, 2)]

    def test_sign_law_on_random_inputs(self):
        rng = random.Random(77)
        f = scalar_random_skew_function(4, 2, rng)
        base = pf_definition(f)
        for _ in range(20):
            perm = tuple(rng.sample(range(1, 5), 4))
            assert pf_definition(relabel(f, perm)) == permutation_sign(perm) * base

    def test_rejects_non_permutations(self):
        f = symbolic_skew_function(4, 2)
        with pytest.raises(ValueError):
            relabel(f, (1, 2, 3))
        with pytest.raises(ValueError):
            relabel(f, (0, 1, 2, 3))


def seeded_spec_and_point(n, k, seed=41):
    rng = Lcg(seed)
    spec = random_skew_spec(n, k, rng)
    return spec, random_point(n, rng)


def fraction_spec_and_point(n, k):
    spec, point = seeded_spec_and_point(n, k)
    coeffs = {r: Fraction(a, 3) for r, a in spec.coeffs.items()}
    return SkewSpec(n, k, coeffs), tuple(Fraction(c, 7) for c in point)


SPEC_AT_POINT_CASES = {
    **{
        f"{n}-{k}": seeded_spec_and_point(n, k)
        for n, k in [(2, 2), (4, 2), (6, 2), (4, 4), (8, 4), (6, 6), (7, 6), (8, 6)]
    },
    "below-full-degree": (SkewSpec(6, 2, {(0, 3): 2, (1, 2): -5}, degree=3), (3, -1, 4, 1, -5, 9)),
    "below-full-degree-k4": (SkewSpec(6, 4, {(0, 1, 2, 5): 3, (0, 1, 3, 4): -2}, degree=8),
                             (3, -1, 4, 1, -5, 9)),
    "empty": (SkewSpec(6, 4, {}), (3, -1, 4, 1, -5, 9)),
    "empty-k6": (SkewSpec(7, 6, {}), (3, -1, 4, 1, -5, 9, 2)),
    "fraction-coefficients": (fraction_spec_and_point(6, 2)[0], seeded_spec_and_point(6, 2)[1]),
    "fraction-coordinates": (seeded_spec_and_point(6, 4)[0], fraction_spec_and_point(6, 4)[1]),
    "fractions": fraction_spec_and_point(4, 4),
    "zero-coordinate": (seeded_spec_and_point(6, 4)[0], (0, 2, -3, 5, 7, -1)),
    "repeated-coordinate": (seeded_spec_and_point(6, 4)[0], (2, 5, -1, 5, 3, 0)),
}


class TestPointEvaluation:
    def test_spec_evaluation_matches_symbolic_route(self):
        rng = Lcg(41)
        spec = random_skew_spec(6, 2, rng)
        point = random_point(6, rng)
        symbolic = skew_function_from_spec(spec)
        direct = skew_function_from_spec_at(spec, point)
        via_values = skew_function_at(symbolic, point)
        assert direct.values == via_values.values
        assert pf_definition(direct) == pf_definition(symbolic).evaluate(
            dict(enumerate(point, start=1))
        )

    @pytest.mark.parametrize("case", SPEC_AT_POINT_CASES)
    def test_spec_evaluation_matches_the_symbolic_oracle(self, case):
        spec, point = SPEC_AT_POINT_CASES[case]
        direct = skew_function_from_spec_at(spec, point).values
        oracle = skew_function_at(skew_function_from_spec(spec), point).values
        assert direct == oracle
        subsets = list(combinations(range(1, spec.n + 1), spec.k))
        assert list(direct) == subsets
        assert list(oracle) == subsets
        repeated = [i for i in range(1, spec.n + 1) if point.count(point[i - 1]) > 1]
        for subset in subsets:
            if repeated and set(repeated) <= set(subset):
                assert direct[subset] == 0

    @pytest.mark.parametrize(
        "point,index", [((True, 2, 3, 4), 1), ((1, 2, 0.5, 4), 3), ((1, 2, 3, "4"), 4)]
    )
    def test_point_coordinates_must_be_exact(self, point, index):
        spec = random_skew_spec(4, 2, Lcg(1))
        symbolic = skew_function_from_spec(spec)
        message = f"point coordinate {index} is not an exact rational: {point[index - 1]!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            skew_function_from_spec_at(spec, point)
        with pytest.raises(ValueError, match=re.escape(message)):
            skew_function_at(symbolic, point)

    def test_point_length_validated(self):
        spec = random_skew_spec(4, 2, Lcg(1))
        with pytest.raises(ValueError):
            skew_function_from_spec_at(spec, (1, 2, 3))

    @pytest.mark.parametrize("n", [True, 2.0, -1])
    def test_random_point_refuses_a_bad_coordinate_count(self, n):
        message = f"number of coordinates must be a nonnegative integer, got {n!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            random_point(n, Lcg(1))

    def test_lcg_refuses_a_bool_seed(self):
        with pytest.raises(ValueError, match="seed must be an integer, got True"):
            Lcg(True)

    @pytest.mark.parametrize("draw,message", [
        (lambda rng: rng.below(2.5), "bound must be an integer in 1..65536, got 2.5"),
        (lambda rng: rng.below(True), "bound must be an integer in 1..65536, got True"),
    ], ids=["below-float", "below-bool"])
    def test_lcg_refuses_a_bound_that_is_not_an_int(self, draw, message):
        rng = Lcg(1)
        with pytest.raises(ValueError, match=re.escape(message)):
            draw(rng)
        assert rng.state == 1  # nothing was drawn

    def test_random_point_refuses_more_than_201_coordinates(self, monkeypatch):
        def no_draw(rng, bound):  # fail instead of drawing for an impossible point
            raise AssertionError("a coordinate was drawn for an impossible point")

        monkeypatch.setattr(Lcg, "below", no_draw)
        message = "a point has at most 201 distinct coordinates in [-100, 100], got n=202"
        for refuse in (lambda: random_point(202, Lcg(1)), lambda: check_point_order(202)):
            with pytest.raises(ValueError, match=re.escape(message) + "$"):
                refuse()
        assert check_point_order(201) is None

    @pytest.mark.parametrize("n", [0, 1, 40, 200, 201])
    def test_random_point_draws_once_per_coordinate(self, n, monkeypatch):
        draws = []
        next_u32 = Lcg.next_u32

        def counted(rng):  # fail at the first draw past one per coordinate
            draws.append(rng.state)
            assert len(draws) <= n, "a coordinate was redrawn"
            return next_u32(rng)

        monkeypatch.setattr(Lcg, "next_u32", counted)
        point = random_point(n, Lcg(1))
        assert len(draws) == n
        assert len(point) == len(set(point)) == n
        assert all(-100 <= value <= 100 for value in point)
