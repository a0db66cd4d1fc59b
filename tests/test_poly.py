import ast
import random
import re
import time
import tracemalloc
from fractions import Fraction
from functools import reduce
from itertools import permutations
from math import factorial
from pathlib import Path

import pytest

import hyperpfaffian
from hyperpfaffian import cli, poly
from hyperpfaffian.combinat import inversion_sign
from hyperpfaffian.hpf import pf_closed_form, pf_definition, pf_exterior, skew_function_from_spec
from hyperpfaffian.poly import (
    Polynomial,
    addmul,
    alternant,
    div_exact,
    parse_polynomial,
    product_sums,
    render,
    vandermonde,
    vandermonde_at,
)
from hyperpfaffian.randgen import Lcg, random_skew_spec

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the fold's property test is left out without Hypothesis
    st = None


def x(i):
    return Polynomial.variable(i)


def vandermonde_by_determinant(n):
    """Independent oracle: the alternating sum over permutations of
    x_1^(s_1 - 1) * ... * x_n^(s_n - 1)."""
    total = Polynomial.zero()
    for images in permutations(range(1, n + 1)):
        mono = Polynomial.monomial(
            {i + 1: images[i] - 1 for i in range(n)}, inversion_sign(images)
        )
        total += mono
    return total


def vandermonde_by_binomials(n):
    """Independent oracle: the binomials x_j - x_i, i < j, multiplied out
    one by one with ``Polynomial.__mul__``."""
    factors = [x(j) - x(i) for j in range(2, n + 1) for i in range(1, j)]
    return reduce(lambda p, q: p * q, factors, Polynomial.one())


def alternant_by_permutations(exponents, variables=None):
    """Independent oracle: the signed sum over the orders of the exponents,
    x_(v_1)^(e_s(1)) * ... * x_(v_m)^(e_s(m)) with the sign of the order s,
    on the variables v (by default 1..m)."""
    m = len(exponents)
    variables = variables or range(1, m + 1)
    total = Polynomial.zero()
    for order in permutations(range(m)):
        total += Polynomial.monomial(
            {variables[position]: exponents[order[position]] for position in range(m)},
            inversion_sign(order),
        )
    return total


def schoolbook_product(a, b):
    """Independent oracle for products: term by term, each monomial built
    from the merged exponent maps of its two factors."""
    total = Polynomial.zero()
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            exponents = dict(m1)
            for var, exp in m2:
                exponents[var] = exponents.get(var, 0) + exp
            total += Polynomial.monomial(exponents, c1 * c2)
    return total


def random_polynomial(rng, max_vars=3, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(
            sorted(
                (v, rng.randint(1, max_exp))
                for v in rng.sample(range(1, max_vars + 1), rng.randint(0, max_vars))
            )
        )
        coeff = rng.choice([rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(1, 4))])
        if coeff:
            terms[mono] = terms.get(mono, 0) + coeff
    return Polynomial(terms)


class TestArithmetic:
    @pytest.mark.parametrize("coeff", [0.25, True])
    def test_rejects_inexact_coefficients(self, coeff):
        message = f"((1, 1),) is not an exact rational: {coeff!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Polynomial({((1, 1),): coeff})
        with pytest.raises(ValueError, match=re.escape(message)):
            Polynomial.monomial({1: 1}, coeff)
        with pytest.raises(ValueError, match=re.escape(f"() is not an exact rational: {coeff!r}")):
            Polynomial.constant(coeff)

    def test_unknown_operands_get_their_reflected_operators(self):
        class Reflected:  # each operator answers with its name
            __eq__ = lambda self, other: "eq"
            __radd__ = lambda self, other: "radd"
            __rsub__ = lambda self, other: "rsub"
            __rmul__ = lambda self, other: "rmul"

        x1 = Polynomial.variable(1)
        assert [x1 == Reflected(), x1 + Reflected(), x1 - Reflected(), x1 * Reflected()] == [
            "eq", "radd", "rsub", "rmul"]

    def test_an_exponent_past_the_field_is_absent_not_carried(self):
        # 1 << 16 in x1's field would carry into x2's, the key of x2 itself
        assert Polynomial.variable(2).coefficient({1: 1 << 16}) == 0
        assert Polynomial.variable(2).coefficient({2: 1}) == 1

    def test_repr_wraps_the_rendering(self):
        assert repr(2 * Polynomial.variable(1) - 3) == "Polynomial(-3 + 2*x1)"

    def test_variable_rejects_bool_index(self):
        message = "variable index must be a positive integer, got True"
        with pytest.raises(ValueError, match=re.escape(message)):
            Polynomial.variable(True)

    @pytest.mark.parametrize("index", [0, -1])
    def test_variable_rejects_indices_below_one(self, index):
        message = f"variable index must be a positive integer, got {index}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Polynomial.variable(index)

    @pytest.mark.parametrize("exponents,message", [
        ({True: 2}, "variable index must be a positive integer, got True"),
        ({1: True}, "exponent of x1 must be a nonnegative integer, got True"),
        ({1: False}, "exponent of x1 must be a nonnegative integer, got False"),
    ])
    def test_monomial_rejects_bool_variables_and_exponents(self, exponents, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Polynomial.monomial(exponents)

    @pytest.mark.parametrize("mono,message", [
        (((1.5, 2),), "variable index must be a positive integer, got 1.5"),
        (((1, True),), "exponent of x1 must be a nonnegative integer, got True"),
        (((0, 2),), "variable index must be a positive integer, got 0"),
        (((1, -1),), "exponent of x1 must be a nonnegative integer, got -1"),
    ], ids=["float-variable", "bool-exponent", "variable-zero", "negative-exponent"])
    def test_constructor_rejects_bad_keys(self, mono, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Polynomial({mono: 1})

    def test_constructor_sorts_variables(self):
        p = Polynomial({((2, 1), (1, 1)): 3})
        assert p.terms == {((1, 1), (2, 1)): 3}
        assert p == 3 * x(1) * x(2)

    def test_constructor_drops_zero_exponents(self):
        p = Polynomial({((1, 0),): 5, ((2, 0), (3, 1)): 2})
        assert p.terms == {(): 5, ((3, 1),): 2}
        assert p == 2 * x(3) + 5

    def test_constructor_sums_keys_that_coincide(self):
        assert Polynomial({((1, 1), (2, 1)): 2, ((2, 1), (1, 1)): 5}) == 7 * x(1) * x(2)
        assert not Polynomial({((1, 2),): 4, ((1, 1), (1, 1)): -4})

    def test_power_rejects_bool_exponent(self):
        message = "polynomial exponent must be a nonnegative integer, got True"
        with pytest.raises(ValueError, match=re.escape(message)):
            x(1) ** True

    def test_monomial_with_a_zero_exponent(self):
        assert Polynomial.monomial({3: 0, 2: 1, 1: 2}, 5).terms == {((1, 2), (2, 1)): 5}
        assert Polynomial.monomial({1: 0}, 4).terms == {(): 4}

    def test_coefficient_with_a_zero_exponent(self):
        p = 3 * x(1) ** 2 * x(2) - 7
        assert p.coefficient({2: 1, 3: 0, 1: 2}) == 3
        assert p.coefficient({1: 0}) == -7
        assert p.coefficient({1: 2}) == 0

    @pytest.mark.parametrize("exponents,message", [
        ({1: True}, "exponent of x1 must be a nonnegative integer, got True"),
        ({1: 1.0}, "exponent of x1 must be a nonnegative integer, got 1.0"),
        ({2: -1, 1: 1}, "exponent of x2 must be a nonnegative integer, got -1"),
        ({0: 1}, "variable index must be a positive integer, got 0"),
    ], ids=["bool-exponent", "float-exponent", "negative-exponent", "variable-zero"])
    def test_coefficient_refuses_bad_exponent_maps(self, exponents, message):
        p = parse_polynomial("3*x1 + 5*x2^2")
        with pytest.raises(ValueError, match=re.escape(message)):
            p.coefficient(exponents)

    def test_degree_of_zero_is_zero(self):
        assert Polynomial.zero().degree() == 0
        assert (x(1) * x(2) ** 2 - 3).degree() == 3

    def test_add_cancellation(self):
        assert (x(1) + x(2)) + (-x(2)) == x(1)

    def test_add_identity(self):
        p = 2 * x(1) * x(2) - x(3)
        assert p + Polynomial.zero() == p

    def test_add_like_terms(self):
        assert 2 * x(1) ** 2 + 3 * x(1) ** 2 == 5 * x(1) ** 2

    def test_mul_difference_of_squares(self):
        assert (x(2) - x(1)) * (x(2) + x(1)) == x(2) ** 2 - x(1) ** 2

    def test_mul_identity(self):
        p = 5 * x(1) - Fraction(1, 2) * x(2) ** 3
        assert p * Polynomial.one() == p

    def test_scalar_operations(self):
        p = x(1) + 1
        assert 2 * p == p * 2 == 2 * x(1) + 2
        assert p - 1 == x(1)
        assert 3 - p == 2 - x(1)
        assert 2 - x(1) == Polynomial({(): 2, ((1, 1),): -1})
        assert sum([x(1), x(2), x(1)]) == 2 * x(1) + x(2)

    def test_zero_coefficients_never_stored(self):
        p = x(1) - x(1)
        assert p.terms == {}
        assert p.is_zero()
        assert p == 0

    def test_ring_axioms_on_random_polynomials(self):
        rng = random.Random(20240817)
        for _ in range(40):
            p, q, r = (random_polynomial(rng) for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert p + q == q + p
            assert (p * q) * r == p * (q * r)
            assert p * q == q * p
            assert p * (q + r) == p * q + p * r

    def test_disjoint_and_shared_variable_products_agree(self):
        rng = random.Random(11)
        for _ in range(20):
            p = random_polynomial(rng, max_vars=2)
            q = random_polynomial(rng, max_vars=2)
            shifted = q.map_variables({1: 3, 2: 4})
            direct = (p * shifted).map_variables({3: 1, 4: 2})
            assert direct == p * q


def rule_width(*factors):
    """Independent statement of the width rule for a product of factors: the
    bit length, at least 1, of the largest per-variable sum of the factors'
    bounds, a factor's bound on a variable being the OR of its exponents there."""
    bound = {}
    for factor in factors:
        ors = {}
        for mono in factor.terms:
            for var, exp in mono:
                ors[var] = ors.get(var, 0) | exp
        for var, exp in ors.items():
            bound[var] = bound.get(var, 0) + exp
    return max(bound.values(), default=0).bit_length() or 1


def packed_addmul(acc, a, b, sign, width=None):
    """acc + sign*a*b by addmul on the packed terms of the three, repacked to
    one common width whether or not the product fits it: by default the
    rule's width for a*b, or acc's own where that is wider."""
    width = width or max(acc._width, rule_width(a, b))
    packed = dict(poly._at_width(acc, width))
    addmul(packed, poly._at_width(a, width), poly._at_width(b, width), sign)
    assert all(packed.values()), "a zero coefficient is stored"
    return Polynomial._raw(packed, width)


class TestMonomialKeys:
    """Every construction path stores one key per monomial: the
    (variable, exponent) pairs sorted by variable, with exponents of a
    repeated variable added and zero exponents dropped."""

    @staticmethod
    def assert_canonical(p):
        for mono in p.terms:
            variables = [v for v, _ in mono]
            assert variables == sorted(set(variables)), mono
            assert all(e > 0 for _, e in mono), mono

    def test_parse_merges_repeated_variables(self):
        p = parse_polynomial("x1*x1")
        assert p.terms == {((1, 2),): 1}
        assert p == x(1) ** 2

    def test_parse_drops_zero_exponents(self):
        p = parse_polynomial("2*x3^0*x1")
        assert p.terms == {((1, 1),): 2}
        assert p == 2 * x(1)

    def test_parse_orders_variables(self):
        assert parse_polynomial("x3^2*x1*x2*x1").terms == {((1, 2), (2, 1), (3, 2)): 1}

    @pytest.mark.parametrize("overlap", [True, False])
    def test_products_agree_with_evaluation(self, overlap):
        rng = random.Random(61 if overlap else 62)
        for _ in range(40):
            p = random_polynomial(rng, max_vars=3, max_terms=5)
            q = random_polynomial(rng, max_vars=3, max_terms=5)
            if not overlap:
                q = q.map_variables({1: 4, 2: 5, 3: 6})
            point = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for v in range(1, 7)}
            product = p * q
            self.assert_canonical(product)
            assert product.evaluate(point) == p.evaluate(point) * q.evaluate(point)

    def test_non_injective_renaming_cancels(self):
        p = x(1) ** 2 * x(2) - x(1) * x(2) ** 2 + 3 * x(3)
        renamed = p.map_variables({1: 2})
        assert renamed.terms == {((3, 1),): 3}
        merged = (x(1) * x(3) + x(2) * x(3) ** 2).map_variables({1: 3, 2: 3})
        self.assert_canonical(merged)
        assert merged == x(3) ** 2 + x(3) ** 3

    # every public way to name a variable; a key spends W bits per variable
    # up to its highest, so each must check the index before it builds one
    ENTRIES = {
        "constructor": lambda v: Polynomial({((v, 1),): 1}),
        "variable": lambda v: Polynomial.variable(v),
        "monomial": lambda v: Polynomial.monomial({v: 2}),
        "map_variables": lambda v: x(1).map_variables({1: v}),
        "parse": lambda v: parse_polynomial(f"3*x{v}^2"),
        "alternant": lambda v: alternant((0, 1), (1, v)),
    }

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_every_entry_accepts_the_largest_variable(self, entry):
        p = self.ENTRIES[entry](poly.MAX_VARIABLE)
        assert poly.MAX_VARIABLE == 4096
        assert max(p.variables()) == poly.MAX_VARIABLE
        self.assert_canonical(p)

    @pytest.mark.parametrize("index", [4097, 10**9, 10**40])
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_every_entry_refuses_a_variable_past_the_bound(self, entry, index):
        shown = repr(f"x{index}") if entry == "parse" else index
        message = f"variable index must be at most 4096, got {shown}"
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            self.ENTRIES[entry](index)
        assert time.perf_counter() - start < 0.1

    def test_parse_refuses_a_huge_variable_before_allocating(self):
        # x1000000000 would be a key of 16 * 10^9 bits, 2 GB
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ValueError, match="got 'x1000000000'$"):
                parse_polynomial("x1000000000")
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.01
        assert peak < 1 << 20

    def test_lookups_past_the_bound_build_no_key(self):
        p = x(1) + 2
        assert p.terms.get(((10**9, 1),)) is None
        with pytest.raises(ValueError, match="variable index must be at most 4096, got 1000000000$"):
            p.coefficient({10**9: 1})


@pytest.mark.parametrize("exp", [2**16 - 1, 2**16, 2**70], ids=["field-top", "field-over", "huge"])
class TestWideExponents:
    """Exponents at, just past and far past a 16-bit field stay exact."""

    @staticmethod
    def wide(exp):
        return Polynomial({((3, 2), (1, exp)): 5, ((2, exp),): -1})

    def test_constructor_and_coefficient(self, exp):
        p = self.wide(exp)
        assert p.terms == {((1, exp), (3, 2)): 5, ((2, exp),): -1}
        assert p.coefficient({1: exp, 3: 2}) == 5
        assert p.coefficient({2: exp}) == -1
        assert p.coefficient({1: exp}) == p.coefficient({2: exp - 1}) == 0
        assert p.degree() == exp + 2
        assert p.variables() == {1, 2, 3}

    def test_product_power_and_sum(self, exp):
        a = Polynomial.monomial({1: exp}) - x(2)
        b = Polynomial.monomial({1: exp}) + 2 * Polynomial.monomial({2: exp})
        product = a * b
        assert product == schoolbook_product(a, b)
        assert product.coefficient({1: 2 * exp}) == 1
        assert product.coefficient({1: exp, 2: exp}) == 2
        assert product.coefficient({2: exp + 1}) == -2
        assert a ** 2 == a * a == schoolbook_product(a, a)
        assert (a ** 2).coefficient({1: exp, 2: 1}) == -2
        assert a + b == 2 * Polynomial.monomial({1: exp}) - x(2) + 2 * Polynomial.monomial({2: exp})
        assert not (a + b) - b - a

    def test_equality_of_one_value_built_two_ways(self, exp):
        # the product's exponent bound reaches 2^16 even where its exponents fit
        built = Polynomial.monomial({1: exp}) * x(2)
        assert built == Polynomial.monomial({1: exp, 2: 1}) == parse_polynomial(f"x1^{exp}*x2")
        assert built != Polynomial.monomial({1: exp, 3: 1})
        assert not built - Polynomial.monomial({2: 1, 1: exp})

    def test_render_parse_round_trip(self, exp):
        p = self.wide(exp)
        assert render(p) == f"-x2^{exp} + 5*x1^{exp}*x3^2"
        assert parse_polynomial(render(p)) == p
        q = self.wide(exp) * self.wide(exp)
        assert parse_polynomial(render(q)) == q

    def test_map_variables(self, exp):
        p = self.wide(exp)
        assert p.map_variables({1: 2, 2: 1}) == Polynomial({((2, exp), (3, 2)): 5, ((1, exp),): -1})
        # merging x1 into x2 adds exponents past what a field of exp's width holds
        merged = Polynomial.monomial({1: exp, 2: exp}).map_variables({1: 2})
        assert merged == Polynomial.monomial({2: 2 * exp})
        assert merged.coefficient({2: 2 * exp}) == 1

    def test_evaluate(self, exp):
        p = self.wide(exp)
        assert p.evaluate({1: 1, 2: -1, 3: 2}) == 20 - (-1) ** exp
        assert p.evaluate({1: 0, 2: 1, 3: 7}) == -1
        assert (p * p).evaluate({1: -1, 2: 0, 3: 1}) == 25


class TestPackedKernel:
    def test_matches_tuple_arithmetic_on_overlapping_variables(self):
        rng = random.Random(20261018)
        for _ in range(60):
            acc, a, b = (random_polynomial(rng, max_vars=4, max_terms=6) for _ in range(3))
            sign = rng.choice([1, -1, 2, -2])
            assert packed_addmul(acc, a, b, sign) == acc + sign * schoolbook_product(a, b)

    def test_width_covers_the_sum_of_factor_degrees(self):
        a = Polynomial.monomial({1: 40000}) + x(2)
        b = Polynomial.monomial({1: 30000}) - 3 * x(2) ** 5
        expected = schoolbook_product(a, b)
        assert a * b == expected
        assert (a * b).coefficient({1: 70000}) == 1
        assert (a * b)._width == rule_width(a, b) == 17
        # each factor fits its own width, 16 bits at most, but at that width
        # x1^70000 overflows x1's field into x2's
        assert (a._width, b._width) == (16, 15)
        assert packed_addmul(Polynomial.zero(), a, b, 1, width=16) != expected

    def test_high_variable_index(self):
        acc = 7 * x(40) ** 2
        a = x(40) ** 3 + x(1)
        b = x(40) * x(2) - 5
        assert packed_addmul(acc, a, b, -1) == acc - schoolbook_product(a, b)
        assert packed_addmul(acc, a, b, -1).coefficient({40: 4, 2: 1}) == -1

    def test_fraction_coefficients(self):
        acc = Fraction(1, 3) * x(1) * x(2)
        a = Fraction(2, 5) * x(1) - Fraction(1, 2)
        b = Fraction(5, 6) * x(2) + x(1) ** 2
        assert packed_addmul(acc, a, b, 1) == acc + schoolbook_product(a, b)

    def test_cancellation_removes_the_entry(self):
        packed = dict((6 * x(1) * x(2) + x(3))._packed)
        addmul(packed, (2 * x(1))._packed, x(2)._packed, -3)
        assert packed == x(3)._packed
        addmul(packed, x(3)._packed, {0: 1}, -1)
        assert packed == {}

    def test_scalars_and_constants(self):
        assert Polynomial.constant(0)._packed == {}
        assert Polynomial.constant(Fraction(-3, 4))._packed == {0: Fraction(-3, 4)}
        assert Polynomial._raw({0: 5}, 1) == 5
        # scalars beside a polynomial are constants of the polynomial sum
        left, right = {0: Fraction(-3, 4), 1: 0}, {0: x(1) + 1}
        result = product_sums(left, right, {0: [(1, (0, 0))], 1: [(1, (1, 0))]})
        assert result[0] == Fraction(-3, 4) * x(1) - Fraction(3, 4)
        assert isinstance(result[1], Polynomial) and result[1]._packed == {}

    def test_mul_at_a_full_exponent_field(self):
        # 2^15 + (2^15 - 1) = 2^16 - 1: the product fills its field, no wider
        a = Polynomial.monomial({1: 2**15}) - x(2)
        b = Polynomial.monomial({1: 2**15 - 1}) + 2 * Polynomial.monomial({2: 2**15 - 1})
        assert (a * b)._width == 16
        assert a * b == schoolbook_product(a, b)
        assert (a * b).terms[((1, 2**16 - 1),)] == 1
        assert (a * b).coefficient({1: 2**15, 2: 2**15 - 1}) == 2
        assert (a * a)._width == 17  # 2^16 needs a wider field
        assert (a * a).coefficient({1: 2**16}) == 1

    def test_constants_add_nothing_to_the_width(self):
        # a constant's exponents are all 0, so x1^(2^16 - 1) times it still fits
        top = Polynomial.monomial({1: 2**16 - 1})
        for constant in (Polynomial.constant(3), Polynomial.zero()):
            assert (constant * top)._width == (top * constant)._width == top._width == 16

    def test_mul_of_constants_and_zero(self):
        p = 3 * x(1) - x(2) ** 2
        assert Polynomial.constant(3) * Polynomial.constant(-4) == -12
        assert (Polynomial.zero() * p).terms == {}
        assert (p * Polynomial.zero()).terms == {}
        assert Polynomial.constant(Fraction(1, 2)) * p == p * Fraction(1, 2)
        assert Polynomial.one() * p == p

    def test_mul_with_fraction_coefficients(self):
        a = Fraction(1, 2) * x(1) + Fraction(2, 3)
        b = Fraction(3, 4) * x(2) - 1
        assert (a * b).terms == {
            ((1, 1), (2, 1)): Fraction(3, 8), ((1, 1),): Fraction(-1, 2),
            ((2, 1),): Fraction(1, 2), (): Fraction(-2, 3),
        }

    def test_mul_cancels_cross_terms(self):
        assert ((x(1) + x(2)) * (x(1) - x(2))).terms == {((1, 2),): 1, ((2, 2),): -1}
        a, b = x(1) ** 2 + x(1) * x(2) + x(2) ** 2, x(1) - x(2)
        assert (a * b).terms == {((1, 3),): 1, ((2, 3),): -1}

    def test_product_sums_is_the_sum_of_the_products(self):
        # each random case is one more output of a single call
        rng = random.Random(1408)
        left, right, sums, expected = {}, {}, {}, {}
        for case in range(30):
            for key in "abc":
                left[case, key] = random_polynomial(rng, max_vars=3, max_terms=5)
            sums[case], expected[case] = [], Polynomial.zero()
            for chain in range(4):
                sign, key = rng.choice([1, -1, 3]), (case, rng.choice("abc"))
                factors = [(case, chain, i) for i in range(rng.randint(1, 3))]
                for factor in factors:
                    right[factor] = random_polynomial(rng, max_vars=3)
                sums[case].append((sign, (key, *factors)))
                expected[case] += sign * reduce(schoolbook_product, map(right.get, factors),
                                                left[key])
        assert product_sums(left, right, sums) == expected

    def test_product_sums_adds_classes_that_share_monomials(self):
        # x1 occurs in the right factor too, so the x1*x2 terms of classes 0 and 1 cancel
        result = product_sums({"a": x(1) + x(2)}, {"b": x(1) - x(2)}, {0: [(1, ("a", "b"))]})
        assert result[0].terms == {((1, 2),): 1, ((2, 2),): -1}

    def test_round_trip_keeps_monomials_canonical(self):
        # the view decodes each key to canonical pairs, which encode back to it
        rng = random.Random(41)
        for _ in range(20):
            p = random_polynomial(rng, max_vars=5, max_terms=8, max_exp=9)
            TestMonomialKeys.assert_canonical(p)
            q = Polynomial(dict(p.terms))
            assert q._packed == p._packed
            assert all(p.terms[mono] == coeff for mono, coeff in p.terms.items())

    @pytest.mark.parametrize("variables", [1, 3, 5, 7])
    def test_round_trip_at_an_odd_number_of_variables(self, variables):
        rng = random.Random(variables)
        top = Polynomial.monomial({1: 2, variables: 3}, -4)  # keys reach the last field
        for _ in range(10):
            p = top + random_polynomial(rng, max_vars=variables, max_terms=12, max_exp=9)
            assert list(Polynomial(dict(p.terms)).terms.items()) == list(p.terms.items())
            assert len(p.terms) == len(p._packed)

    def test_view_refuses_what_is_not_a_stored_canonical_key(self):
        p = 3 * x(1) * x(2) ** 2
        assert p.terms[((1, 1), (2, 2))] == 3
        for mono in [((2, 2), (1, 1)), ((1, 1), (2, 1), (2, 1)), ((1, 1),), ((1, 1 + (2 << p._width)),),
                     ((1, -1),), ((0, 1),), ((1, 1.0), (2, 2)), "x1"]:
            assert mono not in p.terms
            with pytest.raises(KeyError):
                p.terms[mono]


def chain_sum(left, right, terms):
    """Independent oracle for one output of product_sums: each term's chain
    multiplied out by schoolbook_product, then summed."""
    total = Polynomial.zero()
    for sign, (a, *bs) in terms:
        total += sign * reduce(schoolbook_product, map(right.get, bs), left[a])
    return total


def counted_products(monkeypatch, run) -> list[int]:
    """The monomial products of the addmul calls ``run()`` makes, in order."""
    products = []

    def counted(acc, a, b, sign=1):
        products.append(len(a) * len(b))
        return addmul(acc, a, b, sign)

    with monkeypatch.context() as patch:
        patch.setattr(poly, "addmul", counted)
        run()
    return products


class TestPrefixFold:
    """product_sums folds the tails that consecutive terms share: each
    output is still the sum of the chains, with fewer products where
    prefixes are shared, and the same products where none is."""

    LEFT = {"a": x(1) ** 2 - 3 * x(2), "b": 2 * x(1) + Fraction(1, 2) * x(3), "z": Polynomial.zero()}
    RIGHT = {0: x(1) + x(2) ** 2, 1: 5 - x(3), 2: x(1) * x(3) - x(2), 3: Polynomial.one()}

    @pytest.mark.parametrize("terms", [
        [(1, ("a", 0, 1)), (-2, ("a", 0, 2)), (3, ("a", 1)), (1, ("a",)), (-1, ("b", 2, 0, 1))],
        # a prefix that recurs after another: summed, though it shares nothing
        [(1, ("a", 0, 1)), (1, ("b", 0, 1)), (-1, ("a", 0, 2)), (2, ("a", 0))],
        # a term that is a prefix of the next, and the reverse
        [(1, ("a", 0)), (1, ("a", 0, 1)), (-1, ("a", 0, 1, 2)), (4, ("a", 0, 1))],
        # repeated terms, and signs that cancel a leaf, a node and a root to zero
        [(2, ("a", 0, 1)), (-2, ("a", 0, 1)), (1, ("a", 0, 2)), (3, ("b", 1)), (-3, ("b", 1))],
        [(1, ("a", 0, 1)), (1, ("a", 0, 2)), (-1, ("a", 0, 1)), (-1, ("a", 0, 2)), (1, ("a", 2))],
        [(1, ("z", 0, 1)), (5, ("a", 3, 3)), (-1, ("a", 3)), (1, ("b",)), (-1, ("b",))],
    ], ids=["shared", "recurring", "nested", "leaf-cancels", "node-cancels", "zero-and-one"])
    def test_fold_is_the_sum_of_the_chains(self, terms):
        assert product_sums(self.LEFT, self.RIGHT, {0: terms})[0] == chain_sum(
            self.LEFT, self.RIGHT, terms)

    def test_shared_prefix_is_multiplied_once(self, monkeypatch):
        left, right = {"a": x(1) ** 2 - 3 * x(2)}, {0: x(1) + x(2) ** 2, 1: x(3) - 5, 2: x(4) + 7}
        # the leaves 1 and 2 sum first (2 products by the constant 1), to 3
        # terms; times 0 once (2 * 3); then times each x1 class of a (1 * 6, twice)
        terms = [(1, ("a", 0, 1)), (-1, ("a", 0, 2))]
        products = counted_products(monkeypatch, lambda: product_sums(left, right, {0: terms}))
        assert products == [2, 6, 6, 6]
        # split by another prefix, 0 is multiplied by each leaf (2 * 2 twice),
        # the leaf 1 is added (2 by the constant 1), and a's 8-term tail per class
        terms.insert(1, (1, ("a", 1)))
        products = counted_products(monkeypatch, lambda: product_sums(left, right, {0: terms}))
        assert products == [4, 2, 4, 8, 8]

    def test_mul_makes_one_addmul_of_every_pair(self, monkeypatch):
        a, b = x(1) ** 2 + 3 * x(2) - 1, x(1) - x(3) ** 2 + 4 * x(2) * x(3) + 2
        products = counted_products(monkeypatch, lambda: a * b)
        # one call per exponent of x1 in a, ascending: 3*x2 - 1, then x1^2
        assert products == [2 * len(b.terms), 1 * len(b.terms)]
        assert sum(products) == len(a.terms) * len(b.terms)

    # counts and calls for the Lcg(1) spec: the exterior route's terms have
    # one right key each, and (8, 4) partitions two blocks, so nothing is
    # shared; at (8, 2) the chain of three products per partition made
    # 490,560, and the divided power's levels make as many products as the
    # definition's folded tails
    @pytest.mark.parametrize("route,n,k,products,calls", [
        (pf_exterior, 8, 2, 208_320, 196),
        (pf_exterior, 8, 4, 4_536_000, 420),
        (pf_definition, 8, 2, 208_320, 196),
    ], ids=["exterior-8-2", "exterior-8-4", "definition-8-2"])
    def test_route_products(self, monkeypatch, route, n, k, products, calls):
        f = skew_function_from_spec(random_skew_spec(n, k, Lcg(1)))
        counted = counted_products(monkeypatch, lambda: route(f))
        assert (sum(counted), len(counted)) == (products, calls)


if st is not None:
    fold_keys = st.tuples(st.sampled_from("ab"), st.lists(st.integers(0, 2), max_size=3))
    fold_terms = st.lists(st.tuples(st.sampled_from([1, -1, 2]), fold_keys, st.booleans()),
                          max_size=8)
    fold_values = st.dictionaries(
        st.tuples(st.integers(1, 3), st.integers(1, 2)).map(lambda pair: (pair,)),
        st.integers(-3, 3), max_size=3).map(Polynomial)

    class TestPrefixFoldProperty:
        @settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @given(st.lists(fold_values, min_size=5, max_size=5), st.lists(fold_terms, min_size=1,
                                                                        max_size=3))
        def test_fold_is_the_sum_of_the_chains(self, values, drawn):
            # a drawn term may be followed at once by its negation, which
            # cancels its leaf, and nodes above it where nothing else passes
            left, right = dict(zip("ab", values)), dict(enumerate(values[2:]))
            sums = {u: [term for sign, (a, bs), cancel in terms
                        for term in [(sign, (a, *bs))] + [(-sign, (a, *bs))] * cancel]
                    for u, terms in enumerate(drawn)}
            results = product_sums(left, right, sums)
            assert results == {u: chain_sum(left, right, terms) for u, terms in sums.items()}

    def edge_polynomials(w):
        """Polynomials in x1..x3 whose exponents sit at 1, 2^w - 1 and 2^w."""
        monos = st.dictionaries(st.integers(1, 3), st.sampled_from([1, 2**w - 1, 2**w]),
                                max_size=3).map(lambda exps: tuple(sorted(exps.items())))
        return st.dictionaries(monos, st.integers(-3, 3).filter(bool), max_size=4).map(Polynomial)

    class TestWidthRuleProperty:
        @settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @given(st.integers(1, 17).flatmap(lambda w: st.lists(edge_polynomials(w), min_size=3,
                                                               max_size=3)))
        def test_products_are_exact_at_the_rule_width(self, factors):
            a, b, c = factors
            product = a * b
            assert product == schoolbook_product(a, b)
            assert product._width == rule_width(a, b)
            chained = product_sums({0: a}, {0: b, 1: c}, {0: [(1, (0, 0, 1))]})[0]
            assert chained == schoolbook_product(schoolbook_product(a, b), c)
            assert chained._width == rule_width(a, b, c)


class TestRoutesShareOneWidth:
    """At (8, 2) and (6, 2) every exponent is at most 7, so the definition
    and exterior routes and the closed form all pack at 3 bits a variable
    (one 30-bit digit for 8 variables), and checking them repacks nothing."""

    @staticmethod
    def watch(monkeypatch):
        """The (own width, asked width) of every polynomial that _at_width repacks."""
        repacks = []
        at_width = poly._at_width

        def watched(value, width):
            if isinstance(value, Polynomial) and value._width != width:
                repacks.append((value._width, width))
            return at_width(value, width)

        monkeypatch.setattr(poly, "_at_width", watched)
        return repacks

    @pytest.mark.parametrize("n", [8, 6])
    def test_routes_share_one_width(self, monkeypatch, n):
        spec = random_skew_spec(n, 2, Lcg(1))
        f = skew_function_from_spec(spec)
        repacks = self.watch(monkeypatch)
        routes = [pf_definition(f), pf_exterior(f), pf_closed_form(spec)]
        assert [p._width for p in routes] == [3, 3, 3]
        assert routes[0] == routes[1] == routes[2]
        assert repacks == []

    def test_symbolic_verify_repacks_nothing(self, monkeypatch, capsys):
        # at (6, 2) the alternant of (2, 3) alone packs at 2 bits, so each
        # block value's sum repacks that 2-term alternant; at (8, 2) nothing
        repacks = self.watch(monkeypatch)
        assert cli.main(["verify", "--n", "8", "--k", "2", "--mode", "symbolic",
                         "--trials", "1", "--seed", "1"]) == 0
        assert capsys.readouterr().out.endswith("definition = exterior = closed form\n")
        assert repacks == []


class TestScalarProductSums:
    """Scalar values give plain sums of sign * left[a] * right[b_1] * ...,
    each written out here by hand."""

    LEFT = {"a": 3, "b": -2, "h": Fraction(1, 2)}
    RIGHT = {"c": 5, "d": -7, "q": Fraction(-2, 3)}

    def test_terms_with_one_key(self):
        # r = 0: a term is sign * left[a] alone
        sums = {0: [(1, ("a",)), (1, ("b",))], 1: [(-1, ("a",))]}
        assert product_sums(self.LEFT, self.RIGHT, sums) == {0: 3 + -2, 1: -3}

    def test_signs_past_one_and_longer_chains(self):
        sums = {0: [(3, ("a", "c")), (-5, ("b", "c", "d"))], 1: [(-2, ("b", "d", "d", "c"))]}
        assert product_sums(self.LEFT, self.RIGHT, sums) == {
            0: 3 * 3 * 5 + -5 * -2 * 5 * -7, 1: -2 * -2 * -7 * -7 * 5}

    def test_fractions(self):
        result = product_sums(self.LEFT, self.RIGHT, {0: [(1, ("h", "q")), (4, ("a", "q"))]})
        assert result == {0: Fraction(1, 2) * Fraction(-2, 3) + 4 * 3 * Fraction(-2, 3)}
        assert result[0] == Fraction(-25, 3) and type(result[0]) is Fraction

    def test_an_empty_term_list_sums_to_zero(self):
        result = product_sums(self.LEFT, self.RIGHT, {0: [], 1: iter(())})
        assert result == {0: 0, 1: 0} and type(result[0]) is int

    def test_terms_that_cancel_sum_to_zero(self):
        # the wedge drops such a union from its table (see test_exterior)
        sums = {0: [(1, ("a", "c")), (-1, ("a", "c")), (5, ("a", "d")), (7, ("a", "c"))]}
        assert product_sums(self.LEFT, self.RIGHT, sums) == {0: 0}


class TestRepacking:
    """_at_width moves each exponent field to its place at another width;
    equality compares polynomials packed at different widths."""

    @staticmethod
    def decoded(p, width):
        """The reference repack: each key decoded to its pairs and encoded again."""
        return {poly._key(poly._decode(key, p._width), width): c for key, c in p._packed.items()}

    def test_repack_matches_decode_and_encode(self):
        rng = random.Random(28)
        for _ in range(60):
            p = random_polynomial(rng, max_vars=rng.randint(1, 9), max_terms=8,
                                  max_exp=rng.choice([1, 3, 7, 200]))
            for width in range(p._width, p._width + 3):
                repacked = poly._at_width(p, width)
                assert repacked == self.decoded(p, width)
                assert Polynomial._raw(repacked, width).terms == p.terms
            top = max((e for mono in p.terms for _, e in mono), default=0)
            narrow = max(top.bit_length(), 1)  # the narrowest width that holds p
            assert poly._at_width(p, narrow) == self.decoded(p, narrow)

    def test_equal_across_widths(self):
        wide = (x(1) ** 9 + 5 * x(2) * x(3) ** 2) - x(1) ** 9  # width 4, exponents at most 2
        narrow = 5 * x(2) * x(3) ** 2
        assert (wide._width, narrow._width) == (4, 2)
        assert wide == narrow and narrow == wide
        assert not wide != narrow

    def test_unequal_across_widths(self):
        wide = (x(1) ** 9 + 5 * x(2) * x(3) ** 2 - x(3)) - x(1) ** 9
        for other in (5 * x(2) * x(3) ** 2 + x(3),  # the same term count
                      5 * x(2) * x(3) ** 2 - x(3) + 1,  # one term more
                      5 * x(2) * x(3) - x(3)):  # a different exponent
            assert wide._width != other._width
            assert wide != other and other != wide

    def test_different_term_counts_repack_nothing(self, monkeypatch):
        wide, wider, narrow = x(1) ** 9, x(1) ** 9 + x(2), x(1) + x(2)
        repacks = TestRoutesShareOneWidth.watch(monkeypatch)
        assert wide != narrow and narrow != wide
        assert repacks == []
        assert wider != narrow  # equal counts: the narrow side repacks
        assert repacks == [(1, 4)]

    def test_scalars_across_widths(self):
        five = (x(1) ** 9 + 5) - x(1) ** 9  # the constant 5 at width 4
        assert five._width == 4
        assert five == 5 and 5 == five and five == Fraction(10, 2)
        assert five != 6 and five != 0 and five != x(1) + 4
        zero = x(1) ** 9 - x(1) ** 9
        assert zero == 0 and zero != 5 and zero == Polynomial.zero()
        assert (x(1) ** 9 + Fraction(1, 3)) - x(1) ** 9 == Fraction(1, 3)


class TestExponentVectors:
    """from_exponent_vectors packs trusted exponent vectors: the same
    polynomial as the checking constructor builds from their pairs."""

    @staticmethod
    def by_pairs(terms):
        return Polynomial({tuple((v, e) for v, e in enumerate(w, 1) if e): c
                           for w, c in terms.items()})

    def test_matches_the_constructor(self):
        rng = random.Random(2028)
        for _ in range(40):
            length = rng.randint(1, 9)
            terms = {tuple(rng.choice([0, 0, 1, 2, rng.randint(0, 300)]) for _ in range(length)):
                     rng.choice([rng.randint(1, 9), -1, Fraction(rng.randint(1, 9), 4)])
                     for _ in range(rng.randint(1, 12))}
            built = poly.from_exponent_vectors(terms)
            assert built.terms == self.by_pairs(terms).terms
            assert built._width == max(max(max(w) for w in terms).bit_length(), 1)

    def test_constants_and_zero(self):
        assert poly.from_exponent_vectors({}) == Polynomial.zero()
        assert poly.from_exponent_vectors({(0, 0, 0): 4}).terms == {(): 4}
        assert poly.from_exponent_vectors({(): Fraction(1, 2)}) == Fraction(1, 2)


class TestPackedFormatStaysInPoly:
    """Only poly knows the packed format: every other module under src/
    multiplies through product_sums or Polynomial.__mul__, builds polynomials
    through public constructors and arithmetic, and reads none of their terms."""

    KERNEL = {"addmul", "_at_width", "_width"}
    STORED = {"terms", "_packed", "_width"}

    def test_no_other_module_reaches_the_packed_kernel(self):
        package = Path(hyperpfaffian.__file__).parent
        modules = sorted(path for path in package.rglob("*.py") if path.name != "poly.py")
        assert modules
        for path in modules:
            tree = ast.parse(path.read_text("utf-8"))
            imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                        for alias in node.names}
            attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            raw = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                   and node.attr == "_raw" and ast.unparse(node.value) == "Polynomial"]
            assert not imported & self.KERNEL, path.name
            assert not attributes & (self.KERNEL | self.STORED), path.name
            assert not raw, path.name

    def test_sum_by_low_exponent_is_gone(self):
        assert not hasattr(poly, "sum_by_low_exponent")

    @pytest.mark.parametrize("name", ["pack", "unpack", "field_width", "degree", "_monomial"])
    def test_the_tuple_round_trip_is_gone(self, name):
        assert not hasattr(poly, name)

    def test_the_width_floor_is_gone(self):
        # one width rule, with no fixed floor beside it
        assert not hasattr(poly, "WIDTH")


class TestValueTypeStaysInPoly:
    """Only poly tells scalar from polynomial values: the two summing routes
    and the wedge hand either kind to product_sums alike."""

    FUNCTIONS = {"hpf.py": {"pf_definition", "pf_exterior"},
                 "exterior.py": {"wedge", "divided_power", "_wedge_table"}}

    def test_routes_and_wedge_do_not_test_the_value_type(self):
        package = Path(hyperpfaffian.__file__).parent
        seen = set()
        for module, names in self.FUNCTIONS.items():
            tree = ast.parse((package / module).read_text("utf-8"))
            for function in ast.walk(tree):
                if not isinstance(function, ast.FunctionDef) or function.name not in names:
                    continue
                seen.add(function.name)
                nodes = list(ast.walk(function))
                checked = [ast.unparse(node.args[1]) for node in nodes
                           if isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance"]
                # the one isinstance left refuses a wedge operand that is not an element
                assert checked in ([], ["ExteriorElement"]), function.name
                used = {node.id for node in nodes if isinstance(node, ast.Name)}
                assert not used & {"Polynomial", "is_scalar"}, function.name
        assert seen == set().union(*self.FUNCTIONS.values())


class TestVandermonde:
    def test_empty_product(self):
        assert vandermonde(1) == Polynomial.one()

    def test_order_two(self):
        assert vandermonde(2) == x(2) - x(1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_determinant_expansion(self, n):
        assert vandermonde(n) == vandermonde_by_determinant(n)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_product_of_binomials(self, n):
        assert vandermonde(n) == vandermonde_by_binomials(n)

    def test_order_eight(self):
        v = vandermonde(8)
        assert len(v.terms) == factorial(8)
        assert set(v.terms.values()) == {1, -1}
        assert v.map_variables({1: 2, 2: 1}) == -v
        assert v.coefficient({j: j - 1 for j in range(2, 9)}) == 1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_term_count_and_unit_coefficients(self, n):
        v = vandermonde(n)
        assert len(v.terms) == factorial(n)
        assert set(v.terms.values()) <= {1, -1}

    def test_order_three_specific_coefficient(self):
        assert vandermonde(3).coefficient({2: 1, 3: 2}) == 1

    @pytest.mark.parametrize("n", range(2, 7))
    def test_vanishes_on_equal_coordinates(self, n):
        rng = random.Random(1000 + n)
        v = vandermonde(n)
        for _ in range(100):
            point = {i: Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for i in range(1, n + 1)}
            i, j = rng.sample(range(1, n + 1), 2)
            point[i] = point[j]
            assert v.evaluate(point) == 0

    def test_product_evaluation_shortcut(self):
        rng = random.Random(5)
        for n in range(1, 8):
            values = [rng.randint(-30, 30) for _ in range(n)]
            expected = vandermonde(n).evaluate(dict(enumerate(values, start=1)))
            assert vandermonde_at(values) == expected

    @pytest.mark.parametrize("values,index", [((0.5, 2, 3, 4), 1), ((1, 2, False, 4), 3)])
    def test_product_evaluation_rejects_inexact_coordinates(self, values, index):
        message = f"point coordinate {index} is not an exact rational: {values[index - 1]!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            vandermonde_at(values)

    def test_rejects_bool_order_even_after_order_one(self):
        assert vandermonde(1) == Polynomial.one()
        message = "vandermonde requires a positive integer order, got True"
        with pytest.raises(ValueError, match=re.escape(message)):
            vandermonde(True)

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_orders_below_one(self, n):
        message = f"vandermonde requires a positive integer order, got {n}"
        with pytest.raises(ValueError, match=re.escape(message)):
            vandermonde(n)


class TestAlternant:
    @pytest.mark.parametrize("exponents", [
        (0,), (3,), (0, 1), (2, 5), (0, 2, 3), (1, 4, 6), (0, 1, 5, 7), (2, 3, 4, 9),
        (0, 2, 3, 6, 8), (1, 2, 4, 7, 8), (0, 1, 3, 4, 6, 9), (1, 2, 3, 5, 8, 13),
    ])
    def test_matches_signed_sum_over_permutations(self, exponents):
        expected = alternant_by_permutations(exponents)
        assert alternant(exponents) == expected
        assert len(alternant(exponents).terms) == factorial(len(exponents))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_range_is_the_vandermonde_product(self, n):
        assert alternant(range(n)) == vandermonde_by_binomials(n)

    @pytest.mark.parametrize("exponents", [
        (1, 1), (0, 3, 2), (-1, 2), (0, 1.0), (True, 2),
    ], ids=["repeated", "decreasing", "negative", "float", "bool"])
    def test_refuses_exponents_that_are_not_strictly_increasing_naturals(self, exponents):
        message = f"exponents {exponents!r} are not strictly increasing nonnegative integers"
        with pytest.raises(ValueError, match=re.escape(message)):
            alternant(exponents)

    @pytest.mark.parametrize("exponents,variables", [
        ((3,), (5,)), ((0, 1), (2, 7)), ((2, 5), (1, 2)), ((1, 4, 6), (1, 3, 4)),
        ((0, 2, 3), (4, 5, 9)), ((0, 1, 5, 7), (2, 5, 6, 9)), ((1, 2, 4, 7, 8), (3, 4, 6, 7, 11)),
    ])
    def test_on_given_variables(self, exponents, variables):
        on_block = alternant(exponents, variables)
        assert on_block == alternant_by_permutations(exponents, variables)
        renamed = alternant(exponents).map_variables(dict(enumerate(variables, start=1)))
        assert list(on_block.terms.items()) == list(renamed.terms.items())

    @pytest.mark.parametrize("m", range(5, 9))
    def test_stored_order_is_the_permutation_walk(self, m):
        # past 4 variables each prefix's block of keys is joined to memoized
        # suffix keys; the terms still come in lexicographic order
        exponents, variables = tuple(range(0, 3 * m, 3)), tuple(range(2, 2 * m + 2, 2))
        walk = [(tuple((v, e) for v, e in zip(variables, order) if e), inversion_sign(order))
                for order in permutations(exponents)]
        assert list(alternant(exponents, variables).terms.items()) == walk

    @pytest.mark.parametrize("m", range(1, 6))
    def test_default_variables_are_one_to_m(self, m):
        exponents = tuple(range(1, 2 * m, 2))
        explicit = alternant(exponents, range(1, m + 1))
        assert list(alternant(exponents).terms.items()) == list(explicit.terms.items())

    @pytest.mark.parametrize("variables", [
        (2, 1), (3, 3), (0, 1), (-1, 2), (1, 2.0), (True, 2), (1,), (1, 2, 3),
    ], ids=["decreasing", "repeated", "zero", "negative", "float", "bool", "short", "long"])
    def test_refuses_variables_that_are_not_strictly_increasing_positive(self, variables):
        message = f"variables {variables!r} are not 2 strictly increasing positive integers"
        with pytest.raises(ValueError, match=re.escape(message)):
            alternant((0, 1), variables)


class TestEvaluation:
    def test_vandermonde_at_arithmetic_progression(self):
        assert vandermonde(3).evaluate({1: 1, 2: 2, 3: 3}) == 2

    def test_all_zero_point_gives_constant_term(self):
        p = 7 + 2 * x(1) - x(2) ** 2
        assert p.evaluate({1: 0, 2: 0}) == 7

    def test_fractional_point(self):
        assert (x(1) * x(2)).evaluate({1: Fraction(1, 2), 2: 4}) == 2

    def test_unassigned_variable_error(self):
        with pytest.raises(ValueError, match="x2"):
            (x(1) * x(2)).evaluate({1: 1})

    @pytest.mark.parametrize("value", [0.5, True])
    def test_rejects_inexact_coordinates(self, value):
        message = f"point coordinate 2 is not an exact rational: {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            (x(1) + x(2)).evaluate({1: 1, 2: value})


class TestVariableMapping:
    def test_monotone_relabel(self):
        assert (x(2) - x(1)).map_variables({1: 3, 2: 7}) == x(7) - x(3)

    def test_merge_on_identification(self):
        assert (x(1) * x(2)).map_variables({2: 1}) == x(1) ** 2

    def test_cancellation_on_identification(self):
        assert (x(2) - x(1)).map_variables({2: 1}).is_zero()

    def test_rejects_bool_targets(self):
        message = "variable index must be a positive integer, got True"
        with pytest.raises(ValueError, match=re.escape(message)):
            (x(1) * x(2)).map_variables({2: True})

    @pytest.mark.parametrize("target", [0, -1])
    def test_rejects_targets_below_one(self, target):
        message = f"variable index must be a positive integer, got {target}"
        with pytest.raises(ValueError, match=re.escape(message)):
            (x(1) * x(2)).map_variables({2: target})


class TestExactDivision:
    def test_integer_division(self):
        assert div_exact(6 * x(1), 3) == 2 * x(1)
        assert div_exact(6, 3) == 2

    def test_fraction_division(self):
        assert div_exact(Fraction(1, 2), 3) == Fraction(1, 6)

    def test_inexact_division_is_an_error(self):
        with pytest.raises(ArithmeticError):
            div_exact(5, 3)
        with pytest.raises(ArithmeticError):
            div_exact(5 * x(1), 3)

    @pytest.mark.parametrize("value,divisor,message", [
        (5, 3, "inexact division 5/3"),
        (-7, 2, "inexact division -7/2"),
        (6 * x(1) + 4 * x(2) ** 2 + Fraction(5, 2) * x(3) + 9, 3, "inexact division 4/3"),
        (Fraction(1, 2) * x(1) - 7 * x(2), -2, "inexact division -7/-2"),
    ])
    def test_inexact_division_names_its_first_coefficient(self, value, divisor, message):
        with pytest.raises(ArithmeticError,
                           match=re.escape(f"{message}; this indicates an implementation bug")):
            div_exact(value, divisor)

    def test_polynomial_quotients_are_exact_per_coefficient(self):
        p = 6 * x(1) ** 3 - 12 * x(2) + Fraction(3, 5) * x(1) * x(3) - 30
        q = div_exact(p, -6)
        assert q.terms == {((1, 3),): -1, ((2, 1),): 2, ((1, 1), (3, 1)): Fraction(-1, 10), (): 5}
        assert all(type(c) is int for mono, c in q.terms.items() if mono != ((1, 1), (3, 1)))
        assert q._width == p._width
        assert div_exact(Polynomial.zero(), 5) == 0

    @pytest.mark.parametrize("value", [6, Fraction(1, 2), 6 * x(1), Polynomial.zero()])
    def test_division_by_zero(self, value):
        with pytest.raises(ZeroDivisionError, match="division of exact coefficients by zero"):
            div_exact(value, 0)

    @pytest.mark.parametrize("value,divisor,message", [
        (4, 2.0, "divisor 2.0 is not an integer"),
        (5, 2.0, "divisor 2.0 is not an integer"),
        (2 * x(1), True, "divisor True is not an integer"),
        (4.0, 2, "dividend 4.0 is not an exact rational"),
    ])
    def test_rejects_inexact_operands(self, value, divisor, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            div_exact(value, divisor)


def graded_lex_text(p):
    """The canonical text written out from ``p.terms``: terms sorted on (total
    degree, dense exponent tuple over x1..x_top), then joined with signs."""
    top = max((mono[-1][0] for mono in p.terms if mono), default=0)

    def dense(mono):
        exponents = dict(mono)
        return tuple(exponents.get(v, 0) for v in range(1, top + 1))

    text = ""
    for mono, coeff in sorted(p.terms.items(), key=lambda t: (sum(dense(t[0])), dense(t[0]))):
        factors = [] if abs(coeff) == 1 and mono else [str(abs(coeff))]
        factors += [f"x{v}^{e}" if e > 1 else f"x{v}" for v, e in mono]
        term = "*".join(factors)
        if text:
            text += f" - {term}" if coeff < 0 else f" + {term}"
        else:
            text = f"-{term}" if coeff < 0 else term
    return text or "0"


class TestRendering:
    def test_zero(self):
        assert render(Polynomial.zero()) == "0"

    def test_linear_golden(self):
        assert render(x(2) - x(1)) == "x2 - x1"

    def test_vandermonde_golden(self):
        assert render(vandermonde(3)) == (
            "x2*x3^2 - x2^2*x3 - x1*x3^2 + x1*x2^2 + x1^2*x3 - x1^2*x2"
        )

    def test_coefficients_and_constants(self):
        p = Fraction(5, 2) * x(1) - 3 * x(2) ** 2 + 4
        assert render(p) == "4 + 5/2*x1 - 3*x2^2"

    def test_graded_ordering(self):
        p = x(1) ** 3 + x(2) + 1
        assert render(p) == "1 + x2 + x1^3"
        # equal degrees, stored against the order: every variable's exponent decides
        assert render(x(2) ** 2 + x(3) ** 2 + x(1) * x(3)) == "x3^2 + x2^2 + x1*x3"

    @pytest.mark.parametrize(
        "text",
        ["0", "x2 - x1", "-3*x1^2*x2 + 1/2*x3", "7", "-7/3", "x1*x1"],
    )
    def test_parse_round_trip_from_text(self, text):
        poly = parse_polynomial(text)
        assert parse_polynomial(render(poly)) == poly

    def test_parse_inverts_render_on_random_polynomials(self):
        rng = random.Random(99)
        draws = [random_polynomial(rng, max_vars=4, max_terms=6) for _ in range(50)]
        wide = Polynomial.monomial({2: 70000})  # a field of 17 bits
        cases = [
            wide - 3 * x(1) + Polynomial.monomial({1: 65535, 3: 1}, Fraction(-2, 7)),
            Fraction(5, 3) - x(2) + x(1) * x(3),  # +-1 coefficients, a fraction constant
            -1 + x(1) - x(2) ** 2,  # a negative leading constant
            -x(3) + x(1) * x(2) + 1 - Polynomial.monomial({4: 2}, Fraction(-1, 2)),
            Polynomial.monomial({1: 1, 4: 5}, -4) + wide * Fraction(9, 4) + 7,
        ]
        for p in draws + cases + [random_polynomial(rng, max_vars=5, max_exp=1 << 18)
                                  for _ in range(20)]:
            assert parse_polynomial(render(p)) == p
            assert render(p) == graded_lex_text(p)

    def test_parse_rejects_garbage(self):
        for bad in ["", "x", "1 +", "x1 ^", "@", "1..2"]:
            with pytest.raises(ValueError):
                parse_polynomial(bad)

    @pytest.mark.parametrize("text,message", [
        ("x0^2 + x1", "variable index must be a positive integer, got 'x0'"),
        ("3*x00", "variable index must be a positive integer, got 'x00'"),
        ("1/0", "zero denominator in 1/0"),
        ("x1 - 2/0*x2", "zero denominator in 2/0"),
    ])
    def test_parse_rejects_variable_zero_and_zero_denominators(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_polynomial(text)

    @pytest.mark.parametrize("text,rest", [
        ("y1 + x1", "y1 + x1"), ("x1 + y2", " y2"), ("2*x1 ** 3", "* 3"), ("x1 x2", " x2"),
    ])
    def test_parse_names_the_text_it_stops_at(self, text, rest):
        with pytest.raises(ValueError, match=re.escape(f"cannot parse polynomial near {rest!r}")):
            parse_polynomial(text)
