"""Property tests for the accumulate-with-cancellation paths: polynomial
and exterior arithmetic, the signed product sums of poly against schoolbook
sums of products, the render/parse round trip, and the weighted
oriented partition sum against the partition-sum hyperpfaffian; for the
spec-at-point evaluator against the symbolic values; for the
partition-sum route against the exterior route on rational values and on
polynomial values that all hold x1; for the top coefficient of a wedge
power taken along element 1; for the divided power against the wedge
power; for the wedge product's associativity and
graded commutativity, and its square against a sum over subset pairs; for the
partition sum being of degree one in each block value; and for the
relabeling sign law on the partition-sum and exterior routes and the
closed form.

They need Hypothesis and are skipped when it is not installed.  Examples
are derandomized, so a run is reproducible, and no example database is
written.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial, prod

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hyperpfaffian.combinat import (  # noqa: E402
    increasing_compositions,
    permutation_sign,
    signed_equal_block_partitions,
)
from hyperpfaffian.exterior import ExteriorElement, merge_sign  # noqa: E402
from hyperpfaffian.hpf import (  # noqa: E402
    SkewFunction,
    SkewSpec,
    pf_closed_form,
    pf_definition,
    pf_exterior,
    relabel,
    skew_function_at,
    skew_function_from_spec,
    skew_function_from_spec_at,
)
from hyperpfaffian.involution import check_involution  # noqa: E402
from hyperpfaffian.poly import Polynomial, parse_polynomial, product_sums, render  # noqa: E402

VARIABLES = 4

bounded = settings(max_examples=60, deadline=None, derandomize=True, database=None)

coefficients = st.one_of(
    st.integers(-9, 9),
    st.fractions(-9, 9, max_denominator=6).filter(lambda q: q.denominator > 1),
)
monomials = st.dictionaries(st.integers(1, VARIABLES), st.integers(1, 3), max_size=3).map(
    lambda exponents: tuple(sorted(exponents.items()))
)
polynomials = st.dictionaries(monomials, coefficients, max_size=6).map(Polynomial)
points = st.lists(st.integers(-5, 5), min_size=VARIABLES, max_size=VARIABLES).map(
    lambda values: {v + 1: value for v, value in enumerate(values)}
)
renamings = st.dictionaries(st.integers(1, VARIABLES), st.integers(1, VARIABLES))
exterior_elements = st.dictionaries(
    st.integers(0, (1 << VARIABLES) - 1), st.one_of(coefficients, polynomials), max_size=8
).map(lambda table: ExteriorElement(VARIABLES, table))
#: scalar coefficients take the wedge's plain path, polynomial ones its packed kernel
wedge_coefficients = pytest.mark.parametrize(
    "values", [coefficients, polynomials], ids=["scalar", "polynomial"]
)


def homogeneous_elements(values):
    """(grade, element) with every stored subset of that grade."""
    def of_grade(grade):
        masks = [m for m in range(1 << VARIABLES) if m.bit_count() == grade]
        table = st.dictionaries(st.sampled_from(masks), values, min_size=1, max_size=4)
        return table.map(lambda t: (grade, ExteriorElement(VARIABLES, t)))

    return st.integers(0, VARIABLES).flatmap(of_grade)


@bounded
@given(polynomials)
def test_render_parse_round_trip(p):
    assert parse_polynomial(render(p)) == p


@bounded
@given(polynomials, polynomials, points)
def test_sum_and_product_agree_with_evaluation(p, q, point):
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)


def schoolbook(factors):
    """The product of polynomials term by term, exponents merged by hand."""
    terms = {(): 1}
    for factor in factors:
        merged = {}
        for m1, c1 in terms.items():
            for m2, c2 in factor.terms.items():
                exponents = dict(m1)
                for var, exp in m2:
                    exponents[var] = exponents.get(var, 0) + exp
                key = tuple(sorted(exponents.items()))
                merged[key] = merged.get(key, 0) + c1 * c2
        terms = merged
    return Polynomial(terms)


#: (sign, left key, right keys), zero right keys being the n = k shape
signed_chains = st.tuples(st.sampled_from([1, -1, 2, -3]), st.integers(0, 2),
                          st.lists(st.integers(0, 3), max_size=3))


def value_tables(values, idle):
    """A left table of three values and a right table of four, plus ``idle``."""
    return st.tuples(st.lists(values, min_size=3, max_size=3).map(lambda v: dict(enumerate(v))),
                     st.lists(values, min_size=4, max_size=4).map(
                         lambda v: dict(enumerate(v), idle=idle)))


@bounded
@given(st.one_of(value_tables(polynomials, Polynomial.variable(2) ** 64),
                 value_tables(st.integers(-9, 9), 5), value_tables(coefficients, Fraction(1, 2))),
       st.lists(st.lists(signed_chains, max_size=4), min_size=1, max_size=3))
def test_product_sums_are_schoolbook_sums_of_products(tables, outputs):
    """Several outputs; x1 in left and right values, so the classes by x1's
    exponent share monomials; chains with no right factor; and a right value
    no term names, of a degree no term reaches, which must not widen the products.
    Tables of ints, or of ints and Fractions, give scalar sums."""
    left, right = tables
    polynomial = isinstance(right["idle"], Polynomial)
    lift = (lambda v: v) if polynomial else Polynomial.constant
    sums = {u: [(sign, (a, *bs)) for sign, a, bs in chains] for u, chains in enumerate(outputs)}
    expected = {u: sum((sign * schoolbook(map(lift, [left[a], *map(right.get, bs)]))
                        for sign, a, bs in chains), Polynomial.zero())
                for u, chains in enumerate(outputs)}
    result = product_sums(left, right, sums)
    assert result == expected
    assert all(isinstance(value, Polynomial) == polynomial for value in result.values())


@bounded
@given(polynomials, renamings, points)
def test_renaming_agrees_with_evaluation(p, mapping, point):
    moved = {v: point[mapping.get(v, v)] for v in point}
    assert p.map_variables(mapping).evaluate(point) == p.evaluate(moved)


@bounded
@given(exterior_elements, exterior_elements)
def test_exterior_addition_commutes_and_cancels(a, b):
    assert a + b == b + a
    assert (a - a).table == {}


@wedge_coefficients
def test_wedge_is_associative(values):
    elements = st.dictionaries(st.integers(0, (1 << VARIABLES) - 1), values, max_size=4).map(
        lambda table: ExteriorElement(VARIABLES, table)
    )

    @settings(bounded, max_examples=25)
    @given(elements, elements, elements)
    def check(a, b, c):
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))

    check()


@wedge_coefficients
def test_wedge_is_graded_commutative(values):
    @settings(bounded, max_examples=40)
    @given(homogeneous_elements(values), homogeneous_elements(values))
    def check(first, second):
        (p, a), (q, b) = first, second
        swapped = b.wedge(a)
        assert a.wedge(b) == (-swapped if p * q % 2 else swapped)

    check()


@wedge_coefficients
def test_square_matches_the_product_with_a_copy(values):
    nonzero = values.filter(bool)

    def grade_parity(parity):
        return st.sampled_from(
            [m for m in range(1, 1 << VARIABLES) if m.bit_count() % 2 == parity])

    # a scalar (mask 0) part and subsets of both odd and even grade
    elements = st.tuples(
        nonzero,
        st.dictionaries(grade_parity(1), nonzero, min_size=1, max_size=3),
        st.dictionaries(grade_parity(0), nonzero, min_size=1, max_size=3),
    ).map(lambda parts: ExteriorElement(VARIABLES, {0: parts[0], **parts[1], **parts[2]}))

    @settings(bounded, max_examples=40)
    @given(elements)
    def check(a):
        square: dict = {}  # the oracle: each ordered pair of disjoint subsets
        for s, x in a.table.items():
            for t, y in a.table.items():
                if not s & t:
                    square[s | t] = square.get(s | t, 0) + merge_sign(s, t) * x * y
        assert a.wedge(a) == ExteriorElement(a.n, square)

    check()


@wedge_coefficients
def test_top_of_a_power_is_taken_along_element_one(values):
    """E1 ^ E1 = 0 and even grades commute, so top(E^m) = m * top(E1 ^ R^(m-1))
    for E = E1 + R, with E1 the subsets that hold 1: the exterior route's
    identity."""
    even = [m for m in range(1 << VARIABLES) if m.bit_count() % 2 == 0]
    elements = st.dictionaries(st.sampled_from(even), values, max_size=6).map(
        lambda table: ExteriorElement(VARIABLES, table))

    @settings(bounded, max_examples=40)
    @given(elements, st.integers(1, VARIABLES))
    def check(e, m):
        first = ExteriorElement(e.n, {s: c for s, c in e.table.items() if s & 1})
        rest = ExteriorElement(e.n, {s: c for s, c in e.table.items() if not s & 1})
        along = first.wedge(rest.wedge_power(m - 1)).top_coefficient()
        assert e.wedge_power(m).top_coefficient() == m * along

    check()


@wedge_coefficients
def test_divided_power_times_m_factorial_is_the_wedge_power(values):
    n = 6  # room for three 2-subsets, or a 2-subset and a 4-subset
    even = [m for m in range(1, 1 << n) if m.bit_count() % 2 == 0]
    elements = st.dictionaries(st.sampled_from(even), values, max_size=10).map(
        lambda table: ExteriorElement(n, table))

    @settings(bounded, max_examples=40)
    @given(elements, st.integers(0, 4))
    def check(e, m):
        divided = e.divided_power(m)
        times = ExteriorElement(n, {s: factorial(m) * c for s, c in divided.table.items()})
        assert times == e.wedge_power(m)

    check()


def specs(n, k):
    vectors = tuple(increasing_compositions(n, k))
    return st.lists(coefficients, min_size=len(vectors), max_size=len(vectors)).map(
        lambda values: SkewSpec(n, k, dict(zip(vectors, values)))
    )


@pytest.mark.parametrize("n,k,examples", [(4, 2, 30), (4, 4, 30), (6, 2, 10)])
def test_weighted_sum_is_the_partition_sum(n, k, examples):
    @settings(bounded, max_examples=examples)
    @given(specs(n, k))
    def check(spec):
        result = check_involution(spec)
        assert result.failure is None
        assert result.repeated_sum + result.distinct_sum == pf_definition(
            skew_function_from_spec(spec)
        )

    check()


@pytest.mark.parametrize("n,k,examples", [(4, 2, 40), (4, 4, 40), (6, 2, 20)])
def test_spec_at_point_is_the_symbolic_value_at_the_point(n, k, examples):
    @settings(bounded, max_examples=examples)
    @given(specs(n, k), st.lists(coefficients, min_size=n, max_size=n))
    def check(spec, point):
        direct = skew_function_from_spec_at(spec, point).values
        assert direct == skew_function_at(skew_function_from_spec(spec), point).values

    check()


def skew_functions(n, k):
    """Skew functions with a random rational on every sorted k-subset."""
    subsets = list(combinations(range(1, n + 1), k))
    rationals = st.fractions(-9, 9, max_denominator=6)
    return st.lists(rationals, min_size=len(subsets), max_size=len(subsets)).map(
        lambda values: SkewFunction(n, k, dict(zip(subsets, values)))
    )


@pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (4, 4)])
def test_partition_sum_is_the_exterior_route_on_rationals(n, k):
    @settings(bounded, max_examples=30)
    @given(skew_functions(n, k))
    def check(f):
        assert pf_definition(f) == pf_exterior(f)

    check()


@pytest.mark.parametrize("n,k,examples", [(4, 2, 30), (6, 2, 15), (4, 4, 30)])
def test_routes_agree_where_x1_occurs_in_every_block_value(n, k, examples):
    """Both routes sum by the exponent of x1 in the block holding 1.  Here x1
    occurs in every block value too, so the classes share monomials and must
    be added with cancellation.  The oracle multiplies the values with `*`."""
    subsets = list(combinations(range(1, n + 1), k))
    # these monomials have exponents up to 3, so c * x1^e never cancels
    x1 = Polynomial.variable(1)
    rationals = st.fractions(-9, 9, max_denominator=6)  # unfiltered: 15 values per example
    rest = st.dictionaries(monomials, rationals, max_size=6).map(Polynomial)
    values = st.tuples(st.integers(1, 9), st.integers(4, 5), rest).map(
        lambda drawn: drawn[0] * x1 ** drawn[1] + drawn[2])

    @settings(bounded, max_examples=examples)
    @given(st.lists(values, min_size=len(subsets), max_size=len(subsets)))
    def check(block_values):
        f = SkewFunction(n, k, dict(zip(subsets, block_values)))
        expanded = sum(sign * prod(map(f.values.__getitem__, blocks))
                       for sign, blocks in signed_equal_block_partitions(n, k))
        assert pf_definition(f) == pf_exterior(f) == expanded

    check()


@pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (4, 4)])
def test_partition_sum_is_affine_in_one_block_value(n, k):
    """Each partition has at most one block equal to a given subset, so
    the sum has degree at most one in that subset's value."""
    values = st.one_of(coefficients, polynomials)

    @settings(bounded, max_examples=20)
    @given(skew_functions(n, k), st.data(), values, values, coefficients)
    def check(f, data, u, v, c):
        subset = data.draw(st.sampled_from(sorted(f.values)))

        def pf_with(value):
            return pf_definition(SkewFunction(n, k, {**f.values, subset: value}))

        assert pf_with(u + c * v) + c * pf_with(0) == pf_with(u) + c * pf_with(v)

    check()


@pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (4, 4)])
def test_relabeling_multiplies_by_the_permutation_sign(n, k):
    @settings(bounded, max_examples=20)
    @given(skew_functions(n, k), st.permutations(range(1, n + 1)))
    def check(f, perm):
        assert pf_definition(relabel(f, perm)) == permutation_sign(perm) * pf_definition(f)

    check()


@pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (4, 4)])
def test_relabeling_sign_law_on_the_exterior_route(n, k):
    @settings(bounded, max_examples=20)
    @given(skew_functions(n, k), st.permutations(range(1, n + 1)))
    def check(f, perm):
        assert pf_exterior(relabel(f, perm)) == permutation_sign(perm) * pf_exterior(f)

    check()


@pytest.mark.parametrize("n,k,examples", [(4, 2, 20), (4, 4, 20), (6, 2, 10)])
def test_relabeled_spec_is_the_signed_closed_form(n, k, examples):
    @settings(bounded, max_examples=examples)
    @given(specs(n, k), st.permutations(range(1, n + 1)))
    def check(spec, perm):
        relabeled = relabel(skew_function_from_spec(spec), perm)
        assert pf_exterior(relabeled) == permutation_sign(perm) * pf_closed_form(spec)

    check()
