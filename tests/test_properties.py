"""Property tests for the accumulate-with-cancellation paths: polynomial
and exterior arithmetic, the render/parse round trip, and the weighted
oriented partition sum against the partition-sum hyperpfaffian; for the
spec-at-point evaluator against the symbolic values; and for the
partition-sum route against the exterior route on rational values.

They need Hypothesis and are skipped when it is not installed.  Examples
are derandomized, so a run is reproducible, and no example database is
written.
"""

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hyperpfaffian.combinat import increasing_compositions  # noqa: E402
from hyperpfaffian.exterior import ExteriorElement  # noqa: E402
from hyperpfaffian.hpf import (  # noqa: E402
    SkewFunction,
    SkewSpec,
    pf_definition,
    pf_exterior,
    skew_function_at,
    skew_function_from_spec,
    skew_function_from_spec_at,
)
from hyperpfaffian.involution import signed_weighted_sum  # noqa: E402
from hyperpfaffian.poly import Polynomial, parse_polynomial, render  # noqa: E402

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


@bounded
@given(polynomials)
def test_render_parse_round_trip(p):
    assert parse_polynomial(render(p)) == p


@bounded
@given(polynomials, polynomials, points)
def test_sum_and_product_agree_with_evaluation(p, q, point):
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)


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
        assert signed_weighted_sum(spec) == pf_definition(skew_function_from_spec(spec))

    check()


@pytest.mark.parametrize("n,k,examples", [(4, 2, 40), (4, 4, 40), (6, 2, 20)])
def test_spec_at_point_is_the_symbolic_value_at_the_point(n, k, examples):
    @settings(bounded, max_examples=examples)
    @given(specs(n, k), st.lists(coefficients, min_size=n, max_size=n))
    def check(spec, point):
        direct = skew_function_from_spec_at(spec, point).values
        assert direct == skew_function_at(skew_function_from_spec(spec), point).values

    check()


@pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (4, 4)])
def test_partition_sum_is_the_exterior_route_on_rationals(n, k):
    subsets = list(combinations(range(1, n + 1), k))
    rationals = st.fractions(-9, 9, max_denominator=6)

    @settings(bounded, max_examples=30)
    @given(st.lists(rationals, min_size=len(subsets), max_size=len(subsets)))
    def check(values):
        f = SkewFunction(n, k, dict(zip(subsets, values)))
        assert pf_definition(f) == pf_exterior(f)

    check()
