import random
import re
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import factorial

import pytest

from hyperpfaffian.exterior import ExteriorElement, merge_sign
from hyperpfaffian.poly import Polynomial


def gen(n, i):
    return ExteriorElement.generator(n, i)


def random_element(rng, n, grade=None, max_coeff=5):
    """Random element; fixed grade when given, otherwise mixed grades."""
    table = {}
    sizes = [grade] if grade is not None else range(n + 1)
    for size in sizes:
        for subset in combinations(range(1, n + 1), size):
            if rng.random() < 0.4:
                coeff = rng.randint(-max_coeff, max_coeff)
                if coeff:
                    mask = 0
                    for element in subset:
                        mask |= 1 << (element - 1)
                    table[mask] = coeff
    return ExteriorElement(n, table)


class TestBasics:
    def test_single_generators_multiply_in_order(self):
        assert gen(2, 1).wedge(gen(2, 2)) == ExteriorElement.from_subset_values(2, {(1, 2): 1})

    def test_transposed_generators_flip_sign(self):
        assert gen(2, 2).wedge(gen(2, 1)) == ExteriorElement.from_subset_values(2, {(1, 2): -1})

    def test_overlapping_subsets_vanish(self):
        a = ExteriorElement.from_subset_values(3, {(1, 2): 1})
        b = ExteriorElement.from_subset_values(3, {(1, 3): 1})
        assert not a.wedge(b)

    def test_merge_sign_counts_crossings(self):
        # {2, 4} against {1, 3}: crossings (2,1), (4,1), (4,3)
        s = (1 << 1) | (1 << 3)
        t = (1 << 0) | (1 << 2)
        assert merge_sign(s, t) == -1
        # {1, 3} against {2, 4}: the single crossing (3, 2)
        assert merge_sign(t, s) == -1

    @pytest.mark.parametrize("n", range(9))
    def test_merge_sign_is_the_crossing_parity(self, n):
        # every ordered pair of disjoint subsets of [n], against a plain count
        # of the pairs (s, t) in S x T with s > t; the wedge of the two basis
        # elements takes the same sign through its own per-level parity masks
        for labels in product(range(3), repeat=n):  # 0: in neither, 1: in S, 2: in T
            s = sum(1 << i for i, label in enumerate(labels) if label == 1)
            t = sum(1 << i for i, label in enumerate(labels) if label == 2)
            crossings = sum(1 for i in range(n) for j in range(i) if s >> i & 1 and t >> j & 1)
            sign = (-1) ** crossings
            assert merge_sign(s, t) == sign, (s, t)
            if n <= 6:
                assert ExteriorElement(n, {s: 1}).wedge(ExteriorElement(n, {t: 1})).table == {
                    s | t: sign}

    def test_a_union_whose_terms_cancel_is_dropped(self):
        # e1 ^ e2 and e2 ^ e1 cancel at {1, 2}; {1, 3} and {2, 3} stay
        a = gen(3, 1) + gen(3, 2)
        assert a.wedge(a + gen(3, 3)).table == {0b101: 1, 0b110: 1}
        assert a.wedge(ExteriorElement(3, {0b001: 2, 0b010: 2, 0b100: -1})).table == {
            0b101: -1, 0b110: -1}

    def test_mismatched_generator_counts(self):
        with pytest.raises(ValueError):
            gen(2, 1).wedge(gen(3, 1))

    @pytest.mark.parametrize("build,message", [
        (lambda: ExteriorElement(True), "number of generators must be a nonnegative integer, got True"),
        (lambda: ExteriorElement(2, {True: 5}), "mask True is not a subset of [2]"),
        (lambda: ExteriorElement.from_subset_values(2, {(True, 2): 5}),
         "subset element True is not in 1..2"),
    ], ids=["order", "mask", "subset"])
    def test_rejects_bool(self, build, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()

    def test_repr_lists_subsets_in_mask_order(self):
        element = ExteriorElement(3, {0b101: 2, 0b010: 3})
        assert repr(element) == "ExteriorElement(n=3, {(2,): 3, (1, 3): 2})"

    @pytest.mark.parametrize("values,message", [
        ({(1, 1): 1}, "repeated element 1 in subset (1, 1)"),
        ({(1, 2): 1, (2, 1): 2}, "subset (2, 1) listed twice"),
    ], ids=["repeated", "twice"])
    def test_rejects_a_subset_named_twice(self, values, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ExteriorElement.from_subset_values(3, values)

    def test_coefficient_of_a_subset(self):
        element = ExteriorElement.from_subset_values(3, {(1, 3): 5})
        assert element.coefficient((3, 1)) == 5
        assert element.coefficient((1, 2)) == 0

    def test_sum_of_mismatched_generator_counts(self):
        with pytest.raises(ValueError, match="mismatched generator counts: 2 vs 3"):
            gen(2, 1) + gen(3, 1)

    def test_unknown_operands(self):
        class Reflected:  # each operator answers with its name
            __eq__ = lambda self, other: "eq"
            __radd__ = lambda self, other: "radd"

        assert [gen(2, 1) == Reflected(), gen(2, 1) + Reflected()] == ["eq", "radd"]
        with pytest.raises(TypeError, match="cannot wedge with int"):
            gen(2, 1).wedge(3)

    def test_top_coefficient(self):
        five = ExteriorElement.from_subset_values(3, {(1, 2, 3): 5})
        assert five.coefficient(range(1, 4)) == 5
        assert gen(2, 1).coefficient(range(1, 3)) == 0


class TestAlgebraLaws:
    def test_graded_commutativity_on_random_homogeneous_elements(self):
        rng = random.Random(7)
        for n in range(2, 7):
            for _ in range(10):
                ga = rng.randint(1, n)
                gb = rng.randint(1, n)
                a = random_element(rng, n, grade=ga)
                b = random_element(rng, n, grade=gb)
                ab = a.wedge(b)
                ba = b.wedge(a)
                if ga * gb % 2:
                    assert ab == -ba
                else:
                    assert ab == ba

    def test_associativity_on_random_triples(self):
        rng = random.Random(8)
        for n in range(2, 6):
            for _ in range(10):
                a = random_element(rng, n)
                b = random_element(rng, n)
                c = random_element(rng, n)
                assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))

    def test_grade_additivity(self):
        rng = random.Random(9)
        for _ in range(10):
            a = random_element(rng, 6, grade=2)
            b = random_element(rng, 6, grade=3)
            product = a.wedge(b)
            assert {len(s) for s, _ in product.subsets()} <= {5}

    def test_distributes_over_addition(self):
        rng = random.Random(10)
        for _ in range(10):
            a = random_element(rng, 5)
            b = random_element(rng, 5)
            c = random_element(rng, 5)
            assert a.wedge(b + c) == a.wedge(b) + a.wedge(c)


class TestWedgePower:
    def test_zeroth_power_is_scalar_one(self):
        a = ExteriorElement.from_subset_values(4, {(1, 2): 3})
        assert a.wedge_power(0) == ExteriorElement.scalar(4, 1)

    def test_first_power_is_identity(self):
        a = ExteriorElement.from_subset_values(4, {(1, 2): 3, (3, 4): -1})
        assert a.wedge_power(1) == a

    def test_generic_pairing_square(self):
        # symbolic subset values: a distinct variable per 2-subset of [4]
        labels = {subset: Polynomial.variable(i + 1)
                  for i, subset in enumerate(combinations(range(1, 5), 2))}
        a = ExteriorElement.from_subset_values(4, labels)
        top = a.wedge_power(2).coefficient(range(1, 5))
        f12, f13, f14, f23, f24, f34 = (labels[s] for s in sorted(labels))
        assert top == 2 * (f12 * f34 - f13 * f24 + f14 * f23)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_squaring_matches_left_fold(self, m):
        rng = random.Random(40 + m)
        for grade in (2, 4):
            a = random_element(rng, 6, grade=grade)
            # distinct copies, so that the fold wedges no element with itself
            copies = [ExteriorElement(a.n, dict(a.table)) for _ in range(m)]
            fold = reduce(ExteriorElement.wedge, copies)
            assert a.wedge_power(m) == fold

    def test_square_with_a_scalar_part(self):
        # the scalar part (mask 0) pairs with itself once, and with each
        # other subset on either side
        e = ExteriorElement(3, {0: 2, 0b001: 1, 0b110: 3})
        copy = ExteriorElement(3, dict(e.table))
        square: dict = {}  # the oracle: each ordered pair of disjoint subsets
        for s, x in e.table.items():
            for t, y in e.table.items():
                if not s & t:
                    square[s | t] = square.get(s | t, 0) + merge_sign(s, t) * x * y
        assert e.wedge(e) == ExteriorElement(3, square) == ExteriorElement(
            3, {0: 4, 0b001: 4, 0b110: 12, 0b111: 6})
        assert e.wedge_power(2) == e.wedge(copy)
        assert e.wedge_power(3) == e.wedge(copy).wedge(copy)

    def test_odd_grade_square_vanishes(self):
        rng = random.Random(50)
        a = random_element(rng, 5, grade=3)
        assert not a.wedge_power(2)
        # two pairs of disjoint 3-subsets, so the square has pairs to cancel
        b = ExteriorElement.from_subset_values(
            6, {(1, 2, 3): 2, (4, 5, 6): -3, (1, 4, 5): 1, (2, 3, 6): 5})
        assert not b.wedge_power(2)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            gen(2, 1).wedge_power(-1)

    def test_bool_power_rejected(self):
        message = "wedge power must be a nonnegative integer, got True"
        with pytest.raises(ValueError, match=re.escape(message)):
            gen(2, 1).wedge_power(True)


class TestPolynomialCoefficients:
    def test_wedge_with_polynomial_values(self):
        p = Polynomial.variable(9)
        q = Polynomial.variable(10) + 1
        a = ExteriorElement.from_subset_values(4, {(1, 2): p})
        b = ExteriorElement.from_subset_values(4, {(3, 4): q})
        assert a.wedge(b).coefficient(range(1, 5)) == p * q
        assert b.wedge(a).coefficient(range(1, 5)) == p * q


def even_element(rng, n, grades, coefficient):
    """Random element on subsets of the given even grades, each drawn with
    probability 0.6 and given a nonzero coefficient."""
    table = {}
    for grade in grades:
        for subset in combinations(range(1, n + 1), grade):
            if rng.random() < 0.6:
                table[sum(1 << (e - 1) for e in subset)] = coefficient(rng)
    return ExteriorElement(n, table)


COEFFICIENTS = {
    "int": lambda rng: rng.choice([-3, -2, -1, 1, 2, 3]),
    "fraction": lambda rng: Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([2, 3, 5])),
    "polynomial": lambda rng: rng.randint(1, 3) * Polynomial.variable(rng.randint(9, 10))
    - rng.randint(0, 2),
}


class TestDividedPower:
    @pytest.mark.parametrize("kind", sorted(COEFFICIENTS))
    @pytest.mark.parametrize("grades", [(2,), (4,), (2, 4)], ids=["2", "4", "2+4"])
    @pytest.mark.parametrize("m", range(5))
    def test_times_m_factorial_is_the_wedge_power(self, m, grades, kind):
        rng = random.Random(f"{m}-{grades}-{kind}")
        e = even_element(rng, 8, grades, COEFFICIENTS[kind])
        divided = e.divided_power(m)
        times = ExteriorElement(e.n, {s: factorial(m) * c for s, c in divided.table.items()})
        assert times == e.wedge_power(m)
        # a power that reaches the top grade, so the check is not 0 == 0
        assert divided or min(grades) * m > e.n

    def test_zeroth_is_the_scalar_one_and_first_is_the_element(self):
        e = ExteriorElement.from_subset_values(6, {(1, 2): 3, (3, 4, 5, 6): Fraction(1, 2)})
        assert e.divided_power(0) == ExteriorElement.scalar(6, 1)
        assert e.divided_power(1) == e

    def test_disjoint_two_subsets(self):
        # the pairs of 4 disjoint subsets, each taken once with its merge sign
        e = ExteriorElement.from_subset_values(
            4, {(1, 2): 2, (3, 4): 3, (1, 3): 5, (2, 4): 7, (1, 4): 11, (2, 3): 13})
        assert e.divided_power(2) == ExteriorElement.from_subset_values(
            4, {(1, 2, 3, 4): 2 * 3 - 5 * 7 + 11 * 13})
        assert not e.divided_power(3)

    def test_three_blocks_with_their_merge_signs(self):
        # (1, 6) takes 1 first, and (2, 5) ^ (3, 4) crosses twice
        e = ExteriorElement.from_subset_values(
            6, {(1, 6): 2, (2, 3): 3, (4, 5): 5, (2, 5): 7, (3, 4): 11})
        assert e.divided_power(3) == ExteriorElement.from_subset_values(
            6, {(1, 2, 3, 4, 5, 6): 2 * (3 * 5 + 7 * 11)})

    @pytest.mark.parametrize("table,subset", [
        ({0b11: 1, 0b111: 2}, "(1, 2, 3)"),
        ({0b1100: 1, 0b1: 2}, "(1,)"),
        ({0: 5, 0b11: 1}, "()"),
    ], ids=["odd", "one", "scalar"])
    def test_refuses_odd_and_empty_subsets(self, table, subset):
        message = f"divided power needs subsets of even, nonzero size, got {subset}"
        for m in (0, 1, 2):
            with pytest.raises(ValueError, match=re.escape(message)):
                ExteriorElement(4, table).divided_power(m)

    @pytest.mark.parametrize("m", [-1, True, 1.0])
    def test_refuses_powers_as_wedge_power_does(self, m):
        e = ExteriorElement.from_subset_values(4, {(1, 2): 1})
        message = f"wedge power must be a nonnegative integer, got {m!r}"
        for power in (e.wedge_power, e.divided_power):
            with pytest.raises(ValueError, match=re.escape(message)):
                power(m)
