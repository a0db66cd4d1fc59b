"""The three hyperpfaffian evaluation routes and the identities tying a
skew-symmetric function's hyperpfaffian to its coefficients.

A skew-symmetric k-ary function on [n] is determined by its values on the
sorted k-subsets, with values on other argument orders defined by the sign
of the reordering.  Two input shapes are supported:

* :class:`SkewSpec` -- a homogeneous skew-symmetric *polynomial* in k
  variables described by one coefficient per strictly increasing exponent
  tuple (antisymmetrizing each such term over all k! orders recovers the
  full polynomial);
* :class:`SkewFunction` -- arbitrary exact values (scalars or polynomials)
  on all sorted k-subsets of [n].

The three routes:

* :func:`pf_definition` -- the signed sum over equal-block partitions of
  the products of block values;
* :func:`pf_exterior` -- the top coefficient of E1 ^ R^(n/k-1) / (n/k-1)!,
  where E1 holds the subsets with 1 of the subset-weighted generator sum
  E = E1 + R, with the divided power of R taken without division;
* :func:`pf_closed_form` -- for a SkewSpec of full degree k/2*(n-1), the
  closed form: a signed sum of coefficient products over composition
  tilings times the Vandermonde product.

All three agree exactly; the test suite checks this symbolically and at
integer points.  The first two sum their signed products, scalar or
polynomial, in :func:`~hyperpfaffian.poly.product_sums` calls; only
:mod:`hyperpfaffian.poly` knows the packed monomial format and the value types.
"""

from __future__ import annotations

from itertools import combinations, filterfalse, islice
from math import comb, prod
from operator import mul
from typing import Mapping, Sequence, Union

from .combinat import (
    check_divides,
    check_even,
    check_full_degree,
    check_order,
    check_weight_vectors,
    composition_tilings,
    full_degree,
    inversion_sign,
    permutation_sign,
    signed_equal_block_partitions,
    tiling_sign,
)
from .exterior import ExteriorElement, merge_sign
from .poly import (
    Polynomial,
    Scalar,
    alternant,
    check_integers,
    check_point,
    is_integer,
    is_scalar,
    product_sums,
    vandermonde,
)

Value = Union[Scalar, Polynomial]


class SkewSpec:
    """Coefficient description of a homogeneous skew-symmetric polynomial.

    ``coeffs`` maps strictly increasing k-tuples of nonnegative exponents
    (each summing to ``degree``) to rational coefficients, zeros dropped.
    The default degree, k/2*(n-1), is the one for which the closed form
    applies; lower ones are legal and make the hyperpfaffian vanish.  This
    is the one place a spec is checked, by combinat's rules: the CLI's
    loader checks only the file format, the closed form only the degree.
    """

    __slots__ = ("n", "k", "degree", "coeffs")

    def __init__(
        self,
        n: int,
        k: int,
        coeffs: Mapping[Sequence[int], Scalar],
        degree: int | None = None,
    ):
        check_order(n, k)
        if degree is None:
            degree = full_degree(n, k)
        if not is_integer(degree) or degree < 0:
            raise ValueError(f"degree must be a nonnegative integer, got {degree!r}")
        self.n = n
        self.k = k
        self.degree = degree
        keys = check_weight_vectors(coeffs, k, degree, "exponent tuple")
        cleaned: dict[tuple[int, ...], Scalar] = {}
        for exponents, value in zip(keys, coeffs.values()):
            if not is_scalar(value):
                raise ValueError(f"coefficient for {exponents!r} is not an exact rational: {value!r}")
            if exponents in cleaned:
                raise ValueError(f"duplicate exponent tuple {list(exponents)}")
            if value:
                cleaned[exponents] = value
        self.coeffs = dict(sorted(cleaned.items()))

    @property
    def full_degree(self) -> int:
        return full_degree(self.n, self.k)

    def coefficient(self, exponents: Sequence[int]) -> Scalar:
        """Coefficient lookup; tuples absent from the spec count as 0."""
        exponents = tuple(exponents)
        check_integers(exponents, "exponent")
        return self.coeffs.get(exponents, 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SkewSpec):
            return NotImplemented
        return (
            self.n == other.n
            and self.k == other.k
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"SkewSpec(n={self.n}, k={self.k}, degree={self.degree}, coeffs={self.coeffs})"


class SkewFunction:
    """Skew-symmetric k-ary function on [n], stored on sorted k-subsets.

    For sorted-subset input skew-symmetry is definitional: values at other
    argument orders are the stored value times the sign of the sorting
    permutation (see :meth:`value_at`).
    """

    __slots__ = ("n", "k", "values")

    def __init__(self, n: int, k: int, values: Mapping[Sequence[int], Value]):
        check_order(n, k)
        if k > n:
            raise ValueError(f"block size k must be at most n, got k={k}, n={n}")
        self.n = n
        self.k = k
        stored: dict[tuple[int, ...], Value] = {}
        for key, value in values.items():
            subset = tuple(key)
            check_integers(subset, "subset element")
            if not (is_scalar(value) or isinstance(value, Polynomial)):
                raise ValueError(
                    f"value on {subset!r} is not an exact rational or polynomial: {value!r}"
                )
            stored[subset] = value

        def absent():  # each walk below stops within the table's own length
            return filterfalse(stored.__contains__, combinations(range(1, n + 1), k))

        if len(stored) != comb(n, k) or next(absent(), None) is not None:
            missing = list(islice(absent(), 3))
            extra = sorted(s for s in stored if not (
                len(s) == k and s == tuple(sorted(set(s))) and 0 < s[0] and s[-1] <= n))[:3]
            raise ValueError(
                f"values must cover exactly the sorted {k}-subsets of [{n}]"
                + (f"; missing {missing}" if missing else "")
                + (f"; unexpected {extra}" if extra else "")
            )
        self.values = stored

    def __getitem__(self, subset: Sequence[int]) -> Value:
        key = tuple(subset)
        if not all(map(is_integer, key)) or key not in self.values:
            raise ValueError(f"{key!r} is not a sorted {self.k}-subset of [{self.n}]")
        return self.values[key]

    def value_at(self, args: Sequence[int]) -> Value:
        """Value at an arbitrary argument order (0 on repeated arguments)."""
        ordered = tuple(args)
        if len(ordered) != self.k or not all(is_integer(a) and 1 <= a <= self.n for a in ordered):
            raise ValueError(f"arguments {ordered!r} are not {self.k} integers in 1..{self.n}")
        if len(set(ordered)) != len(ordered):
            return 0
        sign = inversion_sign(ordered)
        value = self.values[tuple(sorted(ordered))]
        return value if sign > 0 else -value


def _spec_value(spec: SkewSpec, block: Sequence[int]) -> Polynomial:
    """The spec's polynomial on the variables of a block B: the sum over the
    spec of a_r times the alternant det[x_(B_i)^(r_j)]."""
    return sum((a * alternant(r, block) for r, a in spec.coeffs.items()), Polynomial.zero())


def skew_expand(spec: SkewSpec) -> Polynomial:
    """The full polynomial on x_1..x_k, with exactly k! * len(coeffs) terms:
    each monomial of the spec antisymmetrized over all k! argument orders."""
    return _spec_value(spec, range(1, spec.k + 1))


def skew_function_from_spec(spec: SkewSpec) -> SkewFunction:
    """Materialize a spec's polynomial values on all sorted k-subsets of [n]."""
    blocks = combinations(range(1, spec.n + 1), spec.k)
    return SkewFunction(spec.n, spec.k, {block: _spec_value(spec, block) for block in blocks})


def skew_function_from_spec_at(spec: SkewSpec, point: Sequence[Scalar]) -> SkewFunction:
    """Scalar values of the spec's polynomial at a point, per sorted subset.

    The value on a subset s is sum_r a_r * det[x_(s_i)^(r_j)], so the
    k!-term expansion is never built.  Each determinant's first k-2 rows are
    expanded along their last row, D_m[E] = sum_j (-1)^(m-1+j) x_(s_m)^(E_j)
    D_(m-1)[E - E_j], over the exponent sets E inside some r, up to m = k-2.
    Its last two rows are expanded at once (the generalized Laplace
    expansion): per pair of coordinates i < j, one weight per level k-2 set
    F sums (-1)^(p+q+1) a_r (x_i^(r_p) x_j^(r_q) - x_i^(r_q) x_j^(r_p)) over
    the r and positions p < q with r - {r_p, r_q} = F, so a subset's value is
    one dot product of its level k-2 minors with the weights of its last two
    coordinates.  Only the pairs that can end a subset get weights.  Subsets
    are visited depth first in sorted order, so a shared prefix's minors are
    computed once, and only one chain of k-2 minor tables is alive at a time.
    """
    n, k = spec.n, spec.k
    if len(point) != n:
        raise ValueError(f"point has {len(point)} coordinates, expected {n}")
    check_point(point)
    rows = [[x**e for e in range(spec.degree + 1)] for x in point]
    powers = [(row, [-value for value in row]) for row in rows]  # [i][odd][e]
    # rules[m] lists, per exponent set E of size m, its Laplace terms as
    # (sign parity, exponent E_j, slot of E - E_j in the level m-1 table).
    slots: dict[tuple[int, ...], int] = {(): 0}
    rules: list[list] = [[]]
    for m in range(1, k - 1):
        sets = sorted({part for r in spec.coeffs for part in combinations(r, m)})
        rules.append([
            [((m - 1 + j) % 2, e[j], slots[e[:j] + e[j + 1:]]) for j in range(m)]
            for e in sets
        ])
        slots = {e: slot for slot, e in enumerate(sets)}
    # per r and positions p < q: (-1)^(p+q+1) a_r, r_p, r_q and the slot of
    # r - {r_p, r_q} in the level k-2 table
    terms = [(-a if (p + q + 1) % 2 else a, r[p], r[q], slots[r[:p] + r[p + 1:q] + r[q + 1:]])
             for r, a in spec.coeffs.items() for p, q in combinations(range(k), 2)]

    def pair_weights(i: int, j: int) -> list[Scalar]:
        xi, xj = rows[i], rows[j]
        weight: list[Scalar] = [0] * len(slots)
        for a, e, f, slot in terms:
            weight[slot] += a * (xi[e] * xj[f] - xi[f] * xj[e])
        return weight

    # weights[i - (k-2)][j - i - 1] for the pairs i < j that can end a subset
    weights = [[pair_weights(i, j) for j in range(i + 1, n)] for i in range(k - 2, n)]
    values: dict[tuple[int, ...], Value] = {}

    def descend(prefix: tuple[int, ...], start: int, minors: list) -> None:
        m = len(prefix) + 1
        for i in range(start, n - k + m):
            subset = prefix + (i + 1,)
            if m == k - 1:
                for j, weight in enumerate(weights[i - k + 2], i + 2):
                    values[subset + (j,)] = sum(map(mul, minors, weight))
                continue
            row = powers[i]
            table = []
            for expansion in rules[m]:
                total: Scalar = 0
                for odd, exponent, rest in expansion:
                    total += row[odd][exponent] * minors[rest]
                table.append(total)
            descend(subset, i + 1, table)

    descend((), 0, [1])
    descend = None  # its closure holds it: freed now, not by a later collection
    return SkewFunction(n, k, values)


def skew_function_at(f: SkewFunction, point: Sequence[Scalar]) -> SkewFunction:
    """Evaluate polynomial-valued subset values at a point."""
    check_point(point)
    mapping = dict(enumerate(point, start=1))
    return SkewFunction(f.n, f.k, {s: v.evaluate(mapping) if isinstance(v, Polynomial) else v
                                   for s, v in f.values.items()})


def pf_definition(f: SkewFunction) -> Value:
    """Hyperpfaffian as the signed sum over equal-block partitions of the
    products of block values, summed per exponent of x1 in the block with 1.
    The partitions come in lexicographic order, so product_sums sums the
    later blocks of the partitions that share their first ones before it
    multiplies those first ones in; each partition is still one product."""
    # the enumerator puts the block holding 1 first
    return product_sums(f.values, f.values, {0: signed_equal_block_partitions(f.n, f.k)})[0]


def pf_exterior(f: SkewFunction) -> Value:
    """Hyperpfaffian as the top coefficient of E^m / m!, m = n/k, for E = E1 + R,
    where E1 holds the subsets with 1.  E1 ^ E1 = 0 and even grades commute, so
    E^m / m! = R^m / m! + E1 ^ R^(m-1) / (m-1)!, and R^m has no top coefficient:
    one product per subset with 1 and its complement in the divided power of R."""
    check_divides(f.n, f.k)
    blocks = f.n // f.k
    # every value, zeros too, stays in the left table, so the top has the value type of f
    table = {sum(1 << (e - 1) for e in subset): value for subset, value in f.values.items()}
    rest = ExteriorElement(f.n, {mask: value for mask, value in table.items() if not mask & 1})
    power = rest.divided_power(blocks - 1).table
    pairs = [(merge_sign(s, t), (s, t))
             for s in table if s & 1 and (t := s ^ ((1 << f.n) - 1)) in power]
    return product_sums(table, power, {0: pairs})[0]


def theorem_coefficient(spec: SkewSpec) -> Scalar:
    """The closed form's scalar: the signed sum over composition tilings of
    the products of spec coefficients (absent tuples contribute 0)."""
    check_full_degree(spec.n, spec.k, spec.degree)
    return sum(tiling_sign(tiling) * prod(map(spec.coefficient, tiling))
               for tiling in composition_tilings(spec.n, spec.k))


def pf_closed_form(spec: SkewSpec) -> Polynomial:
    """The hyperpfaffian of a full-degree spec: tiling coefficient times the
    expanded Vandermonde product."""
    return theorem_coefficient(spec) * vandermonde(spec.n)


def torelli_constant(n: int) -> int:
    """The order-n Pfaffian of (y - x)^(n-1) divided by the Vandermonde
    product: a signed product of the first n/2 binomial coefficients."""
    check_even(n, "n", "order")
    sign = -1 if comb(n // 2, 2) & 1 else 1
    return sign * prod(comb(n - 1, i) for i in range(n // 2))


def torelli_spec(n: int) -> SkewSpec:
    """The binomial coefficient spec of f(x, y) = (y - x)^(n-1)."""
    check_even(n, "n", "order")
    coeffs = {
        (i, n - 1 - i): (-1) ** i * comb(n - 1, i)
        for i in range(n // 2)
    }
    return SkewSpec(n, 2, coeffs)


def relabel(f: SkewFunction, perm: Sequence[int]) -> SkewFunction:
    """The function g with g(args) = f(perm(args)).

    g is again skew-symmetric, and its hyperpfaffian is the sign of the
    permutation times the hyperpfaffian of f.
    """
    permutation_sign(perm)  # raises on anything that is not a permutation
    if len(perm) != f.n or min(perm) != 1:
        raise ValueError(f"expected a permutation of 1..{f.n}, got {tuple(perm)!r}")
    values = {subset: f.value_at([perm[e - 1] for e in subset]) for subset in f.values}
    return SkewFunction(f.n, f.k, values)
