"""Weighted oriented partitions and the cancellation that proves the
closed form.

A weighted oriented partition assigns to each ordered block an increasing
composition (a weight vector), giving the j-th element of the block the
j-th weight.  Expanding the partition-sum hyperpfaffian of a full-degree
coefficient spec term by term produces exactly one signed term per
weighted oriented partition: the sign of the partition, the product of the
blocks' spec coefficients, and the monomial collecting x_element^weight
over all elements.

Elements whose n weights are not pairwise distinct cancel in pairs:
swapping the lexicographically smallest pair of equal-weight elements is a
sign-reversing involution that preserves both the coefficient and the
monomial.  The surviving distinct-weight elements factor bijectively into
a permutation of [n] (reading each element's weight plus one) and a
composition tiling, with multiplicative signs; summing them yields the
tiling coefficient times the Vandermonde determinant.

:func:`check_involution` checks all of this in one walk with two levels.
A weight assignment (one weight vector per block) alone fixes the flat
weights, the coefficient, the weight class and, in the distinct class, the
sorted tiling and its sign, so the walk tables them once per assignment:
|Gamma|^(n/k) entries, 27 at (n, k) = (6, 2) for 3,240 elements.  An
oriented partition alone fixes the sign and the positions weight_of reads,
found once per oriented partition.  Each element is a plain tuple (blocks,
weights, weight_of, sign), checked and added into its class sum in place.
Its pairing image comes from a swap plan memoized per (source blocks,
swapped pair), whose canonical blocks, order, weight getter and sign are
all taken from the image's own blocks.  A public
:class:`WeightedOrientedPartition` is that same tuple, as a named tuple
whose constructor validates, so the public functions and the check run one
code path on either.  The enumerator and the swap build elements unchecked
(``_make``), as they make them valid by construction; the public
constructor and :func:`compose_distinct` validate everything they are given.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, product
from math import factorial, prod
from operator import itemgetter
from typing import Iterator, NamedTuple, Optional

from .combinat import (
    check_full_degree,
    check_order,
    check_sequence,
    check_weight_vectors,
    composition_tilings,
    full_degree,
    increasing_compositions,
    oriented_partitions,
    oriented_sign,
    permutation_sign,
    tiling_sign,
)
from .hpf import SkewSpec
from .poly import Polynomial, Scalar, accumulate, check_integers, from_exponent_vectors


class _Element(NamedTuple):  # a NamedTuple body may not define __new__; the subclass does
    blocks: tuple
    weights: tuple
    weight_of: tuple
    sign: int


class WeightedOrientedPartition(_Element):
    """Ordered blocks plus one weight vector per block, kept aligned.

    Blocks are normalized to the canonical order (ascending minimum
    element); the weight vectors travel with their blocks.  An instance is
    the tuple (blocks, weights, weight_of, sign) the check walks, where
    weight_of[e - 1] is the weight carried by element e and sign is
    oriented_sign(blocks), which the canonical order keeps since k is even.
    The inherited ``_make`` takes the four fields unchecked.
    """

    __slots__ = ()

    def __new__(cls, blocks, weights):
        blocks = tuple(check_sequence(block, "block") for block in check_sequence(blocks, "blocks"))
        weights = check_sequence(weights, "weights")
        if not blocks or len(blocks) != len(weights):
            raise ValueError("need the same positive number of blocks and weight vectors")
        k = len(blocks[0])
        elements = _flat(blocks)
        n = len(elements)
        check_order(n, k)
        check_integers(elements, "block element")
        if set(map(len, blocks)) != {k} or set(elements) != set(range(1, n + 1)):
            raise ValueError(f"blocks {blocks!r} do not partition 1..{n} into {k}-tuples")
        weights = check_weight_vectors(weights, k, full_degree(n, k), "weight vector")
        blocks, order, weight_of, sign = _canonical(blocks)
        weights = tuple(map(weights.__getitem__, order))
        return cls._make((blocks, weights, weight_of(_flat(weights)), sign))

    def __getnewargs__(self) -> tuple:
        """Copies and pickles rebuild through the validating constructor."""
        return self.blocks, self.weights

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(blocks={self.blocks!r}, weights={self.weights!r})"

    @property
    def n(self) -> int:
        return len(self.blocks) * len(self.blocks[0])

    @property
    def k(self) -> int:
        return len(self.blocks[0])

    def weight_monomial(self) -> Polynomial:
        """x_element^weight over all elements, fixed by ``weight_of``."""
        return Polynomial.monomial(dict(enumerate(self.weight_of, 1)))

    def coefficient(self, spec: SkewSpec) -> Scalar:
        """Product of the spec coefficients of the weight vectors (0 if any
        vector is absent from the spec)."""
        return _coefficient(self.weights, spec.coeffs)


def _flat(vectors) -> tuple:
    return sum(vectors, ())  # faster than chain for a few short tuples


def _coefficient(weights, coeffs) -> Scalar:
    return prod(coeffs.get(weight, 0) for weight in weights)


def _distinct(weights) -> bool:
    """True when the weights, flat or weight_of, are pairwise distinct."""
    return len(set(weights)) == len(weights)


def _weight_getter(blocks) -> itemgetter:
    """Takes the concatenated weight vectors of `blocks` to weight_of: entry
    e - 1 is read at the position of element e in the concatenated blocks."""
    position = [0] * (len(blocks) * len(blocks[0]))  # n >= k >= 2, so a tuple comes out
    for index, element in enumerate(chain.from_iterable(blocks)):
        position[element - 1] = index
    return itemgetter(*position)


def _canonical(blocks) -> tuple:
    """(blocks in canonical order, the source index of each, their
    :func:`_weight_getter`, their oriented sign)."""
    order = sorted(range(len(blocks)), key=list(map(min, blocks)).__getitem__)
    blocks = tuple(map(blocks.__getitem__, order))
    return blocks, order, _weight_getter(blocks), oriented_sign(blocks)


@lru_cache(maxsize=512)
def _swap_plan(blocks, i: int, j: int) -> tuple:
    """:func:`_canonical` of `blocks` with i and j swapped, its order as a
    getter on the source's weight vectors.  A repeated weight needs two
    blocks, as a block's weights increase, so the getter returns a tuple.
    512 plans hold the 360 of (6, 2) and miss 2.4% of lookups at (8, 2)."""
    swapped = tuple(
        tuple(i if c == j else j if c == i else c for c in block) for block in blocks
    )
    image, order, weight_of, sign = _canonical(swapped)
    return image, itemgetter(*order), weight_of, sign


def _elements(oriented, assignments) -> Iterator[tuple]:
    """(element tuple, entry) for every oriented partition of `oriented` with
    every (weights, entry) of `assignments`, whose entry starts with the flat
    weights: one sign and weight getter per oriented partition, whose blocks
    the enumerator already gives in canonical order."""
    for blocks in oriented:
        weight_of, sign = _weight_getter(blocks), oriented_sign(blocks)
        for weights, entry in assignments:
            yield (blocks, weights, weight_of(entry[0]), sign), entry


def weighted_oriented_partitions(n: int, k: int) -> Iterator[WeightedOrientedPartition]:
    """All weighted oriented partitions: every oriented partition paired
    with every choice of weight vectors, one per block, built unchecked
    from the tuples of :func:`_elements`."""
    oriented = oriented_partitions(n, k)
    assignments = [(weights, (_flat(weights),))
                   for weights in product(increasing_compositions(n, k), repeat=n // k)]
    build = WeightedOrientedPartition._make
    return (build(element) for element, _ in _elements(oriented, assignments))


def has_distinct_weights(wop: WeightedOrientedPartition) -> bool:
    """True when the n element weights are pairwise distinct.

    The weights always total n*(n-1)/2, and n pairwise distinct
    nonnegative integers cannot total less, so distinct weights are
    necessarily exactly 0, ..., n-1.
    """
    return _distinct(wop.weight_of)


def smallest_repeated_pair(wop: WeightedOrientedPartition) -> Optional[tuple[int, int]]:
    """The lexicographically least pair (i, j), i < j, with equal weights,
    of an element or of its plain tuple."""
    _, _, weight_of, _ = wop
    for i, weight in enumerate(weight_of):  # the first repeated weight met is at i
        if weight_of.count(weight) > 1:
            return i + 1, weight_of.index(weight, i + 1) + 1
    return None


def _pair(element: tuple) -> tuple:
    """The pairing image of a repeated-weight element, as a plain tuple."""
    blocks, weights, _, _ = element
    blocks, order, weight_of, sign = _swap_plan(blocks, *smallest_repeated_pair(element))
    weights = order(weights)
    return blocks, weights, weight_of(_flat(weights)), sign


def pairing_involution(wop: WeightedOrientedPartition) -> WeightedOrientedPartition:
    """The element with its smallest equal-weight pair of elements swapped.

    The two elements trade positions (everything else, including each
    block's weight vector, stays put), so the coefficient and the monomial
    are unchanged while the sign flips; applying the map twice returns the
    original element.  Only defined on repeated-weight partitions.  The
    image is a new element, built unchecked, as the swap keeps it valid.
    """
    if _distinct(wop.weight_of):
        raise ValueError("all weights are distinct; there is no repeated pair to swap")
    return WeightedOrientedPartition._make(_pair(wop))


def _permutation(weight_of) -> tuple[int, ...]:
    """The permutation of a distinct-weight element: e to its weight plus one."""
    return tuple(weight + 1 for weight in weight_of)


def _tiling(weights) -> tuple[tuple[int, ...], ...]:
    """The tiling of a distinct-weight assignment: its vectors by first part."""
    return tuple(sorted(weights))


def decompose_distinct(
    wop: WeightedOrientedPartition,
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Split a distinct-weight partition into (permutation, tiling).

    The permutation sends each element to its weight plus one; the tiling
    is the set of weight vectors ordered by first part.  The signs
    multiply: sign(partition) = sign(tiling) * sign(permutation).
    """
    if not _distinct(wop.weight_of):
        raise ValueError("weights are repeated; the decomposition needs distinct weights")
    return _permutation(wop.weight_of), _tiling(wop.weights)


def compose_distinct(
    perm: tuple[int, ...], tiling: tuple[tuple[int, ...], ...]
) -> WeightedOrientedPartition:
    """Inverse of :func:`decompose_distinct`."""
    check_integers(perm, "permutation entry")
    n = len(perm)
    if set(perm) != set(range(1, n + 1)):
        raise ValueError(f"{perm!r} is not a permutation of 1..{n}")
    element_of_weight = {perm[index] - 1: index + 1 for index in range(n)}
    tiling = check_sequence(tiling, "tiling")
    try:
        blocks = tuple(tuple(map(element_of_weight.__getitem__, vector)) for vector in tiling)
    except KeyError as exc:
        raise ValueError(f"weight {exc.args[0]} does not occur in the permutation") from None
    except TypeError:  # a vector not iterable, or with an unhashable entry: the weight vector
        k = n // len(tiling) or 1  # rule refuses it, at the k of n weights in len(tiling) vectors
        check_weight_vectors(tiling, k, full_degree(n, k), "weight vector")
        raise  # an unhashable int passes that rule, and its TypeError stands
    return WeightedOrientedPartition(blocks, tiling)


class InvolutionCheck(NamedTuple):
    """One walk over W(n, k): counts, signed sums and the first failure, or None."""

    elements: int
    repeated: int
    distinct: int
    tilings: int
    repeated_sum: Polynomial
    distinct_sum: Polynomial
    failure: Optional[str]


def check_involution(spec: SkewSpec) -> InvolutionCheck:
    """Check the pairing and the factorization on every weighted oriented
    partition of a full-degree spec, then that the repeated class cancels
    and the distinct class counts n! times the tilings.  Elements are
    checked until the first failure, but both sums cover every element."""
    n, k = spec.n, spec.k
    check_full_degree(n, k, spec.degree)
    table = {}  # per assignment: flat weights, coefficient, tiling and its sign (None if repeated)
    for weights in product(increasing_compositions(n, k), repeat=n // k):
        flat = _flat(weights)
        tiling = _tiling(weights) if _distinct(flat) else None
        table[weights] = (flat, _coefficient(weights, spec.coeffs), tiling,
                          None if tiling is None else tiling_sign(tiling))
    counts = [0, 0]  # repeated, distinct
    sums: tuple[dict, dict] = ({}, {})  # keyed by weight_of, which fixes the monomial
    factorizations = set()
    failure = None
    build = WeightedOrientedPartition._make
    for element, (_, coefficient, tiling, sign_of_tiling) in _elements(
            oriented_partitions(n, k), table.items()):
        blocks, weights, weight_of, sign = element
        is_distinct = tiling is not None
        counts[is_distinct] += 1
        accumulate(sums[is_distinct], ((weight_of, coefficient * sign),))
        if failure is not None:
            continue
        if is_distinct:
            perm = _permutation(weight_of)
            factorizations.add((perm, tiling))
            if sign != sign_of_tiling * permutation_sign(perm):
                failure = f"sign factorization fails on {build(element)}"
            elif compose_distinct(perm, tiling) != element:
                failure = f"factorization does not round-trip on {build(element)}"
            continue
        image = _pair(element)
        image_blocks, image_weights, image_weight_of, image_sign = image
        entry = table.get(image_weights)
        if (
            (image_blocks, image_weights) == (blocks, weights)
            or entry is None
            or entry[2] is not None
            or _pair(image) != element
            or image_sign != -sign
            or image_weight_of != weight_of
            or entry[1] != coefficient
        ):
            failure = f"pairing involution misbehaves on {build(element)}"
    repeated, distinct = counts
    tilings = sum(1 for _ in composition_tilings(n, k))
    repeated_sum, distinct_sum = map(from_exponent_vectors, sums)
    expected = factorial(n) * tilings
    if failure is None and (repeated_sum or distinct != expected or len(factorizations) != distinct):
        failure = (f"repeated-weight sum {repeated_sum}, "
                   f"distinct count {distinct} vs n! * tilings = {expected}")
    return InvolutionCheck(repeated + distinct, repeated, distinct, tilings,
                           repeated_sum, distinct_sum, failure)
