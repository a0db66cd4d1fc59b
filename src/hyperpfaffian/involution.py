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
:func:`check_involution` checks all of this in one walk over the set.
The walk builds its elements and pairing images unchecked, since the
enumerators and the swap make them valid by construction; the public
constructor and :func:`compose_distinct` validate everything they are given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, product
from math import factorial, prod
from typing import Iterator, Optional

from .combinat import (
    composition_tilings,
    increasing_compositions,
    oriented_partitions,
    oriented_sign,
    permutation_sign,
    tiling_sign,
)
from .hpf import SkewSpec
from .poly import Polynomial, Scalar, accumulate, check_integers


@dataclass(frozen=True)
class WeightedOrientedPartition:
    """Ordered blocks plus one weight vector per block, kept aligned.

    Blocks are normalized to the canonical order (ascending minimum
    element); the weight vectors travel with their blocks.
    """

    blocks: tuple[tuple[int, ...], ...]
    weights: tuple[tuple[int, ...], ...]
    #: weight_of[e - 1] is the weight carried by element e
    weight_of: tuple[int, ...] = field(init=False, repr=False, compare=False)
    #: oriented_sign(blocks); k is even, so the canonical order keeps it
    sign: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = tuple(map(tuple, self.blocks))
        weights = tuple(map(tuple, self.weights))
        if not blocks or len(blocks) != len(weights):
            raise ValueError("need the same positive number of blocks and weight vectors")
        k = len(blocks[0])
        if k < 2 or k % 2:
            raise ValueError(f"block size must be a positive even integer, got {k}")
        elements = [element for block in blocks for element in block]
        check_integers(elements, "block element")
        check_integers(chain.from_iterable(weights), "weight")
        n = len(elements)
        if any(len(block) != k for block in blocks) or set(elements) != set(range(1, n + 1)):
            raise ValueError(f"blocks {blocks!r} do not partition 1..{n} into {k}-tuples")
        target = k * (n - 1) // 2
        for weight in weights:
            if len(weight) != k or sorted(set(weight)) != list(weight):
                raise ValueError(f"weight vector {weight!r} is not strictly increasing")
            if weight[0] < 0 or sum(weight) != target:
                raise ValueError(f"weight vector {weight!r} must be nonnegative with sum {target}")
        self._canonicalize(blocks, weights, oriented_sign(blocks))

    @classmethod
    def _trusted(cls, blocks, weights, sign=None) -> WeightedOrientedPartition:
        """An element from valid tuples, unchecked; `sign` is oriented_sign(blocks)."""
        wop = object.__new__(cls)
        wop._canonicalize(blocks, weights, oriented_sign(blocks) if sign is None else sign)
        return wop

    def _canonicalize(self, blocks, weights, sign: int) -> None:
        weight_of = [0] * (len(blocks) * len(blocks[0]))
        for element, weight in zip(chain(*blocks), chain(*weights)):
            weight_of[element - 1] = weight
        # the minima are distinct, so the sort never compares blocks
        _, blocks, weights = zip(*sorted(zip(map(min, blocks), blocks, weights)))
        # the instance is frozen, so its fields are set past __setattr__
        vars(self).update(blocks=blocks, weights=weights, weight_of=tuple(weight_of), sign=sign)

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
        return prod(map(spec.coefficient, self.weights))


def weighted_oriented_partitions(n: int, k: int) -> Iterator[WeightedOrientedPartition]:
    """All weighted oriented partitions: every oriented partition paired
    with every choice of weight vectors, one per block.  Built unchecked
    from the two enumerators, with one sign per oriented partition."""
    oriented = oriented_partitions(n, k)
    vectors = tuple(increasing_compositions(n, k))
    return (WeightedOrientedPartition._trusted(blocks, assignment, sign)
            for blocks in oriented for sign in (oriented_sign(blocks),)
            for assignment in product(vectors, repeat=n // k))


def has_distinct_weights(wop: WeightedOrientedPartition) -> bool:
    """True when the n element weights are pairwise distinct.

    The weights always total n*(n-1)/2, and n pairwise distinct
    nonnegative integers cannot total less, so distinct weights are
    necessarily exactly 0, ..., n-1.
    """
    weights = wop.weight_of
    return len(set(weights)) == len(weights)


def smallest_repeated_pair(wop: WeightedOrientedPartition) -> Optional[tuple[int, int]]:
    """The lexicographically least pair (i, j), i < j, with equal weights."""
    weights = wop.weight_of
    for i, weight in enumerate(weights):  # the first repeated weight met is at i
        if weights.count(weight) > 1:
            return i + 1, weights.index(weight, i + 1) + 1
    return None


def pairing_involution(wop: WeightedOrientedPartition) -> WeightedOrientedPartition:
    """The element with its smallest equal-weight pair of elements swapped.

    The two elements trade positions (everything else, including each
    block's weight vector, stays put), so the coefficient and the monomial
    are unchanged while the sign flips; applying the map twice returns the
    original element.  Only defined on repeated-weight partitions.  The
    image is a new element, built unchecked, as the swap keeps it valid.
    """
    pair = smallest_repeated_pair(wop)
    if pair is None:
        raise ValueError("all weights are distinct; there is no repeated pair to swap")
    i, j = pair
    swapped = tuple(
        tuple(i if c == j else j if c == i else c for c in block) for block in wop.blocks
    )
    return WeightedOrientedPartition._trusted(swapped, wop.weights)


def decompose_distinct(
    wop: WeightedOrientedPartition,
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Split a distinct-weight partition into (permutation, tiling).

    The permutation sends each element to its weight plus one; the tiling
    is the set of weight vectors ordered by first part.  The signs
    multiply: sign(partition) = sign(tiling) * sign(permutation).
    """
    if not has_distinct_weights(wop):
        raise ValueError("weights are repeated; the decomposition needs distinct weights")
    perm = tuple(weight + 1 for weight in wop.weight_of)
    tiling = tuple(sorted(wop.weights))
    return perm, tiling


def compose_distinct(
    perm: tuple[int, ...], tiling: tuple[tuple[int, ...], ...]
) -> WeightedOrientedPartition:
    """Inverse of :func:`decompose_distinct`."""
    check_integers(perm, "permutation entry")
    n = len(perm)
    if set(perm) != set(range(1, n + 1)):
        raise ValueError(f"{perm!r} is not a permutation of 1..{n}")
    element_of_weight = {perm[index] - 1: index + 1 for index in range(n)}
    try:
        blocks = tuple(
            tuple(element_of_weight[w] for w in vector) for vector in tiling
        )
    except KeyError as exc:
        raise ValueError(f"weight {exc.args[0]} does not occur in the permutation") from None
    return WeightedOrientedPartition(blocks, tuple(tiling))


@dataclass(frozen=True)
class InvolutionCheck:
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
    if spec.degree != spec.full_degree:
        raise ValueError(
            f"weighted expansion needs degree k/2*(n-1) = {spec.full_degree}, got {spec.degree}"
        )
    n, k = spec.n, spec.k
    counts = [0, 0]  # repeated, distinct
    sums: tuple[dict, dict] = ({}, {})  # keyed by weight_of, which fixes the monomial
    factorizations = set()
    failure = None
    for wop in weighted_oriented_partitions(n, k):
        is_distinct = has_distinct_weights(wop)
        counts[is_distinct] += 1
        coefficient = wop.coefficient(spec)
        accumulate(sums[is_distinct], [(wop.weight_of, coefficient * wop.sign)])
        if failure is not None:
            continue
        if is_distinct:
            perm, tiling = decompose_distinct(wop)
            factorizations.add((perm, tiling))
            if wop.sign != tiling_sign(tiling) * permutation_sign(perm):
                failure = f"sign factorization fails on {wop}"
            elif compose_distinct(perm, tiling) != wop:
                failure = f"factorization does not round-trip on {wop}"
            continue
        image = pairing_involution(wop)
        if (
            image == wop
            or has_distinct_weights(image)
            or pairing_involution(image) != wop
            or image.sign != -wop.sign
            or image.weight_of != wop.weight_of
            or image.coefficient(spec) != coefficient
        ):
            failure = f"pairing involution misbehaves on {wop}"
    repeated, distinct = counts
    tilings = sum(1 for _ in composition_tilings(n, k))
    pair = {}  # one (variable, exponent) tuple per value, shared by every key
    repeated_sum, distinct_sum = (
        Polynomial({tuple(pair.setdefault(p, p) for p in enumerate(w, 1) if p[1]): c
                    for w, c in terms.items()}) for terms in sums)
    expected = factorial(n) * tilings
    if failure is None and (repeated_sum or distinct != expected or len(factorizations) != distinct):
        failure = (f"repeated-weight sum {repeated_sum}, "
                   f"distinct count {distinct} vs n! * tilings = {expected}")
    return InvolutionCheck(repeated + distinct, repeated, distinct, tilings,
                           repeated_sum, distinct_sum, failure)
