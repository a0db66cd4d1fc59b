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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from typing import Iterator, Optional

from .combinat import increasing_compositions, oriented_partitions, oriented_sign
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
        # the minima are distinct, so the sort never compares blocks
        _, blocks, weights = zip(*sorted(zip(map(min, blocks), blocks, weights)))
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return len(self.blocks) * len(self.blocks[0])

    @property
    def k(self) -> int:
        return len(self.blocks[0])

    @property
    def sign(self) -> int:
        return oriented_sign(self.blocks)

    def element_weights(self) -> dict[int, int]:
        """The weight carried by each element of [n]."""
        return {
            element: weight
            for block, vector in zip(self.blocks, self.weights)
            for element, weight in zip(block, vector)
        }

    def weight_exponents(self) -> tuple[tuple[int, int], ...]:
        """Monomial key of x_element^weight over all elements (zeros dropped)."""
        return tuple(sorted((e, w) for e, w in self.element_weights().items() if w))

    def weight_monomial(self) -> Polynomial:
        return Polynomial({self.weight_exponents(): 1})

    def coefficient(self, spec: SkewSpec) -> Scalar:
        """Product of the spec coefficients of the weight vectors (0 if any
        vector is absent from the spec)."""
        result: Scalar = 1
        for weight in self.weights:
            value = spec.coefficient(weight)
            if not value:
                return 0
            result *= value
        return result


def weighted_oriented_partitions(n: int, k: int) -> Iterator[WeightedOrientedPartition]:
    """All weighted oriented partitions: every oriented partition paired
    with every choice of weight vectors, one per block."""
    oriented = oriented_partitions(n, k)
    vectors = tuple(increasing_compositions(n, k))

    def weight() -> Iterator[WeightedOrientedPartition]:
        for blocks in oriented:
            for assignment in product(vectors, repeat=n // k):
                yield WeightedOrientedPartition(blocks, assignment)

    return weight()


def has_distinct_weights(wop: WeightedOrientedPartition) -> bool:
    """True when the n element weights are pairwise distinct.

    The weights always total n*(n-1)/2, and n pairwise distinct
    nonnegative integers cannot total less, so distinct weights are
    necessarily exactly 0, ..., n-1.
    """
    weights = wop.element_weights()
    return len(set(weights.values())) == len(weights)


def smallest_repeated_pair(wop) -> Optional[tuple[int, int]]:
    """The lexicographically least pair (i, j), i < j, with equal weights."""
    weights = wop.element_weights()
    n = wop.n
    for i in range(1, n + 1):
        wi = weights[i]
        for j in range(i + 1, n + 1):
            if weights[j] == wi:
                return i, j
    return None


def pairing_involution(wop: WeightedOrientedPartition) -> WeightedOrientedPartition:
    """Swap the smallest equal-weight pair of elements in place.

    The two elements trade positions (everything else, including each
    block's weight vector, stays put), so the coefficient and the monomial
    are unchanged while the sign flips; applying the map twice returns the
    original element.  Only defined on repeated-weight partitions.
    """
    pair = smallest_repeated_pair(wop)
    if pair is None:
        raise ValueError("all weights are distinct; there is no repeated pair to swap")
    i, j = pair
    swapped = tuple(
        tuple(i if c == j else j if c == i else c for c in block) for block in wop.blocks
    )
    return WeightedOrientedPartition(swapped, wop.weights)


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
    weights = wop.element_weights()
    perm = tuple(weights[element] + 1 for element in range(1, wop.n + 1))
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


def signed_weighted_sum(
    spec: SkewSpec, restrict: str | None = None
) -> Polynomial:
    """Sum of sign * coefficient * monomial over weighted oriented
    partitions; equals the partition-sum hyperpfaffian of the spec.

    ``restrict`` limits the sum to the "repeated" class (which cancels to
    zero under the pairing involution) or the "distinct" class (which
    yields the closed form).
    """
    if restrict not in (None, "repeated", "distinct"):
        raise ValueError(f"restrict must be None, 'repeated' or 'distinct', got {restrict!r}")
    if spec.degree != spec.full_degree:
        raise ValueError(
            f"weighted expansion needs degree k/2*(n-1) = {spec.full_degree}, got {spec.degree}"
        )

    def terms():
        for wop in weighted_oriented_partitions(spec.n, spec.k):
            if restrict is not None and (restrict == "distinct") != has_distinct_weights(wop):
                continue
            coeff = wop.coefficient(spec)
            if coeff:
                yield wop.weight_exponents(), coeff * wop.sign

    return Polynomial(accumulate({}, terms()))
