"""Enumeration and signing of the combinatorial families behind the
hyperpfaffian algorithms.

Everything lives on the ground set [n] = {1, ..., n} with block size k,
where k is even and divides n:

* equal-block partitions: partitions of [n] into n/k blocks of size k,
  represented as tuples of ascending blocks ordered by minimum element;
* oriented partitions: the same partitions with each block carrying a
  linear order, so blocks are arbitrary k-tuples;
* increasing compositions: strictly increasing k-tuples of nonnegative
  integers summing to k/2*(n-1), the admissible block weight vectors;
* composition tilings: sets of n/k increasing compositions whose parts are
  pairwise distinct, and which therefore tile {0, ..., n-1}.

The sign of any of these objects is the inversion parity of the
concatenation of its blocks.  Because k is even, swapping two whole blocks
flips k*k element pairs and therefore changes the inversion count by an
even amount, so the signs do not depend on the order in which blocks are
concatenated; the canonical order (ascending minimum) is fixed only to
make representations and enumeration output reproducible.

All enumerators are pure generators yielding in lexicographic order on the
canonical representation.
"""

from __future__ import annotations

from itertools import combinations, permutations
from operator import itemgetter
from typing import Iterator, Sequence

from .poly import check_integers, is_integer

Block = tuple  # tuple[int, ...]
Blocks = tuple  # tuple[Block, ...]
Composition = tuple  # tuple[int, ...]


def inversion_sign(values: Sequence) -> int:
    """(-1) to the number of inversions among (distinct) entries."""
    count = 0
    n = len(values)
    for i in range(n):
        vi = values[i]
        for j in range(i + 1, n):
            if vi > values[j]:
                count += 1
    return -1 if count & 1 else 1


def permutation_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation given as its image sequence.

    Accepts permutations of {1, ..., m} or of {0, ..., m-1}.
    """
    check_integers(perm, "permutation entry")
    m = len(perm)
    seen = set(perm)
    if seen != set(range(1, m + 1)) and seen != set(range(m)):
        raise ValueError(f"{tuple(perm)!r} is not a permutation of 1..{m} or 0..{m - 1}")
    return inversion_sign(perm)


def concatenation_sign(blocks: Sequence[Sequence]) -> int:
    """Sign of the concatenation of the blocks as given: of a partition's
    blocks, an oriented partition's ordered blocks or a tiling's
    compositions."""
    return inversion_sign([element for block in blocks for element in block])


partition_sign = oriented_sign = tiling_sign = concatenation_sign


def check_composition_args(n: int, k: int) -> None:
    if not is_integer(k) or k < 2 or k % 2:
        raise ValueError(f"block size k must be a positive even integer, got k={k!r}")
    if not is_integer(n) or n < 1:
        raise ValueError(f"n must be a positive integer, got n={n!r}")


def _check_block_args(n: int, k: int) -> None:
    check_composition_args(n, k)
    if n % k:
        raise ValueError(f"n must be a positive multiple of k, got n={n}, k={k}")


def _splits(k: int) -> list[tuple[itemgetter, itemgetter, int]]:
    """(block getter, complement getter, inversion parity) per way of taking
    the least of 2k sorted elements with k-1 later ones, lexicographically."""
    table = []
    for taken in combinations(range(1, 2 * k), k - 1):
        rest = (q for q in range(1, 2 * k) if q not in taken)
        table.append((itemgetter(0, *taken), itemgetter(*rest),
                      (sum(taken) - k * (k - 1) // 2) & 1))
    return table


def _block_walk(ground: Sequence[int], k: int, target: int | None = None
                ) -> Iterator[tuple[int, Blocks]]:
    """Yield (sign, blocks) over the partitions of the sorted ground set into
    ascending k-blocks ordered by minimum, lexicographically, keeping only
    blocks that sum to `target` when it is given.

    Each frame of an explicit stack peels the least remaining element off
    with the k-1 at positions p_1 < ... < p_(k-1) of what remains.  That block
    jumps over p_1 + ... + p_(k-1) - k(k-1)/2 remaining elements, one
    inversion each; sorted blocks add none internally.  The last two blocks
    of a partition come from one table of the splits of a 2k-element tuple,
    built at the second 2k-element remainder, when the walk has already
    gone through as many splits as the table has rows; so a walk of
    n <= 2k, which has no such remainder, never builds it, and neither does
    one that stops at its first partition.
    """
    offset = k * (k - 1) // 2
    splits = None
    fresh = True  # no 2k-element remainder met yet

    def frame(remaining: tuple, sign: int, blocks: Blocks) -> tuple:
        return remaining, combinations(range(1, len(remaining)), k - 1), sign, blocks

    stack = [frame(tuple(ground), 1, ())]
    while stack:
        remaining, choices, sign, blocks = stack[-1]
        for positions in choices:
            block = (remaining[0], *map(remaining.__getitem__, positions))
            if target is not None and sum(block) != target:
                continue
            signed = -sign if (sum(positions) - offset) & 1 else sign
            residue, start = (), 1
            for p in positions:
                residue += remaining[start:p]
                start = p + 1
            residue += remaining[start:]
            blocks_now = blocks + (block,)
            if len(residue) == 2 * k:
                if fresh:
                    fresh = False
                else:
                    splits = splits or _splits(k)
                    signs = (signed, -signed)
                    for take, complement, odd in splits:
                        last, other = take(residue), complement(residue)
                        if target is None or sum(last) == sum(other) == target:
                            yield signs[odd], blocks_now + (last, other)
                    continue
            if residue:
                stack.append(frame(residue, signed, blocks_now))
                break
            yield signed, blocks_now
        else:
            stack.pop()


def signed_equal_block_partitions(n: int, k: int) -> Iterator[tuple[int, Blocks]]:
    """Yield (sign, partition) pairs over all equal-block partitions of [n]."""
    _check_block_args(n, k)
    return _block_walk(range(1, n + 1), k)  # lazy: validating allocates nothing of size n


def equal_block_partitions(n: int, k: int) -> Iterator[Blocks]:
    """All partitions of [n] into n/k ascending k-blocks, lexicographically.

    There are n! / ((n/k)! * (k!)^(n/k)) of them.
    """
    return (blocks for _, blocks in signed_equal_block_partitions(n, k))


def oriented_partitions(n: int, k: int) -> Iterator[Blocks]:
    """All oriented partitions: each block additionally carries an order.

    There are n!/(n/k)! of them, (k!)^(n/k) per plain partition, each
    partition's orders in lexicographic order by block.  A stack holds one
    lazy `permutations` iterator per block reached, so no block's k! orders
    are ever built at once.
    """
    plain = equal_block_partitions(n, k)

    def orient() -> Iterator[Blocks]:
        for blocks in plain:
            stack, chosen = [permutations(blocks[0])], []
            while stack:
                del chosen[len(stack) - 1:]  # the orders of the blocks below the top
                order = next(stack[-1], None)
                if order is None:
                    stack.pop()
                elif len(stack) < len(blocks):
                    chosen.append(order)
                    stack.append(permutations(blocks[len(stack)]))
                else:
                    yield (*chosen, order)

    return orient()


def increasing_compositions_summing(total: int, parts: int) -> Iterator[Composition]:
    """Strictly increasing tuples of `parts` nonnegative integers summing
    to `total`, in lexicographic order."""
    if not is_integer(total) or total < 0:
        raise ValueError(f"total must be a nonnegative integer, got {total!r}")
    if not is_integer(parts) or parts < 1:
        raise ValueError(f"parts must be a positive integer, got {parts!r}")

    def walk() -> Iterator[Composition]:
        prefix: list[int] = []
        value, left = 0, total  # the next part tried, and what the parts left must sum to
        while True:
            count = parts - len(prefix)
            # descend while `value` and the smallest strictly increasing tail above it fit
            if count > 1 and count * value + count * (count - 1) // 2 <= left:
                prefix.append(value)
                left -= value
                value += 1
                continue
            if count == 1 and left >= value:
                yield (*prefix, left)
            if not prefix:
                return
            value = prefix.pop()
            left += value
            value += 1

    return walk()


def increasing_compositions(n: int, k: int) -> Iterator[Composition]:
    """The admissible weight vectors for ground set size n and block size k:
    strictly increasing k-tuples of nonnegative integers with sum k/2*(n-1)."""
    check_composition_args(n, k)
    return increasing_compositions_summing(k * (n - 1) // 2, k)


def increasing_composition_count(n: int, k: int) -> int:
    """How many admissible weight vectors (n, k) has, counted without
    listing them.

    Subtracting (0, 1, ..., k-1) from a strictly increasing k-tuple leaves a
    partition of k/2*(n-1) - k(k-1)/2 into at most k parts, and conjugation
    makes it one into parts of size at most k.
    """
    check_composition_args(n, k)
    total = k * (n - 1) // 2 - k * (k - 1) // 2
    if total < 0:
        return 0
    ways = [1] + [0] * total  # ways[m]: partitions of m into the parts seen so far
    for part in range(1, min(k, total) + 1):
        for m in range(part, total + 1):
            ways[m] += ways[m - part]
    return ways[total]


def composition_tilings(n: int, k: int) -> Iterator[tuple[Composition, ...]]:
    """Sets of n/k increasing compositions whose parts tile {0, ..., n-1}.

    Each tiling is represented as a tuple of compositions ordered by first
    part, and tilings appear in lexicographic order on that representation.
    """
    _check_block_args(n, k)
    return (tiling for _, tiling in _block_walk(range(n), k, k * (n - 1) // 2))
