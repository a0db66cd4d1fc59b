"""Pinned deterministic generator for reproducible randomized trials.

Seeded CLI runs must be reproducible bit for bit, including by independent
reimplementations, so the generator is fixed rather than borrowed from the
standard library: a 32-bit linear congruential generator

    state <- (1664525 * state + 1013904223) mod 2^32

where every draw advances the state once and uses the top 16 bits,
``(state >> 16) % bound``.  Random spec coefficients are uniform nonzero
integers in [-9, 9], drawn in enumeration order of the admissible exponent
tuples; random point coordinates are distinct integers in [-100, 100],
drawn without replacement, coordinate by coordinate, after the
coefficients.  The README documents the same contract.
"""

from __future__ import annotations

from itertools import combinations

from .combinat import increasing_compositions
from .hpf import SkewFunction, SkewSpec
from .poly import is_integer


class Lcg:
    """32-bit linear congruential generator with fixed constants."""

    MULTIPLIER = 1664525
    INCREMENT = 1013904223
    MODULUS = 1 << 32

    __slots__ = ("state",)

    def __init__(self, seed: int):
        if not is_integer(seed):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        self.state = seed % self.MODULUS

    def next_u32(self) -> int:
        self.state = (self.MULTIPLIER * self.state + self.INCREMENT) % self.MODULUS
        return self.state

    def below(self, bound: int) -> int:
        """Uniform-ish draw in [0, bound) from the top 16 bits."""
        if not is_integer(bound) or not 1 <= bound <= 1 << 16:
            raise ValueError(f"bound must be an integer in 1..65536, got {bound!r}")
        return (self.next_u32() >> 16) % bound

    def nonzero_coefficient(self) -> int:
        """Uniform nonzero integer in [-9, 9]."""
        index = self.below(18)
        return index - 9 if index < 9 else index - 8

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def random_skew_spec(n: int, k: int, rng: Lcg) -> SkewSpec:
    """Full-degree spec with a nonzero coefficient on every admissible
    exponent tuple, drawn in enumeration order."""
    coeffs = {
        exponents: rng.nonzero_coefficient()
        for exponents in increasing_compositions(n, k)
    }
    return SkewSpec(n, k, coeffs)


def check_point_order(n: int) -> None:
    """Refuse an order n past the 201 distinct coordinates a point can hold."""
    if n > 201:
        raise ValueError(f"a point has at most 201 distinct coordinates in [-100, 100], got n={n}")


def random_point(n: int, rng: Lcg) -> tuple[int, ...]:
    """Point with pairwise distinct coordinates in [-100, 100].

    A repeated coordinate makes every skew identity trivially 0 = 0, so the
    coordinates are drawn without replacement, by a partial Fisher-Yates
    shuffle of -100..100: coordinate i swaps in the value at a uniform index
    in i..200, one draw each.  The range holds 201 integers, so larger n is
    refused.
    """
    if not is_integer(n) or n < 0:
        raise ValueError(f"number of coordinates must be a nonnegative integer, got {n!r}")
    check_point_order(n)
    values = list(range(-100, 101))
    for i in range(n):
        j = i + rng.below(201 - i)
        values[i], values[j] = values[j], values[i]
    return tuple(values[:n])


def random_skew_function(n: int, k: int, rng: Lcg) -> SkewFunction:
    """Nonzero integer values on all sorted k-subsets, in subset order."""
    values = {
        subset: rng.nonzero_coefficient()
        for subset in combinations(range(1, n + 1), k)
    }
    return SkewFunction(n, k, values)


def random_permutation(n: int, rng: Lcg) -> tuple[int, ...]:
    items = list(range(1, n + 1))
    rng.shuffle(items)
    return tuple(items)
