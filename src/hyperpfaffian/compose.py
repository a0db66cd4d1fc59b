"""Composing hyperpfaffians: the order-n hyperpfaffian of a k-ary function,
taken over every n-subset, is again skew-symmetric, and its order-p
hyperpfaffian is a fixed multinomial constant times the order-p
hyperpfaffian of the original function.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial
from typing import NamedTuple

from .combinat import check_divides
from .hpf import SkewFunction, Value, pf_definition
from .poly import div_exact


def check_orders(k: int, n: int, p: int) -> None:
    """k | n and n | p by combinat's rules, so all three are positive and even."""
    check_divides(n, k)
    check_divides(p, n, ("p", "n"))


def composition_constant(k: int, n: int, p: int) -> int:
    """(p/k choose n/k, ..., n/k) / (p/n)!: the number of ways to split p/k
    items into p/n unordered groups of n/k.  Always an exact integer."""
    check_orders(k, n, p)
    multinomial = div_exact(factorial(p // k), factorial(n // k) ** (p // n))
    return div_exact(multinomial, factorial(p // n))


def build_g(f: SkewFunction, n: int) -> SkewFunction:
    """The n-ary function whose value on a sorted n-subset B of [p] is the
    order-n hyperpfaffian of f restricted to B (relabeled order-preservingly).

    Values are materialized eagerly on all C(p, n) subsets, which keeps the
    outer partition sum simple at desk scale.
    """
    k, p = f.k, f.n
    check_orders(k, n, p)
    inner_subsets = tuple(combinations(range(1, n + 1), k))
    values: dict[tuple[int, ...], Value] = {}
    for big in combinations(range(1, p + 1), n):
        restricted = {
            subset: f[tuple(big[s - 1] for s in subset)] for subset in inner_subsets
        }
        values[big] = pf_definition(SkewFunction(n, k, restricted))
    return SkewFunction(p, n, values)


class CompositionCheck(NamedTuple):
    """Both sides of the composition identity and the linking constant."""

    constant: int
    pf_composed: Value
    pf_original: Value

    @property
    def ok(self) -> bool:
        return self.pf_composed == self.constant * self.pf_original


def verify_composition(f: SkewFunction, k: int, n: int, p: int) -> CompositionCheck:
    """Compute both sides of the composition identity exactly."""
    if f.k != k or f.n != p:
        raise ValueError(
            f"function has arity {f.k} on [{f.n}], expected arity k={k} on [p={p}]"
        )
    composed = build_g(f, n)  # checks the orders first
    return CompositionCheck(
        constant=composition_constant(k, n, p),
        pf_composed=pf_definition(composed),
        pf_original=pf_definition(f),
    )
