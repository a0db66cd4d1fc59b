"""Exterior algebra on n anticommuting generators with exact coefficients.

An element is a table mapping subsets of [n] (encoded as bitmasks, bit i-1
for generator i) to coefficients, which may be exact scalars or
:class:`~hyperpfaffian.poly.Polynomial` values.  The basis element for a
subset S is the ascending product of its generators, so the product of two
basis elements over disjoint subsets is the basis element of the union
times (-1) to the number of crossing pairs, and products over overlapping
subsets vanish.

This is the performance-sensitive kernel: wedging two elements touches
every pair of stored subsets, and the bitmask encoding keeps the
disjointness test and the crossing count at machine speed.  Coefficients of
either type are multiplied and summed by :func:`hyperpfaffian.poly.product_sums`,
one call per wedge or divided-power level; only :mod:`hyperpfaffian.poly` knows
the packed format and value types.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from .poly import Polynomial, Scalar, accumulate, is_integer, product_sums


def _mask_of(subset: Sequence[int], n: int) -> int:
    mask = 0
    for element in subset:
        if not is_integer(element) or not 1 <= element <= n:
            raise ValueError(f"subset element {element!r} is not in 1..{n}")
        bit = 1 << (element - 1)
        if mask & bit:
            raise ValueError(f"repeated element {element} in subset {tuple(subset)!r}")
        mask |= bit
    return mask


def _subset_of(mask: int) -> tuple[int, ...]:
    out = []
    index = 1
    while mask:
        if mask & 1:
            out.append(index)
        mask >>= 1
        index += 1
    return tuple(out)


def _parity_mask(mask: int) -> int:
    """The parity mask of a subset: bit j is set when an odd number of its
    elements lie above j."""
    parity = 0
    while mask:
        low = mask & -mask
        parity ^= low - 1
        mask ^= low
    return parity


def merge_sign(s_mask: int, t_mask: int) -> int:
    """Sign of reordering the ascending concatenation of disjoint S and T:
    (-1) to the number of pairs (s, t) in S x T with s > t, the parity of
    the elements of T at which S's parity mask is set."""
    return -1 if (_parity_mask(s_mask) & t_mask).bit_count() & 1 else 1


def _wedge_table(left: dict, right: dict, pairs) -> dict:
    """The table of the sum of merge_sign(s, t) left[s] right[t] over the
    given disjoint (s, t) pairs, at s | t: one product_sums call."""
    firsts: dict = {}  # the left mask of each pair, by union
    for s, t in pairs:
        firsts.setdefault(s | t, []).append(s)
    parity = {s: _parity_mask(s) for s in left}  # once per left mask: a sign is one AND

    # made as summed on the scalar path, where held for every union they doubled
    # peak memory; product_sums lists every union's terms first for polynomials
    def terms(union, lefts):
        for s in lefts:
            t = union ^ s
            yield -1 if (parity[s] & t).bit_count() & 1 else 1, (s, t)

    products = product_sums(left, right, {u: terms(u, ss) for u, ss in firsts.items()})
    return {m: c for m, c in products.items() if c}


class ExteriorElement:
    """Element of the exterior algebra over n generators."""

    __slots__ = ("n", "table")

    def __init__(self, n: int, table: Mapping[int, Scalar | Polynomial] | None = None):
        if not is_integer(n) or n < 0:
            raise ValueError(f"number of generators must be a nonnegative integer, got {n!r}")
        self.n = n
        cleaned: dict[int, Scalar | Polynomial] = {}
        if table:
            full = (1 << n) - 1
            for mask, coeff in table.items():
                if not is_integer(mask) or mask < 0 or mask & ~full:
                    raise ValueError(f"mask {mask!r} is not a subset of [{n}]")
                if coeff:
                    cleaned[mask] = coeff
        self.table = cleaned

    @classmethod
    def _raw(cls, n: int, table: dict) -> "ExteriorElement":
        element = object.__new__(cls)
        element.n = n
        element.table = table
        return element

    @classmethod
    def scalar(cls, n: int, value: Scalar | Polynomial) -> "ExteriorElement":
        return cls(n, {0: value})

    @classmethod
    def generator(cls, n: int, index: int) -> "ExteriorElement":
        return cls(n, {_mask_of((index,), n): 1})

    @classmethod
    def from_subset_values(
        cls, n: int, values: Mapping[Sequence[int], Scalar | Polynomial]
    ) -> "ExteriorElement":
        """Build the sum of value(S) times the basis element of S."""
        table: dict[int, Scalar | Polynomial] = {}
        for subset, coeff in values.items():
            mask = _mask_of(subset, n)
            if mask in table:
                raise ValueError(f"subset {tuple(subset)!r} listed twice")
            if coeff:
                table[mask] = coeff
        return cls._raw(n, table)

    def coefficient(self, subset: Sequence[int]) -> Scalar | Polynomial:
        return self.table.get(_mask_of(subset, self.n), 0)

    def subsets(self) -> Iterator[tuple[tuple[int, ...], Scalar | Polynomial]]:
        for mask in sorted(self.table):
            yield _subset_of(mask), self.table[mask]

    def __bool__(self) -> bool:
        return bool(self.table)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExteriorElement):
            return NotImplemented
        return self.n == other.n and self.table == other.table

    __hash__ = None

    def __add__(self, other: "ExteriorElement") -> "ExteriorElement":
        if not isinstance(other, ExteriorElement):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"mismatched generator counts: {self.n} vs {other.n}")
        return ExteriorElement._raw(self.n, accumulate(dict(self.table), other.table.items()))

    def __neg__(self) -> "ExteriorElement":
        return ExteriorElement._raw(self.n, {m: -c for m, c in self.table.items()})

    def __sub__(self, other: "ExteriorElement") -> "ExteriorElement":
        return self + (-other)

    def wedge(self, other: "ExteriorElement") -> "ExteriorElement":
        """Bilinear product; overlapping subset pairs contribute nothing."""
        if not isinstance(other, ExteriorElement):
            raise TypeError(f"cannot wedge with {type(other).__name__}")
        if self.n != other.n:
            raise ValueError(f"mismatched generator counts: {self.n} vs {other.n}")
        pairs = ((s, t) for s in self.table for t in other.table if not s & t)
        return ExteriorElement._raw(self.n, _wedge_table(self.table, other.table, pairs))

    def wedge_power(self, m: int) -> "ExteriorElement":
        """m-fold wedge of the element with itself; m = 0 gives the scalar 1.
        Uses binary exponentiation: about log2(m) wedges."""
        if not is_integer(m) or m < 0:
            raise ValueError(f"wedge power must be a nonnegative integer, got {m!r}")
        if m == 0:
            return ExteriorElement.scalar(self.n, 1)
        result: ExteriorElement | None = None
        base = self
        while m:
            if m & 1:
                result = base if result is None else result.wedge(base)
            m >>= 1
            if m:
                base = base.wedge(base)
        return result

    def divided_power(self, m: int) -> "ExteriorElement":
        """E^m / m! for an element E whose subsets all have even, nonzero
        size, without division: such subsets commute, so the coefficient of S
        sums merge_sign(B, S - B) E[B] (E^(m-1) / (m-1)!)[S - B] over the
        subsets B that hold the least element of S, one level per power."""
        for mask in self.table:
            if not mask or mask.bit_count() & 1:
                raise ValueError(f"divided power needs subsets of even, nonzero size, "
                                 f"got {_subset_of(mask)!r}")
        if not is_integer(m) or m < 2:
            return self.wedge_power(m)  # 1, the element, or wedge_power's refusal
        by_low: list[list[int]] = [[] for _ in range(self.n)]  # subsets by their least element
        for s in self.table:
            by_low[(s & -s).bit_length() - 1].append(s)
        power = self.table
        for _ in range(m - 1):
            power = _wedge_table(self.table, power, (
                (s, t) for t in power for below in by_low[:(t & -t).bit_length() - 1]
                for s in below if not s & t))
        return ExteriorElement._raw(self.n, power)

    def __repr__(self) -> str:
        body = ", ".join(f"{subset}: {coeff}" for subset, coeff in self.subsets())
        return f"ExteriorElement(n={self.n}, {{{body}}})"
