"""Exact sparse multivariate polynomial arithmetic over the rationals.

Variables are identified by 1-based index, so ``x1, x2, ...`` throughout.
A monomial is a tuple of ``(variable, exponent)`` pairs sorted by variable,
with strictly positive exponents; the empty tuple is the constant monomial.
A :class:`Polynomial` maps monomials to nonzero coefficients, which are
exact rationals (``int`` or :class:`fractions.Fraction`).  Every operation
is exact, so polynomial identities are checked with plain ``==`` on term
maps -- there is no tolerance anywhere.

The canonical text rendering sorts terms in ascending graded lexicographic
order (total degree first, then exponents of x1, x2, ... compared
entrywise) and writes terms like ``3*x1*x2^2`` with explicit ``+``/``-``
separators.  :func:`parse_polynomial` inverts :func:`render`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import chain, permutations
from math import prod
from typing import Mapping, Sequence, Union

Scalar = Union[int, Fraction]
#: sorted tuple of (variable, exponent) pairs; () is the constant monomial
Monomial = tuple

_CONST: Monomial = ()


def is_scalar(value) -> bool:
    """An exact rational: an int or Fraction, but not a bool."""
    return isinstance(value, (int, Fraction)) and value.__class__ is not bool


def is_integer(value) -> bool:
    """An int, but not a bool."""
    return isinstance(value, int) and value.__class__ is not bool


def check_integers(values, what: str) -> None:
    """Refuse a value that is not an int, or is a bool, naming it."""
    for value in values:
        if not is_integer(value):
            raise ValueError(f"{what} {value!r} is not an integer")


def check_point(point: Sequence) -> None:
    """Refuse a point with a coordinate that is not an exact rational,
    naming it by its 1-based index, the index of its variable."""
    for index, value in enumerate(point, start=1):
        if not is_scalar(value):
            raise ValueError(f"point coordinate {index} is not an exact rational: {value!r}")


def accumulate(out: dict, items) -> dict:
    """Add each ``(key, value)`` pair into ``out`` in place and return it.

    Keys whose values cancel to zero are removed, so ``out`` never stores
    a zero.
    """
    get = out.get
    for key, value in items:
        value = get(key, 0) + value
        if value:
            out[key] = value
        else:
            out.pop(key, None)
    return out


def _check_pairs(pairs) -> None:
    """Refuse a ``(variable, exponent)`` pair that is not a positive and a
    nonnegative int, naming the value."""
    for var, exp in pairs:
        if not is_integer(var) or var < 1:
            raise ValueError(f"variable index must be a positive integer, got {var!r}")
        if not is_integer(exp) or exp < 0:
            raise ValueError(f"exponent of x{var} must be a nonnegative integer, got {exp!r}")


def _monomial(pairs) -> Monomial:
    """The canonical key of the product of ``(variable, exponent)`` pairs:
    exponents of a repeated variable added, zero exponents dropped, sorted
    by variable.  A canonical key is returned as it is, not copied."""
    exps: dict[int, int] = {}
    get = exps.get
    for var, exp in pairs:
        exps[var] = get(var, 0) + exp
    key = tuple(sorted([pair for pair in exps.items() if pair[1]]))
    return pairs if key == pairs else key


class Polynomial:
    """Immutable-by-convention sparse polynomial with exact coefficients.

    Do not mutate ``terms`` of a polynomial you did not build yourself;
    all arithmetic returns fresh objects.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        """Every term is checked and its key made canonical; terms whose keys
        then coincide are summed."""
        terms = terms or {}
        for mono, coeff in terms.items():
            if not is_scalar(coeff):
                raise ValueError(f"coefficient of {mono!r} is not an exact rational: {coeff!r}")
            _check_pairs(mono)
        self.terms = accumulate({}, ((_monomial(m), c) for m, c in terms.items()))

    @classmethod
    def _raw(cls, terms: dict) -> "Polynomial":
        p = object.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._raw({})

    @classmethod
    def one(cls) -> "Polynomial":
        return cls._raw({_CONST: 1})

    @classmethod
    def constant(cls, value: Scalar) -> "Polynomial":
        return cls({_CONST: value})

    @classmethod
    def variable(cls, index: int) -> "Polynomial":
        if not is_integer(index) or index < 1:
            raise ValueError(f"variable index must be a positive integer, got {index!r}")
        return cls._raw({((index, 1),): 1})

    @classmethod
    def monomial(cls, exponents: Mapping[int, int], coeff: Scalar = 1) -> "Polynomial":
        """Build ``coeff * prod x_v^e`` from an exponent map (zeros dropped)."""
        return cls({tuple(exponents.items()): coeff})

    # -- ring structure -------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.terms == other.terms
        if is_scalar(other):
            if not other:
                return not self.terms
            return self.terms == {_CONST: other}
        return NotImplemented

    __hash__ = None  # mutable mapping inside

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw({m: -c for m, c in self.terms.items()})

    def __add__(self, other) -> "Polynomial":
        if is_scalar(other):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        return Polynomial._raw(accumulate(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        if is_scalar(other):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if is_scalar(other):
            if not other:
                return Polynomial.zero()
            return Polynomial._raw({m: c * other for m, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        return product_sums({0: self}, {0: other}, {0: [(1, (0, 0))]})[0]

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not is_integer(exponent) or exponent < 0:
            raise ValueError(f"polynomial exponent must be a nonnegative integer, got {exponent!r}")
        result = Polynomial.one()
        for _ in range(exponent):
            result = result * self
        return result

    # -- queries ---------------------------------------------------------

    def variables(self) -> set[int]:
        return {var for mono in self.terms for var, _ in mono}

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 by convention."""
        if not self.terms:
            return 0
        return max(sum(e for _, e in mono) for mono in self.terms)

    def coefficient(self, exponents: Mapping[int, int]) -> Scalar:
        return self.terms.get(_monomial(exponents.items()), 0)

    def evaluate(self, point: Mapping[int, Scalar]) -> Scalar:
        """Exact value at a point assigning every variable of the polynomial."""
        for var in sorted(self.variables()):
            if var not in point:
                raise ValueError(f"no value assigned to variable x{var}")
            if not is_scalar(point[var]):
                raise ValueError(f"point coordinate {var} is not an exact rational: {point[var]!r}")
        total: Scalar = 0
        for mono, coeff in self.terms.items():
            value = coeff
            for var, exp in mono:
                value = value * point[var] ** exp
            total += value
        return total

    def map_variables(self, mapping: Mapping[int, int]) -> "Polynomial":
        """Rename variables; unmapped variables stay put.

        The mapping need not be injective: substituting x_i -> x_j merges
        exponents and collects any colliding terms.
        """
        image = {}
        for var in self.variables():
            target = mapping.get(var, var)
            if not is_integer(target) or target < 1:
                raise ValueError(f"variable index must be a positive integer, got {target!r}")
            image[var] = target
        renamed = ((_monomial([(image[v], e) for v, e in m]), c) for m, c in self.terms.items())
        return Polynomial._raw(accumulate({}, renamed))

    # -- rendering --------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        """Terms in ascending graded lexicographic order."""
        if not self.terms:
            return []
        occurring = self.variables()
        top = max(occurring) if occurring else 0

        def key(item):
            mono, _ = item
            exps = dict(mono)
            return (sum(exps.values()), tuple(exps.get(v, 0) for v in range(1, top + 1)))

        return sorted(self.terms.items(), key=key)

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"Polynomial({render(self)})"


def _div_scalar(value: Scalar, divisor: int) -> Scalar:
    if divisor == 0:
        raise ZeroDivisionError("division of exact coefficients by zero")
    if isinstance(value, int):
        quotient, remainder = divmod(value, divisor)
        if remainder:
            raise ArithmeticError(
                f"inexact division {value}/{divisor}; this indicates an implementation bug"
            )
        return quotient
    return value / divisor


def div_exact(value: Scalar | Polynomial, divisor: int):
    """Divide a scalar or polynomial by an integer, insisting on exactness."""
    if not is_integer(divisor):
        raise ValueError(f"divisor {divisor!r} is not an integer")
    if isinstance(value, Polynomial):
        return Polynomial._raw({m: _div_scalar(c, divisor) for m, c in value.terms.items()})
    if not is_scalar(value):
        raise ValueError(f"dividend {value!r} is not an exact rational")
    return _div_scalar(value, divisor)


def alternant(exponents: Sequence[int], variables: Sequence[int] | None = None) -> Polynomial:
    """The Leibniz expansion of det[x_(v_i)^(e_j)] for strictly increasing
    nonnegative ints e on strictly increasing positive ints v, by default
    1..m: sign(s) * x_(v_1)^(e_s(1)) * ... * x_(v_m)^(e_s(m)) for each
    permutation s of [m], so m! terms, all +1 or -1."""
    exponents = tuple(exponents)
    variables = tuple(range(1, len(exponents) + 1) if variables is None else variables)
    if not all(is_integer(b) and a < b for a, b in zip((-1,) + exponents, exponents)):
        raise ValueError(f"exponents {exponents!r} are not strictly increasing nonnegative integers")
    if len(variables) != len(exponents) or not all(
            is_integer(b) and a < b for a, b in zip((0,) + variables, variables)):
        raise ValueError(f"variables {variables!r} are not {len(exponents)} strictly increasing "
                         f"positive integers")
    signs = [1]  # lexicographic permutations: the d-th smallest exponent next adds d inversions
    for size in range(2, len(exponents) + 1):
        signs = [-s if d & 1 else s for d in range(size) for s in signs]
    pairs = [{e: (v, e) if e else None for e in exponents} for v in variables]  # shared tuples
    return Polynomial._raw({tuple(filter(None, map(dict.__getitem__, pairs, perm))): s
                            for perm, s in zip(permutations(exponents), signs)})


@lru_cache(maxsize=None, typed=True)  # typed, so a cached order 1 does not answer True
def vandermonde(n: int) -> Polynomial:
    """The expanded product of ``x_j - x_i`` over all pairs 1 <= i < j <= n,
    the alternant det[x_i^(j-1)].  Cached; treat the result as immutable."""
    if not is_integer(n) or n < 1:
        raise ValueError(f"vandermonde requires a positive integer order, got {n!r}")
    return alternant(range(n))


# -- packed-exponent multiply-accumulate kernel -----------------------------
#
# Every signed product sum goes through product_sums, which alone tells scalar
# from polynomial values and knows the packed format: Polynomial.__mul__, the
# wedge and the definition and exterior routes.  A monomial is packed into one
# int, with the exponent of x_v in the W-bit field at offset W*(v-1), so
# multiplying two monomials is one integer addition (the packing of Monagan &
# Pearce, CASC 2007).  A packed polynomial is a plain dict from packed monomial
# to nonzero coefficient.  A field never overflows as long as W is wide enough
# for the largest exponent a product can reach, which the sum of the factors'
# total degrees bounds (see field_width).


def degree(value: Scalar | Polynomial) -> int:
    """Total degree of a polynomial; 0 for a scalar."""
    return value.degree() if isinstance(value, Polynomial) else 0


def field_width(degree_bound: int) -> int:
    """Bits per exponent field so that every exponent up to ``degree_bound``
    fits; pass the sum of the total degrees of the factors to be multiplied."""
    return max(degree_bound, 1).bit_length()


def pack(value: Scalar | Polynomial, width: int) -> dict[int, Scalar]:
    """The packed form of a polynomial or scalar, with ``width``-bit fields."""
    if not isinstance(value, Polynomial):
        return {0: value} if value else {}
    packed = {}
    for mono, coeff in value.terms.items():
        if max((e for _, e in mono), default=0) >> width:
            raise ValueError(f"exponent in {mono!r} does not fit a {width}-bit field")
        packed[sum(e << width * (v - 1) for v, e in mono)] = coeff
    return packed


def unpack(packed: Mapping[int, Scalar], width: int) -> Polynomial:
    """The tuple-monomial polynomial of a packed one, its terms in the packed
    order.  A key's fields split into a low and a high half, and each
    distinct half is decoded once."""
    mask = (1 << width) - 1
    pairs: dict = {}  # one shared (variable, exponent) tuple per pair

    def decode(key: int, var: int) -> Monomial:
        mono = []
        while key:
            exp = key & mask
            if exp:
                pair = (var, exp)
                mono.append(pairs.setdefault(pair, pair))
            key >>= width
            var += 1
        return tuple(mono)

    half = -(-max(packed, default=0).bit_length() // width) // 2  # fields in the low half
    shift = half * width
    low_mask = (1 << shift) - 1
    lows = {low: decode(low, 1) for low in {key & low_mask for key in packed}}
    highs = {high: decode(high, half + 1) for high in {key >> shift for key in packed}}
    return Polynomial._raw({lows[key & low_mask] + highs[key >> shift]: coeff
                            for key, coeff in packed.items()})


def addmul(acc: dict[int, Scalar], a: Mapping[int, Scalar], b: Mapping[int, Scalar],
           sign: int = 1) -> None:
    """In place, ``acc += sign * a * b`` on packed polynomials of one width.

    ``sign`` may be any nonzero integer multiplier.  Entries that cancel to
    zero are removed, so ``acc`` never stores a zero coefficient.
    """
    get = acc.get
    b_items = list(b.items())
    for ma, ca in a.items():
        ca *= sign
        for mb, cb in b_items:
            key = ma + mb
            coeff = get(key, 0) + ca * cb
            if coeff:
                acc[key] = coeff
            else:
                del acc[key]


def product_sums(left: Mapping, right: Mapping, sums: Mapping) -> dict:
    """For each key u of ``sums``, the sum of sign * left[a] * right[b_1] *
    ... * right[b_r] over the (sign, (a, b_1, ..., b_r)) of sums[u], for
    r >= 0 and any nonzero int sign.  Scalars in give plain scalar sums out;
    if any value of ``left`` or ``right`` is a Polynomial, every output is
    one, zero included.  Then one width covers every partial product, only the
    values a term names are packed, each once, and each output is summed one
    exponent of x1 in left at a time, the classes added with cancellation."""
    if not any(isinstance(v, Polynomial) for v in chain(left.values(), right.values())):
        return {u: sum(sign * left[a] * prod(map(right.__getitem__, bs))
                       for sign, (a, *bs) in terms) for u, terms in sums.items()}
    sums = {u: [(sign, a, bs) for sign, (a, *bs) in terms] for u, terms in sums.items()}
    named = [term for terms in sums.values() for term in terms]
    left_degree = {a: degree(left[a]) for _, a, _ in named}
    right_degree = {b: degree(right[b]) for _, _, bs in named for b in bs}
    width = field_width(max((left_degree[a] + sum(map(right_degree.get, bs))
                             for _, a, bs in named), default=0))
    packed = {b: pack(right[b], width) for b in right_degree}
    shared = packed if left is right else {}  # a square packs a value named on both sides once
    classes: dict[int, dict] = {}
    for a in left_degree:  # x1 is the low field
        for mono, coeff in (shared[a] if a in shared else pack(left[a], width)).items():
            classes.setdefault(mono & (1 << width) - 1, {}).setdefault(a, {})[mono] = coeff
    results = {}
    for u, terms in sums.items():
        result: dict[int, Scalar] = {}
        for c in sorted(classes):
            acc: dict[int, Scalar] = {}
            for sign, a, bs in terms:
                term = classes[c].get(a, {})
                for b in bs[:-1]:
                    product: dict[int, Scalar] = {}
                    addmul(product, term, packed[b])
                    term = product
                addmul(acc, term, packed[bs[-1]] if bs else {0: 1}, sign)
            result = accumulate(result, acc.items()) if result else acc
        results[u] = unpack(result, width)
    return results


def vandermonde_at(values: Sequence[Scalar]) -> Scalar:
    """Evaluate the Vandermonde product at a point without expanding it."""
    check_point(values)
    return prod(values[j] - values[i] for j in range(1, len(values)) for i in range(j))


# -- canonical text form ---------------------------------------------------


def _render_magnitude(coeff: Scalar, mono: Monomial) -> str:
    body = "*".join(f"x{v}" if e == 1 else f"x{v}^{e}" for v, e in mono)
    if not body:
        return str(coeff)
    if coeff == 1:
        return body
    return f"{coeff}*{body}"


def render(p: Polynomial) -> str:
    """Canonical single-line rendering used by the CLI and golden tests."""
    items = p.sorted_terms()
    if not items:
        return "0"
    pieces = []
    for index, (mono, coeff) in enumerate(items):
        negative = coeff < 0
        magnitude = _render_magnitude(-coeff if negative else coeff, mono)
        if index == 0:
            pieces.append(f"-{magnitude}" if negative else magnitude)
        else:
            pieces.append(f" - {magnitude}" if negative else f" + {magnitude}")
    return "".join(pieces)


_TOKEN = re.compile(r"\s*(x\d+|\d+|[*/^+\-])")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ValueError(f"cannot parse polynomial near {text[pos:]!r}")
        tokens.append(match.group(1))
        pos = match.end()
    return tokens


def parse_polynomial(text: str) -> Polynomial:
    """Parse the canonical rendering back into a polynomial."""
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty polynomial text")
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> str:
        nonlocal pos
        token = tokens[pos]
        pos += 1
        return token

    def take_number() -> int:
        token = peek()
        if token is None or not token.isdigit():
            raise ValueError(f"expected a number, got {token!r}")
        return int(take())

    def parse_factor(coeff: Scalar, pairs: list) -> Scalar:
        token = peek()
        if token is None:
            raise ValueError("unexpected end of polynomial text")
        if token.isdigit():
            value: Scalar = take_number()
            if peek() == "/":
                take()
                denominator = take_number()
                if not denominator:
                    raise ValueError(f"zero denominator in {value}/{denominator}")
                value = Fraction(value, denominator)
            return coeff * value
        if token.startswith("x"):
            take()
            var = int(token[1:])
            if var < 1:
                raise ValueError(f"variable index must be a positive integer, got {token!r}")
            exp = 1
            if peek() == "^":
                take()
                exp = take_number()
            pairs.append((var, exp))
            return coeff
        raise ValueError(f"unexpected token {token!r} in polynomial text")

    def parse_terms():
        sign = 1
        token = peek()
        if token in ("+", "-"):
            take()
            sign = -1 if token == "-" else 1
        while True:
            pairs: list = []
            coeff = parse_factor(1, pairs)
            while peek() == "*":
                take()
                coeff = parse_factor(coeff, pairs)
            yield _monomial(pairs), sign * coeff
            token = peek()
            if token is None:
                return
            if token not in ("+", "-"):
                raise ValueError(f"unexpected token {token!r} in polynomial text")
            take()
            sign = -1 if token == "-" else 1

    return Polynomial(accumulate({}, parse_terms()))
