"""Exact sparse multivariate polynomial arithmetic over the rationals.

Variables are identified by 1-based index, so ``x1, x2, ...`` throughout.
A :class:`Polynomial` maps monomials to nonzero exact rational coefficients
(``int`` or :class:`fractions.Fraction`).  It stores a monomial as one int,
the exponent of x_v in the W-bit field at offset W*(v-1), so multiplying two
monomials is one integer addition (the packing of Monagan & Pearce, CASC
2007).  W is the narrowest width that provably holds every exponent: the bit
length of the largest per-variable exponent bound, at least 1.  Outside
this module a monomial is a tuple of ``(variable, exponent)`` pairs sorted by
variable, exponents positive, () the constant: the constructor takes such
keys and :attr:`Polynomial.terms` is a read-only view keyed by them.  Every
operation is exact, so identities are checked with plain ``==``.

The canonical text rendering sorts terms in ascending graded lexicographic
order (total degree first, then exponents of x1, x2, ... compared
entrywise) and writes terms like ``3*x1*x2^2`` with explicit ``+``/``-``
separators.  :func:`parse_polynomial` inverts :func:`render`.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, permutations
from math import factorial, prod
from operator import lshift, or_
from typing import Sequence, Union

Scalar = Union[int, Fraction]
#: sorted tuple of (variable, exponent) pairs; () is the constant monomial
Monomial = tuple
#: the largest variable index: a packed key spends W bits on every variable
#: up to its highest, so x_4096 alone is a key of 4096*W bits (8 KB once its
#: exponents need W = 16), and an index near 10^9 would allocate gigabytes
MAX_VARIABLE = 1 << 12


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


def _check_variable(var, name: str | None = None) -> None:
    """Refuse a variable index that is not an int in 1..MAX_VARIABLE, before
    any key is built, naming it, or its text ``name``."""
    shown = var if name is None else name
    if not is_integer(var) or var < 1:
        raise ValueError(f"variable index must be a positive integer, got {shown!r}")
    if var > MAX_VARIABLE:
        raise ValueError(f"variable index must be at most {MAX_VARIABLE}, got {shown!r}")


def _check_pairs(pairs) -> None:
    """Refuse a ``(variable, exponent)`` pair that is not a variable index and
    a nonnegative int, naming the value."""
    for var, exp in pairs:
        _check_variable(var)
        if not is_integer(exp) or exp < 0:
            raise ValueError(f"exponent of x{var} must be a nonnegative integer, got {exp!r}")


# -- packed monomials -------------------------------------------------------
#
# Keys add and decode exactly as long as every exponent is below 2^W, so no
# field carries into the next.  Each polynomial keeps that for its own width W,
# and product_sums takes a width that holds every exponent a product can reach.


def _width(bound: int) -> int:
    """The field width for exponents up to ``bound``: its bit length, and at
    least 1, so that every key decodes."""
    return bound.bit_length() or 1


def _bound(pairs) -> int:
    """The largest exponent of the product of ``(variable, exponent)`` pairs,
    whose exponents of a repeated variable are added."""
    exps: dict[int, int] = {}
    for var, exp in pairs:
        exps[var] = exps.get(var, 0) + exp
    return max(exps.values(), default=0)


def _key(pairs, width: int) -> int:
    """The packed key of the product of ``(variable, exponent)`` pairs, whose
    exponents of a repeated variable are added."""
    return sum(exp << width * (var - 1) for var, exp in pairs)


def _decode(key: int, width: int) -> Monomial:
    """The sorted ``(variable, exponent)`` pairs of a packed key."""
    mask = (1 << width) - 1
    mono = []
    var = 1
    while key:
        if key & mask:
            mono.append((var, key & mask))
        key >>= width
        var += 1
    return tuple(mono)


def _pack(items) -> tuple[dict, int]:
    """The packed terms of ``(pairs, coefficient)`` items, summed, and their
    width, wide enough for every exponent of every monomial."""
    items = list(items)
    width = _width(max((_bound(pairs) for pairs, _ in items), default=0))
    return accumulate({}, ((_key(pairs, width), coeff) for pairs, coeff in items)), width


class _Terms(Mapping):
    """A polynomial's terms keyed by tuple monomials: a read-only view that
    decodes the packed keys in stored order."""

    __slots__ = ("_packed", "_width")

    def __init__(self, p: "Polynomial"):
        self._packed, self._width = p._packed, p._width

    def __len__(self) -> int:
        return len(self._packed)

    def __iter__(self):
        return (_decode(key, self._width) for key in self._packed)

    def __getitem__(self, mono: Monomial) -> Scalar:
        try:
            _check_pairs(mono)
        except (TypeError, ValueError):
            raise KeyError(mono) from None
        key = _key(mono, self._width)
        if _decode(key, self._width) != mono:  # not canonical, or an exponent overflows
            raise KeyError(mono)
        return self._packed[key]

    def items(self) -> list[tuple[Monomial, Scalar]]:
        return [(_decode(key, self._width), coeff) for key, coeff in self._packed.items()]


class Polynomial:
    """Immutable-by-convention sparse polynomial with exact coefficients;
    all arithmetic returns fresh objects."""

    __slots__ = ("_packed", "_width")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        """Every term is checked; exponents of a repeated variable are added,
        zero exponents dropped, and terms whose monomials then coincide are
        summed."""
        terms = terms or {}
        for mono, coeff in terms.items():
            if not is_scalar(coeff):
                raise ValueError(f"coefficient of {mono!r} is not an exact rational: {coeff!r}")
            _check_pairs(mono)
        self._packed, self._width = _pack(terms.items())

    @classmethod
    def _raw(cls, packed: dict, width: int) -> "Polynomial":
        p = object.__new__(cls)
        p._packed, p._width = packed, width
        return p

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._raw({}, _width(0))

    @classmethod
    def one(cls) -> "Polynomial":
        return cls._raw({0: 1}, _width(0))

    @classmethod
    def constant(cls, value: Scalar) -> "Polynomial":
        return cls({(): value})

    @classmethod
    def variable(cls, index: int) -> "Polynomial":
        _check_variable(index)
        return cls._raw({1 << _width(1) * (index - 1): 1}, _width(1))

    @classmethod
    def monomial(cls, exponents: Mapping[int, int], coeff: Scalar = 1) -> "Polynomial":
        """Build ``coeff * prod x_v^e`` from an exponent map (zeros dropped)."""
        return cls({tuple(exponents.items()): coeff})

    @property
    def terms(self) -> Mapping[Monomial, Scalar]:
        """The terms keyed by tuple monomials, read-only, in stored order."""
        return _Terms(self)

    # -- ring structure -------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._packed)

    def is_zero(self) -> bool:
        return not self._packed

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            if len(self._packed) != len(other._packed):
                return False
            width = max(self._width, other._width)
            return _at_width(self, width) == _at_width(other, width)
        if is_scalar(other):
            return self._packed == _at_width(other, self._width)
        return NotImplemented

    __hash__ = None  # mutable mapping inside

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw({m: -c for m, c in self._packed.items()}, self._width)

    def __add__(self, other) -> "Polynomial":
        if is_scalar(other):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self._packed:
            return other
        if not other._packed:
            return self
        width = max(self._width, other._width)
        return Polynomial._raw(accumulate(dict(_at_width(self, width)),
                                          _at_width(other, width).items()), width)

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        if not (is_scalar(other) or isinstance(other, Polynomial)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if is_scalar(other):
            if not other:
                return Polynomial.zero()
            return Polynomial._raw({m: c * other for m, c in self._packed.items()}, self._width)
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
        return max((sum(e for _, e in mono) for mono in self.terms), default=0)

    def coefficient(self, exponents: Mapping[int, int]) -> Scalar:
        _check_pairs(exponents.items())
        if any(exp >> self._width for exp in exponents.values()):
            return 0  # no stored monomial has an exponent that large
        return self._packed.get(_key(exponents.items(), self._width), 0)

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
            _check_variable(target)
            image[var] = target
        return Polynomial._raw(*_pack(([(image[v], e) for v, e in m], c)
                                      for m, c in self.terms.items()))

    # -- rendering --------------------------------------------------------

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"Polynomial({render(self)})"


def div_exact(value: Scalar | Polynomial, divisor: int):
    """Divide a scalar or polynomial by an integer, insisting on exactness:
    one pass for the quotients, one for the remainders of int coefficients."""
    if not is_integer(divisor):
        raise ValueError(f"divisor {divisor!r} is not an integer")
    if not (is_scalar(value) or isinstance(value, Polynomial)):
        raise ValueError(f"dividend {value!r} is not an exact rational")
    if divisor == 0:
        raise ZeroDivisionError("division of exact coefficients by zero")
    terms = value._packed if isinstance(value, Polynomial) else {0: value}
    quotients = {m: c // divisor if isinstance(c, int) else c / divisor for m, c in terms.items()}
    inexact = next((c for c in terms.values() if isinstance(c, int) and c % divisor), None)
    if inexact is not None:
        raise ArithmeticError(
            f"inexact division {inexact}/{divisor}; this indicates an implementation bug")
    if isinstance(value, Polynomial):
        return Polynomial._raw(quotients, value._width)
    return quotients[0]


def from_exponent_vectors(terms: Mapping[Sequence[int], Scalar]) -> Polynomial:
    """The sum of c * x1^(e_1) * ... * xm^(e_m) over the (e, c) of ``terms``,
    unchecked: for callers that made every e a tuple of nonnegative ints of
    one length m <= MAX_VARIABLE and every c a nonzero exact rational."""
    width = _width(max(chain.from_iterable(terms), default=0))
    shifts = range(0, width * len(next(iter(terms), ())), width)
    return Polynomial._raw({sum(map(lshift, e, shifts)): c for e, c in terms.items()}, width)


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
    if variables:
        _check_variable(variables[-1])  # the largest
    m = len(exponents)
    signs = [1]  # lexicographic permutations: the d-th smallest exponent next adds d inversions
    for size in range(2, m + 1):
        signs = [-s if d & 1 else s for d in range(size) for s in signs]
    # each permutation of all but the last 4 exponents, in order, adds its key to the
    # memoized keys of the orders of the rest (memoizing every suffix raised peak memory)
    split, block = max(m - 4, 0), factorial(min(m, 4))
    width = _width(exponents[-1] if exponents else 0)
    shifts = [width * (v - 1) for v in variables]
    ups, downs = signs[:block], [-s for s in signs[:block]]
    lows, packed = {}, {}  # the keys of the orders of each rest; the terms
    for prefix, sign in zip(permutations(exponents, split), signs[::block]):
        rest = tuple(e for e in exponents if e not in prefix)
        if rest not in lows:
            lows[rest] = [sum(map(lshift, perm, shifts[split:])) for perm in permutations(rest)]
        high = sum(map(lshift, prefix, shifts))
        packed.update(zip([high + low for low in lows[rest]], ups if sign > 0 else downs))
    return Polynomial._raw(packed, width)


@lru_cache(maxsize=None, typed=True)  # typed, so a cached order 1 does not answer True
def vandermonde(n: int) -> Polynomial:
    """The expanded product of ``x_j - x_i`` over all pairs 1 <= i < j <= n,
    the alternant det[x_i^(j-1)].  Cached; treat the result as immutable."""
    if not is_integer(n) or n < 1:
        raise ValueError(f"vandermonde requires a positive integer order, got {n!r}")
    return alternant(range(n))


# -- multiply-accumulate kernel ----------------------------------------------
#
# Every signed product sum goes through product_sums, which alone tells scalar
# from polynomial values: Polynomial.__mul__, the wedge and the definition and
# exterior routes.  It multiplies the stored packed terms with addmul, at the
# width of the largest per-variable bound of a product's factors added up, and
# folds the tails that consecutive terms share (Horner's rule on prefixes).


def _at_width(value: Scalar | Polynomial, width: int) -> dict[int, Scalar]:
    """The packed terms of a polynomial or scalar at ``width`` bits, which
    must hold each of its exponents: a polynomial's own map at its own width,
    a repacked copy at another."""
    if not isinstance(value, Polynomial):
        return {0: value} if value else {}
    packed, old = value._packed, value._width
    if old == width:
        return packed
    mask, keys = (1 << old) - 1, [0] * len(packed)
    for i in range(-(-reduce(or_, packed, 0).bit_length() // old)):  # field by field
        keys = [key | (m >> old * i & mask) << width * i for key, m in zip(keys, packed)]
    return dict(zip(keys, packed.values()))


def _top(value: Scalar | Polynomial) -> Monomial:
    """A bound on each exponent of a value, per variable: the fields of the OR
    of its keys."""
    if not isinstance(value, Polynomial):
        return ()
    return _decode(reduce(or_, value._packed, 0), value._width)


def addmul(acc: dict[int, Scalar], a: Mapping[int, Scalar], b: Mapping[int, Scalar],
           sign: int) -> None:
    """In place, ``acc += sign * a * b`` on packed terms of one width.

    ``sign`` may be any nonzero integer multiplier.  Entries that cancel to
    zero are removed, so ``acc`` never stores a zero coefficient.
    """
    get = acc.get
    for ma, ca in a.items():
        ca *= sign
        for mb, cb in b.items():
            key = ma + mb
            coeff = get(key, 0) + ca * cb
            if coeff:
                acc[key] = coeff
            else:
                del acc[key]


_ONE = {0: 1}  # the packed constant 1: the factor after a term's last key


def _add(tail, a: dict, child):
    """``tail + a * child`` on folded tails: None while empty, a packed dict,
    or a pending ``(sign, b)`` for ``sign * b``.  ``a`` times a pending sign
    alone is held pending, as ``(sign, a)``, for the parent's one product."""
    sign, b = child if isinstance(child, tuple) else (1, child)
    if tail is None and b is _ONE:
        return sign, a
    if not isinstance(tail, dict):
        tail = {m: tail[0] * c for m, c in tail[1].items()} if tail else {}
    addmul(tail, a, b, sign)
    return tail


def product_sums(left: Mapping, right: Mapping, sums: Mapping) -> dict:
    """For each key u of ``sums``, the sum of sign * left[a] * right[b_1] *
    ... * right[b_r] over the (sign, (a, b_1, ..., b_r)) of sums[u], for
    r >= 0 and any nonzero int sign.  Scalars in give plain scalar sums out;
    if any value of ``left`` or ``right`` is a Polynomial, every output is
    one, zero included.  Then every product is taken at one width: the bit
    length of the largest per-variable bound over the terms, a term's bound
    being the sum of its factors' bounds, variable by variable.  The terms
    are folded in their order on a stack of one tail sum per key of the
    current prefix, so a run of terms that share a prefix multiplies its
    factors once, and each output is summed one exponent of x1 in left at a
    time, left[a]'s part times a's tail: merged by a plain update where it
    shares no monomial with the sum so far, with cancellation where it does."""
    if not any(isinstance(v, Polynomial) for v in chain(left.values(), right.values())):
        results = {}
        for u, terms in sums.items():
            total = 0
            for sign, keys in terms:
                value, values = sign, left
                for key in keys:  # left at the first key, right at the rest
                    value *= values[key]
                    values = right
                total += value
            results[u] = total
        return results
    sums = {u: [(sign, tuple(keys)) for sign, keys in terms] for u, terms in sums.items()}
    named = [keys for terms in sums.values() for _, keys in terms]
    left_top = {keys[0]: _top(left[keys[0]]) for keys in named}
    right_top = {b: _top(right[b]) for keys in named for b in keys[1:]}
    width = _width(max((_bound(chain(left_top[keys[0]], *map(right_top.get, keys[1:])))
                        for keys in named), default=0))
    factors = {b: _at_width(right[b], width) for b in right_top}
    classes: dict[int, dict] = {}
    for a in left_top:  # x1 is the low field
        for mono, coeff in _at_width(left[a], width).items():
            classes.setdefault(mono & (1 << width) - 1, {}).setdefault(a, {})[mono] = coeff
    results = {}
    for u, terms in sums.items():
        stack, roots = [], []  # [key, tail] per key of the current prefix; closed (a, tail)
        for sign, keys in chain(terms, [(None, ())]):  # the empty last term closes every prefix
            depth = 0
            while depth < min(len(stack), len(keys)) and stack[depth][0] == keys[depth]:
                depth += 1
            while len(stack) > depth:  # the prefixes the term leaves
                key, tail = stack.pop()
                if stack:
                    stack[-1][1] = _add(stack[-1][1], factors[key], tail)
                else:
                    roots.append((key, tail))
            if keys:
                stack.extend([key, None] for key in keys[depth:])
                stack[-1][1] = _add(stack[-1][1], _ONE, (sign, _ONE))
        result: dict[int, Scalar] = {}
        for c in sorted(classes):
            acc: dict[int, Scalar] = {}
            for a, tail in roots:
                _add(acc, classes[c].get(a, {}), tail)
            if result.keys().isdisjoint(acc):
                result.update(acc)
            else:
                accumulate(result, acc.items())
        results[u] = Polynomial._raw(result, width)
    return results


def vandermonde_at(values: Sequence[Scalar]) -> Scalar:
    """Evaluate the Vandermonde product at a point without expanding it."""
    check_point(values)
    return prod(values[j] - values[i] for j in range(1, len(values)) for i in range(j))


# -- canonical text form ---------------------------------------------------


def render(p: Polynomial) -> str:
    """Canonical single-line rendering used by the CLI and golden tests.  Each
    packed key's W-bit fields are read once, field by field over all keys, into
    a dense exponent row; the rows sort on (total degree, row), and each term is
    written from its row."""
    packed, width = p._packed, p._width
    if not packed:
        return "0"
    mask = (1 << width) - 1
    top = -(-reduce(or_, packed).bit_length() // width) or 1  # a constant gets one zero field
    rows = list(zip(*[[key >> width * i & mask for key in packed] for i in range(top)]))
    pieces = []
    for _, row, coeff in sorted(zip(map(sum, rows), rows, packed.values())):  # no two rows tie
        body = "*".join(f"x{v}" if e == 1 else f"x{v}^{e}" for v, e in enumerate(row, 1) if e)
        magnitude = -coeff if coeff < 0 else coeff
        term = f"{magnitude}*{body}" if body and magnitude != 1 else body or str(magnitude)
        pieces += " - " if coeff < 0 else " + ", term
    pieces[0] = "-" if pieces[0] == " - " else ""  # the leading term takes a bare minus
    return "".join(pieces)


_SIGN = re.compile(r"\s*([+-])")
_TIMES = re.compile(r"\s*\*")
_FACTOR = re.compile(r"\s*(?:(\d+)(?:\s*/\s*(\d+))?|(x(\d+))(?:\s*\^\s*(\d+))?)")


def parse_polynomial(text: str) -> Polynomial:
    """Parse the canonical rendering back into a polynomial: terms joined by
    ``+`` or ``-``, each a ``*`` product of numbers, fractions ``p/q`` and
    powers ``x<v>`` or ``x<v>^<e>``."""
    terms, pos = [], 0
    while True:
        joint = _SIGN.match(text, pos)  # optional before the first term only
        if joint is None and terms:
            break
        pos = joint.end() if joint else pos
        coeff, pairs = -1 if joint and joint[1] == "-" else 1, []
        while True:
            factor = _FACTOR.match(text, pos)
            if factor is None:
                raise ValueError(f"cannot parse polynomial near {text[pos:]!r}")
            number, denominator, name, var, exp = factor.groups()
            if name:
                _check_variable(int(var), name)
                pairs.append((int(var), int(exp or 1)))
            elif denominator and not int(denominator):
                raise ValueError(f"zero denominator in {int(number)}/0")
            else:
                coeff *= Fraction(int(number), int(denominator)) if denominator else int(number)
            pos = factor.end()
            times = _TIMES.match(text, pos)
            if times is None:
                break
            pos = times.end()
        terms.append((pairs, coeff))
    if pos != len(text):
        raise ValueError(f"cannot parse polynomial near {text[pos:]!r}")
    return Polynomial._raw(*_pack(terms))
