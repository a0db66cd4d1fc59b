"""Command-line front end.

Subcommands:

* ``compute``    -- read a JSON spec file, run one evaluation route, print
                    the resulting polynomial in canonical term order;
* ``verify``     -- seeded random specs, check that all three routes agree
                    (symbolically, or exactly at random integer points);
* ``coeffs``     -- list the signed composition tilings of the closed form;
* ``torelli``    -- the binomial-power special case against brute force;
* ``involution`` -- the pairing/cancellation suite on weighted oriented
                    partitions;
* ``compose``    -- the composition identity on random skew functions.

Exit codes: 0 success / identity verified, 1 identity violated (a
mathematical counterexample; should never occur) or an internal error
(``error: internal: ...`` on stderr, such as an inexact exact division),
2 usage or input error.
Output is deterministic given the flags, byte for byte.

Spec files are UTF-8 JSON objects with integer fields ``n`` and ``k``, an
optional integer ``degree`` (default k/2*(n-1)), and ``terms``: a list of
records ``{"r": [...], "a": ...}`` where ``r`` is a strictly increasing
k-tuple of nonnegative integers summing to the degree and ``a`` is a
nonzero rational written as an integer or a ``"p/q"`` string.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from math import factorial, floor, inf, isfinite, lgamma, log, log10, prod

from .combinat import (
    check_even,
    composition_tilings,
    increasing_composition_count,
    increasing_compositions,
    tiling_sign,
)
from .compose import check_orders, verify_composition
from .hpf import (
    SkewSpec,
    pf_closed_form,
    pf_definition,
    pf_exterior,
    skew_function_from_spec,
    skew_function_from_spec_at,
    theorem_coefficient,
    torelli_constant,
    torelli_spec,
)
from .poly import is_integer, vandermonde, vandermonde_at
from .randgen import Lcg, check_point_order, random_point, random_skew_function, random_skew_spec

MAX_SYMBOLIC_N = 8  # symbolic results hold up to n! terms; also the --mode auto switch
WORK_BUDGET = 3 * 10**7  # estimated steps a run may take without --force
COUNT_STEPS = 100_000  # the most steps _log10_gamma spends counting |Gamma|


# -- spec files -------------------------------------------------------------


def _parse_rational(raw, where: str) -> Fraction | int:
    if isinstance(raw, bool):
        raise ValueError(f"{where}: coefficient must be a rational, got {raw!r}")
    if isinstance(raw, int):
        return raw
    if isinstance(raw, str):
        try:
            value = Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            reason = exc if isinstance(exc, ValueError) else "zero denominator"
            raise ValueError(f"{where}: cannot parse rational {raw!r}: {reason}") from None
        return int(value) if value.denominator == 1 else value
    raise ValueError(
        f"{where}: coefficient must be an integer or a 'p/q' string, got {raw!r}"
        " (floats are rejected to keep the arithmetic exact)"
    )


def _require_int(document: dict, field: str) -> int:
    value = document.get(field)
    if not is_integer(value):
        raise ValueError(f"field {field!r} must be an integer, got {value!r}")
    return value


def load_spec_file(path: str) -> SkewSpec:
    """Read a spec file, check its format and build the :class:`SkewSpec`,
    which checks the values; raises ValueError with a diagnostic naming the
    offending field or tuple."""
    import json

    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise ValueError(f"{path}: spec file must contain a JSON object")
    unknown = set(document) - {"n", "k", "degree", "terms"}
    if unknown:
        raise ValueError(f"{path}: unexpected field {sorted(unknown)[0]!r}")
    n = _require_int(document, "n")
    k = _require_int(document, "k")
    degree = _require_int(document, "degree") if "degree" in document else None
    SkewSpec(n, k, {}, degree)  # names a bad n, k or degree before any record
    terms = document.get("terms")
    if not isinstance(terms, list):
        raise ValueError(f"{path}: field 'terms' must be a list of records")
    coeffs: dict[tuple[int, ...], Fraction | int] = {}
    for index, record in enumerate(terms):
        where = f"terms[{index}]"
        if not isinstance(record, dict) or set(record) != {"r", "a"}:
            raise ValueError(f"{where}: each term must be a record with exactly 'r' and 'a'")
        raw_r = record["r"]
        if not isinstance(raw_r, list) or len(raw_r) != k or not all(map(is_integer, raw_r)):
            raise ValueError(f"{where}: 'r' must be a list of {k} integers, got {raw_r!r}")
        exponents = tuple(raw_r)
        if exponents in coeffs:
            raise ValueError(f"{where}: duplicate exponent tuple r = {raw_r}")
        value = _parse_rational(record["a"], where)
        if not value:
            raise ValueError(f"{where}: coefficient for r = {raw_r} must be nonzero")
        coeffs[exponents] = value
    return SkewSpec(n, k, coeffs, degree)


def dump_spec(spec: SkewSpec) -> str:
    """One-line JSON rendering of a spec, suitable as a spec file."""
    import json

    terms = [{"r": list(r), "a": str(a)} for r, a in spec.coeffs.items()]
    return json.dumps({"n": spec.n, "k": spec.k, "degree": spec.degree, "terms": terms})


# -- shared helpers ---------------------------------------------------------


def _guard(args, order: str, refusal) -> None:
    """Unless --force is given, raise the refusal ``refusal()`` words (the cap
    on symbolic results), or refuse where it gives a log10 of steps past
    WORK_BUDGET; ``main`` prints it, exit 2.  An estimate past a float
    refuses ``order`` as too large to size."""
    if args.force:
        return
    try:
        found = refusal()
    except OverflowError:
        found = inf
    if isinstance(found, str):
        raise ValueError(found)
    if not isfinite(found):
        raise ValueError(f"refusing {order}: too large to size")
    if found > log10(WORK_BUDGET):
        raise ValueError(f"refusing {order}: about 10^{found:.1f} steps, past the budget of "
                         f"10^{log10(WORK_BUDGET):.1f}; pass --force to override")


def tiling_label(compositions) -> str:
    """Render a tiling as coefficient labels: ``a_{0,3} a_{1,2}``."""
    return " ".join("a_{" + ",".join(map(str, comp)) + "}" for comp in compositions)


def _size(exact, log10_size: float) -> str:
    """A size in a refusal: ``exact()`` while its digits fit the interpreter's
    int-to-str limit (so it is cheap to compute), else its order of magnitude."""
    # Python's default limit where the limit is off (0) or absent (before 3.10.7)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    if log10_size < limit - 1:
        return str(exact())
    return f"about 10^{floor(log10_size)}"


# Work estimates, in log10; every count is read off the code it sizes.


def _log10_factorial(n: int) -> float:
    return lgamma(n + 1) / log(10)


def _log10_comb(a, b: int) -> float:
    return -inf if b > a else _log10_factorial(a) - _log10_factorial(b) - _log10_factorial(a - b)


def _log10_sum(*logs: float) -> float:
    return (top := max(logs)) + log10(sum(10 ** (x - top) for x in logs))


def _log10_partitions(n: int, k: int) -> float:
    """P(n, k) = n!/((n/k)! k!^(n/k)), the partitions of [n] into k-blocks."""
    return _log10_factorial(n) - _log10_factorial(n // k) - n // k * _log10_factorial(k)


def _log10_gamma(n: int, k: int) -> float:
    """|Gamma(n, k)|, the one count an estimate makes: counted while counting
    the partitions of m = k(n-k)/2 into at most k parts takes at most
    COUNT_STEPS steps, else bounded below by C(m+k-1, k-1)/k! (each orders
    into at most k! compositions of m into k parts).  Past that cutoff, P(n, k),
    n!/(n/k)! and C(n-2, k-2) + n^2 are each far past WORK_BUDGET alone."""
    m = k * (n - k) // 2
    if min(k, m) * m <= COUNT_STEPS:
        return log10(increasing_composition_count(n, k))
    return _log10_comb(m + k - 1, k - 1) - _log10_factorial(k)


def _log10_chain(n: int, k: int) -> float:
    """One symbolic route's monomial products before cancellation: per
    partition, t^2 + ... + t^(n/k) for blocks of t = k!|Gamma| terms (t alone
    at n = k, where the one block multiplies 1).  An upper bound: it is the
    definition route's count when no two of its folded tails share a
    monomial, and a tail that merges some has fewer terms to multiply.  The
    exterior route's count, divided power and top step, is tested below it."""
    blocks, terms = n // k, _log10_factorial(k) + _log10_gamma(n, k)
    return _log10_partitions(n, k) + _log10_sum(
        *(j * terms for j in range(min(2, blocks), blocks + 1)))


def _log10_laplace(n: int, k: int) -> float:
    """Entries spec evaluation fills at a point, sized as a one-row fold: per
    level m < k, C(n-k+m, m) prefix tables of at most C(k, m)|Gamma| minors,
    and C(n, k) dot products of k|Gamma|.  The two-row fold fills fewer: the
    tables up to m = k-2, C(n-k+2, 2)C(k, 2)|Gamma| pair weight terms and
    C(n, k) dot products of the level k-2 minors, 31-66% of this at (16,4),
    (12,4), (12,6) and (8,4).  At n = k, one subset and |Gamma| = 1, it fills
    2^k - 2 + k(k-2), so there the dot product is sized at k(k-1).  Points
    mode refuses n > 201 before sizing it, so the sum has at most 200 levels."""
    return _log10_gamma(n, k) + _log10_sum(
        *(_log10_comb(n - k + m, m) + _log10_comb(k, m) for m in range(1, k)),
        _log10_comb(n, k) + log10(k if n > k else k * (k - 1)))


# -- commands ---------------------------------------------------------------


def cmd_compute(args) -> int:
    spec = load_spec_file(args.input)
    n = spec.n
    _guard(args, f"n={n}", lambda: n > MAX_SYMBOLIC_N and (
        f"refusing n={n}: the expanded result can reach {n}! = "
        f"{_size(lambda: factorial(n), _log10_factorial(n))} terms; pass --force to override"))
    if args.method == "definition":
        result = pf_definition(skew_function_from_spec(spec))
    elif args.method == "exterior":
        result = pf_exterior(skew_function_from_spec(spec))
    else:
        result = pf_closed_form(spec)
    print(result)
    return 0


def _verify_checks(spec: SkewSpec, mode: str, points: int, rng: Lcg):
    """The three routes' values for one trial, as ``(point, sides)`` pairs:
    one symbolic check (point None), or one check per random point, each
    point drawn only when its check is reached."""
    if mode == "symbolic":
        f = skew_function_from_spec(spec)
        yield None, [("definition", pf_definition(f)), ("exterior", pf_exterior(f)),
                     ("closed form", pf_closed_form(spec))]
        return
    coefficient = theorem_coefficient(spec)
    for _ in range(points):
        point = random_point(spec.n, rng)
        f_at = skew_function_from_spec_at(spec, point)
        yield point, [("definition", pf_definition(f_at)), ("exterior", pf_exterior(f_at)),
                      ("closed form", coefficient * vandermonde_at(point))]


def cmd_verify(args) -> int:
    n, k, seed = args.n, args.k, args.seed
    if args.trials < 1 or args.points < 1:
        raise ValueError("--trials and --points must be positive")
    mode = args.mode if args.mode != "auto" else "symbolic" if n <= MAX_SYMBOLIC_N else "points"
    composition_tilings(n, k)  # validates (n, k) before the guards and the trial loop
    # per trial, twice: the route chains, n! closed-form terms and C(n, k) block values of
    # k!|Gamma| terms; or per point P(n, k) partitions of n/k products and the fold's entries
    if mode == "symbolic":
        _guard(args, f"n={n}", lambda: n > MAX_SYMBOLIC_N and (
            f"refusing symbolic mode at n={n}: results can reach {n}! = "
            f"{_size(lambda: factorial(n), _log10_factorial(n))} terms; "
            f"use --mode points or pass --force")
            or log10(2 * args.trials) + _log10_sum(
                _log10_chain(n, k), _log10_factorial(n),
                _log10_comb(n, k) + _log10_factorial(k) + _log10_gamma(n, k)))
    else:
        check_point_order(n)  # an order no point can hold is refused before it is sized
        _guard(args, f"n={n}", lambda: log10(args.trials * args.points) + _log10_sum(
            _log10_partitions(n, k) + log10(n // k), _log10_laplace(n, k)))
    for trial in range(args.trials):
        rng = Lcg(seed + trial)
        spec = random_skew_spec(n, k, rng)
        for index, (point, sides) in enumerate(_verify_checks(spec, mode, args.points, rng)):
            if any(value != sides[0][1] for _, value in sides[1:]):
                at = "" if point is None else f" point {index + 1}"
                print(f"MISMATCH trial {trial + 1}{at} (n={n}, k={k}, seed={seed + trial})")
                print(f"spec: {dump_spec(spec)}")
                if point is not None:
                    print(f"point: {list(point)}")
                for name, value in sides:
                    print(f"{name}: {value}")
                return 1
        checked = "symbolic" if mode == "symbolic" else f"{args.points} points"
        print(f"trial {trial + 1}: ok ({checked})")
    print(f"verified: {args.trials}/{args.trials} trials, definition = exterior = closed form")
    return 0


def cmd_coeffs(args) -> int:
    n, k = args.n, args.k
    tilings = composition_tilings(n, k)  # validates (n, k) before the guard

    def steps():
        # the first frame's head draws, n/k blocks for each of at most min(P(n, k),
        # C(|Gamma|, n/k)) tilings (P alone past a float), and the k = 2 walk's slicing
        gamma, blocks = _log10_gamma(n, k), n // k
        tilings = min(_log10_partitions(n, k),
                      _log10_comb(10 ** gamma, blocks) if gamma < 300 else inf)
        return _log10_sum(_log10_comb(n - 2, k - 2), tilings + log10(blocks), 2 * log10(n))

    _guard(args, f"n={n}", steps)
    signs = []
    for tiling in tilings:
        signs.append(tiling_sign(tiling))
        print(("+" if signs[-1] > 0 else "-") + " " + tiling_label(tiling))
    total, positive = len(signs), signs.count(1)
    print(f"{total} term{'' if total == 1 else 's'} ({positive} positive, "
          f"{total - positive} negative)")
    return 0


def cmd_torelli(args) -> int:
    n = args.n
    check_even(n, "n", "order")
    _guard(args, f"n={n}", lambda: n > MAX_SYMBOLIC_N and (
        f"refusing n={n}: brute force sums over "  # P(n, 2) = (n-1)!!
        f"{_size(lambda: prod(range(1, n, 2)), _log10_partitions(n, 2))} matchings "
        f"of degree-{n - 1} polynomials; pass --force to override"))
    constant = torelli_constant(n)
    spec = torelli_spec(n)
    brute = pf_definition(skew_function_from_spec(spec))
    expected = constant * vandermonde(n)
    if brute != expected or theorem_coefficient(spec) != constant:
        print(f"MISMATCH at n={n}\nconstant: {constant}\n"
              f"tiling coefficient: {theorem_coefficient(spec)}\nbrute force: {brute}")
        return 1
    print(f"constant = {constant}, verified")
    return 0


def cmd_involution(args) -> int:
    from .involution import check_involution

    n, k = args.n, args.k
    composition_tilings(n, k)  # validates (n, k)
    # |W| = n!/(n/k)! |Gamma|^(n/k) elements, each walked with lookups over n weights
    _guard(args, f"n={n}, k={k}", lambda: _log10_factorial(n) - _log10_factorial(n // k)
           + n // k * _log10_gamma(n, k) + 2 * log10(n))
    # deterministic distinct coefficients: i+1 for the i-th admissible tuple
    coeffs = {r: index + 1 for index, r in enumerate(increasing_compositions(n, k))}
    check = check_involution(SkewSpec(n, k, coeffs))
    if check.failure is not None:
        print(f"MISMATCH: {check.failure}")
        return 1
    print(f"|W| = {check.elements} (n={n}, k={k}): {check.repeated} repeated, "
          f"{check.distinct} distinct = {factorial(n)} * {check.tilings}")
    print(f"W^r sum = 0, phi^2 = id on {check.repeated} elements, "
          f"sign factorization ok on {check.distinct} elements, verified")
    return 0


def cmd_compose(args) -> int:
    k, n, p = args.k, args.n, args.p
    if args.trials < 1:
        raise ValueError("--trials must be positive")
    check_orders(k, n, p)
    # per trial, the outer sum, the C(p, n) inner hyperpfaffians and the original's sum
    _guard(args, f"p={p}", lambda: log10(args.trials) + _log10_sum(
        _log10_partitions(p, n) + log10(p // n),
        _log10_comb(p, n) + _log10_partitions(n, k) + log10(n // k),
        _log10_partitions(p, k) + log10(p // k)))
    for trial in range(args.trials):
        rng = Lcg(args.seed + trial)
        f = random_skew_function(p, k, rng)
        check = verify_composition(f, k, n, p)
        constant = check.constant
        if not check.ok:
            print(f"MISMATCH trial {trial + 1} (seed={args.seed + trial})\nconstant: "
                  f"{check.constant}\ncomposed: {check.pf_composed}\noriginal: {check.pf_original}")
            return 1
    print(f"constant = {constant}, verified")
    return 0


# -- argument parsing -------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperpfaffian",
        description="Exact hyperpfaffians of skew-symmetric k-ary polynomials.",
    )
    parser.add_argument("--force", action="store_true",
                        help="override the built-in size guards")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, *orders: str, **kwargs) -> argparse.ArgumentParser:
        """A subcommand taking --force and then each of ``orders`` as a
        required integer option."""
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--force", action="store_true", default=argparse.SUPPRESS,
                       help="override the built-in size guards")
        for order in orders:
            p.add_argument(f"--{order}", required=True, type=int)
        return p

    p = add("compute", help="evaluate a spec file by one algorithm")
    p.add_argument("--input", required=True, help="path to a JSON spec file")
    p.add_argument("--method", required=True, choices=["definition", "exterior", "theorem"])

    p = add("verify", "n", "k", help="check that the three algorithms agree on random specs")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--mode", choices=["auto", "symbolic", "points"], default="auto",
                   help="symbolic compares polynomials; points compares exact values "
                        "at random integer points (default: symbolic up to n=8)")
    p.add_argument("--points", type=int, default=5, help="points per trial in points mode")

    add("coeffs", "n", "k", help="list the closed form's signed coefficient products")
    add("torelli", "n", help="binomial-power Pfaffian constant against brute force")
    add("involution", "n", "k", help="pairing/cancellation suite on weighted oriented partitions")
    p = add("compose", "k", "n", "p", help="composition identity on random skew functions")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=1)

    return parser


_COMMANDS = {"compute": cmd_compute, "verify": cmd_verify, "coeffs": cmd_coeffs,
             "torelli": cmd_torelli, "involution": cmd_involution, "compose": cmd_compose}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, MemoryError) as exc:  # an order Python cannot index, or no memory left
        print(f"error: too large to run: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
