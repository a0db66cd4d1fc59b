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
import json
import sys
from fractions import Fraction
from math import comb, factorial, floor, lgamma, log, log10, prod

from .combinat import (
    composition_tilings,
    increasing_composition_count,
    increasing_compositions,
    tiling_sign,
)
from .compose import check_orders, verify_composition
from .hpf import (
    SkewSpec,
    check_torelli_order,
    pf_closed_form,
    pf_definition,
    pf_exterior,
    skew_function_from_spec,
    skew_function_from_spec_at,
    theorem_coefficient,
    torelli_constant,
    torelli_spec,
)
from .involution import check_involution
from .poly import is_integer, vandermonde, vandermonde_at
from .randgen import Lcg, random_point, random_skew_function, random_skew_spec

MAX_SYMBOLIC_N = 8
MAX_POINTS_N = 12
MAX_COEFFS_N = 16
MAX_COMPOSE_P = 8
MAX_INVOLUTION_ELEMENTS = 100_000


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
            raise ValueError(f"{where}: cannot parse rational {raw!r}: {exc}") from None
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
    terms = [{"r": list(r), "a": str(a)} for r, a in spec.coeffs.items()]
    return json.dumps({"n": spec.n, "k": spec.k, "degree": spec.degree, "terms": terms})


# -- shared helpers ---------------------------------------------------------


def _guard(args, order: str, refusal) -> None:
    """Unless --force is given, raise the refusal that ``refusal()`` words
    (``main`` prints it and exits 2); ``refusal()`` returns a false value
    where the run is within its limit.  Where working the refusal out
    overflows a float or a factorial, ``order`` is refused as too large to
    size."""
    if args.force:
        return
    try:
        message = refusal()
    except OverflowError:
        raise ValueError(f"refusing {order}: too large to size") from None
    if message:
        raise ValueError(message)


def tiling_label(compositions) -> str:
    """Render a tiling as coefficient labels: ``a_{0,3} a_{1,2}``."""
    return " ".join("a_{" + ",".join(map(str, comp)) + "}" for comp in compositions)


def _size(exact, log10_size: float) -> str:
    """A size in a refusal: ``exact()`` when its digits fit the interpreter's
    int-to-str limit (a size that small is also cheap to compute), else its
    order of magnitude; ``exact`` None means ``log10_size`` only bounds the
    size from below."""
    if exact is None:
        return f"at least 10^{floor(log10_size)}"
    # Python's default limit where the limit is off (0) or absent (before 3.10.7)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    if log10_size < limit - 1:
        return str(exact())
    return f"about 10^{floor(log10_size)}"


def _log10_factorial(n: int) -> float:
    return lgamma(n + 1) / log(10)


def _partition_count(n: int, k: int) -> str:
    """n!/(b! k!^b) for b = n/k (k divides n), as :func:`_size` text.
    Exactly, it is the product of C(jk-1, k-1) over j <= b: the choices of
    each block beside its least element."""
    blocks = n // k
    return _size(lambda: prod(comb(j * k - 1, k - 1) for j in range(1, blocks + 1)),
                 _log10_factorial(n) - _log10_factorial(blocks) - blocks * _log10_factorial(k))


def _weight_vector_count(n: int, k: int) -> tuple[int | None, float]:
    """|Gamma(n, k)|, or None where counting the partitions of m = k(n-k)/2
    into at most k parts takes over MAX_INVOLUTION_ELEMENTS steps; and the
    log10 of |Gamma|, or of its lower bound C(m+k-1, k-1)/k! (each such
    partition orders into at most k! compositions of m into k parts)."""
    m = k * (n - k) // 2
    if min(k, m) * m <= MAX_INVOLUTION_ELEMENTS:
        count = increasing_composition_count(n, k)
        return count, log10(count)
    return None, (lgamma(m + k) - lgamma(k) - lgamma(m + 1)) / log(10) - _log10_factorial(k)


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
        yield None, [
            ("definition", pf_definition(f)),
            ("exterior", pf_exterior(f)),
            ("closed form", pf_closed_form(spec)),
        ]
        return
    coefficient = theorem_coefficient(spec)
    for _ in range(points):
        point = random_point(spec.n, rng)
        f_at = skew_function_from_spec_at(spec, point)
        yield point, [
            ("definition", pf_definition(f_at)),
            ("exterior", pf_exterior(f_at)),
            ("closed form", coefficient * vandermonde_at(point)),
        ]


def cmd_verify(args) -> int:
    n, k, seed = args.n, args.k, args.seed
    if args.trials < 1 or args.points < 1:
        raise ValueError("--trials and --points must be positive")
    mode = args.mode
    if mode == "auto":
        mode = "symbolic" if n <= MAX_SYMBOLIC_N else "points"
    composition_tilings(n, k)  # validates (n, k) before the guards and the trial loop
    if mode == "symbolic":
        _guard(args, f"n={n}", lambda: n > MAX_SYMBOLIC_N and (
            f"refusing symbolic mode at n={n}: results can reach {n}! = "
            f"{_size(lambda: factorial(n), _log10_factorial(n))} terms; "
            f"use --mode points or pass --force"))
    else:
        _guard(args, f"n={n}", lambda: n > MAX_POINTS_N and (
            f"refusing n={n}: each point sums over {_partition_count(n, k)} partitions; "
            f"pass --force to override"))
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

    def refusal():
        if n > MAX_COEFFS_N:
            count, log10_count = _weight_vector_count(n, k)
            shown, bound = (count, "") if count is not None else (
                "N", f", with N {_size(None, log10_count)}")
            return (f"refusing n={n}: up to C({shown},{n // k}) combinations of the "
                    f"{shown} admissible weight vectors to sift{bound}; pass --force to override")

    _guard(args, f"n={n}", refusal)
    positive = negative = 0
    for tiling in tilings:
        sign = tiling_sign(tiling)
        if sign > 0:
            positive += 1
        else:
            negative += 1
        print(("+" if sign > 0 else "-") + " " + tiling_label(tiling))
    total = positive + negative
    noun = "term" if total == 1 else "terms"
    print(f"{total} {noun} ({positive} positive, {negative} negative)")
    return 0


def cmd_torelli(args) -> int:
    n = args.n
    check_torelli_order(n)
    _guard(args, f"n={n}", lambda: n > MAX_SYMBOLIC_N and (
        f"refusing n={n}: brute force sums over {_partition_count(n, 2)} matchings "
        f"of degree-{n - 1} polynomials; pass --force to override"))
    constant = torelli_constant(n)
    spec = torelli_spec(n)
    brute = pf_definition(skew_function_from_spec(spec))
    expected = constant * vandermonde(n)
    if brute != expected or theorem_coefficient(spec) != constant:
        print(f"MISMATCH at n={n}")
        print(f"constant: {constant}")
        print(f"tiling coefficient: {theorem_coefficient(spec)}")
        print(f"brute force: {brute}")
        return 1
    print(f"constant = {constant}, verified")
    return 0


def cmd_involution(args) -> int:
    n, k = args.n, args.k
    composition_tilings(n, k)  # validates (n, k)
    # |W| = n!/(n/k)! |Gamma|^(n/k).  When |Gamma| is too costly to count,
    # m^2 >= k*m > MAX_INVOLUTION_ELEMENTS for m = k(n-k)/2 <= n^2/8, so n > 50
    # and |W| >= n!/(n/2)! is far above the budget.
    def refusal():
        count, log10_count = _weight_vector_count(n, k)
        blocks = n // k
        log10_elements = _log10_factorial(n) - _log10_factorial(blocks) + blocks * log10_count
        elements = None if count is None else (
            lambda: factorial(n) // factorial(blocks) * count ** blocks)
        if (elements is None or log10_elements > log10(MAX_INVOLUTION_ELEMENTS) + 1
                or elements() > MAX_INVOLUTION_ELEMENTS):
            return (f"refusing n={n}, k={k}: |W| = {_size(elements, log10_elements)} weighted "
                    f"oriented partitions; pass --force to override")

    _guard(args, f"n={n}, k={k}", refusal)
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
    _guard(args, f"p={p}", lambda: p > MAX_COMPOSE_P and (
        f"refusing p={p}: the outer sum runs over {_partition_count(p, n)} partitions "
        f"with C({p},{n}) inner hyperpfaffians; pass --force to override"))
    for trial in range(args.trials):
        rng = Lcg(args.seed + trial)
        f = random_skew_function(p, k, rng)
        check = verify_composition(f, k, n, p)
        constant = check.constant
        if not check.ok:
            print(f"MISMATCH trial {trial + 1} (seed={args.seed + trial})")
            print(f"constant: {check.constant}")
            print(f"composed: {check.pf_composed}")
            print(f"original: {check.pf_original}")
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


_COMMANDS = {
    "compute": cmd_compute,
    "verify": cmd_verify,
    "coeffs": cmd_coeffs,
    "torelli": cmd_torelli,
    "involution": cmd_involution,
    "compose": cmd_compose,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
