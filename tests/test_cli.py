import ast
import hashlib
import json
import os
import subprocess
import sys
import time
from math import comb, factorial, floor, inf, log10, nextafter
from pathlib import Path

import pytest

from hyperpfaffian.cli import load_spec_file, main, tiling_label
from hyperpfaffian.hpf import pf_closed_form, torelli_spec
from hyperpfaffian.poly import parse_polynomial, render, vandermonde
from hyperpfaffian.randgen import Lcg, random_skew_function

SMALLEST_SPEC = {"n": 2, "k": 2, "terms": [{"r": [0, 1], "a": "1"}]}
POINT_LIMIT = "a point has at most 201 distinct coordinates in [-100, 100], got n="
TORELLI_4 = {"n": 4, "k": 2, "terms": [{"r": [0, 3], "a": 1}, {"r": [1, 2], "a": "-3"}]}


def write_spec(tmp_path, document, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def estimate(capsys, monkeypatch, *argv):
    """The log10 of the steps the guard of ``argv`` estimates, without the run."""
    import hyperpfaffian.cli as cli

    found = []

    def capture(args, order, refusal):
        found.append(refusal())
        raise ValueError("estimated")

    monkeypatch.setattr(cli, "_guard", capture)
    assert run(capsys, *argv) == (2, "", "error: estimated\n")
    return found[0]


class TestCompute:
    @pytest.mark.parametrize("method", ["definition", "exterior", "theorem"])
    def test_smallest_spec(self, tmp_path, capsys, method):
        path = write_spec(tmp_path, SMALLEST_SPEC)
        code, out, _ = run(capsys, "compute", "--input", path, "--method", method)
        assert code == 0
        assert out == "x2 - x1\n"

    def test_methods_agree_on_binomial_spec(self, tmp_path, capsys):
        path = write_spec(tmp_path, TORELLI_4)
        outputs = set()
        for method in ("definition", "exterior", "theorem"):
            code, out, _ = run(capsys, "compute", "--input", path, "--method", method)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1
        assert outputs.pop().strip() == render(-3 * vandermonde(4))

    def test_output_reparses_to_the_inprocess_result(self, tmp_path, capsys):
        path = write_spec(tmp_path, TORELLI_4)
        code, out, _ = run(capsys, "compute", "--input", path, "--method", "theorem")
        assert code == 0
        assert parse_polynomial(out.strip()) == pf_closed_form(torelli_spec(4))

    def test_theorem_rejects_deficient_degree(self, tmp_path, capsys):
        document = {"n": 4, "k": 2, "degree": 1, "terms": [{"r": [0, 1], "a": "2"}]}
        path = write_spec(tmp_path, document)
        code, out, err = run(capsys, "compute", "--input", path, "--method", "theorem")
        assert code == 2
        assert "degree" in err
        # the definitional routes still work and give the zero polynomial
        code, out, _ = run(capsys, "compute", "--input", path, "--method", "definition")
        assert code == 0
        assert out == "0\n"

    @pytest.mark.parametrize("method", ["definition", "exterior"])
    def test_an_exponent_past_a_16_bit_field(self, tmp_path, capsys, method):
        document = {"n": 2, "k": 2, "degree": 70000, "terms": [{"r": [3, 69997], "a": "2/3"}]}
        code, out, _ = run(capsys, "compute", "--input", write_spec(tmp_path, document),
                           "--method", method)
        assert code == 0
        assert out == "2/3*x1^3*x2^69997 - 2/3*x1^69997*x2^3\n"

    @pytest.mark.parametrize("method", ["definition", "exterior"])
    def test_products_whose_degree_bound_passes_a_16_bit_field(self, tmp_path, capsys, method):
        # every exponent fits in 16 bits, but a block product reaches 79,998
        document = {"n": 4, "k": 2, "degree": 40000,
                    "terms": [{"r": [1, 39999], "a": 1}, {"r": [7, 39993], "a": -2}]}
        code, out, _ = run(capsys, "compute", "--input", write_spec(tmp_path, document),
                           "--method", method)
        assert code == 0
        assert len(out.encode()) == 719
        assert hashlib.sha256(out.encode()).hexdigest().startswith("c27b2c94771b6d2a")
        assert out.startswith("-2*x1*x2^7*x3^39993*x4^39999 + 2*x1*x2^7*x3^39999*x4^39993 + ")

    def test_size_guard(self, tmp_path, capsys):
        document = {"n": 10, "k": 2, "terms": [{"r": [i, 9 - i], "a": "1"} for i in range(5)]}
        path = write_spec(tmp_path, document)
        code, _, err = run(capsys, "compute", "--input", path, "--method", "theorem")
        assert code == 2
        assert "--force" in err


class TestSpecFileValidation:
    def test_non_increasing_tuple_is_named(self, tmp_path, capsys):
        document = {"n": 4, "k": 2, "terms": [{"r": [2, 1], "a": "1"}]}
        path = write_spec(tmp_path, document)
        code, _, err = run(capsys, "compute", "--input", path, "--method", "definition")
        assert code == 2
        assert "[2, 1]" in err and "strictly increasing" in err

    @pytest.mark.parametrize(
        "document,needle",
        [
            ({"n": 4, "k": 2, "terms": [{"r": [0, 3], "a": "1"}, {"r": [0, 3], "a": "2"}]}, "duplicate"),
            ({"n": 4, "k": 2, "terms": [{"r": [0, 3], "a": "0"}]}, "nonzero"),
            ({"n": 4, "k": 2, "terms": [{"r": [0, 3], "a": 1.5}]}, "exact"),
            ({"n": 4, "k": 2, "terms": [{"r": [0, 2], "a": "1"}]}, "sums to"),
            ({"n": 4, "k": 2, "terms": [{"r": [0, 3], "a": "1", "b": 2}]}, "record"),
            ({"n": 4, "k": 2, "terms": [{"r": [0, 3, 4], "a": "1"}]}, "2 integers"),
            ({"n": 4, "k": 3, "terms": []}, "even"),
            ({"n": 4, "terms": []}, "'k'"),
            ({"n": 4, "k": 2, "terms": [], "extra": 1}, "extra"),
            ({"n": 4, "k": -2, "terms": [{"r": [0, 3], "a": "1"}]}, "positive even integer, got k=-2"),
        ],
    )
    def test_malformed_documents(self, tmp_path, capsys, document, needle):
        path = write_spec(tmp_path, document)
        code, _, err = run(capsys, "compute", "--input", path, "--method", "definition")
        assert code == 2
        assert needle in err

    @pytest.mark.parametrize("document,error", [
        ({"n": 2, "k": 2, "terms": [{"r": [0, 1], "a": True}]},
         "terms[0]: coefficient must be a rational, got True"),
        ({"n": 2, "k": 2, "terms": [{"r": [0, 1], "a": "x"}]},
         "terms[0]: cannot parse rational 'x': Invalid literal for Fraction: 'x'"),
        ({"n": 2, "k": 2, "terms": [{"r": [0, 1], "a": "1/0"}]},
         "terms[0]: cannot parse rational '1/0': zero denominator"),
        ([1, 2], "{path}: spec file must contain a JSON object"),
        ({"n": 2, "k": 2, "terms": {"r": [0, 1], "a": 1}},
         "{path}: field 'terms' must be a list of records"),
    ], ids=["bool", "unparsable", "zero-denominator", "top-level-list", "terms-not-a-list"])
    def test_refusals_name_their_place(self, tmp_path, capsys, document, error):
        path = write_spec(tmp_path, document)
        assert run(capsys, "compute", "--input", path, "--method", "theorem") == (
            2, "", f"error: {error.format(path=path)}\n")

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "compute", "--input", str(path), "--method", "definition")
        assert code == 2
        assert "JSON" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "compute", "--input", "/no/such/file.json", "--method", "definition")
        assert code == 2
        assert "cannot read" in err

    def test_fractional_coefficients_load(self, tmp_path):
        document = {"n": 2, "k": 2, "terms": [{"r": [0, 1], "a": "3/4"}]}
        spec = load_spec_file(write_spec(tmp_path, document))
        from fractions import Fraction

        assert spec.coefficient((0, 1)) == Fraction(3, 4)
        document["terms"][0]["a"] = "4/2"  # a whole rational loads as an int
        assert type(load_spec_file(write_spec(tmp_path, document)).coefficient((0, 1))) is int


class TestVerify:
    def test_symbolic_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "4", "--k", "2", "--trials", "3", "--seed", "1")
        assert code == 0
        assert out.count("ok (symbolic)") == 3
        assert "verified: 3/3 trials" in out

    def test_points_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "12", "--k", "4",
            "--trials", "1", "--points", "1", "--seed", "2",
        )
        assert code == 0
        assert "ok (1 points)" in out

    def test_points_at_twelve_six(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "12", "--k", "6",
            "--mode", "points", "--trials", "1", "--points", "1",
        )
        assert code == 0
        assert out == (
            "trial 1: ok (1 points)\n"
            "verified: 1/1 trials, definition = exterior = closed form\n"
        )

    def test_deterministic_output(self, capsys):
        argv = ["verify", "--n", "4", "--k", "2", "--trials", "2", "--seed", "9"]
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second

    def test_invalid_arity(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "3", "--k", "2")
        assert code == 2
        assert "multiple" in err

    def test_symbolic_guard(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "10", "--k", "2", "--mode", "symbolic")
        assert code == 2
        assert "--force" in err

    def test_points_guard(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "14", "--k", "2", "--mode", "points")
        assert code == 2
        assert "--force" in err

    def test_points_beyond_201_coordinates_refused(self, capsys, monkeypatch):
        # explicit or auto, forced or not: refused before any guard, spec or point
        import hyperpfaffian.cli as cli

        def unreachable(*args):
            raise AssertionError("an impossible points order was sized or drawn")

        for name in ("_guard", "random_skew_spec", "random_point"):
            monkeypatch.setattr(cli, name, unreachable)
        for mode in ("points", "auto"):
            for force in ((), ("--force",)):
                argv = ("verify", "--n", "202", "--k", "2", "--mode", mode, *force)
                assert run(capsys, *argv) == (2, "", f"error: {POINT_LIMIT}202\n")


class TestCoeffs:
    def test_unique_matching_tiling(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--n", "4", "--k", "2")
        assert code == 0
        assert out == "+ a_{0,3} a_{1,2}\n1 term (1 positive, 0 negative)\n"

    def test_smallest(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--n", "2", "--k", "2")
        assert code == 0
        assert out.splitlines()[0] == "+ a_{0,1}"

    def test_twelve_four_counts(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--n", "12", "--k", "4")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 33
        assert lines[-1] == "32 terms (26 positive, 6 negative)"

    def test_invalid(self, capsys):
        code, _, err = run(capsys, "coeffs", "--n", "5", "--k", "2")
        assert code == 2

    def test_label_rendering(self):
        assert tiling_label(((0, 3), (1, 2))) == "a_{0,3} a_{1,2}"


class TestTorelli:
    def test_small_orders(self, capsys):
        for n, constant in [(2, 1), (4, -3), (6, -50)]:
            code, out, _ = run(capsys, "torelli", "--n", str(n))
            assert code == 0
            assert out == f"constant = {constant}, verified\n"

    def test_odd_order(self, capsys):
        code, _, err = run(capsys, "torelli", "--n", "5")
        assert code == 2


# The first repeated-weight and the first distinct-weight element of W(4, 2).
FIRST_REPEATED = "WeightedOrientedPartition(blocks=((1, 2), (3, 4)), weights=((0, 3), (0, 3)))"
FIRST_DISTINCT = "WeightedOrientedPartition(blocks=((1, 2), (3, 4)), weights=((0, 3), (1, 2)))"


def patch_involution(monkeypatch, name, wrap):
    """Replace an involution function with ``wrap(original)``."""
    import hyperpfaffian.involution as involution

    monkeypatch.setattr(involution, name, wrap(getattr(involution, name)))


# Misbehaving stand-ins for the suite's steps, one check caught by each.
# The walk calls the tuple-level cores: _pair on element tuples and
# _permutation on weight_of.
def fixed_point_pairing(element):
    return element


def sign_flipping_permutation(permutation):
    def swap_first_two(weight_of):
        perm = permutation(weight_of)
        return (perm[1], perm[0]) + perm[2:]
    return swap_first_two


def reversing_composition(compose):
    return lambda perm, tiling: compose(perm[::-1], tiling)


def doubled_tilings(tilings):
    return lambda n, k: [*tilings(n, k), *tilings(n, k)]


class TestInvolution:
    def test_four_two(self, capsys):
        code, out, _ = run(capsys, "involution", "--n", "4", "--k", "2")
        assert code == 0
        assert out == (
            "|W| = 48 (n=4, k=2): 24 repeated, 24 distinct = 24 * 1\n"
            "W^r sum = 0, phi^2 = id on 24 elements, "
            "sign factorization ok on 24 elements, verified\n"
        )

    def test_four_four(self, capsys):
        code, out, _ = run(capsys, "involution", "--n", "4", "--k", "4")
        assert code == 0
        assert out == (
            "|W| = 24 (n=4, k=4): 0 repeated, 24 distinct = 24 * 1\n"
            "W^r sum = 0, phi^2 = id on 0 elements, "
            "sign factorization ok on 24 elements, verified\n"
        )

    @pytest.mark.parametrize("name,wrap,line", [
        ("_pair", lambda pairing: fixed_point_pairing,
         f"MISMATCH: pairing involution misbehaves on {FIRST_REPEATED}"),
        ("_permutation", sign_flipping_permutation,
         f"MISMATCH: sign factorization fails on {FIRST_DISTINCT}"),
        ("compose_distinct", reversing_composition,
         f"MISMATCH: factorization does not round-trip on {FIRST_DISTINCT}"),
        ("composition_tilings", doubled_tilings,
         "MISMATCH: repeated-weight sum 0, distinct count 24 vs n! * tilings = 48"),
    ], ids=["pairing", "sign", "round-trip", "count"])
    def test_mismatch_exits_one(self, capsys, monkeypatch, name, wrap, line):
        patch_involution(monkeypatch, name, wrap)
        code, out, _ = run(capsys, "involution", "--n", "4", "--k", "2")
        assert code == 1
        assert out == line + "\n"

    def test_guard(self, capsys):
        code, _, err = run(capsys, "involution", "--n", "10", "--k", "2")
        assert code == 2
        assert "--force" in err

    def test_guard_at_arity_four(self, capsys, monkeypatch):
        def no_enumeration(original):  # fail fast instead of walking 4,536,000 elements
            def enumerate_w(n, k):
                raise AssertionError("the guard let the enumeration start")
            return enumerate_w

        patch_involution(monkeypatch, "weighted_oriented_partitions", no_enumeration)
        code, _, err = run(capsys, "involution", "--n", "8", "--k", "4")
        assert code == 2
        assert err == ("error: refusing n=8, k=4: about 10^8.5 steps, past the budget of 10^7.5; "
                       "pass --force to override\n")  # |W| n^2 = 4,536,000 * 64

    @pytest.mark.parametrize("argv,message", [
        (("involution", "--n", "80", "--k", "8"), "refusing n=80, k=8: about 10^207.0 steps"),
        (("coeffs", "--n", "100", "--k", "10"), "refusing n=100: about 10^86.8 steps"),
    ], ids=["involution", "coeffs"])
    def test_refusals_count_without_enumerating(self, capsys, monkeypatch, argv, message):
        import hyperpfaffian.cli as cli
        import hyperpfaffian.combinat as combinat

        def no_enumeration(*args):  # |Gamma| is about 10^12 at (100, 10)
            raise AssertionError("the refusal enumerated the weight vectors")

        monkeypatch.setattr(cli, "increasing_compositions", no_enumeration)
        monkeypatch.setattr(combinat, "increasing_compositions_summing", no_enumeration)
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith(f"error: {message}")
        assert err.endswith("; pass --force to override\n")


class TestCompose:
    def test_pair_to_quadruple(self, capsys):
        code, out, _ = run(
            capsys, "compose", "--k", "2", "--n", "4", "--p", "8", "--trials", "2"
        )
        assert code == 0
        assert out == "constant = 3, verified\n"

    def test_identity_case(self, capsys):
        code, out, _ = run(capsys, "compose", "--k", "2", "--n", "2", "--p", "4")
        assert code == 0
        assert out == "constant = 1, verified\n"

    def test_divisibility(self, capsys):
        code, _, err = run(capsys, "compose", "--k", "2", "--n", "4", "--p", "6")
        assert code == 2

    def test_guard(self, capsys):
        code, _, err = run(capsys, "compose", "--k", "2", "--n", "2", "--p", "16")
        assert code == 2
        assert "--force" in err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_must_be_positive(self, capsys, trials):
        code, out, err = run(capsys, "compose", "--k", "2", "--n", "2", "--p", "4",
                             "--trials", trials)
        assert (code, out, err) == (2, "", "error: --trials must be positive\n")


class TestRefusalsAtEverySize:
    """A refusal names its estimate's power of ten, or the symbolic cap's
    size exactly while it fits the int-to-str digit limit and as an order of
    magnitude beyond it, or, for a points order past n = 201, the point
    limit before any estimate; each answers at once."""

    @pytest.mark.parametrize("argv,message", [
        # |W| = about 10^9780, times n^2
        (("involution", "--n", "3000", "--k", "2"), "refusing n=3000, k=2: about 10^9787.0 steps"),
        (("involution", "--n", "2000", "--k", "1000"),
         "refusing n=2000, k=1000: about 10^6864.8 steps"),
        (("verify", "--n", "2000", "--k", "2", "--mode", "symbolic"),
         "refusing symbolic mode at n=2000: results can reach 2000! = about 10^5735 terms"),
        # points orders no point can hold, in auto mode and explicit
        (("verify", "--n", "3000", "--k", "2"), f"{POINT_LIMIT}3000"),
        (("verify", "--n", "1000000", "--k", "2"), f"{POINT_LIMIT}1000000"),
        (("verify", "--n", "200000", "--k", "200000", "--mode", "points"), f"{POINT_LIMIT}200000"),
        (("verify", "--n", "200000", "--k", "100000", "--mode", "points"), f"{POINT_LIMIT}200000"),
        (("torelli", "--n", "3000"),
         "refusing n=3000: brute force sums over about 10^4564 matchings"),
        (("compose", "--k", "2", "--n", "4", "--p", "4000"), "refusing p=4000: about 10^8729.1 steps"),
        (("coeffs", "--n", "2000", "--k", "1000"), "refusing n=2000: about 10^600.4 steps"),
    ], ids=["involution", "involution-gamma-bound", "verify-symbolic", "verify-points",
            "verify-million", "verify-many-levels", "verify-levels-below-cutoff", "torelli", "compose", "coeffs-gamma-bound"])
    def test_refuses_at_once(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")
        assert ("--force" in err) != message.startswith(POINT_LIMIT)  # --force helps or not

    def test_compute_refuses_at_once(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"n": 3000, "k": 2, "terms": []})
        start = time.perf_counter()
        code, _, err = run(capsys, "compute", "--input", path, "--method", "theorem")
        assert time.perf_counter() - start < 1
        assert code == 2
        assert err == ("error: refusing n=3000: the expanded result can reach "
                       "3000! = about 10^9130 terms; pass --force to override\n")

    def test_orders_of_magnitude_match_the_exact_counts(self):
        # log10 of the exact big integers, which never go through str
        assert floor(log10(factorial(2000))) == 5735
        assert floor(log10(factorial(3000) // (factorial(1500) * 2 ** 1500))) == 4564
        assert floor(log10(factorial(3000) // factorial(1500) * 1500 ** 1500)) == 9780
        assert floor(log10(factorial(4000) // (factorial(1000) * 24 ** 1000))) == 8725

    @pytest.mark.parametrize("n,k", [(8, 4), (12, 4), (20, 4), (30, 6), (24, 8), (40, 20)])
    def test_weight_vector_bound_is_a_lower_bound(self, monkeypatch, n, k):
        import hyperpfaffian.cli as cli
        from hyperpfaffian.combinat import increasing_composition_count

        counted = cli._log10_gamma(n, k)
        monkeypatch.setattr(cli, "COUNT_STEPS", 0)  # never count
        log10_bound = cli._log10_gamma(n, k)
        assert log10_bound <= log10(increasing_composition_count(n, k)) + 1e-9
        assert counted == pytest.approx(log10(increasing_composition_count(n, k)))
        assert log10_bound < counted

    HUGE = "1" + "0" * 400  # an order whose sizes have a log10 beyond a float

    @pytest.mark.parametrize("argv,message", [
        (("verify", "--n", HUGE, "--k", "2"), f"{POINT_LIMIT}{HUGE}"),  # never sized
        (("verify", "--n", HUGE, "--k", "2", "--mode", "symbolic"),
         f"refusing n={HUGE}: too large to size"),
        (("involution", "--n", HUGE, "--k", "2"), f"refusing n={HUGE}, k=2: too large to size"),
        (("involution", "--n", HUGE, "--k", HUGE),
         f"refusing n={HUGE}, k={HUGE}: too large to size"),
        (("coeffs", "--n", HUGE, "--k", "2"), f"refusing n={HUGE}: too large to size"),
        (("torelli", "--n", HUGE), f"refusing n={HUGE}: too large to size"),
        (("compose", "--k", "2", "--n", "2", "--p", HUGE), f"refusing p={HUGE}: too large to size"),
    ], ids=["verify", "verify-symbolic", "involution", "involution-k-equals-n", "coeffs",
            "torelli", "compose"])
    def test_orders_beyond_a_float_refuse_at_once(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_compute_order_beyond_a_float_refuses_at_once(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(f'{{"n": {self.HUGE}, "k": 2, "terms": []}}', encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run(capsys, "compute", "--input", str(path), "--method", "theorem")
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (2, "", f"error: refusing n={self.HUGE}: too large to size\n")

    def test_validation_allocates_nothing_of_size_n(self, capsys):
        import tracemalloc

        for mode, error in [("points", f"error: {POINT_LIMIT}10000000\n"),
                            ("symbolic", "error: refusing symbolic mode at n=10000000:")]:
            tracemalloc.start()
            try:
                code, _, err = run(capsys, "verify", "--n", str(10**7), "--k", "2", "--mode", mode)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 2 and err.startswith(error)
            assert peak < 10 * 2**20

    @pytest.mark.parametrize("argv,error", [
        (("verify", "--n", "20", "--k", "0"),
         "error: block size k must be a positive even integer, got k=0\n"),
        (("verify", "--n", "15", "--k", "2", "--mode", "points"),
         "error: n must be a positive multiple of k, got n=15, k=2\n"),
        (("compose", "--k", "2", "--n", "-2", "--p", "10"),
         "error: n must be a positive integer, got n=-2\n"),
        (("verify", "--n", "0", "--k", "2"), "error: n must be a positive integer, got n=0\n"),
        (("coeffs", "--n", "-2", "--k", "2"), "error: n must be a positive integer, got n=-2\n"),
        (("torelli", "--n", "9"), "error: order n must be a positive even integer, got n=9\n"),
        (("involution", "--n", "6", "--k", "4"),
         "error: n must be a positive multiple of k, got n=6, k=4\n"),
    ], ids=["verify-k-zero", "verify-indivisible", "compose-negative", "verify-zero",
            "coeffs-negative", "torelli-odd", "involution-indivisible"])
    def test_invalid_orders_are_named_before_the_guard(self, capsys, argv, error):
        assert run(capsys, *argv) == (2, "", error)


class TestGuardBoundaries:
    """Each guard runs what its estimate puts within WORK_BUDGET and refuses
    what it puts past, with its full text on one stderr line; the cap on
    symbolic results keeps its own text."""

    @pytest.mark.parametrize("argv,last", [
        (("verify", "--n", "8", "--k", "2", "--mode", "symbolic", "--trials", "1"),
         "verified: 1/1 trials, definition = exterior = closed form"),
        # refused by the n <= 12 limit that the budget replaces
        (("verify", "--n", "14", "--k", "2", "--trials", "1", "--points", "1"),
         "verified: 1/1 trials, definition = exterior = closed form"),
        (("torelli", "--n", "8"), "constant = 5145, verified"),
        (("coeffs", "--n", "18", "--k", "6"), "4331 terms (2633 positive, 1698 negative)"),
        (("compose", "--k", "2", "--n", "2", "--p", "12", "--trials", "1"),
         "constant = 1, verified"),
    ], ids=["verify-symbolic", "verify-points", "torelli", "coeffs", "compose"])
    def test_inside_the_limit_runs(self, capsys, argv, last):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == last

    @pytest.mark.parametrize("argv,message", [
        (("verify", "--n", "10", "--k", "2", "--mode", "symbolic"),
         "refusing symbolic mode at n=10: results can reach 10! = 3628800 terms; "
         "use --mode points or pass --force"),
        # 2 routes * 10 trials * (35 * 360^2 products + 8! terms)
        (("verify", "--n", "8", "--k", "4"),
         "refusing n=8: about 10^8.0 steps, past the budget of 10^7.5; pass --force to override"),
        (("verify", "--n", "12", "--k", "6", "--mode", "points"),
         "refusing n=12: about 10^8.1 steps, past the budget of 10^7.5; pass --force to override"),
        (("torelli", "--n", "10"),
         "refusing n=10: brute force sums over 945 matchings of degree-9 polynomials; "
         "pass --force to override"),
        (("coeffs", "--n", "20", "--k", "4"),
         "refusing n=20: about 10^10.1 steps, past the budget of 10^7.5; pass --force to override"),
        (("compose", "--k", "2", "--n", "2", "--p", "16"),
         "refusing p=16: about 10^8.2 steps, past the budget of 10^7.5; pass --force to override"),
        # m = 50,000 and min(k, m) * m = 100,000: |Gamma| is still counted exactly
        (("involution", "--n", "50002", "--k", "2"),
         "refusing n=50002, k=2: about 10^224110.5 steps, past the budget of 10^7.5; "
         "pass --force to override"),
        # one step past that cutoff |Gamma| is only bounded from below
        (("involution", "--n", "50004", "--k", "2"),
         "refusing n=50004, k=2: about 10^224120.1 steps, past the budget of 10^7.5; "
         "pass --force to override"),
    ], ids=["verify-symbolic", "verify-symbolic-budget", "verify-points", "torelli", "coeffs",
            "compose", "involution-counted", "involution-bounded"])
    def test_past_the_limit_refuses(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ("verify", "--n", "4", "--k", "2", "--mode", "symbolic", "--trials", "2"),
        ("verify", "--n", "4", "--k", "2", "--mode", "points", "--trials", "2", "--points", "3"),
        ("coeffs", "--n", "12", "--k", "4"),
        ("involution", "--n", "4", "--k", "2"),
        ("compose", "--k", "2", "--n", "2", "--p", "4", "--trials", "2"),
    ], ids=["verify-symbolic", "verify-points", "coeffs", "involution", "compose"])
    def test_the_budget_is_the_boundary(self, capsys, monkeypatch, argv):
        import hyperpfaffian.cli as cli

        log10_steps = estimate(capsys, monkeypatch, *argv)
        steps = 10 ** log10_steps
        monkeypatch.undo()
        budget = steps  # a budget whose log10 is the estimate itself runs
        while log10(budget) != log10_steps:
            budget = nextafter(budget, 0 if log10(budget) > log10_steps else inf)
        for within in (budget, steps * 1.001):
            monkeypatch.setattr(cli, "WORK_BUDGET", within)
            code, _, err = run(capsys, *argv)
            assert (code, err) == (0, "")
        monkeypatch.setattr(cli, "WORK_BUDGET", steps * 0.999)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: refusing {'p=4' if argv[0] == 'compose' else 'n='}")
        assert err.endswith(f" steps, past the budget of 10^{log10(steps * 0.999):.1f}; "
                            "pass --force to override\n")

    def test_compute_at_the_symbolic_limit(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"n": 8, "k": 2, "terms": [{"r": [0, 7], "a": 1}]})
        assert run(capsys, "compute", "--input", path, "--method", "theorem") == (0, "0\n", "")
        path = write_spec(tmp_path, {"n": 10, "k": 2, "terms": [{"r": [0, 9], "a": 1}]})
        assert run(capsys, "compute", "--input", path, "--method", "theorem") == (
            2, "", "error: refusing n=10: the expanded result can reach 10! = 3628800 terms; "
                   "pass --force to override\n")

    @pytest.mark.parametrize("limit,shown", [
        (7, "135135"), (6, "about 10^5"), (0, "135135"), (None, "135135")])
    def test_exact_sizes_stop_a_digit_short_of_the_str_limit(self, capsys, monkeypatch,
                                                             limit, shown):
        # log10(135135) = 5.13; no limit (0), or no limit function (None, before
        # Python 3.10.7), falls back to the default of 4300 digits
        if limit is None:
            monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        else:
            monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit)
        code, _, err = run(capsys, "torelli", "--n", "14")
        assert (code, err) == (2, f"error: refusing n=14: brute force sums over {shown} "
                                  "matchings of degree-13 polynomials; pass --force to override\n")

    def test_a_size_at_the_cutoff_is_an_order_of_magnitude(self, monkeypatch):
        import hyperpfaffian.cli as cli

        # a digit of margin for the float log10: 10^5 has 6 digits, and a limit
        # of 6 would print it, but the cutoff is strict
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 6)
        assert cli._size(lambda: 10**5, 5.0) == "about 10^5"
        assert cli._size(lambda: 99999, log10(99999)) == "99999"


class TestWorkEstimates:
    """Each estimate against the work its run does, counted here; the
    outcomes that the budget decides, at least 2x from it; and the |Gamma|
    lower bound used only where the estimate is past the budget without it."""

    # (each symbolic route's products for the Lcg(1) spec, the chain's count)
    FOLDED_PRODUCTS = {(2, 2): (2, 2), (4, 2): (48, 48), (6, 2): (2_700, 3_780),
                       (8, 2): (208_320, 490_560), (4, 4): (24, 24), (8, 4): (4_536_000, 4_536_000)}

    @staticmethod
    def route_products(monkeypatch, route, n, k):
        """The monomial products a route makes on the Lcg(1) spec at (n, k)."""
        import hyperpfaffian.poly as poly
        from hyperpfaffian.hpf import skew_function_from_spec
        from hyperpfaffian.randgen import random_skew_spec

        products = []
        addmul = poly.addmul

        def counted(acc, a, b, sign=1):
            products.append(len(a) * len(b))
            return addmul(acc, a, b, sign)

        f = skew_function_from_spec(random_skew_spec(n, k, Lcg(1)))
        with monkeypatch.context() as patch:
            patch.setattr(poly, "addmul", counted)
            route(f)
        return sum(products)

    @pytest.mark.parametrize("n,k", [(2, 2), (4, 2), (6, 2), (8, 2), (4, 4), (8, 4)])
    def test_symbolic_chain_is_the_products_of_the_definition_route(self, monkeypatch, n, k):
        # block values are in disjoint variables, so no product cancels before
        # the sum: the chain is the count of a fold whose tails never merge,
        # exact up to float rounding, and a bound where some do
        import hyperpfaffian.cli as cli
        from hyperpfaffian.hpf import pf_definition

        folded, chain = self.FOLDED_PRODUCTS[n, k]
        assert self.route_products(monkeypatch, pf_definition, n, k) == folded <= chain
        assert 10 ** cli._log10_chain(n, k) == pytest.approx(chain, rel=1e-9)

    @pytest.mark.parametrize("n,k", [(2, 2), (4, 2), (6, 2), (8, 2), (4, 4), (8, 4)])
    def test_symbolic_chain_bounds_the_products_of_the_exterior_route(self, monkeypatch, n, k):
        # the divided power's levels and the top step make, at these orders, as
        # many products as the definition's folded tails: so the guard's two
        # chains cover both routes
        import hyperpfaffian.cli as cli
        from hyperpfaffian.hpf import pf_exterior

        folded, _ = self.FOLDED_PRODUCTS[n, k]
        products = self.route_products(monkeypatch, pf_exterior, n, k)
        assert products == folded <= round(10 ** cli._log10_chain(n, k))

    @pytest.mark.parametrize("n,k", [(4, 4), (6, 6), (8, 8), (8, 4), (8, 2)])
    def test_symbolic_estimate_bounds_the_alternant_terms(self, capsys, monkeypatch, n, k):
        # the C(n, k) block values of k!|Gamma| terms, one alternant per subset
        # and tuple, which the route chains leave out
        import hyperpfaffian.hpf as hpf
        from hyperpfaffian.randgen import random_skew_spec

        log10_steps = estimate(capsys, monkeypatch, "verify", "--n", str(n), "--k", str(k),
                               "--mode", "symbolic", "--trials", "1")
        monkeypatch.undo()
        built = []
        alternant = hpf.alternant

        def counted(*args):
            built.append(alternant(*args))
            return built[-1]

        monkeypatch.setattr(hpf, "alternant", counted)
        spec = random_skew_spec(n, k, Lcg(1))
        hpf.skew_function_from_spec(spec)
        assert len(built) == comb(n, k) * len(spec.coeffs)
        terms = sum(len(value.terms) for value in built)
        assert terms == len(built) * factorial(k) <= 10 ** log10_steps

    @pytest.mark.parametrize("n,k", [(12, 4), (12, 6), (16, 4)])
    def test_laplace_term_bounds_the_entries_within_half(self, n, k):
        # the one-row count the estimate was calibrated on, when spec evaluation
        # expanded every level but the last by one row: per level m < k, one
        # table per prefix of the distinct m-subsets of the exponent tuples, and
        # per k-subset a dot product over the level k-1 table
        import hyperpfaffian.cli as cli
        from itertools import combinations
        from math import comb

        from hyperpfaffian.combinat import increasing_compositions

        gamma = list(increasing_compositions(n, k))
        sets = [len({part for r in gamma for part in combinations(r, m)}) for m in range(k)]
        entries = sum(comb(n - k + m, m) * sets[m] for m in range(1, k)) + comb(n, k) * sets[-1]
        assert entries <= 10 ** cli._log10_laplace(n, k) <= 1.5 * entries

    # the two-row fold's entries, counted in the next test; at n = k they are
    # 2^k - 2 + k^2 - 2k, k^2 - 3k past the one-row count
    FOLD_ENTRIES = {(12, 4): 80_640, (12, 6): 1_682_954, (16, 4): 514_969, (4, 4): 22,
                    (6, 6): 86, (8, 8): 302, (10, 10): 1_102, (12, 12): 4_214}

    @pytest.mark.parametrize("n,k", [(12, 4), (12, 6), (16, 4), (4, 4), (6, 6), (8, 8),
                                     (10, 10), (12, 12)])
    def test_laplace_term_bounds_the_entries_of_the_two_row_fold(self, n, k):
        # the entries skew_function_from_spec_at fills: per level m <= k-2, one
        # table per prefix of the distinct m-subsets of the exponent tuples; per
        # pair of coordinates that can end a subset, a weight term per tuple and
        # pair of its positions; and per k-subset a dot product over the level
        # k-2 table
        import hyperpfaffian.cli as cli
        from itertools import combinations

        from hyperpfaffian.combinat import increasing_compositions

        gamma = list(increasing_compositions(n, k))
        sets = [len({part for r in gamma for part in combinations(r, m)}) for m in range(k - 1)]
        entries = (sum(comb(n - k + m, m) * sets[m] for m in range(1, k - 1))
                   + comb(n - k + 2, 2) * comb(k, 2) * len(gamma) + comb(n, k) * sets[-1])
        assert entries == self.FOLD_ENTRIES[n, k] <= 10 ** cli._log10_laplace(n, k)

    @staticmethod
    def partitions(n, k):
        return factorial(n) // (factorial(n // k) * factorial(k) ** (n // k))

    def test_each_estimate_is_its_formula(self, capsys, monkeypatch):
        from hyperpfaffian.combinat import increasing_composition_count as gamma

        p = self.partitions
        t = 2 * gamma(4, 2)  # a (4, 2) block value's terms
        points = sum(comb(8 + m, m) * comb(4, m) for m in range(1, 4)) + comb(12, 4) * 4
        cases = {
            ("verify", "--n", "4", "--k", "2", "--trials", "3"):
                2 * 3 * (p(4, 2) * t**2 + 24 + comb(4, 2) * t),
            ("verify", "--n", "12", "--k", "4", "--trials", "2", "--points", "3"):
                2 * 3 * (p(12, 4) * 3 + points * gamma(12, 4)),
            ("involution", "--n", "6", "--k", "2"):
                factorial(6) // factorial(3) * gamma(6, 2) ** 3 * 6**2,
            ("compose", "--k", "2", "--n", "4", "--p", "8", "--trials", "3"):
                3 * (p(8, 4) * 2 + comb(8, 4) * p(4, 2) * 2 + p(8, 2) * 4),
        }
        for n, k in [(18, 2), (12, 6), (16, 4)]:
            tilings = min(p(n, k), comb(gamma(n, k), n // k))
            cases["coeffs", "--n", str(n), "--k", str(k)] = (
                comb(n - 2, k - 2) + tilings * (n // k) + n**2)
        for argv, steps in cases.items():
            assert 10 ** estimate(capsys, monkeypatch, *argv) == pytest.approx(steps, rel=1e-9)
            monkeypatch.undo()

    def test_laplace_levels_ignore_the_count_cutoff(self, monkeypatch):
        # at n = k every prefix count C(m, m) is 1 and |Gamma| is 1, so the
        # prefix tables hold exactly 2^k - 2 minors, each level summed
        # however few steps COUNT_STEPS leaves the count of |Gamma|, and the
        # one dot product is sized at k(k-1)
        import hyperpfaffian.cli as cli

        counted = cli._log10_laplace(40, 40)
        monkeypatch.setattr(cli, "COUNT_STEPS", 38)  # fewer than the 39 levels of k = 40
        assert cli._log10_laplace(40, 40) == counted
        assert 10 ** counted == pytest.approx(2**40 - 2 + 40 * 39, rel=1e-9)

    @staticmethod
    def one_row_fold(n, k):
        """The one-row fold's levels and dot products per |Gamma|, the dot
        product sized at k(k-1) where n = k."""
        levels = sum(comb(n - k + m, m) * comb(k, m) for m in range(1, k))
        return levels + comb(n, k) * (k if n > k else k * (k - 1))

    @pytest.mark.parametrize("n,k", [(12, 4), (40, 40), (300, 100), (2000, 10), (5000, 1000)])
    def test_laplace_levels_are_their_exact_sum(self, n, k):
        # a plain sum at any order, also past the n <= 201 that points mode sizes
        import hyperpfaffian.cli as cli

        assert cli._log10_laplace(n, k) - cli._log10_gamma(n, k) == pytest.approx(
            log10(self.one_row_fold(n, k)), rel=1e-12)

    def test_laplace_term_is_the_exact_level_sum_at_every_points_order(self):
        # every order points mode sizes: even k, k | n, n <= 201
        import hyperpfaffian.cli as cli

        for k in range(2, 202, 2):
            for n in range(k, 202, k):
                assert cli._log10_laplace(n, k) - cli._log10_gamma(n, k) == pytest.approx(
                    log10(self.one_row_fold(n, k)), rel=1e-12), (n, k)

    def test_points_refusal_past_201_never_calls_the_laplace_term(self, capsys, monkeypatch):
        # k - 1 = 99,999 levels that no points run can reach are never summed
        import hyperpfaffian.cli as cli

        def unreachable(n, k):
            raise AssertionError(f"sized the points order n={n}, k={k}")

        monkeypatch.setattr(cli, "_log10_laplace", unreachable)
        for force in ((), ("--force",)):
            start = time.perf_counter()
            argv = ("verify", "--n", "200000", "--k", "100000", "--mode", "points", *force)
            assert run(capsys, *argv) == (2, "", f"error: {POINT_LIMIT}200000\n")
            assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (4, 4), (6, 6)])
    def test_elements_are_the_enumerated_count(self, capsys, monkeypatch, n, k):
        from hyperpfaffian.involution import weighted_oriented_partitions

        elements = sum(1 for _ in weighted_oriented_partitions(n, k))
        steps = estimate(capsys, monkeypatch, "involution", "--n", str(n), "--k", str(k))
        assert round(10 ** steps / n**2) == elements  # |W| n^2

    @pytest.mark.parametrize("argv", [
        ("involution", "--n", "50004", "--k", "2"),
        ("verify", "--n", "150", "--k", "50"),  # points orders stop at n = 201
        ("coeffs", "--n", "50004", "--k", "2"),
        ("involution", "--n", "2000", "--k", "1000"),
        ("verify", "--n", "200", "--k", "100"),
        ("coeffs", "--n", "2000", "--k", "1000"),
    ])
    def test_a_bounded_gamma_is_past_the_budget(self, capsys, monkeypatch, argv):
        import hyperpfaffian.cli as cli

        n, k = int(argv[2]), int(argv[4])
        m = k * (n - k) // 2
        assert min(k, m) * m > cli.COUNT_STEPS  # |Gamma| is bounded, not counted
        assert estimate(capsys, monkeypatch, *argv) > log10(2 * cli.WORK_BUDGET)

    def test_past_the_cutoff_each_estimate_is_past_the_budget_without_gamma(self):
        # the smallest order of each k past the cutoff is the cheapest
        import hyperpfaffian.cli as cli

        for k in range(2, 402, 2):
            n = next(n for n in range(2 * k, 10**6, k)
                     if min(k, k * (n - k) // 2) * (k * (n - k) // 2) > cli.COUNT_STEPS)
            for without_gamma in (
                    cli._log10_partitions(n, k),  # verify at a point
                    cli._log10_factorial(n) - cli._log10_factorial(n // k),  # involution
                    cli._log10_sum(cli._log10_comb(n - 2, k - 2), 2 * log10(n))):  # coeffs
                assert without_gamma > log10(5 * cli.WORK_BUDGET), (n, k)

    RUN = [
        ("verify", "--n", "8", "--k", "2", "--mode", "symbolic", "--trials", "1"),
        ("verify", "--n", "12", "--k", "4", "--mode", "points", "--trials", "1", "--points", "1"),
        ("involution", "--n", "6", "--k", "2"),
        ("verify", "--n", "8", "--k", "2"),
        ("verify", "--n", "12", "--k", "2"),
        ("verify", "--n", "12", "--k", "4"),
        ("verify", "--n", "8", "--k", "4", "--trials", "1"),
        ("verify", "--n", "12", "--k", "6", "--mode", "points", "--trials", "1"),
        ("verify", "--n", "14", "--k", "2", "--trials", "1", "--points", "1"),
        ("compose", "--k", "2", "--n", "2", "--p", "12"),
        ("coeffs", "--n", "18", "--k", "2"),
        ("coeffs", "--n", "18", "--k", "6"),
        ("coeffs", "--n", "16", "--k", "4"),
    ]
    REFUSED = [
        ("verify", "--n", "8", "--k", "4"),
        ("verify", "--n", "12", "--k", "6", "--mode", "points"),
        ("verify", "--n", "4", "--k", "2", "--mode", "points", "--trials", str(10**20),
         "--points", "1"),
        ("verify", "--n", "2", "--k", "2", "--mode", "points", "--trials", "1",
         "--points", str(10**11)),
    ]

    @pytest.mark.parametrize("argv", RUN + REFUSED, ids=" ".join)
    def test_outcomes_sit_at_least_twice_from_the_budget(self, capsys, monkeypatch, argv):
        import hyperpfaffian.cli as cli

        steps = estimate(capsys, monkeypatch, *argv)
        if argv in self.RUN:  # the first three, the benchmark's ops, sit 25x under
            assert steps < log10(cli.WORK_BUDGET / (25 if argv in self.RUN[:3] else 2))
        else:
            assert steps > log10(2 * cli.WORK_BUDGET)

    @pytest.mark.parametrize("argv", [
        ("verify", "--n", "4", "--k", "2", "--mode", "points", "--trials", str(10**20),
         "--points", "1"),
        ("verify", "--n", "2", "--k", "2", "--mode", "points", "--trials", "1",
         "--points", str(10**11)),
        ("verify", "--n", "4", "--k", "2", "--mode", "symbolic", "--trials", "1" + "0" * 400),
        ("compose", "--k", "2", "--n", "2", "--p", "4", "--trials", str(10**20)),
    ], ids=["trials", "points", "trials-symbolic", "compose-trials"])
    def test_trials_and_points_are_refused_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith(f"error: refusing {'p=4' if argv[0] == 'compose' else 'n='}")
        assert err.endswith("; pass --force to override\n")

    @pytest.mark.parametrize("argv", [
        ("coeffs", "--n", "1" + "0" * 400, "--k", "2", "--force"),
        ("compose", "--k", "2", "--n", "2", "--p", "1" + "0" * 400, "--force"),
    ], ids=["coeffs", "compose"])
    def test_forced_orders_past_an_index_are_input_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == ("error: too large to run: "
                       "Python int too large to convert to C ssize_t\n")


class TestDefaultsAndReports:
    """Option defaults, spec-file values the guards never see, and which
    trial, seed and route a MISMATCH report names."""

    def test_default_points_per_trial(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "4", "--k", "2", "--mode", "points",
                           "--trials", "1")
        assert code == 0
        assert out.splitlines()[0] == "trial 1: ok (5 points)"

    def test_default_trials(self, capsys, monkeypatch):
        import hyperpfaffian.cli as cli

        code, out, _ = run(capsys, "verify", "--n", "4", "--k", "2")
        assert (code, out.splitlines()[-1]) == (
            0, "verified: 10/10 trials, definition = exterior = closed form")
        drawn = []

        def counted(p, k, rng):
            drawn.append(rng.state)
            return random_skew_function(p, k, rng)

        monkeypatch.setattr(cli, "random_skew_function", counted)
        assert run(capsys, "compose", "--k", "2", "--n", "2", "--p", "4")[0] == 0
        assert drawn == [1, 2, 3, 4, 5]  # trial t draws from seed + t

    def test_half_coefficients_stay_fractions(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"n": 2, "k": 2, "terms": [{"r": [0, 1], "a": "3/2"}]})
        assert run(capsys, "compute", "--input", path, "--method", "theorem") == (
            0, "3/2*x2 - 3/2*x1\n", "")

    def test_verify_mismatch_on_the_second_trial(self, capsys, monkeypatch):
        import hyperpfaffian.cli as cli

        calls = []

        def second_call_fails(f):
            calls.append(f)
            return cli.pf_definition(f) if len(calls) == 1 else 0

        monkeypatch.setattr(cli, "pf_exterior", second_call_fails)
        code, out, _ = run(capsys, "verify", "--n", "4", "--k", "2", "--trials", "3",
                           "--seed", "7")
        assert code == 1
        assert out.splitlines()[:2] == ["trial 1: ok (symbolic)",
                                        "MISMATCH trial 2 (n=4, k=2, seed=8)"]
        assert out.splitlines()[-2] == "exterior: 0"

    def test_verify_mismatch_of_the_definition_route(self, capsys, monkeypatch):
        # each route is compared with the first, so a wrong first route shows too
        import hyperpfaffian.cli as cli

        monkeypatch.setattr(cli, "pf_definition", lambda f: 0)
        code, out, _ = run(capsys, "verify", "--n", "4", "--k", "2", "--trials", "1")
        assert code == 1
        assert out.splitlines()[:3] == ["MISMATCH trial 1 (n=4, k=2, seed=1)",
                                        f"spec: {MISMATCH_SPEC}", "definition: 0"]

    @pytest.mark.parametrize("argv,passing,first", [
        ((), 0, "MISMATCH trial 1 (seed=1)"),
        (("--trials", "3", "--seed", "7"), 1, "MISMATCH trial 2 (seed=8)"),
    ], ids=["default-seed", "second-trial"])
    def test_compose_mismatch_names_its_trial_and_seed(self, capsys, monkeypatch, argv,
                                                        passing, first):
        import hyperpfaffian.cli as cli
        from hyperpfaffian.compose import CompositionCheck

        ok = CompositionCheck(constant=1, pf_composed=5, pf_original=5)
        checks = iter([ok] * passing + [CompositionCheck(constant=1, pf_composed=1, pf_original=5)])
        monkeypatch.setattr(cli, "verify_composition", lambda f, k, n, p: next(checks))
        code, out, _ = run(capsys, "compose", "--k", "2", "--n", "2", "--p", "4", *argv)
        assert (code, out) == (1, f"{first}\nconstant: 1\ncomposed: 1\noriginal: 5\n")

    def test_spec_file_with_a_negative_exponent(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"n": 2, "k": 2, "terms": [{"r": [-1, 2], "a": 1}]})
        assert run(capsys, "compute", "--input", path, "--method", "theorem") == (
            2, "", "error: exponent tuple [-1, 2] is not a strictly increasing 2-tuple of "
                   "nonnegative integers that sums to 1\n")


class TestTooDeep:
    """A spec file nested past Python's recursion limit ends in one error
    line and exit 2, not a traceback; an order with more blocks than that
    limit is enumerated like any other."""

    def test_spec_file_nested_too_deep_is_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        code, out, err = run(capsys, "compute", "--input", str(path), "--method", "theorem")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: invalid JSON: maximum recursion depth exceeded")
        assert err.count("\n") == 1

    def test_coeffs_past_the_recursion_limit_lists_its_tiling(self, capsys):
        code, out, err = run(capsys, "coeffs", "--n", "2400", "--k", "2", "--force")
        assert (code, err) == (0, "")
        tiling = " ".join(f"a_{{{i},{2399 - i}}}" for i in range(1200))
        assert out == f"+ {tiling}\n1 term (1 positive, 0 negative)\n"

    def test_forced_points_order_past_the_recursion_limit_meets_the_point_limit(self, capsys):
        argv = ("verify", "--n", "1000", "--k", "1000", "--mode", "points", "--force")
        assert run(capsys, *argv) == (
            2, "", "error: a point has at most 201 distinct coordinates in [-100, 100], got n=1000\n")


class TestModuleEntryPoint:
    """``python -m hyperpfaffian.cli`` exits with the code ``main`` returns."""

    @staticmethod
    def run_module(*argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        done = subprocess.run([sys.executable, "-m", "hyperpfaffian.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        return done.returncode, done.stdout, done.stderr

    def test_exit_codes_and_output(self):
        assert self.run_module("coeffs", "--n", "4", "--k", "2") == (
            0, "+ a_{0,3} a_{1,2}\n1 term (1 positive, 0 negative)\n", "")
        code, out, err = self.run_module("verify", "--n", "3", "--k", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_import_leaves_out_dataclasses_and_inspect(self):
        # -S keeps site's .pth imports out of the checked set of modules
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = ("import sys, hyperpfaffian.cli; "
                "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
        done = subprocess.run([sys.executable, "-S", "-c", code],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")

    @pytest.mark.parametrize("argv,loaded", [
        (["verify", "--n", "8", "--k", "4", "--mode", "points", "--trials", "1", "--points", "1"],
         []),
        (["verify", "--n", "4", "--k", "2", "--mode", "symbolic", "--trials", "1"], []),
        (["involution", "--n", "4", "--k", "2"], ["hyperpfaffian.involution"]),
    ], ids=["verify-points", "verify-symbolic", "involution"])
    def test_a_command_loads_only_what_it_runs(self, argv, loaded):
        # -S, as above; a verify run compiles no involution code and no json
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = ("import sys, hyperpfaffian.cli as cli; "
                f"code = cli.main({argv!r}); "
                "print(code, sorted({'hyperpfaffian.involution', 'json'} & set(sys.modules)))")
        done = subprocess.run([sys.executable, "-S", "-c", code],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60)
        *_, verified, modules = done.stdout.splitlines()
        assert (done.returncode, done.stderr, modules) == (0, "", f"0 {loaded}")
        assert "verified" in verified


class TestPackageNames:
    """The package resolves each public name on first access from the
    module that defines it."""

    def test_every_public_name_resolves_to_its_definition(self):
        import hyperpfaffian

        assert len(hyperpfaffian.__all__) == len(set(hyperpfaffian.__all__)) == 48
        for name in hyperpfaffian.__all__:
            value = getattr(hyperpfaffian, name)
            assert value.__module__.startswith("hyperpfaffian."), name
            assert getattr(sys.modules[value.__module__], name) is value
            assert getattr(hyperpfaffian, name) is value

    def test_star_import(self):
        namespace: dict = {}
        exec("from hyperpfaffian import *", namespace)
        import hyperpfaffian

        assert set(namespace) - {"__builtins__"} == set(hyperpfaffian.__all__)
        assert namespace["check_involution"] is hyperpfaffian.involution.check_involution

    def test_an_unknown_name_is_an_attribute_error(self):
        import hyperpfaffian

        with pytest.raises(AttributeError, match="^module 'hyperpfaffian' has no attribute "
                                                 "'no_such_name'$"):
            hyperpfaffian.no_such_name
        with pytest.raises(ImportError, match="no_such_name"):
            exec("from hyperpfaffian import no_such_name", {})
        assert hyperpfaffian.__version__ == "0.1.0"


class TestTraceContract:
    """perfbench/trace_op.py traces a verify op by wrapping, on the cli
    module, each name in its VERIFY_CALLS; in each mode cmd_verify must call
    through the cli module exactly the names perfbench/test_perfbench.py
    pins as that mode's spans."""

    MODE_CALLS = {
        "symbolic": {"composition_tilings", "random_skew_spec", "skew_function_from_spec",
                     "pf_definition", "pf_exterior", "pf_closed_form"},
        "points": {"composition_tilings", "random_skew_spec", "theorem_coefficient",
                   "random_point", "skew_function_from_spec_at", "pf_definition",
                   "pf_exterior", "vandermonde_at"},
    }

    def test_verify_calls_every_traced_name_on_cli(self, capsys, monkeypatch):
        import hyperpfaffian.cli as cli

        path = Path(__file__).resolve().parents[1] / "perfbench" / "trace_op.py"
        if not path.exists():
            pytest.skip("perfbench/trace_op.py is absent")
        names = next(
            ast.literal_eval(node.value) for node in ast.parse(path.read_text("utf-8")).body
            if isinstance(node, ast.Assign)
            and any(getattr(target, "id", None) == "VERIFY_CALLS" for target in node.targets)
        )
        assert set().union(*self.MODE_CALLS.values()) == set(names)
        called = set()

        def traced(name, fn):
            def call(*args):
                called.add(name)
                return fn(*args)
            return call

        for name in names:
            monkeypatch.setattr(cli, name, traced(name, getattr(cli, name)))
        for mode, expected in self.MODE_CALLS.items():
            called.clear()
            code, _, _ = run(capsys, "verify", "--n", "4", "--k", "2", "--trials", "1",
                             "--mode", mode)
            assert code == 0
            assert called == expected, mode


class TestForceFlag:
    """coeffs 18/2 takes about 330 steps, past a budget of 100."""

    @pytest.fixture(autouse=True)
    def small_budget(self, monkeypatch):
        import hyperpfaffian.cli as cli

        monkeypatch.setattr(cli, "WORK_BUDGET", 100)

    def test_refusal_then_force_after_subcommand(self, capsys):
        code, _, err = run(capsys, "coeffs", "--n", "18", "--k", "2")
        assert code == 2
        code, out, _ = run(capsys, "coeffs", "--n", "18", "--k", "2", "--force")
        assert code == 0
        assert out.splitlines()[-1] == "1 term (1 positive, 0 negative)"

    def test_force_before_subcommand(self, capsys):
        code, out, _ = run(capsys, "--force", "coeffs", "--n", "18", "--k", "2")
        assert code == 0
        assert out.splitlines()[-1] == "1 term (1 positive, 0 negative)"


class TestUsageErrors:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_method(self):
        with pytest.raises(SystemExit) as info:
            main(["compute", "--input", "x.json", "--method", "nope"])
        assert info.value.code == 2


# The seed-1 spec at (4, 2) and its hyperpfaffian, -8 times the
# Vandermonde product, as the MISMATCH reports print them.
MISMATCH_SPEC = (
    '{"n": 4, "k": 2, "degree": 3, "terms": [{"r": [0, 3], "a": "8"}, {"r": [1, 2], "a": "-1"}]}'
)
MISMATCH_POLYNOMIAL = (
    "-8*x2*x3^2*x4^3 + 8*x2*x3^3*x4^2 + 8*x2^2*x3*x4^3 - "
    "8*x2^2*x3^3*x4 - 8*x2^3*x3*x4^2 + 8*x2^3*x3^2*x4 + "
    "8*x1*x3^2*x4^3 - 8*x1*x3^3*x4^2 - 8*x1*x2^2*x4^3 + "
    "8*x1*x2^2*x3^3 + 8*x1*x2^3*x4^2 - 8*x1*x2^3*x3^2 - "
    "8*x1^2*x3*x4^3 + 8*x1^2*x3^3*x4 + 8*x1^2*x2*x4^3 - "
    "8*x1^2*x2*x3^3 - 8*x1^2*x2^3*x4 + 8*x1^2*x2^3*x3 + "
    "8*x1^3*x3*x4^2 - 8*x1^3*x3^2*x4 - 8*x1^3*x2*x4^2 + "
    "8*x1^3*x2*x3^2 + 8*x1^3*x2^2*x4 - 8*x1^3*x2^2*x3"
)


class TestCounterexampleExitCode:
    """Exit code 1 marks a violated identity; forced here by sabotaging one
    route, since no honest counterexample exists."""

    def test_verify_reports_mismatch(self, capsys, monkeypatch):
        import hyperpfaffian.cli as cli

        monkeypatch.setattr(cli, "pf_exterior", lambda f: 0)
        code, out, _ = run(capsys, "verify", "--n", "4", "--k", "2", "--trials", "2")
        assert code == 1
        assert "MISMATCH trial 1" in out
        assert '"terms"' in out  # the counterexample spec is dumped
        assert out == (
            "MISMATCH trial 1 (n=4, k=2, seed=1)\n"
            f"spec: {MISMATCH_SPEC}\n"
            f"definition: {MISMATCH_POLYNOMIAL}\n"
            "exterior: 0\n"
            f"closed form: {MISMATCH_POLYNOMIAL}\n"
        )

    def test_verify_reports_point_mismatch(self, capsys, monkeypatch):
        import hyperpfaffian.cli as cli

        monkeypatch.setattr(cli, "vandermonde_at", lambda values: 0)
        code, out, _ = run(
            capsys, "verify", "--n", "4", "--k", "2", "--mode", "points",
            "--trials", "1", "--points", "1",
        )
        assert code == 1
        assert "point" in out
        assert out == (
            "MISMATCH trial 1 point 1 (n=4, k=2, seed=1)\n"
            f"spec: {MISMATCH_SPEC}\n"
            "point: [-18, 96, 30, -37]\n"
            "definition: -489170271744\n"
            "exterior: -489170271744\n"
            "closed form: 0\n"
        )

    def test_torelli_reports_mismatch(self, capsys, monkeypatch):
        import hyperpfaffian.cli as cli

        monkeypatch.setattr(cli, "torelli_constant", lambda n: 7)
        code, out, _ = run(capsys, "torelli", "--n", "4")
        assert code == 1
        assert "MISMATCH" in out

    def test_compose_reports_mismatch(self, capsys, monkeypatch):
        import hyperpfaffian.cli as cli
        from hyperpfaffian.compose import CompositionCheck

        monkeypatch.setattr(
            cli, "verify_composition",
            lambda f, k, n, p: CompositionCheck(constant=3, pf_composed=1, pf_original=5),
        )
        code, out, _ = run(capsys, "compose", "--k", "2", "--n", "4", "--p", "8")
        assert code == 1
        assert "MISMATCH" in out

    def test_internal_error_exits_one_without_traceback(self, capsys, monkeypatch):
        import hyperpfaffian.cli as cli

        message = "inexact division 1/2; this indicates an implementation bug"

        def inexact(f):
            raise ArithmeticError(message)

        monkeypatch.setattr(cli, "pf_exterior", inexact)
        code, out, err = run(capsys, "verify", "--n", "4", "--k", "2", "--trials", "1")
        assert code == 1
        assert out == ""
        assert err == f"error: internal: {message}\n"


class TestPointsModeSmallOrders:
    def test_points_mode_works_below_the_symbolic_cutoff(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "4", "--k", "2",
            "--mode", "points", "--trials", "2", "--points", "3",
        )
        assert code == 0
        assert out.count("ok (3 points)") == 2
