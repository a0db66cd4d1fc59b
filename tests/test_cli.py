import ast
import hashlib
import json
import os
import subprocess
import sys
import time
from math import factorial, floor, log10
from pathlib import Path

import pytest

from hyperpfaffian.cli import load_spec_file, main, tiling_label
from hyperpfaffian.hpf import pf_closed_form, torelli_spec
from hyperpfaffian.poly import parse_polynomial, render, vandermonde
from hyperpfaffian.randgen import Lcg

SMALLEST_SPEC = {"n": 2, "k": 2, "terms": [{"r": [0, 1], "a": "1"}]}
TORELLI_4 = {"n": 4, "k": 2, "terms": [{"r": [0, 3], "a": 1}, {"r": [1, 2], "a": "-3"}]}


def write_spec(tmp_path, document, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
            ({"n": 4, "k": -2, "terms": [{"r": [0, 3], "a": "1"}]}, "positive even integer, got -2"),
        ],
    )
    def test_malformed_documents(self, tmp_path, capsys, document, needle):
        path = write_spec(tmp_path, document)
        code, _, err = run(capsys, "compute", "--input", path, "--method", "definition")
        assert code == 2
        assert needle in err

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
        below = Lcg.below

        def no_coordinate_draw(rng, bound):  # coefficients draw below 18, a first coordinate 201
            if bound == 201:
                raise AssertionError("a coordinate was drawn for an impossible point")
            return below(rng, bound)

        monkeypatch.setattr(Lcg, "below", no_coordinate_draw)
        code, out, err = run(
            capsys, "verify", "--n", "202", "--k", "2", "--mode", "points", "--force"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "at most 201 distinct coordinates" in err


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
def fixed_point_pairing(wop):
    return wop


def sign_flipping_decomposition(decompose):
    def swap_first_two(wop):
        perm, tiling = decompose(wop)
        return (perm[1], perm[0]) + perm[2:], tiling
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
        ("pairing_involution", lambda pairing: fixed_point_pairing,
         f"MISMATCH: pairing involution misbehaves on {FIRST_REPEATED}"),
        ("decompose_distinct", sign_flipping_decomposition,
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
        code, _, err = run(capsys, "involution", "--n", "8", "--k", "2")
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
        assert "|W| = 4536000" in err
        assert "--force" in err

    @pytest.mark.parametrize("argv,message", [
        (("involution", "--n", "80", "--k", "8"), "refusing n=80, k=8: |W| = 1582644362015575891"),
        (("coeffs", "--n", "100", "--k", "10"),
         "refusing n=100: up to C(975062016054,10) combinations of the 975062016054 admissible"),
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
        code, _, err = run(capsys, "compose", "--k", "2", "--n", "2", "--p", "10")
        assert code == 2
        assert "--force" in err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_must_be_positive(self, capsys, trials):
        code, out, err = run(capsys, "compose", "--k", "2", "--n", "2", "--p", "4",
                             "--trials", trials)
        assert (code, out, err) == (2, "", "error: --trials must be positive\n")


class TestRefusalsAtEverySize:
    """A refusal names the size it refuses, exactly while the size fits the
    int-to-str digit limit and as an order of magnitude (or a lower bound)
    beyond it, and answers at once."""

    @pytest.mark.parametrize("argv,message", [
        (("involution", "--n", "3000", "--k", "2"),
         "refusing n=3000, k=2: |W| = about 10^9780 weighted oriented partitions"),
        (("involution", "--n", "2000", "--k", "1000"),
         "refusing n=2000, k=1000: |W| = at least 10^6858 weighted oriented partitions"),
        (("verify", "--n", "2000", "--k", "2", "--mode", "symbolic"),
         "refusing symbolic mode at n=2000: results can reach 2000! = about 10^5735 terms"),
        (("verify", "--n", "3000", "--k", "2"),
         "refusing n=3000: each point sums over about 10^4564 partitions"),
        (("verify", "--n", "1000000", "--k", "2"),
         "refusing n=1000000: each point sums over about 10^2782852 partitions"),
        (("torelli", "--n", "3000"),
         "refusing n=3000: brute force sums over about 10^4564 matchings"),
        (("compose", "--k", "2", "--n", "4", "--p", "4000"),
         "refusing p=4000: the outer sum runs over about 10^8725 partitions"),
        (("coeffs", "--n", "2000", "--k", "1000"),
         "refusing n=2000: up to C(N,2) combinations of the N admissible weight vectors "
         "to sift, with N at least 10^561"),
    ], ids=["involution", "involution-gamma-bound", "verify-symbolic", "verify-points",
            "verify-million", "torelli", "compose", "coeffs-gamma-bound"])
    def test_refuses_at_once(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")

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

        monkeypatch.setattr(cli, "MAX_INVOLUTION_ELEMENTS", 0)  # never count
        count, log10_bound = cli._weight_vector_count(n, k)
        assert count is None
        assert log10_bound <= log10(increasing_composition_count(n, k)) + 1e-9

    HUGE = "1" + "0" * 400  # an order whose sizes have a log10 beyond a float

    @pytest.mark.parametrize("argv,order", [
        (("verify", "--n", HUGE, "--k", "2"), f"n={HUGE}"),
        (("verify", "--n", HUGE, "--k", "2", "--mode", "symbolic"), f"n={HUGE}"),
        (("involution", "--n", HUGE, "--k", "2"), f"n={HUGE}, k=2"),
        (("involution", "--n", HUGE, "--k", HUGE), f"n={HUGE}, k={HUGE}"),
        (("coeffs", "--n", HUGE, "--k", "2"), f"n={HUGE}"),
        (("torelli", "--n", HUGE), f"n={HUGE}"),
        (("compose", "--k", "2", "--n", "2", "--p", HUGE), f"p={HUGE}"),
    ], ids=["verify", "verify-symbolic", "involution", "involution-k-equals-n", "coeffs",
            "torelli", "compose"])
    def test_orders_beyond_a_float_refuse_at_once(self, capsys, argv, order):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (2, "", f"error: refusing {order}: too large to size\n")

    def test_compute_order_beyond_a_float_refuses_at_once(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(f'{{"n": {self.HUGE}, "k": 2, "terms": []}}', encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run(capsys, "compute", "--input", str(path), "--method", "theorem")
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (2, "", f"error: refusing n={self.HUGE}: too large to size\n")

    def test_validation_allocates_nothing_of_size_n(self, capsys):
        import tracemalloc

        tracemalloc.start()
        try:
            code, _, err = run(capsys, "verify", "--n", str(10**7), "--k", "2")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and err.startswith("error: refusing n=10000000:")
        assert peak < 10 * 2**20

    @pytest.mark.parametrize("argv,error", [
        (("verify", "--n", "20", "--k", "0"),
         "error: block size k must be a positive even integer, got k=0\n"),
        (("verify", "--n", "15", "--k", "2", "--mode", "points"),
         "error: n must be a positive multiple of k, got n=15, k=2\n"),
        (("compose", "--k", "2", "--n", "-2", "--p", "10"),
         "error: n must be a positive even integer, got -2\n"),
        (("verify", "--n", "0", "--k", "2"), "error: n must be a positive integer, got n=0\n"),
        (("coeffs", "--n", "-2", "--k", "2"), "error: n must be a positive integer, got n=-2\n"),
        (("torelli", "--n", "9"), "error: order must be a positive even integer, got 9\n"),
    ], ids=["verify-k-zero", "verify-indivisible", "compose-negative", "verify-zero",
            "coeffs-negative", "torelli-odd"])
    def test_invalid_orders_are_named_before_the_guard(self, capsys, argv, error):
        assert run(capsys, *argv) == (2, "", error)


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
