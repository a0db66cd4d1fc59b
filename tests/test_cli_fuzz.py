"""A bounded boundary fuzz of the CLI: generated argv for the six commands,
with orders that are 0, negative, small, large or 401 digits long, with and
without ``--mode`` and never with ``--force``, run in process under a work
budget of 10^5 steps, so that every generated command either finishes fast
or is refused at once.

Every outcome must be exit 0 with nothing on stderr, exit 1 only beside a
MISMATCH report, or exit 2 with exactly one ``error:`` line that is not an
internal error; no exception may escape ``main``, and no command may run
past 5 s (an estimate that misses a run's cost fails here, not hangs).  A
second fuzz gives every subcommand orders that break an admissibility rule
(odd or nonpositive block sizes, nonpositive orders, non-multiples; in a
spec file also bools and floats), which must exit 2 with one ``error:``
line and nothing on stdout.  The examples are derandomized and no example
database is written.  Needs Hypothesis, and is skipped when it is not
installed.
"""

import contextlib
import io
import json
import signal

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import hyperpfaffian.cli as cli  # noqa: E402

fuzzed = settings(max_examples=300, deadline=None, derandomize=True, database=None)

orders = st.one_of(
    st.sampled_from([2, 4, 6, 8, 12]),  # orders that fit together often enough to run
    st.integers(-3, 16),  # 0, negative and small
    st.integers(17, 10**9),  # large
    st.integers(10**400, 10**401 - 1),  # 401 digits
    st.just(-(10**400)),
)
counts = st.one_of(st.integers(1, 3), st.integers(-1, 0),
                   st.sampled_from([10**11, 10**20, 10**400]))
seeds = st.integers(-(10**30), 10**30)


def option(name, values):
    """``[]`` or ``[--name, value]``: the option is left out or drawn."""
    return st.one_of(st.just([]), values.map(lambda value: [f"--{name}", str(value)]))


def orders_of(*names):
    return st.tuples(*(orders for _ in names)).map(
        lambda values: [word for name, value in zip(names, values)
                        for word in (f"--{name}", str(value))])


def joined(*parts):
    return st.tuples(*parts).map(lambda lists: [word for words in lists for word in words])


verify = joined(st.just(["verify"]), orders_of("n", "k"), option("trials", counts),
                option("points", counts), option("seed", seeds),
                option("mode", st.sampled_from(["auto", "symbolic", "points"])))
compose = joined(st.just(["compose"]), orders_of("k", "n", "p"), option("trials", counts),
                 option("seed", seeds))
compute = st.tuples(orders, orders, st.sampled_from(["definition", "exterior", "theorem"]))
commands = st.one_of(
    verify,
    compose,
    joined(st.just(["coeffs"]), orders_of("n", "k")),
    joined(st.just(["torelli"]), orders_of("n")),
    joined(st.just(["involution"]), orders_of("n", "k")),
    compute.map(lambda drawn: ["compute", *drawn]),
)


@pytest.fixture(scope="module", autouse=True)
def small_budget():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "WORK_BUDGET", 10**5)
        yield


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("specs")


def too_slow(signum, frame):
    raise TimeoutError("a generated command ran past 5 s")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


@fuzzed
@given(commands)
# the two unbounded runs that no guard looked at before trials and points were counted
@example(["verify", "--n", "4", "--k", "2", "--mode", "points", "--trials", str(10**20),
          "--points", "1"])
@example(["verify", "--n", "2", "--k", "2", "--mode", "points", "--trials", "1",
          "--points", str(10**11)])
def test_every_generated_command_answers_cleanly(spec_dir, argv):
    if argv[0] == "compute":  # orders go into a spec file with no terms
        n, k, method = argv[1:]
        path = spec_dir / "spec.json"
        path.write_text(json.dumps({"n": n, "k": k, "terms": []}), encoding="utf-8")
        argv = ["compute", "--input", str(path), "--method", method]
    code, out, err = run(argv)
    assert code in (0, 1, 2), argv
    if code == 0:
        assert err == "", argv
    elif code == 1:
        assert "MISMATCH" in out, argv
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert not err.startswith("error: internal"), (argv, err)


def admissible(n, k):
    """combinat's order rule and k | n."""
    return k >= 2 and k % 2 == 0 and n >= 1 and n % k == 0


small = st.integers(-4, 13)
bad_pairs = st.tuples(small, small).filter(lambda nk: not admissible(*nk))
spec_orders = st.one_of(small, st.sampled_from([True, False, 2.0, 4.0]))


def flags(names, values):
    return [word for name, value in zip(names, values) for word in (f"--{name}", str(value))]


bad_commands = st.one_of(
    bad_pairs.map(lambda nk: ["verify", *flags("nk", nk)]),
    st.tuples(bad_pairs, st.sampled_from(["symbolic", "points"])).map(
        lambda drawn: ["verify", *flags("nk", drawn[0]), "--mode", drawn[1]]),
    bad_pairs.map(lambda nk: ["coeffs", *flags("nk", nk)]),
    bad_pairs.map(lambda nk: ["involution", *flags("nk", nk)]),
    small.filter(lambda n: not admissible(n, 2)).map(lambda n: ["torelli", "--n", str(n)]),
    st.tuples(small, small, small).filter(
        lambda knp: not (admissible(knp[1], knp[0]) and admissible(knp[2], knp[1]))).map(
        lambda knp: ["compose", *flags("knp", knp)]),
    # a spec may have any order n >= 1, so only the order rule refuses it
    st.tuples(spec_orders, spec_orders).filter(
        lambda nk: not (type(nk[0]) is int and nk[0] >= 1 and type(nk[1]) is int
                        and nk[1] >= 2 and nk[1] % 2 == 0)).map(lambda nk: ["compute", *nk]),
)


@fuzzed
@given(bad_commands, st.sampled_from(["definition", "exterior", "theorem"]))
def test_every_subcommand_refuses_bad_orders_on_one_line(spec_dir, argv, method):
    if argv[0] == "compute":  # the orders go into a spec file as JSON values
        path = spec_dir / "bad.json"
        path.write_text(json.dumps({"n": argv[1], "k": argv[2], "terms": []}), encoding="utf-8")
        argv = ["compute", "--input", str(path), "--method", method]
    code, out, err = run(argv)
    assert (code, out) == (2, ""), (argv, err)
    assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    assert not err.startswith("error: internal"), (argv, err)
