"""The benchmark's workloads and the closed-form counts its checks use.

Each workload is one CLI command, run as a user runs it.  Seeded commands
take their ``--seed`` from the benchmark's own seed (see ``run.op_seeds``); the
program receives nothing else from the benchmark.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import NamedTuple

VERIFIED = "verified: 1/1 trials, definition = exterior = closed form\n"


class Workload(NamedTuple):
    name: str
    command: tuple[str, ...]  # CLI arguments; the op's seed is appended when seeded
    seeded: bool
    expected: str  # the exact stdout of a correct op


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sym-8-2",
            ("verify", "--n", "8", "--k", "2", "--mode", "symbolic", "--trials", "1"),
            True,
            "trial 1: ok (symbolic)\n" + VERIFIED,
        ),
        Workload(
            "pts-12-4",
            ("verify", "--n", "12", "--k", "4", "--mode", "points", "--trials", "1",
             "--points", "1"),
            True,
            "trial 1: ok (1 points)\n" + VERIFIED,
        ),
        Workload(
            "wop-6-2",
            ("involution", "--n", "6", "--k", "2"),
            False,
            "|W| = 3240 (n=6, k=2): 2520 repeated, 720 distinct = 720 * 1\n"
            "W^r sum = 0, phi^2 = id on 2520 elements, "
            "sign factorization ok on 720 elements, verified\n",
        ),
    )
}


def op_argv(workload: Workload, op_seed: int) -> list[str]:
    """CLI arguments of one op."""
    argv = list(workload.command)
    if workload.seeded:
        argv += ["--seed", str(op_seed)]
    return argv


# -- closed forms, computed here without the library -------------------------


def partition_count(n: int, k: int) -> int:
    """Partitions of [n] into n/k blocks of size k."""
    return factorial(n) // (factorial(n // k) * factorial(k) ** (n // k))


@lru_cache(maxsize=None)
def _increasing_tuples(parts: int, minimum: int, total: int) -> int:
    if parts == 0:
        return int(total == 0)
    return sum(
        _increasing_tuples(parts - 1, first + 1, total - first)
        for first in range(minimum, total + 1)
    )


def gamma_count(n: int, k: int) -> int:
    """|Gamma|: strictly increasing k-tuples of nonnegative integers summing to k(n-1)/2."""
    return _increasing_tuples(k, 0, k * (n - 1) // 2)


def weighted_partition_count(n: int, k: int) -> int:
    """|W| = n!/(n/k)! * |Gamma|^(n/k): oriented partitions times weight choices."""
    return factorial(n) // factorial(n // k) * gamma_count(n, k) ** (n // k)


def block_value_terms(n: int, k: int) -> int:
    """Terms of one symbolic block value: k! orders of each exponent tuple."""
    return factorial(k) * gamma_count(n, k)
