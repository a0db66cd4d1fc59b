"""Seeded mutation survey of the package's modules; run by hand, pytest
does not collect it (it collects only ``test_*.py``).

    python3 tests/mutation.py --seed 18 --count 40

Each mutant flips one binary or augmented operator, one comparison, or
one integer constant (by +1 or -1) in one module of a temporary copy of
``src/``, and runs the given test files against that copy.  A mutant is
killed when the tests fail or time out, and survives when they pass.
One line is printed per mutant, then the survivors.  The checkout is
only read.  Standard library only; every child runs under a 2 GB
address-space limit.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "hyperpfaffian"

OPERATORS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.Div: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.BitAnd: ast.BitOr,
    ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitAnd, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
}
COMPARISONS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
}


def sites(tree: ast.AST) -> list[tuple[int, int, str]]:
    """(node index in ast.walk order, operand index or constant step, label)
    for every mutation the tree admits."""
    found = []
    for index, node in enumerate(ast.walk(tree)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in OPERATORS:
            found.append((index, 0, f"{type(node.op).__name__} -> {OPERATORS[type(node.op)].__name__}"))
        elif isinstance(node, ast.Compare):
            for place, op in enumerate(node.ops):
                if type(op) in COMPARISONS:
                    found.append((index, place, f"{type(op).__name__} -> {COMPARISONS[type(op)].__name__}"))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            for step in (1, -1):
                found.append((index, step, f"{node.value} -> {node.value + step}"))
    return found


def mutate(source: str, index: int, detail: int) -> tuple[str, str]:
    """The source with the mutation at (index, detail) applied, and where it
    is in the source: line:column."""
    tree = ast.parse(source)
    node = list(ast.walk(tree))[index]
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        node.op = OPERATORS[type(node.op)]()
    elif isinstance(node, ast.Compare):
        node.ops[detail] = COMPARISONS[type(node.ops[detail])]()
    else:
        node.value += detail
    return ast.unparse(tree), f"{node.lineno}:{node.col_offset}"


def limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def run_tests(copy: Path, tests: list[str], timeout: float) -> tuple[bool, float]:
    """(whether the tests passed against the copy, seconds taken)."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout, preexec_fn=limit_memory)
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start
    return done.returncode == 0, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="*", default=["involution.py", "combinat.py"],
                        help="file names under src/hyperpfaffian (default: involution.py combinat.py)")
    parser.add_argument("--seed", type=int, default=18)
    parser.add_argument("--count", type=int, default=40, help="mutants to draw over all modules")
    parser.add_argument("--tests", nargs="+",
                        default=["tests/test_involution.py", "tests/test_combinat.py"])
    args = parser.parse_args(argv)

    sources = {name: (ROOT / PACKAGE / name).read_text() for name in args.modules}
    candidates = [(name, *site) for name, source in sources.items()
                  for site in sites(ast.parse(source))]
    chosen = sorted(random.Random(args.seed).sample(candidates, min(args.count, len(candidates))))
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutation-") as scratch:
        copy = Path(scratch)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        check = subprocess.run(
            [sys.executable, "-c", "import hyperpfaffian; print(hyperpfaffian.__file__)"],
            env=dict(os.environ, PYTHONPATH=str(copy / "src")), capture_output=True, text=True)
        if not check.stdout.startswith(str(copy)):
            print(f"the copy is not the package imported: {check.stdout or check.stderr}")
            return 2
        passed, seconds = run_tests(copy, args.tests, timeout=600)
        if not passed:
            print("the tests fail on the unmutated copy")
            return 2
        timeout = max(60.0, 5 * seconds)
        print(f"{len(chosen)} of {len(candidates)} mutants, seed {args.seed}; "
              f"unmutated tests {seconds:.1f} s, timeout {timeout:.0f} s")
        for name, index, detail, label in chosen:
            target = copy / PACKAGE / name
            mutant, place = mutate(sources[name], index, detail)
            target.write_text(mutant)
            try:
                passed, seconds = run_tests(copy, args.tests, timeout)
            finally:
                target.write_text(sources[name])
            where = f"{name}:{place} {label}"
            print(f"{'survived' if passed else 'killed  '} {seconds:6.1f} s  {where}", flush=True)
            if passed:
                survivors.append(where)
    print(f"{len(chosen) - len(survivors)} killed, {len(survivors)} survived")
    for where in survivors:
        print(f"  survived: {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
