"""Line trace of the package under a pytest selection; run by hand, pytest
does not collect it (it collects only ``test_*.py``).

    python3 tests/line_trace.py -k "not criterion_4"
    python3 tests/line_trace.py tests/test_cli.py

The arguments go to pytest, which runs in this process under a
``sys.settrace`` hook that records every line run in ``src/hyperpfaffian``.
Then, per module, the lines that its code objects hold (their
``co_lines``) and that never ran are printed as ranges.  Lines that only
subprocesses run (``python -m hyperpfaffian.cli``) count as not run.
Standard library and pytest only; tracing makes the tests several times
slower.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hyperpfaffian"


def code_lines(path: Path) -> set[int]:
    """The line numbers of every code object compiled from ``path``."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def ranges(lines: list[int]) -> str:
    """``[1, 2, 3, 7]`` as ``1-3, 7``."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv: list[str]) -> int:
    import pytest

    if "hyperpfaffian" in sys.modules:
        raise SystemExit("hyperpfaffian is already imported; its module lines would be missed")
    sys.path.insert(0, str(PACKAGE.parent))
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    loaded = sys.modules.get("hyperpfaffian")
    if loaded is None or Path(loaded.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"the tests did not import the package from {PACKAGE}")
    total = 0
    print()
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(code_lines(path) - ran.get(str(path), set()))
        total += len(missed)
        print(f"{path.name}: {ranges(missed) if missed else 'every line ran'}")
    print(f"{total} line{'' if total == 1 else 's'} never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
