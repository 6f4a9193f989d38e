"""Print every line of src/kamtori that the test suite never runs.

    python3 tools/line_reach.py

Runs the suite under tests/ in this process (pytest.main, from the
checkout's root) with a sys.settrace line tracer that records the lines
run in src/kamtori/*.py, then prints each executable line that never
ran as ``path:line: source`` and a count per module.  A line is
executable when the compiled module gives it bytecode (code.co_lines of
the module and every code object inside it), so docstrings, comments
and blank lines never show.  Subprocesses the tests start (the CLI and
demo runs) are not traced.

A line that the suite cannot reach in this process has an entry in
REASONS, keyed by its module and its stripped source text so that the
entry holds across edits; its reason is printed after it.  Exits with
pytest's exit code when that is not 0, else 1 when an unreached line
has no reason, else 0.
"""

import os
import sys
import threading
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "kamtori")

REASONS = {
    ("cli.py", "sys.exit(main())"):
        "runs only under python -m kamtori.cli, in subprocesses",
}


def executable_lines(path):
    """The line numbers that the compiled module gives bytecode."""
    with open(path) as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main():
    import pytest

    ran = set()

    def on_line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename.startswith(PACKAGE) \
            else None

    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed, total, unexplained = Counter(), 0, 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            source = fh.read().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines):
            if (path, line) not in ran:
                missed[name] += 1
                text = source[line - 1].strip()
                reason = REASONS.get((name, text))
                unexplained += reason is None
                print(f"src/kamtori/{name}:{line}: {text}"
                      + (f"  -- {reason}" if reason else ""))
    for name, count in sorted(missed.items()):
        print(f"{name}: {count} lines never run")
    print(f"{sum(missed.values())} of {total} executable lines in "
          f"src/kamtori never run, {unexplained} without a reason")
    return int(code) or int(unexplained > 0)


if __name__ == "__main__":
    sys.exit(main())
