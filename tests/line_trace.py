"""List the lines of ``src/dtr_adhere`` that the test suite never runs.

Runs pytest in this process under a ``sys.settrace`` line tracer limited to
the package's source files, then prints, module by module, the executable
lines that never ran, and the totals.  A line is executable when some code
object of its module's compiled source starts an instruction on it; a
function's ``def`` line counts as run when the function is called.  Work
done in other processes (``--jobs`` workers, a subprocess running the CLI)
is not seen.  pytest does not collect this file: its name does not match
``test_*.py``.

Run it from the repository root; its arguments go to pytest::

    PYTHONPATH=src python tests/line_trace.py -q -p no:cacheprovider
"""

import sys
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dtr_adhere"


def executable_lines(path: Path) -> set:
    """The lines of ``path`` on which some compiled instruction starts (a
    module's code starts at line 0, which is no line of the file)."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def trace_suite(pytest_args) -> tuple:
    """pytest's exit code and the lines run, by file, while it ran."""
    import pytest

    prefix = str(PACKAGE) + "/"
    ran = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran[filename].add(frame.f_code.co_firstlineno)
        return local

    if any(name == "dtr_adhere" or name.startswith("dtr_adhere.") for name in sys.modules):
        raise RuntimeError("dtr_adhere was imported before the tracer started")
    sys.settrace(on_call)
    try:
        code = pytest.main(list(pytest_args))
    finally:
        sys.settrace(None)
    return code, ran


def main(argv) -> int:
    code, ran = trace_suite(argv)
    missed_total = lines_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - ran[str(path)])
        missed_total += len(missed)
        lines_total += len(lines)
        print(f"{path.name}: {len(missed)} of {len(lines)} never ran"
              + (f": {', '.join(map(str, missed))}" if missed else ""))
    print(f"total: {missed_total} of {lines_total} executable lines never ran "
          f"(pytest exit code {int(code)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
