"""Statement reach of the phylodist package under a pytest run: after the run,
each `raise` line of the package that no test executed, module by module.

    PYTHONPATH=src:tests python -m pytest -q -p reach

A tool, not a gate: pytest does not collect this file (its name does not match
test_*.py), and the tracer makes a tier-1 run nearly twice as slow.  It counts
what runs in the pytest process, not the CLI runs of tests that start a
subprocess.  The set of reached lines grows while the tests run, so a test that
measures allocations can see it.  Under the tracer,

    tests/test_autodiff.py::test_backward_frees_the_attention_probabilities

fails when it runs before the other autodiff tests have reached the backward's
lines (run alone, say); it passes in a whole tier-1 run and without the tracer.
"""

import ast
import sys
from pathlib import Path

import phylodist

PACKAGE = Path(phylodist.__file__).parent
reached = set()


def _lines(frame, event, arg):
    if event == "line":
        reached.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    return _lines if frame.f_code.co_filename.startswith(str(PACKAGE)) else None


def pytest_configure(config):
    sys.settrace(_calls)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    total = missed = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        raises = sorted({node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)})
        lines = [line for line in raises if (str(path), line) not in reached]
        total, missed = total + len(raises), missed + len(lines)
        if lines:
            name = path.relative_to(PACKAGE.parent)
            terminalreporter.write_line(f"{name}: {' '.join(map(str, lines))}")
    terminalreporter.write_line(f"{missed} of {total} raise lines unreached")
