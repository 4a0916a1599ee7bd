"""Which of the package's lazily loaded modules each command runs, and
that threads reading one first all find it whole.

Each case runs a fresh interpreter.  A lazy module that has not run is
of a subclass of ``types.ModuleType``; any attribute read runs it, so
its state is read from its type alone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import delzant

PACKAGE = Path(delzant.__file__).resolve().parent
CORPUS = PACKAGE / "corpus_data"


def run_python(source, *args):
    """``python -c source args`` with this package on the path: its stdout."""
    env = dict(os.environ)
    paths = (str(PACKAGE.parent), env.get("PYTHONPATH"))
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    done = subprocess.run(
        [sys.executable, "-c", source, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        check=True,
    )
    assert done.stderr == ""
    return done.stdout


REPORT = """
import contextlib, io, json, sys, types
import delzant, delzant.cli

def ran():
    return [
        name
        for name in delzant.LAZY_MODULES
        if type(sys.modules["delzant." + name]) is types.ModuleType
    ]

steps = [["import", ran()]]
for line in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = delzant.cli.main(json.loads(line))
        except SystemExit as exc:
            code = exc.code
    steps.append([code, ran()])
print(json.dumps(steps))
"""


def run_lines(*lines):
    """[exit code, lazy modules run so far] after ``import delzant.cli``
    and after each command line, all in one fresh interpreter."""
    return json.loads(run_python(REPORT, *(json.dumps(line) for line in lines)))


def corpus(name):
    return str(CORPUS / f"{name}.poly")


def test_import_version_validate_and_faces_run_no_lazy_module():
    steps = run_lines(
        ["--version"],
        ["validate", corpus("prism")],
        ["faces", corpus("prism")],
        ["validate", "--output", "json", corpus("triangle_det2")],
    )
    assert steps == [["import", []], [0, []], [0, []], [0, []], [4, []]]


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--k", "2"],
        ["count", "--k", "2", "--output", "json"],
        ["count", "--k", "2", "--output", "tsv"],
    ],
)
def test_count_runs_counting_alone(argv):
    assert run_lines([*argv, corpus("prism")]) == [["import", []], [0, ["counting"]]]


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--k", "40", "--region", "boundary"],
        ["count", "--k", "40", "--output", "json"],
        ["count", "--k", "40", "--region", "face=1", "--output", "tsv"],
    ],
)
def test_a_fitted_count_runs_counting_and_polynomial(argv):
    # above k = m + 2 the count is read off a fit, which is a UniPoly
    steps = run_lines([*argv, corpus("prism")])
    assert steps == [["import", []], [0, ["polynomial", "counting"]]]


def test_interpolated_ehrhart_runs_counting_and_polynomial_only():
    steps = run_lines(["ehrhart", "--method", "interpolate", corpus("prism")])
    assert steps == [["import", []], [0, ["polynomial", "counting"]]]


def test_hilbert_cy_runs_all_five():
    steps = run_lines(["hilbert-cy", corpus("prism")])
    ran = ["polynomial", "counting", "volume", "operators", "hilbert"]
    assert steps == [["import", []], [0, ran]]


THREADS = """
import sys, threading
import delzant

sys.setswitchinterval(1e-6)
reads = [(delzant.hilbert, "cross_check"), (delzant.counting, "count_points")] * 2
barrier = threading.Barrier(len(reads))
found = []

def first_read(module, name):
    barrier.wait()
    try:
        found.append(getattr(module, name).__name__)
    except AttributeError as exc:
        found.append(str(exc))

threads = [threading.Thread(target=first_read, args=read) for read in reads]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=30)
print(sorted(found), sum(thread.is_alive() for thread in threads))
"""


def test_threads_that_read_a_lazy_module_first_wait_until_it_has_run():
    # a thread that read the module while another ran it would find it
    # half run and miss the name
    found = "['count_points', 'count_points', 'cross_check', 'cross_check'] 0\n"
    assert run_python(THREADS) == found
