"""Mutation gate: each mutant breaks one line of the package, and its
killing tests must fail on the broken copy.

    python tests/mutants.py

For each mutant the runner copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory, replaces the mutant's old
snippet, which must occur exactly once in its file, by the new one, and
runs the killing tests there with ``python -m pytest -x -q -p
no:cacheprovider`` under a time limit, with the copy's ``src`` first on
``PYTHONPATH``.  A run whose tests fail, or that outruns the limit, kills
the mutant; a run that passes lets it survive, and any other outcome
(no test collected, the copy not the package imported) is an error.  The
runner exits 1 if any mutant survives or errs.  The repository itself is
never edited.  Stdlib only; pytest does not collect this module (its name
has no ``test_`` prefix), and ``tests/test_mutants.py`` checks in tier 1
that every old snippet occurs exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIME_LIMIT_S = 300


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root
    reason: str


MUTANTS = (
    Mutant(
        "reading-weights",
        "src/delzant/polynomial.py",
        "[(-1) ** (m + i) * c for i, c in enumerate(self.numerators)], self.denominator",
        "[(-1) ** m * c for i, c in enumerate(self.numerators)], self.denominator",
        (
            "tests/test_counting.py::TestTwoSidedFit"
            "::test_the_operator_interior_equals_brute_interior_counts",
            "tests/test_polynomial.py::TestIntegerUniPolyMatchesReference::test_every_reading",
        ),
        "the operator route's interior is (-1)^m L(-k): numerator i weighs "
        "(-1)^(m+i), not (-1)^m",
    ),
    Mutant(
        "canonical-gcd",
        "src/delzant/polynomial.py",
        "g = gcd(denominator, *numerators)",
        "g = 1",
        (
            "tests/test_polynomial.py::TestIntegerUniPolyMatchesReference::test_every_reading",
            "tests/test_polynomial.py"
            "::test_unipoly_keeps_the_canonical_integers_of_the_given_fractions",
        ),
        "one stored form: equal polynomials store equal integers only once their "
        "common factor is divided out",
    ),
    Mutant(
        "canonical-sign",
        "src/delzant/polynomial.py",
        "        if denominator < 0:\n",
        "        if False:\n",
        (
            "tests/test_polynomial.py::TestIntegerUniPolyMatchesReference::test_every_reading",
            "tests/test_polynomial.py::TestIntegerUniPolyMatchesReference"
            "::test_the_zero_polynomial",
        ),
        "one stored form: the denominator is positive, the sign kept by the numerators",
    ),
    Mutant(
        "ahat-factor",
        "src/delzant/operators.py",
        "(2 - 2**j) * b / (2**j * factorial(j))",
        "(1 - j) * b / (2**j * factorial(j))",
        (
            "tests/test_operators.py::TestSeriesCoefficients::test_ahat_from_inversion",
            "tests/test_operators.py::TestSymbolicEhrhart::test_simplex4_boundary",
        ),
        "(x/2)/sinh(x/2) has x^j coefficient (2 - 2^j) B_j / (2^j j!); a factor right "
        "at j = 0, 1 alone misses x^2 and beyond",
    ),
    Mutant(
        "fit-reading-weights",
        "src/delzant/counting.py",
        "[(-1) ** (m + i) * c for i, c in enumerate(self.numerators)]",
        "[(-1) ** m * c for i, c in enumerate(self.numerators)]",
        ("tests/test_counting.py::TestTwoSidedFit::test_equals_the_one_sided_fits",),
        "the fit's interior is (-1)^m L(-k): numerator i weighs (-1)^(m+i), not (-1)^m",
    ),
    Mutant(
        "fit-row-nodes",
        "src/delzant/counting.py",
        "        node = start + i\n",
        "        node = start + i + 1\n",
        (
            "tests/test_counting.py::TestForwardDifferenceFit"
            "::test_matches_lagrange_interpolation_from_minus_h",
        ),
        "Newton's term i multiplies the factors (k - start - j) for j < i, node j at start + j",
    ),
    Mutant(
        "fit-face-sign",
        "src/delzant/counting.py",
        "pairs = lambda k: (closed(k), (-1) ** f * histograms(k).get(mask, 0))",
        "pairs = lambda k: (closed(k), histograms(k).get(mask, 0))",
        ("tests/test_counting.py::TestTwoSidedFit::test_equals_the_one_sided_fits",),
        "a face's value at -k is (-1)^f times its relative interior's count",
    ),
    Mutant(
        "minus-probe",
        "src/delzant/counting.py",
        "    _check_probe(fit, -probe, at_minus_k, degree, kind)\n",
        "",
        (
            "tests/test_counting.py::TestTwoSidedFit"
            "::test_an_interior_count_off_by_one_is_rejected_at_minus_the_probe",
        ),
        "the probe at -(h+1) is the fit's one check of the interior count",
    ),
    Mutant(
        "spare-coefficient",
        "src/delzant/counting.py",
        "if 2 * h > degree and fit.numerators[-1]:",
        "if False:",
        ("tests/test_counting.py::TestTwoSidedFit::test_spare_top_coefficient_must_vanish",),
        "when 2h > degree the fit's k^(2h) coefficient must vanish",
    ),
    Mutant(
        "facet-mask",
        "src/delzant/counting.py",
        "        mask |= 1 << i\n",
        "        mask = 1 << i\n",
        ("tests/test_counting.py::TestCountPoints::test_face_region",),
        "a face's mask holds every facet of its set, not the last one only",
    ),
    Mutant(
        "fit-threshold",
        "src/delzant/counting.py",
        "if k > m + 2 and all(",
        "if k >= m + 2 and all(",
        ("tests/test_stage_counts.py::test_fits_read_few_dilates",),
        "a count up to k = m + 2 is one pass at k, not a fit",
    ),
    Mutant(
        "box-floor",
        "src/delzant/counting.py",
        "lows = [min(p[c] // d for p, d in scaled) for c in range(spec.dim)]",
        "lows = [min(-(-p[c] // d) for p, d in scaled) for c in range(spec.dim)]",
        (
            "tests/test_counting.py::TestCountPoints"
            "::test_the_box_reaches_vertices_off_the_lattice_on_both_sides",
        ),
        "the box's low end rounds a vertex off the lattice down",
    ),
    Mutant(
        "box-ceiling",
        "src/delzant/counting.py",
        "highs = [max(-(-p[c] // d) for p, d in scaled) for c in range(spec.dim)]",
        "highs = [max(p[c] // d for p, d in scaled) for c in range(spec.dim)]",
        (
            "tests/test_counting.py::TestCountPoints"
            "::test_the_box_reaches_vertices_off_the_lattice_on_both_sides",
        ),
        "the box's high end rounds a vertex off the lattice up",
    ),
)


def _copy(tmp: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, tmp / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", tmp / "pyproject.toml")


def run(mutant: Mutant) -> str:
    """'killed', 'survived' or an error, for one mutant on a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="delzant-mutant-") as name:
        tmp = Path(name)
        _copy(tmp)
        path = tmp / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return f"error: old snippet occurs {text.count(mutant.old)} times in {mutant.file}"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(tmp / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        where = subprocess.run(
            [sys.executable, "-c", "import delzant; print(delzant.__file__)"],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
        if not where.stdout.strip().startswith(str(tmp)):
            return f"error: the copy is not the package imported ({where.stdout.strip()})"
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests]
        try:
            done = subprocess.run(argv, cwd=tmp, env=env, capture_output=True, timeout=TIME_LIMIT_S)
        except subprocess.TimeoutExpired:
            return "killed"
        if done.returncode == 1:
            return "killed"
        if done.returncode == 0:
            return "survived"
        return f"error: pytest exited {done.returncode}"


def main() -> int:
    failed, start = 0, time.perf_counter()
    for mutant in MUTANTS:
        began = time.perf_counter()
        outcome = run(mutant)
        failed += outcome != "killed"
        print(f"{mutant.name}: {outcome} ({time.perf_counter() - began:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - failed}/{len(MUTANTS)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
