"""A fixed pure-Python workload that times the machine, not the program.

The benchmark runs on shared virtual machines whose speed drifts by up to
1.6x in phases of seconds to minutes; such a phase slows every job of a
run alike.  ``reference()`` does a fixed amount of the kind of work the
program does (brute lattice-point enumeration over tuples, exact
``Fraction`` elimination, a subset walk with set lookups) and never
imports the program, so its time measures the machine's current speed.
The harness times it between jobs and after set-up, and ``run.py``
reports the program's times at a nominal machine speed as well as raw.

    python3 perfbench/reference.py      # prints the time of a few calls
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from time import perf_counter

# Seconds the reference takes on the nominal machine; normalised times
# are raw times x NOMINAL_S / (the reference's time measured alongside).
NOMINAL_S = 0.003
CHECKSUM = 2686


def reference() -> int:
    """Run the fixed workload once; returns a checksum that must equal ``CHECKSUM``."""
    side = 20
    inside = rows_seen = 0
    for p in product(range(side + 1), repeat=3):
        if sum(p) <= side:
            inside += 1
            rows_seen += p[2] == 0
    n = 8
    rows = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for c in range(n):
        pivot = rows[c][c]
        det *= pivot
        for r in range(c + 1, n):
            f = rows[r][c] / pivot
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    faces = {frozenset(s) for s in combinations(range(12), 3) if sum(s) % 3 == 0}
    hits = sum(1 for s in combinations(range(12), 4) for t in combinations(s, 3) if frozenset(t) in faces)
    return inside + rows_seen + det.denominator % 1000 + hits


def timed_reference() -> float:
    """Seconds of one ``reference()`` call; raises if its result is wrong."""
    start = perf_counter()
    value = reference()
    seconds = perf_counter() - start
    if value != CHECKSUM:
        raise RuntimeError(f"reference workload returned {value}, expected {CHECKSUM}")
    return seconds


if __name__ == "__main__":
    print(" ".join(f"{1000 * timed_reference():.2f}" for _ in range(10)), "ms")
