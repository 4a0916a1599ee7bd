"""The four benchmark workloads: fixed job lists over generated inputs.

Each job is one ``delzant <argv> -`` call with the input's ``.poly`` text
on stdin.  The seed picks a coordinate permutation of every generated
input, a lattice translation of the symbolic-ladder inputs, and the order
of the corpus-cli jobs.  ``seed=None`` gives the canonical inputs the
expected outputs were recorded from.

The seeded maps are chosen so that the program's work does not depend on
the seed, only the numbers it reads: every report is invariant under
GL_m(Z) and translations, but sign flips reorder the vertices and change
the triangulation behind the volume polynomial (up to 3x the polynomial
arithmetic on simplex_3 x simplex_3), and a translation t moves the k-th
dilate by k t, out of CPython's small-int range in the brute counter.
Permutations keep the vertex order's coordinate sums, every bounding box
and every facet test; translations keep the vertex order.  The
self-tests check the invariance of the reports under full GL_m(Z) images.

Why each workload and input was chosen.  Every job list is sized so that
one pass takes a few seconds and a run makes several passes:

* corpus-cli: every command x output format x corpus file (447 jobs),
  except cross-check on the four corpus files whose numeric volume oracle
  takes 0.7-3.4 s a call (HEAVY_ORACLE; 17 s of a 26 s pass).  The only
  workload where per-command fixed cost (argument parsing, parsing,
  vertex enumeration rebuilt by every command, formatting) is a visible
  share; it sets job_p50.  Brute counting and the oracle, which
  cross-check still runs on the other 13 files, are the largest shares of
  wall.  The two invalid corpus files must exit 4.
* hilbert-ladder: hilbert-cy on mid-size inputs beyond the corpus, where
  hundreds of small per-face brute enumerations dominate.  The 4-cube,
  prism x segment, simplex_3 x segment and simplex_2 x simplex_2 are
  products of corpus members with closed forms; the 16-gon (12 blow-ups
  of a 16-scaled square) adds the 2^d subset walk of inclusion-exclusion
  (d = 16).  simplex_4 x segment and the 5-simplex (9 s and 7.6 s a call)
  would leave room for only one pass a run.
* symbolic-ladder: the operator and volume-polynomial commands on inputs
  of dimension 5 and 6, with no brute enumeration at all.
  simplex_2 x simplex_2 x segment and simplex_2 x simplex_3 are
  volume-heavy (triangulation + ring_det); the 6-simplex is
  operator-heavy, and runs khovanskii, which applies the Todd product
  twice today.  All five commands run on simplex_2 x simplex_3, whose
  jobs take about the same time, so the median job is not the time of a
  single job.  The 5-cube, simplex_3 x simplex_3 and the 7-simplex take
  1.5-4.7 s a call and would leave room for only one pass a run.
* dilation-count: count --k K on boxes of 6.3-6.9 * 10^4 points and
  ehrhart interpolation on scaled inputs, dimensions 2-4: few large
  enumerations where the per-point cost is everything.  Simplices have a
  low in-polytope hit ratio (1/m!), boxes a hit ratio near 1.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import closed_forms as cf
from generator import (
    Polytope,
    Shape,
    blow_up,
    parse_poly_text,
    polygon_shape,
    product_of,
    random_image,
    simplex,
)

COMMANDS = (
    "validate", "faces", "volume-poly", "count", "ehrhart", "khovanskii",
    "boundary-formula", "hilbert-cy", "cross-check",
)
FORMATS = ("text", "json", "tsv")
NEGATIVE = ("triangle_det2", "pyramid_nonsimple")
# cross-check's numeric volume oracle takes 0.7-3.4 s a call on these, 17 s
# of a 26 s pass in all; without them a pass fits several times in a run.
HEAVY_ORACLE = ("cube_unit", "cube_2", "simplex_4", "simplex2x2")

# Corpus member -> product of scaled unit simplices (dim, scale), in facet
# order; None marks a polygon (closed form by Pick) or a negative input.
CORPUS = {
    "segment_unit": ((1, 1),),
    "segment_3": ((1, 3),),
    "simplex_2": ((2, 1),),
    "simplex_3": ((3, 1),),
    "simplex_4": ((4, 1),),
    "square_unit": ((1, 1), (1, 1)),
    "box_2x3": ((1, 2), (1, 3)),
    "square_shifted": ((1, 2), (1, 1)),
    "cube_unit": ((1, 1),) * 3,
    "cube_2": ((1, 2),) * 3,
    "hirzebruch_a": None,
    "hirzebruch_b": None,
    "prism": ((2, 1), (1, 1)),
    "simplex2x2": ((2, 1), (2, 1)),
    "pentagon": None,
    "triangle_det2": None,
    "pyramid_nonsimple": None,
}


@dataclass(frozen=True)
class Input:
    key: str
    canonical: Polytope
    polytope: Polytope  # what the program receives
    shape: Shape | None
    text: str

    @property
    def negative(self) -> bool:
        return self.key in NEGATIVE


@dataclass(frozen=True)
class Job:
    key: str  # independent of the seed; indexes the expected outputs
    argv: tuple[str, ...]
    input: Input


class Corpus:
    def __init__(self, root: Path):
        self.dir = root / "src" / "delzant" / "corpus_data"

    def text(self, name: str) -> str:
        return (self.dir / f"{name}.poly").read_text(encoding="utf-8")

    def polytope(self, name: str) -> Polytope:
        return parse_poly_text(self.text(name))

    def shape(self, name: str) -> Shape | None:
        if name in NEGATIVE:
            return None
        if CORPUS[name] is None:
            return polygon_shape(self.polytope(name))
        return Shape(simplices=CORPUS[name])


def _scaled(p: Polytope, s: int, name: str) -> Polytope:
    return Polytope(name, p.dim, tuple((n, s * o) for n, o in p.facets))


def _generated(key, canonical, shape, rng, translate=False) -> Input:
    if rng is None:
        sent = canonical
    else:
        sent = random_image(canonical, rng, signs=False, spread=5 if translate else 0)
    return Input(key, canonical, sent, shape, sent.to_poly_text())


def _product(corpus, key, members, scale=1) -> tuple[str, Polytope, Shape]:
    p = product_of([corpus.polytope(m) for m in members], key)
    simplices = sum((CORPUS[m] for m in members), ())
    if scale != 1:
        p = _scaled(p, scale, key)
        simplices = tuple((m, s * scale) for m, s in simplices)
    return key, p, Shape(simplices=simplices)


def corpus_cli(corpus: Corpus, rng):
    jobs = []
    for name in CORPUS:
        item = Input(name, corpus.polytope(name), corpus.polytope(name), corpus.shape(name), corpus.text(name))
        for command in COMMANDS:
            if command == "cross-check" and name in HEAVY_ORACLE:
                continue
            for fmt in FORMATS:
                argv = (command, "--output", fmt)
                jobs.append(Job(f"{name}: {' '.join(argv)}", argv, item))
    if rng is not None:
        rng.shuffle(jobs)
    return jobs


def hilbert_ladder(corpus: Corpus, rng):
    square = _scaled(corpus.polytope("square_unit"), 16, "square")
    gon = blow_up(square, 12, "16-gon")
    inputs = [
        _product(corpus, "4-cube", ["cube_unit", "segment_unit"]),
        _product(corpus, "prism x segment", ["prism", "segment_unit"]),
        _product(corpus, "simplex_3 x segment", ["simplex_3", "segment_unit"]),
        _product(corpus, "simplex_2 x simplex_2", ["simplex_2", "simplex_2"]),
        ("16-gon", gon, polygon_shape(gon)),
    ]
    argv = ("hilbert-cy", "--output", "json")
    jobs = []
    for key, p, shape in inputs:
        item = _generated(key, p, shape, rng)
        jobs.append(Job(f"{key}: {' '.join(argv)}", argv, item))
    return jobs


SYMBOLIC = {
    "volume-poly": ("volume-poly",),
    "khovanskii": ("khovanskii",),
    "boundary-formula": ("boundary-formula",),
    "ehrhart-full": ("ehrhart", "--method", "operator", "--kind", "full"),
    "ehrhart-boundary": ("ehrhart", "--method", "operator", "--kind", "boundary"),
}


def symbolic_ladder(corpus: Corpus, rng):
    inputs = [
        (_product(corpus, "simplex_2 x simplex_2 x segment", ["simplex_2", "simplex_2", "segment_unit"]),
         ("volume-poly", "boundary-formula")),
        (_product(corpus, "simplex_2 x simplex_3", ["simplex_2", "simplex_3"]), tuple(SYMBOLIC)),
        (("6-simplex", simplex(6), Shape(simplices=((6, 1),))), ("volume-poly", "khovanskii", "boundary-formula")),
    ]
    jobs = []
    for (key, p, shape), commands in inputs:
        item = _generated(key, p, shape, rng, translate=True)
        for command in commands:
            argv = SYMBOLIC[command]
            jobs.append(Job(f"{key}: {' '.join(argv)}", argv, item))
    return jobs


def dilation_count(corpus: Corpus, rng):
    counts = [
        (_product(corpus, "cube_unit", ["cube_unit"]), 40),
        (_product(corpus, "4-cube", ["cube_unit", "segment_unit"]), 15),
        (_product(corpus, "simplex_2", ["simplex_2"]), 250),
        (_product(corpus, "simplex_3", ["simplex_3"]), 40),
        (_product(corpus, "simplex_4", ["simplex_4"]), 15),
    ]
    ehrharts = [
        _product(corpus, "cube_unit scaled 6", ["cube_unit"], 6),
        _product(corpus, "4-cube scaled 2", ["cube_unit", "segment_unit"], 2),
        _product(corpus, "prism scaled 6", ["prism"], 6),
        _product(corpus, "simplex_3 scaled 8", ["simplex_3"], 8),
    ]
    jobs = []
    for (key, p, shape), k in counts:
        item = _generated(key, p, shape, rng)
        for region in ("full", "interior", "boundary", "face=1"):
            argv = ("count", "--k", str(k), "--region", region)
            jobs.append(Job(f"{key}: {' '.join(argv)}", argv, item))
    for key, p, shape in ehrharts:
        item = _generated(key, p, shape, rng)
        for kind in ("full", "interior"):
            argv = ("ehrhart", "--kind", kind)
            jobs.append(Job(f"{key}: {' '.join(argv)}", argv, item))
    return jobs


WORKLOADS = {
    "corpus-cli": corpus_cli,
    "hilbert-ladder": hilbert_ladder,
    "symbolic-ladder": symbolic_ladder,
    "dilation-count": dilation_count,
}


def build(workload: str, seed: int | None, root: Path) -> list[Job]:
    rng = None if seed is None else random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](Corpus(root), rng)


# -- output checks -----------------------------------------------------------


def polytope_json(p: Polytope) -> dict:
    """The ``polytope`` object of the program's JSON reports."""
    return {
        "name": p.name,
        "dim": p.dim,
        "facets": [{"normal": list(n), "offset": o} for n, o in p.facets],
    }


def normalize(job: Job, stdout: str) -> str:
    """Map the stdout of a transformed input to that of the canonical one.

    Only JSON reports echo the input; the echo must equal what was sent,
    and is then replaced by the canonical input's before comparison.
    Every other report is invariant under the seeded transforms.
    """
    if job.input.polytope == job.input.canonical or "json" not in job.argv:
        return stdout
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return stdout
    if json.dumps(payload, indent=2, sort_keys=True) + "\n" != stdout:
        return stdout
    if payload.get("polytope") != polytope_json(job.input.polytope):
        return stdout
    payload["polytope"] = polytope_json(job.input.canonical)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _face(text: str) -> tuple[int, ...]:
    return tuple(int(tok) - 1 for tok in text.strip("{}").split(","))


def closed_form_problems(job: Job, stdout: str) -> tuple[int, list[str]]:
    """Check a text or JSON report against the closed forms of its input.

    Returns (number of values checked, problems).  Commands without a
    closed form (faces, cross-check) and tsv output are left to the
    byte-for-byte comparison.
    """
    shape = job.input.shape
    fmt = job.argv[job.argv.index("--output") + 1] if "--output" in job.argv else "text"
    if shape is None or fmt == "tsv":
        return 0, []
    command = job.argv[0]
    checks: list[tuple[str, object, object]] = []
    lines = stdout.splitlines()
    try:
        if fmt == "json":
            payload = json.loads(stdout)
            if command == "hilbert-cy":
                want = cf.ehrhart(shape, "boundary")
                for route in ("by_inclusion_exclusion", "by_operator_formula", "by_oracle"):
                    checks.append((route, cf.parse_kpoly(payload[route]), want))
                for entry in payload["per_face"]:
                    face = tuple(i - 1 for i in entry["active_set"])
                    checks.append((f"face {face}", cf.parse_kpoly(entry["polynomial"]), cf.ehrhart(shape, "face", face)))
            elif command == "count":  # the corpus jobs count the full k = 1 dilate
                for field, kind in (("count", "full"), ("total", "full"), ("interior", "interior"), ("boundary", "boundary")):
                    checks.append((field, payload[field], cf.evaluate(cf.ehrhart(shape, kind), 1)))
        elif command == "count":
            k = int(job.argv[job.argv.index("--k") + 1]) if "--k" in job.argv else 1
            region = job.argv[job.argv.index("--region") + 1] if "--region" in job.argv else "full"
            if region.startswith("face="):
                want = cf.ehrhart(shape, "face", _face(region[5:]))
            else:
                want = cf.ehrhart(shape, region)
            checks.append(("count", int(lines[0]), cf.evaluate(want, k)))
        elif command == "ehrhart":
            kind = job.argv[job.argv.index("--kind") + 1] if "--kind" in job.argv else "full"
            head, _, poly = lines[0].partition(" Ehrhart: ")
            checks.append(("kind", head, kind))
            checks.append(("ehrhart", cf.parse_kpoly(poly), cf.ehrhart(shape, kind)))
        elif command == "khovanskii":
            checks.append(("count", int(lines[0]), cf.evaluate(cf.ehrhart(shape, "full"), 1)))
        elif command == "boundary-formula":
            checks.append(("count", int(lines[0]), cf.evaluate(cf.ehrhart(shape, "boundary"), 1)))
        elif command == "hilbert-cy":
            checks.append(("boundary", cf.parse_kpoly(lines[0].partition(": ")[2]), cf.ehrhart(shape, "boundary")))
            for line in lines[2:]:
                label, _, poly = line[len("face "):].partition(": ")
                checks.append((line, cf.parse_kpoly(poly), cf.ehrhart(shape, "face", _face(label))))
        elif command == "volume-poly":
            values = dict(line.split(": ", 1) for line in lines)
            checks.append(("volume", Fraction(values["volume at anchor"]), cf.volume(shape)))
            checks.append(("boundary volume", Fraction(values["boundary volume at anchor"]), cf.boundary_volume(shape)))
        elif command == "validate":
            checks.append(("validate", lines[1], "delzant: pass"))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return 1, [f"unreadable report: {type(exc).__name__}: {exc}"]
    problems = [f"{what}: got {got}, closed form {want}" for what, got, want in checks if got != want]
    return len(checks), problems
