"""Span recorder for the traced benchmark run.

The program has no instrumentation of its own, so the traced run wraps
each layer's public functions from outside.  A function imported by name
(``from .counting import count_points``) has one binding per importing
module, so ``install`` rebinds every module attribute that *is* the
original function, not just the defining module's.  ``uninstall`` puts
the originals back; the untraced run never calls ``install``.

A span is ``[name, start, end, parent, job]`` with perf_counter times and
the index of the enclosing span (-1 at top level).  Spans stay in memory
until ``dump``.  A direct recursive call (``ring_det`` expands minors by
calling itself) stays inside its outermost span.  Counters are exact
integers gathered at the same boundaries, outside the timed interval.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from math import comb
from time import perf_counter

# (module, function, span name)
SPANS = (
    ("delzant.cli", "main", "cli.main"),
    ("delzant.polyfile", "parse_polytope_file", "polyfile.parse"),
    ("delzant.polytope", "enumerate_vertices", "polytope.enumerate_vertices"),
    ("delzant.polytope", "validate_delzant", "polytope.validate"),
    ("delzant.polytope", "build_face_lattice", "polytope.face_lattice"),
    ("delzant.volume", "volume_polynomial", "volume.volume_polynomial"),
    ("delzant.volume", "numeric_volume_at", "volume.numeric_oracle"),
    ("delzant.volume", "chamber_samples", "volume.chamber_samples"),
    ("delzant.volume", "facet_volume_direct", "volume.facet_volume"),
    ("delzant.linalg", "ring_det", "linalg.ring_det"),
    ("delzant.operators", "apply_operator_product", "operators.apply"),
    ("delzant.counting", "count_points", "counting.count_points"),
    ("delzant.counting", "interpolate_counts", "counting.interpolate"),
    ("delzant.hilbert", "cy_hilbert_polynomial", "hilbert.cy_hilbert"),
    ("delzant.hilbert", "inclusion_exclusion_levels", "hilbert.inclusion_exclusion"),
    ("delzant.hilbert", "cross_check", "hilbert.cross_check"),
)

# Per-layer metrics: (metric, unit, better).  Times are self times.
METRICS = (
    ("cli.main.self_s", "s", "lower"),
    ("cli.jobs", "count", "higher"),
    ("polyfile.parse_s", "s", "lower"),
    ("polyfile.parse.calls", "count", "lower"),
    ("polytope.enumerate_vertices_s", "s", "lower"),
    ("polytope.enumerate_vertices.calls", "count", "lower"),
    ("polytope.vertex_subsets", "count", "lower"),
    ("polytope.vertex_hit_ratio", "ratio", "higher"),
    ("polytope.validate_s", "s", "lower"),
    ("polytope.face_lattice_s", "s", "lower"),
    ("polytope.face_lattice.calls", "count", "lower"),
    ("polytope.faces", "count", "lower"),
    ("volume.volume_polynomial_s", "s", "lower"),
    ("volume.volume_polynomial.calls", "count", "lower"),
    ("volume.volume_terms", "count", "lower"),
    ("volume.numeric_oracle_s", "s", "lower"),
    ("volume.numeric_oracle.calls", "count", "lower"),
    ("volume.chamber_samples_s", "s", "lower"),
    ("volume.facet_volume_s", "s", "lower"),
    ("linalg.ring_det_s", "s", "lower"),
    ("linalg.ring_det.calls", "count", "lower"),
    ("operators.apply_s", "s", "lower"),
    ("operators.apply.calls", "count", "lower"),
    ("operators.input_terms", "count", "lower"),
    ("counting.count_points_s", "s", "lower"),
    ("counting.count_points.calls", "count", "lower"),
    ("counting.points_classified", "count", "lower"),
    ("counting.points_per_s", "1/s", "higher"),
    ("counting.hit_ratio", "ratio", "higher"),
    ("counting.distinct_ratio", "ratio", "higher"),
    ("counting.interpolate_s", "s", "lower"),
    ("hilbert.cy_hilbert_s", "s", "lower"),
    ("hilbert.inclusion_exclusion.self_s", "s", "lower"),
    ("hilbert.resolve.calls", "count", "lower"),
    ("hilbert.resolve_hit_ratio", "ratio", "higher"),
    ("hilbert.cross_check_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.current = -1
        self.job = 0
        self.counts: Counter = Counter()
        self.count_keys: set = set()
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, func, before=None, after=None):
        rec = self

        def wrapper(*args, **kwargs):
            parent = rec.current
            if parent >= 0 and rec.spans[parent][0] == name:
                return func(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            span = [name, 0.0, 0.0, parent, rec.job]
            rec.current = len(rec.spans)
            rec.spans.append(span)
            span[1] = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                rec.current = parent
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = func.__name__
        return wrapper

    def _rebind(self, original, replacement):
        """Point every binding of ``original`` in the package at ``replacement``."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "delzant" or module_name.startswith("delzant.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self):
        from delzant import polytope

        hooks = self._hooks(polytope.enumerate_vertices)
        for module_name, func_name, span_name in SPANS:
            original = getattr(sys.modules[module_name], func_name)
            before, after = hooks.get(span_name, (None, None))
            self._rebind(original, self._wrap(span_name, original, before, after))

        resolve = polytope.FaceLattice.resolve
        rec = self

        def counted_resolve(lattice, subset):
            record = resolve(lattice, subset)
            if rec.current >= 0 and rec.spans[rec.current][0] == "hilbert.inclusion_exclusion":
                rec.counts["hilbert.resolve.calls"] += 1
                rec.counts["hilbert.resolve.hits"] += record is not None
            return record

        self._saved.append((polytope.FaceLattice, "resolve", resolve))
        polytope.FaceLattice.resolve = counted_resolve

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _hooks(self, enumerate_vertices):
        """Counter hooks per span: (before(args, kwargs), after(result, args, kwargs))."""
        counts = self.counts

        def vertex_subsets(args, kwargs):
            spec = args[0]
            counts["polytope.vertex_subsets"] += comb(spec.num_facets, spec.dim)

        def vertices(result, args, kwargs):
            counts["polytope.vertices"] += len(result)

        def faces(result, args, kwargs):
            counts["polytope.faces"] += len(result.faces)

        def volume_terms(result, args, kwargs):
            counts["volume.volume_terms"] += len(result.poly.terms())

        def input_terms(args, kwargs):
            counts["operators.input_terms"] += len(args[1].terms())

        def points(result, args, kwargs):
            spec, k = args[0], args[1]
            region = args[2] if len(args) > 2 else kwargs.get("region", "full")
            face = kwargs.get("face")
            charts = kwargs.get("charts") or enumerate_vertices(spec)
            box = 1  # the bounding box of the dilated vertices, as count_points enumerates it
            for c in range(spec.dim):
                coords = [chart.anchor[c] for chart in charts]
                box *= k * int(max(coords) - min(coords)) + 1
            counts["counting.points_classified"] += box
            counts["counting.points_counted"] += result
            self.count_keys.add((spec.dim, spec.facets, k, region, None if face is None else tuple(face)))

        return {
            "polytope.enumerate_vertices": (vertex_subsets, vertices),
            "polytope.face_lattice": (None, faces),
            "volume.volume_polynomial": (None, volume_terms),
            "operators.apply": (input_terms, None),
            "counting.count_points": (None, points),
        }

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """Self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        seconds, calls = Counter(), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            seconds[name] += end - start - child[i]
            calls[name] += 1
        return seconds, calls

    def metrics(self, overhead_s: float) -> dict:
        seconds, calls = self.self_times()
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        values = {
            "cli.main.self_s": seconds["cli.main"],
            "cli.jobs": calls["cli.main"],
            "polytope.vertex_subsets": c["polytope.vertex_subsets"],
            "polytope.vertex_hit_ratio": ratio(c["polytope.vertices"], c["polytope.vertex_subsets"]),
            "polytope.faces": c["polytope.faces"],
            "volume.volume_terms": c["volume.volume_terms"],
            "operators.input_terms": c["operators.input_terms"],
            "counting.points_classified": c["counting.points_classified"],
            "counting.points_per_s": ratio(c["counting.points_classified"], seconds["counting.count_points"]),
            "counting.hit_ratio": ratio(c["counting.points_counted"], c["counting.points_classified"]),
            "counting.distinct_ratio": ratio(len(self.count_keys), calls["counting.count_points"]),
            "hilbert.inclusion_exclusion.self_s": seconds["hilbert.inclusion_exclusion"],
            "hilbert.resolve.calls": c["hilbert.resolve.calls"],
            "hilbert.resolve_hit_ratio": ratio(c["hilbert.resolve.hits"], c["hilbert.resolve.calls"]),
            "trace.overhead_s": overhead_s,
        }
        for _, _, span_name in SPANS:
            values.setdefault(span_name + "_s", seconds[span_name])
            values.setdefault(span_name + ".calls", calls[span_name])
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "job"], "spans": self.spans}, handle)
