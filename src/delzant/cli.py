"""Command line frontend.

    delzant <command> [flags] FILE

Commands: validate, faces, volume-poly, count, ehrhart, khovanskii,
boundary-formula, hilbert-cy, cross-check.  Reports go to stdout (text,
json, or tsv per --output); diagnostics go to stderr.  Exit codes are
documented in errors.py and in the README.
"""

from __future__ import annotations

import argparse
import ast
import functools
import os
import re
import sys
from collections import Counter

from . import __version__, counting, hilbert, operators
from .errors import (
    DEFAULT_BUDGET,
    DelzantError,
    FormulaViolationError,
    NotDelzantError,
    PolytopeParseError,
    UsageError,
    cut,
)
from .polyfile import max_digits, over_limit, parse_polytope_file
from .prepared import Prepared

BUDGET_ENV = "DELZANT_BUDGET"

EXIT_OK = 0
EXIT_UNEXPECTED = 1

_set_digits = getattr(sys, "set_int_max_str_digits", lambda digits: None)

# what a command builds and main prints: (JSON payload, text lines, TSV rows, exit code)
Report = tuple[dict, list[str], list[tuple], int]


def _face_key_text(active_set) -> str:
    return "{" + ",".join(str(i + 1) for i in active_set) + "}"


def _parse_region(text: str):
    """--region full|interior|boundary|face=1,2 (facet numbers are 1-based); a bad
    value is named cut short, an index over Python's digit limit by its digit count."""
    if text in ("full", "interior", "boundary"):
        return text, None
    if text.startswith("face="):
        tokens, bad = text[5:].split(","), f"bad face index list in {cut(text)!r}"
        try:
            indices = tuple(sorted(int(tok) - 1 for tok in tokens))
        except ValueError:
            raise argparse.ArgumentTypeError(next(filter(None, map(over_limit, tokens)), bad))
        if not indices or any(i < 0 for i in indices):
            raise argparse.ArgumentTypeError(bad)
        if len(set(indices)) != len(indices):
            raise argparse.ArgumentTypeError(f"repeated facet index in {cut(text)!r}")
        return "face", indices
    raise argparse.ArgumentTypeError(
        f"unknown region {cut(text)!r}; use full, interior, boundary, or face=1,2"
    )


def _integer(text: str) -> int:
    """An integer flag or environment value; a bad one is named cut short,
    and one over Python's digit limit by its digit count."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            over_limit(text) or f"invalid int value: {cut(text)!r}"
        ) from None


# argparse's messages that quote a bad value whole, an invalid choice as its repr
_INVALID_CHOICE = re.compile(r"""(.*?invalid choice: )('(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")(.*)""")
_UNRECOGNIZED = "unrecognized arguments: "


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a UsageError: one 'error:' line, exit 2,
    with an invalid choice and each unrecognized argument cut short."""

    def error(self, message):
        if match := _INVALID_CHOICE.fullmatch(message):
            head, value, tail = match.groups()
            message = head + repr(cut(ast.literal_eval(value))) + tail
        elif message.startswith(_UNRECOGNIZED):
            words = message[len(_UNRECOGNIZED) :].split(" ")
            message = _UNRECOGNIZED + " ".join(map(cut, words))
        raise UsageError(message)


# Every subcommand's flags after its own -h, as (name, add_argument kwargs).
_COMMON_FLAGS = (
    ("file", dict(help="polytope file ('-' reads stdin)")),
    (
        "--output",
        dict(choices=("text", "json", "tsv"), default="text", help="report format (default text)"),
    ),
    (
        "--normalize",
        dict(
            action="store_true",
            help="divide non-primitive normals by their gcd when the offset allows",
        ),
    ),
    (
        "--budget",
        dict(
            type=_integer,
            default=None,
            help=f"max points to classify per enumeration, or facet subsets to walk; "
            f"count --k K above K = dim + 2 enumerates only its fit's small dilates "
            f"(default {DEFAULT_BUDGET}, env {BUDGET_ENV})",
        ),
    ),
)

def _load_spec(args):
    try:
        if args.file == "-":
            text = sys.stdin.read()
        else:
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read()
    except UnicodeDecodeError as exc:
        raise PolytopeParseError(
            f"input is not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc
    return parse_polytope_file(text, normalize=args.normalize)


def _budget(args) -> int:
    """The enumeration budget: --budget, else $DELZANT_BUDGET, else the default."""
    if args.budget is not None:
        budget, source = args.budget, "--budget"
    elif (env := os.environ.get(BUDGET_ENV)) is not None:
        source = f"{BUDGET_ENV}={cut(env)!r}"
        try:
            budget = _integer(env)
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"{BUDGET_ENV}: {exc}") from None
    else:
        return DEFAULT_BUDGET
    if budget < 1:
        raise UsageError(f"{source} must be a positive integer, got {cut(budget)}")
    return budget


def _polytope_json(spec) -> dict:
    return {
        "name": spec.name,
        "dim": spec.dim,
        "facets": [
            {"normal": list(normal), "offset": offset}
            for normal, offset in spec.facets
        ],
    }


def _emit(args, spec, payload: dict, text_lines: list[str], tsv_rows: list[tuple]) -> None:
    """Print one report; the JSON payload also carries the command and the polytope."""
    if args.output == "json":
        import json  # here, so that only a JSON report pays for loading it

        payload = {**payload, "command": args.command, "polytope": _polytope_json(spec)}
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.output == "tsv":
        for row in tsv_rows:
            print("\t".join(str(x) for x in row))
    else:
        for line in text_lines:
            print(line)


def cmd_validate(args, prep) -> Report:
    charts, report = prep.charts, prep.report
    payload = {
        "delzant": report.ok,
        "vertices": len(charts),
        "failures": [
            {
                "active_set": [i + 1 for i in f.active_set],
                "vertex": [str(c) for c in f.anchor],
                "det": f.det,
            }
            for f in report.failures
        ],
    }
    lines = [f"vertices: {len(charts)}", f"delzant: {'pass' if report.ok else 'fail'}"]
    rows = [("delzant", "pass" if report.ok else "fail"), ("vertices", len(charts))]
    for f in report.failures:
        coords = ", ".join(str(c) for c in f.anchor)
        lines.append(f"vertex ({coords}): det {f.det} != +-1")
        rows.append(("failure", f"({coords})", f.det))
    return payload, lines, rows, EXIT_OK if report.ok else NotDelzantError.exit_code


def cmd_faces(args, prep) -> Report:
    lattice = prep.lattice
    records = sorted(
        lattice.faces.values(), key=lambda r: (-r.dim, r.active_set)
    )
    payload = {
        "euler_sum": lattice.euler_sum(),
        "faces": [
            {
                "active_set": [i + 1 for i in rec.active_set],
                "dim": rec.dim,
                "vertices": [list(c.anchor_ints()) for c in rec.charts],
            }
            for rec in records
        ],
    }
    by_dim = Counter(rec.dim for rec in records)
    profile = ", ".join(f"{by_dim[d]} of dim {d}" for d in sorted(by_dim))
    lines = [f"faces: {len(records)} ({profile})"]
    rows = []
    for rec in records:
        label = _face_key_text(rec.active_set)
        vertices = " ".join(str(c.anchor_ints()) for c in rec.charts)
        lines.append(f"F {label}: dim {rec.dim}, vertices {vertices}")
        rows.append((label, rec.dim, len(rec.charts)))
    return payload, lines, rows, EXIT_OK


def cmd_volume_poly(args, prep) -> Report:
    offsets, vol, boundary = prep.spec.offsets(), prep.vol.poly, prep.boundary
    # each TSV key is its JSON key and, with spaces for underscores, its text label
    rows = [
        ("volume", vol.to_text()),
        ("volume_at_anchor", vol.evaluate(offsets)),
        ("boundary_volume", boundary.poly.to_text()),
        ("boundary_volume_at_anchor", boundary.poly.evaluate(offsets)),
    ]
    facet_texts = [p.to_text() for p in boundary.per_facet]
    payload = {**{key: str(value) for key, value in rows}, "per_facet": facet_texts}
    rows += [(f"facet_{i}", text) for i, text in enumerate(facet_texts, start=1)]
    lines = [f"{key.replace('_', ' ')}: {value}" for key, value in rows]
    return payload, lines, rows, EXIT_OK


def cmd_count(args, prep) -> Report:
    spec = prep.spec
    region, face = args.region
    if face is not None and face[-1] >= spec.num_facets:
        raise UsageError(
            f"--region face: facet {cut(face[-1] + 1)} does not exist, "
            f"the polytope has {spec.num_facets} facets"
        )
    region_text = region if face is None else "face=" + ",".join(
        str(i + 1) for i in face
    )
    payload = {
        "k": args.k,
        "region": region_text,
    }
    if args.output == "json":
        # the JSON report gives every region and proper face, not just the
        # one asked for; all are read from one enumeration of the dilate,
        # or above k = m + 2 from the fits through the same few small ones
        count = functools.partial(prep.count, args.k)
        value, total, interior = count(region, face), count("full"), count("interior")
        payload.update(
            count=value,
            total=total,
            interior=interior,
            boundary=total - interior,
            per_face=[
                {"active_set": [i + 1 for i in key], "count": count("face", key)}
                for key in (rec.active_set for rec in prep.lattice.proper_faces())
            ],
        )
    else:
        value = counting.count_points(
            spec, args.k, region, face=face, budget=prep.budget, charts=prep.charts
        )
    rows = [("k", args.k), ("region", region_text), ("count", value)]
    return payload, [str(value)], rows, EXIT_OK


def cmd_ehrhart(args, prep) -> Report:
    applied_text = None
    if args.method == "operator":
        result = operators.symbolic_ehrhart(prep, args.kind)
        # the one format that prints it; the interior is read off the full
        # polynomial, with no product of its own
        if args.output == "json" and args.kind != "interior":
            applied_text = prep.applied(args.kind).to_text()
    else:
        result = counting.ehrhart_interpolate(prep, args.kind)
    text = result.to_text()
    payload = {
        "kind": args.kind,
        "method": args.method,
        "polynomial": text,
        "coefficients": [str(c) for c in result.coeffs],
        "operator_applied": applied_text,
    }
    lines = [f"{args.kind} Ehrhart: {text}"]
    rows = [("kind", args.kind), ("method", args.method), ("polynomial", text)]
    return payload, lines, rows, EXIT_OK


def cmd_operator_count(args, prep) -> Report:
    kind = "full" if args.command == "khovanskii" else "boundary"
    value = operators.operator_count(prep, kind)
    payload, rows = {"count": value}, [("count", value)]
    if args.output != "text":  # text prints the count alone
        applied_text = prep.applied(kind).to_text()
        payload["operator_applied"] = applied_text
        rows.append(("operator_applied", applied_text))
    return payload, [str(value)], rows, EXIT_OK


def cmd_hilbert_cy(args, prep) -> Report:
    report = hilbert.cy_hilbert_polynomial(prep)
    faces = [(key, report.per_face[key].to_text()) for key in sorted(report.per_face)]
    oracle_text = report.by_oracle.to_text()
    payload = {
        "agree": report.agree,
        "by_inclusion_exclusion": report.by_inclusion_exclusion.to_text(),
        "by_operator_formula": report.by_operator_formula.to_text(),
        "by_oracle": oracle_text,
        "per_face": [
            {
                "active_set": [i + 1 for i in key],
                "dim": prep.spec.dim - len(key),
                "polynomial": text,
            }
            for key, text in faces
        ],
    }
    lines = [
        f"boundary Ehrhart: {oracle_text}",
        "agreement: inclusion-exclusion, operator, and oracle routes all equal",
    ]
    rows = [
        ("boundary_ehrhart", oracle_text),
        ("agree", report.agree),
    ]
    for key, text in faces:
        label = f"face {_face_key_text(key)}"
        lines.append(f"{label}: {text}")
        rows.append((label, text))
    return payload, lines, rows, EXIT_OK


def cmd_cross_check(args, prep) -> Report:
    report = hilbert.cross_check(prep)
    payload = {
        "ok": report.ok,
        "checks": [
            {"name": c.name, "ok": c.ok, "detail": c.detail} for c in report.checks
        ],
    }
    lines = [
        f"{c.name}: {'pass' if c.ok else 'FAIL'} ({c.detail})" for c in report.checks
    ]
    passed = sum(1 for c in report.checks if c.ok)
    lines.append(f"cross-check: {passed}/{len(report.checks)} checks passed")
    rows = [(c.name, "pass" if c.ok else "fail", c.detail) for c in report.checks]
    return payload, lines, rows, EXIT_OK if report.ok else FormulaViolationError.exit_code


# name -> (help text, the flags it adds to _COMMON_FLAGS, its report
# builder), in help order
COMMANDS = {
    "validate": ("check the Delzant condition at every vertex", (), cmd_validate),
    "faces": ("list the face lattice", (), cmd_faces),
    "volume-poly": ("volume and boundary-volume polynomials in the offsets", (), cmd_volume_poly),
    "count": (
        "count lattice points of the k-fold dilate",
        (
            ("--k", dict(type=_integer, default=1, help="dilation factor (default 1)")),
            (
                "--region",
                dict(
                    type=_parse_region,
                    default=("full", None),
                    help="full, interior, boundary, or face=1,2 (default full)",
                ),
            ),
        ),
        cmd_count,
    ),
    "ehrhart": (
        "Ehrhart polynomial in the dilation factor",
        (
            (
                "--kind",
                dict(
                    choices=("full", "interior", "boundary"),
                    default="full",
                    help="which count the polynomial tracks (default full)",
                ),
            ),
            (
                "--method",
                dict(
                    choices=("interpolate", "operator"),
                    default="interpolate",
                    help="interpolation of exact counts or the operator route "
                    "(default interpolate)",
                ),
            ),
        ),
        cmd_ehrhart,
    ),
    "khovanskii": ("lattice point count via the Todd operator formula", (), cmd_operator_count),
    "boundary-formula": (
        "boundary point count via the A-hat operator formula",
        (),
        cmd_operator_count,
    ),
    "hilbert-cy": (
        "boundary Hilbert polynomial, three ways, with agreement check",
        (),
        cmd_hilbert_cy,
    ),
    "cross-check": ("run every identity in the package against the input", (), cmd_cross_check),
}


def _add_flags(parser: argparse.ArgumentParser, flags) -> argparse.ArgumentParser:
    """A command's parser: ``parser`` with the common flags and ``flags``."""
    for flag, kwargs in (*_COMMON_FLAGS, *flags):
        parser.add_argument(flag, **kwargs)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full parser: the top level's --version and all nine subcommands."""
    parser = _Parser(
        prog="delzant",
        description="Exact lattice point counts and Hilbert polynomials "
        "for Delzant polytopes.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _) in COMMANDS.items():
        _add_flags(sub.add_parser(name, help=help_text), flags)
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """Command ``name``'s parser, built on its first use in a process."""
    return _add_flags(_Parser(prog=f"delzant {name}"), COMMANDS[name][1])


def parse_command_line(argv) -> argparse.Namespace:
    """The parsed command line ``argv``.

    When ``argv`` starts with a command name, that command's parser alone
    reads the rest: it is the parser ``build_parser`` registers for it,
    and the full parser would hand it every later word.  Each command's
    parser is built once per process and parses every later line of that
    command into a fresh namespace.  Any other ``argv`` (the top-level
    help or --version, an option first, an unknown command, no words)
    goes to the full parser, built anew each time.
    """
    if argv and argv[0] in COMMANDS:
        name = argv[0]
        return _command_parser(name).parse_args(argv[1:], argparse.Namespace(command=name))
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    digits = max_digits()
    try:
        args = parse_command_line(argv)
        args.budget = _budget(args)
        if args.command == "count" and args.k < 1:
            raise UsageError(f"--k must be a positive integer, got {cut(args.k)}")
        prep = Prepared(_load_spec(args), args.budget)
        _set_digits(0)  # read tokens keep Python's digit limit; exact results print in full
        if args.command != "validate":
            prep.require_delzant()
        payload, lines, rows, code = COMMANDS[args.command][2](args, prep)
        _emit(args, prep.spec, payload, lines, rows)
        return code
    except DelzantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED
    finally:
        _set_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
