"""Byte-for-byte golden outputs of every command on the corpus.

``golden/symbolic.json`` covers volume-poly, khovanskii, boundary-formula
and ehrhart --method operator (kinds full and boundary) in every output
format on every Delzant corpus file: the volume polynomial and the
operator route must print exactly what it holds.  ``golden/commands.json``
covers the other commands (validate, faces, count in four regions,
ehrhart by interpolation in three kinds, hilbert-cy and cross-check) in
every output format on every corpus file, the two negative ones
included, and also pins what they write to stderr.  The three formats of
volume-poly on the d = 22 fixture ``data/cube5_blowup12.poly`` are pinned
by their sha256 (``LARGE_VOLUME_POLY``).  Re-record both files only when
an output change is intended:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from delzant.cli import main
from delzant.corpus import DELZANT_CORPUS, corpus_names, corpus_text

GOLDEN_DIR = Path(__file__).with_name("golden")

SYMBOLIC_COMMANDS = (
    ("volume-poly",),
    ("khovanskii",),
    ("boundary-formula",),
    ("ehrhart", "--method", "operator", "--kind", "full"),
    ("ehrhart", "--method", "operator", "--kind", "boundary"),
)
OTHER_COMMANDS = (
    ("validate",),
    ("faces",),
    ("count", "--k", "2", "--region", "full"),
    ("count", "--k", "2", "--region", "interior"),
    ("count", "--k", "2", "--region", "boundary"),
    ("count", "--k", "2", "--region", "face=1"),
    ("ehrhart", "--kind", "full"),
    ("ehrhart", "--kind", "interior"),
    ("ehrhart", "--kind", "boundary"),
    ("hilbert-cy",),
    ("cross-check",),
)
FORMATS = ("text", "json", "tsv")

# golden file -> (commands, corpus names, whether stderr is pinned too)
GOLDENS = {
    "symbolic.json": (SYMBOLIC_COMMANDS, DELZANT_CORPUS, False),
    "commands.json": (OTHER_COMMANDS, corpus_names(), True),
}


def _key(command, fmt, name):
    return " ".join(command) + f" --output {fmt} {name}"


def _run(command, fmt, path, with_stderr):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command, "--output", fmt, str(path)])
    result = {"exit": code, "stdout": out.getvalue()}
    if with_stderr:
        result["stderr"] = err.getvalue()
    return result


def _write_corpus(directory: Path) -> dict:
    paths = {}
    for name in corpus_names():
        paths[name] = directory / f"{name}.poly"
        paths[name].write_text(corpus_text(name), encoding="utf-8")
    return paths


def _cases(filename):
    commands, names, _ = GOLDENS[filename]
    return [(name, command) for name in names for command in commands]


def _case_id(case):
    name, command = case
    return name + "-" + "-".join(command).replace("--", "")


@pytest.fixture(scope="module")
def corpus_paths(tmp_path_factory):
    return _write_corpus(tmp_path_factory.mktemp("corpus"))


@pytest.fixture(scope="module")
def golden():
    return {
        filename: json.loads((GOLDEN_DIR / filename).read_text(encoding="utf-8"))
        for filename in GOLDENS
    }


def _check(filename, name, command, corpus_paths, golden):
    with_stderr = GOLDENS[filename][2]
    for fmt in FORMATS:
        key = _key(command, fmt, name)
        got = _run(command, fmt, corpus_paths[name], with_stderr)
        assert got == golden[filename][key], key


@pytest.mark.parametrize("case", _cases("symbolic.json"), ids=_case_id)
def test_symbolic_output_matches_golden(case, corpus_paths, golden):
    _check("symbolic.json", *case, corpus_paths, golden)


@pytest.mark.parametrize("case", _cases("commands.json"), ids=_case_id)
def test_command_output_matches_golden(case, corpus_paths, golden):
    _check("commands.json", *case, corpus_paths, golden)


# volume-poly on the d = 22 fixture (a 5-cube with 12 vertices cut off),
# 2,382 terms across its polynomials: format -> (stdout bytes, sha256)
LARGE_VOLUME_POLY = {
    "text": (202_625, "47b4608268ead00e8e3298b1298f1d5d6ebad5826e4296bd475576c42a87057e"),
    "json": (205_706, "9d1ba5c232f7ec8d8343117f75177fcb29e0578158823c3539275d6a1b56ed01"),
    "tsv": (202_599, "5e572ae1f1301af3b892adc78a0064abc5f0c910918f013a8317ff271053311d"),
}


@pytest.mark.parametrize("fmt", FORMATS)
def test_large_volume_poly_output_is_pinned(fmt):
    path = Path(__file__).with_name("data") / "cube5_blowup12.poly"
    got = _run(("volume-poly",), fmt, path, with_stderr=True)
    stdout = got["stdout"].encode("utf-8")
    size, digest = LARGE_VOLUME_POLY[fmt]
    assert (got["exit"], got["stderr"]) == (0, "")
    assert len(stdout) == size
    assert hashlib.sha256(stdout).hexdigest() == digest


def record() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write_corpus(Path(tmp))
        for filename, (commands, names, with_stderr) in GOLDENS.items():
            outputs = {
                _key(command, fmt, name): _run(command, fmt, paths[name], with_stderr)
                for name in names
                for command in commands
                for fmt in FORMATS
            }
            path = GOLDEN_DIR / filename
            path.write_text(
                json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8"
            )
            print(f"wrote {len(outputs)} outputs to {path}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    record()
