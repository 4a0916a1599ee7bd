"""Byte-for-byte golden outputs of the symbolic commands on the corpus.

Covers volume-poly, khovanskii, boundary-formula and ehrhart --method
operator (kinds full and boundary) in every output format on every
Delzant corpus file: the volume polynomial and the operator route must
print exactly what ``golden/symbolic.json`` holds.  Re-record only when
an output change is intended:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from delzant.cli import main
from delzant.corpus import DELZANT_CORPUS, corpus_text

GOLDEN = Path(__file__).with_name("golden") / "symbolic.json"

COMMANDS = (
    ("volume-poly",),
    ("khovanskii",),
    ("boundary-formula",),
    ("ehrhart", "--method", "operator", "--kind", "full"),
    ("ehrhart", "--method", "operator", "--kind", "boundary"),
)
FORMATS = ("text", "json", "tsv")


def _key(command, fmt, name):
    return " ".join(command) + f" --output {fmt} {name}"


def _run(command, fmt, path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*command, "--output", fmt, str(path)])
    return {"exit": code, "stdout": out.getvalue()}


def _write_corpus(directory: Path) -> dict:
    paths = {}
    for name in DELZANT_CORPUS:
        paths[name] = directory / f"{name}.poly"
        paths[name].write_text(corpus_text(name), encoding="utf-8")
    return paths


@pytest.fixture(scope="module")
def corpus_paths(tmp_path_factory):
    return _write_corpus(tmp_path_factory.mktemp("corpus"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: "-".join(c).replace("--", ""))
@pytest.mark.parametrize("name", DELZANT_CORPUS)
def test_symbolic_output_matches_golden(name, command, corpus_paths, golden):
    for fmt in FORMATS:
        key = _key(command, fmt, name)
        assert _run(command, fmt, corpus_paths[name]) == golden[key], key


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write_corpus(Path(tmp))
        outputs = {
            _key(command, fmt, name): _run(command, fmt, paths[name])
            for name in DELZANT_CORPUS
            for command in COMMANDS
            for fmt in FORMATS
        }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(outputs)} outputs to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    record()
