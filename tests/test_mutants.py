"""The mutation gate (``tests/mutants.py``) stays applicable: every old
snippet occurs exactly once in its file, and every killing test exists."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_each_old_snippet_occurs_exactly_once(mutant):
    text = (ROOT / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    for node in mutant.tests:
        path, *names = node.split("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        assert f"def {names[-1]}(" in source, node


def test_mutant_names_are_distinct():
    names = [mutant.name for mutant in MUTANTS]
    assert len(set(names)) == len(names)
