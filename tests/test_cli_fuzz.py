"""The command line's error contract under mutated input.

Corpus texts with tokens replaced, dropped or inserted, lines repeated or
dropped, and huge integers go through every command and output format,
in process.  Whatever the input, ``main`` returns a documented exit code
(0-6) and writes at most one stderr line, an ``error: `` line, never a
traceback.
"""

import contextlib
import io

from hypothesis import example, given, settings, strategies as st

from delzant.cli import COMMANDS, main
from delzant.corpus import corpus_names, corpus_text

# 2,502 digits parse (the limit for int() of a string is 4,300), but a
# square or a box size of them does not print by default; 5,000 do not parse
HUGE = ("7" + "0" * 2500 + "1", "-" + "9" * 2502, "9" * 5000, str(10**40), str(-(2**64)))
WORDS = ("+4", "-0", "1.5", "1/2", "1e3", "x", "dim", "facet", "name", "#", "\ufeff")
TOKENS = st.one_of(st.integers(-3, 7).map(str), st.sampled_from(HUGE), st.sampled_from(WORDS))

REGIONS = ("interior", "boundary", "face=1", "face=1,2", "face=9")

# per command, the flags it adds beyond the common ones, as argv pieces
EXTRA_FLAGS = {
    "count": st.tuples(
        st.sampled_from([(), ("--k", "0"), ("--k", "2"), ("--k", "-1"), ("--k", "x")]),
        st.sampled_from([()] + [("--region", region) for region in REGIONS]),
    ).map(lambda pair: pair[0] + pair[1]),
    "ehrhart": st.tuples(
        st.sampled_from([(), ("--kind", "interior"), ("--kind", "boundary")]),
        st.sampled_from([(), ("--method", "operator")]),
    ).map(lambda pair: pair[0] + pair[1]),
}


@st.composite
def mutated_text(draw):
    """A corpus text after a few token and line edits."""
    text = corpus_text(draw(st.sampled_from(corpus_names())))
    lines = [line.split() for line in text.splitlines()]
    for _ in range(draw(st.integers(0, 4))):
        if not lines:
            break
        edit = draw(st.sampled_from(["replace", "drop", "insert", "repeat_line", "drop_line"]))
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i]
        if edit == "repeat_line":
            lines.insert(i, list(tokens))
        elif edit == "drop_line":
            del lines[i]
        elif edit == "insert":
            tokens.insert(draw(st.integers(0, len(tokens))), draw(TOKENS))
        elif tokens:
            j = draw(st.integers(0, len(tokens) - 1))
            if edit == "drop":
                del tokens[j]
            else:
                tokens[j] = draw(TOKENS)
    return "\n".join(" ".join(tokens) for tokens in lines) + "\n"


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags = draw(EXTRA_FLAGS.get(command, st.just(())))
    output = draw(st.sampled_from(["text", "json", "tsv"]))
    normalize = draw(st.sampled_from([(), ("--normalize",)]))
    return [command, *flags, *normalize, "--output", output, "--budget", "100000"]


# a simplex with a 2,502-digit offset: its volume and its box size need
# over 4,300 digits, the volume in a report, the box size in an error
HUGE_SIMPLEX = f"dim 2\nfacet -1 0 0\nfacet 0 -1 0\nfacet 1 1 {HUGE[0]}\n"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(text=mutated_text(), argv=command_lines())
@example(text=HUGE_SIMPLEX, argv=["volume-poly", "--output", "json", "--budget", "100000"])
@example(text=HUGE_SIMPLEX, argv=["count", "--output", "text", "--budget", "100000"])
def test_mutated_input_ends_in_one_error_line_and_a_documented_code(tmp_path_factory, text, argv):
    path = tmp_path_factory.getbasetemp() / "fuzz.poly"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, str(path)])
    message = err.getvalue()
    assert 0 <= code <= 6, (code, message)
    assert "Traceback" not in message
    assert len(message.splitlines()) <= 1, message
    if message:
        assert message.startswith("error: "), message
