import contextlib
import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path
from unittest import mock

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import delzant
from delzant import cli
from delzant.cli import main
from delzant.corpus import corpus_text
from delzant.errors import DEFAULT_BUDGET
from delzant.polynomial import MultiPoly, UniPoly
from delzant.prepared import Prepared

SCHEMA = json.loads(
    resources.files("delzant")
    .joinpath("schemas", "cli_output.schema.json")
    .read_text(encoding="utf-8")
)


@pytest.fixture
def poly_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.poly"
        path.write_text(corpus_text(name), encoding="utf-8")
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTextOutput:
    def test_hilbert_cy_headline(self, poly_file, capsys):
        code, out, _ = run(capsys, "hilbert-cy", poly_file("simplex_3"))
        assert code == 0
        assert out.splitlines()[0] == "boundary Ehrhart: 2k^2 + 2"

    def test_validate_failure_reports_vertex(self, poly_file, capsys):
        code, out, _ = run(capsys, "validate", poly_file("triangle_det2"))
        assert code == 4
        assert "vertex (1, 0): det 2 != +-1" in out

    def test_count_boundary(self, poly_file, capsys):
        code, out, _ = run(
            capsys, "count", "--k", "2", "--region", "boundary", poly_file("simplex_2")
        )
        assert code == 0
        assert out.strip() == "6"

    def test_count_face_region(self, poly_file, capsys):
        code, out, _ = run(
            capsys, "count", "--k", "4", "--region", "face=3", poly_file("simplex_2")
        )
        assert code == 0
        assert out.strip() == "5"

    def test_khovanskii_bare_count(self, poly_file, capsys):
        code, out, _ = run(capsys, "khovanskii", poly_file("square_unit"))
        assert code == 0
        assert out.splitlines()[0] == "4"

    def test_boundary_formula(self, poly_file, capsys):
        code, out, _ = run(capsys, "boundary-formula", poly_file("simplex_4"))
        assert code == 0
        assert out.splitlines()[0] == "5"

    def test_ehrhart_methods_agree(self, poly_file, capsys):
        path = poly_file("hirzebruch_a")
        _, via_interp, _ = run(capsys, "ehrhart", "--kind", "boundary", path)
        _, via_op, _ = run(
            capsys, "ehrhart", "--kind", "boundary", "--method", "operator", path
        )
        assert via_interp == via_op
        assert via_interp.startswith("boundary Ehrhart: ")

    def test_cross_check_summary(self, poly_file, capsys):
        code, out, _ = run(capsys, "cross-check", poly_file("segment_unit"))
        assert code == 0
        assert "cross-check: 10/10 checks passed" in out

    def test_volume_poly(self, poly_file, capsys):
        code, out, _ = run(capsys, "volume-poly", poly_file("square_unit"))
        assert code == 0
        assert "volume at anchor: 1" in out
        assert "boundary volume at anchor: 4" in out


class TestJsonOutput:
    COMMANDS = [
        ("validate", []),
        ("faces", []),
        ("volume-poly", []),
        ("count", ["--k", "2", "--region", "boundary"]),
        ("ehrhart", ["--kind", "full"]),
        ("khovanskii", []),
        ("boundary-formula", []),
        ("hilbert-cy", []),
        ("cross-check", []),
    ]

    @pytest.mark.parametrize("command,flags", COMMANDS)
    def test_every_command_validates_against_schema(
        self, command, flags, poly_file, capsys
    ):
        code, out, _ = run(
            capsys, command, *flags, "--output", "json", poly_file("hirzebruch_a")
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, SCHEMA)
        assert payload["command"] == command

    def test_validate_failure_payload(self, poly_file, capsys):
        code, out, _ = run(
            capsys, "validate", "--output", "json", poly_file("triangle_det2")
        )
        assert code == 4
        payload = json.loads(out)
        jsonschema.validate(payload, SCHEMA)
        assert payload["delzant"] is False
        assert payload["failures"][0]["det"] == 2

    def test_hilbert_payload_contents(self, poly_file, capsys):
        code, out, _ = run(
            capsys, "hilbert-cy", "--output", "json", poly_file("simplex_2")
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["agree"] is True
        assert payload["by_oracle"] == "3k"
        assert payload["by_inclusion_exclusion"] == "3k"
        assert payload["by_operator_formula"] == "3k"

    def test_count_payload_mirrors_count_report(self, poly_file, capsys):
        code, out, _ = run(
            capsys,
            "count", "--k", "2", "--region", "boundary", "--output", "json",
            poly_file("simplex_2"),
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, SCHEMA)
        assert payload["count"] == 6
        assert payload["total"] == 6
        assert payload["interior"] == 0
        assert payload["boundary"] == 6
        by_set = {tuple(f["active_set"]): f["count"] for f in payload["per_face"]}
        assert by_set[(3,)] == 3  # the dilated hypotenuse carries 3 points
        assert by_set[(1, 2)] == 1

    def test_count_payload_comes_from_one_enumeration(
        self, poly_file, capsys, monkeypatch
    ):
        import delzant.counting as counting_mod

        dilations = []
        original = counting_mod._box

        def recording(spec, k, *args):
            dilations.append(k)
            return original(spec, k, *args)

        monkeypatch.setattr(counting_mod, "_box", recording)
        code, out, _ = run(
            capsys,
            "count", "--k", "3", "--region", "face=2", "--output", "json",
            poly_file("cube_unit"),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 16
        assert len(payload["per_face"]) == 26
        assert dilations == [3]

    @pytest.mark.parametrize(
        "argv, order, field, value",
        [
            (("khovanskii",), 3, "count", 8),
            (("boundary-formula",), 2, "count", 8),
            (("ehrhart", "--method", "operator", "--kind", "full"), 3,
             "polynomial", "k^3 + 3k^2 + 3k + 1"),
            (("ehrhart", "--method", "operator", "--kind", "boundary"), 2,
             "polynomial", "6k^2 + 2"),
        ],
        ids=["khovanskii", "boundary-formula", "ehrhart-full", "ehrhart-boundary"],
    )
    def test_operator_payload_comes_from_one_application(
        self, argv, order, field, value, poly_file, capsys, monkeypatch
    ):
        import delzant.operators as operators_mod

        orders = []
        original = operators_mod.apply_operator_product

        def recording(kind, p):
            orders.append(p.total_degree)
            return original(kind, p)

        monkeypatch.setattr(operators_mod, "apply_operator_product", recording)
        code, out, _ = run(capsys, *argv, "--output", "json", poly_file("cube_unit"))
        assert code == 0
        payload = json.loads(out)
        assert payload[field] == value
        assert payload["operator_applied"]
        assert orders == [order]

    def test_ehrhart_operator_payload_carries_audit_polynomial(
        self, poly_file, capsys
    ):
        code, out, _ = run(
            capsys,
            "ehrhart", "--kind", "full", "--method", "operator", "--output", "json",
            poly_file("segment_unit"),
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, SCHEMA)
        assert payload["operator_applied"] == "l1 + l2 + 1"
        code, out, _ = run(
            capsys, "ehrhart", "--output", "json", poly_file("segment_unit")
        )
        payload = json.loads(out)
        jsonschema.validate(payload, SCHEMA)
        assert payload["operator_applied"] is None


class TestReportBuilders:
    """Each command table entry builds its report and prints nothing; ``main``
    prints that one report."""

    @pytest.mark.parametrize("output", ["text", "json", "tsv"])
    @pytest.mark.parametrize("name", list(cli.COMMANDS))
    def test_builder_is_pure_and_main_prints_its_report(
        self, name, output, poly_file, capsys
    ):
        argv = [name, "--output", output, poly_file("simplex_2")]
        args = cli.parse_command_line(argv)
        prep = Prepared(cli._load_spec(args), DEFAULT_BUDGET)
        payload, lines, rows, code = cli.COMMANDS[name][2](args, prep)
        assert capsys.readouterr() == ("", "")
        assert main(argv) == code == 0
        out, err = capsys.readouterr()
        assert not err
        if output == "json":
            printed = json.loads(out)
            assert printed.pop("command") == name
            assert printed.pop("polytope")["dim"] == 2
            assert printed == json.loads(json.dumps(payload))
        elif output == "tsv":
            assert out.splitlines() == ["\t".join(str(x) for x in row) for row in rows]
        else:
            assert out.splitlines() == lines

    @pytest.mark.parametrize(
        "argv, formatted",
        [
            # one per proper face (3 edges, 3 vertices), one per route
            (("hilbert-cy",), 6 + 3),
            (("ehrhart",), 1),
            # the operator-applied volume is formatted only where it is
            # printed: JSON of ehrhart, JSON and TSV of the two operator counts
            (("ehrhart", "--method", "operator"), 1),
            (("ehrhart", "--method", "operator", "--output", "tsv"), 1),
            (("ehrhart", "--method", "operator", "--output", "json"), 2),
            (("khovanskii",), 0),
            (("boundary-formula",), 0),
            (("khovanskii", "--output", "tsv"), 1),
            (("boundary-formula", "--output", "json"), 1),
        ],
        ids=lambda value: "-".join(value).replace("--", "") if isinstance(value, tuple) else None,
    )
    def test_builder_formats_each_polynomial_once(
        self, argv, formatted, poly_file, monkeypatch
    ):
        argv = [*argv, poly_file("simplex_2")]
        args = cli.parse_command_line(argv)
        prep = Prepared(cli._load_spec(args), DEFAULT_BUDGET)
        calls = []
        for cls in (UniPoly, MultiPoly):
            to_text = cls.to_text
            monkeypatch.setattr(
                cls, "to_text", lambda self, f=to_text: calls.append(self) or f(self)
            )
        cli.COMMANDS[argv[0]][2](args, prep)
        assert len(calls) == formatted


class TestExitCodes:
    def test_parse_error_is_3(self, tmp_path, capsys):
        path = tmp_path / "bad.poly"
        path.write_text("dim 2\nfacet -1 0\n", encoding="utf-8")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 3
        assert "line 2" in err

    def test_non_simple_is_4(self, poly_file, capsys):
        code, _, err = run(capsys, "count", poly_file("pyramid_nonsimple"))
        assert code == 4
        assert "not simple" in err

    @pytest.mark.parametrize(
        "facets, message",
        [
            (
                ["-1 0 0", "1 0 1", "0 1 1"],
                "polytope is unbounded along (0, -1)",
            ),
            (
                ["0 0 -1 0", "1 0 1 1", "-1 0 1 1", "0 1 1 1", "0 -1 1 1"],
                "vertex (0, 0, 1) lies on 4 facets [2, 3, 4, 5]; polytope is not simple",
            ),
            (
                ["1 0 1 1", "-1 0 1 1", "0 1 1 1", "0 -1 1 1", "0 0 -1 0"],
                "vertex (0, 0, 1) lies on 4 facets [1, 2, 3, 4]; polytope is not simple",
            ),
            (
                ["-1 0 0", "0 -1 0", "1 1 -1"],
                "the half-space intersection is empty",
            ),
            (
                ["-1 0 0", "1 0 1", "0 -1 0", "0 1 1", "1 1 5"],
                "facets [5] carry no vertex (redundant inequality)",
            ),
            (
                # empty, though its recession cone holds the ray (0, -1)
                ["1 0 0", "-1 0 -1", "0 1 0"],
                "the half-space intersection is empty",
            ),
            (
                # unbounded along (0, 1) as well as not simple
                ["-1 0 -2", "0 -1 -2", "2 -1 2"],
                "vertex (2, 2) lies on 3 facets [1, 2, 3]; polytope is not simple",
            ),
        ],
        ids=[
            "unbounded",
            "non-simple-mid-walk",
            "non-simple-start",
            "empty",
            "redundant",
            "empty-with-recession-ray",
            "non-simple-and-unbounded",
        ],
    )
    def test_structure_errors_from_validate_are_4(self, facets, message, tmp_path, capsys):
        dim = len(facets[0].split()) - 1
        path = tmp_path / "degenerate.poly"
        path.write_text(
            f"dim {dim}\n" + "".join(f"facet {f}\n" for f in facets), encoding="utf-8"
        )
        code, out, err = run(capsys, "validate", str(path))
        assert code == 4
        assert out == ""
        assert err == f"error: {message}\n"

    def test_budget_exceeded_is_5(self, poly_file, capsys):
        code, _, err = run(
            capsys, "count", "--k", "50", "--budget", "100", poly_file("cube_2")
        )
        assert code == 5
        assert "budget" in err

    def test_ehrhart_interpolation_budget_exceeded_is_5(self, poly_file, capsys):
        # the k = 1 box of the 2-cube [0, 2]^3 holds 3^3 points
        code, out, err = run(capsys, "ehrhart", "--budget", "10", poly_file("cube_2"))
        assert (code, out) == (5, "")
        assert err == "error: enumeration needs 27 point classifications, budget is 10\n"

    def test_fitted_count_budget_splits_json_from_text_and_tsv(self, poly_file, capsys):
        # Above k = m + 2 text and TSV fit the boundary alone (degree 2: nodes
        # k = 1, 2, a 3^3 box), while JSON also fits the full and interior counts
        # (degree 3: node k = 3, a 4^3 box), so a budget of 30 parts them. This
        # pins today's split; ROADMAP item 8c (one budget total per command) is
        # the change allowed to move it.
        argv = ("count", "--k", "10", "--region", "boundary", "--budget", "30")
        cube = poly_file("cube_unit")
        assert run(capsys, *argv, cube) == (0, "602\n", "")
        assert run(capsys, *argv, "--output", "tsv", cube) == (
            0, "k\t10\nregion\tboundary\ncount\t602\n", ""
        )
        assert run(capsys, *argv, "--output", "json", cube) == (
            5, "", "error: enumeration needs 64 point classifications, budget is 30\n"
        )

    def test_cross_check_budget_exceeded_is_5(self, poly_file, capsys):
        # the budget ends the command; it is not one more failed identity
        code, out, err = run(
            capsys, "cross-check", "--budget", "5", poly_file("simplex_2")
        )
        assert code == 5
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "budget is 5" in err

    # [0, 2]^2 with the corners (0, 0) and (2, 2) cut off: 2^6 - 1 = 63 facet
    # subsets, and at most 7 x 7 = 49 points per hilbert-cy enumeration
    HEXAGON = (
        "dim 2\nfacet -1 0 0\nfacet 0 -1 0\nfacet 1 0 2\nfacet 0 1 2\n"
        "facet -1 -1 -1\nfacet 1 1 3\n"
    )

    @pytest.mark.parametrize("command", ["hilbert-cy", "cross-check"])
    def test_subset_walk_over_budget_is_5(self, command, tmp_path, capsys):
        path = tmp_path / "hexagon.poly"
        path.write_text(self.HEXAGON, encoding="utf-8")
        code, out, err = run(capsys, command, "--budget", "62", str(path))
        assert (code, out) == (5, "")
        assert err == "error: inclusion-exclusion needs 63 facet subsets, budget is 62\n"
        # 63 subsets fit a budget of 63, and every hilbert-cy enumeration fits too
        assert run(capsys, "hilbert-cy", "--budget", "63", str(path))[0] == 0

    def test_cross_check_reports_an_oracle_that_rejects_everything_as_6(
        self, poly_file, capsys, monkeypatch
    ):
        # a determinant of the wrong sign mirrors every oracle vertex, so no
        # sample offsets keep the anchor's incidence; the check fails, and
        # the command ends
        import delzant.volume as volume_mod

        solve = volume_mod._solve

        def flipped(rows, rhs):
            det, x = solve(rows, rhs)
            return -det, x

        monkeypatch.setattr(volume_mod, "_solve", flipped)
        code, out, _ = run(capsys, "cross-check", poly_file("simplex_2"))
        assert code == 6
        assert "volume_oracle_samples: FAIL (ChamberCrossedError: " in out
        assert "cross-check: 9/10 checks passed" in out

    def test_budget_env_override(self, poly_file, capsys, monkeypatch):
        monkeypatch.setenv("DELZANT_BUDGET", "100")
        code, _, _ = run(capsys, "count", "--k", "50", poly_file("cube_2"))
        assert code == 5
        # explicit flag wins over the environment
        code, out, _ = run(
            capsys, "count", "--k", "50", "--budget", "10000000", poly_file("cube_2")
        )
        assert code == 0
        assert out.strip() == str(101**3)

    def test_usage_error_is_2(self, poly_file, capsys):
        code, _, err = run(
            capsys,
            "ehrhart",
            "--kind",
            "interior",
            "--method",
            "operator",
            poly_file("simplex_2"),
        )
        assert code == 2
        assert "full and boundary" in err

    @staticmethod
    def assert_one_line_usage_error(code, err, *words):
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        for word in words:
            assert word in err

    def test_dilation_zero_is_usage_error(self, poly_file, capsys):
        code, _, err = run(capsys, "count", "--k", "0", poly_file("simplex_2"))
        self.assert_one_line_usage_error(code, err, "--k", "0")

    def test_negative_dilation_is_usage_error(self, poly_file, capsys):
        code, _, err = run(capsys, "count", "--k", "-3", poly_file("simplex_2"))
        self.assert_one_line_usage_error(code, err, "--k", "-3")

    def test_face_index_beyond_facet_count_is_usage_error(self, poly_file, capsys):
        code, _, err = run(
            capsys, "count", "--region", "face=99", "--output", "json",
            poly_file("simplex_2"),
        )
        self.assert_one_line_usage_error(code, err, "99", "3 facets")

    def test_malformed_budget_env_is_usage_error(self, poly_file, capsys, monkeypatch):
        monkeypatch.setenv("DELZANT_BUDGET", "abc")
        code, _, err = run(capsys, "count", poly_file("simplex_2"))
        self.assert_one_line_usage_error(code, err, "DELZANT_BUDGET", "abc")

    def test_negative_budget_is_usage_error(self, poly_file, capsys):
        code, _, err = run(
            capsys, "count", "--budget", "-1", poly_file("simplex_2")
        )
        self.assert_one_line_usage_error(code, err, "--budget", "-1")

    def test_malformed_face_region_is_one_line_usage_error(self, poly_file, capsys):
        code, _, err = run(
            capsys, "count", "--region", "face=x", poly_file("simplex_2")
        )
        self.assert_one_line_usage_error(code, err, "--region", "face=x")

    def test_repeated_face_index_is_one_line_usage_error(self, poly_file, capsys):
        code, _, err = run(
            capsys, "count", "--region", "face=1,1", poly_file("simplex_2")
        )
        self.assert_one_line_usage_error(code, err, "repeated", "face=1,1")

    def test_non_integer_dilation_is_one_line_usage_error(self, poly_file, capsys):
        code, _, err = run(capsys, "count", "--k", "abc", poly_file("simplex_2"))
        self.assert_one_line_usage_error(code, err, "--k", "abc")

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this Python has no int-to-str digit limit",
    )
    @pytest.mark.parametrize("flag", ["--k", "--budget", "DELZANT_BUDGET"])
    def test_over_long_integer_flag_is_one_short_usage_error(
        self, flag, poly_file, capsys, monkeypatch
    ):
        argv = ["count", poly_file("simplex_2")]
        if flag == "DELZANT_BUDGET":
            # int() takes surrounding whitespace, and so does the digit count
            monkeypatch.setenv(flag, " " + "9" * 5000 + "\n")
        else:
            argv[1:1] = [flag, "9" * 5000]
        code, out, err = run(capsys, *argv)
        shown = "'99999999999999999999...' has 5000 digits"
        self.assert_one_line_usage_error(code, err, flag, shown)
        assert len(err) < 120 and not out

    @pytest.mark.parametrize(
        "argv, shown",
        [
            (("count", "--k", "x" * 5000), "--k: invalid int value: 'xxxxxxxxxxxxxxxxxxxx...'"),
            (
                ("count", "--k", "-" + "9" * 4000),
                "--k must be a positive integer, got -99999999999",
            ),
            (("count", "--budget", "-" + "9" * 4000), "got -9999999999999999999..."),
            (
                ("count", "--region", "face=" + "9" * 4000),
                "facet 99999999999999999999... does not",
            ),
            (
                ("count", "--region", "face=" + "9" * 5000),
                "'99999999999999999999...' has 5000 digits",
            ),
            (("count", "--region", "x" * 5000), "unknown region 'xxxxxxxxxxxxxxxxxxxx...'"),
            (("count", "--region", "face=1," + "x" * 5000), "list in 'face=1,xxxxxxxxxxxxx...'"),
            (
                ("count", "--output", "x" * 5000),
                "--output: invalid choice: 'xxxxxxxxxxxxxxxxxxxx...' (choose",
            ),
            (
                ("count", "--output", "x'" + "y" * 5000),
                """--output: invalid choice: "x'yyyyyyyyyyyyyyyyyy..." (choose""",
            ),
            (
                ("ehrhart", "--kind", "x" * 5000),
                "--kind: invalid choice: 'xxxxxxxxxxxxxxxxxxxx...' (choose",
            ),
            (("x" * 5000,), "command: invalid choice: 'xxxxxxxxxxxxxxxxxxxx...' (choose"),
            (("count", "--" + "x" * 5000), "unrecognized arguments: --xxxxxxxxxxxxxxxxxx..."),
        ],
        ids=[
            "bad --k",
            "negative --k",
            "negative --budget",
            "no such facet",
            "face index over the digit limit",
            "unknown region",
            "bad face index",
            "bad --output",
            "bad --output with a quote",
            "bad --kind",
            "bad command",
            "unrecognized argument",
        ],
    )
    def test_long_flag_values_are_cut(self, argv, shown, poly_file, capsys):
        code, out, err = run(capsys, *argv, poly_file("simplex_2"))
        self.assert_one_line_usage_error(code, err, shown)
        # an invalid command's message also lists the nine commands
        listing = err.partition("(choose from 'validate'")[2]
        assert len(err) - len(listing) < 120 and not out

    def test_long_budget_env_value_is_cut(self, poly_file, capsys, monkeypatch):
        monkeypatch.setenv("DELZANT_BUDGET", "-" + "9" * 4000)
        code, out, err = run(capsys, "count", poly_file("simplex_2"))
        self.assert_one_line_usage_error(code, err, "DELZANT_BUDGET='-9999999999999999999...'")
        assert len(err) < 120 and not out

    def test_non_utf8_input_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "binary.poly"
        path.write_bytes(b"\xff\xfedim 2\n")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "UTF-8" in err

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this Python has no int-to-str digit limit",
    )
    def test_over_long_integer_is_one_short_parse_error(self, tmp_path, capsys):
        path = tmp_path / "huge.poly"
        path.write_text("dim 1\nfacet -1 0\nfacet 1 " + "9" * 5000 + "\n", encoding="utf-8")
        code, out, err = run(capsys, "count", str(path))
        assert code == 3 and not out
        assert err.startswith("error: line 3: integer ") and err.count("\n") == 1
        assert "5000 digits" in err and len(err) < 120

    def test_missing_file_is_1(self, capsys):
        code, _, err = run(capsys, "validate", "/no/such/file.poly")
        assert code == 1
        assert "error" in err


class TestMiscFlags:
    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO("dim 2\nfacet -1 0 0\nfacet 0 -1 0\nfacet 1 1 1\n")
        )
        code, out, _ = run(capsys, "count", "-")
        assert code == 0
        assert out.strip() == "3"

    def test_normalize_flag(self, tmp_path, capsys):
        path = tmp_path / "scaled.poly"
        path.write_text(
            "dim 2\nfacet -2 0 0\nfacet 0 -1 0\nfacet 2 2 2\n", encoding="utf-8"
        )
        code, _, _ = run(capsys, "validate", str(path))
        assert code == 3
        code, out, _ = run(capsys, "validate", "--normalize", str(path))
        assert code == 0
        assert "delzant: pass" in out

    def test_tsv_output(self, poly_file, capsys):
        code, out, _ = run(
            capsys, "count", "--output", "tsv", "--k", "2", poly_file("simplex_2")
        )
        assert code == 0
        rows = dict(
            line.split("\t")[:2] for line in out.strip().splitlines()
        )
        assert rows["count"] == "6"

    def test_faces_text(self, poly_file, capsys):
        code, out, _ = run(capsys, "faces", poly_file("simplex_2"))
        assert code == 0
        assert out.splitlines()[0] == "faces: 7 (3 of dim 0, 3 of dim 1, 1 of dim 2)"


def full_parse(argv):
    """``parse_command_line`` as if no first word named a command: the full
    parser reads every command line."""
    return cli.build_parser().parse_args(argv)


SIMPLEX_2 = str(Path(delzant.__file__).parent / "corpus_data" / "simplex_2.poly")
# every table flag and some abbreviations (--k abbreviates ehrhart's --kind,
# --me its --method), each followed by a good or a bad value
FLAGS = ("--output", "--budget", "--k", "--region", "--kind", "--method", "--out", "--reg", "--me", "--b")
VALUES = (
    "text", "json", "tsv", "xml", "2", "3", "0", "-1", "two", "100000", "face=1", "face=1,2",
    "face=x", "full", "interior", "boundary", "operator", "odd", "--normalize", "--",
)
# words that stand alone: help, --version, "--", joined values and junk
LONE = (
    "--normalize", "--norm", "-h", "--help", "--he", "--version", "--ver", "--", "--k=3", "--k=",
    "--output=json", "--region=face=2", "-x", "--bogus", "junk", "-3", SIMPLEX_2, "missing.poly",
)


@st.composite
def command_first_lines(draw):
    words = [draw(st.sampled_from(sorted(cli.COMMANDS)))]
    for _ in range(draw(st.integers(0, 4))):
        words += draw(
            st.one_of(
                st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)),
                st.tuples(st.sampled_from(LONE)),
            )
        )
    if draw(st.booleans()):
        words.insert(draw(st.integers(1, len(words))), SIMPLEX_2)
    return words


class TestLazyParser:
    """``main`` parses a command-first line with that command's parser alone
    (``parse_command_line``), built once per process on the command's first
    line and reused by every later one; every command line behaves as with
    the full parser, ``build_parser()``."""

    CASES = [
        ("--help",),
        ("--version",),
        (),
        ("bogus", "x"),
        *((name, "--help") for name in cli.COMMANDS),
        ("count", "--output", "xml", "p.poly"),
        ("ehrhart", "--kind", "odd", "p.poly"),
        ("count", "--k", "two", "p.poly"),
        ("count", "--region", "side", "p.poly"),
        ("validate", "--bogus", "p.poly"),
        ("--output", "json", "count", "p.poly"),
        ("--bogus", "count", "--k", "3", "p.poly"),
        ("-h", "count"),
        ("--version", "count"),
        ("bogus", "count"),
    ]

    @staticmethod
    def outcome(argv):
        """(exit code, stdout, stderr) of ``main(argv)``."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # --help and --version
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def full_outcome(self, argv):
        """``outcome`` with every command line read by the full parser."""
        with mock.patch.object(cli, "parse_command_line", full_parse):
            return self.outcome(argv)

    @pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv) or "none")
    def test_same_streams_and_exit_code_as_the_full_parser(self, argv):
        lazy = self.outcome(argv)
        assert self.full_outcome(argv) == lazy
        code, out, err = lazy
        if code == 0:
            assert out and not err
        else:
            assert code == 2 and not out
            assert err.startswith("error: ") and err.count("\n") == 1

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(argv=command_first_lines())
    def test_generated_command_lines_match_the_full_parser(self, argv):
        assert self.outcome(argv) == self.full_outcome(argv)

    @pytest.mark.parametrize(
        "first",
        [
            ("count", "--k", "3", "--region", "face=1", "--budget", "50", "--normalize",
             "--output", "json"),
            ("ehrhart", "--kind", "boundary", "--method", "operator", "--output", "tsv"),
            ("count", "--k", "two"),
            ("count", "--k", "0"),
            ("count", "--region", "side"),
        ],
        ids=" ".join,
    )
    def test_no_value_crosses_to_the_next_line(self, first, poly_file):
        """A line that sets no flag reads every default, after a line of the
        same command that set every flag or was a usage error, in parsing
        or after it."""
        path = poly_file("cube_unit")
        self.outcome([*first, path])
        second = [first[0], path]
        assert self.outcome(second) == self.full_outcome(second)

    def test_main_reads_sys_argv(self, poly_file, capsys, monkeypatch):
        monkeypatch.setattr(
            sys, "argv", ["delzant", "count", "--k", "2", poly_file("cube_unit")]
        )
        assert main() == 0
        assert capsys.readouterr().out == "27\n"


class TestProcess:
    """``python -m delzant.cli`` in a child process: exit status and streams."""

    @staticmethod
    def run_process(*argv):
        src = str(Path(delzant.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        return subprocess.run(
            [sys.executable, "-m", "delzant.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )

    def test_count_prints_and_exits_zero(self, poly_file):
        done = self.run_process("count", "--k", "2", poly_file("cube_unit"))
        assert done.returncode == 0
        assert done.stdout == "27\n"
        assert done.stderr == ""

    def test_usage_error_exits_two_with_one_error_line(self, poly_file):
        done = self.run_process("count", "--k", "0", poly_file("cube_unit"))
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: ")
        assert done.stderr.count("\n") == 1
