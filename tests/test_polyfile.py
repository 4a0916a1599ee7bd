import sys

import pytest

from delzant.corpus import corpus_text
from delzant.errors import (
    DimMismatchError,
    NonIntegerOffsetError,
    NonPrimitiveNormalError,
    PolytopeParseError,
    cut,
)
from delzant.polyfile import parse_polytope_file

SIMPLEX = "dim 2\nfacet -1 0 0\nfacet 0 -1 0\nfacet 1 1 1\n"


class TestParse:
    def test_unit_simplex(self):
        spec = parse_polytope_file(SIMPLEX)
        assert spec.dim == 2
        assert spec.normals() == ((-1, 0), (0, -1), (1, 1))
        assert spec.offsets() == (0, 0, 1)

    def test_leading_byte_order_mark_is_dropped(self):
        text = corpus_text("simplex_2")
        assert parse_polytope_file("\ufeff" + text) == parse_polytope_file(text)

    def test_comments_blank_lines_and_name(self):
        text = "# header\n\nname my triangle\ndim 2\nfacet -1 0 0  # left\nfacet 0 -1 0\nfacet 1 1 1\n"
        spec = parse_polytope_file(text)
        assert spec.name == "my triangle"
        assert spec.num_facets == 3

    def test_wrong_field_count_reports_line(self):
        with pytest.raises(DimMismatchError) as err:
            parse_polytope_file("dim 2\nfacet -1 0\n")
        assert err.value.line == 2
        assert "needs dim + 1 integers for dim 2, got 2" in str(err.value)

    def test_non_primitive_rejected_without_normalize(self):
        with pytest.raises(NonPrimitiveNormalError) as err:
            parse_polytope_file("dim 2\nfacet 2 2 2\nfacet 0 -1 0\nfacet -1 0 0\n")
        assert err.value.line == 2

    def test_normalize_divides_when_offset_allows(self):
        spec = parse_polytope_file(
            "dim 2\nfacet 2 2 2\nfacet 0 -1 0\nfacet -1 0 0\n", normalize=True
        )
        assert spec.facets[0].normal == (1, 1)
        assert spec.facets[0].offset == 1

    def test_normalize_refuses_indivisible_offset(self):
        with pytest.raises(NonPrimitiveNormalError):
            parse_polytope_file(
                "dim 2\nfacet 2 2 3\nfacet 0 -1 0\nfacet -1 0 0\n", normalize=True
            )

    def test_non_integer_offset(self):
        with pytest.raises(NonIntegerOffsetError) as err:
            parse_polytope_file("dim 2\nfacet -1 0 0.5\n")
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "token, message",
        [
            ("0.5", "offset 0.5 is not an integer"),
            ("1e3", "offset 1e3 is not an integer"),
            ("-2.5e-3", "offset -2.5e-3 is not an integer"),
            ("1_0.5", "offset 1_0.5 is not an integer"),
            # read by form, not by ``float``: nan and inf are no numbers here
            ("nan", "bad integer 'nan'"),
            ("inf", "bad integer 'inf'"),
            ("1/2", "bad integer '1/2'"),
        ],
    )
    def test_offset_message_by_token_form(self, token, message):
        with pytest.raises(PolytopeParseError) as err:
            parse_polytope_file(f"dim 1\nfacet -1 0\nfacet 1 {token}\n")
        assert isinstance(err.value, NonIntegerOffsetError) == message.startswith("offset")
        assert str(err.value) == f"line 3: {message}"

    def test_bad_integer_in_normal(self):
        with pytest.raises(PolytopeParseError):
            parse_polytope_file("dim 2\nfacet -1 x 0\n")

    def test_unknown_keyword(self):
        with pytest.raises(PolytopeParseError) as err:
            parse_polytope_file("dim 2\nvertex 0 0\n")
        assert err.value.line == 2

    def test_missing_dim(self):
        with pytest.raises(PolytopeParseError):
            parse_polytope_file("facet -1 0 0\n")

    def test_facet_before_dim(self):
        with pytest.raises(PolytopeParseError) as err:
            parse_polytope_file("facet -1 0 0\ndim 2\n")
        assert err.value.line == 1

    def test_duplicate_dim(self):
        with pytest.raises(PolytopeParseError):
            parse_polytope_file("dim 2\ndim 2\n" + SIMPLEX.split("\n", 1)[1])

    def test_zero_normal(self):
        with pytest.raises(PolytopeParseError) as err:
            parse_polytope_file("dim 2\nfacet 0 0 1\n")
        assert err.value.line == 2

    def test_too_few_facets(self):
        with pytest.raises(PolytopeParseError):
            parse_polytope_file("dim 2\nfacet -1 0 0\nfacet 0 -1 0\n")


LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
HUGE = "9" * 5000


@pytest.mark.skipif(not LIMIT, reason="this Python has no int-to-str digit limit")
class TestOverLongIntegers:
    """A token over Python's int-to-str digit limit is named by its digit count."""

    @pytest.mark.parametrize(
        "text, line, token",
        [
            (f"dim 2\nfacet -1 0 {HUGE}\n", 2, HUGE),
            (f"dim 2\nfacet -1 {HUGE} 0\n", 2, HUGE),
            (f"dim 2\nfacet -1 -{HUGE} 0\n", 2, "-" + HUGE),
            (f"dim {HUGE}\n", 1, HUGE),
        ],
        ids=["offset", "normal entry", "signed normal entry", "dim"],
    )
    def test_message_names_the_digit_count_and_the_limit(self, text, line, token):
        with pytest.raises(PolytopeParseError) as err:
            parse_polytope_file(text)
        # not read as a non-integer offset or a malformed integer
        assert type(err.value) is PolytopeParseError
        assert err.value.line == line
        assert str(err.value) == (
            f"line {line}: integer '{token[:20]}...' has 5000 digits, "
            f"over Python's limit of {LIMIT}"
        )

    def test_digits_up_to_the_limit_parse(self):
        offset = "9" * LIMIT
        spec = parse_polytope_file(f"dim 1\nfacet -1 0\nfacet 1 {offset}\n")
        assert spec.offsets() == (0, int(offset))


class TestMessagesCutLongTokens:
    """No parse error quotes more than the first 20 characters of a token."""

    @pytest.mark.parametrize(
        "text, shown",
        [
            (f"dim 2\nfacet -1 x{HUGE} 0\n", "bad integer 'x9999999999999999999...'"),
            (f"dim 2\nfacet -1 0 {HUGE}.5\n", "offset 99999999999999999999... is not"),
            (f"{'k' * 5000} 2\n", "unknown keyword 'kkkkkkkkkkkkkkkkkkkk...'"),
            (
                f"dim 2\nfacet 2 {'2' * 4000} 1\n",
                "normal [2, 22222222222222222222...] has gcd 2;",
            ),
        ],
        ids=["bad integer", "offset", "keyword", "normal"],
    )
    def test_long_token_is_cut(self, text, shown):
        with pytest.raises(PolytopeParseError) as err:
            parse_polytope_file(text)
        assert shown in str(err.value)
        assert len(str(err.value)) < 120

    @pytest.mark.skipif(not LIMIT, reason="this Python has no int-to-str digit limit")
    def test_dim_at_the_digit_limit_is_cut(self):
        # dim + 1 has one digit more than the limit allows to print
        with pytest.raises(DimMismatchError) as err:
            parse_polytope_file(f"dim {'9' * LIMIT}\nfacet 1 0\n")
        assert "for dim 99999999999999999999..., got 2" in str(err.value)
        assert len(str(err.value)) < 120

    @pytest.mark.parametrize("digits", [4000, LIMIT or 4300])
    def test_huge_dim_with_too_few_facets_is_cut(self, digits):
        # at the limit, dim + 1 is one digit over it and is cut before it prints
        with pytest.raises(PolytopeParseError) as err:
            parse_polytope_file(f"dim {'9' * digits}\n")
        assert err.value.exit_code == 3
        assert str(err.value) == (
            "need at least 10000000000000000000... facets for a bounded "
            "99999999999999999999...-polytope, got 0"
        )


class TestCut:
    """``cut`` shows an integer as ``str`` would, cut to 20 characters,
    also past Python's digit limit."""

    @pytest.mark.parametrize(
        "value",
        [0, 7, -7, 10**19, 10**20 - 1, 10**20, -(10**19), -(10**20), 2**400 - 1, -(3**300)],
    )
    def test_matches_str(self, value):
        text = str(value)
        assert cut(value) == (text if len(text) <= 20 else text[:20] + "...")

    def test_integer_over_the_digit_limit(self):
        assert cut(10**5000) == "1" + "0" * 19 + "..."
        assert cut(-(10**5000) + 1) == "-" + "9" * 19 + "..."
