import pytest

from delzant.corpus import corpus_text
from delzant.errors import (
    DimMismatchError,
    NonIntegerOffsetError,
    NonPrimitiveNormalError,
    PolytopeParseError,
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
        assert "3 integers for dim 2" in str(err.value)

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
