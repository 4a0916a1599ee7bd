import random
from fractions import Fraction
from itertools import combinations

import pytest

from delzant.errors import UnboundedError
from delzant.linalg import (
    int_det,
    int_inverse_unimodular,
    invert_exact,
    kernel_direction,
    kernel_vector,
    mat_mul,
    mat_vec,
    ring_det,
    solve_exact,
    unimodular_for_normal,
)
from delzant.polytope import HalfSpaceSpec, enumerate_vertices


def random_matrix(rng, n, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


class TestIntDet:
    def test_hand_examples(self):
        assert int_det([[0, -1], [1, 1]]) == 1
        assert int_det([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
        assert int_det([[0, -1], [2, 1]]) == 2

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            int_det([[1, 2, 3], [4, 5, 6]])

    def test_matches_cofactor_oracle(self):
        # ring_det is a cofactor (Laplace) expansion along the first row
        rng = random.Random(17)
        for n in (1, 2, 3, 4):
            for _ in range(40):
                m = random_matrix(rng, n)
                assert int_det(m) == ring_det(m)

    def test_multiplicative_on_products(self):
        rng = random.Random(23)
        for _ in range(40):
            a = random_matrix(rng, 3)
            b = random_matrix(rng, 3)
            assert int_det(mat_mul(a, b)) == int_det(a) * int_det(b)


class TestSolveInvert:
    def test_solve_matches_inverse(self):
        rng = random.Random(5)
        for _ in range(20):
            m = random_matrix(rng, 3)
            if int_det(m) == 0:
                continue
            rhs = [rng.randint(-5, 5) for _ in range(3)]
            x = solve_exact(m, rhs)
            assert mat_vec(m, x) == [Fraction(b) for b in rhs]
            inv = invert_exact(m)
            assert mat_vec(inv, rhs) == x

    def test_singular_raises(self):
        with pytest.raises(ValueError):
            solve_exact([[1, 2], [2, 4]], [1, 1])


class TestKernelDirection:
    def test_orthogonal_to_rows(self):
        rng = random.Random(9)
        for m in (2, 3, 4):
            for _ in range(30):
                rows = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(m - 1)]
                direction = kernel_direction(rows, m)
                if direction is None:
                    continue
                assert any(x != 0 for x in direction)
                for row in rows:
                    assert sum(a * b for a, b in zip(row, direction)) == 0


class TestUnimodularForNormal:
    @pytest.mark.parametrize(
        "normal",
        [(1,), (-1,), (1, 0), (0, -1), (2, 3), (1, 1), (3, -5, 7), (0, 0, 1, 1)],
    )
    def test_reduces_normal_to_first_unit_vector(self, normal):
        u = unimodular_for_normal(normal)
        m = len(normal)
        assert int_det(u) in (1, -1)
        image = [sum(normal[r] * u[r][c] for r in range(m)) for c in range(m)]
        assert image == [1] + [0] * (m - 1)
        # inverse stays integral and the first output coordinate is x . n
        u_inv = int_inverse_unimodular(u)
        x = [4, -7, 2, 9][:m]
        y = mat_vec(u_inv, x)
        assert y[0] == sum(a * b for a, b in zip(normal, x))

    def test_non_primitive_rejected(self):
        with pytest.raises(ValueError):
            unimodular_for_normal((2, 4))


class TestRingDet:
    def test_matches_int_det_on_numbers(self):
        # Laplace expansion and Bareiss elimination check each other
        rng = random.Random(31)
        for n in (1, 2, 3, 4):
            for _ in range(40):
                m = random_matrix(rng, n)
                assert ring_det(m) == int_det(m)


class TestRankDeficientRay:
    """A rank-deficient normal set is unbounded along a kernel vector.

    The expected rays are the ones the elimination has always reported:
    the first free column set to one, scaled to the least integer vector.
    """

    @pytest.mark.parametrize(
        "dim, normals, ray",
        [
            (3, [(2, 0, 3), (0, 2, -1), (-2, 0, -3), (0, -2, 1)], (-3, 1, 2)),
            (
                4,
                [(1, 2, 0, 1), (-1, -2, 0, -1), (0, 1, 1, 1), (0, -1, -1, -1), (1, 3, 1, 2)],
                (2, -1, 1, 0),
            ),
        ],
    )
    def test_unbounded_error_names_the_kernel_ray(self, dim, normals, ray):
        spec = HalfSpaceSpec(dim, [(normal, 1) for normal in normals])
        with pytest.raises(UnboundedError) as err:
            enumerate_vertices(spec)
        assert err.value.ray == ray


class TestKernelVector:
    def test_kernel_vector_exactly_when_rank_is_deficient(self):
        rng = random.Random(13)
        for m in (2, 3, 4):
            for _ in range(30):
                rows = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)]
                rows.append([a + b for a, b in zip(rows[0], rows[1])])
                full_rank = any(int_det(list(square)) for square in combinations(rows, m))
                vector = kernel_vector(rows)
                if full_rank:
                    assert vector is None
                    continue
                assert any(x != 0 for x in vector)
                for row in rows:
                    assert sum(a * b for a, b in zip(row, vector)) == 0
