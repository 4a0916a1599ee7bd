import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from delzant.errors import UnboundedError
from delzant.linalg import (
    independent_rows,
    int_solve,
    kernel_vector,
    ring_det,
)
from delzant.polytope import HalfSpaceSpec, enumerate_vertices
from subset_reference import kernel_direction


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def random_matrix(rng, n, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def solve_det(m):
    """The fraction-free (Bareiss) det that int_solve returns; 0 when singular."""
    solved = int_solve(m, [[0]] * len(m))
    return solved[0] if solved else 0


class TestIntDet:
    def test_matches_cofactor_oracle(self):
        # ring_det is a cofactor (Laplace) expansion along the first row
        rng = random.Random(17)
        for n in (1, 2, 3, 4):
            for _ in range(40):
                m = random_matrix(rng, n)
                assert solve_det(m) == ring_det(m)


class TestSolveInvert:
    def test_solve_matches_inverse(self):
        rng = random.Random(5)
        for _ in range(20):
            m = random_matrix(rng, 3)
            if ring_det(m) == 0:
                continue
            rhs = [[rng.randint(-5, 5)] for _ in range(3)]
            det, x = int_solve(m, rhs)
            assert mat_mul(m, x) == [[det * b] for b, in rhs]
            # the inverse's numerators over the same det carry rhs to x
            det_inv, inv = int_solve(m, identity(3))
            assert det_inv == det
            assert mat_mul(inv, rhs) == x

    def test_singular_raises(self):
        assert int_solve([[1, 2], [2, 4]], [[1], [1]]) is None


def _solve_cases():
    """Seeded random integer systems, n = 1..6, with singular ones and
    ones whose leading entry is zero, so that elimination swaps rows."""
    rng = random.Random(41)
    for n in range(1, 7):
        for case in range(24):
            rows = random_matrix(rng, n, -4, 4)
            if case % 4 == 1 and n > 1:
                # the last row a combination of the earlier ones: singular
                rows[-1] = [a + 2 * b for a, b in zip(rows[0], rows[-2])]
            elif case % 4 == 2:
                rows[0][0] = 0
            elif case % 4 == 3 and n > 1:
                # the leading column zero but for its last entry
                for row in rows[:-1]:
                    row[0] = 0
                rows[-1][0] = rng.choice([-3, -1, 2])
            cols = [[rng.randint(-6, 6) for _ in range(1 + case % 3)] for _ in range(n)]
            yield rows, cols


class TestIntSolve:
    def test_det_and_numerators_on_random_systems(self):
        singular = swapped = 0
        for rows, cols in _solve_cases():
            # ring_det is a cofactor (Laplace) expansion along the first row
            det = ring_det(rows)
            solved = int_solve(rows, cols)
            if det == 0:
                assert solved is None
                singular += 1
                continue
            assert solved[0] == det
            assert mat_mul(rows, solved[1]) == [[det * c for c in row] for row in cols]
            swapped += rows[0][0] == 0
        # the cases reach both the singular exit and the row swap
        assert singular >= 20 and swapped >= 20

    def test_det_hand_examples(self):
        assert int_solve([[0, -1], [1, 1]], [[0], [0]])[0] == 1
        assert int_solve(identity(3), identity(3)) == (1, identity(3))
        assert int_solve([[0, -1], [2, 1]], [[0], [0]])[0] == 2

    def test_det_multiplicative_on_products(self):
        rng = random.Random(23)
        for _ in range(40):
            a = random_matrix(rng, 3)
            b = random_matrix(rng, 3)
            assert solve_det(mat_mul(a, b)) == solve_det(a) * solve_det(b)

    def test_inverse_numerators(self):
        for rows, _ in _solve_cases():
            solved = int_solve(rows, identity(len(rows)))
            if solved is None:
                continue
            det, inverse = solved
            assert mat_mul(rows, inverse) == [[det * v for v in row] for row in identity(len(rows))]
            assert mat_mul(inverse, rows) == mat_mul(rows, inverse)

    def test_sign_of_det(self):
        # two charts of triangle_det2: the vertex (1, 0) has det 2, reached
        # through a row swap, and the vertex (0, 2) has det -1
        assert int_solve([[0, -1], [2, 1]], [[0], [2]]) == (2, [[2], [0]])
        assert int_solve([[-1, 0], [2, 1]], [[0], [2]]) == (-1, [[0], [-2]])


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


class TestRingDet:
    def test_matches_int_det_on_numbers(self):
        # Laplace expansion and Bareiss elimination check each other
        rng = random.Random(31)
        for n in (1, 2, 3, 4):
            for _ in range(40):
                m = random_matrix(rng, n)
                assert ring_det(m) == solve_det(m)


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


def _rank(rows):
    """The rank of integer rows: the size of their largest nonzero minor."""
    if not rows:
        return 0
    m = len(rows[0])
    return max(
        (
            k
            for k in range(1, min(len(rows), m) + 1)
            for sub in combinations(rows, k)
            for cols in combinations(range(m), k)
            if ring_det([[row[c] for c in cols] for row in sub])
        ),
        default=0,
    )


class TestIndependentRows:
    def test_greedy_basis_by_minors(self):
        # row j is kept iff it raises the rank of the rows kept before it
        rng = random.Random(23)
        for m in (1, 2, 3, 4):
            for height in (m, m + 3):
                for _ in range(30):
                    rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(height)]
                    if rng.random() < 0.5:
                        # a repeated and a combined row
                        rows.insert(1, list(rows[0]))
                        rows.append([a - 2 * b for a, b in zip(rows[0], rows[-1])])
                    expected = []
                    for j, row in enumerate(rows):
                        if len(expected) < m and _rank(
                            [rows[i] for i in (*expected, j)]
                        ) == len(expected) + 1:
                            expected.append(j)
                    assert independent_rows(rows, m) == tuple(expected)

    def test_stops_at_count(self):
        rows = [(0, 1, 0), (0, 2, 0), (1, 0, 0), (0, 0, 1), (1, 1, 1)]
        assert independent_rows(rows, 2) == (0, 2)
        assert independent_rows(rows, 3) == (0, 2, 3)
        assert independent_rows(rows[:3], 3) == (0, 2)


class TestKernelVector:
    def test_kernel_vector_exactly_when_rank_is_deficient(self):
        rng = random.Random(13)
        for m in (2, 3, 4):
            for _ in range(30):
                rows = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)]
                rows.append([a + b for a, b in zip(rows[0], rows[1])])
                full_rank = any(ring_det(list(square)) for square in combinations(rows, m))
                vector = kernel_vector(rows)
                if full_rank:
                    assert vector is None
                    continue
                assert any(x != 0 for x in vector)
                for row in rows:
                    assert sum(a * b for a, b in zip(row, vector)) == 0

    def test_matches_reduced_echelon_reference(self):
        # the first free column of the Fraction reduced echelon form set to
        # 1, cleared of denominators: the ray enumerate_vertices names for
        # rank-deficient normals, as the subset path's recession_ray does
        rng = random.Random(19)
        for m in (1, 2, 3, 4, 5):
            for height in (m - 1, m, m + 2):
                for _ in range(30):
                    rows = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(max(height, 1))]
                    if m > 1 and rng.random() < 0.5:
                        # force a dependent column
                        c = rng.randrange(1, m)
                        for row in rows:
                            row[c] = row[0] - 2 * row[c - 1]
                    assert kernel_vector(rows) == _echelon_kernel_vector(rows)


def _echelon_kernel_vector(rows):
    m = len(rows[0])
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(m):
        row = len(pivots)
        pivot = next((r for r in range(row, len(a)) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        a[row] = [x / a[row][col] for x in a[row]]
        for r in range(len(a)):
            if r != row and a[r][col] != 0:
                a[r] = [x - a[r][col] * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
    if len(pivots) == m:
        return None
    free = next(c for c in range(m) if c not in pivots)
    vec = [Fraction(0)] * m
    vec[free] = Fraction(1)
    for r, col in enumerate(pivots):
        vec[col] = -a[r][free]
    den = lcm(*(x.denominator for x in vec))
    return tuple(int(x * den) for x in vec)
