"""Exact linear algebra on small integer and rational matrices.

Matrices are plain tuples/lists of row sequences.  Everything stays in
integers (Bareiss elimination) or in fractions.Fraction; there is no
floating point anywhere in this package.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("int_det needs a square matrix")
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss update: divisions are exact by construction
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det_cofactor(rows):
    """Laplace expansion along the first row.  Reference oracle for int_det."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("det_cofactor needs a square matrix")
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = head * det_cofactor(minor)
        total = total - term if j % 2 else total + term
    return total


def ring_det(rows):
    """Determinant over any commutative ring with +, -, * (e.g. MultiPoly)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = rows[0][j] * ring_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def _gauss_jordan(a, ncols: int) -> list[int]:
    """Reduce the Fraction rows ``a`` in place, over their first ``ncols``
    columns, to reduced row echelon form; returns the pivot columns.

    Any further columns (a right-hand side, an identity block) are carried
    along, which is how one elimination solves, inverts and finds kernels.
    """
    pivots: list[int] = []
    for col in range(ncols):
        row = len(pivots)
        pivot = next((r for r in range(row, len(a)) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        inv = 1 / a[row][col]
        a[row] = [x * inv for x in a[row]]
        for r in range(len(a)):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
    return pivots


def solve_exact(rows, rhs) -> list[Fraction]:
    """Solve a square linear system exactly.  Raises ValueError if singular."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    if len(_gauss_jordan(a, n)) < n:
        raise ValueError("singular system")
    return [a[i][n] for i in range(n)]


def invert_exact(rows) -> list[list[Fraction]]:
    """Exact inverse of a square matrix via Gauss-Jordan over Fraction."""
    n = len(rows)
    a = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    if len(_gauss_jordan(a, n)) < n:
        raise ValueError("singular matrix")
    return [row[n:] for row in a]


def kernel_vector(rows):
    """Nonzero integer kernel vector of a matrix, or None at full column rank.

    The first free column of the reduced echelon form is set to 1 and the
    vector is cleared of denominators.
    """
    m = len(rows[0])
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = _gauss_jordan(a, m)
    if len(pivots) == m:
        return None
    free = next(c for c in range(m) if c not in pivots)
    vec = [Fraction(0)] * m
    vec[free] = Fraction(1)
    for r, col in enumerate(pivots):
        vec[col] = -a[r][free]
    den = lcm(*(x.denominator for x in vec))
    return tuple(int(x * den) for x in vec)


def mat_mul(a, b):
    rows = len(a)
    inner = len(b)
    cols = len(b[0])
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def mat_vec(a, x):
    return [sum(row[j] * x[j] for j in range(len(x))) for row in a]


def kernel_direction(rows, m: int):
    """Nonzero integer kernel vector of an (m-1) x m integer matrix.

    Components are signed maximal minors (the generalized cross product).
    Returns None when the rows have rank below m-1, i.e. the minors all vanish.
    """
    if len(rows) != m - 1:
        raise ValueError("kernel_direction expects m-1 rows")
    direction = []
    for j in range(m):
        minor = [[row[c] for c in range(m) if c != j] for row in rows]
        d = int_det(minor)
        direction.append(-d if j % 2 else d)
    if all(x == 0 for x in direction):
        return None
    return tuple(direction)


def unimodular_for_normal(n: Sequence[int]) -> list[list[int]]:
    """Unimodular U with n^T U = (1, 0, ..., 0), for primitive integer n.

    Columns 2..m of U form a lattice basis of the hyperplane {x : x.n = 0},
    and the first coordinate of U^{-1} x equals x.n.
    """
    m = len(n)
    r = list(n)
    u = [[int(i == j) for j in range(m)] for i in range(m)]

    def col_addmul(dst, src, q):
        r[dst] -= q * r[src]
        for row in u:
            row[dst] -= q * row[src]

    while True:
        nonzero = [j for j in range(m) if r[j] != 0]
        if len(nonzero) <= 1:
            break
        j = min(nonzero, key=lambda c: abs(r[c]))
        for i in nonzero:
            if i != j:
                col_addmul(i, j, r[i] // r[j])
    p = next(j for j in range(m) if r[j] != 0)
    if r[p] < 0:
        r[p] = -r[p]
        for row in u:
            row[p] = -row[p]
    if r[p] != 1:
        raise ValueError("normal vector is not primitive")
    if p != 0:
        r[0], r[p] = r[p], r[0]
        for row in u:
            row[0], row[p] = row[p], row[0]
    return u


def int_inverse_unimodular(u) -> list[list[int]]:
    """Integer inverse of a unimodular integer matrix."""
    inv = invert_exact(u)
    out = []
    for row in inv:
        out_row = []
        for x in row:
            if x.denominator != 1:
                raise ValueError("matrix is not unimodular")
            out_row.append(int(x))
        out.append(out_row)
    return out
