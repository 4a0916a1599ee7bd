"""Exact linear algebra on small integer and rational matrices.

Matrices are plain tuples/lists of row sequences.  Solves, inverses,
independent rows and kernel vectors stay in integers: fraction-free
(Bareiss) elimination divides exactly at every step (Bareiss, Math.
Comp. 1968), and ``int_solve`` returns det(A) and the Cramer numerators
X = det(A) A^{-1} C.  A caller with rational data scales it by q to
integers and reads the solution as X / (det q), so it builds a Fraction
only for a value it keeps.  ``ring_det``, the Laplace expansion, is the
tests' determinant oracle.  There is no floating point anywhere in this
package.
"""

from __future__ import annotations

from math import gcd


def _eliminate(a, ncols: int) -> tuple[int, int]:
    """Fraction-free forward elimination of the integer rows ``a``, in place.

    Column c gets its pivot from the first row at or below row c that is
    nonzero there; columns from ``ncols`` on (right-hand sides) are carried
    along.  Every entry below a pivot is then a minor of the input
    (Sylvester's identity), so each division by the previous pivot is
    exact, and the pivot of column c is the leading (c+1)-minor of the
    permuted rows.  Stops at the first column without a pivot; returns the
    sign of the row permutation and the number k of leading columns with
    a pivot (k < ``ncols`` iff those columns have rank below ``ncols``).
    """
    sign = 1
    prev = 1
    for col in range(ncols):
        pivot = next((r for r in range(col, len(a)) if a[r][col]), None)
        if pivot is None:
            return sign, col
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        top = a[col]
        p = top[col]
        for r in range(col + 1, len(a)):
            f = a[r][col]
            a[r] = [(x * p - f * y) // prev for x, y in zip(a[r], top)]
        prev = p
    return sign, ncols


def _back_substitute(a, k: int, det: int, columns) -> list[list[int]]:
    """X with U . X == det . a[:k][columns], U the triangle a[:k][:k].

    Exact whenever det . U^{-1} maps those columns to integers, as it does
    for det = +-(the last pivot).
    """
    x = [None] * k
    for i in range(k - 1, -1, -1):
        row = a[i]
        below = [(row[j], x[j]) for j in range(i + 1, k)]
        x[i] = [
            (det * row[t] - sum(u * xj[s] for u, xj in below)) // row[i]
            for s, t in enumerate(columns)
        ]
    return x


def int_solve(rows, cols):
    """(det, X) with rows . X == det . cols in integers, or None if singular.

    ``rows`` is a nonempty square integer matrix with determinant det, and
    ``cols`` has one integer row per row of it.  X, of the shape of
    ``cols``, holds the Cramer numerators: rows^{-1} cols == X / det.  One
    elimination of [rows | cols], then back substitution on the triangle
    it leaves.
    """
    n = len(rows)
    a = [[*r, *c] for r, c in zip(rows, cols)]
    sign, rank = _eliminate(a, n)
    if rank < n:
        return None
    det = sign * a[n - 1][n - 1]
    return det, _back_substitute(a, n, det, range(n, len(a[0])))


def independent_rows(rows, count: int) -> tuple[int, ...]:
    """The first ``count`` linearly independent rows, taken greedily in
    index order, as their indices; fewer if the rows have lower rank.

    This is the lex-least independent subset: one fraction-free
    elimination that reduces each row against the rows kept before it,
    in the order they were kept, dividing by the previous pivot (exact by
    Sylvester's identity, as in ``_eliminate``).  A row that reduces to
    zero depends on them and is dropped; otherwise it is kept, with its
    first nonzero entry as its pivot.
    """
    kept, basis = [], []  # basis: (pivot column, reduced row)
    for index, row in enumerate(rows):
        reduced, prev = list(row), 1
        for col, top in basis:
            p, f = top[col], reduced[col]
            reduced = [(x * p - f * y) // prev for x, y in zip(reduced, top)]
            prev = p
        col = next((c for c, x in enumerate(reduced) if x), None)
        if col is None:
            continue
        kept.append(index)
        if len(kept) == count:
            break
        basis.append((col, reduced))
    return tuple(kept)


def kernel_vector(rows):
    """Nonzero integer kernel vector of a matrix, or None at full column rank.

    With f the first column that depends on the ones before it, the vector
    is zero after f, positive at f and primitive: the first free column of
    the reduced echelon form set to 1, cleared of denominators.
    """
    a = [list(r) for r in rows]
    _, free = _eliminate(a, len(a[0]))
    if free == len(a[0]):
        return None
    last = a[free - 1][free - 1] if free else 1
    head = [-y for y, in _back_substitute(a, free, last, [free])]
    vec = [*head, last] + [0] * (len(a[0]) - free - 1)
    g = gcd(*vec) if last > 0 else -gcd(*vec)
    return tuple(x // g for x in vec)


def ring_det(rows):
    """Determinant over any commutative ring with +, -, * (e.g. MultiPoly).

    The n!-term Laplace expansion: the package no longer calls it, and the
    tests check the fraction-free eliminations against it.
    """
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

