"""Exact dense linear algebra over the rationals.  Matrices are lists of
row lists of int or Fraction entries.

rank and solve run one fraction-free integer Gauss-Jordan elimination,
after the reduced row echelon form of FLINT's fmpz_mat
(https://flintlib.org/doc/fmpz_mat.html): each row is cleared of its
denominators once; a row is combined with the pivot row as a*r_i - b*r_p,
where (a, b) is the pivot pair divided by its gcd; and each new row is
divided by its content.  Each column takes as pivot the first nonzero row
at or below the current one.  solve builds a Fraction only
in the solution.  The reduced row echelon form is unique, so the pivots
and the solution (free variables set to zero) are those of any exact
Gauss-Jordan elimination.

Only scalars imports this module: one solve, one price, one refusal.  A
system over Q(z_N) is priced there (solve_work) and refused past one cap
(SolveTooCostly), then comes here as the expansion of its integer columns
(scalars.solve_columns); a rational one comes as it is.  Nothing here
touches floats.
"""

from fractions import Fraction
from math import gcd, lcm

_RATIONAL = (int, Fraction)


def _integer_rows(mat):
    """Each row of a rational matrix times the lcm of its denominators, as
    int lists; TypeError on an entry that is not an int or a Fraction."""
    out = []
    for row in mat:
        if not all(isinstance(x, _RATIONAL) for x in row):
            raise TypeError("linalg takes int or Fraction entries only")
        den = lcm(*[x.denominator for x in row])
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def _combine(row, prow, c):
    """row with its column c cleared by the pivot row prow, as
    a*row - b*prow over the content of the result."""
    p, f = prow[c], row[c]
    g = gcd(p, f)
    a, b = p // g, f // g
    new = [a * x - b * y for x, y in zip(row, prow)]
    g = gcd(*new)
    return new if g < 2 else [x // g for x in new]


def _gauss_jordan(m, cols):
    """Reduce integer rows m in place over their first cols columns; row r
    ends with the r-th pivot and zeros in every other pivot column.
    Returns the pivot columns."""
    rows = len(m)
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow = m[r]
        for i in range(rows):
            if i != r and m[i][c]:
                m[i] = _combine(m[i], prow, c)
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def rank(mat):
    if not mat:
        return 0
    return len(_gauss_jordan(_integer_rows(mat), len(mat[0])))


def solve(mat, rhs):
    """One exact solution of mat*x = rhs, or None if inconsistent.

    Works for rectangular systems; free variables are set to zero.
    """
    cols = len(mat[0]) if mat else 0
    m = _integer_rows([row + [b] for row, b in zip(mat, rhs)])
    pivots = _gauss_jordan(m, cols + 1)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for row, c in zip(m, pivots):
        x[c] = Fraction(row[cols], row[c])
    return x
