"""Exact dense linear algebra.  Matrices are lists of row lists.

Rational entries (int or Fraction) go through one fraction-free integer
elimination, the body of rank, solve and inverse, after FLINT's
fmpz_mat_rref (https://flintlib.org/doc/fmpz_mat.html): each row is
cleared of its denominators once; a row is combined with the pivot row as
a*r_i - b*r_p, where (a, b) is the pivot pair divided by its gcd; and each
new row is divided by its content.  Each column takes as pivot the first
nonzero row at or below the current one, as rref does.  solve and inverse
run Gauss-Jordan and build a Fraction only in the solution.  The reduced row
echelon form is unique, so the pivots, the solution (free variables set to
zero) and the inverse equal those of rref.

rref stays for entries that are not rational: Cyclotomic or Series values,
as in io_json's antipode check and the inverse of a tensor over a
cyclotomic host.  Its entries only need +, -, *, /, bool, and it divides by
pivots only.  Nothing here touches floats.
"""

from fractions import Fraction
from math import gcd, lcm

_RATIONAL = (int, Fraction)


def identity(n, one=None, zero=None):
    one = Fraction(1) if one is None else one
    zero = Fraction(0) if zero is None else zero
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def rref(mat):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def _integer_rows(mat):
    """Each row of a rational matrix times the lcm of its denominators, as
    int lists; None when some entry is not rational."""
    out = []
    for row in mat:
        if not all(isinstance(x, _RATIONAL) for x in row):
            return None
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
    m = _integer_rows(mat)
    if m is None:
        return len(rref(mat)[1])
    # forward elimination only: a pivot row leaves the set once it has
    # cleared its column from the rows still in it
    m = [row for row in m if any(row)]
    rk = 0
    for c in range(len(mat[0])):
        piv = next((i for i, row in enumerate(m) if row[c]), None)
        if piv is None:
            continue
        prow = m.pop(piv)
        rk += 1
        rest = []
        for row in m:
            if row[c]:
                row = _combine(row, prow, c)
                if not any(row):
                    continue
            rest.append(row)
        m = rest
        if not m:
            break
    return rk


def solve(mat, rhs):
    """One exact solution of mat*x = rhs, or None if inconsistent.

    Works for rectangular systems; free variables are set to zero.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    aug = [mat[i] + [rhs[i]] for i in range(rows)]
    m = _integer_rows(aug)
    if m is None:
        red, pivots = rref(aug)
        if cols in pivots:
            return None
        x = [Fraction(0)] * cols
        for r, c in enumerate(pivots):
            x[c] = red[r][cols]
        return x
    pivots = _gauss_jordan(m, cols + 1)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for row, c in zip(m, pivots):
        x[c] = Fraction(row[cols], row[c])
    return x


def inverse(mat):
    """Matrix inverse, or None if singular."""
    n = len(mat)
    aug = [row + unit for row, unit in zip(mat, identity(n))]
    m = _integer_rows(aug)
    if m is None:
        red, pivots = rref(aug)
        if pivots != list(range(n)):
            return None
        return [row[n:] for row in red]
    if _gauss_jordan(m, n) != list(range(n)):
        return None
    return [[Fraction(x, row[r]) for x in row[n:]] for r, row in enumerate(m)]
