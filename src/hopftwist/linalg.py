"""Exact dense linear algebra over Fraction/cyclotomic scalars.

Matrices are lists of row lists.  Entries only need +, -, *, /, bool;
divisions happen by pivots only.  Nothing here touches floats.
"""

from fractions import Fraction


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


def rank(mat):
    if not mat:
        return 0
    return len(rref(mat)[1])


def solve(mat, rhs):
    """One exact solution of mat*x = rhs, or None if inconsistent.

    Works for rectangular systems; free variables are set to zero.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    aug = [mat[i][:] + [rhs[i]] for i in range(rows)]
    red, pivots = rref(aug)
    zero = Fraction(0)
    if cols in pivots:
        return None
    x = [zero] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return x


def inverse(mat):
    """Matrix inverse, or None if singular."""
    n = len(mat)
    aug = [mat[i][:] + identity(n)[i] for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def nullspace(mat):
    """Basis of the right nullspace."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    red, pivots = rref(mat)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][fc]
        basis.append(v)
    return basis
