"""linalg against sympy: rank and solve on random rational
matrices; cyclotomic systems as their rational block expansion."""

import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hopftwist import constructors as con
from hopftwist import linalg
from hopftwist.errors import SolveTooCostly
from hopftwist.hopf_cochain import HopfCochain
from hopftwist.multilinear import LegTensor
from hopftwist.scalars import Cyclotomic, expansion, field_rank, field_solve, root_of_unity
from hopftwist.suites import run_suite

SETTINGS = settings(max_examples=150, deadline=None)

# mostly small entries, a third of them zero, some with large parts
_entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    st.builds(Fraction, st.integers(-(10**20), 10**20), st.integers(1, 10**6)),
)


@st.composite
def matrices(draw, rows=None, cols=None):
    """A rational matrix, often singular: some rows are combinations of
    the others and some are zero, in a drawn order."""
    m = draw(st.integers(1, 6)) if rows is None else rows
    n = draw(st.integers(1, 6)) if cols is None else cols
    free = draw(st.integers(1, m))
    mat = [[draw(_entries) for _ in range(n)] for _ in range(free)]
    for _ in range(m - free):
        kind = draw(st.sampled_from(["free", "zero", "combination"]))
        if kind == "free":
            mat.append([draw(_entries) for _ in range(n)])
        elif kind == "zero":
            mat.append([Fraction(0)] * n)
        else:
            coeffs = [draw(_entries) for _ in mat]
            mat.append([sum(c * row[j] for c, row in zip(coeffs, mat)) for j in range(n)])
    return draw(st.permutations(mat))


def _sym(mat):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in mat])


def _fractions(vec):
    return [Fraction(int(sympy.fraction(x)[0]), int(sympy.fraction(x)[1])) for x in vec]


@SETTINGS
@given(matrices())
def test_rank_matches_sympy(mat):
    assert linalg.rank(mat) == _sym(mat).rank()


@SETTINGS
@given(matrices(), st.data())
def test_solve_matches_sympy(mat, data):
    n = len(mat[0])
    if data.draw(st.booleans()):
        # consistent: rhs in the column space
        x = [data.draw(_entries) for _ in range(n)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in mat]
    else:
        # often inconsistent when mat is singular
        rhs = [data.draw(_entries) for _ in mat]
    got = linalg.solve(mat, rhs)
    try:
        sol, params = _sym(mat).gauss_jordan_solve(_sym([[v] for v in rhs]))
    except ValueError:
        assert got is None
        return
    want = _fractions(sol.subs({p: 0 for p in params}))
    assert got == want
    assert all(type(v) is Fraction for v in got)


def test_empty_and_zero_systems():
    assert linalg.rank([]) == 0
    assert linalg.rank([[Fraction(0)] * 3] * 2) == 0
    assert linalg.solve([], []) == []
    assert linalg.solve([[Fraction(0), Fraction(0)]], [Fraction(0)]) == [0, 0]
    assert linalg.solve([[Fraction(0), Fraction(0)]], [Fraction(1)]) is None


def test_int_entries_give_fractions():
    assert linalg.solve([[2, 0], [0, 3]], [1, 1]) == [Fraction(1, 2), Fraction(1, 3)]


def test_cyclotomic_entries_solve_through_blocks():
    # linalg takes rational entries only; a system over Q(i) is solved as
    # its rational expansion into multiplication blocks (scalars.expansion)
    i = root_of_unity(1, 4)
    mat = [[i, Fraction(1)], [Fraction(1), i]]
    rhs = [Fraction(1), Fraction(0)]
    with pytest.raises(TypeError):
        linalg.solve(mat, rhs)
    with pytest.raises(TypeError):
        linalg.rank(mat)

    rows, N = expansion(mat)
    assert N == 4 and rows == [[0, -1, 1, 0], [1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0]]
    x = field_solve(mat, rhs)
    assert [sum(a * b for a, b in zip(row, x)) for row in mat] == rhs
    assert linalg.rank(rows) == 4 and field_rank(mat) == 2
    # [[i, 1], [-1, i]] has rank 1 over Q(i), 2 = 1 * phi(4) over Q
    assert field_rank([[i, Fraction(1)], [Fraction(-1), i]]) == 1
    assert linalg.rank(expansion([[i, Fraction(1)], [Fraction(-1), i]])[0]) == 2


def test_one_by_one_cyclotomic_systems_match_the_expansion():
    # a 1 x 1 system is ranked by a zero test, and solved by
    # Cyclotomic.inverse when that is immediate (a root, one term c z^e);
    # its rank and solution are those of the priced block expansion
    from hopftwist.scalars import _phi_deg, _solved

    z5, z12 = root_of_unity(1, 5), root_of_unity(1, 12)
    values = [
        Fraction(0), Fraction(-3, 2), Cyclotomic(5, {}), Cyclotomic(5, {0: Fraction(2)}),
        z5, z5 + 0, 3 * z5 * z5, root_of_unity(4, 5), z5 + 2, z12 - z5,
        Fraction(1, 3) * z12 + z12 * z12,
    ]
    for a in values:
        rows, N = expansion([[a]])
        assert field_rank([[a]]) == linalg.rank(rows) // _phi_deg(N), a
        for b in values:
            if all(isinstance(x, Fraction) for x in (a, b)):
                continue
            got = field_solve([[a]], [b])
            want = _solved(*expansion([[a, b]]))
            assert got == want, (a, b)
            if got is not None:
                assert got[0].conductor == want[0].conductor, (a, b)
    # an entry of two terms over Q(z_997) is ranked at once; its inverse
    # is a dense elimination, so solving it is priced, and refused at once
    q = root_of_unity(1, 997) + 2
    start = time.perf_counter()
    assert field_rank([[q]]) == 1
    with pytest.raises(SolveTooCostly):
        field_solve([[q]], [Fraction(1)])
    assert time.perf_counter() - start < 1


def test_rational_callers_never_reach_rref():
    assert run_suite("graded-galois").ok
    H = con.group_algebra(con.pauli_8())
    for arity, keys in ((1, range(8)), (2, range(0, 64, 3))):
        value = {k: Fraction((-1) ** k, 1 + k % 5) for k in keys}
        value[0] = Fraction(100)
        F = HopfCochain(H, arity, LegTensor(H, arity, value, _checked=True))
        unit = LegTensor.unit(H, arity)
        assert F.value.mul(F.inverse).eq(unit) and F.inverse.mul(F.value).eq(unit)
    q = root_of_unity(1, 7) + 2
    assert q * q.inverse() == 1


def _no_value_arithmetic(*args):
    raise AssertionError("Cyclotomic arithmetic in an exact inverse")


def test_cyclotomic_host_inversion_is_integer(monkeypatch):
    # the inverse over Q(i) is one integer solve on the blocks' coordinates:
    # no Cyclotomic product, quotient or inverse
    H = con.group_algebra(con.cyclic_group(2))
    i = root_of_unity(1, 4)
    value = LegTensor(H, 1, {0: 2 * i, 1: Fraction(1)})
    for name in ("__mul__", "__truediv__", "inverse"):
        monkeypatch.setattr(Cyclotomic, name, _no_value_arithmetic)
    F = HopfCochain(H, 1, value)
    unit = LegTensor.unit(H, 1)
    assert F.value.mul(F.inverse).eq(unit) and F.inverse.mul(F.value).eq(unit)
    monkeypatch.undo()
    # (2i + g)^-1 = (2i - g) / ((2i)^2 - 1)
    assert F.inverse.data == {0: Fraction(-2, 5) * i, 1: Fraction(1, 5)}
