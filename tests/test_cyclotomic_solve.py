"""The one exact solve over Q(z_N) against sympy.

field_rank, field_solve and the tensor inverse over a cyclotomic field all
go through the integer columns of scalars (solve_columns and their
expansion), and no suite reaches that path, so these tests guard it.
Seeded random systems over N in 3, 4, 5, 8, 12, rank-deficient and
inconsistent ones among them, are decided by sympy's DomainMatrix over
QQ.algebraic_field(exp(2*pi*I/N)): field_rank is its rank, and field_solve
is None exactly when rank [A|b] > rank A, and otherwise a solution that
satisfies the system in Cyclotomic arithmetic.  Tensors with values in
Q(z_N) over k[Z3], Taft(3) and a twisted k_F[S3] are inverted against
sympy's solve of their left regular representation over that field, built
entry by entry from basis_mul leg by leg (the QQ oracle of
test_regular_inverse, over Q(z_N)), and the inverse is two-sided.  A
rational system is neither priced nor expanded."""

import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from sympy import QQ, I, exp, pi
from sympy.polys.matrices import DomainMatrix

from hopftwist import constructors as con
from hopftwist import scalars
from hopftwist.errors import NotInvertible, SchemaError
from hopftwist.group_cohomology import GroupCochain, group_coboundary, twisted_group_algebra
from hopftwist.multilinear import LegTensor, decode_key, tensor_invert
from hopftwist.sample_hosts import taft
from hopftwist.scalars import Cyclotomic, Series, field_rank, field_solve, root_of_unity

CONDUCTORS = (3, 4, 5, 8, 12)
_FIELDS = {}


def _field(N):
    """(K, z): Q(z_N) as a sympy domain and its generator z_N."""
    if N not in _FIELDS:
        K = QQ.algebraic_field(exp(2 * pi * I / N))
        _FIELDS[N] = K, K.from_sympy(exp(2 * pi * I / N))
    return _FIELDS[N]


def _in_field(v, N):
    """A rational or Cyclotomic value, its conductor dividing N, in sympy's
    Q(z_N)."""
    K, z = _field(N)
    q = Cyclotomic._coerce(v)
    s = N // q.conductor
    out = K.zero
    for e, c in q.coords.items():
        out += K.convert(QQ(c.numerator, c.denominator)) * z ** (e * s)
    return out


def _matrix(rows, N):
    K, _z = _field(N)
    return DomainMatrix([[_in_field(v, N) for v in row] for row in rows], (len(rows), len(rows[0])), K)


def _value(rng, N):
    """Zero a third of the time, else a sum of one to three small multiples
    of powers of z_N."""
    if rng.random() < 1 / 3:
        return Fraction(0)
    total = Fraction(0)
    for _ in range(rng.randint(1, 3)):
        total = total + Fraction(rng.randint(-2, 2), rng.randint(1, 2)) * root_of_unity(rng.randrange(N), N)
    return total


def _dot(row, x):
    total = Fraction(0)
    for a, v in zip(row, x):
        total = total + a * v
    return total


def _systems(rng, N, count):
    """count systems (A, b) over Q(z_N), 1 to 4 rows and columns: every third
    A has its last row a combination of the others, and every other b is A
    times a random x, the rest random (inconsistent when A is deficient and
    b leaves its column space)."""
    for case in range(count):
        R, C = rng.randint(1, 4), rng.randint(1, 4)
        A = [[_value(rng, N) for _ in range(C)] for _ in range(R)]
        if case % 3 == 0 and R > 1:
            c = [_value(rng, N) for _ in range(R - 1)]
            A[-1] = [_dot(c, [row[j] for row in A[:-1]]) for j in range(C)]
        if case % 2:
            x = [_value(rng, N) for _ in range(C)]
            b = [_dot(row, x) for row in A]
        else:
            b = [_value(rng, N) for _ in range(R)]
        yield A, b


def test_field_rank_and_solve_match_sympy():
    rng = random.Random(1729)
    seen = set()
    for N in CONDUCTORS:
        for A, b in _systems(rng, N, 12):
            rank = _matrix(A, N).rank()
            rank_b = _matrix([row + [v] for row, v in zip(A, b)], N).rank()
            assert field_rank(A) == rank, (N, A)
            x = field_solve(A, b)
            if rank_b > rank:
                assert x is None, (N, A, b)
            else:
                assert x is not None, (N, A, b)
                assert [_dot(row, x) for row in A] == b, (N, A, b, x)
            seen.add((rank < min(len(A), len(A[0])), rank_b > rank))
    # full-rank and deficient systems, consistent and inconsistent ones
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_a_rational_system_is_not_priced(monkeypatch):
    # a rational system goes to linalg as it is: no price, no columns
    monkeypatch.setattr(scalars, "solve_work", None)
    monkeypatch.setattr(scalars, "solve_columns", None)
    A = [[Fraction(1), 2, 0], [3, Fraction(4, 5), 1], [4, Fraction(14, 5), 1]]
    assert field_rank(A) == 2
    x = field_solve(A, [1, 2, 3])
    assert [_dot(row, x) for row in A] == [1, 2, 3]
    assert field_solve(A, [1, 2, 4]) is None


def test_an_entry_outside_the_field_is_refused_at_any_size(monkeypatch):
    # a Series is no element of Q(z_N): one row of it, two rows, a zero
    # row and a solve are all refused by the same entry check
    h = Series.hbar(2)
    for call in (
        lambda: field_rank([[h]]),
        lambda: field_rank([[h], [h]]),
        lambda: field_rank([[Series.zero(2)]]),
        lambda: field_solve([[h]], [h]),
    ):
        with pytest.raises(SchemaError) as err:
            call()
        assert err.value.field == "scalar"
    # the empty matrix and a rational row are ranked with no price
    monkeypatch.setattr(scalars, "solve_work", None)
    monkeypatch.setattr(scalars, "_field_columns", None)
    assert field_rank([]) == 0
    assert field_rank([[Fraction(1, 2), 3]]) == 1
    assert field_rank([[0, Fraction(0)], [Fraction(2, 3), 0]]) == 1


def _twisted_s3():
    """k_F[S3] with F = df for a normalized 1-cochain f, so the structure
    constants are fractions other than 1."""
    S3 = con.symmetric_3()
    values = [Fraction(1), Fraction(2, 3), Fraction(-5, 2), Fraction(3, 4), Fraction(-1, 6), Fraction(7, 5)]
    f = GroupCochain(S3, 1, {(g,): values[g] for g in range(S3.order)})
    return twisted_group_algebra(S3, group_coboundary(f))


HOSTS = {
    "k[Z3]": (con.group_algebra(con.cyclic_group(3)), 1),
    "Taft(3)": (taft(3), 3),
    "k_F[S3]": (_twisted_s3(), 1),
}


def _regular(t, L):
    """(matrix, unit) over Q(z_L): column j of the matrix is t * b_j for the
    j-th key of host^(tensor arity), from basis_mul leg by leg; unit is the
    unit of host^(tensor arity) as a column."""
    host, arity = t.host, t.arity
    keys = list(product(range(host.dim), repeat=arity))
    index = {k: i for i, k in enumerate(keys)}
    entries = [(decode_key(key, host.dim, arity), a) for key, a in t.data.items()]
    cols = []
    for kj in keys:
        col = [Fraction(0)] * len(keys)
        for ki, a in entries:
            terms = {(): a}
            for x, y in zip(ki, kj):
                terms = {k + (m,): c * w for k, c in terms.items() for m, w in host.basis_mul(x, y).items()}
            for k, c in terms.items():
                col[index[k]] = col[index[k]] + c
        cols.append(col)
    unit = {(): Fraction(1)}
    for _ in range(arity):
        unit = {k + (m,): c * w for k, c in unit.items() for m, w in host.elem_unit().items()}
    return _matrix([list(r) for r in zip(*cols)], L), _matrix([[unit.get(k, 0)] for k in keys], L)


@pytest.mark.parametrize("name", sorted(HOSTS))
def test_cyclotomic_tensor_inverse_matches_sympy(name):
    host, M = HOSTS[name]
    rng = random.Random(1729)
    outcomes = set()
    for case in range(8):
        N = rng.choice([3, 4, 6])
        L = lcm(N, M)
        arity = 2 if host.dim == 3 and case % 2 else 1
        data = {rng.randrange(host.dim**arity): _value(rng, N) for _ in range(rng.randint(1, 4))}
        if case % 4:
            data[0] = data.get(0, 0) + 2 * root_of_unity(rng.randrange(N), N)
        t = LegTensor(host, arity, data)
        mat, unit = _regular(t, L)
        if mat.rank() < mat.shape[0]:
            with pytest.raises(NotInvertible):
                tensor_invert(t)
            outcomes.add(False)
            continue
        inv = tensor_invert(t)
        want = [row[0] for row in mat.lu_solve(unit).to_list()]
        got = [_in_field(inv.data.get(k, 0), L) for k in range(mat.shape[0])]
        assert got == want, (name, data)
        one = LegTensor.unit(host, arity)
        assert t.mul(inv).eq(one) and inv.mul(t).eq(one)
        outcomes.add(True)
    assert True in outcomes
