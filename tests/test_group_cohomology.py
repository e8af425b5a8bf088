"""Multiplicative group cochains, the octonion twist table, lattice cochains."""

import random
from fractions import Fraction

import pytest

from hopftwist.constructors import cyclic_group, elementary_abelian_2, symmetric_3
from hopftwist.errors import NotUnital, WindowOverflow
from hopftwist.group_cohomology import (
    GroupCochain,
    TorusCochain,
    TorusWindowAlgebra,
    fano_octonions,
    group_coboundary,
    is_cocycle,
    is_constant_one,
    is_unital,
    random_group_cochain,
    root_of_unity,
    torus_cochain,
    twisted_group_algebra,
)

G8, FCOCHAIN, OCT = fano_octonions()


def oct_mul(u, v):
    return OCT.elem_mul(u, v)


def oct_conj(u):
    # negate the seven imaginary coordinates
    return {i: (c if i == 0 else -c) for i, c in u.items()}


def oct_norm(u):
    w = oct_mul(u, oct_conj(u))
    assert set(w) <= {0}
    return w.get(0, Fraction(0))


def test_coboundary_sign_census():
    # the octonion associator: exactly 168 of the 512 triples pick up -1
    dF = group_coboundary(FCOCHAIN)
    neg = [k for k, v in dF.table.items() if v == -1]
    assert len(neg) == 168
    assert all(v in (1, -1) for v in dF.table.values())
    assert dF.table[(1, 2, 4)] == -1


def test_twist_cochain_is_not_closed():
    assert is_unital(FCOCHAIN).ok
    assert not is_cocycle(FCOCHAIN).ok


def test_octonion_quasi_associativity_all_triples():
    # a(bc) = dF(a,b,c) (ab)c on all 512 basis triples
    dF = OCT.associator
    n = OCT.dim
    for a in range(n):
        for b in range(n):
            ab = OCT.basis_mul(a, b)
            for c in range(n):
                lhs = oct_mul({a: Fraction(1)}, OCT.basis_mul(b, c))
                rhs = {
                    k: dF[(a, b, c)] * w * v
                    for j, v in ab.items()
                    for k, w in OCT.basis_mul(j, c).items()
                }
                assert lhs == rhs, (a, b, c)


def test_octonion_alternativity_basis():
    # x(xy) = (xx)y and (yx)x = y(xx) for all basis pairs
    for a in range(8):
        x = {a: Fraction(1)}
        xx = oct_mul(x, x)
        for b in range(8):
            y = {b: Fraction(1)}
            assert oct_mul(x, oct_mul(x, y)) == oct_mul(xx, y)
            assert oct_mul(oct_mul(y, x), x) == oct_mul(y, xx)


def test_octonion_norm_multiplicative_seeded():
    rng = random.Random(20)
    for _ in range(40):
        u = {i: Fraction(rng.randint(-3, 3)) for i in range(8)}
        v = {i: Fraction(rng.randint(-3, 3)) for i in range(8)}
        u = {i: c for i, c in u.items() if c}
        v = {i: c for i, c in v.items() if c}
        assert oct_norm(oct_mul(u, v)) == oct_norm(u) * oct_norm(v)


def test_group_coboundary_squares_to_one():
    rng = random.Random(21)
    for G in (cyclic_group(3), symmetric_3(), elementary_abelian_2(2)):
        for _ in range(5):
            c = random_group_cochain(G, 1, rng)
            dd = group_coboundary(group_coboundary(c))
            assert is_constant_one(dd)
            c2 = random_group_cochain(G, 2, rng)
            dd2 = group_coboundary(group_coboundary(c2))
            assert is_constant_one(dd2)


def test_coboundaries_are_cocycles():
    rng = random.Random(22)
    G = symmetric_3()
    c = random_group_cochain(G, 1, rng)
    d = group_coboundary(c)
    assert is_cocycle(d).ok


def test_random_cochain_deterministic():
    G = symmetric_3()
    a = random_group_cochain(G, 2, random.Random(7))
    b = random_group_cochain(G, 2, random.Random(7))
    assert a.table == b.table


def test_twisted_group_algebra_requires_unital():
    G = cyclic_group(2)
    table = {(i, j): Fraction(2) for i in range(2) for j in range(2)}
    with pytest.raises(NotUnital):
        twisted_group_algebra(G, GroupCochain(G, 2, table))


def test_twisted_group_algebra_assoc_iff_cocycle():
    G = elementary_abelian_2(2)
    # dcoboundary of a unital 1-cochain: unital 2-cocycle
    table1 = {(g,): Fraction(1) if g == 0 else Fraction(g + 1) for g in range(4)}
    F = group_coboundary(GroupCochain(G, 1, table1))
    A = twisted_group_algebra(G, F)
    assert A.assoc_flag == "associative"
    assert A.check_associativity().ok
    B = twisted_group_algebra(G8, FCOCHAIN)
    assert B.assoc_flag == "quasi"
    assert B.associator == {k: v for k, v in group_coboundary(FCOCHAIN).table.items()}


@pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)])
def test_torus_cochain_cocycle_and_unital(theta):
    F, W = torus_cochain(theta, 5)
    out = is_cocycle(F, window=W)
    checks = out if isinstance(out, list) else [out]
    for ck in checks:
        assert ck.ok, ck.id
    assert is_unital(F).ok


@pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)])
def test_torus_commutation_exact(theta):
    F, W = torus_cochain(theta, 5)
    A = TorusWindowAlgebra(F, W)
    assert A.commutation_report().ok
    # F(U, V) is the primitive 2q-th root to the p-th power
    assert F.value((1, 0), (0, 1)) == root_of_unity(
        theta.numerator, 2 * theta.denominator
    )


class _NotACocycle(TorusCochain):
    # quadratic in n, so its coboundary does not vanish
    def exponent(self, a, b):
        (j, k), (m, n) = a, b
        return (self.p * (j * n * n - k * m)) % self.two_q


def test_torus_exponent_window_fails_on_a_non_cocycle():
    checks = {c.id: c for c in is_cocycle(_NotACocycle(Fraction(1, 3)), window=5)}
    ck = checks["cocycle-exponent-window-3"]
    assert not ck.ok
    assert ck.residual_term_count > 0 and ck.witness


def test_torus_window_overflow():
    F, W = torus_cochain(Fraction(1, 3), 2)
    A = TorusWindowAlgebra(F, W)
    with pytest.raises(WindowOverflow):
        A.mul_basis((2, 0), (1, 0))


def test_torus_coboundary_trivial_on_window():
    F, _ = torus_cochain(Fraction(2, 5), 4)
    dF = group_coboundary(F)
    pts = [(j, k) for j in range(-2, 3) for k in range(-2, 3)]
    for a in pts:
        for b in pts:
            for c in pts:
                assert dF.value(a, b, c) == 1
