"""Multiplicative group cochains, the octonion twist table, lattice cochains."""

import random
from fractions import Fraction

import pytest

from hopftwist.batteries import verify_algebra
from hopftwist.constructors import cyclic_group, dihedral_4, elementary_abelian_2, symmetric_3
from hopftwist.errors import NotUnital, WindowOverflow
from hopftwist.group_cohomology import (
    GroupCochain,
    TorusCoboundary,
    TorusCochain,
    TorusWindowAlgebra,
    fano_octonions,
    group_coboundary,
    is_cocycle,
    is_constant_one,
    is_unital,
    normalized,
    random_group_cochain,
    root_of_unity,
    torus_cochain,
    twisted_group_algebra,
)
from hopftwist.reporting import CheckOutcome
from hopftwist.scalars import Cyclotomic

G8, FCOCHAIN, OCT = fano_octonions()
S3 = symmetric_3()


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


def test_group_cochain_failures_count_every_triple_and_name_the_first():
    # a normalized coboundary of S3 (a unital cocycle) with the sign of
    # F((12),(23)) flipped and F((13),e) doubled
    F = group_coboundary(normalized(random_group_cochain(S3, 1, random.Random(5))))
    assert is_cocycle(F).ok and is_unital(F).ok
    table = dict(F.table)
    table[(1, 2)] = -table[(1, 2)]
    table[(3, 0)] = 2 * table[(3, 0)]
    bad = GroupCochain(S3, 2, table)
    got = [
        (ck.id, ck.residual_term_count, ck.witness)
        for ck in (is_cocycle(bad), is_unital(bad), is_constant_one(group_coboundary(bad)))
    ]
    assert got == [
        ("cocycle", 38, "((12),(12),(23))"),
        ("unital", 1, "(13)"),
        ("coboundary-trivial", 38, "('(12)', '(12)', '(23)')"),
    ]


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
            assert is_constant_one(dd).ok
            c2 = random_group_cochain(G, 2, rng)
            dd2 = group_coboundary(group_coboundary(c2))
            assert is_constant_one(dd2).ok


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
    assert [c.ok for c in verify_algebra(A)] == [True, True]
    B = twisted_group_algebra(G8, FCOCHAIN)
    assert [c.ok for c in verify_algebra(B)] == [True, False]
    assert B.associator == {k: v for k, v in group_coboundary(FCOCHAIN).table.items()}


def test_normalized_coboundary_twists_on_every_seed():
    S3 = symmetric_3()
    unital = 0
    for seed in range(1, 201):
        F = random_group_cochain(S3, 1, random.Random(seed))
        unital += is_unital(group_coboundary(F)).ok
        N = normalized(F)
        assert N.table[(S3.identity,)] == 1
        A = twisted_group_algebra(S3, group_coboundary(N))
        assert list(verify_algebra(A))[1].ok
    # without the normalization most draws have no twist
    assert unital < 50


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
    assert (ck.residual_term_count, ck.witness) == (21952, "(-2, -3),(-3, -2),(-3, -2)")


def test_torus_cyclotomic_window_fails_on_a_non_cocycle():
    # the window multiplies the cached roots that value() returns
    checks = {c.id: c for c in is_cocycle(_NotACocycle(Fraction(1, 3)), window=5)}
    ck = checks["cocycle-cyclotomic-window-2"]
    assert not ck.ok
    assert (ck.residual_term_count, ck.witness) == (8000, "(-2, -2),(-2, -2),(-2, -2)")


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


# Naive triple loops over the radius-w square, calling the cochain for
# every triple: the oracle for the table-driven sweeps of cocycle_report.


def _square(w):
    return [(j, k) for j in range(-w, w + 1) for k in range(-w, w + 1)]


def _naive_sweep(F, w, differs):
    bad = 0
    wit = None
    pts = _square(w)
    for a in pts:
        for b in pts:
            for c in pts:
                ab = (a[0] + b[0], a[1] + b[1])
                bc = (b[0] + c[0], b[1] + c[1])
                if differs(F, a, b, c, ab, bc):
                    bad += 1
                    if wit is None:
                        wit = "%r,%r,%r" % (a, b, c)
    return bad, wit


def _exponent_differs(F, a, b, c, ab, bc):
    e = F.exponent
    return (e(b, c) - e(ab, c) + e(a, bc) - e(a, b)) % F.two_q


def _value_differs(F, a, b, c, ab, bc):
    v = F.value
    return v(a, b) * v(ab, c) != v(a, bc) * v(b, c)


class _WrongValueOnOnePair(TorusCochain):
    # value() alone disagrees with exponent(), on the pair (U, V)
    def value(self, a, b):
        if (a, b) == ((1, 0), (0, 1)):
            return root_of_unity(self.exponent(a, b) + 1, self.two_q)
        return super().value(a, b)


class _Uncached(TorusCochain):
    # a new Cyclotomic on each call, equal to the cached root but not it
    def value(self, a, b):
        return Cyclotomic(self.two_q, {self.exponent(a, b): 1})


class _Unreduced(TorusCochain):
    # the same residue mod 2q, but many distinct integers
    def exponent(self, a, b):
        return super().exponent(a, b) + self.two_q * (a[0] - 2 * b[1])


@pytest.mark.parametrize(
    "F",
    [TorusCochain(Fraction(1, 2)), TorusCochain(Fraction(1, 3)),
     TorusCochain(Fraction(2, 5)), _NotACocycle(Fraction(1, 3)),
     _WrongValueOnOnePair(Fraction(2, 5)), _Uncached(Fraction(2, 5)),
     _Unreduced(Fraction(1, 3))],
    ids=["1/2", "1/3", "2/5", "not-a-cocycle", "wrong-value", "uncached", "unreduced"],
)
@pytest.mark.parametrize("window", [1, 2, 3])
def test_torus_sweeps_match_naive_triple_loops(F, window):
    checks = F.cocycle_report(window)
    assert [c.id for c in checks] == [
        "cocycle-exponent-window-%d" % window,
        "cocycle-cyclotomic-window-%d" % min(window, 2),
    ]
    got = [(c.residual_term_count, c.witness) for c in checks]
    assert got == [
        _naive_sweep(F, window, _exponent_differs),
        _naive_sweep(F, min(window, 2), _value_differs),
    ]


def test_cyclotomic_window_fails_on_a_wrong_value_alone():
    checks = {c.id: c for c in is_cocycle(_WrongValueOnOnePair(Fraction(2, 5)), window=5)}
    assert checks["cocycle-exponent-window-3"].ok
    ck = checks["cocycle-cyclotomic-window-2"]
    assert not ck.ok
    assert (ck.residual_term_count, ck.witness) == (84, "(-2, -2),(1, 0),(0, 1)")


class _Counting(TorusCochain):
    def __init__(self, theta):
        super().__init__(theta)
        self.calls = {"exponent": 0, "value": 0}

    def exponent(self, a, b):
        self.calls["exponent"] += 1
        return super().exponent(a, b)

    def value(self, a, b):
        self.calls["value"] += 1
        return super().value(a, b)


def test_torus_sweeps_evaluate_each_pair_once(monkeypatch):
    # the radius-w sweeps read the cochain on a x (radius-2w square) and
    # (radius-2w square) x c: 2 * (4w+1)^2 * (2w+1)^2 pairs, against
    # 4 * (2w+1)^6 calls for one call per triple; and they multiply each
    # pair of value classes once: at most (2q)^2 = 10^2 products at
    # theta = 2/5, against 2 per triple.  An uncached value is classed by
    # ==: by identity alone, each of its 450 values at window 1 would be a
    # class of its own.
    products = []
    cyclotomic_mul = Cyclotomic.__mul__

    def counted(x, y):
        products.append(1)
        return cyclotomic_mul(x, y)

    monkeypatch.setattr(Cyclotomic, "__mul__", counted)
    F = _Counting(Fraction(2, 5))
    assert TorusCoboundary(F).trivial_on_window(3).ok
    assert F.calls["exponent"] <= 2 * 13**2 * 7**2
    F.calls["value"] = 0
    assert all(c.ok for c in F.cocycle_report(2))
    assert F.calls["value"] <= 2 * 9**2 * 5**2
    assert 0 < len(products) <= 10**2
    products.clear()
    assert all(c.ok for c in _Uncached(Fraction(2, 5)).cocycle_report(1))
    assert 0 < len(products) <= 10**2


class _NotUnitalAt(TorusCochain):
    # F(a, 0) is a nontrivial root of unity at the points a of `points`
    def __init__(self, theta, points):
        super().__init__(theta)
        self.points = points

    def exponent(self, a, b):
        return (super().exponent(a, b) + (b == (0, 0) and a in self.points)) % self.two_q


@pytest.mark.parametrize(
    "points,expect",
    [(((1, 0),), (1, "(1, 0)")), (((2, 2), (0, 0), (-1, 1)), (3, "(-1, 1)"))],
    ids=["one-point", "origin-too"],
)
def test_torus_unital_evaluates_the_cochain(points, expect):
    # each point a of the radius-2 square where F(0, a) or F(a, 0) is not 1
    # counts once, and the first in the square's order is the witness
    ck = is_unital(_NotUnitalAt(Fraction(1, 3), points))
    assert (ck.id, ck.status, (ck.residual_term_count, ck.witness)) == ("unital", "fail", expect)
    assert is_unital(_NotUnitalAt(Fraction(1, 3), ((3, 0),))).ok


# The face loop that group_coboundary was before it became the k^G case of
# cochain_engine, and the loops of is_constant_one and the arity-2
# is_cocycle, kept verbatim (but for their names) as the oracle of the
# differential tests below.


def _keys(order, arity):
    out = [()]
    for _ in range(arity):
        out = [k + (g,) for k in out for g in range(order)]
    return out


def _old_group_coboundary(c):
    """Multiplicative coboundary: alternating product over dropped or merged
    slots, the first factor dropping the leading argument.

    Each entry is one quotient of two products.  A rational value enters as
    its integer numerator and denominator, so a rational entry is one
    Fraction of two integer products; any other value enters as itself over
    1."""
    if isinstance(c, TorusCochain):
        return TorusCoboundary(c)
    G = c.group
    n = c.arity
    parts = {key: _ratio(v) for key, v in c.table.items()}
    table = {}
    for key in _keys(G.order, n + 1):
        num = den = 1
        for i in range(n + 2):
            if i == 0:
                sub = key[1:]
            elif i == n + 1:
                sub = key[:-1]
            else:
                sub = key[: i - 1] + (G.mul(key[i - 1], key[i]),) + key[i + 1 :]
            p, q = parts[sub]
            if i % 2:
                num, den = num * q, den * p
            else:
                num, den = num * p, den * q
        if type(num) is int and type(den) is int:
            table[key] = Fraction(num, den)
        else:
            table[key] = num / den
    return GroupCochain(G, n + 1, table)


def _ratio(v):
    """(numerator, denominator) of a cochain value: integers when it is
    rational, (v, 1) otherwise."""
    if isinstance(v, (int, Fraction)):
        return v.numerator, v.denominator
    return v, 1


def _old_is_constant_one(c):
    labels = c.group.labels
    return CheckOutcome.tally("coboundary-trivial", (
        (1, str(tuple(labels[g] for g in k))) for k, v in c.table.items() if v != 1
    ))


def _old_is_cocycle(c):
    G, t = c.group, c.table

    def failures():
        for a in range(G.order):
            for b in range(G.order):
                fab, ab = t[(a, b)], G.mul(a, b)
                for d in range(G.order):
                    if fab * t[(ab, d)] != t[(a, G.mul(b, d))] * t[(b, d)]:
                        yield 1, "(%s,%s,%s)" % (G.labels[a], G.labels[b], G.labels[d])

    return CheckOutcome.tally("cocycle", failures())


def _verdict(ck):
    return ck.id, ck.status, ck.residual_term_count, ck.witness


def _rational(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 5))


def _cyclotomic(rng):
    # r z(12, k): some values rational (k = 0 or 6), most not
    return _rational(rng) * root_of_unity(rng.randrange(12), 12)


_GROUPS = {"S3": symmetric_3, "D4": dihedral_4, "Z2^3": lambda: elementary_abelian_2(3)}


def _cochain(G, arity, draw, rng):
    return GroupCochain(G, arity, {k: draw(rng) for k in _keys(G.order, arity)})


@pytest.mark.parametrize("draw", [_rational, _cyclotomic], ids=["rational", "z12"])
@pytest.mark.parametrize("arity", [1, 2, 3])
@pytest.mark.parametrize("group", sorted(_GROUPS))
def test_group_coboundary_matches_the_face_loop(group, arity, draw):
    G = _GROUPS[group]()
    rng = random.Random("%s/%d/%s" % (group, arity, draw.__name__))
    c = _cochain(G, arity, draw, rng)
    d, old = group_coboundary(c), _old_group_coboundary(c)
    assert d.table == old.table
    assert list(d.table) == _keys(G.order, arity + 1)
    assert d.tensor.eq(old.tensor)
    # the deferred inverse of d(c) is the pointwise inverse of the old table
    assert d.inverse.eq(GroupCochain(G, arity + 1, {k: 1 / v for k, v in old.table.items()}).tensor)
    assert _verdict(is_constant_one(d)) == _verdict(_old_is_constant_one(old))
    if arity == 1:
        assert _verdict(is_cocycle(d)) == _verdict(_old_is_cocycle(old)) == ("cocycle", "pass", 0, None)
    if arity == 2:
        assert _verdict(is_cocycle(c)) == _verdict(_old_is_cocycle(c))
        assert is_cocycle(c).status == "fail"


@pytest.mark.parametrize("draw", [_rational, _cyclotomic], ids=["rational", "z12"])
@pytest.mark.parametrize("group", sorted(_GROUPS))
def test_two_coboundaries_match_the_face_loop_twice(group, draw):
    # the outer d reads the inner one's deferred inverse
    G = _GROUPS[group]()
    rng = random.Random("%s/dd/%s" % (group, draw.__name__))
    for arity in (1, 2):
        c = _cochain(G, arity, draw, rng)
        dd = group_coboundary(group_coboundary(c))
        old = _old_group_coboundary(_old_group_coboundary(c))
        assert dd.table == old.table
        assert _verdict(is_constant_one(dd)) == _verdict(_old_is_constant_one(old))
        assert is_constant_one(dd).ok


def test_a_non_unital_coboundary_matches_the_face_loop():
    # d(c) of a 1-cochain with c(e) != 1 is a cocycle but not unital
    rng = random.Random(11)
    c = random_group_cochain(S3, 1, rng)
    assert c.table[(S3.identity,)] != 1
    d, old = group_coboundary(c), _old_group_coboundary(c)
    assert d.table == old.table
    assert _verdict(is_unital(d)) == _verdict(is_unital(old))
    assert is_unital(d).status == "fail"
    assert _verdict(is_cocycle(d)) == _verdict(_old_is_cocycle(old)) == ("cocycle", "pass", 0, None)
    assert _verdict(is_constant_one(group_coboundary(d))) == ("coboundary-trivial", "pass", 0, None)


def test_a_non_cocycle_keeps_the_face_loop_verdicts_and_witnesses():
    # a unital cocycle of S3 with the sign of F((12),(23)) flipped
    F = group_coboundary(normalized(random_group_cochain(S3, 1, random.Random(5))))
    table = dict(F.table)
    table[(1, 2)] = -table[(1, 2)]
    bad = GroupCochain(S3, 2, table)
    assert _verdict(is_cocycle(bad)) == _verdict(_old_is_cocycle(bad))
    assert is_cocycle(bad).witness == "((12),(12),(23))"
    d, old = group_coboundary(bad), _old_group_coboundary(bad)
    assert d.table == old.table
    assert _verdict(is_constant_one(d)) == _verdict(_old_is_constant_one(old))
    assert is_constant_one(d).witness == "('(12)', '(12)', '(23)')"
    assert is_constant_one(d).residual_term_count == is_cocycle(bad).residual_term_count > 0
