"""Integer-numerator tensor products against the generic kernel.

The integer path of LegTensor.mul (exact and series values, convolved or
intersected on pointwise hosts) and the exact inverse built on it are
checked against the generic kernel on Fraction and Series scalars; the
generic path itself, and the key-product rows of permutation tables, are
checked against products expanded leg by leg with the host's own
multiplication in plain scalar arithmetic; a dense product added into a
caller's list or dict accumulator adds exactly f times the product.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hopftwist import multilinear as kernel
from hopftwist.constructors import (
    FiniteGroup,
    dihedral_4,
    dual_group_hopf,
    elementary_abelian_2,
    group_algebra,
    pauli_8,
    symmetric_3,
)
from hopftwist.group_cohomology import (
    GroupCochain,
    group_coboundary,
    twisted_group_algebra,
)
from hopftwist.hopf_cochain import HopfCochain, counital_projection, twist
from hopftwist.multilinear import (
    AlgebraPresentation,
    HopfPresentation,
    LegTensor,
    decode_key,
    encode_key,
    tensor_invert,
    with_series_ring,
)
from hopftwist.scalars import Cyclotomic, ScalarRing, Series, TauLaurent

S3 = symmetric_3()
KS3 = group_algebra(S3)
KP8 = group_algebra(pauli_8())


def _twisted_s3():
    """k_F[S3] with F = df for a normalized 1-cochain f (f(e) = 1), so the
    structure constants are fractions other than 1."""
    values = [Fraction(1), Fraction(2, 3), Fraction(-5, 2), Fraction(3, 4),
              Fraction(-1, 6), Fraction(7, 5)]
    f = GroupCochain(S3, 1, {(g,): values[g] for g in range(S3.order)})
    return twisted_group_algebra(S3, group_coboundary(f))


KF = _twisted_s3()

SETTINGS = settings(max_examples=25, deadline=None)
RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)


def tensors(host, arity, values=RATIONALS):
    keys = st.tuples(*[st.integers(0, host.dim - 1)] * arity)
    return st.dictionaries(keys, values, max_size=6).map(
        lambda d: LegTensor(host, arity, d)
    )


def generic(a, b):
    host = a.host
    return kernel.tensor_convolve(
        a.data, b.data, host.dim, a.arity, host.base_table()
    )


@st.composite
def rational_pairs(draw, hosts):
    host = draw(st.sampled_from(hosts))
    arity = draw(st.integers(1, 3))
    return draw(tensors(host, arity)), draw(tensors(host, arity))


@SETTINGS
@given(rational_pairs([KS3, KP8]))
def test_integer_path_matches_generic_kernel(pair):
    a, b = pair
    got = a.mul(b).data
    assert got == generic(a, b)
    assert all(type(v) is Fraction and v for v in got.values())


def test_twisted_host_has_a_denominator():
    assert KF.rational_table()[1] > 1


@SETTINGS
@given(rational_pairs([KF]))
def test_integer_path_matches_generic_kernel_over_fractional_table(pair):
    # the product's denominator carries the table's denominator once per leg
    a, b = pair
    assert a.mul(b).data == generic(a, b)


# the largest |structure constant| of KF
KF_BOUND = max(abs(w) for cell in KF.mult.values() for w in cell.values())


@SETTINGS
@given(st.integers(1, 2), st.data())
def test_exact_inverse_over_fractional_table(arity, data):
    t = data.draw(tensors(KF, arity, st.integers(-1, 1).map(Fraction)))
    # each drawn term puts at most |c| * KF_BOUND**arity into a column of the
    # left-regular matrix, so this unit coefficient makes the matrix strictly
    # diagonally dominant, hence t invertible
    lead = 1 + KF_BOUND ** arity * sum(abs(c) for c in t.data.values())
    t = t.add(LegTensor.unit(KF, arity).scale(lead))
    inv = tensor_invert(t)
    unit = LegTensor.unit(KF, arity)
    assert t.mul(inv).eq(unit) and inv.mul(t).eq(unit)
    assert LegTensor(KF, arity, generic(t, inv)).eq(unit)


# k[Z2] on the basis 2e, g: its unit e = (2e)/2 has the denominator 2, so
# the exact inverse must divide by the unit's denominator
KU = AlgebraPresentation(
    2,
    ["2e", "g"],
    ScalarRing(),
    {(0, 0): {0: 2}, (0, 1): {1: 2}, (1, 0): {1: 2}, (1, 1): {0: Fraction(1, 2)}},
    [Fraction(1, 2), 0],
)


@SETTINGS
@given(st.integers(1, 2), st.data())
def test_exact_inverse_with_a_fractional_unit(arity, data):
    unit = LegTensor.unit(KU, arity)
    assert unit.rows()[0, 0, 0][1] == 2 ** arity
    t = data.draw(tensors(KU, arity))
    # as above, with 2 the largest |structure constant|; the unit's left
    # regular matrix is the identity
    lead = 1 + 2 ** arity * sum(abs(c) for c in t.data.values())
    t = t.add(unit.scale(lead))
    inv = tensor_invert(t)
    assert t.mul(inv).eq(unit) and inv.mul(t).eq(unit)
    assert LegTensor(KU, arity, generic(t, inv)).eq(unit)


K = 2
KS3H = with_series_ring(KS3, K)


def series_values(max_degree=K):
    terms = st.dictionaries(st.integers(0, max_degree), RATIONALS, min_size=1, max_size=2)
    return terms.map(lambda d: Series(K, d)).filter(bool)


@SETTINGS
@given(st.integers(1, 2), st.data())
def test_series_product_matches_generic_and_stores_no_zeros(arity, data):
    # high hbar degrees on both sides: most products truncate to zero at K
    a = data.draw(tensors(KS3H, arity, series_values()))
    b = data.draw(tensors(KS3H, arity, series_values()))
    got = a.mul(b).data
    assert got == generic(a, b)
    assert all(v for v in got.values())


def test_series_product_truncating_to_zero_is_empty():
    h2 = Series.hbar(K, power=2)
    a = LegTensor(KS3H, 2, {(1, 2): h2, (3, 0): h2 * 3})
    b = LegTensor(KS3H, 2, {(2, 2): Series.hbar(K), (0, 4): h2})
    assert a.mul(b).data == {}


def test_leg_calculus_drops_coefficients_truncating_to_zero():
    # coproduct and counit coefficient h: (h^K) * h is zero at order K
    ring = ScalarRing(hbar_order=K)
    h = Series.hbar(K)
    H = HopfPresentation(
        2, ["a", "b"], ring,
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 1}},
        [1, 0],
        {0: {(0, 0): 1}, 1: {(1, 1): h, (0, 1): 1}},
        [1, h],
    )
    t = LegTensor(H, 2, {(1, 1): Series.hbar(K, power=K), (0, 1): h})
    d = t.coproduct_leg(1)
    assert d.entries() == [((0, 0, 1), h), ((0, 1, 1), h * h), ((1, 0, 1), Series.hbar(K, power=K))]
    e = t.counit_leg(1)
    assert e.entries() == [((0,), h * h)]
    assert all(v for v in d.data.values()) and all(v for v in e.data.values())


def _twisted_series_host():
    """k[S3] over order-2 series, coproduct conjugated by F = 1 + h P with
    a counital P of fractional coefficients."""
    P = counital_projection(
        LegTensor(KS3H, 2, {(1, 2): Fraction(2, 3), (3, 4): Fraction(-1, 2), (2, 5): Fraction(5, 7)})
    )
    F = LegTensor.unit(KS3H, 2).add(P.scale(Series.hbar(K)))
    return twist(KS3H, HopfCochain(KS3H, 2, F)).twisted


TWISTED = _twisted_series_host()


def coproduct_leg_reference(t, leg):
    out = {}
    for digits, c in t.entries():
        for (j, k), w in t.host.basis_coproduct(digits[leg]).items():
            key = digits[:leg] + (j, k) + digits[leg + 1:]
            out[key] = c * w if key not in out else out[key] + c * w
    return {k: v for k, v in out.items() if v}


@SETTINGS
@given(st.integers(1, 2), st.data())
def test_coproduct_leg_over_twisted_host_matches_series_arithmetic(arity, data):
    assert any(den > 1 for _cells, den in TWISTED.coproduct_pieces()[0].values())
    tau_series = Series(K, {1: TauLaurent.tau()})
    values = st.one_of(series_values(), st.just(tau_series))
    t = data.draw(tensors(TWISTED, arity, values))
    leg = data.draw(st.integers(0, arity - 1))
    d = t.coproduct_leg(leg)
    assert dict(d.entries()) == coproduct_leg_reference(t, leg)
    assert all(v for v in d.data.values())


def _cyclo_values():
    z3 = Cyclotomic(3, {1: 1})
    return st.one_of(RATIONALS, RATIONALS.map(lambda q: z3 * q))


def legwise(a, b):
    """a*b expanded leg by leg from host.basis_mul, in plain scalar
    arithmetic, on flat keys."""
    host = a.host
    return flat(basis_product(host, dict(a.entries()), dict(b.entries())), host.dim)


@SETTINGS
@given(st.integers(1, 2), st.data())
def test_cyclotomic_operands_keep_the_generic_path(arity, data):
    a = data.draw(tensors(KS3, arity, _cyclo_values()))
    b = data.draw(tensors(KS3, arity, _cyclo_values()))
    assert a.mul(b).data == legwise(a, b)


@SETTINGS
@given(st.data())
def test_tau_and_cyclotomic_series_keep_the_generic_path(data):
    tau = TauLaurent.tau()
    z4 = Cyclotomic(4, {1: 1})
    coeffs = st.sampled_from([Series(K, {0: 1, 1: tau}), Series(K, {1: z4}), Series(K, {0: 2})])
    a = data.draw(tensors(KS3H, 2, coeffs))
    b = data.draw(tensors(KS3H, 2, series_values()))
    assert a.mul(b).data == legwise(a, b)
    assert b.mul(a).data == legwise(b, a)


# ---------------------------------------------------------------------------
# key-product rows of permutation tables

Z22 = elementary_abelian_2(2)
GROUPS = [Z22, S3, elementary_abelian_2(3), pauli_8()]
GROUP_HOSTS = [(G, group_algebra(G)) for G in GROUPS]
INTEGERS = st.integers(-3, 3).filter(bool)


def group_product(G, a, b):
    """a*b in k[G^n] on digit-tuple keys, legwise with G.mul."""
    out = {}
    for x, va in a.items():
        for y, vb in b.items():
            key = tuple(map(G.mul, x, y))
            out[key] = out.get(key, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def basis_product(host, a, b):
    """a*b on digit-tuple keys, expanded leg by leg from host.basis_mul."""
    out = {}
    for x, va in a.items():
        for y, vb in b.items():
            terms = [((), va * vb)]
            for g, h in zip(x, y):
                terms = [
                    (key + (k,), c * w)
                    for key, c in terms
                    for k, w in host.basis_mul(g, h).items()
                ]
            for key, c in terms:
                out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


def flat(d, dim):
    return {encode_key(k, dim): v for k, v in d.items()}


def digit_tensors(dim, arity, values):
    keys = st.tuples(*[st.integers(0, dim - 1)] * arity)
    return st.dictionaries(keys, values, max_size=6)


@st.composite
def group_operands(draw):
    """(G, host, arity, a, b); when asked, b gets a term whose product with
    a term of a cancels another pair's product."""
    G, host = draw(st.sampled_from(GROUP_HOSTS))
    arity = draw(st.integers(1, 5))
    values = draw(st.sampled_from([INTEGERS, RATIONALS]))
    a = draw(digit_tensors(host.dim, arity, values))
    b = draw(digit_tensors(host.dim, arity, values))
    if draw(st.booleans()) and len(a) >= 2 and b:
        x1, x2 = list(a)[:2]
        y1 = next(iter(b))
        # x2 * y2 == x1 * y1, so a[x1] b[y1] + a[x2] b[y2] == 0
        y2 = tuple(
            G.mul(G.inverse(g2), G.mul(g1, h1)) for g1, g2, h1 in zip(x1, x2, y1)
        )
        a[x2] = a[x1]
        b[y2] = -b[y1]
    return G, host, arity, a, b


def test_permutation_tables_share_the_row_cache():
    for _G, host in GROUP_HOSTS:
        assert host.base_table().rows is host._rows
        assert host.rational_table()[0].rows is host._rows
    assert KF.base_table().rows is None
    assert KF.rational_table()[0].rows is None


@SETTINGS
@given(group_operands())
def test_key_product_rows_match_group_multiplication(case):
    G, host, arity, a, b = case
    want = flat(group_product(G, a, b), host.dim)
    got = kernel.tensor_convolve(
        flat(a, host.dim), flat(b, host.dim), host.dim, arity, host.base_table()
    )
    assert got == want
    assert all(got.values())
    prod = LegTensor(host, arity, a).mul(LegTensor(host, arity, b))
    assert prod.data == want
    assert all(type(v) is Fraction and v for v in prod.data.values())


def test_products_cancelling_to_zero_store_nothing():
    host = group_algebra(Z22)
    g = 3
    for arity in range(1, 6):
        e_n, g_n = (0,) * arity, (g,) * arity
        a = LegTensor(host, arity, {e_n: 1, g_n: 1})
        b = LegTensor(host, arity, {e_n: 1, g_n: -1})
        # (1 + g)(1 - g) = 1 - g^2 = 0, legwise in k[Z2^2]
        assert a.mul(b).data == {}
        assert kernel.tensor_convolve(
            a.data, b.data, host.dim, arity, host.base_table()
        ) == {}


def _blocks(arity, dim):
    """(width, stride, first leg) of each block, most significant first: a
    one-leg block first when the arity is odd, then blocks of two legs."""
    widths = [1] * (arity % 2) + [2] * (arity // 2)
    out, end = [], 0
    for w in widths:
        end += w
        out.append((w, dim ** (arity - end), end - w))
    return out


def test_row_cache_holds_only_rows_met():
    G = S3
    dim = G.order
    host = group_algebra(G)
    assert host._rows == {}
    base = host.base_table()
    met = {}
    rng = random.Random(5)
    for arity in (3, 1, 5, 2, 4):
        a = {
            tuple(rng.randrange(dim) for _ in range(arity)): rng.randint(1, 3)
            for _ in range(3)
        }
        b = {tuple(rng.randrange(dim) for _ in range(arity)): 1}
        kernel.tensor_convolve(flat(a, dim), flat(b, dim), dim, arity, base)
        if arity <= 4:
            # arity 5 and up take the per-leg loop and build no rows
            for width, stride, start in _blocks(arity, dim):
                seen = met.setdefault((width, stride), set())
                seen.update(encode_key(x[start:start + width], dim) for x in a)
        assert {shape: set(rows) for shape, rows in host._rows.items()} == met
    for (width, stride), rows in host._rows.items():
        for x, row in rows.items():
            xs = decode_key(x, dim, width)
            assert len(row) == dim ** width
            for y, k in enumerate(row):
                ys = decode_key(y, dim, width)
                assert k == stride * encode_key(tuple(map(G.mul, xs, ys)), dim)


def _cyclotomic_twisted_z22():
    """k_F[Z2^2] with F = df for f valued in fourth roots of unity, so the
    structure constants are cyclotomic and no cell is (k, None) alone."""
    z4 = [Cyclotomic(4, {k: 1}) for k in range(4)]
    f = GroupCochain(Z22, 1, {(g,): z4[g] for g in range(Z22.order)})
    return twisted_group_algebra(Z22, group_coboundary(f))


KZ = _cyclotomic_twisted_z22()


@SETTINGS
@given(st.sampled_from([KF, KZ]), st.integers(1, 4), st.data())
def test_non_permutation_tables_match_leg_by_leg_products(host, arity, data):
    assert host.base_table().rows is None
    a = data.draw(digit_tensors(host.dim, arity, RATIONALS))
    b = data.draw(digit_tensors(host.dim, arity, RATIONALS))
    want = flat(basis_product(host, a, b), host.dim)
    got = kernel.tensor_convolve(
        flat(a, host.dim), flat(b, host.dim), host.dim, arity, host.base_table()
    )
    assert got == want
    assert LegTensor(host, arity, a).mul(LegTensor(host, arity, b)).data == want


@SETTINGS
@given(st.integers(1, 4), st.data())
def test_cyclotomic_values_over_permutation_table_match_per_leg_loop(arity, data):
    a = data.draw(digit_tensors(KS3.dim, arity, _cyclo_values()))
    b = data.draw(digit_tensors(KS3.dim, arity, _cyclo_values()))
    want = flat(group_product(S3, a, b), KS3.dim)
    a, b = flat(a, KS3.dim), flat(b, KS3.dim)
    base = KS3.base_table()
    got = kernel.tensor_convolve(a, b, KS3.dim, arity, base)
    assert got == want
    # a plain list carries no rows, so it takes the per-leg loop
    assert got == kernel.tensor_convolve(a, b, KS3.dim, arity, list(base))


# ---------------------------------------------------------------------------
# dense operands: the list accumulator of permutation tables

def _relabelled(G, seed):
    """G with its elements renamed by a seeded permutation; at seed 5 the
    identity of dihedral_4() becomes element 6, so the unit key of a
    tensor is not key 0."""
    perm = list(range(G.order))
    random.Random(seed).shuffle(perm)
    back = {p: i for i, p in enumerate(perm)}
    table = [[perm[G.mul(back[x], back[y])] for y in range(G.order)] for x in range(G.order)]
    return FiniteGroup(G.order, table)


DENSE_HOSTS = [
    (G, group_algebra(G))
    for G in (
        S3,
        elementary_abelian_2(3),
        dihedral_4(),
        pauli_8(),
        _relabelled(dihedral_4(), 5),
    )
]


_Z3 = Cyclotomic(3, {1: 1})


def _dense_value(rng, kind):
    q = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), 1 if kind == "int" else rng.randint(1, 6))
    return q * _Z3 if kind == "cyclotomic" and rng.random() < 0.5 else q


@st.composite
def dense_operands(draw, kinds=("int", "rational"), hosts=DENSE_HOSTS):
    """(G, host, arity, a, b) on digit-tuple keys with len(a) * len(b) at
    least dim**arity, the products that tensor_convolve accumulates in a
    list, and at most about twice that.  The key sets are drawn among all
    dim**arity keys, and the values from one kind: small integers,
    fractions, or fractions half of them times z(3,1); a seeded random
    source draws them, since an operand can have thousands of keys."""
    G, host = draw(st.sampled_from(hosts))
    arity = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(kinds))
    rng = draw(st.randoms(use_true_random=False))
    size = host.dim ** arity
    na = draw(st.integers(1, size))
    least = -(-size // na)
    nb = draw(st.integers(least, min(size, 2 * least)))
    a, b = (
        {decode_key(k, host.dim, arity): _dense_value(rng, kind) for k in rng.sample(range(size), n)}
        for n in (na, nb)
    )
    return G, host, arity, a, b


def _adds_f_times(product, fresh, size):
    """product(acc, f), added into a pre-filled list and into a pre-filled
    dict, returns acc with exactly f times fresh, the product made on its
    own, added to what acc held."""
    rng = random.Random(size)
    start = [rng.randint(-3, 3) for _ in range(size)]
    acc = list(start)
    assert product(acc, -7) is acc
    assert acc == [s - 7 * fresh.get(k, 0) for k, s in enumerate(start)]
    acc = {k: s for k, s in enumerate(start) if s}
    assert product(acc, 3) is acc
    want = {k: s + 3 * fresh.get(k, 0) for k, s in enumerate(start)}
    assert {k: v for k, v in acc.items() if v} == {k: v for k, v in want.items() if v}


def _dense_product(host, arity, a, b):
    a, b = flat(a, host.dim), flat(b, host.dim)
    dim, size = host.dim, host.dim ** arity
    assert len(a) * len(b) >= size
    base = host.base_table()
    got = kernel.tensor_convolve(a, b, dim, arity, base)
    # a plain list carries no rows, so it takes the per-leg loop
    assert got == kernel.tensor_convolve(a, b, dim, arity, list(base))
    assert all(got.values())
    _adds_f_times(lambda acc, f: kernel.tensor_convolve(a, b, dim, arity, base, acc, f), got, size)
    # the term of a at its least key (key 0 when a is dense, which is not
    # the unit's key over a relabelled group) times b, and b times it: the
    # host's kernel relabels
    one = {min(a): a[min(a)]}
    convolve, _den = host.rational_kernel(arity)
    for x, y in ((one, b), (b, one)):
        fresh = kernel.tensor_convolve(x, y, dim, arity, list(base))
        assert convolve(x, y, None, 1) == fresh
        _adds_f_times(lambda acc, f: convolve(x, y, acc, f), fresh, size)
    return got


@SETTINGS
@given(dense_operands())
def test_dense_products_match_group_multiplication(case):
    G, host, arity, a, b = case
    want = flat(group_product(G, a, b), host.dim)
    assert _dense_product(host, arity, a, b) == want
    prod = LegTensor(host, arity, a).mul(LegTensor(host, arity, b))
    assert prod.data == want


def test_dense_products_cancelling_to_zero_store_nothing():
    # (sum of every key) * (1 - g) = 0, since multiplying by g permutes keys
    for G, host in DENSE_HOSTS:
        for arity in range(1, 5):
            keys = [decode_key(k, host.dim, arity) for k in range(host.dim ** arity)]
            ones = {x: Fraction(1, 3) for x in keys}
            diff = {(G.identity,) * arity: 1, (1,) * arity: -1}
            assert _dense_product(host, arity, ones, diff) == {}
            assert _dense_product(host, arity, diff, ones) == {}


@SETTINGS
@given(dense_operands(kinds=("cyclotomic",), hosts=[(S3, KS3)]))
def test_dense_cyclotomic_values_start_each_cell_from_zero(case):
    G, host, arity, a, b = case
    want = flat(group_product(G, a, b), host.dim)
    got = _dense_product(host, arity, a, b)
    assert got == want
    keys = [decode_key(k, host.dim, arity) for k in range(host.dim ** arity)]
    ones = {x: _Z3 for x in keys}
    assert _dense_product(host, arity, ones, {(G.identity,) * arity: 1, (1,) * arity: -1}) == {}


# ---------------------------------------------------------------------------
# pointwise products on dual hosts

DUALS = {order: with_series_ring(dual_group_hopf(Z22), order) for order in (2, 3)}
EXACT_DUALS = [dual_group_hopf(S3), dual_group_hopf(Z22)]


def pointwise_reference(a, b):
    return {k: a[k] * b[k] for k in a if k in b and a[k] * b[k]}


def series_terms(order):
    terms = st.dictionaries(st.integers(0, order), RATIONALS, min_size=1, max_size=3)
    return terms.map(lambda d: Series(order, d)).filter(bool)


@SETTINGS
@given(
    st.sampled_from(
        [(DUALS[2], series_terms(2)), (DUALS[3], series_terms(3))]
        + [(host, RATIONALS) for host in EXACT_DUALS]
    ),
    st.integers(1, 3),
    st.data(),
)
def test_pointwise_series_product_matches_series_arithmetic(case, arity, data):
    # series values over k^G at K = 2, 3, and Fraction values over exact k^G
    host, values = case
    assert host.pointwise_coeffs() == "one"
    a = data.draw(tensors(host, arity, values))
    b = data.draw(tensors(host, arity, values))
    got = a.mul(b).data
    assert got == pointwise_reference(a.data, b.data)
    assert all(got.values())
    if host.ring.hbar_order is None:
        assert all(type(v) is Fraction for v in got.values())


def test_pointwise_series_product_with_tau_falls_back():
    order = 2
    host = DUALS[order]
    tau = Series(order, {0: 1, 1: TauLaurent.tau()})
    # h^2/2 times 2h truncates to zero at order 2
    a = LegTensor(host, 2, {(0, 1): tau, (2, 3): Series(order, {2: Fraction(1, 2)})})
    b = LegTensor(host, 2, {(0, 1): Series(order, {0: 3, 2: 1}), (2, 3): Series(order, {1: 2})})
    assert (1, 1, 0) in a.rows()
    got = a.mul(b).data
    assert got == pointwise_reference(a.data, b.data)
    assert set(got) == {encode_key((0, 1), host.dim)}
