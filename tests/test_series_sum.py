"""The sums shared by PBWTensor (its one-leg elements and its tensor
powers), HeisElement and ZakElement (scalars.SeriesSum), against a plain
{key: Series} model."""

from fractions import Fraction

import pytest

from hopftwist.errors import ArityMismatch, OrderMismatch
from hopftwist.heis_torus import HeisElement, ZakElement
from hopftwist.pbw import PBWTensor
from hopftwist.scalars import Series, SeriesSum, TauLaurent, root_of_unity

K = 2
Z4 = root_of_unity(1, 4)


def h(power=1, coeff=1, order=K):
    return Series.hbar(order, power, coeff)


def pbw_tensor(data, order=K, kappa=1, arity=2):
    return PBWTensor(kappa, order, arity, data)


def zak(data, order=K, degree=2):
    return ZakElement(order, degree, data)


# per class: a constructor from {key: value} at order K, four keys in the
# class's normal form, and the partners it must refuse with their errors;
# a PBW element is a one-leg PBWTensor
CLASSES = {
    "PBWElement": (
        lambda data, order=K: pbw_tensor(data, order, arity=1),
        [((0, 0, 0),), ((1, 0, 0),), ((0, 1, 2),), ((2, 0, 1),)],
        [
            (pbw_tensor({}, order=K + 1, arity=1), OrderMismatch),
            (pbw_tensor({}, kappa=-1, arity=1), ValueError),
            (pbw_tensor({}), ArityMismatch),
        ],
    ),
    "PBWTensor": (
        pbw_tensor,
        [
            ((0, 0, 0), (0, 0, 0)),
            ((1, 0, 0), (0, 0, 0)),
            ((0, 0, 0), (0, 1, 2)),
            ((2, 0, 1), (1, 1, 0)),
        ],
        [
            (pbw_tensor({}, order=K + 1), OrderMismatch),
            (pbw_tensor({}, kappa=0), ValueError),
            (pbw_tensor({}, arity=3), ArityMismatch),
        ],
    ),
    "HeisElement": (
        lambda data, order=K: HeisElement(order, data),
        [
            (0, 0, 0, Fraction(0)),
            (1, 0, 0, Fraction(0)),
            (0, 1, 2, Fraction(1, 2)),
            (-1, 2, 1, Fraction(-2, 3)),
        ],
        [
            (HeisElement(K + 1, {}), OrderMismatch),
            (5, TypeError),
        ],
    ),
    "ZakElement": (
        zak,
        [
            (0, 0, Fraction(0)),
            (1, 0, Fraction(0)),
            (0, 2, Fraction(1, 2)),
            (-1, 1, Fraction(-2, 3)),
        ],
        [
            (zak({}, order=K + 1), OrderMismatch),
            (zak({}, degree=3), ValueError),
            (HeisElement(K, {}), TypeError),
        ],
    ),
}


def operands(keys):
    """(A, B) as {key: Series}: A + B cancels on keys[0], A's keys[2]
    coefficient truncates to zero times hbar, and keys[3] is B's alone."""
    k0, k1, k2, k3 = keys
    A = {k0: Series(K, {0: 1, 1: 1}), k1: h(1, Z4), k2: h(2, TauLaurent.tau())}
    B = {k0: -A[k0], k1: Series(K, {0: Fraction(1, 2)}), k3: h(1, -1)}
    return A, B


def model_add(A, B):
    out = dict(A)
    for key, s in B.items():
        r = out[key] + s if key in out else s
        if r:
            out[key] = r
        else:
            del out[key]
    return out


def model_scale(A, c):
    return {key: s * c for key, s in A.items() if s * c}


def fields(x):
    """The class and every field of x but its data."""
    return (type(x), x.order) + tuple(getattr(x, n) for n in type(x).__slots__)


def kinds(s):
    """The type and conductor of every coefficient of a Series."""
    return [
        (d, p, type(v), getattr(v, "conductor", 1))
        for d, t in enumerate(s.coeffs)
        for p, v in t.terms.items()
    ]


SCALARS = [
    2,
    0,
    Fraction(-1, 3),
    root_of_unity(1, 3),
    TauLaurent.tau(-1),
    h(),
    Series(K, {0: Z4, 2: 1}),
]


@pytest.fixture(params=sorted(CLASSES))
def kind(request):
    return CLASSES[request.param]


def test_sums_match_the_model(kind):
    make, keys, _ = kind
    A, B = operands(keys)
    x, y = make(A), make(B)
    assert isinstance(x, SeriesSum)
    assert (x.data, y.data) == (A, B)
    negB = {key: -s for key, s in B.items()}
    for got, want in [
        (x.add(y), model_add(A, B)),
        (x.sub(y), model_add(A, negB)),
        (y.neg(), negB),
        (x.sub(x), {}),
    ]:
        assert fields(got) == fields(x)
        assert got.data == want
        assert all(got.data.values())
    s = x.add(y)
    assert keys[0] not in s.data
    assert s.term_count() == 3 and not s.is_zero()
    assert x.sub(x).is_zero() and x.sub(x).term_count() == 0
    assert x.eq(make(dict(A))) and not x.eq(y) and not x.eq(x.sub(x))
    assert x.add(y).eq(y.add(x))


@pytest.mark.parametrize("c", SCALARS, ids=repr)
def test_scale_matches_the_model(kind, c):
    make, keys, _ = kind
    A, _ = operands(keys)
    got = make(A).scale(c)
    assert fields(got) == fields(make(A))
    want = model_scale(A, c)
    assert got.data == want
    assert all(got.data.values())
    for key, s in got.data.items():
        assert kinds(s) == kinds(want[key])


def test_hbar_scaling_drops_what_truncates(kind):
    make, keys, _ = kind
    A, _ = operands(keys)
    got = make(A).scale(h())
    assert keys[2] not in got.data and set(got.data) == {keys[0], keys[1]}
    assert make(A).scale(0).is_zero()


def test_incompatible_partners_are_refused(kind):
    make, keys, partners = kind
    x = make(operands(keys)[0])
    for other, error in partners:
        for op in (x.add, x.eq):
            with pytest.raises(error):
                op(other)
        if isinstance(other, type(x)):
            with pytest.raises(error):
                x.sub(other)
    with pytest.raises(OrderMismatch):
        x.scale(h(order=K + 1))
