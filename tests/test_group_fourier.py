"""The group Fourier product against the pair loop.

group_fourier.Plan.product, and tensor_convolve where it takes the
transform, are checked against the pair loop of tensor_convolve (a table
whose plan is None) and against a product expanded leg by leg with the
group's own multiplication, on integer tensors over every group with a plan
at arity 1-4: sparse, dense and cancelling operands, fresh and added into a
list or dict accumulator with a factor.  Groups outside the catalogue get
no plan.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from hopftwist import group_fourier, multilinear
from hopftwist.constructors import (
    FiniteGroup,
    cyclic_group,
    dihedral_4,
    direct_product,
    elementary_abelian_2,
    group_algebra,
    pauli_8,
    symmetric_3,
)
from hopftwist.multilinear import decode_key, encode_key, tensor_convolve


def _relabelled(G, seed):
    """G with its elements renamed by a seeded permutation."""
    perm = list(range(G.order))
    random.Random(seed).shuffle(perm)
    back = {p: i for i, p in enumerate(perm)}
    table = [[perm[G.mul(back[x], back[y])] for y in range(G.order)] for x in range(G.order)]
    return FiniteGroup(G.order, table)


CATALOGUE = {
    "Z2": elementary_abelian_2(1),
    "Z2^2": elementary_abelian_2(2),
    "Z2^3": elementary_abelian_2(3),
    "S3": symmetric_3(),
    "D4": dihedral_4(),
    "Q8": pauli_8(),
    "D4 relabelled": _relabelled(dihedral_4(), 5),
}
OUTSIDE = {
    "Z4": cyclic_group(4),
    "Z3": cyclic_group(3),
    "Z2 x S3": direct_product(elementary_abelian_2(1), symmetric_3()),
}
GROUPS = {**CATALOGUE, **OUTSIDE}
TABLES = {name: group_algebra(G).rational_table()[0] for name, G in GROUPS.items()}

SETTINGS = settings(max_examples=30, deadline=None)


def _plan(name):
    table = TABLES[name]
    return group_fourier.plan(table, GROUPS[name].order)


def _pair_loop(a, b, name, arity, acc=None, f=1):
    """tensor_convolve on a copy of the table without a plan."""
    table = TABLES[name]
    bare = multilinear._Cells(table, table.rows, GROUPS[name].order)
    bare.plan = None
    return tensor_convolve(a, b, GROUPS[name].order, arity, bare, acc, f)


def _legwise(a, b, G, arity):
    """sum a(x) b(y) at xy, leg by leg, with G.mul."""
    out = {}
    bs = [(decode_key(kb, G.order, arity), vb) for kb, vb in b.items()]
    for ka, va in a.items():
        xs = decode_key(ka, G.order, arity)
        for ys, vb in bs:
            k = encode_key([G.mul(x, y) for x, y in zip(xs, ys)], G.order)
            out[k] = out.get(k, 0) + va * vb
    return {k: v for k, v in out.items() if v}


@st.composite
def operands(draw, names):
    """(name, arity, a, b): a dense, sparse or cancelling pair of integer
    tensors over one group."""
    name = draw(st.sampled_from(names))
    n = GROUPS[name].order
    arity = draw(st.integers(1, 4))
    size = n ** arity
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["dense", "sparse", "cancel"]))

    def tensor(density):
        t = {k: rng.randint(-9, 9) for k in range(size) if rng.random() < density}
        return {k: v for k, v in t.items() if v}

    if kind == "dense":
        # the second operand stays sparse where both dense would cost the
        # pair loop millions of pairs
        fill = [0.1, 0.5, 1.0] if size <= 512 else [0.005, 0.02]
        return name, arity, tensor(0.9), tensor(draw(st.sampled_from(fill)))
    if kind == "sparse":
        return name, arity, tensor(0.05), tensor(0.2)
    # (e - g) (x) x times (e + g) (x) y is 0 for an involution g on leg 0
    G = GROUPS[name]
    g = next(h for h in range(n) if h != G.identity and G.mul(h, h) == G.identity)
    rest = n ** (arity - 1)
    x, y = tensor(0.7), tensor(0.7)
    a, b = {}, {}
    for k, v in x.items():
        if k < rest:
            a[G.identity * rest + k], a[g * rest + k] = v, -v
    for k, v in y.items():
        if k < rest:
            b[G.identity * rest + k], b[g * rest + k] = v, v
    return name, arity, a, b


@SETTINGS
@given(operands(sorted(CATALOGUE)))
def test_transform_product_is_the_pair_loop(case):
    name, arity, a, b = case
    plan = _plan(name)
    assert plan is not None
    want = _pair_loop(a, b, name, arity)
    assert plan.product(a, b, arity, None, 1) == want
    if len(a) * len(b) <= 20000:
        assert want == _legwise(a, b, GROUPS[name], arity)
    size = GROUPS[name].order ** arity
    start = [random.Random(arity).randint(-3, 3) for _ in range(size)]
    got, expect = list(start), list(start)
    assert plan.product(a, b, arity, got, -7) is got
    _pair_loop(a, b, name, arity, expect, -7)
    assert got == expect
    got, expect = {1: 5}, {1: 5}
    plan.product(a, b, arity, got, 3)
    _pair_loop(a, b, name, arity, expect, 3)
    assert {k: v for k, v in got.items() if v} == {k: v for k, v in expect.items() if v}


@SETTINGS
@given(operands(["Z2^3", "S3", "D4", "Q8", "D4 relabelled"]))
def test_tensor_convolve_takes_the_transform_at_its_switch(case):
    # through tensor_convolve: a product past the switch is the plan's, and
    # every product is the pair loop's
    name, arity, a, b = case
    table = multilinear._Cells(TABLES[name], {}, GROUPS[name].order)
    n = GROUPS[name].order
    assert tensor_convolve(a, b, n, arity, table) == _pair_loop(a, b, name, arity)
    if len(a) * len(b) > max(multilinear._SWITCH * n**arity, _plan(name).switch(arity)):
        assert isinstance(table.plan, group_fourier.Plan)


def test_dense_product_at_arity_4():
    rng = random.Random(11)
    for name in ("Z2^3", "D4", "Q8"):
        size = 8**4
        a = {k: rng.randint(-5, 5) or 1 for k in range(size)}
        b = {rng.randrange(size): rng.randint(1, 4) for _ in range(6)}
        assert _plan(name).product(a, b, 4, None, 1) == _legwise(a, b, GROUPS[name], 4)


def test_plans_only_for_the_catalogue():
    for name in CATALOGUE:
        assert _plan(name) is not None, name
    for name in OUTSIDE:
        assert _plan(name) is None, name


def test_zero_product_stores_nothing():
    # the sum of all keys times a tensor whose values sum to 0 is 0
    plan = _plan("Z2^3")
    a = dict.fromkeys(range(512), 1)
    b = {k: 1 if k & 1 == 0 else -1 for k in range(512)}
    assert plan.product(a, b, 3, None, 1) == {}
    assert _pair_loop(a, b, "Z2^3", 3) == {}


def test_plan_is_derived_once_per_table(monkeypatch):
    # the plan sits in the table's slot: a second dense product, and a
    # product over a twist of the host, derive none
    derived = []
    make = group_fourier.plan

    def counted(base, dim):
        derived.append(dim)
        return make(base, dim)

    monkeypatch.setattr(group_fourier, "plan", counted)
    H = group_algebra(dihedral_4())
    table = H.rational_table()[0]
    rng = random.Random(3)
    a = {k: rng.randint(-5, 5) or 1 for k in range(512)}
    b = {k: rng.randint(-5, 5) or 1 for k in range(0, 512, 8)}
    for _ in range(2):
        assert tensor_convolve(a, b, 8, 3, table) == _legwise(a, b, GROUPS["D4"], 3)
    assert derived == [8] and isinstance(table.plan, group_fourier.Plan)
    assert table.rows == {}
    twisted = multilinear.HopfPresentation(
        H.dim, H.labels, H.ring, H.mult, H.unit, H.coproduct, H.counit
    )
    twisted.share_product(H)
    assert twisted.rational_table()[0].plan is table.plan
