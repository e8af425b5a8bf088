"""Negative controls for verify_algebra: one fault per check id, injected
into the algebra, its associator or its module action, never into the
check; each fails its targeted check and leaves the others passing."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopftwist.constructors import (
    cyclic_group,
    dual_action_module,
    elementary_abelian_2,
    group_algebra,
    symmetric_3,
)
from hopftwist.group_cohomology import (
    GroupCochain,
    fano_octonions,
    group_coboundary,
    is_cocycle,
    normalized,
    random_group_cochain,
    twisted_group_algebra,
)
from hopftwist.hopf_cochain import HopfCochain, twist
from hopftwist.multilinear import (
    AlgebraPresentation,
    LegTensor,
    ModuleAlgebra,
    verify_algebra,
)
from hopftwist.scalars import ScalarRing

MODULE_IDS = ["module-unit", "module-action", "module-algebra-unit", "module-algebra-mult"]


def as_algebra(K, cell=None, unit=None):
    """The algebra of a presentation K, with cell {(i, j): image} replacing
    its products and unit replacing its unit vector."""
    mult = dict(K.mult)
    mult.update(cell or {})
    return AlgebraPresentation(K.dim, K.labels, K.ring, mult, unit or K.unit)


def dual_numbers():
    """k[s]/(s^2)."""
    return AlgebraPresentation(
        2, ["1", "s"], ScalarRing(), {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}, [1, 0]
    )


def sign_action(cell=None):
    """k[Z2] acting on the dual numbers by g.s = -s, with cell {(h, a):
    image} replacing the action of basis h on basis a."""
    action = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {0: 1}, (1, 1): {1: -1}}
    action.update(cell or {})
    A = dual_numbers()
    return A, None, ModuleAlgebra(group_algebra(cyclic_group(2)), A, action)


def trivial_action(cell=None):
    """The one-dimensional k[Z1] acting trivially on the dual numbers, with
    cell {(h, a): image} replacing an action cell."""
    action = {(0, 0): {0: 1}, (0, 1): {1: 1}}
    action.update(cell or {})
    A = dual_numbers()
    return A, None, ModuleAlgebra(group_algebra(cyclic_group(1)), A, action)


def octonions(associator_fault=False):
    """The octonions with their associator dF; the fault flips the sign
    of dF(e1,e2,e4) = -1."""
    _, _, O = fano_octonions()
    phi = dict(O.associator)
    if associator_fault:
        phi[(1, 2, 4)] = -phi[(1, 2, 4)]
    return O, phi, None


def octonion_module_twist(flip=None):
    """The twisted octonions, phi^-1 over the twisted host and the
    projection action, as verify_quasi checks them; flip negates the
    phi^-1 cell at that basis triple of the host."""
    G8, fano, _ = fano_octonions()
    mod = dual_action_module(G8)
    F = LegTensor(mod.host, 2, dict(fano.table))
    R = twist(mod.host, HopfCochain(mod.host, 2, F, F), mod)
    inv = R.phi_twisted().inverse
    if flip is not None:
        data = dict(inv.entries())
        data[flip] = -data[flip]
        inv = LegTensor(R.twisted, 3, data)
    AF = R.twisted_algebra
    return AF, inv, ModuleAlgebra(R.twisted, AF, mod.action)


CONTROLS = [
    (
        "unit-laws",
        lambda: (as_algebra(dual_numbers(), unit=[0, 1]), None, None),
        {"unit-laws": (2, "1")},
    ),
    (
        "associativity",
        # k[Z3] with g*g = e in place of g^2
        lambda: (as_algebra(group_algebra(cyclic_group(3)), {(1, 1): {0: 1}}), None, None),
        {"associativity": (4, "([g],[g],[g^2])")},
    ),
    (
        "quasi-associativity",
        lambda: octonions(associator_fault=True),
        {"quasi-associativity": (1, "(e1,e2,e4)")},
    ),
    (
        "quasi-associativity-module",
        lambda: octonion_module_twist(flip=(1, 2, 4)),
        {"quasi-associativity": (1, "([e1],[e2],[e4])")},
    ),
    (
        "module-unit",
        # e.s = 0: e acts as the algebra map s -> 0, an idempotent, so only
        # the unit law sees it
        lambda: trivial_action({(0, 1): {}}),
        {"module-unit": (1, "s")},
    ),
    (
        "module-action",
        lambda: sign_action({(1, 1): {1: -2}}),
        {"module-action": (1, "([g],[g],s)")},
    ),
    (
        "module-algebra-unit",
        # g.1 = 1 + s; g.1 = g.(1 1) as well, so the product law at (1, 1)
        # moves with it: no single action cell fails the unit law alone
        lambda: sign_action({(1, 0): {0: 1, 1: 1}}),
        {"module-algebra-unit": (1, "[g]"), "module-algebra-mult": (1, "([g];1,1)")},
    ),
    (
        "module-algebra-mult",
        lambda: sign_action({(1, 1): {0: 1, 1: -1}}),
        {"module-algebra-mult": (1, "([g];s,s)")},
    ),
]


def expected_ids(associator, module):
    ids = ["unit-laws", "associativity" if associator is None else "quasi-associativity"]
    return ids + (MODULE_IDS if module is not None else [])


@pytest.mark.parametrize("target,build,failed", CONTROLS, ids=[c[0] for c in CONTROLS])
def test_each_check_fails_alone(target, build, failed):
    algebra, associator, module = build()
    report = list(verify_algebra(algebra, associator, module))
    assert [c.id for c in report] == expected_ids(associator, module)
    got = {c.id: (c.residual_term_count, c.witness) for c in report if not c.ok}
    assert got == failed
    assert all(c.status in ("pass", "fail") for c in report)


@pytest.mark.parametrize(
    "build",
    [
        lambda: (dual_numbers(), None, None),
        lambda: (as_algebra(group_algebra(cyclic_group(3))), None, None),
        octonions,
        octonion_module_twist,
        sign_action,
        trivial_action,
    ],
    ids=["dual-numbers", "k[Z3]", "octonions", "octonion-module-twist", "sign-action", "trivial"],
)
def test_unfaulted_inputs_pass(build):
    # the controls' inputs before their fault
    assert all(c.ok for c in verify_algebra(*build()))


def test_every_check_id_has_a_control():
    ids = {c[0].replace("-module", "") for c in CONTROLS}
    assert ids == set(expected_ids(None, True) + expected_ids({}, None))


def test_module_associator_is_the_tabulated_action():
    # phi^-1 acting on each octonion triple through the projections is the
    # diagonal dF(x,y,z)^-1 = dF(x,y,z)
    AF, inv, module = octonion_module_twist()
    _, _, O = fano_octonions()
    table = module.act_tensor(inv)
    assert table == {t: {t: Fraction(v)} for t, v in O.associator.items()}


def test_act_tensor_matches_legwise_action():
    # a non-diagonal action: the table against acting leg by leg with act()
    A, _, module = sign_action({(1, 0): {0: 2, 1: 3}})
    H = module.host
    rng = random.Random(5)
    t = LegTensor(
        H, 3, {(a, b, c): Fraction(rng.randint(-3, 3), 2) for a in range(2) for b in range(2) for c in range(2)}
    )
    table = module.act_tensor(t)
    one = Fraction(1)
    for x in range(2):
        for y in range(2):
            for z in range(2):
                want = {}
                for (a, b, c), w in t.entries():
                    for k1, v1 in module.act({a: one}, {x: one}).items():
                        for k2, v2 in module.act({b: one}, {y: one}).items():
                            for k3, v3 in module.act({c: one}, {z: one}).items():
                                key = (k1, k2, k3)
                                want[key] = want.get(key, 0) + w * v1 * v2 * v3
                want = {k: v for k, v in want.items() if v}
                assert table.get((x, y, z), {}) == want


GROUPS = {"Z2^2": elementary_abelian_2(2), "S3": symmetric_3()}


@st.composite
def unital_cochains(draw):
    """(G, F): a random unital 2-cochain on Z2^2 or S3, or the coboundary of
    a normalized 1-cochain, so that cocycles occur."""
    G = GROUPS[draw(st.sampled_from(sorted(GROUPS)))]
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        return G, group_coboundary(normalized(random_group_cochain(G, 1, rng)))
    e = G.identity
    table = random_group_cochain(G, 2, rng).table
    table.update({k: Fraction(1) for k in table if e in k})
    return G, GroupCochain(G, 2, table)


@settings(max_examples=40, deadline=None)
@given(unital_cochains())
def test_twisted_group_algebra_battery_matches_the_cocycle_test(GF):
    # k_F[G] is associative iff F is a cocycle, and always quasi-associative
    # with dF's table as the associator; dF takes rational values other than
    # +-1 here, so an associator on the wrong side of the law shows
    G, F = GF
    A = twisted_group_algebra(G, F)
    _, assoc = verify_algebra(A)
    assert assoc.ok == is_cocycle(F).ok
    unit, quasi = verify_algebra(A, associator=dict(group_coboundary(F).table))
    assert unit.ok and quasi.ok, quasi.witness
