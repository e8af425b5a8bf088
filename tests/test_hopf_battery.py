"""Negative controls for verify_hopf: one broken host per check id, each
failing its targeted check and nothing else."""

from fractions import Fraction

import pytest

from hopftwist.constructors import (
    FiniteGroup,
    PareigisWindow,
    ShuffleBialgebra,
    cyclic_group,
    dual_group_hopf,
    group_algebra,
    pareigis_window,
    shuffle_bialgebra,
    taft,
)
from hopftwist.errors import WindowOverflow
from hopftwist.multilinear import HopfPresentation, verify_hopf
from hopftwist.scalars import ScalarRing


def steiner_loop():
    """The Steiner loop of the affine plane over Z3: e plus the 9 points,
    x*x = e and x*y the third point of the line through x and y.  A
    commutative loop with x^-1 = x, so (xy)^-1 = y^-1 x^-1, but not
    associative."""
    pts = [(a, b) for a in range(3) for b in range(3)]
    index = {p: t + 1 for t, p in enumerate(pts)}

    def mul(x, y):
        if not x or not y:
            return x or y
        if x == y:
            return 0
        (a, b), (c, d) = pts[x - 1], pts[y - 1]
        return index[((-a - c) % 3, (-b - d) % 3)]

    table = [[mul(x, y) for y in range(10)] for x in range(10)]
    labels = ["e"] + ["%d%d" % p for p in pts]
    return FiniteGroup(10, table, labels, validate=False)


class TensorAlgebra(ShuffleBialgebra):
    """Concatenation and the unshuffle coproduct on the same words: the
    graded dual of the shuffle bialgebra, a Hopf algebra with the same
    antipode that is cocommutative but not commutative."""

    def basis_mul(self, i, j):
        w = self.words[i] + self.words[j]
        if len(w) > self.max_len:
            raise WindowOverflow("word of length %d" % len(w))
        return {self.index[w]: Fraction(1)}

    def basis_coproduct(self, i):
        w = self.words[i]
        out = {}
        for mask in range(1 << len(w)):
            left = tuple(a for t, a in enumerate(w) if mask >> t & 1)
            right = tuple(a for t, a in enumerate(w) if not mask >> t & 1)
            key = (self.index[left], self.index[right])
            out[key] = out.get(key, 0) + Fraction(1)
        return out


class PrimitiveX(PareigisWindow):
    """x made primitive over g^n, Delta(g^n x) = g^n x (x) g^n + g^n (x) g^n x,
    with the antipode that still inverts id: coassociative and counital,
    but Delta(g^m x) Delta(g^n x) = 2 g^m x (x) g^n x is not Delta(0)."""

    def basis_coproduct(self, i):
        n, b = self.unidx(i)
        if not b:
            return {(i, i): Fraction(1)}
        g = self.idx(n, 0)
        return {(i, g): Fraction(1), (g, i): Fraction(1)}

    def apply_antipode(self, vec):
        out = {}
        for i, c in vec.items():
            n, b = self.unidx(i)
            out[self.idx(-n, b)] = (c if n % 2 else -c) if b else c
        return out


class FlippedAntipode(PareigisWindow):
    """The antipode with the sign of every g^n x image flipped."""

    def apply_antipode(self, vec):
        images = super().apply_antipode(vec)
        return {k: -c if k % 2 else c for k, c in images.items()}


def first_term_antipode(host):
    """host whose apply_antipode maps only the first term of a vector: right
    on basis elements, wrong on sums."""
    apply = host.apply_antipode
    host.apply_antipode = lambda vec: apply(dict(list(vec.items())[:1]))
    return host


def kz2(unit=None, counit=None, antipode=None):
    """k[Z2] with the given unit, counit and antipode in place of its own."""
    K = group_algebra(cyclic_group(2))
    return HopfPresentation(
        2, K.labels, K.ring, K.mult, unit or K.unit, K.coproduct,
        counit or K.counit, antipode, commutative=True, cocommutative=True,
    )


def kz2_wrong_unit():
    # the grouplike g as unit: Delta(g) = g (x) g and counit(g) = 1 still
    # hold, so only the unit laws see it; a bialgebra, no antipode
    return kz2(unit=[0, 1])


def kz2_sign_counit():
    # the sign character as counit, with S(g) = -g so that id*S = counit.1
    return kz2(counit=[1, -1], antipode=[[1, 0], [0, -1]])


def dual_numbers_grouplike():
    # k[s]/(s^2) with s grouplike: Delta(s s) = 0 = s^2 (x) s^2, but
    # counit(s s) = 0 != 1 = counit(s)^2; a bialgebra, no antipode
    return HopfPresentation(
        2, ["1", "s"], ScalarRing(),
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
        [1, 0], {0: {(0, 0): 1}, 1: {(1, 1): 1}}, [1, 1],
        commutative=True, cocommutative=True,
    )


def taft2_claimed_cocommutative():
    # Sweedler's algebra flagged cocommutative: S^2 = id is then checked,
    # and S^2(x) = -x
    T = taft(2)
    return HopfPresentation(
        T.dim, T.labels, T.ring, T.mult, T.unit, T.coproduct, T.counit,
        T.antipode, cocommutative=True,
    )


CONTROLS = [
    ("unit-laws", kz2_wrong_unit, 2, "[e]"),
    ("associativity", lambda: group_algebra(steiner_loop()), 432, "([00],[01],[10])"),
    ("commutativity", lambda: TensorAlgebra(2, 3), 14, "(1,2)"),
    ("coassociativity", lambda: dual_group_hopf(steiner_loop()), 864, "d(00)"),
    ("counit-laws", kz2_sign_counit, 1, "[g]"),
    ("coproduct-morphism", lambda: PrimitiveX(2), 19, "(g^-2*x,x)"),
    ("counit-morphism", dual_numbers_grouplike, 1, "(s,s)"),
    ("antipode-convolution", lambda: FlippedAntipode(2), 8, "id*S at g^-2*x"),
    (
        "antipode-unit",
        lambda: first_term_antipode(dual_group_hopf(cyclic_group(2))),
        1,
        "S(1)",
    ),
    (
        "antipode-antihomomorphism",
        lambda: first_term_antipode(shuffle_bialgebra(2, 3)),
        14,
        "(1,2)",
    ),
    ("antipode-square", taft2_claimed_cocommutative, 2, "x"),
]


@pytest.mark.parametrize(
    "target,build,residual,witness", CONTROLS, ids=[c[0] for c in CONTROLS]
)
def test_each_check_fails_alone(target, build, residual, witness):
    host = build()
    report = verify_hopf(host)
    assert [c.id for c in report] == list(host.axiom_ids)
    failed = {
        c.id: (c.residual_term_count, c.witness)
        for c in report
        if c.status == "fail"
    }
    assert failed == {target: (residual, witness)}
    # the bialgebras without an antipode report that, and nothing else
    others = {(c.id, c.status) for c in report if not c.ok and c.id != target}
    if getattr(host, "antipode", True) is None:
        assert others == {("antipode-convolution", "error")}
    else:
        assert others == set()


def test_every_check_id_has_a_control():
    ids = set(group_algebra(cyclic_group(3)).axiom_ids)
    ids |= set(ShuffleBialgebra.axiom_ids) | set(PareigisWindow.axiom_ids)
    assert ids == {c[0] for c in CONTROLS}


@pytest.mark.parametrize("N", [1, 2])
def test_pareigis_window_skips_instances_outside(N):
    # g^N x overflows in its coproduct and antipode, g^N g in products;
    # the instances that need them are skipped, not failed
    P = pareigis_window(N)
    report = verify_hopf(P)
    assert [c.id for c in report] == list(P.axiom_ids)
    assert all(c.ok for c in report), [c for c in report if not c.ok]
    with pytest.raises(WindowOverflow):
        P.apply_antipode({P.idx(N, 1): Fraction(1)})
