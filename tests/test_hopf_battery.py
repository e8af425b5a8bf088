"""Negative controls for verify_hopf: one broken host per check id, each
failing its targeted check and nothing else."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from hopftwist.batteries import verify_hopf
from hopftwist.constructors import cyclic_group, dual_group_hopf, group_algebra, symmetric_3
from hopftwist.errors import WindowOverflow
from hopftwist.io_json import presentation_from_dict, presentation_to_dict
from hopftwist.linalg import solve
from hopftwist.multilinear import HopfPresentation
from hopftwist.sample_hosts import PareigisWindow, ShuffleBialgebra, taft
from hopftwist.scalars import ScalarRing


def steiner_loop():
    """The Steiner loop of the affine plane over Z3: e plus the 9 points,
    x*x = e and x*y the third point of the line through x and y.  A
    commutative loop with x^-1 = x, so (xy)^-1 = y^-1 x^-1, but not
    associative, so it is no FiniteGroup: it is a table object with the
    attributes that group_algebra and dual_group_hopf read."""
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
    return SimpleNamespace(
        order=10,
        table=table,
        labels=labels,
        identity=0,
        inv=list(range(10)),
        mul=lambda a, b: table[a][b],
    )


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
        counit or K.counit, antipode,
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
    )


def rebased(H, new, labels):
    """H in the basis new[i], each a sparse vector over H's basis, which
    must be invertible; the tables are carried over exactly."""
    dim = H.dim
    cols = [[Fraction(new[i].get(k, 0)) for i in range(dim)] for k in range(dim)]
    # old[k]: basis k of H as a sparse vector over the new basis
    old = []
    for k in range(dim):
        x = solve(cols, [Fraction(int(r == k)) for r in range(dim)])
        old.append({i: c for i, c in enumerate(x) if c})

    def to_new(vec):
        out = {}
        for k, c in vec.items():
            for i, w in old[k].items():
                out[i] = out.get(i, 0) + c * w
        return {i: c for i, c in out.items() if c}

    mult = {(i, j): to_new(H.elem_mul(new[i], new[j])) for i in range(dim) for j in range(dim)}
    cop = {}
    for i in range(dim):
        cell = {}
        for k, c in new[i].items():
            for (a, b), w in H.basis_coproduct(k).items():
                for x, u in old[a].items():
                    for y, v in old[b].items():
                        cell[x, y] = cell.get((x, y), 0) + c * w * u * v
        cop[i] = {xy: c for xy, c in cell.items() if c}
    counit = [sum(c * H.counit[k] for k, c in new[i].items()) for i in range(dim)]
    unit = to_new(H.elem_unit())
    images = [to_new(H.apply_antipode(new[i])) for i in range(dim)]
    return HopfPresentation(
        dim, labels, H.ring, mult, [unit.get(i, 0) for i in range(dim)], cop, counit,
        [[s.get(j, 0) for j in range(dim)] for s in images],
    )


def dual_z3_square_fault():
    # k^Z3 on the basis 1 = d0 + d1 + d2, d1, d1 + d2: every basis product
    # and the unit are single terms, and S(d1) = d2 = (d1 + d2) - d1 is
    # two, so an antipode that maps only the first term of a vector is
    # right wherever the battery applies it except on S(d1); the product
    # commutes, read from the table (no flag is declared), so S^2 = id is
    # checked and fails at d1 alone
    one = Fraction(1)
    H = dual_group_hopf(cyclic_group(3))
    host = rebased(H, [{0: one, 1: one, 2: one}, {1: one}, {1: one, 2: one}], ["1", "d1", "d12"])
    assert host.product_commutes()
    return first_term_antipode(host)


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
        lambda: first_term_antipode(ShuffleBialgebra(2, 3)),
        14,
        "(1,2)",
    ),
    ("antipode-square", dual_z3_square_fault, 1, "d1"),
]


@pytest.mark.parametrize(
    "target,build,residual,witness", CONTROLS, ids=[c[0] for c in CONTROLS]
)
def test_each_check_fails_alone(target, build, residual, witness):
    host = build()
    report = list(verify_hopf(host))
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


def test_declared_flags_pick_no_check():
    # antipode-square is run on a host whose product commutes or whose
    # coproduct cocommutes, read from the tables: Sweedler's algebra read
    # from a document that declares both does neither, and k[Z3] read from
    # a document that declares neither does both
    doc = presentation_to_dict(taft(2))
    doc["commutative"] = doc["cocommutative"] = True
    claimed = presentation_from_dict(doc)
    assert not claimed.product_commutes() and not claimed.coproduct_cocommutes()
    assert "antipode-square" not in claimed.axiom_ids
    assert all(ck.ok for ck in verify_hopf(claimed))
    doc = presentation_to_dict(group_algebra(cyclic_group(3)))
    doc["commutative"] = doc["cocommutative"] = False
    kz3 = presentation_from_dict(doc)
    assert kz3.product_commutes() and kz3.coproduct_cocommutes()
    assert presentation_to_dict(kz3)["commutative"] is True
    assert "antipode-square" in kz3.axiom_ids
    report = {ck.id: ck for ck in verify_hopf(kz3)}
    assert report["antipode-square"].ok and all(ck.ok for ck in report.values())
    # each table test alone picks the check
    dual = dual_group_hopf(symmetric_3())
    assert dual.product_commutes() and not dual.coproduct_cocommutes()
    kS3 = group_algebra(symmetric_3())
    assert not kS3.product_commutes() and kS3.coproduct_cocommutes()
    assert "antipode-square" in dual.axiom_ids and "antipode-square" in kS3.axiom_ids


def test_every_check_id_has_a_control():
    ids = set(group_algebra(cyclic_group(3)).axiom_ids)
    ids |= set(ShuffleBialgebra.axiom_ids) | set(PareigisWindow.axiom_ids)
    assert ids == {c[0] for c in CONTROLS}


@pytest.mark.parametrize("N", [1, 2])
def test_pareigis_window_skips_instances_outside(N):
    # g^N x overflows in its coproduct and antipode, g^N g in products;
    # the instances that need them are skipped, not failed
    P = PareigisWindow(N)
    report = list(verify_hopf(P))
    assert [c.id for c in report] == list(P.axiom_ids)
    assert all(c.ok for c in report), [c for c in report if not c.ok]
    with pytest.raises(WindowOverflow):
        P.apply_antipode({P.idx(N, 1): Fraction(1)})
