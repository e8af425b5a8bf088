"""Builders: group algebras, duals, Taft, shuffle, word-window, chain bridges."""

from fractions import Fraction

import pytest

from hopftwist import constructors
from hopftwist.constructors import (
    ChainComplexWindow,
    FiniteGroup,
    ShuffleBialgebra,
    WindowComodule,
    chain_to_comodule,
    comodule_to_chain,
    cyclic_group,
    dihedral_4,
    direct_product,
    dual_group_hopf,
    dual_pairing_report,
    elementary_abelian_2,
    group_algebra,
    pareigis_axiom_report,
    pareigis_window,
    pauli_8,
    shuffle_axiom_report,
    shuffle_bialgebra,
    symmetric_3,
    taft,
    word_pin_report,
    z2_dual_iso_report,
)
from hopftwist.errors import NotAComplex
from hopftwist.multilinear import verify_hopf

GROUPS = {
    "Z2": cyclic_group(2),
    "Z3": cyclic_group(3),
    "Z2^3": elementary_abelian_2(3),
    "S3": symmetric_3(),
    "D4": dihedral_4(),
    "P8": pauli_8(),
}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_group_algebra_hopf(name):
    for ck in verify_hopf(group_algebra(GROUPS[name])):
        assert ck.ok, "%s %s" % (name, ck.id)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_dual_group_hopf(name):
    for ck in verify_hopf(dual_group_hopf(GROUPS[name])):
        assert ck.ok, "%s %s" % (name, ck.id)


def test_group_validation():
    with pytest.raises(ValueError):
        FiniteGroup(2, [[0, 1], [1, 1]])  # not a latin square
    with pytest.raises(ValueError):
        FiniteGroup(3, [[0, 1, 2], [1, 2, 0], [2, 1, 0]])  # not associative


def test_pauli_8_structure():
    G = pauli_8()
    assert G.order == 8
    assert not G.is_abelian()
    assert G.labels == ["1", "-1", "iX", "-iX", "iY", "-iY", "iZ", "-iZ"]
    # center {1, -1}; five conjugacy classes
    assert G.center() == [0, 1]
    classes = G.conjugacy_classes()
    assert sorted(len(c) for c in classes) == [1, 1, 2, 2, 2]
    # (iX)(iY) = -iZ in this sign convention
    assert G.labels[G.table[2][4]] == "-iZ"
    assert G.table[2][2] == 1  # (iX)^2 = -1


def test_direct_product_orders():
    G = direct_product(cyclic_group(2), cyclic_group(3))
    assert G.order == 6
    assert G.is_abelian()
    e = 0
    for g in range(6):
        assert G.table[g][G.inv[g]] == e


def test_s3_classes():
    S3 = symmetric_3()
    assert sorted(len(c) for c in S3.conjugacy_classes()) == [1, 2, 3]
    assert S3.center() == [0]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_taft_hopf(p):
    T = taft(p)
    assert T.dim == p * p
    for ck in verify_hopf(T):
        assert ck.ok, ck.id


def test_taft_antipode_order():
    # S^2 is conjugation by the grouplike, so S has order 2p on x
    for p in (2, 3):
        T = taft(p)
        ix = T.labels.index("x")
        vec = {ix: T.ring.one()}
        out = dict(vec)
        order = 0
        for n in range(1, 4 * p + 1):
            out = T.apply_antipode(out)
            if list(out) == [ix] and out[ix] == T.ring.one():
                order = n
                break
        assert order == 2 * p


def test_shuffle_dimensions():
    B = shuffle_bialgebra(2, 4)
    # words of length <= 4 over two letters
    assert B.dim == 1 + 2 + 4 + 8 + 16


def test_shuffle_axioms():
    B = shuffle_bialgebra(2, 4)
    for ck in shuffle_axiom_report(B):
        assert ck.ok, ck.id


class RotatingAntipode(ShuffleBialgebra):
    """Antipode that rotates a word left by one letter instead of reversing
    it: the same as reversal up to length 2, but its square moves 112."""

    def antipode_index(self, i):
        w = self.words[i]
        return (Fraction(-1) ** len(w), self.index[w[1:] + w[:1]])


def test_shuffle_antipode_square_failure_names_first_word():
    report = {ck.id: ck for ck in shuffle_axiom_report(RotatingAntipode(2, 3))}
    ck = report["antipode-square"]
    # every word of length <= 2, 111 and 222 come back after two rotations;
    # 112 -> 121 -> 211 is the first that does not, of six
    assert (ck.status, ck.residual_term_count) == ("fail", 6)
    assert ck.witness == "112"
    passing = {ck.id: ck for ck in shuffle_axiom_report(shuffle_bialgebra(2, 3))}
    assert passing["antipode-square"].witness is None


def test_pairing_unit_counit_failure_names_index(monkeypatch):
    build = constructors.dual_group_hopf

    def wrong_counit(G):
        kd = build(G)
        kd.counit[2] = Fraction(1)  # <1, [2]> is 0, not 1
        return kd

    monkeypatch.setattr(constructors, "dual_group_hopf", wrong_counit)
    report = {ck.id: ck for ck in dual_pairing_report(GROUPS["S3"])}
    ck = report["pairing-unit-counit"]
    assert not ck.ok
    assert (ck.residual_term_count, ck.witness) == (1, "(1|2)")


def test_word_pins():
    B = shuffle_bialgebra(2, 4)
    for ck in word_pin_report(B):
        assert ck.ok, ck.id


def test_pareigis_dimension():
    P = pareigis_window(4)
    assert P.dim == 18


def test_pareigis_axioms():
    for ck in pareigis_axiom_report(pareigis_window(4)):
        assert ck.ok, ck.id


@pytest.mark.parametrize("name", ["Z2", "Z3", "Z2^3", "S3", "D4"])
def test_dual_pairing(name):
    for ck in dual_pairing_report(GROUPS[name]):
        assert ck.ok, "%s %s" % (name, ck.id)


def test_z2_self_duality():
    for ck in z2_dual_iso_report():
        assert ck.ok, ck.id


def test_chain_complex_window_roundtrip():
    one = Fraction(1)
    # 0 <- k <- k^2 <- k, rows indexed by the source basis
    dims = {0: 1, 1: 2, 2: 1}
    d = {1: [[one], [Fraction(0)]], 2: [[Fraction(0), one]]}
    C = ChainComplexWindow(dims, d)
    C.assert_complex()
    P = pareigis_window(4)
    M = chain_to_comodule(C, P)
    for ck in M.report():
        assert ck.ok, ck.id
    C2 = comodule_to_chain(M)
    assert C2.dims == C.dims
    assert C2.d == C.d


def test_chain_complex_rejects_nonzero_square():
    one = Fraction(1)
    dims = {0: 1, 1: 1, 2: 1}
    d = {1: [[one]], 2: [[one]]}
    with pytest.raises(NotAComplex):
        ChainComplexWindow(dims, d)


def test_comodule_counit_axiom_catches_bad_coaction():
    P = pareigis_window(4)
    dims = {0: 1}
    # coaction hits x, which the counit kills, so the counit law fails
    coaction = {(0, 0): {((0, 0), P.idx(0, 1)): Fraction(1)}}
    M = WindowComodule(P, dims, coaction)
    report = {ck.id: ck for ck in M.report()}
    assert not report["coaction-counit"].ok
