"""Exact tensor inverses over abelian group algebras against their
characters.

Over k[A], A abelian, an element t = sum a_g g is invertible exactly when
every character sum chi(t) = sum a_g chi(g) is nonzero (the Fourier
isomorphism of C[A] with C^|A|), and then chi(t^-1) = 1 / chi(t).  The
characters are found by brute force from the group table, and the sums are
formed in Cyclotomic value arithmetic, apart from the integer solve under
test.  k[G]^(tensor 2) is k[G x G], whose characters are products."""

import importlib
import os
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopftwist import constructors as con
from hopftwist import scalars
from hopftwist.errors import NotInvertible, SolveTooCostly
from hopftwist.multilinear import AlgebraPresentation, LegTensor, decode_key, tensor_invert
from hopftwist.sample_hosts import taft
from hopftwist.scalars import ScalarRing, root_of_unity
from hopftwist.suites import run_suite

GROUPS = {
    "Z3": (con.cyclic_group(3), 3),
    "Z4": (con.cyclic_group(4), 4),
    "Z2xZ2": (con.elementary_abelian_2(2), 2),
}


def _characters(G, exponent):
    """Each character of G as the list of its exponents of z_exponent: the
    maps g -> z^c(g) with c(gh) = c(g) + c(h) mod exponent."""
    n = G.order
    return [
        c
        for c in product(range(exponent), repeat=n)
        if all(
            c[G.mul(g, h)] == (c[g] + c[h]) % exponent
            for g in range(n)
            for h in range(n)
        )
    ]


_CHARS = {name: _characters(G, e) for name, (G, e) in GROUPS.items()}


def _character_sums(t, name):
    """chi(t) for every character chi of G^arity, in value arithmetic."""
    G, e = GROUPS[name]
    sums = []
    for chis in product(_CHARS[name], repeat=t.arity):
        total = Fraction(0)
        for key, a in t.data.items():
            digits = decode_key(key, G.order, t.arity)
            power = sum(chi[g] for chi, g in zip(chis, digits))
            total = total + a * root_of_unity(power, e)
        sums.append(total)
    return sums


@st.composite
def _tensors(draw):
    """A tensor over k[G] at arity 1 or 2 with coefficients in Q(z_K), K in
    3, 4, 5: few small terms, so that character sums often cancel; half of
    them times 1 - g, a zero divisor."""
    name = draw(st.sampled_from(sorted(GROUPS)))
    G, _e = GROUPS[name]
    arity = draw(st.integers(1, 2))
    K = draw(st.sampled_from([3, 4, 5]))
    host = con.group_algebra(G)
    coeff = st.builds(
        lambda c, k, q: c * root_of_unity(k, K) + q,
        st.sampled_from([0, 1, -1, 2]),
        st.integers(0, K - 1),
        st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2)]),
    )
    keys = st.integers(0, G.order**arity - 1)
    entries = draw(st.dictionaries(keys, coeff, min_size=1, max_size=4))
    t = LegTensor(host, arity, entries)
    if draw(st.booleans()):
        g = draw(st.integers(1, G.order - 1))
        one_minus_g = {0: 1, g * G.order ** (arity - 1): -1}
        t = t.mul(LegTensor(host, arity, one_minus_g))
    return name, t


@settings(max_examples=120, deadline=None)
@given(_tensors())
@example(("Z2xZ2", LegTensor(con.group_algebra(GROUPS["Z2xZ2"][0]), 1, {0: 1, 1: 1})))
@example(("Z3", LegTensor(con.group_algebra(GROUPS["Z3"][0]), 1, {0: 1, 1: 1, 2: 1})))
@example(("Z4", LegTensor(con.group_algebra(GROUPS["Z4"][0]), 2, {0: root_of_unity(1, 5), 5: 2})))
def test_inverse_exists_exactly_when_no_character_vanishes(case):
    name, t = case
    sums = _character_sums(t, name)
    if not all(sums):
        with pytest.raises(NotInvertible):
            tensor_invert(t)
        return
    inv = tensor_invert(t)
    for s, s_inv in zip(sums, _character_sums(inv, name)):
        assert s * s_inv == 1


def test_costly_inverse_is_refused_before_it_is_solved():
    # r + c z(997, k) over k[Z2]: 2 * 996 unknowns, refused at once
    H = con.group_algebra(con.cyclic_group(2))
    t = LegTensor(H, 1, {0: 3 + root_of_unity(1, 997), 1: 2 * root_of_unity(5, 997)})
    start = time.perf_counter()
    with pytest.raises(SolveTooCostly, match="Q\\(z_997\\) priced at"):
        tensor_invert(t)
    assert time.perf_counter() - start < 1


def _recorded_prices(monkeypatch):
    """The list that every later price of an exact solve, the number the
    one estimate scalars.solve_work returns, is appended to."""
    prices = []
    work = scalars.solve_work

    def recorded(*args):
        prices.append(work(*args))
        return prices[-1]

    monkeypatch.setattr(scalars, "solve_work", recorded)
    return prices


def test_benchmark_and_suite_inverses_are_priced_under_the_cap(monkeypatch):
    # every inverse that the hopf-cochain suite and a round of the
    # cochain-exact benchmark form, with its price
    prices = _recorded_prices(monkeypatch)
    run_suite("hopf-cochain", seed=1729)
    suite_count = len(prices)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    workloads = importlib.import_module("workloads")
    for cases in workloads.build_cochain_exact(3, 1):
        for case in cases:
            assert case.run() == case.expected, case.label
    assert suite_count > 50 and len(prices) > suite_count
    assert max(prices) < scalars._MAX_SOLVE_WORK // 1000


def test_dense_price_reads_the_top_numerator_kept_on_the_table(monkeypatch):
    # the table keeps its largest numerator when it is made, so a price is
    # unchanged: a dense arity-3 tensor over k[D4] with numerators up to 3
    # (2 bits) over 1, against cells of numerator 1 over 1, has
    # m = 8**3 unknowns and the price m**3 * (2 + 1), refused at once
    H = con.group_algebra(con.dihedral_4())
    # k[x]/(x^2 - 3/2): cells 2, 2, 2, 3 over 2, so a price of 2**3 * (1 + 2 + 1)
    root = AlgebraPresentation(
        2, ["1", "x"], ScalarRing(),
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: Fraction(3, 2)}},
        [1, 0],
    )
    for host in (H, root, taft(3), con.dual_group_hopf(con.symmetric_3())):
        table = host.phase_table()
        assert table.top == max(abs(n) for cell in table.cells if cell for _k, _p, n in cell)
    assert (H.phase_table().top, root.phase_table().top) == (1, 3)
    prices = _recorded_prices(monkeypatch)
    x = LegTensor(root, 1, {0: Fraction(1), 1: Fraction(1)})
    tensor_invert(x)
    assert prices == [32]
    t = LegTensor(H, 3, {k: Fraction(k % 7 - 3) for k in range(8**3)})
    start = time.perf_counter()
    with pytest.raises(SolveTooCostly):
        tensor_invert(t)
    assert time.perf_counter() - start < 1
    assert prices == [32, 512**3 * 3] and prices[1] > scalars._MAX_SOLVE_WORK
