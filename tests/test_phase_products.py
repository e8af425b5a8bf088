"""The integer product on phase cells against value arithmetic.

Every structure table is a table of integer phase cells (PhaseCells), and
LegTensor.mul, AlgebraPresentation.elem_mul and the axiom batteries multiply
only integers.  Here each of them is checked against a naive product written
out from basis_mul in Fraction, Cyclotomic and Series arithmetic, on hosts
whose cells carry roots of unity (Taft), signs (the Fano octonions), powers
of hbar and tau (a twisted module algebra over a series host), and on a
windowed host whose overflowing products must give None.
"""

import random
import subprocess
import sys
import os
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopftwist import multilinear as ml
from hopftwist import suites
from hopftwist.constructors import PareigisWindow, dual_action_module, elementary_abelian_2, taft
from hopftwist.errors import WindowOverflow
from hopftwist.grammar import parse
from hopftwist.group_cohomology import fano_octonions, octonion_norm
from hopftwist.hopf_cochain import random_counital_two_cochain, twist
from hopftwist.multilinear import (
    AlgebraPresentation,
    HopfPresentation,
    LegTensor,
    verify_algebra,
    verify_hopf,
    with_series_ring,
)
from hopftwist.scalars import Cyclotomic, ScalarRing, Series, TauLaurent, root_of_unity

K = 2
SER = ScalarRing(hbar_order=K)


def _series_algebra(A):
    return AlgebraPresentation(A.dim, A.labels, SER, A.mult, A.unit)


def _twisted_algebra():
    """A twisted module algebra over dual[Z2^2] at order 2: its structure
    constants are series with terms in hbar^1 and hbar^2."""
    mod = dual_action_module(elementary_abelian_2(2), SER)
    F = random_counital_two_cochain(mod.host, random.Random(37))
    return twist(mod.host, F, mod).twisted_algebra


def _tau_algebra():
    """k[Z3] at order 2 with x_i x_j = (z3^(i j) + tau^(i - j) hbar) x_(i+j):
    cells on roots of unity, powers of tau and hbar^1."""
    h, z3 = Series.hbar(K), root_of_unity(1, 3)
    mult = {
        (i, j): {(i + j) % 3: z3 ** (i * j) + h * TauLaurent.tau(i - j)}
        for i in range(3)
        for j in range(3)
    }
    return AlgebraPresentation(3, ["1", "u", "u^2"], SER, mult, [1, 0, 0])


OCT = fano_octonions()[2]
HOSTS = {
    "tau-h2": _tau_algebra(),
    "taft3": taft(3),
    "taft5": taft(5),
    "octonions": OCT,
    "taft3-h2": with_series_ring(taft(3), K),
    "octonions-h2": _series_algebra(OCT),
    "twisted-h2": _twisted_algebra(),
}
assert any(
    p != (0, 0, 0) for cell in HOSTS["twisted-h2"].phase_table().cells for _k, p, _n in cell
)
PAREIGIS = PareigisWindow(2)

SETTINGS = settings(max_examples=40, deadline=None)
RATIONALS = st.sampled_from([Fraction(n, d) for n in (-3, -1, 1, 2, 5) for d in (1, 2, 3)])
Z3, Z5 = root_of_unity(1, 3), root_of_unity(1, 5)
EXACT = [1, Z3, Z5, Z5 * Z5, 1 + Z3, 2 - Z5 * Z3]
SERIES = EXACT + [TauLaurent.tau(), TauLaurent.tau(-1) * Z5, Series.hbar(K), Series.hbar(K) * Z3 + 1]


def coefficients(series):
    phases = st.sampled_from(SERIES if series else EXACT)
    return st.builds(lambda q, c: c * q, RATIONALS, phases)


def elements(host, arity=1):
    keys = st.integers(0, host.dim - 1)
    if arity > 1:
        keys = st.tuples(*[keys] * arity)
    return st.dictionaries(keys, coefficients(host.ring.is_series), max_size=4)


def naive(host, u, v):
    """u * v leg by leg from basis_mul, in value arithmetic; raises
    WindowOverflow when a pair of keys needs a basis product outside the
    window on any leg."""
    out = {}
    for ka, x in u.items():
        for kb, y in v.items():
            legs = zip(*[k if isinstance(k, tuple) else (k,) for k in (ka, kb)])
            cells = [host.basis_mul(i, j) for i, j in legs]
            terms = [((), x * y)]
            for cell in cells:
                terms = [(key + (k,), c * w) for key, c in terms for k, w in cell.items()]
            for key, c in terms:
                key = key if isinstance(ka, tuple) else key[0]
                out[key] = out[key] + c if key in out else c
    return {k: c for k, c in out.items() if c}


def clean(u):
    return {k: c for k, c in u.items() if c}


def coerced(host, u):
    return {k: host.ring.coerce(c) for k, c in u.items()}


@SETTINGS
@given(st.sampled_from(sorted(HOSTS)), st.data())
def test_elem_mul_and_arity_one_products_match_value_arithmetic(name, data):
    host = HOSTS[name]
    u = coerced(host, clean(data.draw(elements(host))))
    v = coerced(host, clean(data.draw(elements(host))))
    want = naive(host, u, v)
    assert host.elem_mul(u, v) == want
    got = LegTensor(host, 1, u).mul(LegTensor(host, 1, v))
    assert got.eq(LegTensor(host, 1, want))
    assert got.term_count() == len(want)
    # the battery's product on rows, read back as values
    run = ml._AlgebraBattery(host)
    row = run.mul(ml._vec_row(u), ml._vec_row(v))
    assert not ml._differ(row, ml._vec_row(want))
    assert not ml._differ(ml._vec_row(want), row)


@SETTINGS
@given(st.sampled_from(["taft3", "taft5", "taft3-h2", "twisted-h2", "tau-h2"]), st.data())
def test_arity_two_and_three_products_match_value_arithmetic(name, data):
    host = HOSTS[name]
    arity = data.draw(st.integers(2, 3))
    u = coerced(host, clean(data.draw(elements(host, arity))))
    v = coerced(host, clean(data.draw(elements(host, arity))))
    want = naive(host, u, v)
    got = LegTensor(host, arity, u).mul(LegTensor(host, arity, v))
    assert dict(got.entries()) == want
    dim = host.dim
    flat = {a * dim + b: c for (a, b), c in want.items()} if arity == 2 else None
    run = ml._Battery(host) if arity == 2 and isinstance(host, HopfPresentation) else None
    if run is not None:
        rows = [ml._vec_row({a * dim + b: c for (a, b), c in w.items()}) for w in (u, v)]
        assert not ml._differ(run.mul(*rows, 2), ml._vec_row(flat))


@SETTINGS
@given(st.data())
def test_window_overflow_gives_none_exactly_where_basis_mul_raises(data):
    run = ml._Battery(PAREIGIS)
    u = clean(data.draw(elements(PAREIGIS)))
    v = clean(data.draw(elements(PAREIGIS)))
    try:
        want = naive(PAREIGIS, u, v)
    except WindowOverflow:
        want = None
    got = run.mul(ml._vec_row(u), ml._vec_row(v))
    assert (got is None) == (want is None)
    if want is not None:
        assert not ml._differ(got, ml._vec_row(want))
    dim = PAREIGIS.dim
    u2 = {a * dim + b: c for a, c in u.items() for b in (0, 1)}
    try:
        want2 = naive(PAREIGIS, {divmod(k, dim): c for k, c in u2.items()},
                      {divmod(k, dim): c for k, c in u2.items()})
    except WindowOverflow:
        want2 = None
    got2 = run.mul(ml._vec_row(u2), ml._vec_row(u2), 2)
    assert (got2 is None) == (want2 is None)


def _taft_with_one_constant_squared(p):
    """taft(p) with x g^(p-1) = q^2 g^(p-1) x in place of q g^(p-1) x."""
    T = taft(p)
    q = root_of_unity(1, p)
    mult = {ij: dict(cell) for ij, cell in T.mult.items()}
    ij = (1, (p - 1) * p)
    ((k, v),) = mult[ij].items()
    assert v == q
    mult[ij] = {k: q * q}
    return HopfPresentation(
        T.dim, T.labels, T.ring, mult, T.unit, T.coproduct, T.counit,
        [list(row) for row in T.antipode],
    )


@pytest.mark.parametrize(
    "p,failed",
    [
        (3, {"associativity": (15, "(x,x,g^2)"), "coproduct-morphism": (8, "(x,x^2)"),
             "antipode-convolution": (1, "id*S at x"),
             "antipode-antihomomorphism": (2, "(x,g^2)")}),
        (5, {"associativity": (49, "(x,x,g^4)"), "coproduct-morphism": (26, "(x,x^4)"),
             "antipode-convolution": (1, "id*S at x"),
             "antipode-antihomomorphism": (2, "(x,g^4)")}),
    ],
)
def test_taft_with_a_wrong_constant_fails_with_the_value_level_witnesses(p, failed):
    # the residuals and witnesses are those of the value-level battery
    report = verify_hopf(_taft_with_one_constant_squared(p))
    got = {c.id: (c.residual_term_count, c.witness) for c in report if not c.ok}
    assert got == failed


def _raise(*_args):
    raise AssertionError("a value-level product was formed")


@pytest.fixture
def no_value_products(monkeypatch):
    def patch():
        for cls in (Cyclotomic, Fraction):
            monkeypatch.setattr(cls, "__mul__", _raise)
            monkeypatch.setattr(cls, "__rmul__", _raise)
    return patch


def test_taft5_battery_forms_no_value_product(no_value_products):
    T = taft(5)
    no_value_products()
    assert all(c.ok for c in verify_hopf(T))


def test_octonion_products_form_no_value_product(no_value_products, monkeypatch):
    one = Fraction(1)
    rng = random.Random(5)
    dense = [
        {i: Fraction(rng.randint(-3, 3)) for i in range(8) if i % 3 != 2} for _ in range(5)
    ]
    basis = [{a: one} for a in range(8)]
    no_value_products()
    unit, quasi = verify_algebra(OCT, associator=OCT.associator)
    prods = [[OCT.elem_mul(x, y) for y in basis + dense] for x in basis + dense]
    norms = [octonion_norm(OCT, u) for u in basis + dense]
    monkeypatch.undo()
    assert unit.ok and quasi.ok
    vectors = basis + dense
    for x, row in zip(vectors, prods):
        for y, got in zip(vectors, row):
            assert got == naive(OCT, x, y)
    assert norms == [sum(c * c for c in u.values()) for u in vectors]


def test_inverse_of_a_root_is_immediate():
    started = time.process_time()
    assert parse("1/z(997,1)") is root_of_unity(-1, 997)
    assert time.process_time() - started < 0.05


def test_verify_theta_with_inverted_root_exit_zero():
    src = os.path.dirname(os.path.dirname(suites.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "hopftwist.cli", "verify", "sharp-map", "--theta", "1/z(997,1)*h"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
