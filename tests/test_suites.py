"""The named check suites: coverage, determinism, flag handling."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from hopftwist import heis_torus, suites
from hopftwist.errors import SchemaError, UnknownSuite
from hopftwist.group_cohomology import fano_octonions, octonion_norm
from hopftwist.multilinear import LegTensor
from hopftwist.reporting import CheckOutcome
from hopftwist.suites import DEFAULT_SEED, SUITE_NAMES, run_suite

# the slow suite (hopf-cochain) is exercised by the acceptance gate;
# everything here sticks to the sub-second ones
FAST = [n for n in SUITE_NAMES if n != "hopf-cochain"]
_CACHE = {}


def report(name):
    if name not in _CACHE:
        _CACHE[name] = run_suite(name)
    return _CACHE[name]


@pytest.mark.parametrize("name", FAST)
def test_fast_suites_pass(name):
    rep = report(name)
    assert rep.suite == name
    assert rep.seed == DEFAULT_SEED
    assert rep.checks
    bad = [c.id for c in rep.checks if not c.ok]
    assert rep.ok, bad


def test_reports_are_deterministic():
    a = run_suite("octonions", seed=5).to_json()
    b = run_suite("octonions", seed=5).to_json()
    assert a == b
    assert a != run_suite("octonions", seed=6).to_json()


def test_timing_only_on_request():
    rep = report("sharp-map")
    assert "elapsed_ms" not in rep.to_dict()
    assert "elapsed_ms" in rep.to_dict(timings=True)


def test_check_ids_unique_within_suite():
    for name in FAST:
        ids = [c.id for c in report(name).checks]
        assert len(ids) == len(set(ids)), name


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("nope")


def test_bad_flags_rejected():
    with pytest.raises(SchemaError) as err:
        run_suite("moyal", order=0)
    assert err.value.field == "order"
    with pytest.raises(SchemaError) as err:
        run_suite("heis-torus", theta="1/3")
    assert err.value.field == "theta"


def test_theta_truncating_to_zero_rejected_unless_zero():
    # sharp-map ignores theta, so only the validation runs
    for text in ("h^5", "h/(1-h) - h - h^2 - h^3 - h^4", "h^100"):
        with pytest.raises(SchemaError) as err:
            run_suite("sharp-map", theta=text)
        assert err.value.field == "theta"
    for text in ("0", "h - h", "h^5 - h^5", "h^4"):
        assert run_suite("sharp-map", theta=text).ok


def test_flags_thread_through():
    assert run_suite("pbw-gcl", order=3).ok
    assert run_suite("heis-torus", theta="h+h^2").ok
    assert run_suite("moyal", order=4).ok


def test_hopf_axioms_covers_every_host():
    ids = [c.id for c in report("hopf-axioms").checks]
    for label in (
        "k[Z2]:", "k[Z3]:", "k[Z2^3]:", "k[S3]:", "k[D4]:", "k[P8]:",
        "dual[Z2]:", "dual[P8]:",
        "taft2:", "taft3:", "taft5:",
        "shuffle:", "pareigis4:", "pairing[S3]:", "z2-dual-iso:",
    ):
        assert any(i.startswith(label) for i in ids), label
    # the antihomomorphism and square laws run on every Hopf host
    assert sum(1 for i in ids if i.endswith("antipode-antihomomorphism")) >= 15


def test_torus_checks_cover_three_angles():
    ids = [c.id for c in report("group-cohomology").checks]
    for tag in ("torus-1/2", "torus-1/3", "torus-2/5"):
        assert "%s:cocycle" % tag in ids
        assert "%s:commutation" % tag in ids
        assert "%s:uv-phase-exact" % tag in ids


def test_octonion_suite_records_the_census():
    rep = report("octonions")
    by_id = {c.id: c for c in rep.checks}
    assert by_id["quasi-associativity-512"].ok
    assert by_id["coboundary-sign-census"].ok
    assert by_id["twist-not-closed"].ok
    assert by_id["norm-seeded-100"].ok


def test_heis_torus_witnesses_a_wrong_reparametrization(monkeypatch):
    real = heis_torus.alpha

    def shifted(theta, k, convention="main"):
        return real(theta, k + 1, convention)

    # the suite body and the Zak left action both call alpha
    monkeypatch.setattr(heis_torus, "alpha", shifted)
    monkeypatch.setattr(suites, "alpha", shifted)
    checks = {c.id: c for c in run_suite("heis-torus").checks}
    assert checks["reparam-iff:n=1:theta=h"].witness == "assoc at alpha_1(theta)"
    assert checks["alpha-composition-order5"].witness == "j=-2,k=-1"
    assert checks["pairing-balanced"].witness == "U"
    assert checks["pairing-bimodule"].witness == "U:left"
    assert checks["monomial-bimodule"].witness == "a*f*b"
    passing = [c for c in checks.values() if c.ok]
    assert passing and all(c.witness is None for c in passing)


def test_heis_torus_witnesses_an_unseen_perturbation(monkeypatch):
    monkeypatch.setattr(
        suites,
        "assoc_residual",
        lambda a, b, c, theta, theta_p: heis_torus.HeisElement.zero(a.order),
    )
    check = {c.id: c for c in run_suite("heis-torus").checks}["reparam-iff:n=2:theta=h"]
    assert check.residual_term_count == 3
    assert check.witness == "perturbation h^1 unseen"


def test_all_gives_each_suite_a_fresh_rng(monkeypatch):
    def body(rng, order, theta):
        return [CheckOutcome.passed("draw=%r" % rng.random())]

    monkeypatch.setattr(suites, "_BODIES", {name: body for name in SUITE_NAMES})
    every = run_suite("all", seed=7)
    alone = [
        "%s:%s" % (name, c.id)
        for name in SUITE_NAMES
        for c in run_suite(name, seed=7).checks
    ]
    assert [c.id for c in every.checks] == alone
    assert alone[0] == "hopf-axioms:draw=%r" % random.Random(7).random()
    assert len(set(c.id.split(":")[1] for c in every.checks)) == 1


def test_dsquared_failures_name_their_trial(monkeypatch):
    # d^2 is the unit on every trial but the fourth of the first host and
    # the sixth of k[S3]+h (call 100 + 7 + 5); the twists are stubbed out
    calls = []

    def dsquared(c):
        calls.append(c)
        unit = LegTensor.unit(c.host, c.arity + 2)
        return unit.scale(2) if len(calls) in (4, 113) else unit

    monkeypatch.setattr(suites, "dsquared", dsquared)
    monkeypatch.setattr(
        suites,
        "twist",
        lambda host, F, module=None: SimpleNamespace(
            twisted_algebra=SimpleNamespace(mult=None)
        ),
    )
    monkeypatch.setattr(suites, "verify_quasi", lambda R: [])
    monkeypatch.setattr(suites, "equivariant_twist_check", lambda F, R: True)
    checks = {c.id: c for c in run_suite("hopf-cochain").checks}
    failed = {
        i: (c.residual_term_count, c.witness)
        for i, c in checks.items()
        if i.startswith("dsquared") and not c.ok
    }
    assert failed == {
        "dsquared-unit:k[Z2^3]": (1, "trial 3"),
        "dsquared-invariant:k[S3]+h": (1, "trial 5"),
    }


def _octonions_with(monkeypatch, attr, wrap):
    """The octonions suite over an algebra whose attr is wrap(attr)."""

    def build():
        G, F, O = fano_octonions()
        setattr(O, attr, wrap(getattr(O, attr)))
        return G, F, O

    monkeypatch.setattr(suites, "fano_octonions", build)
    return {c.id: c for c in run_suite("octonions").checks}


def test_octonion_unit_laws_name_the_label(monkeypatch):
    def basis_mul(real):
        return lambda i, j: {3: -Fraction(1)} if (i, j) == (3, 0) else real(i, j)

    ck = _octonions_with(monkeypatch, "basis_mul", basis_mul)["unit-laws"]
    assert (ck.status, ck.residual_term_count, ck.witness) == ("fail", 1, "e3")


def test_octonion_alternativity_names_the_pair(monkeypatch):
    one = Fraction(1)

    def elem_mul(real):
        # e1 * e2 comes out negated; -x has the norm of x
        def mul(u, v):
            w = real(u, v)
            if (u, v) == ({1: one}, {2: one}):
                return {k: -c for k, c in w.items()}
            return w

        return mul

    checks = _octonions_with(monkeypatch, "elem_mul", elem_mul)
    ck = checks["alternativity-basis"]
    assert (ck.status, ck.residual_term_count, ck.witness) == ("fail", 2, "(e1,e2)")
    assert checks["norm-basis-pairs"].ok


def test_octonion_norm_pairs_name_the_pair(monkeypatch):
    def norm(O, u):
        # e5 alone gets norm 2, so N(e1 e4) = N(+-e5) != N(e1) N(e4)
        return octonion_norm(O, u) + (1 if list(u) == [5] else 0)

    monkeypatch.setattr(suites, "octonion_norm", norm)
    ck = {c.id: c for c in run_suite("octonions").checks}["norm-basis-pairs"]
    assert (ck.status, ck.residual_term_count, ck.witness) == ("fail", 19, "(e1,e4)")
