"""The named check suites: coverage, determinism, flag handling."""

import pytest

from hopftwist import heis_torus, suites
from hopftwist.errors import SchemaError, UnknownSuite
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
