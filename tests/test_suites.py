"""The named check suites: coverage, determinism, flag handling."""

import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from hopftwist import (
    batteries,
    cochain_engine,
    cochain_suite,
    graded,
    group_cohomology,
    heis_torus,
    hopf_cochain,
    pbw,
    sample_hosts,
    suites,
    weights,
)
from hopftwist.batteries import ModuleAlgebra
from hopftwist.errors import SchemaError, UnknownSuite
from hopftwist.group_cohomology import (
    GroupCochain,
    TorusCochain,
    fano_octonions,
    octonion_norm,
    twisted_group_algebra,
)
from hopftwist.multilinear import LegTensor
from hopftwist.reporting import CheckOutcome
from hopftwist.scalars import Series, TauLaurent, root_of_unity
from hopftwist.suites import DEFAULT_SEED, SUITE_NAMES, run_suite

# the slow suite (hopf-cochain) is exercised by the acceptance gate;
# everything here sticks to the sub-second ones
FAST = [n for n in SUITE_NAMES if n != "hopf-cochain"]
_CACHE = {}


def report(name):
    if name not in _CACHE:
        _CACHE[name] = run_suite(name)
    return _CACHE[name]


def _patch_for_suites(monkeypatch, module, name, fake, body):
    """Replace module.name by fake for the calls made from the suite body
    body and the functions nested in it; the library's own calls keep the
    real function."""
    real = getattr(module, name)

    def patched(*args, **kwargs):
        caller = sys._getframe(1)
        own = caller.f_globals is body.__globals__ and (
            caller.f_code.co_qualname.partition(".")[0] == body.__name__
        )
        return (fake if own else real)(*args, **kwargs)

    monkeypatch.setattr(module, name, patched)


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

    def shifted(theta, k):
        return real(theta, k + 1)

    # the suite body and the Zak left action both call alpha
    monkeypatch.setattr(heis_torus, "alpha", shifted)
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
        heis_torus,
        "assoc_residual",
        lambda a, b, c, theta, theta_p: heis_torus.HeisElement.zero(a.order),
    )
    check = {c.id: c for c in run_suite("heis-torus").checks}["reparam-iff:n=2:theta=h"]
    assert check.residual_term_count == 3
    assert check.witness == "perturbation h^1 unseen"


def test_uv_commutation_names_the_first_residual_key(monkeypatch):
    assert report("heis-torus").checks[0].witness is None
    real = heis_torus.star

    def without_first_order(a, b, theta):
        zero = Series.zero(a.order)
        first = real(heis_torus.vf_apply("X", a), heis_torus.vf_apply("Y", b), zero)
        return real(a, b, theta).sub(first.scale(theta * TauLaurent.tau(-1)))

    # assoc_residual's products keep the real star
    _patch_for_suites(
        monkeypatch, heis_torus, "star", without_first_order, heis_torus.heis_torus_checks
    )
    checks = {c.id: c for c in run_suite("heis-torus").checks}
    assert not checks["uv-commutation"].ok
    assert checks["uv-commutation"].witness == "(1, 0, 0, Fraction(1, 1))"


def test_zak_commutation_names_the_first_residual_key(monkeypatch):
    passing = {c.id: c for c in report("heis-torus").checks}
    for name in ("zak-left-commutation:n=2", "zak-right-commutation:n=2"):
        assert passing[name].ok and passing[name].witness is None
    real = heis_torus._act_once

    def without_phase(letter, f, theta, side):
        # V multiplies slot m by e^{-2 pi i m/n}; take that factor back off
        out = real(letter, f, theta, side)
        if letter != "V":
            return out
        n = out.degree
        return out._raw(
            {
                (m, p, c): s * heis_torus._phase(Fraction(m, n))
                for (m, p, c), s in out.data.items()
            },
        )

    monkeypatch.setattr(heis_torus, "_act_once", without_phase)
    checks = {c.id: c for c in run_suite("heis-torus").checks}
    # the phase is 1 in degree 1, so only degree 2 can see it
    assert checks["zak-left-commutation:n=1"].ok
    assert checks["zak-right-commutation:n=1"].ok
    left = checks["zak-left-commutation:n=2"]
    right = checks["zak-right-commutation:n=2"]
    assert (left.residual_term_count, left.witness) == (3, "(0, 0, Fraction(5, 3))")
    assert (right.residual_term_count, right.witness) == (13, "(0, 0, Fraction(0, 1))")


def _v_without_slot_phase(real):
    def act(letter, z, angle, side):
        # V multiplies slot m by z_N^(-m N/n); take that factor back off
        out = real(letter, z, angle, side)
        if letter != "V":
            return out
        N, n = out.N, out.degree
        nums, den = out.row
        undone = {
            ((m, p, cd), v, t, (e + m * (N // n)) % N): x
            for ((m, p, cd), v, t, e), x in nums.items()
        }
        return heis_torus._ZakRow(out.order, n, (undone, den), out.D, N)

    return act


def _right_v_without_theta(real):
    def act(letter, z, angle, side):
        # a right V without its factor e^{2 pi i n theta y}
        if (letter, side) == ("V", "right"):
            angle = Series.zero(z.order)
        return real(letter, z, angle, side)

    return act


@pytest.mark.parametrize(
    "fault, balanced, bimodule",
    [
        # the slot phase is 1 in degree 1, so only the degree-2 pairing sees it
        (_v_without_slot_phase, None, "V:left"),
        (_right_v_without_theta, "V", "V:right"),
    ],
    ids=["slot-phase", "right-theta"],
)
def test_pairing_checks_witness_a_fault_in_the_row_action(
    monkeypatch, fault, balanced, bimodule
):
    passing = {c.id: c for c in report("heis-torus").checks}
    assert passing["pairing-balanced"].ok and passing["pairing-bimodule"].ok
    monkeypatch.setattr(heis_torus, "_act_rows", fault(heis_torus._act_rows))
    checks = {c.id: c for c in run_suite("heis-torus").checks}
    assert checks["pairing-balanced"].witness == balanced
    assert checks["pairing-balanced"].ok == (balanced is None)
    assert not checks["pairing-bimodule"].ok
    assert checks["pairing-bimodule"].witness == bimodule


def failing(checks):
    return {
        c.id: (c.residual_term_count, c.witness) for c in checks if not c.ok
    }


def test_equal_angle_closed_form_names_the_first_residual_key(monkeypatch):
    assert failing(report("pbw-gcl").checks) == {}
    real = pbw._lam

    def doubled(theta, order):
        # the twist angle theta / tau taken twice over
        return real(theta, order) * 2

    monkeypatch.setattr(pbw, "_lam", doubled)
    assert failing(run_suite("pbw-gcl").checks) == {
        "equal-angle-closed-form": (1, "((1, 0, 0), (0, 0, 1), (0, 1, 0))"),
    }


def test_zero_angle_checks_name_the_first_residual_key(monkeypatch):
    real = pbw._lam

    def zero_read_as_h(theta, order):
        return real(Series.hbar(order) if theta.is_zero() else theta, order)

    monkeypatch.setattr(pbw, "_lam", zero_read_as_h)
    key = "((1, 0, 0), (0, 0, 1), (0, 1, 0))"
    assert failing(run_suite("pbw-gcl").checks) == {
        "zero-angle-trivial": (2, key),
        "zero-angle-is-cocycle": (1, "gcl-cocycle at " + key),
    }


def test_graded_verdicts_name_a_weak_strong_grading(monkeypatch):
    assert failing(report("graded-galois").checks) == {}

    # a strong_grading that finds no grading strong; canonical_map's own
    # cross-check keeps the real one
    _patch_for_suites(
        monkeypatch,
        graded,
        "strong_grading",
        lambda ga: SimpleNamespace(strong=False),
        graded.graded_galois_checks,
    )
    bad = failing(run_suite("graded-galois").checks)
    for name in (
        "kZ2-self", "kZ3-self", "matrix-checkerboard", "kS3-parity",
        "two-point-swap-crossed", "matrix-swap-crossed",
    ):
        assert bad.pop("fourway:%s" % name) == (1, "strong-grading")
    assert bad.pop("fourway-window:laurent-window-2") == (1, "strong-grading")
    assert bad == {
        "crossed-products-strong": (
            2, "two-point-swap-crossed,matrix-swap-crossed"
        ),
    }


def test_fourway_names_each_disagreeing_verdict(monkeypatch):
    # a canonical map that is never found bijective
    monkeypatch.setattr(
        graded, "canonical_map", lambda ga: SimpleNamespace(bijective=False)
    )
    # and a resolution of unity found for every grading but the Z3 ones;
    # strong_grading and smeb_check keep the real one
    _patch_for_suites(
        monkeypatch,
        graded,
        "resolution_of_unity",
        lambda ga, g: None if ga.grading.order == 3 else object(),
        graded.graded_galois_checks,
    )
    bad = failing(run_suite("graded-galois").checks)
    assert bad == {
        "fourway:kZ2-self": (1, "canonical-map"),
        "fourway:kZ3-self": (2, "resolution-of-unity,canonical-map"),
        "fourway:dual-numbers-Z2": (1, "resolution-of-unity"),
        "fourway:matrix-checkerboard": (1, "canonical-map"),
        "fourway:kS3-parity": (1, "canonical-map"),
        "fourway:two-point-swap-crossed": (1, "canonical-map"),
        "fourway:matrix-swap-crossed": (1, "canonical-map"),
    }


def test_frozen_sharp_examples_name_the_first_wrong_input(monkeypatch):
    assert failing(report("sharp-map").checks) == {}
    real = weights.sharp
    monkeypatch.setattr(weights, "sharp", lambda l: tuple(reversed(real(l))))
    bad = failing(run_suite("sharp-map").checks)
    assert bad["frozen-examples"] == (2, "(1, 2, 3)")


def _z2_iso_with(monkeypatch, fault):
    real = sample_hosts.dual_group_hopf

    def faulty(G, ring=None):
        H = real(G, ring)
        fault(H)
        return H

    monkeypatch.setattr(sample_hosts, "dual_group_hopf", faulty)
    return failing(sample_hosts.z2_dual_iso_report())


def test_z2_iso_counit_names_the_first_wrong_index(monkeypatch):
    assert failing(sample_hosts.z2_dual_iso_report()) == {}
    # d(g) given counit 1 as well as d(e)
    bad = _z2_iso_with(monkeypatch, lambda H: H.counit.__setitem__(1, Fraction(1)))
    assert bad == {"z2-iso-counit": (1, "1")}


def test_z2_iso_antipode_names_the_first_wrong_index(monkeypatch):
    # S(d(g)) = -d(g) instead of d(g)
    bad = _z2_iso_with(
        monkeypatch, lambda H: H.antipode[1].__setitem__(1, Fraction(-1))
    )
    assert bad == {"z2-iso-antipode": (1, "1")}


def test_z2_iso_mult_and_coproduct_count_every_failure(monkeypatch):
    # d(e) d(g) = d(g) d(e) = d(e) instead of 0, and Delta(d(g)) = d(g) (x) d(g)
    def fault(H):
        H.mult[(0, 1)] = H.mult[(1, 0)] = {0: Fraction(1)}
        H.coproduct[1] = {(1, 1): Fraction(1)}

    bad = _z2_iso_with(monkeypatch, fault)
    assert bad == {"z2-iso-mult": (2, "(0,1)"), "z2-iso-coproduct": (1, "1")}


def test_octonion_checks_count_every_failure(monkeypatch):
    # e3 e5 and e5 e3 negated: the norm stays real, and alternativity
    # counts its left and right laws apiece
    real = group_cohomology.fano_octonions

    def faulty():
        G8, fano, O = real()
        for pair in ((3, 5), (5, 3)):
            O.mult[pair] = {k: -v for k, v in O.mult[pair].items()}
        return G8, fano, O

    monkeypatch.setattr(group_cohomology, "fano_octonions", faulty)
    assert failing(run_suite("octonions").checks) == {
        "quasi-associativity-512": (44, "(e1,e2,e5)"),
        "alternativity-basis": (8, "(e3,e5)"),
        "norm-seeded-100": (92, "trial 0"),
    }


def test_octonion_norm_off_the_real_line_fails_its_input(monkeypatch, capsys):
    # e3 e5 alone negated: u u-bar leaves the real line for every seeded
    # pair, each such pair is a failing input, and the suite still reports
    # and exits 1
    from hopftwist.cli import main

    real = group_cohomology.fano_octonions

    def faulty():
        G8, fano, O = real()
        O.mult[(3, 5)] = {k: -v for k, v in O.mult[(3, 5)].items()}
        return G8, fano, O

    monkeypatch.setattr(group_cohomology, "fano_octonions", faulty)
    with pytest.raises(ValueError):
        group_cohomology.octonion_norm(faulty()[2], {3: Fraction(1), 5: Fraction(1)})
    assert main(["verify", "octonions"]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    assert failing(run_suite("octonions").checks) == {
        "quasi-associativity-512": (26, "(e1,e2,e5)"),
        "alternativity-basis": (4, "(e3,e5)"),
        "norm-seeded-100": (100, "trial 0"),
    }


@pytest.mark.parametrize(
    "key,value,expect",
    [
        ((1, 2, 4), 1, (2, "167 signs -1, not 168")),
        ((0, 1, 2), -1, (1, "169 signs -1, not 168")),
        ((0, 0, 0), 2, (1, "m(0,0,0) = 2")),
    ],
    ids=["sign-at-124", "extra-minus", "outside"],
)
def test_sign_census_names_the_condition_that_failed(monkeypatch, key, value, expect):
    # one entry of the octonion associator dF changed: the census counts
    # each of its three conditions that fails and names the first
    real = group_cohomology.group_coboundary

    def changed(c):
        d = real(c)
        if d.arity == 3:
            d.table[key] = value
        return d

    monkeypatch.setattr(group_cohomology, "group_coboundary", changed)
    assert failing(run_suite("octonions").checks)["coboundary-sign-census"] == expect


def test_all_gives_each_suite_a_fresh_rng(monkeypatch):
    def body(rng, order, theta):
        return [CheckOutcome.from_residual("draw=%r" % rng.random(), 0)]

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


def _before_boom(rng, order, theta):
    yield CheckOutcome.from_residual("before", 0)
    raise RuntimeError("boom")


def _boom_at_call(rng, order, theta):
    raise RuntimeError("boom")


@pytest.mark.parametrize(
    "body, kept", [(_before_boom, ["before"]), (_boom_at_call, [])]
)
def test_a_body_that_raises_keeps_its_checks_and_ends_in_one_error(
    monkeypatch, body, kept
):
    monkeypatch.setitem(suites._BODIES, "sharp-map", body)
    rep = run_suite("sharp-map")
    assert [c.id for c in rep.checks] == kept + ["raised"]
    assert all(c.ok for c in rep.checks[:-1])
    assert rep.checks[-1].to_dict() == {
        "id": "raised",
        "status": "error",
        "residual_term_count": -1,
        "witness": "RuntimeError: boom",
    }
    assert not rep.ok


def test_under_all_the_other_suites_report_past_a_body_that_raises(monkeypatch):
    monkeypatch.setitem(suites._BODIES, "octonions", _before_boom)
    every = run_suite("all")
    by_suite = {}
    for c in every.checks:
        name, _, id = c.id.partition(":")
        by_suite.setdefault(name, []).append(id)
    assert list(by_suite) == list(SUITE_NAMES)
    assert by_suite.pop("octonions") == ["before", "raised"]
    for name, ids in by_suite.items():
        assert ids == [c.id for c in report(name).checks], name
    assert not every.ok


def test_each_check_is_timed_from_the_one_before(monkeypatch):
    clock = iter([10.0, 10.5, 12.0, 12.25, 13.0])
    monkeypatch.setattr(suites, "time", SimpleNamespace(monotonic=lambda: next(clock)))

    def body(rng, order, theta):
        yield CheckOutcome.from_residual("a", 0)
        yield CheckOutcome.from_residual("b", 0)
        raise RuntimeError("boom")

    monkeypatch.setitem(suites._BODIES, "sharp-map", body)
    rep = run_suite("sharp-map")
    assert [c.elapsed_ms for c in rep.checks] == [500.0, 1500.0, 250.0]
    assert rep.elapsed_ms == 3000
    assert [c.get("elapsed_ms") for c in rep.to_dict()["checks"]] == [None] * 3
    assert [c["elapsed_ms"] for c in rep.to_dict(timings=True)["checks"]] == [
        500.0, 1500.0, 250.0,
    ]


def test_a_battery_check_carries_its_own_time(monkeypatch):
    # the clock moves only inside coproduct-morphism, so every host bills
    # that time to coproduct-morphism and none of it to unit-laws
    now = [0.0]
    monkeypatch.setattr(suites, "time", SimpleNamespace(monotonic=lambda: now[0]))
    real = batteries._Battery.coproduct_morphism_check

    def slow(self):
        now[0] += 2.0
        return real(self)

    monkeypatch.setattr(batteries._Battery, "coproduct_morphism_check", slow)
    rep = run_suite("hopf-axioms")
    timed = {c.id: c.elapsed_ms for c in rep.checks}
    assert [c.id for c in rep.checks] == [c.id for c in report("hopf-axioms").checks]
    hosts = {i.split(":")[0] for i in timed if i.endswith(":coproduct-morphism")}
    assert len(hosts) == 17
    for cid, ms in timed.items():
        assert ms == (2000.0 if cid.endswith(":coproduct-morphism") else 0.0), cid


def test_dsquared_failures_name_their_trial(monkeypatch):
    # d^2 is the unit on every trial but the fourth of the first host and
    # the sixth of k[S3]+h (call 100 + 7 + 5); the twists are stubbed out,
    # and so is verify_quasi, which names the checks it fails
    calls = []

    def dsquared(c):
        calls.append(c)
        unit = LegTensor.unit(c.host, c.arity + 2)
        return unit.scale(2) if len(calls) in (4, 113) else unit

    monkeypatch.setattr(hopf_cochain, "dsquared", dsquared)
    monkeypatch.setattr(
        hopf_cochain,
        "twist",
        lambda host, F, module=None: SimpleNamespace(
            twisted_algebra=SimpleNamespace(mult=None)
        ),
    )
    # verify_quasi fails once on the fifth k[S3] twist (call 20 + 5) and
    # twice on the seventh, and the checks ahead of a failure pass
    twists = []

    def verify_quasi(R):
        twists.append(R)
        fails = {25: ["pentagon"], 27: ["conjugation", "counital"]}.get(len(twists), [])
        return [CheckOutcome("fine", "pass", 0)] + [
            CheckOutcome(name, "fail", 1, "x") for name in fails
        ]

    monkeypatch.setattr(hopf_cochain, "verify_quasi", verify_quasi)
    monkeypatch.setattr(hopf_cochain, "equivariant_twist_check", lambda F, R: True)
    checks = {c.id: c for c in run_suite("hopf-cochain").checks}
    failed = {
        i: (c.residual_term_count, c.witness)
        for i, c in checks.items()
        if i.startswith(("dsquared", "twist-quasi")) and not c.ok
    }
    assert failed == {
        "dsquared-unit:k[Z2^3]": (1, "trial 3"),
        "dsquared-invariant:k[S3]+h": (1, "trial 5"),
        "twist-quasi:k[S3]": (3, "pentagon trial 4"),
    }


def _delta_i_fault(monkeypatch, fault):
    """Run the coboundary engine with D_i replaced by fault(D_i)."""
    monkeypatch.setattr(cochain_engine, "_delta_i", fault(cochain_engine._delta_i))


def _swapped_coproduct_legs(delta_i):
    """D_i applies the coproduct at leg n-i instead of leg i-1."""
    def swapped(t, i):
        n = t.arity
        return t.coproduct_leg(n - i) if 1 <= i <= n else delta_i(t, i)
    return swapped


def _d0_on_the_right(delta_i):
    """D_0 puts the unit on a new rightmost leg instead of the leftmost."""
    def right(t, i):
        if i == 0:
            return t.leg_embed(tuple(range(t.arity)), t.arity + 1)
        return delta_i(t, i)
    return right


def test_pauli_counterexample_names_a_unit_d_squared(monkeypatch):
    _delta_i_fault(monkeypatch, _swapped_coproduct_legs)
    ck = cochain_suite._pauli_counterexample()
    assert (ck.status, ck.residual_term_count) == ("fail", 1)
    assert ck.witness == "d^2 is the unit"


def test_pauli_counterexample_names_the_first_differing_key(monkeypatch):
    _delta_i_fault(monkeypatch, _d0_on_the_right)
    ck = cochain_suite._pauli_counterexample()
    assert (ck.status, ck.residual_term_count) == ("fail", 1)
    assert ck.witness == "([1],[-1],[1],[1])"


def test_pbw_counterexample_names_the_first_differing_key(monkeypatch):
    _delta_i_fault(monkeypatch, _d0_on_the_right)
    ck = cochain_suite._pbw_counterexample()
    assert (ck.status, ck.residual_term_count) == ("fail", 1)
    assert ck.witness == "((0, 0, 0), (0, 0, 0), (0, 0, 1), (0, 0, 0))"


def _octonions_with(monkeypatch, attr, wrap):
    """The octonions suite over an algebra whose attr is wrap(attr)."""

    def build():
        G, F, O = fano_octonions()
        setattr(O, attr, wrap(getattr(O, attr)))
        return G, F, O

    monkeypatch.setattr(group_cohomology, "fano_octonions", build)
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

    monkeypatch.setattr(group_cohomology, "octonion_norm", norm)
    ck = {c.id: c for c in run_suite("octonions").checks}["norm-basis-pairs"]
    assert (ck.status, ck.residual_term_count, ck.witness) == ("fail", 19, "(e1,e4)")


def test_twist_not_closed_names_what_broke(monkeypatch):
    def suite_with(table):
        # the octonions, with the Fano cochain's table replaced
        def build():
            G, F, O = fano_octonions()
            return G, GroupCochain(G, 2, table(F.table)), O

        monkeypatch.setattr(group_cohomology, "fano_octonions", build)
        return failing(run_suite("octonions").checks)

    # the trivial cocycle in place of the Fano cochain: no sign of dF is -1,
    # m(1,2,4) included
    closed = suite_with(lambda t: {k: Fraction(1) for k in t})
    assert closed == {
        "coboundary-sign-census": (2, "0 signs -1, not 168"),
        "twist-not-closed": (1, "closed"),
    }
    # the Fano cochain with F(e, e3) negated: still not closed, not unital
    negated = suite_with(lambda t: {**t, (0, 3): -t[(0, 3)]})
    assert negated == {
        "coboundary-sign-census": (1, "196 signs -1, not 168"),
        "twist-not-closed": (1, "not unital at e3"),
    }


def _group_cohomology_checks(monkeypatch, name, value):
    monkeypatch.setattr(group_cohomology, name, value)
    return {c.id: c for c in run_suite("group-cohomology").checks}


def test_twist_assoc_pos_multiplies_in_the_algebra(monkeypatch):
    # the S3 coboundaries come out with F((12),(23)) doubled: still unital,
    # no longer a cocycle, so k_F[S3] is not associative
    real = group_cohomology.group_coboundary

    def doubled(c):
        d = real(c)
        if c.arity == 1 and c.group.order == 6:
            table = dict(d.table)
            table[(1, 2)] *= 2
            return GroupCochain(d.group, 2, table)
        return d

    ck = _group_cohomology_checks(monkeypatch, "group_coboundary", doubled)[
        "twist-assoc-iff-cocycle:pos"
    ]
    # the 18 triples where d(F) is not 1
    assert (ck.status, ck.residual_term_count, ck.witness) == ("fail", 18, "((12),(12),(23))")


def test_twist_assoc_pos_sees_a_corrupted_product(monkeypatch):
    # F stays a cocycle, but the algebra built from it has (12)(23) doubled:
    # only a check that multiplies in the algebra sees it
    real = group_cohomology.twisted_group_algebra

    def corrupted(G, F):
        A = real(G, F)
        if G.order == 6:
            A.mult[(1, 2)] = {k: 2 * v for k, v in A.mult[(1, 2)].items()}
        return A

    ck = _group_cohomology_checks(monkeypatch, "twisted_group_algebra", corrupted)[
        "twist-assoc-iff-cocycle:pos"
    ]
    assert (ck.status, ck.residual_term_count, ck.witness) == ("fail", 18, "((12),(12),(23))")


def test_twist_assoc_neg_multiplies_in_the_algebra(monkeypatch):
    # the Fano cochain replaced by the trivial cocycle: k[(Z/2)^3] is
    # associative, so the negative case fails
    def fano_octonions_from_a_cocycle():
        G, F, _ = fano_octonions()
        one = GroupCochain(G, 2, {k: Fraction(1) for k in F.table})
        return G, one, twisted_group_algebra(G, one)

    checks = _group_cohomology_checks(
        monkeypatch, "fano_octonions", fano_octonions_from_a_cocycle
    )
    ck = checks["twist-assoc-iff-cocycle:neg"]
    assert (ck.status, ck.residual_term_count, ck.witness) == ("fail", 1, "associative")
    assert checks["twist-assoc-iff-cocycle:pos"].ok


class _WrongValueOnOnePair(TorusCochain):
    # value() alone disagrees with exponent(), on the pair (U, V)
    def value(self, a, b):
        if (a, b) == ((1, 0), (0, 1)):
            return root_of_unity(self.exponent(a, b) + 1, self.two_q)
        return super().value(a, b)


def test_ddelta_trivial_names_the_first_failing_trial(monkeypatch):
    assert failing(report("group-cohomology").checks) == {}
    # d of the third 2-cochain over Z3 has its (g, g, g) entry doubled
    real = group_cohomology.group_coboundary
    seen = []

    def faulty(c):
        d = real(c)
        if c.arity == 2 and c.group.order == 3:
            seen.append(c)
            if len(seen) == 3:
                table = dict(d.table)
                table[(1, 1, 1)] *= 2
                return GroupCochain(d.group, 3, table)
        return d

    checks = _group_cohomology_checks(monkeypatch, "group_coboundary", faulty)
    assert failing(checks.values()) == {
        "ddelta-trivial:Z3:arity1": (1, "trial 2 at ('g', 'g', 'g')"),
    }


def test_torus_uv_phase_names_the_value_found(monkeypatch):
    checks = _group_cohomology_checks(
        monkeypatch, "torus_cochain", lambda theta, w: (_WrongValueOnOnePair(theta), w)
    )
    # F(U, V) is one power of the root of unity past e^{i pi theta}
    bad = failing(checks.values())
    assert {t: bad["torus-%s:uv-phase-exact" % t] for t in ("1/2", "1/3", "2/5")} == {
        "1/2": (1, "-1"),
        "1/3": (1, "-1 + z(6,1)"),
        "2/5": (1, "z(10,3)"),
    }


def test_torus_cocycle_names_the_failing_window(monkeypatch):
    checks = _group_cohomology_checks(
        monkeypatch, "torus_cochain", lambda theta, w: (_WrongValueOnOnePair(theta), w)
    )
    ck = checks["torus-2/5:cocycle"]
    assert (ck.status, ck.residual_term_count) == ("fail", 1)
    assert ck.witness == "cocycle-cyclotomic-window-2 at (-2, -2),(1, 0),(0, 1)"


def test_octonion_module_twist_names_the_first_broken_step(monkeypatch):
    # the tabulated action negates every image: F^-1 twists the table into
    # the opposite signs, and phi^-1 acts with the wrong sign
    real = ModuleAlgebra.act_tensor

    def negated(self, ht):
        return {js: {ks: -c for ks, c in image.items()} for js, image in real(self, ht).items()}

    monkeypatch.setattr(ModuleAlgebra, "act_tensor", negated)
    ck = cochain_suite._octonion_module_twist()
    assert (ck.status, ck.residual_term_count, ck.witness) == ("fail", 2, "twisted-table")


def test_negative_controls_name_what_unexpectedly_held(monkeypatch):
    # reports that find nothing wrong: each check that expects its report to
    # fail fails, and its witness says what held
    def passing(*args):
        return CheckOutcome("report", "pass", 0)

    monkeypatch.setattr(pbw, "gcl_cocycle_report", passing)
    monkeypatch.setattr(pbw, "gcl_equivariance_report", passing)
    monkeypatch.setattr(graded, "window_products_report", passing)
    got = {
        c.id: (c.status, c.witness)
        for name in ("pbw-gcl", "graded-galois")
        for c in run_suite(name).checks
        if not c.ok
    }
    assert got.pop("twist-not-cocycle") == ("fail", "cocycle holds")
    assert got.pop("twist-not-equivariant") == ("fail", "equivariance holds")
    assert got and all(
        cid.startswith("window-products-iff-strong:") for cid in got
    )
    assert set(got.values()) == {("fail", "component products span")}
