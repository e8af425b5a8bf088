"""Acceptance gate: ten go/no-go criteria over the full check battery.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  Every comparison below is exact; a single nonzero residual
anywhere fails the criterion.
"""

import hashlib

import pytest

from hopftwist.cli import main
from hopftwist.constructors import elementary_abelian_2, group_algebra
from hopftwist.hopf_cochain import random_counital_two_cochain, twist, verify_quasi
from hopftwist.multilinear import with_series_ring
from hopftwist.suites import run_suite

SUITES = (
    "hopf-axioms",
    "group-cohomology",
    "octonions",
    "hopf-cochain",
    "pbw-gcl",
    "moyal",
    "graded-galois",
    "sharp-map",
    "heis-torus",
)


@pytest.fixture(scope="module")
def reports():
    return {name: run_suite(name) for name in SUITES}


def conclude(num, title, ok):
    print("criterion %2d: %s  %s" % (num, "PASS" if ok else "FAIL", title))
    assert ok, "criterion %d failed: %s" % (num, title)


def suite_clean(rep):
    return rep.ok and all(c.residual_term_count == 0 for c in rep.checks)


def ids(rep):
    return [c.id for c in rep.checks]


def test_criterion_01_hopf_axioms(reports):
    rep = reports["hopf-axioms"]
    have = ids(rep)
    hosts = ["k[Z2]", "k[Z3]", "k[Z2^3]", "k[S3]", "k[D4]", "k[P8]",
             "dual[Z2]", "dual[Z3]", "dual[Z2^3]", "dual[S3]", "dual[D4]",
             "dual[P8]", "taft2", "taft3", "taft5", "shuffle", "pareigis4"]
    covered = all(any(i.startswith(h + ":") for i in have) for h in hosts)
    antihom = sum(1 for i in have if i.endswith("antipode-antihomomorphism"))
    squares = sum(1 for i in have if i.endswith("antipode-square"))
    conclude(
        1,
        "hopf axioms on group, dual, taft, shuffle, pareigis hosts",
        suite_clean(rep) and covered and antihom >= 16 and squares >= 13,
    )


def test_criterion_02_octonions(reports):
    rep = reports["octonions"]
    have = ids(rep)
    need = [
        "quasi-associativity-512",
        "alternativity-basis",
        "norm-basis-pairs",
        "norm-seeded-100",
        "coboundary-sign-census",
        "twist-not-closed",
    ]
    conclude(
        2,
        "octonion quasi-associativity, alternativity, norms, sign census",
        suite_clean(rep) and all(n in have for n in need),
    )


def test_criterion_03_torus(reports):
    rep = reports["group-cohomology"]
    have = ids(rep)
    angles = ("torus-1/2", "torus-1/3", "torus-2/5")
    parts = ("cocycle", "unital", "commutation", "uv-phase-exact")
    covered = all("%s:%s" % (a, p) in have for a in angles for p in parts)
    conclude(
        3,
        "torus cochains: unital window cocycles with exact commutation",
        suite_clean(rep) and covered,
    )


def test_criterion_04_dsquared(reports):
    rep = reports["hopf-cochain"]
    have = ids(rep)
    unit_checks = [i for i in have if i.startswith("dsquared-unit:")]
    inv_checks = [i for i in have if i.startswith("dsquared-invariant:")]
    conclude(
        4,
        "double coboundaries trivial; pauli and pbw counterexamples exact",
        suite_clean(rep)
        and len(unit_checks) == 5
        and len(inv_checks) == 3
        and "pauli-counterexample" in have
        and "pbw-counterexample" in have,
    )


def test_criterion_05_twists(reports):
    rep = reports["hopf-cochain"]
    have = ids(rep)
    twists = [i for i in have if i.startswith("twist-quasi:")]
    noncomm = [i for i in twists if any(g in i for g in ("S3", "D4", "P8"))]
    # spot check: the per-twist battery includes triangle and pentagon
    H = with_series_ring(group_algebra(elementary_abelian_2(3)), 2)
    import random

    F = random_counital_two_cochain(H, random.Random(99))
    quasi_ids = [c.id for c in verify_quasi(twist(H, F))]
    conclude(
        5,
        "seeded counital twists are quasi-hopf; octonions via module twist",
        suite_clean(rep)
        and len(twists) == 5
        and len(noncomm) == 3
        and "octonion-module-twist" in have
        and "associator-counital" in quasi_ids
        and "associator-pentagon" in quasi_ids,
    )


def test_criterion_06_moyal(reports):
    rep = reports["moyal"]
    have = ids(rep)
    bch = [i for i in have if "bch-order-" in i]
    orders = {int(i.rsplit("-", 1)[1]) for i in bch}
    kappas = {i.split(":")[0] for i in bch}
    conclude(
        6,
        "moyal twist cocycle + gauge; bch closed form at orders 2-6",
        suite_clean(rep)
        and orders == {2, 3, 4, 5, 6}
        and kappas == {"kappa+1", "kappa-1"},
    )


def test_criterion_07_gcl(reports):
    rep = reports["pbw-gcl"]
    have = ids(rep)
    need = [
        "coassociator-seeded",
        "equal-angle-closed-form",
        "zero-angle-trivial",
        "twist-not-cocycle",
        "twist-not-equivariant",
        "zero-angle-is-cocycle",
    ]
    conclude(
        7,
        "gcl coassociator identity, closed form, cocycle failure witnesses",
        suite_clean(rep) and all(n in have for n in need),
    )


def test_criterion_08_graded(reports):
    rep = reports["graded-galois"]
    have = ids(rep)
    fourway = [i for i in have if i.startswith("fourway:")]
    conclude(
        8,
        "four-way strong-grading equivalence with negatives; ideal property",
        suite_clean(rep)
        and len(fourway) >= 8
        and "crossed-products-strong" in have
        and sum(1 for i in have if i.startswith("ideal:")) >= 8,
    )


def test_criterion_09_sharp(reports):
    rep = reports["sharp-map"]
    conclude(
        9,
        "sharp map laws exhaustive over tuples of length and entries <= 4",
        suite_clean(rep) and "laws-exhaustive-340-tuples" in ids(rep),
    )


def test_criterion_10_heis_torus(reports):
    rep = reports["heis-torus"]
    have = ids(rep)
    reparam = [i for i in have if i.startswith("reparam-iff:")]
    zak = [i for i in have if i.startswith("zak-")]
    conclude(
        10,
        "nilmanifold star: reparametrized associativity, zak module, pairing",
        suite_clean(rep)
        and "uv-commutation" in have
        and len(reparam) == 8
        and "alpha-composition-order5" in have
        and len(zak) == 4
        and "pairing-balanced" in have
        and "pairing-bimodule" in have,
    )


# SHA-256 of run_suite(name).to_json() at the default seed 1729.  A change
# that alters a report on purpose records the new digest and says why.
GOLDEN_DIGESTS = {
    "hopf-axioms": "26819f68e795b136cd04fb06453341ccc5de058eb5d3d6af99c0ac7f665dd24e",
    "group-cohomology": "4e554eca2aa20018ac3904c2661120c8e94df0ea573fdf7f167ea357570517e4",
    "octonions": "e3a356045182e2a234f6598e17503ef140aef4f3b3a6167a15edfb2f7547f9c1",
    "hopf-cochain": "de154b705bd12b2b4835eb1e3e6b908383c73ef7df235b5ba04bd38ea20dacdc",
    "pbw-gcl": "512c8b08da96d7187739346705c49bd202a919f74dd6ef40a6f78560e5840e33",
    "moyal": "39260195755912042626c6f311b8ecf3bb98a69dde0f6e7afb963ec336ee2925",
    "graded-galois": "fa21d303fcd2079cb2ddeb714966a8528c2301ff767306a4c4449a4f26b937bd",
    "sharp-map": "8d406e5c03e390570d6bd28b70ff6b6b6363996c3078d521e5a6d2835d759e80",
    "heis-torus": "b4781189b0079bbc66b0d8eca1469146571ef716ee8846dbafc10c9e7a8035d8",
}


@pytest.mark.parametrize("name", SUITES)
def test_golden_report_digest(reports, name):
    got = hashlib.sha256(reports[name].to_json().encode()).hexdigest()
    assert got == GOLDEN_DIGESTS[name], "report of %s changed" % name


# SHA-256 of the standard output of
# `hopftwist verify group-cohomology --seed 3 --json -`: a second set of draws
# for the suite, under the same rule as GOLDEN_DIGESTS.
GROUP_COHOMOLOGY_SEED3_DIGEST = (
    "ae831a2f244ab1d15cd38bf060cc57fb633dc85acfe66a36fc2b8dde54134dd3"
)


def test_group_cohomology_seed3_digest(capsys):
    assert main(["verify", "group-cohomology", "--seed", "3", "--json", "-"]) == 0
    got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == GROUP_COHOMOLOGY_SEED3_DIGEST, "seed-3 report changed"


# SHA-256 of the standard output of `hopftwist verify <suite> --seed 3 --json
# -` for two more suites, under the same rule as GOLDEN_DIGESTS: hopf-cochain
# runs verify_quasi with and without a module algebra, graded-galois builds
# its algebras through AlgebraPresentation.
SEED3_DIGESTS = {
    "hopf-cochain": "8b50131906accc480c813154f5b724cf81cbef17d2475db26fe825ddbceb99d9",
    "graded-galois": "58a2bcc80fb3bd040e279497f2e75f6356326330dfcaf307e09f50e807200464",
}


@pytest.mark.parametrize("name", sorted(SEED3_DIGESTS))
def test_seed3_digest(capsys, name):
    assert main(["verify", name, "--seed", "3", "--json", "-"]) == 0
    got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == SEED3_DIGESTS[name], "seed-3 report of %s changed" % name


# SHA-256 of the standard output of `hopftwist verify <args> --json -` for
# two non-default runs, under the same rule as GOLDEN_DIGESTS: a star product
# and Zak side with a cyclotomic theta, and Moyal's i*hbar products at a
# higher order.
OPTION_DIGESTS = {
    "heis-torus --theta z(4,1)*h+h^2": (
        "a07343c09a8f59a000a3214bf1f74c0e3fc9b2e7355bd408c017aa627afb85a4"
    ),
    "moyal --order 6": (
        "8c1cd2c9d34149d87365e88e669d91e21f367520d955eff4dd751c76850a1935"
    ),
}


@pytest.mark.parametrize("args", sorted(OPTION_DIGESTS))
def test_option_digest(capsys, args):
    assert main(["verify", *args.split(), "--json", "-"]) == 0
    got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == OPTION_DIGESTS[args], "report of verify %s changed" % args
