"""CheckOutcome.tally, the one rule for a check over many inputs, a scan
that keeps it the only one, an outcome with no truth value, and a scan and
a test that keep each suite body, and each battery it yields from,
yielding its checks to run_suite."""

import importlib
import inspect
import re
from pathlib import Path

import pytest

from hopftwist import suites
from hopftwist.reporting import CheckOutcome

SRC = Path(__file__).resolve().parent.parent / "src" / "hopftwist"


def _verdict(ck):
    return ck.id, ck.status, ck.residual_term_count, ck.witness


def test_tally_of_no_failures_passes():
    assert _verdict(CheckOutcome.tally("c", ())) == ("c", "pass", 0, None)
    assert _verdict(CheckOutcome.tally("c", iter([]))) == ("c", "pass", 0, None)


def test_tally_adds_the_residuals():
    ck = CheckOutcome.tally("c", [(1, "a"), (3, "b"), (2, "c")])
    assert (ck.status, ck.residual_term_count) == ("fail", 6)


def test_tally_keeps_the_first_witness():
    ck = CheckOutcome.tally("c", ((1, w) for w in ("x", "y", "z")))
    assert ck.witness == "x"


def test_tally_skips_a_witness_of_none():
    ck = CheckOutcome.tally("c", [(2, None), (1, "later"), (1, "last")])
    assert (ck.residual_term_count, ck.witness) == (4, "later")
    assert CheckOutcome.tally("c", [(1, None)]).to_dict() == {
        "id": "c",
        "status": "fail",
        "residual_term_count": 1,
    }


@pytest.mark.parametrize("ck", [CheckOutcome.from_residual("c", 0), CheckOutcome.from_residual("c", 2, "x")])
def test_an_outcome_has_no_truth_value(ck):
    # `assert ck` would hold for a failing check too; the verdict is ck.ok
    with pytest.raises(TypeError, match="read .ok"):
        assert ck
    with pytest.raises(TypeError, match="read .ok"):
        if ck:
            pass


# A check that counts its failures and keeps a witness by hand instead of
# calling CheckOutcome.tally.
HAND_ROLLED = [
    re.compile(r"\bbad\s*\+="),
    re.compile(r"\b(wit|witness)\s*=\s*\1\s+or\b"),
    re.compile(r"\bif\s+(wit|witness)\s+is\s+None:\s*\n\s*\1\s*="),
]


# A suite body that builds its list of checks by hand instead of yielding
# each one to run_suite.
LIST_BUILDERS = [
    re.compile(r"\bchecks\s*=\s*\["),
    re.compile(r"\bchecks\s*\+="),
    re.compile(r"\bchecks\.(append|extend)\("),
    re.compile(r"\breturn\s+checks\b"),
]


def _lines(patterns, source):
    return sorted(
        source.count("\n", 0, m.start()) + 1
        for pattern in patterns
        for m in pattern.finditer(source)
    )


def hand_rolled_counters(source):
    """The 1-based lines of source where a hand-kept counter or witness
    starts."""
    return _lines(HAND_ROLLED, source)


def list_builders(source):
    """The 1-based lines of source that start or return a list of checks
    built by hand."""
    return _lines(LIST_BUILDERS, source)


def test_the_scan_sees_each_hand_rolled_form():
    source = (
        "bad += 1\n"
        "witness = witness or 'x'\n"
        "if wit is None:\n"
        "    wit = 'y'\n"
        "ring = ring or default\n"
        "if lam is None:\n"
        "    lam = 1\n"
        "if witness is None:\n"
        "    return 0\n"
    )
    assert hand_rolled_counters(source) == [1, 2, 3]


def test_no_module_but_reporting_keeps_a_counter_by_hand():
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if path.name != "reporting.py"
        for lines in [hand_rolled_counters(path.read_text())]
        if lines
    }
    assert found == {}


def test_the_scan_sees_each_list_builder():
    source = (
        "checks = []\n"
        "checks.append(ck)\n"
        "checks = [unit, quasi]\n"
        "checks.extend(more)\n"
        "checks += more\n"
        "return checks\n"
        "yield ck\n"
        "for c in checks:\n"
        "yield from _prefix(label, checks)\n"
        "return checks_of(x)\n"
        "checks == []\n"
    )
    assert list_builders(source) == [1, 2, 3, 4, 5, 6]


def suite_bodies():
    """{suite: body function} of every entry of suites._BODIES, imported
    from the module that entry names."""
    out = {}
    for suite, entry in suites._BODIES.items():
        where = inspect.getclosurevars(entry).nonlocals
        module = importlib.import_module("hopftwist." + where["module"])
        out[suite] = getattr(module, where["name"])
    return out


def test_no_suite_body_builds_its_list_of_checks():
    bodies = suite_bodies()
    assert sorted(bodies) == sorted(suites.SUITE_NAMES)
    found = {
        suite: lines
        for suite, body in bodies.items()
        for lines in [list_builders(inspect.getsource(body))]
        if lines
    }
    assert found == {}


# The batteries whose checks a suite body yields straight to run_suite; each
# must yield its checks one by one, so that run_suite times each of them.
BATTERIES = [
    "batteries.verify_hopf",
    "batteries.verify_algebra",
    "pbw.moyal_suite",
    "sample_hosts.dual_pairing_report",
    "sample_hosts.z2_dual_iso_report",
    "sample_hosts.word_pin_report",
]


def test_every_battery_yields_its_checks():
    returns_a_list = [
        name
        for name in BATTERIES
        for module, _, func in [name.partition(".")]
        if not inspect.isgeneratorfunction(
            getattr(importlib.import_module("hopftwist." + module), func)
        )
    ]
    assert returns_a_list == []
