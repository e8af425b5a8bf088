"""Exit codes and output shapes of the command line interface."""

import json
import os
import subprocess
import sys
import time
from importlib import resources

import pytest

from hopftwist import batteries, multilinear, suites
from hopftwist.cli import main
from hopftwist.constructors import cyclic_group, group_algebra
from hopftwist.reporting import CheckOutcome
from hopftwist.scalars import field_solve, root_of_unity
from hopftwist.suites import SUITE_NAMES


def test_verify_pass_exit_zero(capsys):
    assert main(["verify", "sharp-map"]) == 0
    out = capsys.readouterr().out
    assert "pass  laws-exhaustive-340-tuples" in out
    assert "2/2 checks passed" in out


def test_verify_writes_json_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["verify", "octonions", "--json", str(path)]) == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    assert doc["suite"] == "octonions"
    assert doc["seed"] == 1729
    assert all(c["status"] == "pass" for c in doc["checks"])
    assert "elapsed_ms" not in doc
    assert not any("elapsed_ms" in c for c in doc["checks"])


def test_verify_json_to_stdout_and_seed(capsys):
    assert main(["verify", "sharp-map", "--seed", "7", "--json", "-"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out[out.index("{"):])
    assert doc["seed"] == 7


def test_verify_timings_flag(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["verify", "octonions", "--json", str(path), "--timings"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(path.read_text())
    assert "elapsed_ms" in doc
    times = {c["id"]: c["elapsed_ms"] for c in doc["checks"]}
    assert len(times) == 7
    assert all(isinstance(t, float) and t >= 0 for t in times.values())
    # the five slowest checks follow the summary line, slowest first
    lines = out.splitlines()
    slow = lines[lines.index("7/7 checks passed (seed 1729)") + 1:]
    assert len(slow) == 5
    listed = [line.split() for line in slow]
    assert all(word == "slow" and unit == "ms" for word, _, unit, _ in listed)
    assert [float(ms) for _, ms, _, _ in listed] == sorted(times.values(), reverse=True)[:5]
    assert all(times[id] == float(ms) for _, ms, _, id in listed)


def test_verify_prints_no_timings_unless_asked(capsys):
    assert main(["verify", "octonions"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "7/7 checks passed (seed 1729)"
    assert " ms " not in out


def test_verify_a_check_that_raises_exits_one_without_traceback(monkeypatch, capsys):
    def boom(rng, order, theta):
        yield CheckOutcome.from_residual("before", 0)
        raise RuntimeError("boom")

    monkeypatch.setitem(suites._BODIES, "sharp-map", boom)
    assert main(["verify", "sharp-map"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "pass  before",
        "ERROR raised  residual=-1  [RuntimeError: boom]",
        "1/2 checks passed (seed 1729)",
    ]
    assert captured.err == ""


def test_verify_a_battery_check_that_raises_exits_one_without_traceback(
    monkeypatch, capsys
):
    def boom(self):
        raise RuntimeError("boom")

    # k[Z2]'s last check raises: its earlier checks stay in the report
    monkeypatch.setattr(batteries._Battery, "antipode_square_check", boom)
    ids = group_algebra(cyclic_group(2)).axiom_ids
    assert ids[-1] == "antipode-square"
    assert main(["verify", "hopf-axioms"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["pass  k[Z2]:%s" % i for i in ids[:-1]] + [
        "ERROR raised  residual=-1  [RuntimeError: boom]",
        "9/10 checks passed (seed 1729)",
    ]
    assert captured.err == ""


def test_verify_unknown_suite_is_named_before_its_order(capsys):
    assert main(["verify", "bogus", "--order", "100"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: unknown suite 'bogus'")
    assert captured.out == ""


def test_verify_reports_are_byte_identical(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["verify", "octonions", "--seed", "3", "--json", str(p1)])
    main(["verify", "octonions", "--seed", "3", "--json", str(p2)])
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_verify_group_cohomology_on_a_seed_with_non_unital_draw(capsys):
    # seed 1 draws a 1-cochain with F(e) != 1, whose coboundary is not unital
    assert main(["verify", "group-cohomology", "--seed", "1"]) == 0
    out, err = capsys.readouterr()
    assert "pass  twist-assoc-iff-cocycle:pos" in out
    assert err == ""


def test_verify_unknown_suite_exit_two(capsys):
    assert main(["verify", "nope"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_verify_bad_theta_exit_two(capsys):
    assert main(["verify", "heis-torus", "--theta", "1/3"]) == 2
    assert "theta" in capsys.readouterr().err


def test_verify_unparsable_theta_exit_two(capsys):
    assert main(["verify", "heis-torus", "--theta", "h +"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("path", ["", "/nonexistent/dir/x.json"], ids=["empty", "no-dir"])
def test_verify_unwritable_json_path_exit_two(path, capsys):
    # an empty path is a path that cannot be written, not "no --json"
    assert main(["verify", "sharp-map", "--json", path]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_verify_unwritable_json_path_runs_no_suite(capsys):
    # the report file is opened before the suite runs: nothing is printed
    assert main(["verify", "octonions", "--json", "/nonexistent/dir/x.json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_verify_malformed_input_keeps_an_existing_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["verify", "sharp-map", "--json", str(path)]) == 0
    written = path.read_text()
    assert main(["verify", "sharp-map", "--theta", "1+h", "--json", str(path)]) == 2
    assert path.read_text() == written
    assert main(["verify", "sharp-map", "--seed", "3", "--json", str(path)]) == 0
    text = path.read_text()
    assert text != written and text.count('"suite"') == 1
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--theta=--", "--seed=--", "--order=--", "--json=--"])
def test_verify_option_value_double_dash_exit_two(flag, capsys):
    # argparse hands an option whose value is exactly '--' an empty list
    assert main(["verify", "sharp-map", flag]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not '--'" in err


@pytest.mark.parametrize("theta", ["h^-1", "1/0", "h/(h-h)"])
def test_verify_theta_without_inverse_exit_two(theta, capsys):
    assert main(["verify", "sharp-map", "--theta", theta]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cannot evaluate" in err


@pytest.mark.parametrize("theta", ["z(99999999,1)*h", "z(997,1)*z(991,1)*h"])
def test_verify_theta_conductor_above_cap_exit_two(theta, capsys):
    started = time.monotonic()
    assert main(["verify", "sharp-map", "--theta", theta]) == 2
    assert time.monotonic() - started < 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "above the cap of 1000" in err


def _cli(*args):
    """One CLI process running hopftwist with args, on the imported
    package."""
    src = os.path.dirname(os.path.dirname(suites.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, "-m", "hopftwist.cli", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def _verify_theta(theta):
    return _cli("verify", "sharp-map", "--theta", theta)


@pytest.mark.parametrize(
    "theta",
    [
        "(1+z(840,1))^2000*h",
        "(1+tau)^3000*h",
        "((1+tau)^60)^60*h",
        "(1+z(840,1)+h)^2000*h",
        "(3^1000000)^300*h",
        "1/(3+z(997,1)-2*z(997,5)+z(997,100)+z(997,400))*h",
        "(3+z(997,1)-2*z(997,5)+z(997,100)+z(997,400))^-1*h",
    ],
)
def test_verify_theta_power_above_cap_exit_two(theta):
    done = _verify_theta(theta)
    assert done.returncode == 2
    assert done.stderr.startswith("error:") and "above the cap of" in done.stderr
    assert "Traceback" not in done.stderr


# eleven unit coefficients on consecutive exponents of z(997,.): an inverse
# of l1 norm 12 that the bound accepts, and a divisor whose exponents spread
# over z(997,.), which it still refuses before any elimination
_UNIT_DIVISOR = "1+" + "+".join("z(997,%d)" % k for k in range(1, 12))
_SPREAD_DIVISOR = "3+z(997,1)-2*z(997,5)+z(997,100)+z(997,400)"


def test_verify_theta_inverse_bound_reads_the_largest_coefficient():
    done = _verify_theta("1/(%s)*h" % _UNIT_DIVISOR)
    assert done.returncode == 0, done.stderr
    started = time.monotonic()
    done = _verify_theta("1/(%s)*h" % _SPREAD_DIVISOR)
    elapsed = time.monotonic() - started
    assert done.returncode == 2
    assert done.stderr.startswith("error:") and "quotient too large" in done.stderr
    assert elapsed < 1, elapsed


def test_verify_theta_product_above_cap_exit_two():
    # twelve factors each under the power cap; the product of the first two
    # passes the cap, so the run stops at the first '*'
    started = time.monotonic()
    done = _verify_theta("*".join(["(1+tau)^360"] * 12) + "*h")
    elapsed = time.monotonic() - started
    assert done.returncode == 2
    assert done.stderr.startswith("error:") and "product too large" in done.stderr
    assert "Traceback" not in done.stderr
    assert elapsed < 1, elapsed


@pytest.mark.parametrize(
    "theta", ["(1+z(8,1))^20000*h", "(1+h)^100000*h", "2^10000000*h", "tau^100000*h"]
)
def test_verify_theta_power_under_cap_runs(theta):
    done = _verify_theta(theta)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("theta", ["h/(1-h)", "h*(1+h)^-1"])
def test_verify_theta_with_invertible_divisor(theta, capsys):
    assert main(["verify", "sharp-map", "--theta", theta]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("suite", ["heis-torus", "pbw-gcl", "all"])
def test_verify_order_below_suite_minimum_exit_two(suite, capsys):
    assert main(["verify", suite, "--order", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "order at least 2" in err


def test_verify_order_one_allowed_where_no_check_needs_more(capsys):
    assert main(["verify", "sharp-map", "--order", "1"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("suite", SUITE_NAMES + ("all",))
def test_verify_order_above_suite_cap_exit_two(suite, capsys):
    # the cap itself passes validation; cap + 1 is refused before any check
    most = 11 if suite == "all" else suites._MAX_ORDER.get(suite, 64)
    assert suites._check_order(suite, most) == most
    for order in (most + 1, 9999999999999999999999):
        assert main(["verify", suite, "--order", str(order)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "order at most %d" % most in err


def test_verify_theta_truncating_to_zero_exit_two(capsys):
    assert main(["verify", "heis-torus", "--theta", "h^5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "truncates to zero at order 4" in err


def test_verify_flags_reach_suite(capsys):
    assert main(["verify", "pbw-gcl", "--order", "3"]) == 0
    capsys.readouterr()


def test_describe_shipped_file(capsys):
    path = resources.files("hopftwist").joinpath("data/ks3_hopf.json")
    assert main(["describe", str(path)]) == 0
    out = capsys.readouterr().out
    assert "hopf algebra 'k[S3]'" in out
    assert "dimension: 6" in out


def test_describe_missing_file_exit_two(capsys):
    assert main(["describe", "/no/such/file.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_describe_broken_json_exit_two(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["describe", str(p)]) == 2
    assert "line" in capsys.readouterr().err


def test_describe_antipode_dividing_by_zero_exit_two(tmp_path, capsys):
    path = resources.files("hopftwist").joinpath("data/ks3_hopf.json")
    doc = json.loads(path.read_text())
    doc["antipode"][0][0] = "1/0"
    p = tmp_path / "bad_antipode.json"
    p.write_text(json.dumps(doc))
    assert main(["describe", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "division by zero" in err


def test_describe_costly_antipode_expansion_exit_two(tmp_path):
    # kS3's antipode is a permutation matrix; z(997,1) beside the unit's 1
    # joins two rows into one part over Q(z_997), too costly to expand
    path = resources.files("hopftwist").joinpath("data/ks3_hopf.json")
    doc = json.loads(path.read_text())
    doc["antipode"][0][1] = "z(997,1)"
    p = tmp_path / "root_antipode.json"
    p.write_text(json.dumps(doc))
    started = time.monotonic()
    done = _cli("describe", str(p))
    elapsed = time.monotonic() - started
    assert done.returncode == 2
    assert done.stderr.startswith("error:") and "antipode check too costly" in done.stderr
    assert elapsed < 1, elapsed


@pytest.mark.parametrize(
    "theta",
    ["(" * 200 + "h" + ")" * 200, "-" * 5000 + "h"],
    ids=["200-parentheses", "5000-unary-minus"],
)
def test_verify_theta_nested_too_deeply_exit_two(theta):
    started = time.monotonic()
    done = _cli("verify", "sharp-map", "--theta=" + theta)
    elapsed = time.monotonic() - started
    assert done.returncode == 2
    assert done.stderr.startswith("error:") and "nesting deeper than 150" in done.stderr
    assert "column 151" in done.stderr
    assert elapsed < 1, elapsed


def test_verify_theta_nested_150_deep_runs():
    done = _verify_theta("(" * 150 + "h" + ")" * 150)
    assert done.returncode == 0, done.stderr


def test_describe_deeply_nested_json_exit_two(tmp_path):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100000 + "]" * 100000)
    started = time.monotonic()
    done = _cli("describe", str(p))
    elapsed = time.monotonic() - started
    assert done.returncode == 2
    assert done.stderr.startswith("error:") and "nested too deeply" in done.stderr
    assert "Traceback" not in done.stderr
    assert elapsed < 1, elapsed


@pytest.mark.parametrize("where", ["mult", "antipode"])
def test_describe_tau_in_an_exact_ring_exit_two(where, tmp_path, capsys):
    path = resources.files("hopftwist").joinpath("data/ks3_hopf.json")
    doc = json.loads(path.read_text())
    doc["scalar"]["hbar_order"] = None
    if where == "mult":
        doc["mult"]["1,1"] = [[0, "tau"]]
    else:
        doc["antipode"][0][0] = "tau"
    p = tmp_path / "tau.json"
    p.write_text(json.dumps(doc))
    assert main(["describe", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "power of tau in an exact ring" in err
    assert "field: %s" % where in err


# Malformed nilmanifold lists, and JSON true where an integer belongs
MALFORMED = {
    "mixed-degrees": [{"n": 1}, {"n": "x"}],
    "float-winding": [{"m": 1.5, "n": 1, "p": 0, "coeff": "1"}, 7],
    "non-object-item": [{"m": 1, "n": 1, "p": 0, "coeff": "h"}, 7],
    "bool-dim": {"dim": True, "basis": ["e"], "unit": ["1"], "mult": {"0,0": [[0, "1"]]}},
    "bool-arity": {"group": {"order": 1, "table": [[0]]}, "arity": True, "table": {"0": "1"}},
    "bool-group-order": {"order": True, "table": [[0]]},
    "bool-monomial-m": [{"m": True, "n": 0, "p": 0, "coeff": "1"}],
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_describe_malformed_document_exit_two(name, tmp_path):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(MALFORMED[name]))
    done = _cli("describe", str(p))
    assert done.returncode == 2
    assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr and done.stdout == ""


def _ks3_with_hbar_order(order):
    doc = json.loads(resources.files("hopftwist").joinpath("data/ks3_hopf.json").read_text())
    doc["scalar"]["hbar_order"] = order
    return json.dumps(doc).encode()


# Inputs that raised from describe; the last chain was accepted, though d[1]
# has two columns where degree 0 has no basis
REFUSED = {
    "negative-hbar-order": (_ks3_with_hbar_order(-1), "field: scalar"),
    "hbar-order-past-the-cap": (_ks3_with_hbar_order(20000), "field: scalar"),
    "not-utf8": (b'{"order": 1, "table": [[0]], "labels": ["\xe9"]}', "not UTF-8"),
    "chain-rows-not-lists": (b'{"dims": {"0": 1, "1": 1}, "d": {"1": [0, 1]}}', "field: d"),
    "chain-row-too-long": (b'{"dims": {"0": 1}, "d": {"1": [["1", "2"]]}}', "field: d"),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_describe_refused_input_exit_two(name, tmp_path):
    data, where = REFUSED[name]
    p = tmp_path / "doc.json"
    p.write_bytes(data)
    done = _cli("describe", str(p))
    assert done.returncode == 2
    assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1
    assert where in done.stderr and done.stdout == ""


def test_describe_unrecognized_shape_exit_two(tmp_path, capsys):
    p = tmp_path / "odd.json"
    p.write_text('{"mystery": true}')
    assert main(["describe", str(p)]) == 2
    capsys.readouterr()


def test_octonion_table_stdout(capsys):
    assert main(["octonion-table"]) == 0
    out = capsys.readouterr().out
    assert "e7" in out and "-e0" in out
    assert len(out.strip().split("\n")) == 9


def test_octonion_table_csv(tmp_path, capsys):
    path = tmp_path / "oct.csv"
    assert main(["octonion-table", "--csv", str(path)]) == 0
    capsys.readouterr()
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "i,j,k,sign"
    assert len(lines) == 65


@pytest.mark.parametrize("path", ["", "/nonexistent/dir/oct.csv"], ids=["empty", "no-dir"])
def test_octonion_table_unwritable_csv_path_exit_two(path, capsys):
    # an empty path is a path that cannot be written, not "no --csv"
    assert main(["octonion-table", "--csv", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def _refused_inverse(rng, order, theta):
    # r + c z(997, k) over k[Z2]: 2 * 996 unknowns
    t = multilinear.LegTensor(
        group_algebra(cyclic_group(2)), 1, {0: 3 + root_of_unity(1, 997), 1: 2 * root_of_unity(5, 997)}
    )
    yield multilinear.tensor_invert(t)


def _refused_solve(rng, order, theta):
    # one equation over Q(z_997) whose coefficient has two terms
    yield field_solve([[root_of_unity(1, 997) + 2]], [1])


@pytest.mark.parametrize("body", [_refused_inverse, _refused_solve], ids=["inverse", "solve"])
def test_verify_refused_computation_exit_two(monkeypatch, capsys, body):
    # a suite body that meets a refused inverse or solve ends in one
    # error line and exit 2, not a traceback, at once
    monkeypatch.setitem(suites._BODIES, "sharp-map", body)
    start = time.perf_counter()
    assert main(["verify", "sharp-map"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and " Q(z_997) priced at " in line, line
    assert "Traceback" not in captured.err and captured.out == ""
