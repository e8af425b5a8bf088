"""Exit codes and output shapes of the command line interface."""

import json
import time
from importlib import resources

import pytest

from hopftwist import suites
from hopftwist.cli import main
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


def test_verify_json_to_stdout_and_seed(capsys):
    assert main(["verify", "sharp-map", "--seed", "7", "--json", "-"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out[out.index("{"):])
    assert doc["seed"] == 7


def test_verify_timings_flag(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["verify", "sharp-map", "--json", str(path), "--timings"]) == 0
    capsys.readouterr()
    assert "elapsed_ms" in json.loads(path.read_text())


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
