"""Fuzzing verify's flags: whatever --order, --seed and --theta hold,
`hopftwist verify <suite>` returns 0, 1 or 2 and never raises.

cli.main runs in process on three light suites (sharp-map, moyal,
pbw-gcl).  --order is drawn from -3..70 or left out, --seed from negative
values to 10**30 or left out, and --theta from grammar tokens: small
integers, h, tau, z(N, k) with N at most 12, the operators, parentheses
and exponents up to 5.  Each flag is passed as --flag=value, so a theta
that starts with '-' reaches the parser rather than argparse."""

import contextlib
import io
from datetime import timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from hopftwist.cli import main

SUITES = ["sharp-map", "moyal", "pbw-gcl"]

TOKENS = (
    [str(n) for n in range(0, 13)]
    + ["h", "tau"]
    + ["z(%d,%d)" % (n, k) for n in (1, 2, 3, 4, 6, 12) for k in (0, 1, 5, 11)]
    + ["+", "-", "*", "/", "(", ")"]
    + ["^%d" % e for e in range(-5, 6)]
    + ["^(-2)", "^(3)"]
)


ATOMS = st.sampled_from(
    [str(n) for n in range(0, 13)]
    + ["h", "tau"]
    + ["z(%d,%d)" % (n, k) for n in range(1, 13) for k in range(0, 13)]
)


def _combine(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map("".join),
        children.map(lambda e: "(%s)" % e),
        children.map(lambda e: "-" + e),
        st.tuples(children, st.integers(-5, 5)).map(lambda p: "(%s)^%d" % p),
    )


EXPRESSIONS = st.recursive(ATOMS, _combine, max_leaves=8)

# token soup, well-formed expressions, and well-formed expressions times a
# power of h (a vanishing constant term, so most of them are accepted)
THETAS = st.one_of(
    st.lists(st.sampled_from(TOKENS), min_size=1, max_size=9).map("".join),
    EXPRESSIONS,
    st.tuples(EXPRESSIONS, st.integers(1, 5)).map(lambda p: "(%s)*h^%d" % p),
)


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(derandomize=True, max_examples=400, deadline=timedelta(seconds=5))
@given(
    st.sampled_from(SUITES),
    st.none() | st.integers(-3, 70),
    st.none() | st.integers(-(10**6), 10**30),
    st.none() | THETAS,
)
def test_verify_flags_exit_zero_one_or_two(suite, order, seed, theta):
    argv = ["verify", suite]
    if order is not None:
        argv.append("--order=%d" % order)
    if seed is not None:
        argv.append("--seed=%d" % seed)
    if theta is not None:
        argv.append("--theta=" + theta)
    assert _run(argv) in (0, 1, 2)
