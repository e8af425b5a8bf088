"""The benchmark's three workloads.

Each workload is a closed loop with a single client: the next case starts
only after the previous verdict.  A case is one verdict request whose answer
is known by construction.  A round holds every case kind of its workload once,
in a seeded order, so every run sees the same case mix; a run is a whole
number of rounds.  Inputs are made from the seed during set-up; a case times
only calls into the public API (``HopfCochain``, ``twist``, ``verify_quasi``,
``dsquared``, ``LegTensor`` methods) or one CLI child process.

Verdicts are strings.  A ``HopftwistError`` raised by the program becomes its
class name, so a negative control expects e.g. ``"NotInvertible"``; any other
exception is an error (no verdict at all).

The package is imported from ``src/`` of the checkout; run.py puts it on the
path before importing this module.
"""

import json
import os
import random
import subprocess
import sys
import traceback
from fractions import Fraction

from hopftwist import constructors as con
from hopftwist import hopf_cochain as hc
from hopftwist import multilinear as ml
from hopftwist.errors import HopftwistError
from hopftwist.scalars import Series

import benchstats
from catalog import LIGHT_SUITES
from trace_child import MARKER as TRACE_MARKER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

ERROR_PREFIX = "error:"


def outcome(expected, verdict):
    """The benchstats outcome of one verdict."""
    if verdict == expected:
        return benchstats.OK
    if verdict.startswith(ERROR_PREFIX):
        return benchstats.ERROR
    return benchstats.WRONG


class Case:
    """One verdict request: ``fn(*args)`` must return ``expected``."""

    __slots__ = ("label", "expected", "fn", "args")

    def __init__(self, label, expected, fn, *args):
        self.label = label
        self.expected = expected
        self.fn = fn
        self.args = args

    def run(self):
        try:
            return self.fn(*self.args)
        except HopftwistError as e:
            return type(e).__name__
        except Exception as e:  # one broken case must not end the run
            traceback.print_exc(file=sys.stderr)
            return ERROR_PREFIX + type(e).__name__


# ---------------------------------------------------------------------------
# verdict functions (the timed part of a cochain case)


def twist_verdict(H, value):
    F = hc.HopfCochain(H, 2, value)
    bad = [ck.id for ck in hc.verify_quasi(hc.twist(H, F)) if not ck.ok]
    return "fail:" + ",".join(bad) if bad else "pass"


def dsquared_verdict(H, arity, value, unit, inverse=None, closed_form=None):
    d = hc.dsquared(hc.HopfCochain(H, arity, value, inverse))
    if d.eq(unit):
        return "unit"
    if closed_form is not None and d.eq(closed_form):
        return "closed-form"
    return "other"


def accept_inverse_verdict(H, arity, value, inverse):
    hc.HopfCochain(H, arity, value, inverse)
    return "accepted"


def invert_verdict(H, value):
    hc.HopfCochain(H, 1, value)
    return "inverted"


# ---------------------------------------------------------------------------
# inputs known by construction


class Host:
    """A Hopf presentation with its group, its unit tensors and, over a
    series ring, the formal parameter hbar."""

    def __init__(self, label, H, G, dual, arities):
        self.label = label
        self.H = H
        self.G = G
        self.dual = dual
        self.units = {n: ml.LegTensor.unit(H, n) for n in arities}
        order = H.ring.hbar_order
        self.hbar = None if order is None else Series.hbar(order)

    def others(self):
        return [g for g in range(self.G.order) if g != self.G.identity]


def _coeff(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))


def counital_perturbation(host, rng, terms=9):
    """Counit-projected 2-tensor P on ``terms`` distinct pairs off the identity.

    Off the identity the counit projection of a group algebra only adds
    terms and that of a dual host is the identity map, so P is never zero.
    Nine pairs fill every off-identity pair of a dim-4 host, which keeps the
    cost of a case close to that of the other cases on its host."""
    others = host.others()
    pairs = rng.sample([(i, j) for i in others for j in others], min(terms, len(others) ** 2))
    u = ml.LegTensor(host.H, 2, {p: _coeff(rng) for p in pairs})
    return hc.counital_projection(u)


def invariant_perturbation(host, rng, terms=3):
    """Invariant 2-tensor: any pairs over a commutative host, otherwise a
    combination of distinct blocks (class sums of g x g, central pairs)."""
    G = host.G
    if host.H.commutative:
        n = G.order
        pairs = rng.sample([(i, j) for i in range(n) for j in range(n)], terms)
        return ml.LegTensor(host.H, 2, {p: _coeff(rng) for p in pairs})
    blocks = {tuple(sorted((g, g) for g in cls)) for cls in G.conjugacy_classes()}
    cen = G.center()
    blocks.update(((z, w),) for z in cen for w in cen)
    entries = {}
    for blk in rng.sample(sorted(blocks), min(terms, len(blocks))):
        c = _coeff(rng)
        for key in blk:
            entries[key] = c
    return ml.LegTensor(host.H, 2, entries)


def monomial_d2_closed_form(G, a, b):
    """d^2 of the group-like 2-cochain a x b, worked out in the group.

    d(a x b) = a^-1 x y x b with y = a b a^-1 b^-1, and d of x x y x z is
    1 x (x y^2 x^-1 y^-1) x (y^2 z y^-1 z^-1) x 1."""
    m, inv, e = G.mul, G.inv, G.identity
    x, z = inv[a], b
    y = m(m(a, b), m(inv[a], inv[b]))
    yy = m(y, y)
    return (e, m(m(m(x, yy), inv[x]), inv[y]), m(m(m(yy, z), inv[y]), inv[z]), e)


def monomial_case(host, a, b, label):
    G, H = host.G, host.H
    value = ml.LegTensor(H, 2, {(a, b): 1})
    inverse = ml.LegTensor(H, 2, {(G.inv[a], G.inv[b]): 1})
    key = monomial_d2_closed_form(G, a, b)
    closed = ml.LegTensor(H, 4, {key: 1})
    expected = "unit" if closed.eq(host.units[4]) else "closed-form"
    return Case(label, expected, dsquared_verdict, H, 2, value, host.units[4], inverse, closed)


# ---------------------------------------------------------------------------
# cochain-series


def series_hosts():
    z3 = con.cyclic_group(3)
    z22 = con.elementary_abelian_2(2)
    s3 = con.symmetric_3()
    z23 = con.elementary_abelian_2(3)
    bases = [
        ("k[Z3]", con.group_algebra(z3), z3, False),
        ("k[Z2^2]", con.group_algebra(z22), z22, False),
        ("k[S3]", con.group_algebra(s3), s3, False),
        ("k[Z2^3]", con.group_algebra(z23), z23, False),
        ("dual[Z2^2]", con.dual_group_hopf(z22), z22, True),
    ]
    hosts = []
    for order in (2, 3):
        for label, H0, G, dual in bases:
            if order == 3 and H0.dim > 4:
                continue
            H = ml.with_series_ring(H0, order)
            hosts.append(Host("%s+h%d" % (label, order), H, G, dual, (2, 4)))
    return hosts


def build_cochain_series(seed, rounds):
    """twist + verify_quasi on every (host, K); dsquared of invariant
    cochains on four hosts; and three negative controls per round."""
    rng = random.Random("cochain-series:%d" % seed)
    hosts = series_hosts()
    by_label = {h.label: h for h in hosts}
    dsq_hosts = [by_label[k] for k in ("k[Z3]+h2", "k[S3]+h2", "dual[Z2^2]+h2", "dual[Z2^2]+h3")]
    s3 = by_label["k[S3]+h2"]
    plan = []
    for r in range(rounds):
        cases = []
        for host in hosts:
            F = host.units[2].add(counital_perturbation(host, rng).scale(host.hbar))
            cases.append(Case("twist:" + host.label, "pass", twist_verdict, host.H, F))
        for host in dsq_hosts:
            F = host.units[2].add(invariant_perturbation(host, rng).scale(host.hbar))
            cases.append(
                Case("dsquared-invariant:" + host.label, "unit", dsquared_verdict, host.H, 2, F, host.units[4])
            )
        # negative: an inverse whose first-order term is doubled;
        # (1 + hP)(1 - 2hP) = 1 - hP + O(h^2) and P != 0
        host = hosts[r % len(hosts)]
        P = counital_perturbation(host, rng)
        F = host.units[2].add(P.scale(host.hbar))
        bad = host.units[2].add(P.scale(host.hbar * -2))
        cases.append(
            Case("corrupt-inverse:" + host.label, "NotInvertible", accept_inverse_verdict, host.H, 2, F, bad)
        )
        # negative: 1 + h (e x y) contracts on leg 0 to 1 + h y, not to 1
        host = hosts[(r + 1) % len(hosts)]
        y = rng.randrange(host.G.order)
        F = host.units[2].add(ml.LegTensor(host.H, 2, {(host.G.identity, y): host.hbar}))
        cases.append(Case("not-counital:" + host.label, "NotCounital", twist_verdict, host.H, F))
        # monomial a x b on S3: d^2 is the unit iff the closed form says so
        a, b = rng.randrange(s3.G.order), rng.randrange(s3.G.order)
        cases.append(monomial_case(s3, a, b, "monomial-d2:" + s3.label))
        rng.shuffle(cases)
        plan.append(cases)
    return plan


# ---------------------------------------------------------------------------
# cochain-exact


def exact_hosts():
    groups = [
        ("Z2^2", con.elementary_abelian_2(2)),
        ("Z4", con.cyclic_group(4)),
        ("S3", con.symmetric_3()),
        ("Z2^3", con.elementary_abelian_2(3)),
        ("D4", con.dihedral_4()),
        ("P8", con.pauli_8()),
    ]
    algebras = [Host("k[%s]" % name, con.group_algebra(G), G, False, (1, 3, 4)) for name, G in groups]
    duals = [
        Host("dual[%s]" % name, con.dual_group_hopf(G), G, True, (1, 3))
        for name, G in groups
        if name in ("Z2^2", "S3", "D4")
    ]
    return algebras, duals


def dense_element(host, rng):
    """Dense invertible element.  Over k[G] the identity coefficient
    outweighs the sum of the others, so the element is invertible in the
    regular representation; over a dual every coordinate is nonzero."""
    G = host.G
    if host.dual:
        vec = {
            g: Fraction(rng.randint(1, 5) * rng.choice((-1, 1)), rng.randint(1, 4))
            for g in range(G.order)
        }
    else:
        vec = {g: Fraction(rng.choice((-2, -1, 1, 2))) for g in host.others()}
        lead = sum(abs(v) for v in vec.values()) + rng.randint(1, 3)
        vec[G.identity] = Fraction(lead * rng.choice((-1, 1)))
    return ml.LegTensor.from_element(host.H, vec)


def singular_element(host, rng):
    """Zero divisor: c(e + g) with g an involution, (e + g)(e - g) = 0;
    over a dual, a vector with one zero coordinate."""
    G = host.G
    c = _coeff(rng)
    if host.dual:
        hole = rng.randrange(G.order)
        vec = {g: _coeff(rng) for g in range(G.order) if g != hole}
    else:
        invols = [g for g in host.others() if G.mul(g, g) == G.identity]
        vec = {G.identity: c, rng.choice(invols): c}
    return ml.LegTensor.from_element(host.H, vec)


def build_cochain_exact(seed, rounds):
    """dsquared of dense invertible 1-cochains on every exact host, and three
    negative controls per round: a monomial 2-cochain with its closed-form
    d^2 (the Pauli counterexample every third round, a seeded pair on a
    nonabelian host otherwise), a corrupted inverse and a zero divisor."""
    rng = random.Random("cochain-exact:%d" % seed)
    algebras, duals = exact_hosts()
    hosts = algebras + duals
    nonabelian = [h for h in algebras if not h.H.commutative]
    p8 = next(h for h in algebras if h.label == "k[P8]")
    iX, iZ = p8.G.labels.index("iX"), p8.G.labels.index("iZ")
    plan = []
    for r in range(rounds):
        cases = []
        for host in hosts:
            value = dense_element(host, rng)
            cases.append(Case("dense:" + host.label, "unit", dsquared_verdict, host.H, 1, value, host.units[3]))
        if r % 3 == 0:
            cases.append(monomial_case(p8, iX, iZ, "pauli-counterexample:k[P8]"))
        else:
            host = nonabelian[r % len(nonabelian)]
            a, b = rng.randrange(host.G.order), rng.randrange(host.G.order)
            cases.append(monomial_case(host, a, b, "monomial-d2:" + host.label))
        # negative: the true inverse plus the unit; value * (inv + 1) = 1 + value
        host = hosts[r % len(hosts)]
        value = dense_element(host, rng)
        bad = hc.HopfCochain(host.H, 1, value).inverse.add(host.units[1])
        cases.append(
            Case("corrupt-inverse:" + host.label, "NotInvertible", accept_inverse_verdict, host.H, 1, value, bad)
        )
        host = hosts[(r + 1) % len(hosts)]
        cases.append(
            Case("zero-divisor:" + host.label, "NotInvertible", invert_verdict, host.H, singular_element(host, rng))
        )
        rng.shuffle(cases)
        plan.append(cases)
    return plan


# ---------------------------------------------------------------------------
# suites-cli

CHILD_TIMEOUT_S = 60


def child_env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    return env


def load_expected_checks():
    """Check ids per light suite, as ``verify <suite> --json -`` lists them
    at seed 1729; the list does not depend on the seed."""
    with open(os.path.join(HERE, "expected_checks.json"), encoding="utf-8") as fh:
        return json.load(fh)


class CliCase:
    """One ``hopftwist verify`` child process.

    A suite case expects exit 0, every check passing and exactly the check
    ids of ``expected_checks.json``; the malformed-input case expects exit 2
    with an ``error:`` line.  A traceback, a timeout or a missing report is an
    error.  With ``traced`` the child runs under trace_child.py and its layer
    stats are kept in ``trace``."""

    def __init__(self, argv, expected_ids=None, traced=False):
        self.argv = list(argv)
        self.expected_ids = expected_ids
        self.expected = "pass" if expected_ids is not None else "exit2"
        self.label = " ".join(argv[:2] if expected_ids is not None else argv)
        self.traced = traced
        self.trace = None

    def command(self):
        if self.traced:
            return [sys.executable, os.path.join(HERE, "trace_child.py")] + self.argv
        return [sys.executable, "-m", "hopftwist.cli"] + self.argv

    def run(self):
        try:
            proc = subprocess.run(
                self.command(),
                cwd=ROOT,
                env=child_env(),
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return ERROR_PREFIX + "timeout"
        stderr = proc.stderr
        if self.traced:
            kept = []
            for line in stderr.splitlines(True):
                if line.startswith(TRACE_MARKER):
                    self.trace = json.loads(line[len(TRACE_MARKER):])
                else:
                    kept.append(line)
            stderr = "".join(kept)
        return self.verdict(proc.returncode, proc.stdout, stderr)

    def verdict(self, code, stdout, stderr):
        if "Traceback (most recent call last)" in stderr:
            last = stderr.strip().splitlines()[-1]
            return ERROR_PREFIX + "traceback: " + last
        if self.expected_ids is None:
            if code == 2 and stderr.startswith("error:") and not stdout:
                return "exit2"
            return "exit%d" % code
        start = stdout.find("\n{\n")
        try:
            report = json.loads(stdout[start + 1:]) if start >= 0 else None
        except ValueError:
            report = None
        if report is None or code not in (0, 1):
            return ERROR_PREFIX + "exit %d without a report" % code
        ids = [c["id"] for c in report["checks"]]
        if ids != self.expected_ids:
            return "wrong-check-ids"
        failing = [c["id"] for c in report["checks"] if c["status"] != "pass"]
        if failing:
            return "fail:" + ",".join(failing)
        return "pass" if code == 0 else "exit%d" % code


def build_suites_cli(seed, rounds, traced=False):
    """Every light suite once per round with that round's seed, plus one
    malformed-input control (a theta with a nonzero constant term)."""
    rng = random.Random("suites-cli:%d" % seed)
    expected = load_expected_checks()
    plan = []
    for _ in range(rounds):
        s = str(rng.randrange(1, 10 ** 6))
        cases = [
            CliCase(["verify", name, "--seed", s, "--json", "-"], expected[name], traced)
            for name in LIGHT_SUITES
        ]
        cases.append(CliCase(["verify", "heis-torus", "--theta", "1+h", "--seed", s], None, traced))
        rng.shuffle(cases)
        plan.append(cases)
    return plan
