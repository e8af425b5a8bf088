"""Named verification suites behind the command line interface.

Each suite body is a generator: it builds its objects from scratch and
yields each CheckOutcome where the check is decided, in report order.
run_suite, for one suite and for 'all' alike, gives each body a fresh
random.Random(seed), prefixes ids with the suite's name under 'all', and
is the one exception boundary: SolveTooCostly (one solve, one price, one
refusal: an exact solve over Q(z_N) priced past the cap) ends the run
(the CLI exits 2), and any other exception ends that suite with one
'error' outcome, id 'raised', witness '<ExceptionClass>: <message>',
after the checks it yielded; under 'all' the later suites still run.

A check's elapsed_ms is the time from the previous yield of the run (or
its start) to its own, set-up included.  The batteries a body yields from
(batteries.verify_hopf and verify_algebra, pbw.moyal_suite, the reports in
sample_hosts) are generators too, so each of their checks carries its own
time.  Reports are deterministic: the same seed yields byte-identical
JSON, and timing is only attached on request.

This module holds no suite body: each lives in a module its own ``verify
<suite>`` process loads anyway (group-cohomology and octonions in
group_cohomology, pbw-gcl and moyal in pbw, heis-torus in heis_torus,
graded-galois in graded, sharp-map in weights, hopf-axioms in
sample_hosts, hopf-cochain in cochain_suite), and _BODIES imports it on
its first call.  This module imports only errors, reporting and the
standard library at its top, and _check_theta loads grammar and scalars
for a --theta, so ``import hopftwist.cli`` loads four modules: cli,
errors, reporting and suites.  One ``verify <suite>`` process loads, and
without bytecode compiles, only modules whose functions its suite calls
(tests/test_load_sets.py pins every set).
"""

import random
import time
from importlib import import_module

from .errors import SchemaError, SolveTooCostly, UnknownSuite
from .reporting import CheckOutcome, SuiteReport

DEFAULT_SEED = 1729

SUITE_NAMES = (
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


def _body(module, name):
    """The suite body module.name, imported on its first call: a verify
    process compiles the module of its own suite only."""

    def run(rng, order, theta):
        return getattr(import_module("." + module, __package__), name)(rng, order, theta)

    return run


_BODIES = {
    "hopf-axioms": _body("sample_hosts", "hopf_axioms_checks"),
    "group-cohomology": _body("group_cohomology", "group_cohomology_checks"),
    "octonions": _body("group_cohomology", "octonions_checks"),
    "hopf-cochain": _body("cochain_suite", "hopf_cochain_checks"),
    "pbw-gcl": _body("pbw", "pbw_gcl_checks"),
    "moyal": _body("pbw", "moyal_checks"),
    "graded-galois": _body("graded", "graded_galois_checks"),
    "sharp-map": _body("weights", "sharp_map_checks"),
    "heis-torus": _body("heis_torus", "heis_torus_checks"),
}


# Least order at which every check of a suite, negative controls included,
# can show: pbw-gcl's non-cocycle twist has residuals from hbar^2 on, and
# heis-torus builds theta = h + h^2.
_MIN_ORDER = {"pbw-gcl": 2, "heis-torus": 2}

# Largest order at which a scalar text is expanded only to tell its value
# from zero: a theta that truncates to zero, and the coefficients of a
# nilmanifold document, which stores no order (io_json._heis_order); beyond
# it the text is rejected.
_THETA_ORDER_CAP = 64

# Largest order a suite accepts: the largest at which its CLI run took under
# 15 s on a shared 2-core x86 machine while the products ran on Series.  On
# integer rows a CLI run at the cap takes 0.9-1.1 s (moyal at 11), 1.4-2.1 s
# (pbw-gcl at 13) and 3.2-3.8 s (heis-torus at 12) on that machine, at a
# peak RSS of 21.3, 27.9 and 25.5 MB.  The other suites read the order only
# to parse --theta, so theirs is the theta cap (sharp-map at order 64 with a
# theta: 0.15 s).
_MAX_ORDER = {"moyal": 11, "pbw-gcl": 13, "heis-torus": 12}


def _check_order(name, order):
    if order is None:
        return None
    if isinstance(order, bool) or not isinstance(order, int) or order < 1:
        raise SchemaError("order must be a positive integer", "order")
    least = max(_MIN_ORDER.values()) if name == "all" else _MIN_ORDER.get(name, 1)
    if order < least:
        raise SchemaError(
            "suite %s needs order at least %d" % (name, least), "order"
        )
    most = (
        min(_MAX_ORDER.values())
        if name == "all"
        else _MAX_ORDER.get(name, _THETA_ORDER_CAP)
    )
    if order > most:
        raise SchemaError(
            "suite %s takes order at most %d" % (name, most), "order"
        )
    return order


def _check_theta(theta, order):
    if theta is None:
        return None
    from .grammar import hbar_valuation_bound, parse
    from .scalars import Series, theta_ok

    effective = 4 if order is None else order
    value = parse(theta, hbar_order=effective) if isinstance(theta, str) else theta
    if not isinstance(value, Series):
        value = Series.const(value, effective)
    if not theta_ok(value):
        raise SchemaError("theta needs a vanishing constant term", "theta")
    if isinstance(theta, str) and value.is_zero():
        bound = hbar_valuation_bound(theta)
        if bound > effective and (
            bound > _THETA_ORDER_CAP or parse(theta, hbar_order=bound)
        ):
            raise SchemaError(
                "theta truncates to zero at order %d" % effective, "theta"
            )
    return value


def _contained(body, rng, order, theta):
    """The checks body yields, then one error outcome if it raises; a
    computation refused as too costly still ends the run."""
    try:
        yield from body(rng, order, theta)
    except SolveTooCostly:
        raise
    except Exception as e:
        yield CheckOutcome.error("raised", "%s: %s" % (type(e).__name__, e))


def run_suite(name, order=None, theta=None, seed=None):
    """Run one named suite (or 'all') and return its SuiteReport, each check
    timed from the one before it."""
    if name != "all" and name not in SUITE_NAMES:
        raise UnknownSuite(
            "unknown suite %r; choose from %s or 'all'"
            % (name, ", ".join(SUITE_NAMES))
        )
    order = _check_order(name, order)
    theta = _check_theta(theta, order)
    seed = DEFAULT_SEED if seed is None else seed
    outcomes = []
    started = last = time.monotonic()
    for sub in SUITE_NAMES if name == "all" else (name,):
        label = sub + ":" if name == "all" else ""
        for ck in _contained(_BODIES[sub], random.Random(seed), order, theta):
            now = time.monotonic()
            ck = ck.renamed(label + ck.id)
            ck.elapsed_ms = round((now - last) * 1000, 3)
            outcomes.append(ck)
            last = now
    elapsed = int((time.monotonic() - started) * 1000)
    return SuiteReport(name, outcomes, seed, elapsed_ms=elapsed)
