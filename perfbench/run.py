"""Layered benchmark of the hopftwist verifier.

Run from the root of a checkout (the package is imported from ``src/``; no
install is needed):

    python3 perfbench/run.py --workload cochain-series --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``cochain-series``, ``cochain-exact`` and
``suites-cli``.  Each is a closed loop with one client, run in one
single-threaded process (``suites-cli`` starts one CLI child at a time).

``--seconds`` sets the size of a run: a whole number of rounds,
``seconds / ROUND_S`` of them, so every run of a seed does the same work and
the median and tail percentile fall on the same part of the case mix.

Times are normalized to a reference speed.  The process pins itself (and so
its CLI children) to one CPU and runs a fixed pure-Python reference loop
(Fraction arithmetic and dict updates, cyclic GC off) before the first case
and after every case; a case's time is its wall time times
``REF_S / mean(reference loop before, reference loop after)``.  On a shared
machine whose speed drifts by tens of percent over minutes this keeps runs
comparable; the report prints the raw wall times and the reference loop's
median next to the normalized metrics.

``--trace 0`` measures the end-to-end metrics (``END_TO_END``).
``--trace 1`` runs a third of those rounds twice, first untraced and then with
the by-name tracer of tracer.py installed, and reports the per-layer metrics
(``PER_LAYER``; layer times are raw wall time) with the tracing overhead, the
normalized traced minus untraced time.

Every line but the last is a human-readable report, including the error rate,
the tail percentile with its case count and the environment.  The last line
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``correct`` is false when any case returned a verdict other than the one
known by construction; ``failed`` counts those cases plus the ones that gave
no verdict (traceback, unexpected exception or exit code, timeout).
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import benchstats
import tracer
from catalog import END_TO_END, PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

clock = time.perf_counter

# --seconds per round.  At --seconds 20 this gives 3, 7 and 4 rounds, which
# puts the median and the tail percentile inside a group of similar cases
# rather than on the edge between two; such a run takes 20-45 s of wall time
# on a loaded 2-core x86 machine.  IMPORTS is what a user of the workload's
# entry point imports.
ROUND_S = {"cochain-series": 7.0, "cochain-exact": 2.9, "suites-cli": 5.0}
IMPORTS = {
    "cochain-series": "import hopftwist.hopf_cochain, hopftwist.constructors",
    "cochain-exact": "import hopftwist.hopf_cochain, hopftwist.constructors",
    "suites-cli": "import hopftwist.cli",
}
MIN_ROUNDS = 2
SETUP_REPEATS = 7

# the reference loop and its duration on an unloaded core of the reference
# machine; the constant only sets the scale of every normalized time
REF_ITERATIONS = 4000
REF_S = 0.015


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(ROUND_S))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def rounds_for(workload, seconds):
    return max(MIN_ROUNDS, round(seconds / ROUND_S[workload]))


def _reference_work():
    acc = {}
    x = Fraction(0)
    for i in range(1, REF_ITERATIONS):
        x += Fraction(i % 7 - 3, i % 11 + 1)
        k = (i * 31) % 97
        acc[k] = acc.get(k, 0) + x
    return acc


def reference_s():
    """Duration of the reference loop now.  Cyclic GC is off while it runs,
    so the size of the program's heap does not change it."""
    gc.disable()
    try:
        t0 = clock()
        _reference_work()
        return clock() - t0
    finally:
        gc.enable()


def timed(fn, ref_before):
    """``(fn(), raw seconds, normalized seconds, reference after)``."""
    t0 = clock()
    result = fn()
    raw = clock() - t0
    ref_after = reference_s()
    return result, raw, raw * 2 * REF_S / (ref_before + ref_after), ref_after


def run_plan(workloads, plan):
    """Run every case of every round in order.  Returns one
    ``(normalized seconds, outcome)`` per case, the timing totals and
    ``(label, expected, verdict)`` per case."""
    results, verdicts, refs = [], [], []
    raw_total = 0.0
    gc.collect()
    ref = reference_s()
    for cases in plan:
        for case in cases:
            verdict, raw, norm, ref = timed(case.run, ref)
            raw_total += raw
            refs.append(ref)
            results.append((norm, workloads.outcome(case.expected, verdict)))
            verdicts.append((case.label, case.expected, verdict))
    totals = {
        "raw_s": raw_total,
        "normalized_s": sum(t for t, _ in results),
        "reference_median_s": statistics.median(refs),
    }
    return results, totals, verdicts


def child_import(statement, env):
    subprocess.run([sys.executable, "-c", statement], cwd=ROOT, env=env, check=True, timeout=120)


def set_up(build, env, workload, seed, rounds):
    """Median over SETUP_REPEATS set-ups of: a fresh interpreter importing
    the package, then host construction, unit tensors and input generation
    (normalized like the cases)."""
    samples = []
    plan = None
    ref = reference_s()
    for _ in range(SETUP_REPEATS):
        _, _, imported, ref = timed(lambda: child_import(IMPORTS[workload], env), ref)
        plan, _, built, ref = timed(lambda: build(seed, rounds), ref)
        samples.append(imported + built)
    return statistics.median(samples), plan


def peak_rss_mb(children):
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def environment(seed, nproc):
    import hopftwist

    rev = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or rev
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "seed": seed,
        "kernel_backend": getattr(hopftwist, "kernel_backend", "absent"),
        "python": platform.python_version(),
        "nproc": nproc,
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
    }


def layer_values(stats, extras):
    out = {}
    for name, unit in PER_LAYER:
        if name in extras:
            value = extras[name]
        else:
            key, field = name.rsplit(".", 1)
            s = stats.get(key, {})
            if field == "yield":
                value = s["out_terms"] / s["pairs"] if s.get("pairs") else 0.0
            else:
                value = s.get(field, 0)
        if unit == "s":
            value = float(value)
        out[name] = {"value": value, "unit": unit}
    return out


def measure(workloads, args):
    rounds = rounds_for(args.workload, args.seconds)
    build = getattr(workloads, "build_" + args.workload.replace("-", "_"))
    setup_s, plan = set_up(build, workloads.child_env(), args.workload, args.seed, rounds)
    results, totals, verdicts = run_plan(workloads, plan)
    summary = benchstats.summarize(results)
    values = {
        "verdicts_per_s": summary["verdicts_per_s"],
        "case_p50_ms": summary["case_p50_ms"],
        "case_tail_ms": summary["case_tail_ms"],
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(children=args.workload == "suites-cli"),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    report = {
        "rounds": rounds,
        "timing": totals,
        "tail_percentile": summary["tail_percentile"],
        "cases": summary["cases"],
    }
    return verdicts, metrics, report


def measure_traced(workloads, args):
    rounds = max(1, rounds_for(args.workload, args.seconds) // 3)
    build = getattr(workloads, "build_" + args.workload.replace("-", "_"))
    _, untraced, verdicts = run_plan(workloads, build(args.seed, rounds))
    extras = {"cli.import_s": 0.0}
    if args.workload == "suites-cli":
        plan = build(args.seed, rounds, traced=True)
        _, traced, traced_verdicts = run_plan(workloads, plan)
        stats, absent, imports = {}, set(), []
        for case in (c for cases in plan for c in cases):
            if case.trace is not None:
                tracer.merge(stats, case.trace["stats"])
                absent.update(case.trace["absent"])
                imports.append(case.trace["import_s"])
        if imports:
            extras["cli.import_s"] = statistics.median(imports)
        absent = sorted(absent)
    else:
        tr = tracer.Tracer()
        absent = tr.install()
        try:
            _, traced, traced_verdicts = run_plan(workloads, build(args.seed, rounds))
        finally:
            tr.uninstall()
        stats = tr.stats
    overhead = traced["normalized_s"] - untraced["normalized_s"]
    extras["trace.overhead_s"] = overhead
    extras["trace.overhead_pct"] = 100.0 * overhead / untraced["normalized_s"]
    extras["trace.absent_targets"] = len(absent)
    report = {"rounds": rounds, "untraced": untraced, "traced": traced, "absent": absent}
    return verdicts + traced_verdicts, layer_values(stats, extras), report


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "hopftwist")):
        print("perfbench: no hopftwist package under %s" % SRC, file=sys.stderr)
        return 2
    # the reference loop and the CLI children then run on the same core
    cpus = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {min(cpus)})
    except OSError:  # pinning refused: still measurable, only less steady
        pass
    sys.path.insert(0, SRC)
    import workloads

    measure_fn = measure_traced if args.trace else measure
    verdicts, metrics, report = measure_fn(workloads, args)
    outcomes = [workloads.outcome(expected, verdict) for _, expected, verdict in verdicts]
    attempted = len(outcomes)
    failed = benchstats.failed_count(outcomes)

    print("perfbench %s seed=%d trace=%d" % (args.workload, args.seed, args.trace))
    for name, m in metrics.items():
        print("  %-36s %r %s" % (name, m["value"], m["unit"]))
    print(
        "  %-36s %r ratio (%d failed of %d attempted)"
        % ("error_rate", benchstats.error_rate(outcomes), failed, attempted)
    )
    if "tail_percentile" in report:
        print("  case_tail_ms is the p%.1f of %d cases" % (report["tail_percentile"], report["cases"]))
    for label, expected, verdict in verdicts:
        if verdict != expected:
            print("  failed case %s: expected %s, got %s" % (label, expected, verdict))
    print("  report " + json.dumps(report, sort_keys=True))
    print("  environment " + json.dumps(environment(args.seed, len(cpus)), sort_keys=True))
    result = {
        "correct": benchstats.WRONG not in outcomes,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
