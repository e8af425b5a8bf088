"""Per-layer call counters and timers, installed by name from outside the
program.

Each target names a function by ``module:attribute`` path, with fallbacks for
the places a refactor may move it to.  Installing a target replaces every
binding of that function object: the defining attribute, aliases in the same
class (``__rmul__ = __mul__``) and copies made by ``from module import name``
in other loaded ``hopftwist`` modules.  A target that resolves nowhere is
reported absent; the run goes on without it.

Times are inclusive (a layer's time contains the time of the layers it calls)
and a recursive call is counted but not timed twice.
"""

import importlib
import sys
import time

# the fields one target accumulates
FIELDS = ("calls", "s", "pairs", "out_terms", "max_terms")


def _convolve_work(stat, args, result):
    # tensor_convolve(a, b, dim, arity, base): every pair of terms is formed,
    # the result keeps the ones that survive cancellation
    stat["pairs"] += len(args[0]) * len(args[1])
    stat["out_terms"] += len(result)


def _mul_terms(stat, args, result):
    # LegTensor.mul(self, other): size of the largest tensor involved
    n = max(len(args[0].data), len(args[1].data), len(result.data))
    if n > stat["max_terms"]:
        stat["max_terms"] = n


def _suite_key(args, kwargs):
    return "suites.%s" % (args[0] if args else kwargs.get("name"))


# (stat key, candidate paths, timed, work hook, key function)
TARGETS = (
    ("scalars.series_mul", ("hopftwist.scalars:Series.__mul__",), True, None, None),
    ("scalars.series_add", ("hopftwist.scalars:Series.__add__",), False, None, None),
    ("scalars.taulaurent_new", ("hopftwist.scalars:TauLaurent.__init__",), False, None, None),
    ("scalars.cyclotomic_mul", ("hopftwist.scalars:Cyclotomic.__mul__",), False, None, None),
    (
        "kernel.tensor_convolve",
        ("hopftwist._kernel.api:tensor_convolve", "hopftwist.multilinear:tensor_convolve"),
        True,
        _convolve_work,
        None,
    ),
    (
        "kernel.torus_scan",
        ("hopftwist._kernel.api:torus_scan", "hopftwist.group_cohomology:torus_scan"),
        True,
        None,
        None,
    ),
    (
        "kernel.cyclo_mul",
        ("hopftwist._kernel.api:cyclo_mul", "hopftwist.scalars:cyclo_mul"),
        False,
        None,
        None,
    ),
    ("multilinear.mul", ("hopftwist.multilinear:LegTensor.mul",), True, _mul_terms, None),
    ("multilinear.leg_embed", ("hopftwist.multilinear:LegTensor.leg_embed",), True, None, None),
    ("multilinear.coproduct_leg", ("hopftwist.multilinear:LegTensor.coproduct_leg",), True, None, None),
    ("multilinear.counit_leg", ("hopftwist.multilinear:LegTensor.counit_leg",), True, None, None),
    ("multilinear.tensor_invert", ("hopftwist.multilinear:tensor_invert",), True, None, None),
    ("linalg.solve", ("hopftwist.linalg:solve",), True, None, None),
    ("hopf_cochain.coboundary_pair", ("hopftwist.hopf_cochain:coboundary_pair",), True, None, None),
    ("hopf_cochain.twist", ("hopftwist.hopf_cochain:twist",), True, None, None),
    ("hopf_cochain.verify_quasi", ("hopftwist.hopf_cochain:verify_quasi",), True, None, None),
    ("hopf_cochain.dsquared", ("hopftwist.hopf_cochain:dsquared",), True, None, None),
    ("suites.run_suite", ("hopftwist.suites:run_suite",), True, None, _suite_key),
    ("reporting.to_json", ("hopftwist.reporting:SuiteReport.to_json",), True, None, None),
    ("heis_torus.star", ("hopftwist.heis_torus:star",), True, None, None),
    ("pbw.PBWTensor.mul", ("hopftwist.pbw:PBWTensor.mul",), True, None, None),
    ("group_cohomology.is_cocycle", ("hopftwist.group_cohomology:is_cocycle",), True, None, None),
    ("graded.strong_grading", ("hopftwist.graded:strong_grading",), True, None, None),
)


def _resolve(path):
    """(owner, attribute, function) for ``module:Attr.attr``, or None."""
    mod_name, _, attr_path = path.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None
    *outer, attr = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        fn = owner.__dict__.get(attr)
    else:
        fn = getattr(owner, attr, None)
    if not callable(fn):
        return None
    return owner, attr, fn


def _bindings(owner, fn):
    """Every (namespace object, attribute) bound to ``fn`` that callers use."""
    if isinstance(owner, type):
        return [(owner, name) for name, val in list(owner.__dict__.items()) if val is fn]
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("hopftwist"):
            continue
        for name, val in list(vars(mod).items()):
            if val is fn:
                found.append((mod, name))
    return found


class Tracer:
    """Wraps the targets while installed; ``stats`` maps key -> FIELDS."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats = {}
        self.absent = []
        self._restore = []

    def stat(self, key):
        s = self.stats.get(key)
        if s is None:
            s = self.stats[key] = dict.fromkeys(FIELDS, 0)
            s["s"] = 0.0
        return s

    def install(self):
        for key, candidates, timed, work, key_fn in self.targets:
            found = None
            for path in candidates:
                found = _resolve(path)
                if found is not None:
                    break
            if found is None:
                self.absent.append(key)
                continue
            owner, _, fn = found
            wrapper = self._wrap(fn, key, timed, work, key_fn)
            for ns, name in _bindings(owner, fn):
                self._restore.append((ns, name, fn))
                setattr(ns, name, wrapper)
        return self.absent

    def uninstall(self):
        for ns, name, fn in reversed(self._restore):
            setattr(ns, name, fn)
        self._restore = []

    def _wrap(self, fn, key, timed, work, key_fn):
        tracer = self
        fixed = None if key_fn else self.stat(key)
        depth = [0]
        clock = time.perf_counter

        if not timed and work is None and key_fn is None:
            def counted(*args, **kwargs):
                fixed["calls"] += 1
                return fn(*args, **kwargs)

            return counted

        def timed_call(*args, **kwargs):
            stat = fixed if key_fn is None else tracer.stat(key_fn(args, kwargs))
            stat["calls"] += 1
            if depth[0] or not timed:
                result = fn(*args, **kwargs)
            else:
                depth[0] += 1
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stat["s"] += clock() - t0
                    depth[0] -= 1
            if work is not None:
                work(stat, args, result)
            return result

        return timed_call


def merge(into, stats):
    """Add one process's stats into an aggregate (max for max_terms)."""
    for key, s in stats.items():
        acc = into.setdefault(key, dict.fromkeys(FIELDS, 0))
        for field in FIELDS:
            if field == "max_terms":
                acc[field] = max(acc[field], s.get(field, 0))
            else:
                acc[field] += s.get(field, 0)
    return into
