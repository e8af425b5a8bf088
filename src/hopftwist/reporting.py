"""Check outcomes and suite reports.

A check passes exactly when its residual term count is zero; the witness
string, when present, pins down one offending input for debugging.  A
check over many inputs forms its verdict with CheckOutcome.tally: the
residual is the sum over the failing inputs, and the witness is the first
failing input's, in the order the check visits them.  The associativity
and quasi-associativity checks visit their triples out of order and tally
them sorted, so that they name the least failing triple.  An outcome has
no truth value: its verdict is .ok, and bool() of it raises TypeError.

suites.run_suite sets each check's elapsed_ms, the time in milliseconds
from the check before it; a report carries it, and the suite's own
elapsed_ms, only under to_dict(timings=True).

json is imported only by to_json, so neither importing the CLI nor a
process that never writes a report loads it.
"""


def key_repr(t):
    """repr of the first key of a tensor, or None when the tensor is zero."""
    return None if t.is_zero() else repr(min(t.data))


class CheckOutcome:
    __slots__ = ("id", "status", "residual_term_count", "witness", "elapsed_ms")

    def __init__(self, id, status, residual_term_count, witness=None):
        self.id = id
        self.status = status
        self.residual_term_count = residual_term_count
        self.witness = witness
        self.elapsed_ms = None

    @staticmethod
    def from_residual(id, residual_count, witness=None):
        if residual_count == 0:
            return CheckOutcome(id, "pass", 0)
        return CheckOutcome(id, "fail", residual_count, witness)

    @staticmethod
    def tally(id, failures):
        """The verdict over (residual, witness) pairs, one per failing
        input: the residuals add up, the first witness that is not None
        names the check, and no pair at all is a pass."""
        total, witness = 0, None
        for residual, w in failures:
            total += residual
            if witness is None:
                witness = w
        return CheckOutcome.from_residual(id, total, witness)

    @staticmethod
    def error(id, witness):
        return CheckOutcome(id, "error", -1, witness)

    def renamed(self, id):
        """The same verdict, residual and witness under another id."""
        return CheckOutcome(id, self.status, self.residual_term_count, self.witness)

    @property
    def ok(self):
        return self.status == "pass"

    def __bool__(self):
        raise TypeError("read .ok of a CheckOutcome, not its truth value")

    def to_dict(self, timings=False):
        d = {
            "id": self.id,
            "status": self.status,
            "residual_term_count": self.residual_term_count,
        }
        if self.witness is not None:
            d["witness"] = self.witness
        if timings and self.elapsed_ms is not None:
            d["elapsed_ms"] = self.elapsed_ms
        return d

    def __repr__(self):
        return "CheckOutcome(%r, %r, %r)" % (
            self.id,
            self.status,
            self.residual_term_count,
        )


class SuiteReport:
    def __init__(self, suite, checks, seed, elapsed_ms=None):
        self.suite = suite
        self.checks = list(checks)
        self.seed = seed
        self.elapsed_ms = elapsed_ms

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def to_dict(self, timings=False):
        d = {
            "suite": self.suite,
            "checks": [c.to_dict(timings) for c in self.checks],
            "seed": self.seed,
        }
        if timings and self.elapsed_ms is not None:
            d["elapsed_ms"] = self.elapsed_ms
        return d

    def to_json(self, timings=False):
        import json

        return json.dumps(self.to_dict(timings=timings), indent=2) + "\n"
