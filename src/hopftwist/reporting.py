"""Check outcomes and suite reports.

A check passes exactly when its residual term count is zero; the witness
string, when present, pins down one offending input for debugging.
"""

import json


def key_repr(t):
    """repr of the first key of a tensor, or None when the tensor is zero."""
    return None if t.is_zero() else repr(min(t.data))


class CheckOutcome:
    __slots__ = ("id", "status", "residual_term_count", "witness")

    def __init__(self, id, status, residual_term_count, witness=None):
        self.id = id
        self.status = status
        self.residual_term_count = residual_term_count
        self.witness = witness

    @staticmethod
    def from_residual(id, residual_count, witness=None):
        if residual_count == 0:
            return CheckOutcome(id, "pass", 0)
        return CheckOutcome(id, "fail", residual_count, witness)

    @staticmethod
    def passed(id):
        return CheckOutcome(id, "pass", 0)

    @staticmethod
    def failed(id, residual_count=1, witness=None):
        return CheckOutcome(id, "fail", residual_count, witness)

    @staticmethod
    def error(id, witness):
        return CheckOutcome(id, "error", -1, witness)

    def renamed(self, id):
        """The same verdict, residual and witness under another id."""
        return CheckOutcome(id, self.status, self.residual_term_count, self.witness)

    @property
    def ok(self):
        return self.status == "pass"

    def to_dict(self):
        d = {
            "id": self.id,
            "status": self.status,
            "residual_term_count": self.residual_term_count,
        }
        if self.witness is not None:
            d["witness"] = self.witness
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
            "checks": [c.to_dict() for c in self.checks],
            "seed": self.seed,
        }
        if timings and self.elapsed_ms is not None:
            d["elapsed_ms"] = self.elapsed_ms
        return d

    def to_json(self, timings=False):
        return json.dumps(self.to_dict(timings=timings), indent=2) + "\n"
