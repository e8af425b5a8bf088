"""Statistics over the cases of one closed-loop benchmark run.

A case result is a ``(seconds, outcome)`` pair.  The outcome is ``OK`` when
the verdict equals the one known by construction, ``WRONG`` when the program
returned a different verdict, and ``ERROR`` when it returned none (an
unexpected exception, a traceback, a timeout, an exit without a report).
Wrong and errored cases both count as failed, and a failed case counts as
slower than any latency limit: it sorts above every finite time.
"""

import math
import statistics

OK = "ok"
WRONG = "wrong"
ERROR = "error"

# the tail percentile is the highest one with at least this many cases beyond it
TAIL_BEYOND = 10


def ranked_ms(results):
    """Case times in milliseconds, ascending, with failed cases as +inf."""
    return sorted(
        seconds * 1000.0 if outcome == OK else math.inf
        for seconds, outcome in results
    )


def median_ms(results):
    return statistics.median(ranked_ms(results))


def tail_ms(results, beyond=TAIL_BEYOND):
    """``(percentile, value_ms)`` of the highest nearest-rank percentile that
    leaves at least ``beyond`` cases above it.

    With n cases that is rank n - beyond (1-based), the percentile
    100 * (n - beyond) / n.  Raises ValueError when there are too few cases
    to leave ``beyond`` of them above any rank.
    """
    ranked = ranked_ms(results)
    rank = len(ranked) - beyond
    if rank < 1:
        raise ValueError(
            "%d cases cannot leave %d beyond a percentile" % (len(ranked), beyond)
        )
    return 100.0 * rank / len(ranked), ranked[rank - 1]


def failed_count(outcomes):
    return sum(1 for outcome in outcomes if outcome != OK)


def error_rate(outcomes):
    """Failed cases (wrong verdicts and errors) over cases attempted."""
    if not outcomes:
        raise ValueError("no cases attempted")
    return failed_count(outcomes) / len(outcomes)


def summarize(results):
    """End-to-end case metrics.  Throughput is correct verdicts over the
    summed case times: the closed loop's busy time."""
    percentile, tail = tail_ms(results)
    correct = sum(1 for _, outcome in results if outcome == OK)
    return {
        "verdicts_per_s": correct / sum(seconds for seconds, _ in results),
        "case_p50_ms": median_ms(results),
        "case_tail_ms": tail,
        "tail_percentile": percentile,
        "cases": len(results),
    }
