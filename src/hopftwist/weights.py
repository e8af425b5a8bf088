"""Weight vectors and the sharp map.

A weight vector is a nonempty tuple of positive integers.  Its sharp is
the vector of complementary products, the i-th entry the product of all
the others; sharp_laws checks the double-sharp rescaling law and that the
sharp is coprime exactly when the vector is pairwise coprime.  Plain
integers throughout: no presentation and no scalar ring.  The sharp-map
suite body, sharp_map_checks, is here too.
"""

from fractions import Fraction
from itertools import product
from math import gcd, prod

from .reporting import CheckOutcome


class WeightVector:
    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(int(v) for v in entries)
        if not self.entries:
            raise ValueError("weight vector must be nonempty")
        if any(v < 1 for v in self.entries):
            raise ValueError("weights must be positive")

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        if isinstance(other, WeightVector):
            return self.entries == other.entries
        return self.entries == tuple(other)

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "WeightVector(%r)" % (self.entries,)


def sharp(l):
    """Componentwise complementary products: i-th entry becomes the
    product of all the other entries."""
    l = l if isinstance(l, WeightVector) else WeightVector(l)
    total = prod(l.entries)
    return WeightVector(tuple(total // v for v in l.entries))


def is_coprime(l):
    l = l if isinstance(l, WeightVector) else WeightVector(l)
    g = 0
    for v in l.entries:
        g = gcd(g, v)
    return g == 1


def is_pairwise_coprime(l):
    l = l if isinstance(l, WeightVector) else WeightVector(l)
    n = len(l.entries)
    for i in range(n):
        for j in range(i + 1, n):
            if gcd(l.entries[i], l.entries[j]) != 1:
                return False
    return True


def sharp_laws(l):
    """The double-sharp rescaling law and the coprimality biconditional."""
    l = l if isinstance(l, WeightVector) else WeightVector(l)
    s = sharp(l)
    ss = sharp(s)
    n = len(l) - 1
    k = Fraction(prod(l.entries)) ** (n - 1)
    ok1 = all(Fraction(ss[i]) == k * l[i] for i in range(len(l)))
    ok2 = is_coprime(s) == is_pairwise_coprime(l)
    return [
        CheckOutcome.from_residual(
            "sharp-double", 0 if ok1 else 1, None if ok1 else repr(l)
        ),
        CheckOutcome.from_residual(
            "sharp-coprime-iff", 0 if ok2 else 1, None if ok2 else repr(l)
        ),
    ]


# ---------------------------------------------------------------------------
# the sharp-map suite


def sharp_map_checks(rng, order, theta):
    tuples = [entries for n in range(1, 5) for entries in product(range(1, 5), repeat=n)]
    yield CheckOutcome.tally("laws-exhaustive-%d-tuples" % len(tuples), (
        (1, repr(entries)) for entries in tuples for ck in sharp_laws(entries) if not ck.ok
    ))

    frozen = [
        ((1, 2, 3), (6, 3, 2)),
        ((5, 7), (7, 5)),
        ((4,), (1,)),
    ]
    wrong = [inp for inp, out in frozen if sharp(inp) != out]
    yield CheckOutcome.from_residual(
        "frozen-examples", len(wrong), repr(wrong[0]) if wrong else None
    )
