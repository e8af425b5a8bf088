"""The coboundary engine: the multiplicative coboundary of a tensor, with
no linear solve.  It is duck-typed: it works for any tensor implementing
mul, leg_embed, coproduct_leg and arity (multilinear.LegTensor, among them
the k^G tensors of group_cohomology.GroupCochain, and pbw.PBWTensor), and
imports none of them.

A cochain of arity n is an invertible tensor in host^(tensor n).  The
coboundary interleaves coproduct-leg insertions:

    d(h) = [prod over even i of D_i(h)] * [prod over odd i of D_i(h^-1)]

with i running 0..n+1 in increasing order inside each product, D_0 = unit
on a new leftmost leg, D_{n+1} = unit on a new rightmost leg, and D_i for
1 <= i <= n the coproduct applied at leg i-1.  Cochains carry their
inverses so coboundaries never solve linear systems: the inverse of d(h)
is the reversed product of the leg-inserted inverses (coboundary_inverse).
That inverse costs as many products as d(h) itself, so it is formed only
when a caller needs it: coboundary_pair forms both, for a new cochain; the
checks that compare d(h) against a target call coboundary, which forms
d(h) alone.

For an invertible X, each D_i being an algebra map,

    d(X) = even * odd^-1,  even = D_0(X) D_2(X) ...,  odd = ... D_3(X) D_1(X)

(the even faces in increasing order, the odd ones in decreasing order;
_faces), so d(X) is the unit exactly when even == odd.
"""

from itertools import chain


def _delta_i(t, i):
    n = t.arity
    if i == 0:
        return t.leg_embed(tuple(range(1, n + 1)), n + 1)
    if i == n + 1:
        return t.leg_embed(tuple(range(n)), n + 1)
    return t.coproduct_leg(i - 1)


def _product(factors):
    """The product of a nonempty sequence of tensors, left to right."""
    factors = iter(factors)
    out = next(factors)
    for f in factors:
        out = out.mul(f)
    return out


def _legs(t, indices):
    return (_delta_i(t, i) for i in indices)


def coboundary(value, inverse):
    """d(value) alone, without linear solves: the even leg insertions of
    value in increasing order, then the odd ones of its inverse."""
    n = value.arity
    evens, odds = range(0, n + 2, 2), range(1, n + 2, 2)
    return _product(chain(_legs(value, evens), _legs(inverse, odds)))


def coboundary_inverse(value, inverse):
    """d(value)^-1 without linear solves: the reversed product, the odd
    leg insertions of value in decreasing order, then the even ones of its
    inverse."""
    n = value.arity
    evens, odds = range(0, n + 2, 2), range(1, n + 2, 2)
    return _product(chain(_legs(value, reversed(odds)), _legs(inverse, reversed(evens))))


def coboundary_pair(value, inverse):
    """(d(value), d(value)^-1) without linear solves."""
    return coboundary(value, inverse), coboundary_inverse(value, inverse)


def _faces(X):
    """(even, odd) for an invertible tensor X: the even faces D_0(X) D_2(X)
    ... in increasing order and the odd faces ... D_3(X) D_1(X) in
    decreasing order, so that d(X) = even * odd^-1, each D_i being an
    algebra map.  d(X) is the unit exactly when even equals odd."""
    n = X.arity
    evens, odds = range(0, n + 2, 2), range(1, n + 2, 2)
    return _product(_legs(X, evens)), _product(_legs(X, reversed(odds)))
