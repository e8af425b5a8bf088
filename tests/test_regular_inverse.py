"""Exact tensor inverses over rational group algebras and their duals against
sympy.

The left regular representation of t in H^(tensor n) is built here
independently of the package's kernels, entry by entry from basis_mul leg
by leg, and sympy inverts it over QQ; the inverse of t is that matrix's
inverse applied to the unit.  tensor_invert must give exactly those values,
and raise NotInvertible exactly when sympy finds the matrix singular."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from hopftwist import constructors as con
from hopftwist.errors import NotInvertible
from hopftwist.multilinear import LegTensor, tensor_invert

_GROUPS = {
    "Z2^2": con.elementary_abelian_2(2),
    "Z4": con.cyclic_group(4),
    "S3": con.symmetric_3(),
    "Z2^3": con.elementary_abelian_2(3),
    "D4": con.dihedral_4(),
    "P8": con.pauli_8(),
}
HOSTS = {"k[%s]" % name: con.group_algebra(G) for name, G in _GROUPS.items()}
HOSTS.update(
    {"dual[%s]" % name: con.dual_group_hopf(_GROUPS[name]) for name in ("Z2^2", "S3", "D4")}
)

_COEFFS = [Fraction(c) for c in (1, -1, 2, -2)] + [Fraction(1, 2), Fraction(-3, 2)]


def _regular(host, arity, entries):
    """(matrix, unit) over QQ: column j of the matrix is t * b_j for the
    j-th key of host^(tensor arity), from basis_mul leg by leg; unit is the
    unit of host^(tensor arity)."""
    keys = list(product(range(host.dim), repeat=arity))
    index = {k: i for i, k in enumerate(keys)}
    cols = []
    for kj in keys:
        col = [Fraction(0)] * len(keys)
        for ki, a in entries:
            terms = {(): a}
            for x, y in zip(ki, kj):
                terms = {
                    k + (m,): c * w for k, c in terms.items() for m, w in host.basis_mul(x, y).items()
                }
            for k, c in terms.items():
                col[index[k]] += c
        cols.append(col)
    unit = {(): Fraction(1)}
    for _ in range(arity):
        unit = {k + (m,): c * w for k, c in unit.items() for m, w in host.elem_unit().items()}
    rows = [[QQ(c.numerator, c.denominator) for c in row] for row in zip(*cols)]
    u = [[QQ(unit.get(k, Fraction(0)).numerator, unit.get(k, Fraction(0)).denominator)] for k in keys]
    return (
        DomainMatrix(rows, (len(keys), len(keys)), QQ),
        DomainMatrix(u, (len(keys), 1), QQ),
        keys,
    )


@st.composite
def _cases(draw):
    """A host, an arity 1 or 2 and a tensor with a few small rational terms;
    half of the draws add the unit times more than the sum of the other
    coefficients, which makes them invertible."""
    name = draw(st.sampled_from(sorted(HOSTS)))
    host = HOSTS[name]
    arity = draw(st.integers(1, 2))
    keys = st.integers(0, host.dim**arity - 1)
    entries = draw(st.dictionaries(keys, st.sampled_from(_COEFFS), min_size=1, max_size=6))
    t = LegTensor(host, arity, entries)
    if draw(st.booleans()):
        lead = sum(abs(v) for v in entries.values()) + 1
        t = t.add(LegTensor.unit(host, arity).scale(lead * draw(st.sampled_from([1, -1]))))
    return name, t


@settings(max_examples=60, deadline=None)
@given(_cases())
@example(("dual[S3]", LegTensor(HOSTS["dual[S3]"], 1, {0: 1, 1: 2})))
@example(("k[D4]", LegTensor(HOSTS["k[D4]"], 2, {0: 3, 9: -1, 63: Fraction(1, 2)})))
@example(("k[Z4]", LegTensor(HOSTS["k[Z4]"], 1, {0: 1, 2: 1})))
def test_inverse_matches_sympy_on_the_regular_representation(case):
    _name, t = case
    mat, unit, keys = _regular(t.host, t.arity, t.entries())
    if mat.rank() < len(keys):
        with pytest.raises(NotInvertible):
            tensor_invert(t)
        return
    x = (mat.inv() * unit).to_Matrix()
    want = {k: Fraction(int(v.p), int(v.q)) for k, v in zip(keys, x) if v}
    assert dict(tensor_invert(t).entries()) == want
