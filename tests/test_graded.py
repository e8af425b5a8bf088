"""Graded algebras: strong grading, canonical map, crossed products,
component checks, weight-vector laws."""

import time
from fractions import Fraction
from itertools import product

import pytest

from hopftwist.batteries import verify_algebra
from hopftwist.constructors import cyclic_group, group_algebra
from hopftwist.errors import (
    HopftwistError,
    NotAction,
    NotAutomorphism,
    NotHomogeneous,
    SchemaError,
    SolveTooCostly,
)
from hopftwist.graded import (
    GradedAlgebra,
    UnityResolution,
    ZWindow,
    battery,
    canonical_map,
    crossed_product,
    group_graded,
    ideal_property_report,
    laurent_window_graded,
    matrix_algebra_2x2,
    resolution_of_unity,
    smeb_check,
    strong_grading,
    window_battery,
    window_products_report,
)
from hopftwist.multilinear import AlgebraPresentation, with_series_ring
from hopftwist.weights import (
    WeightVector,
    is_coprime,
    is_pairwise_coprime,
    sharp,
    sharp_laws,
)
from hopftwist.scalars import Cyclotomic, ScalarRing, field_rank, field_solve, root_of_unity

BATTERY = battery()
WINDOWS = window_battery()


# --- four-way equivalence -------------------------------------------------


@pytest.mark.parametrize("name,graded,expect", BATTERY, ids=[b[0] for b in BATTERY])
def test_four_way_equivalence(name, graded, expect):
    sg = strong_grading(graded)
    assert sg.strong == expect
    # resolutions exist in every degree iff strong
    have_all = all(
        resolution_of_unity(graded, g) is not None
        for g in range(graded.grading.order)
    )
    assert have_all == expect
    assert canonical_map(graded).bijective == expect
    smeb_ok = all(
        c.ok for g in range(graded.grading.order) for c in smeb_check(graded, g)
    )
    assert smeb_ok == expect
    if not expect:
        assert sg.failing is not None


@pytest.mark.parametrize("name,graded,expect", WINDOWS, ids=[b[0] for b in WINDOWS])
def test_window_equivalence(name, graded, expect):
    assert strong_grading(graded).strong == expect
    smeb_ok = all(c.ok for g in (1, -1) for c in smeb_check(graded, g))
    assert smeb_ok == expect


def test_window_component_induction():
    ga = laurent_window_graded(2)
    assert window_products_report(ga).ok
    with pytest.raises(ValueError):
        window_products_report(group_graded(cyclic_group(2)))


@pytest.mark.parametrize("name,graded,expect", BATTERY, ids=[b[0] for b in BATTERY])
def test_component_products_are_ideals(name, graded, expect):
    # holds regardless of strongness
    assert ideal_property_report(graded).ok


def test_component_products_ideal_counts_each_side_and_names_the_first():
    # k[y]/(y^4) graded by the parity of the degree, with y^2 y^2 = 1: the
    # degree-1 products span y^2 alone, and 1 . y^2 stays in that span
    # while y^2 . y^2 leaves it on both sides
    labels = ["1", "y", "y^2", "y^3"]
    mult = {(i, j): {i + j: 1} for i in range(4) for j in range(4) if i + j < 4}
    mult[(2, 2)] = {0: 1}
    A = AlgebraPresentation(4, labels, ScalarRing(), mult, [1, 0, 0, 0])
    ck = ideal_property_report(GradedAlgebra(A, cyclic_group(2), [0, 1, 0, 1]))
    assert (ck.status, ck.residual_term_count, ck.witness) == ("fail", 2, "degree 1 via y^2")


def test_smeb_reports_carry_witnesses():
    _, ga, _ = BATTERY[2]  # dual numbers, not strong
    checks = smeb_check(ga, 1)
    ids = [c.id for c in checks]
    assert ids == ["smeb-mult-bijective", "smeb-inverse-roundtrip", "smeb-compat"]
    assert not checks[0].ok and checks[0].witness
    assert not checks[1].ok


# --- resolutions ----------------------------------------------------------


def test_cyclic3_resolution_is_inverse_pair():
    ga = group_graded(cyclic_group(3))
    res = resolution_of_unity(ga, 1)
    assert res is not None and len(res) == 1
    xi, eta = res.pairs[0]
    assert xi == {2: Fraction(1)} and eta == {1: Fraction(1)}


def test_resolution_validates_pairs():
    ga = group_graded(cyclic_group(3))
    with pytest.raises(ValueError):
        UnityResolution(1, [({2: Fraction(2)}, {1: Fraction(1)})], ga.algebra)


def test_resolution_none_for_empty_component():
    _, ga, _ = WINDOWS[1]  # poly window, no negative degrees
    assert resolution_of_unity(ga, -1) is None


def _cyclotomic_graded(doc_mult, dim, group, degree):
    from hopftwist.io_json import graded_from_dict, group_to_dict

    return graded_from_dict(
        {
            "dim": dim,
            "basis": ["u%d" % i for i in range(dim)],
            "unit": ["1"] + ["0"] * (dim - 1),
            "mult": doc_mult,
            "grading": {"group": group_to_dict(group)},
            "degree": degree,
        }
    )


def _twisted_z3xz3():
    # k^alpha[Z3 x Z3], u_(a,b) u_(c,d) = z3^(b*c) u_(a+c, b+d), graded by
    # the group itself; basis index a*3 + b is the group's own index
    from hopftwist.constructors import direct_product

    mult = {}
    for a, b, c, d in product(range(3), repeat=4):
        coeff = "z(3,%d)" % (b * c % 3) if b * c % 3 else "1"
        mult["%d,%d" % (a * 3 + b, c * 3 + d)] = [[(a + c) % 3 * 3 + (b + d) % 3, coeff]]
    G = direct_product(cyclic_group(3), cyclic_group(3))
    return _cyclotomic_graded(mult, 9, G, list(range(9)))


def test_cyclotomic_twisted_group_algebra_is_strong():
    # every u_g of a twisted group algebra is a unit, so the grading is
    # strong and the canonical map bijective; A_(g^-1) and A_g are lines,
    # so the resolution of unity is u_(g^-1) u_g scaled by
    # alpha(g^-1, g)^-1 = z3^(a*b)
    ga = _twisted_z3xz3()
    assert isinstance(ga.algebra.basis_mul(1, 3)[4], Cyclotomic)
    assert strong_grading(ga).strong
    cm = canonical_map(ga)
    assert (cm.dim_source, cm.dim_target, cm.rank, cm.bijective) == (81, 81, 81, True)
    for a, b in product(range(3), repeat=2):
        g, ginv = a * 3 + b, (-a % 3) * 3 + (-b % 3)
        res = resolution_of_unity(ga, g)
        assert len(res) == 1
        xi, eta = res.pairs[0]
        assert xi == {ginv: root_of_unity(a * b, 3)} and eta == {g: 1}
        assert all(c.ok for c in smeb_check(ga, g))
    assert ideal_property_report(ga).ok


def test_decisions_over_a_large_conductor_are_decided_or_refused_at_once():
    # k^alpha[Z3 x Z3] with alpha = z(997, b*c): a system over Q(z_997)
    # expands each entry into a 996 x 996 block.  The zero rows of the 9 x 1
    # systems of strong_grading and smeb_check are dropped before pricing,
    # so those decisions are made; canonical_map's 81 x 81 system is still
    # priced past the cap before a block is built
    from hopftwist.constructors import direct_product

    mult = {}
    for a, b, c, d in product(range(3), repeat=4):
        coeff = "z(997,%d)" % (b * c) if b * c else "1"
        mult["%d,%d" % (a * 3 + b, c * 3 + d)] = [[(a + c) % 3 * 3 + (b + d) % 3, coeff]]
    G = direct_product(cyclic_group(3), cyclic_group(3))
    ga = _cyclotomic_graded(mult, 9, G, list(range(9)))
    start = time.perf_counter()
    assert strong_grading(ga).strong
    assert time.perf_counter() - start < 1
    start = time.perf_counter()
    assert all(c.ok for c in smeb_check(ga, 4))
    assert time.perf_counter() - start < 1
    start = time.perf_counter()
    with pytest.raises(SolveTooCostly, match="Q\\(z_997\\) priced at .* past the cap"):
        canonical_map(ga)
    assert time.perf_counter() - start < 1
    assert issubclass(SolveTooCostly, HopftwistError)


def test_one_by_one_system_over_a_large_conductor_is_decided(monkeypatch):
    # smeb_check at degree (1,1) of the algebra above ranks the 1 x 1
    # product system u_(2,2) u_(1,1) = z(997, 2) u_0: one zero test, not a
    # 996 x 996 expansion priced past the cap; solving it inverts the one
    # term z(997, 2) as z(997, 995), with no elimination
    from hopftwist import scalars
    from hopftwist.constructors import direct_product

    mult = {}
    for a, b, c, d in product(range(3), repeat=4):
        coeff = "z(997,%d)" % (b * c) if b * c else "1"
        mult["%d,%d" % (a * 3 + b, c * 3 + d)] = [[(a + c) % 3 * 3 + (b + d) % 3, coeff]]
    G = direct_product(cyclic_group(3), cyclic_group(3))
    A = _cyclotomic_graded(mult, 9, G, list(range(9))).algebra
    row = [Fraction(0)]
    for _k, c in A.basis_mul(8, 4).items():
        row[0] += c
    assert row[0].root is None and len(row[0].coords) == 1
    monkeypatch.setattr(scalars, "solve_columns", None)
    start = time.perf_counter()
    assert field_rank([row]) == 1
    (x,) = field_solve([row], [Fraction(1)])
    assert time.perf_counter() - start < 1
    assert x * row[0] == 1 and x == root_of_unity(995, 997)
    assert field_solve([[Cyclotomic(997, {})]], [row[0]]) is None


def test_cyclotomic_truncated_polynomial_is_not_strong():
    # k[x]/(x^3), x * x = z3 x^2, graded by Z3: x is nilpotent, so no
    # degree-1 element has an inverse and the grading is not strong
    mult = {"0,0": [[0, "1"]], "0,1": [[1, "1"]], "1,0": [[1, "1"]],
            "0,2": [[2, "1"]], "2,0": [[2, "1"]], "1,1": [[2, "z(3,1)"]]}
    ga = _cyclotomic_graded(mult, 3, cyclic_group(3), [0, 1, 2])
    res = strong_grading(ga)
    assert not res.strong and res.failing == 1
    assert not canonical_map(ga).bijective
    assert not all(c.ok for c in smeb_check(ga, 1))


def test_canonical_map_dimensions_for_group_algebra():
    cm = canonical_map(group_graded(cyclic_group(2)))
    assert (cm.dim_source, cm.dim_target, cm.rank) == (4, 4, 4)
    with pytest.raises(ValueError):
        canonical_map(laurent_window_graded(2))


# --- homogeneity validation -----------------------------------------------


def test_wrong_degree_assignment_rejected():
    # unit placed in a nontrivial degree
    with pytest.raises(NotHomogeneous):
        GradedAlgebra(
            group_graded(cyclic_group(2)).algebra, cyclic_group(2), [1, 0]
        )
    # E01*E10 = E00 would need degree 0 on E10
    with pytest.raises(NotHomogeneous):
        GradedAlgebra(matrix_algebra_2x2(), cyclic_group(2), [0, 1, 1, 1])


def test_degree_length_mismatch():
    with pytest.raises(ValueError):
        GradedAlgebra(
            group_graded(cyclic_group(2)).algebra, cyclic_group(2), [0]
        )


def test_window_degree_out_of_range():
    ring = ScalarRing()
    A = AlgebraPresentation(1, ["1"], ring, {(0, 0): {0: 1}}, [1])
    with pytest.raises(ValueError):
        GradedAlgebra(A, ZWindow(1), [2])


def test_window_escaping_product_rejected():
    # t*t would land in degree 2, outside a radius-1 window, yet is nonzero
    ring = ScalarRing()
    A = AlgebraPresentation(
        2, ["1", "t"], ring, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 1}}, [1, 0]
    )
    with pytest.raises(NotHomogeneous):
        GradedAlgebra(A, ZWindow(1), [0, 1])


# --- crossed products -----------------------------------------------------


def test_crossed_products_verify_as_algebras():
    for name, ga, _ in BATTERY:
        if "crossed" in name:
            for ck in verify_algebra(ga.algebra):
                assert ck.ok, ck.id


def test_crossed_product_rejects_singular_map():
    B = matrix_algebra_2x2()
    bad = [{0: 1}, {1: 1}, {2: 1}, {0: 1}]
    with pytest.raises(NotAutomorphism):
        crossed_product(
            B, cyclic_group(2), {0: [{i: 1} for i in range(4)], 1: bad}
        )


def test_crossed_product_takes_a_cyclotomic_automorphism():
    # alpha_g(x_k) = z3^(g k) x_k on k[Z3], a character twist, is ranked
    # over Q(z_3), not by the rational linalg.rank, which takes no
    # Cyclotomic entry: the product is strongly graded and its canonical
    # map bijective, 27 -> 27; a cyclotomic map that is singular or not
    # multiplicative is refused
    Z3 = cyclic_group(3)
    B = group_algebra(Z3)
    z = lambda k: root_of_unity(k, 3)
    ga = crossed_product(B, Z3, {g: [{0: 1}, {1: z(g)}, {2: z(2 * g)}] for g in range(3)})
    assert strong_grading(ga).strong
    cm = canonical_map(ga)
    assert (cm.dim_source, cm.dim_target, cm.rank, cm.bijective) == (27, 27, 27, True)
    ident = [{0: 1}, {1: 1}, {2: 1}]
    for bad in ([{0: 1}, {1: z(1)}, {1: z(2)}], [{0: 1}, {1: z(1)}, {2: z(1)}]):
        with pytest.raises(NotAutomorphism):
            crossed_product(B, Z3, {0: ident, 1: bad, 2: bad})


def test_crossed_product_over_a_series_ring_is_a_schema_error():
    # the automorphism check ranks over Q(z_N), which holds no Series: the
    # identity map on k[Z3] over series to h^2 is refused with SchemaError,
    # not an AttributeError from inside the solve
    B = with_series_ring(group_algebra(cyclic_group(3)), 2)
    one = B.ring.one()
    with pytest.raises(SchemaError) as err:
        crossed_product(B, cyclic_group(2), {g: [{i: one} for i in range(3)] for g in range(2)})
    assert "not Series" in str(err.value)


def test_crossed_product_rejects_nonunital_map():
    ring = ScalarRing()
    B = AlgebraPresentation(
        2, ["p", "q"], ring, {(0, 0): {0: 1}, (1, 1): {1: 1}}, [1, 1]
    )
    scale = [{0: 2}, {1: 1}]
    with pytest.raises(NotAutomorphism):
        crossed_product(
            B, cyclic_group(2), {0: [{0: 1}, {1: 1}], 1: scale}
        )


def test_crossed_product_rejects_nonmultiplicative_map():
    ring = ScalarRing()
    B = AlgebraPresentation(
        2, ["p", "q"], ring, {(0, 0): {0: 1}, (1, 1): {1: 1}}, [1, 1]
    )
    # unit-preserving bijection that is not an algebra map
    shear = [{0: 1, 1: -1}, {1: 2}]
    with pytest.raises(NotAutomorphism):
        crossed_product(B, cyclic_group(2), {0: [{0: 1}, {1: 1}], 1: shear})


def test_crossed_product_rejects_bad_action():
    ring = ScalarRing()
    B = AlgebraPresentation(
        2, ["p", "q"], ring, {(0, 0): {0: 1}, (1, 1): {1: 1}}, [1, 1]
    )
    ident = [{0: 1}, {1: 1}]
    swap = [{1: 1}, {0: 1}]
    with pytest.raises(NotAction):
        crossed_product(B, cyclic_group(2), {0: swap, 1: ident})
    with pytest.raises(NotAction):
        crossed_product(B, cyclic_group(3), {0: ident, 1: swap, 2: ident})
    with pytest.raises(NotAction):
        crossed_product(B, cyclic_group(2), {0: ident})


# --- weight vectors -------------------------------------------------------


def test_sharp_frozen_examples():
    assert sharp((1, 2, 3)) == (6, 3, 2)
    assert sharp(sharp((1, 2, 3))) == (6, 12, 18)  # 6 * (1,2,3)
    assert sharp((5, 7)) == (7, 5)  # length 2 swaps
    assert sharp((4,)) == (1,)


def test_sharp_coprimality_negative_example():
    s = sharp((2, 4))
    assert not is_coprime(s)
    assert not is_pairwise_coprime((2, 4))
    assert is_pairwise_coprime((2, 3, 5))
    assert is_coprime(sharp((2, 3, 5)))


def test_sharp_laws_exhaustive_small():
    # all entries up to 4, lengths 1 through 4
    for n in range(1, 5):
        for entries in product(range(1, 5), repeat=n):
            for c in sharp_laws(entries):
                assert c.ok, (entries, c.id)


def test_sharp_single_entry_rescale_is_fractional():
    (ok1, ok2) = sharp_laws((3,))
    assert ok1.ok and ok2.ok
    assert sharp(sharp((3,))) == (1,)  # k = 1/3 times the original


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        WeightVector(())
    with pytest.raises(ValueError):
        WeightVector((0, 2))
    with pytest.raises(ValueError):
        WeightVector((-1,))
