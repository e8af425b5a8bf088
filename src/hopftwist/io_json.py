"""JSON and CSV serialization for every on-disk object.

All scalar coefficients travel as exact grammar strings (integers,
rationals, roots of unity z(N,k), tau, and the formal h), never floats.
Loaders raise SchemaError naming the offending field (for malformed scalar
text it quotes the string and the column inside it), or ParseError with line
and column for malformed JSON text; dumpers emit a canonical
key-sorted layout so that dump(load(x)) == x for canonical files.
"""

import json
from fractions import Fraction
from math import lcm

from .constructors import ChainComplexWindow
from .errors import NotAComplex, NotHomogeneous, ParseError, SchemaError
from .graded import GradedAlgebra, ZWindow
from .grammar import hbar_valuation_bound, parse, render
from .group_cohomology import GroupCochain, fano_octonions
from .heis_torus import HeisElement
from .multilinear import AlgebraPresentation, FiniteGroup, HopfPresentation, LegTensor
from .scalars import (
    Cyclotomic,
    ScalarRing,
    Series,
    TauLaurent,
    _conductor,
    _field_columns,
    _phi_deg,
    columns_rank,
    field_rank,
    solve_work,
)
from .suites import _THETA_ORDER_CAP


def _scalar(v, hbar_order, field):
    if isinstance(v, bool) or isinstance(v, float):
        raise SchemaError("coefficients must be grammar strings", field)
    if isinstance(v, int):
        return Fraction(v)
    if not isinstance(v, str):
        raise SchemaError("coefficients must be grammar strings", field)
    try:
        x = parse(v, hbar_order)
    except ParseError as e:
        # the position is inside the string, not inside the file
        where = "column %d" % e.column
        if e.line > 1:
            where = "line %d, %s" % (e.line, where)
        raise SchemaError("%s at %s of %r" % (e.message, where, v), field)
    if hbar_order is None and isinstance(x, TauLaurent):
        if any(x.terms):  # a power of tau other than tau^0
            raise SchemaError("power of tau in an exact ring: %r" % v, field)
        return x.terms.get(0, Fraction(0))
    return x


def _field(doc, name, kinds=None):
    if not isinstance(doc, dict) or name not in doc:
        raise SchemaError("missing field", name)
    v = doc[name]
    # JSON true and false are bools, which Python counts as ints
    if kinds is not None and (isinstance(v, bool) or not isinstance(v, kinds)):
        raise SchemaError("wrong type", name)
    return v


def _index_key(text, count, field, dim):
    try:
        parts = tuple(int(p) for p in str(text).split(","))
    except ValueError:
        raise SchemaError("bad index key %r" % (text,), field)
    if len(parts) != count or not all(0 <= p < dim for p in parts):
        raise SchemaError("bad index key %r" % (text,), field)
    return parts


def _conductors(value, out):
    """Append the conductors of the non-rational cyclotomic values within
    value: a rational value held at a conductor is written as a rational,
    so its conductor is not the document's."""
    if isinstance(value, Cyclotomic):
        if not value.is_rational():
            out.append(value.conductor)
    elif isinstance(value, TauLaurent):
        for v in value.terms.values():
            _conductors(v, out)
    elif isinstance(value, Series):
        for v in value.coeffs:
            _conductors(v, out)


def _conductor_of(values):
    found = []
    for v in values:
        _conductors(v, found)
    return lcm(*found) if found else None


# Cap on scalars.solve_work, the one estimate of an exact solve, for the
# antipode check over a cyclotomic field (see _invertible): m^3 * g for the
# m = n * phi(N) rows of the expansion.  It is below scalars'
# _MAX_SOLVE_WORK as it bounds outside input at load time.  As single
# field_rank calls on a shared 2-core x86 host, dense expansions of m from
# 32 to 384 took 0.6-4.5e-7 s per unit of the estimate (m = 192 at N =
# 420: 1.3 s), so the cap allows about 2-4 s.  A rational matrix is not
# priced: it is no larger than the document that writes it.
_MAX_EXPANSION_WORK = 10**7


def _components(mat):
    """(rows, columns) of each connected part of a square matrix's nonzero
    pattern, the graph joining row i to column j where mat[i][j] != 0.  The
    matrix is nonsingular exactly when every part is square and
    nonsingular."""
    n = len(mat)
    parent = list(range(2 * n))  # row i is node i, column j is node n + j

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for i, row in enumerate(mat):
        for j, v in enumerate(row):
            if v:
                parent[find(i)] = find(n + j)
    parts = {}
    for x in range(2 * n):
        parts.setdefault(find(x), ([], []))[x >= n].append(x % n)
    return parts.values()


def _invertible(rows):
    """Whether the square matrix of an antipode is invertible, decided as:
    its h^0 part, with tau set to 1, is nonsingular over Q(z_N), N the lcm
    of its conductors.  A matrix invertible over the Laurent series ring has
    determinant c * tau^m with c != 0 at h^0, so it passes; one that passes
    has a determinant that is not the zero polynomial in tau.  The rule is
    "nonzero at tau = 1", not formal invertibility: [[1+tau]] passes,
    [[tau-1]] does not.

    Each connected part of the nonzero pattern (_components) is decided on
    its own: a single entry is nonzero, and a larger square part is ranked
    over Q(z_N).  A part at N = 1 goes to scalars.field_rank.  Any other
    part has its integer columns built and priced once, with the one
    estimate, scalars.solve_work, against the lower load-time cap
    _MAX_EXPANSION_WORK (a SchemaError past it); under that cap the solve
    cap of field_rank cannot be reached, so scalars.columns_rank ranks the
    same columns with no second price."""
    mat = []
    for row in rows:
        out = []
        for v in row:
            if isinstance(v, Series):
                v = v.coeffs[0]
            if isinstance(v, TauLaurent):
                v = sum(v.terms.values(), Fraction(0))
            out.append(v)
        mat.append(out)
    for part_rows, part_cols in _components(mat):
        if len(part_rows) != len(part_cols):
            return False
        if len(part_rows) == 1:
            continue
        part = [[mat[i][j] for j in part_cols] for i in part_rows]
        N = _conductor(part)
        if N > 1:
            cols, bits = _field_columns(part, N)
            m = len(part) * _phi_deg(N)
            work = solve_work(len(part), len(part), N, bits)
            if work > _MAX_EXPANSION_WORK:
                raise SchemaError(
                    "antipode check too costly: %d x %d rational expansion "
                    "over Q(z_%d), estimated work %.1e" % (m, m, N, work),
                    "antipode",
                )
            rank = columns_rank(cols, len(part), N)
        else:
            rank = field_rank(part)
        if rank != len(part):
            return False
    return True


# ---------------------------------------------------------------------------
# presentations


def presentation_from_dict(doc):
    """Algebra, bialgebra or Hopf presentation from its JSON object."""
    dim = _field(doc, "dim", int)
    if dim < 1:
        raise SchemaError("dimension must be positive", "dim")
    scalar = doc.get("scalar") or {}
    if not isinstance(scalar, dict):
        raise SchemaError("wrong type", "scalar")
    hbar = scalar.get("hbar_order")
    if hbar is not None and (
        isinstance(hbar, bool) or not isinstance(hbar, int) or not 0 <= hbar <= _THETA_ORDER_CAP
    ):
        raise SchemaError(
            "hbar_order must be an integer from 0 to %d, or null" % _THETA_ORDER_CAP, "scalar"
        )
    ring = ScalarRing(hbar_order=hbar)

    basis = _field(doc, "basis", list)
    if len(basis) != dim:
        raise SchemaError("basis length differs from dim", "basis")
    unit_raw = _field(doc, "unit", list)
    if len(unit_raw) != dim:
        raise SchemaError("unit length differs from dim", "unit")
    unit = [_scalar(v, hbar, "unit") for v in unit_raw]

    mult = {}
    for key, cell in _field(doc, "mult", dict).items():
        i, j = _index_key(key, 2, "mult", dim)
        if not isinstance(cell, list):
            raise SchemaError("mult cells must be [index, coeff] lists", "mult")
        d = {}
        for ent in cell:
            if not (isinstance(ent, list) and len(ent) == 2):
                raise SchemaError("mult cells must be [index, coeff] lists", "mult")
            k = ent[0]
            if not isinstance(k, int) or not 0 <= k < dim:
                raise SchemaError("bad target index %r" % (k,), "mult")
            d[k] = _scalar(ent[1], hbar, "mult")
        mult[(i, j)] = d

    if "coproduct" not in doc:
        return AlgebraPresentation(dim, basis, ring, mult, unit)

    cop = {}
    for key, cell in _field(doc, "coproduct", dict).items():
        (i,) = _index_key(key, 1, "coproduct", dim)
        if not isinstance(cell, list):
            raise SchemaError("coproduct cells must be [j, k, coeff] lists", "coproduct")
        d = {}
        for ent in cell:
            if not (isinstance(ent, list) and len(ent) == 3):
                raise SchemaError("coproduct cells must be [j, k, coeff] lists", "coproduct")
            j, k = ent[0], ent[1]
            ok = isinstance(j, int) and isinstance(k, int)
            if not ok or not (0 <= j < dim and 0 <= k < dim):
                raise SchemaError("bad tensor index (%r,%r)" % (j, k), "coproduct")
            d[(j, k)] = _scalar(ent[2], hbar, "coproduct")
        cop[i] = d

    counit_raw = _field(doc, "counit", list)
    if len(counit_raw) != dim:
        raise SchemaError("counit length differs from dim", "counit")
    counit = [_scalar(v, hbar, "counit") for v in counit_raw]

    antipode = doc.get("antipode")
    if antipode is not None:
        if not (isinstance(antipode, list) and len(antipode) == dim):
            raise SchemaError("antipode must be a dim x dim matrix", "antipode")
        rows = []
        for row in antipode:
            if not (isinstance(row, list) and len(row) == dim):
                raise SchemaError("antipode must be a dim x dim matrix", "antipode")
            rows.append([_scalar(v, hbar, "antipode") for v in row])
        if not _invertible(rows):
            raise SchemaError("antipode matrix is not invertible", "antipode")
        antipode = rows

    return HopfPresentation(
        dim,
        basis,
        ring,
        mult,
        unit,
        cop,
        counit,
        antipode,
        name=doc.get("name"),
    )


def presentation_to_dict(pres):
    values = list(pres.unit)
    for cell in pres.mult.values():
        values.extend(cell.values())
    doc = {
        "name": getattr(pres, "name", None),
        "dim": pres.dim,
        "basis": list(pres.labels),
        "unit": [render(v) for v in pres.unit],
        "mult": {
            "%d,%d" % ij: [[k, render(v)] for k, v in sorted(cell.items())]
            for ij, cell in sorted(pres.mult.items())
        },
    }
    if isinstance(pres, HopfPresentation):
        for cell in pres.coproduct.values():
            values.extend(cell.values())
        values.extend(pres.counit)
        doc["coproduct"] = {
            "%d" % i: [[j, k, render(v)] for (j, k), v in sorted(cell.items())]
            for i, cell in sorted(pres.coproduct.items())
        }
        doc["counit"] = [render(v) for v in pres.counit]
        if pres.antipode is None:
            doc["antipode"] = None
        else:
            for row in pres.antipode:
                values.extend(row)
            doc["antipode"] = [[render(v) for v in row] for row in pres.antipode]
        # read from the tables; presentation_from_dict ignores both fields
        doc["commutative"] = pres.product_commutes()
        doc["cocommutative"] = pres.coproduct_cocommutes()
    doc["scalar"] = {
        "conductor": _conductor_of(values),
        "hbar_order": pres.ring.hbar_order,
    }
    return doc


# ---------------------------------------------------------------------------
# groups, cochains, complexes


def group_from_dict(doc):
    order = _field(doc, "order", int)
    table = _field(doc, "table", list)
    labels = doc.get("labels")
    try:
        return FiniteGroup(order, table, labels)
    except (ValueError, TypeError, IndexError) as e:
        raise SchemaError(str(e), "table")


def group_to_dict(group):
    return {
        "order": group.order,
        "table": [list(row) for row in group.table],
        "labels": list(group.labels),
    }


def group_cochain_from_dict(doc):
    group = group_from_dict(_field(doc, "group", dict))
    arity = _field(doc, "arity", int)
    table = {}
    for key, expr in _field(doc, "table", dict).items():
        idx = _index_key(key, arity, "table", group.order)
        table[idx] = _scalar(expr, None, "table")
    try:
        return GroupCochain(group, arity, table)
    except ValueError as e:
        raise SchemaError(str(e), "table")


def group_cochain_to_dict(cochain):
    return {
        "group": group_to_dict(cochain.group),
        "arity": cochain.arity,
        "table": {
            ",".join(str(g) for g in key): render(v)
            for key, v in sorted(cochain.table.items())
        },
    }


def chain_from_dict(doc):
    dims_raw = _field(doc, "dims", dict)
    dims = {}
    for key, v in dims_raw.items():
        try:
            n = int(key)
        except ValueError:
            raise SchemaError("degrees must be integers", "dims")
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            raise SchemaError("dimensions must be nonnegative integers", "dims")
        dims[n] = v
    d = {}
    for key, mat in _field(doc, "d", dict).items():
        try:
            n = int(key)
        except ValueError:
            raise SchemaError("degrees must be integers", "d")
        rows, cols = dims.get(n, 0), dims.get(n - 1, 0)
        if not (
            isinstance(mat, list)
            and len(mat) == rows
            and all(isinstance(row, list) and len(row) == cols for row in mat)
        ):
            raise SchemaError("d[%d] must be a dense %d x %d matrix" % (n, rows, cols), "d")
        d[n] = [[_scalar(v, None, "d") for v in row] for row in mat]
    try:
        return ChainComplexWindow(dims, d)
    except (NotAComplex, ValueError, TypeError, IndexError) as e:
        raise SchemaError(str(e), "d")


def chain_to_dict(complex_):
    return {
        "dims": {str(n): complex_.dims[n] for n in sorted(complex_.dims)},
        "d": {
            str(n): [[render(v) for v in row] for row in complex_.d[n]]
            for n in sorted(complex_.d)
        },
    }


# ---------------------------------------------------------------------------
# tensors over a presentation


def leg_tensor_from_dict(doc):
    host = presentation_from_dict(_field(doc, "host", dict))
    arity = _field(doc, "arity", int)
    if arity < 1:
        raise SchemaError("arity must be positive", "arity")
    entries = {}
    hbar = host.ring.hbar_order
    for key, expr in _field(doc, "entries", dict).items():
        idx = _index_key(key, arity, "entries", host.dim)
        entries[idx] = _scalar(expr, hbar, "entries")
    return LegTensor(host, arity, entries)


def leg_tensor_to_dict(tensor):
    return {
        "host": presentation_to_dict(tensor.host),
        "arity": tensor.arity,
        "entries": {
            ",".join(str(i) for i in key): render(v)
            for key, v in tensor.entries()
        },
    }


# ---------------------------------------------------------------------------
# graded algebras


def graded_from_dict(doc):
    algebra = presentation_from_dict(doc)
    grading_doc = _field(doc, "grading", dict)
    if "group" in grading_doc:
        grading = group_from_dict(grading_doc["group"])
    elif "window" in grading_doc:
        radius = grading_doc["window"]
        if isinstance(radius, bool) or not isinstance(radius, int) or radius < 1:
            raise SchemaError("window radius must be a positive integer", "grading")
        grading = ZWindow(radius)
    else:
        raise SchemaError("grading needs a group or a window", "grading")
    degree = _field(doc, "degree", list)
    if len(degree) != algebra.dim:
        raise SchemaError("degree length differs from dim", "degree")
    if not all(isinstance(d, int) and not isinstance(d, bool) for d in degree):
        raise SchemaError("degrees must be integers", "degree")
    if isinstance(grading, FiniteGroup):
        if not all(0 <= d < grading.order for d in degree):
            raise SchemaError("degree index outside the group", "degree")
    try:
        return GradedAlgebra(algebra, grading, degree)
    except (NotHomogeneous, ValueError) as e:
        raise SchemaError(str(e), "degree")


def graded_to_dict(graded):
    doc = presentation_to_dict(graded.algebra)
    if isinstance(graded.grading, ZWindow):
        doc["grading"] = {"window": graded.grading.radius}
    else:
        doc["grading"] = {"group": group_to_dict(graded.grading)}
    doc["degree"] = list(graded.degree)
    return doc


# ---------------------------------------------------------------------------
# nilmanifold elements


def heis_from_list(items, order):
    if not isinstance(items, list):
        raise SchemaError("expected a list of monomials", "")
    out = HeisElement.zero(order)
    for item in items:
        if not isinstance(item, dict):
            raise SchemaError("monomials must be objects", "")
        m = _field(item, "m", int)
        n = _field(item, "n", int)
        p = _field(item, "p", int)
        if p < 0:
            raise SchemaError("y-power must be nonnegative", "p")
        c_raw = item.get("c", "0")
        if isinstance(c_raw, float) or not isinstance(c_raw, (int, str)):
            raise SchemaError("bad rational %r" % (c_raw,), "c")
        try:
            c = Fraction(c_raw)
        except (ValueError, ZeroDivisionError):
            raise SchemaError("bad rational %r" % (c_raw,), "c")
        coeff = _scalar(_field(item, "coeff", (int, str)), order, "coeff")
        out = out.add(HeisElement(order, {(m, n, p, c): coeff}))
    return out


def _heis_order(items):
    """The order at which the coefficients of a nilmanifold list are told
    from zero: the largest hbar_valuation_bound of its coefficient strings,
    0 when there are none.  A text the bound cannot read is left to
    heis_from_list to reject; a bound past _THETA_ORDER_CAP is a
    SchemaError."""
    order = 0
    for item in items:
        if isinstance(item, dict) and isinstance(item.get("coeff"), str):
            try:
                order = max(order, hbar_valuation_bound(item["coeff"]))
            except ParseError:
                pass
    if order > _THETA_ORDER_CAP:
        raise SchemaError(
            "coefficient needs hbar order %d, past the cap of %d"
            % (order, _THETA_ORDER_CAP),
            "coeff",
        )
    return order


def heis_to_list(elem):
    return [
        {
            "m": m,
            "n": n,
            "p": p,
            "c": str(c),
            "coeff": render(s),
        }
        for (m, n, p, c), s in sorted(elem.data.items())
    ]


# ---------------------------------------------------------------------------
# octonion table


def octonion_table_rows():
    """All 64 basis products e_i e_j = sign * e_k as (i, j, k, sign)."""
    _, _, oct_algebra = fano_octonions()
    rows = []
    for i in range(8):
        for j in range(8):
            cell = oct_algebra.basis_mul(i, j)
            ((k, v),) = cell.items()
            rows.append((i, j, k, 1 if v > 0 else -1))
    return rows


def octonion_table_csv():
    lines = ["i,j,k,sign"]
    lines.extend("%d,%d,%d,%d" % row for row in octonion_table_rows())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# files and document detection


def load_json_file(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        raise ParseError("file is not UTF-8 text", line, e.start - raw.rfind(b"\n", 0, e.start))
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, e.lineno, e.colno)
    except RecursionError:
        raise ParseError("JSON nested too deeply to decode", 1, 1)


def dump_json(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def describe_doc(doc):
    """Human-readable summary lines for any recognized document."""
    if isinstance(doc, list):
        elem = heis_from_list(doc, _heis_order(doc))
        return [
            "nilmanifold element: %d monomials" % elem.term_count(),
            "degrees: %s" % (elem.degrees(),),
        ]
    if not isinstance(doc, dict):
        raise SchemaError("unrecognized document shape", "")
    if "entries" in doc:
        t = leg_tensor_from_dict(doc)
        return [
            "tensor over %s" % getattr(t.host, "name", None),
            "arity: %d" % t.arity,
            "terms: %d" % t.term_count(),
        ]
    if "group" in doc and "table" in doc:
        c = group_cochain_from_dict(doc)
        return [
            "group cochain of arity %d" % c.arity,
            "group order: %d" % c.group.order,
            "values: %d" % len(c.table),
        ]
    if "order" in doc and "table" in doc:
        g = group_from_dict(doc)
        return [
            "finite group of order %d" % g.order,
            "abelian: %s" % g.is_abelian(),
            "center size: %d" % len(g.center()),
        ]
    if "dims" in doc:
        c = chain_from_dict(doc)
        return [
            "chain complex window",
            "degrees: %s" % (sorted(c.degrees()),),
            "dimensions: %s" % ([c.dims[n] for n in sorted(c.degrees())],),
        ]
    if "degree" in doc and "mult" in doc:
        ga = graded_from_dict(doc)
        kind = (
            "window radius %d" % ga.grading.radius
            if isinstance(ga.grading, ZWindow)
            else "group of order %d" % ga.grading.order
        )
        return [
            "graded algebra of dimension %d" % ga.algebra.dim,
            "grading: %s" % kind,
            "degrees used: %s" % (sorted(set(ga.degree)),),
        ]
    if "mult" in doc:
        pres = presentation_from_dict(doc)
        if isinstance(pres, HopfPresentation):
            kind = "hopf algebra" if pres.antipode is not None else "bialgebra"
        else:
            kind = "algebra"
        hbar = pres.ring.hbar_order
        return [
            "%s %r" % (kind, getattr(pres, "name", None) or "(unnamed)"),
            "dimension: %d" % pres.dim,
            "scalars: %s"
            % ("exact" if hbar is None else "series to h^%d" % hbar),
        ]
    raise SchemaError("unrecognized document shape", "")
