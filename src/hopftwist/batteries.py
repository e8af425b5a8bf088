"""The axiom batteries: exhaustive checks of the algebra, module-algebra
and Hopf axioms on a finite basis, and ModuleAlgebra, the module that the
module-algebra axioms and a twisted module law act through.

verify_algebra is the one algebra axiom battery: unit laws, associativity
or quasi-associativity x(yz) = sum Phi(x,y,z)_abc (ab)c, and the
module-algebra axioms of a ModuleAlgebra.  It forms the basis products once
through basis_mul and makes them into phase cells; every product a check
forms is one phase_convolve against those cells, on flat phase rows at one
conductor (the battery's rows).  A vector's row is multilinear._vec_row,
and every row is made canonical by scalars._row, so the batteries have no
canonical form or rational fast path of their own.  Two rows are compared
by scalars.row_difference, the one reduced difference of two rows, which
the Zak pairing checks share: a row's exponents are kept below N, not
below phi(N), so that a product of roots stays one term, and the
difference reduces them.
A host tensor Phi acts through the module by act_tensor, tabulated once per
run.

verify_hopf is the one Hopf axiom battery; it shares verify_algebra's unit
and associativity checks.  It runs on any host that offers dim, labels,
ring, elem_unit(), a counit list, basis_mul(i, j) and basis_coproduct(i)
as sparse dicts, apply_antipode(vec), and axiom_ids, the check ids to run
in report order: HopfPresentation derives them from its antipode and its
tables (product_commutes, coproduct_cocommutes), the windowed hosts in
sample_hosts (ShuffleBialgebra, PareigisWindow) state them as class data.
Both batteries are generators: each check is yielded once it is decided,
so a caller that times each yield times each axiom.  The
coproducts and the counit become phase cells too, and act on rows through
phase_map; the antipode images are rows.  A windowed host raises
WindowOverflow for a value outside its window: its cell is None, and the
instances that need it are skipped, not failed.

Only a caller that runs a battery imports this module: the cochain
workloads' twists without a module never compile it.
"""

from .errors import WindowOverflow
from .multilinear import (
    LegTensor,
    PhaseCells,
    _clean,
    _on_rows,
    _vec_row,
    decode_key,
    phase_cells,
    phase_convolve,
    phase_map,
)
from .reporting import CheckOutcome
from .scalars import _align, _row, accumulate, row_difference


class ModuleAlgebra:
    """An algebra A with a left action of a Hopf presentation H.

    action[(i, j)] is the sparse image of basis_H[i] acting on basis_A[j].
    """

    def __init__(self, host, algebra, action):
        self.host = host
        self.algebra = algebra
        self.action = {}
        ring = algebra.ring
        for key, vec in action.items():
            vv = _clean({k: ring.coerce(v) for k, v in vec.items()})
            if vv:
                self.action[key] = vv

    def act(self, hvec, avec):
        out = {}
        for i, ch in hvec.items():
            for j, ca in avec.items():
                cell = self.action.get((i, j))
                if not cell:
                    continue
                c = ch * ca
                for k, w in cell.items():
                    accumulate(out, k, c * w)
        return out

    def act_tensor(self, ht):
        """The legwise action of a rank-n host tensor on every n-tuple of
        basis elements of A: {(j1, .., jn): {(k1, .., kn): scalar}}, tuples
        with a zero image left out.  Each key of ht is decoded once and
        meets only the action cells of its digits."""
        n = ht.arity
        dim = self.host.dim
        cells = [[] for _ in range(dim)]  # digit -> [(j, image of basis j)]
        for (i, j), vec in self.action.items():
            cells[i].append((j, vec))
        out = {}
        for key, c in ht.data.items():
            partial = [((), (), c)]
            for d in decode_key(key, dim, n):
                partial = [
                    (js + (j,), ks + (k,), cv * w)
                    for js, ks, cv in partial
                    for j, vec in cells[d]
                    for k, w in vec.items()
                ]
            for js, ks, cv in partial:
                accumulate(out.setdefault(js, {}), ks, cv)
        return {js: image for js, image in out.items() if image}


# ---------------------------------------------------------------------------
# algebra and Hopf axiom verification


def verify_algebra(algebra, associator=None, module=None):
    """Exhaustive unit and associativity checks for an algebra on a finite
    basis, and the module-algebra axioms when a ModuleAlgebra acting on it
    is given, each CheckOutcome yielded once it is decided.

    Without an associator the law is x(yz) = (xy)z.  With one it is
    x(yz) = sum Phi(x,y,z)_abc (ab)c: Phi is a scalar table {(i, j, k):
    phi} on every basis triple (its diagonal), or a host LegTensor of
    arity 3 acting legwise through the module, tabulated once.  Residuals
    count the failing instances; witnesses name them by label."""
    run = _AlgebraBattery(algebra, associator, module)
    ids = ["unit-laws", "associativity" if associator is None else "quasi-associativity"]
    if module is not None:
        ids += ["module-unit", "module-action", "module-algebra-unit", "module-algebra-mult"]
    for cid in ids:
        yield getattr(run, cid.replace("-", "_") + "_check")()


def verify_hopf(host):
    """Exhaustive axiom checks for a Hopf algebra or bialgebra on a finite
    basis, one CheckOutcome per id of host.axiom_ids, each yielded once it
    is decided.  Residuals count the failing instances; coassociativity
    counts residual terms."""
    run = _Battery(host)
    for cid in host.axiom_ids:
        yield getattr(run, cid.replace("-", "_") + "_check")()


def _within(f, *args):
    """f(*args), or None when the value leaves the host's window."""
    try:
        return f(*args)
    except WindowOverflow:
        return None

# ---------------------------------------------------------------------------
# the batteries' rows (multilinear's rows: ((numerators, den), N), None for
# a value outside the window)

_ONE = (({(0, 0, 0, 0): 1}, 1), 1)
_ZERO = (({}, 1), 1)


def _cell_rows(table):
    """The row of each cell of a PhaseCells table."""
    den, N = table.den, table.N
    return [
        None if c is None
        else (_row([({(k, v, t, e): x for k, (v, t, e), x in c}, den)]), N)
        for c in table.cells
    ]


def _outer(a, b, size, K):
    """a (x) b for rows, b's keys below size: key ka * size + kb, phases
    added.  A row at the one key 0 is a scalar, so _outer(a, c, 1, K) is a
    times the scalar c."""
    if a is None or b is None:
        return None
    L, (ra, rb) = _align([a, b])
    out = {}
    for (ka, va, ta, ea), x in ra[0].items():
        for (kb, vb, tb, eb), y in rb[0].items():
            if va + vb <= K:
                idx = (ka * size + kb, va + vb, ta + tb, (ea + eb) % L)
                out[idx] = out.get(idx, 0) + x * y
    return _row([(out, ra[1] * rb[1])]), L


def _sum(rows):
    """The sum of rows; None when one of them is None."""
    if any(r is None for r in rows):
        return None
    if len(rows) == 1:
        return rows[0]
    L, parts = _align(rows)
    return _row(parts), L


def _regular(table, dim, side):
    """The left (side 0) or right (side 1) regular representation of a
    product table: PhaseCells whose cell m lists the cells of x_i x_m
    (left) or x_m x_i (right) for every basis i, the product's keys coded
    i * dim + k, and over[m], the set of i whose product leaves the
    window."""
    cells = table.cells
    out, over = [], []
    for m in range(dim):
        cell, off = [], set()
        for i in range(dim):
            c = cells[i * dim + m] if side == 0 else cells[m * dim + i]
            if c is None:
                off.add(i)
            else:
                cell.extend((i * dim + k, p, w) for k, p, w in c)
        out.append(tuple(cell))
        over.append(off)
    return PhaseCells(out, table.den, table.N), over


def _by_basis(row, regular, dim, K):
    """x_i row (left) or row x_i (right) for every basis i at once, one
    phase_map of row through the regular representation (see _regular):
    ({i: row of the product}, the set of i whose product leaves the
    window)."""
    table, over = regular
    (nums, den), N = _on_rows(phase_map, (row,), table, K, dim, 1, 0, 2)
    parts = {}
    for (key, v, t, e), n in nums.items():
        i, k = divmod(key, dim)
        part = parts.get(i)
        if part is None:
            parts[i] = {(k, v, t, e): n}
        else:
            part[k, v, t, e] = n
    off = set().union(*[over[key] for key, _v, _t, _e in row[0][0]])
    # a part of a canonical row over 1 is canonical as it is
    return {
        i: ((part, 1) if den == 1 else _row([(part, den)]), N)
        for i, part in parts.items()
    }, off


def _differ(got, want):
    """got != want for rows (scalars.row_difference); None, a value outside
    the window, differs from nothing."""
    return got is not None and want is not None and bool(row_difference(got, want))


class _AlgebraBattery:
    """One verify_algebra run, on rows.  The basis products are formed once
    through host.basis_mul (None where one leaves the window) and made into
    integer phase cells (phase_cells) and rows; every product a check forms
    is one phase_convolve against those cells, or for x(yz) and (xy)z one
    phase_map through the regular representation (_by_basis).  The
    associator is {basis triple: [(a * dim + b, row of Phi_abc c)]}.  One
    method <id>_check per check id; the module checks act through
    ModuleAlgebra.act on values."""

    def __init__(self, host, associator=None, module=None):
        self.host = host
        self.dim = dim = host.dim
        self.one = host.ring.one()
        self.K = host.ring.hbar_order or 0
        self.unit = host.elem_unit()
        self.unit_row = _vec_row(self.unit)
        self.prods = [
            _within(host.basis_mul, i, j) for i in range(dim) for j in range(dim)
        ]
        self.table = phase_cells(self.prods)
        self.rows = _cell_rows(self.table)
        self.basis = [(({(i, 0, 0, 0): 1}, 1), 1) for i in range(dim)]
        phi = associator
        if isinstance(associator, LegTensor):
            phi = module.act_tensor(associator)
        elif associator is not None:
            phi = {t: {t: v} for t, v in associator.items()}
        if phi is not None:
            phi = {
                t: [(a * dim + b, _vec_row({c: w})) for (a, b, c), w in image.items()]
                for t, image in phi.items()
            }
        self.phi = phi
        self.module = module

    def at(self, *idx):
        """Witness naming basis elements by label: "x" or "(x,y,...)"."""
        labels = [self.host.labels[i] for i in idx]
        return labels[0] if len(labels) == 1 else "(%s)" % ",".join(labels)

    def mul(self, a, b, arity=1):
        """a * b for rows in host^(tensor arity); None when a or b is None
        or a product it needs lies outside the window."""
        return _on_rows(phase_convolve, (a, b), self.table, self.K, self.dim, arity)

    def mapped(self, a, table, arity, leg, width):
        """phase_map of the row a over the cells table; None when a is None
        or a cell it meets lies outside the window."""
        return _on_rows(phase_map, (a,), table, self.K, self.dim, arity, leg, width)

    # -- the checks

    def unit_laws_check(self):
        u = self.unit_row
        return CheckOutcome.tally("unit-laws", (
            (1, self.at(i)) for i, x in enumerate(self.basis)
            if _differ(self.mul(u, x), x) or _differ(self.mul(x, u), x)
        ))

    def associativity_check(self):
        """x(yz) against (xy)z, or against sum Phi(x,y,z)_abc (ab)c.  Each
        yz times every x, and each xy times every z, is one _by_basis; y
        runs outermost, so that only the products of one y are kept, and
        the failing triples are tallied sorted, so that the witness is the
        least one."""
        dim, phi, rows, K = self.dim, self.phi, self.rows, self.K
        left = _regular(self.table, dim, 0)
        right = _regular(self.table, dim, 1) if phi is None else None

        def failures():
            for j in range(dim):
                lefts = [
                    None if yz is None else _by_basis(yz, left, dim, K)
                    for yz in rows[j * dim:(j + 1) * dim]
                ]
                for i in range(dim):
                    ij = rows[i * dim + j]
                    if ij is None:
                        continue
                    if phi is None:
                        rights, roff = _by_basis(ij, right, dim, K)
                    for k, got in enumerate(lefts):
                        if got is None or i in got[1]:
                            continue
                        lhs = got[0].get(i, _ZERO)
                        if phi is not None:
                            terms = phi.get((i, j, k), ())
                            rhs = _sum([self.mul(rows[ab], wc) for ab, wc in terms])
                        elif k in roff:
                            rhs = None
                        else:
                            rhs = rights.get(k, _ZERO)
                        if _differ(lhs, rhs):
                            yield i, j, k

        cid = "associativity" if phi is None else "quasi-associativity"
        return CheckOutcome.tally(cid, ((1, self.at(*t)) for t in sorted(failures())))

    quasi_associativity_check = associativity_check

    def module_unit_check(self):
        M = self.module
        unit = M.host.elem_unit()
        basis = [{j: self.one} for j in range(self.dim)]
        return CheckOutcome.tally("module-unit", (
            (1, self.at(j)) for j, x in enumerate(basis) if M.act(unit, x) != x
        ))

    def module_action_check(self):
        """(hk).x = h.(k.x) on basis elements."""
        M = self.module
        H = M.host

        def failures():
            for i in range(H.dim):
                hi = {i: self.one}
                for k in range(H.dim):
                    hk = H.basis_mul(i, k)
                    for j in range(self.dim):
                        x = {j: self.one}
                        if M.act(hk, x) != M.act(hi, M.act({k: self.one}, x)):
                            yield 1, "(%s,%s,%s)" % (
                                H.labels[i], H.labels[k], self.host.labels[j]
                            )

        return CheckOutcome.tally("module-action", failures())

    def module_algebra_unit_check(self):
        """h.1 = counit(h) 1."""
        M = self.module
        H = M.host
        return CheckOutcome.tally("module-algebra-unit", (
            (1, H.labels[i]) for i in range(H.dim)
            if _differ(
                _vec_row(M.act({i: self.one}, self.unit)),
                _outer(self.unit_row, _vec_row({0: H.counit[i]}), 1, self.K),
            )
        ))

    def module_algebra_mult_check(self):
        """h.(xy) = sum (h1.x)(h2.y) over Delta(h) = sum h1 (x) h2."""
        M = self.module
        H = M.host
        one, dim, K = self.one, self.dim, self.K
        image = {
            (h, a): _vec_row(M.action.get((h, a), {}))
            for h in range(H.dim)
            for a in range(dim)
        }

        def failures():
            for i in range(H.dim):
                cop = [
                    (h1, h2, _vec_row({0: w}))
                    for (h1, h2), w in H.basis_coproduct(i).items()
                ]
                for a in range(dim):
                    for b in range(dim):
                        lhs = _vec_row(M.act({i: one}, self.prods[a * dim + b]))
                        prods = [
                            (self.mul(image[h1, a], image[h2, b]), w) for h1, h2, w in cop
                        ]
                        rhs = _sum([p if w == _ONE else _outer(p, w, 1, K) for p, w in prods])
                        if _differ(lhs, rhs):
                            yield 1, "(%s;%s,%s)" % (
                                H.labels[i], self.host.labels[a], self.host.labels[b]
                            )

        return CheckOutcome.tally("module-algebra-mult", failures())


class _Battery(_AlgebraBattery):
    """One verify_hopf run, on rows: the algebra battery's cells and rows,
    and the host's coproducts (codes a * dim + b) and counit as phase cells
    and rows, and its antipode images as rows, each formed once through the
    host, None where it leaves the window.  The coproduct and the counit
    act on rows through phase_map over their cells, products in host (x)
    host through phase_convolve; the antipode acts through
    host.apply_antipode on values.  No check multiplies values.  One
    method <id>_check per check id."""

    def __init__(self, host):
        super().__init__(host)
        dim = self.dim
        cops = [_within(host.basis_coproduct, i) for i in range(dim)]
        self.cop = phase_cells([
            None if cell is None else {a * dim + b: w for (a, b), w in cell.items()}
            for cell in cops
        ])
        self.cops = _cell_rows(self.cop)
        self.eps = phase_cells([{0: e} if e else {} for e in host.counit])
        self.counits = _cell_rows(self.eps)
        try:
            self.images = [self.antipode({i: self.one}) for i in range(dim)]
        except ValueError:  # a bialgebra, given without antipode
            self.images = None
        else:
            self.srows = [_vec_row(s) for s in self.images]

    def coproduct(self, a):
        """Delta(a) for a row, keys a * dim + b, None outside the window."""
        return self.mapped(a, self.cop, 1, 0, 2)

    def counit_of(self, a):
        return self.mapped(a, self.eps, 1, 0, 0)

    def antipode(self, vec):
        """S(vec) for values, through the host; None outside the window."""
        return None if vec is None else _within(self.host.apply_antipode, vec)

    # -- the checks

    def commutativity_check(self):
        dim, rows = self.dim, self.rows
        return CheckOutcome.tally("commutativity", (
            (1, self.at(i, j)) for i in range(dim) for j in range(dim)
            if _differ(rows[i * dim + j], rows[j * dim + i])
        ))

    def coassociativity_check(self):
        """(Delta (x) id) Delta(i) - (id (x) Delta) Delta(i); the residual
        counts its terms."""

        def failures():
            for i, d in enumerate(self.cops):
                left = self.mapped(d, self.cop, 2, 0, 2)
                right = self.mapped(d, self.cop, 2, 1, 2)
                if left is None or right is None:
                    continue
                res = row_difference(left, right)
                if res:
                    yield len({key for key, _v, _t, _e in res}), self.at(i)

        return CheckOutcome.tally("coassociativity", failures())

    def counit_laws_check(self):
        return CheckOutcome.tally("counit-laws", (
            (1, self.at(i)) for i, (d, x) in enumerate(zip(self.cops, self.basis))
            if d is not None and (
                _differ(self.mapped(d, self.eps, 2, 0, 0), x)
                or _differ(self.mapped(d, self.eps, 2, 1, 0), x)
            )
        ))

    def coproduct_morphism_check(self):
        dim, unit, cops = self.dim, self.unit_row, self.cops

        def failures():
            if _differ(self.coproduct(unit), _outer(unit, unit, dim, self.K)):
                yield 1, "coproduct(1)"
            for i in range(dim):
                for j in range(dim):
                    lhs = self.mul(cops[i], cops[j], 2)
                    if _differ(lhs, self.coproduct(self.rows[i * dim + j])):
                        yield 1, self.at(i, j)

        return CheckOutcome.tally("coproduct-morphism", failures())

    def counit_morphism_check(self):
        dim, e, K = self.dim, self.counits, self.K

        def failures():
            if _differ(self.counit_of(self.unit_row), _ONE):
                yield 1, "counit(1)"
            for i in range(dim):
                for j in range(dim):
                    got = self.counit_of(self.rows[i * dim + j])
                    if _differ(got, _outer(e[i], e[j], 1, K)):
                        yield 1, self.at(i, j)

        return CheckOutcome.tally("counit-morphism", failures())

    def antipode_convolution_check(self):
        """id * S = S * id = unit.counit, one instance per (basis element,
        side)."""
        if self.images is None:
            return CheckOutcome.error("antipode-convolution", "no antipode given")
        S, basis = self.srows, self.basis
        dim, K = self.dim, self.K

        def failures():
            for b, d in enumerate(self.cops):
                if d is None:
                    continue
                want = _outer(self.unit_row, self.counits[b], 1, K)
                # the coefficient of each key x * dim + y of Delta(b), a scalar row
                coeffs = {}
                for (key, v, t, e), n in d[0][0].items():
                    coeffs.setdefault(key, {})[0, v, t, e] = n
                coeffs = [
                    (divmod(key, dim), ((c, d[0][1]), d[1])) for key, c in coeffs.items()
                ]
                id_s = [self.mul(_outer(c, basis[x], dim, K), S[y]) for (x, y), c in coeffs]
                if _differ(_sum(id_s), want):
                    yield 1, "id*S at %s" % self.at(b)
                s_id = [self.mul(S[x], _outer(c, basis[y], dim, K)) for (x, y), c in coeffs]
                if _differ(_sum(s_id), want):
                    yield 1, "S*id at %s" % self.at(b)

        return CheckOutcome.tally("antipode-convolution", failures())

    def antipode_unit_check(self):
        got = _vec_row(self.antipode(self.unit))
        bad = 1 if _differ(got, self.unit_row) else 0
        return CheckOutcome.from_residual("antipode-unit", bad, "S(1)")

    def antipode_antihomomorphism_check(self):
        S, dim = self.srows, self.dim
        return CheckOutcome.tally("antipode-antihomomorphism", (
            (1, self.at(i, j)) for i in range(dim) for j in range(dim)
            if _differ(_vec_row(self.antipode(self.prods[i * dim + j])), self.mul(S[j], S[i]))
        ))

    def antipode_square_check(self):
        return CheckOutcome.tally("antipode-square", (
            (1, self.at(i)) for i, s in enumerate(self.images)
            if _differ(_vec_row(self.antipode(s)), self.basis[i])
        ))
