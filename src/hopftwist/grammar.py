"""Text format for exact scalars.

Grammar (whitespace insensitive):

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' intexp)?
    intexp := INT | '-' INT | '(' intexp ')'
    atom   := INT | 'z' '(' INT ',' INT ')' | 'tau' | 'h' | '(' expr ')'

z(N, k) is e^(2*pi*i*k/N), tau is the formal 2*pi*i symbol, h is the
deformation parameter.  parse() needs hbar_order when h occurs.  render()
emits text that parses back to an equal value.

Every value of an expression lives at a conductor dividing the lcm of the
conductors N of its z tokens; a z token that takes that lcm above
_MAX_CONDUCTOR is a ParseError, and so is a power, product or quotient
whose estimated size passes a cap (see _power_cost and _product_cost), at
its '^', '*' or '/' before it is computed.  A quotient or negative power
whose divisor inverts a Cyclotomic that is not rational is bounded by the
estimated cost of that inverse as well (see _inverse_cost).  Parentheses
and unary minus signs nest at most _MAX_DEPTH levels deep, counted
together; the token that opens one more level is a ParseError.
"""

from fractions import Fraction
from math import isqrt, lcm

from .errors import NonUnit, ParseError
from .scalars import Cyclotomic, Series, TauLaurent, _phi_deg, root_of_unity
from .scalars import cyclotomic_polynomial

# Largest conductor an expression may reach.  Building the reduced basis of
# Q(z_N) costs time that grows with the divisors of N: as a CLI run
# (verify sharp-map --theta 'z(N,1)*h') on a shared 2-core x86 machine,
# N = 840, the slowest conductor up to the cap, takes 0.3-0.5 s, against
# 0.7 s at 1260, 3.7 s at 2520 and 17 s at 5040.
_MAX_CONDUCTOR = 1000

# Caps on the estimated size of one power, product or quotient (see
# _power_cost and _product_cost).  As single CLI runs on a shared 2-core x86
# machine, powers just under them take 0.8-1.8 s; (1+tau)^1000*h took 4.4 s,
# (1+z(840,1))^2000*h 11-13 s and twelve factors (1+tau)^360 multiplied
# together 73 s before the caps.
_MAX_BITS = 10**7
_MAX_WORK = 5 * 10**7

# Cap on the estimated work of one cyclotomic inverse (see _inverse_cost),
# on its own scale.  As single CLI runs (verify sharp-map --theta
# '1/(<divisor>)*h') on a shared 2-core x86 machine, with l1 norms of the
# divisor from 2 to 33 and at most 0.5 s of start-up: 1+z(997,1) (est.
# 8.7e7) took 0.7 s; 2+z(211,1)+z(211,100) (1.3e9), 2+z(499,1)+z(499,30)
# (1.9e9), 2+z(997,1)+z(997,3)+z(997,7) (1.4e9) and 1+z(997,1)+...+z(997,11)
# (1.3e9) took 1.7, 2.0, 2.2 and 1.7 s; 2+z(997,1)+...+z(997,11) (2.6e9) and
# 10+z(997,1)+z(997,3)+z(997,7) (2.8e9) 4.9 and 4.4 s; and
# 30+z(997,1)+z(997,3)+z(997,7) (3.5e9) and 3+z(997,1)-2*z(997,5)+z(997,20)
# (6.0e9) 7.4 and 8.2 s.  Over these, seconds past start-up per unit of the
# estimate lie within 0.6-2.0e-9.
_MAX_INVERSE_WORK = 3 * 10**9

# Deepest nesting of '(' and unary '-' an expression may have.  The parser
# descends recursively, five interpreter frames for each level of
# parentheses, so 150 levels take at most 750 of the 1000 frames of
# Python's default recursion limit and leave the rest to the callers.  The
# cap does not hold for a caller already more than about 250 frames deep:
# there a deep expression still ends in Python's RecursionError.
_MAX_DEPTH = 150


class _Tok:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text):
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Tok("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            word = text[i:j]
            if word not in ("z", "tau", "h"):
                raise ParseError("unknown name %r" % word, line, col)
            toks.append(_Tok(word, word, line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^(),":
            toks.append(_Tok(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    toks.append(_Tok("EOF", "", line, col))
    return toks


def _invertible(op, compute):
    """compute(), with a division by zero or a negative power of a
    non-unit reported as a ParseError at the operator token op."""
    try:
        return compute()
    except ZeroDivisionError:
        reason = "division by zero"
    except NonUnit as e:
        reason = str(e)
    raise ParseError("cannot evaluate '%s': %s" % (op.text, reason), op.line, op.col)


def _coords(v):
    """(N, coordinates) of a value: N the lcm of its conductors, and one
    (hbar degree, tau power, exponent of z_N, coordinate) per coordinate,
    lowest hbar degree first.  A tagged root is one coordinate 1."""
    cs = v.coeffs if isinstance(v, Series) else [TauLaurent._coerce(v)]
    terms = [
        (j, t, q if isinstance(q, Cyclotomic) else Cyclotomic.from_rational(q))
        for j, c in enumerate(cs)
        for t, q in c.terms.items()
    ]
    N = lcm(*[q.conductor for _, _, q in terms])
    return N, [
        (j, t, e * N // q.conductor, x)
        for j, t, q in terms
        for e, x in (q.coords if q.root is None else {q.root: 1}).items()
    ]


def _box(cs, scale):
    """(hbar span, tau span, z exponent span, top z exponent, bits per
    factor) of coordinates cs, their exponents of z_N times scale: the bits
    of the l1 norm and the denominator of the coordinates."""
    js, ts = [c[0] for c in cs], [c[1] for c in cs]
    es = [c[2] * scale for c in cs]
    den = lcm(*[c[3].denominator for c in cs])
    l1 = sum(abs(c[3].numerator) * (den // c[3].denominator) for c in cs)
    g = (l1 - 1).bit_length() + (den - 1).bit_length()
    return max(js) - min(js), max(ts) - min(ts), max(es) - min(es), max(es), g


def _reduction_terms(N, z_top):
    """Terms of the row that reduces an exponent of z_N past phi(N), or 1
    when no exponent of the result gets there."""
    return len(cyclotomic_polynomial(N)) - 1 if z_top >= _phi_deg(N) else 1


def _power_cost(v, k, order):
    """(bits, work) estimated for v^k from its base: the bits of one rational
    coordinate, and T^2 * R * bits for the last squaring, with T the result's
    hbar degrees times tau powers times exponents of z_N (at most phi(N)),
    and R the terms of the row reducing an exponent of z_N past phi(N).  A
    factor adds the bits of the l1 norm and denominator of the coordinates
    (none for a tagged root).  Of a Series the lowest coefficient takes the
    power; the others enter at most m = min(|k|, order - |k| * its degree)
    times, each with a binomial."""
    k = abs(k)
    N, coords = _coords(v)
    if k < 2 or not coords:
        return 0, 0
    extra = order - k * coords[0][0] if isinstance(v, Series) else 0
    if extra < 0:
        return 0, 0
    m = min(k, extra)
    _, ts, zs, _, g = _box([c for c in coords if c[0] == coords[0][0]], 1)
    _, ts_all, zs_all, z_top, g_all = _box(coords, 1)
    T = (extra + 1) * (k * ts + m * ts_all + 1) * min(_phi_deg(N), k * zs + m * zs_all + 1)
    bits = max(1, k * g + m * (k.bit_length() + g_all))
    return bits, T * T * _reduction_terms(N, k * z_top) * bits


def _product_cost(v, w):
    """(bits, work) estimated for v*w, and for v/w the same product with w
    (its inverse is bounded apart, see _inverse_cost): the
    bits of one coordinate, the sum of the operands' bits per factor, and
    Tv * Tw * R * bits, with Tv and Tw the hbar degrees times tau powers
    times exponents of z_N (at most phi(N)) that each operand spans, N the
    lcm of their conductors, and R as for a power."""
    (Nv, cv), (Nw, cw) = _coords(v), _coords(w)
    if not cv or not cw:
        return 0, 0
    N = lcm(Nv, Nw)
    phi = _phi_deg(N)
    (jv, tv, zv, topv, gv), (jw, tw, zw, topw, gw) = _box(cv, N // Nv), _box(cw, N // Nw)
    Tv = (jv + 1) * (tv + 1) * min(phi, zv + 1)
    Tw = (jw + 1) * (tw + 1) * min(phi, zw + 1)
    bits = max(1, gv + gw)
    return bits, Tv * Tw * _reduction_terms(N, topv + topw) * bits


def _inverse_cost(w):
    """(bits, work) estimated for inverting the divisor w: nothing unless
    that inverts a Cyclotomic q that is not rational (w itself, or the one
    coefficient of a tau monomial or of the constant term of a Series),
    and nothing for a tagged root, whose inverse negates its exponent.
    Cyclotomic.inverse eliminates the phi x phi matrix of multiplication by
    q, phi = phi(N), whose columns span s = 1 + the spread of q's exponents
    of z_N.  The time of that elimination, measured at phi from 210 to 996
    and s from 2 to 151, grows as phi^2.5 * s^1.5; the estimate is that
    times g, the bits of the largest numerator of q's coordinates over
    their common denominator plus the bits of that denominator, and a
    coordinate of the inverse has about phi * g bits.  The largest
    numerator, not the l1 norm: many coordinates 1 cost no more than one
    (see _MAX_INVERSE_WORK)."""
    if isinstance(w, Series):
        w = w.coeffs[0]
    if isinstance(w, TauLaurent):
        if len(w.terms) != 1:
            return 0, 0
        (w,) = w.terms.values()
    if not isinstance(w, Cyclotomic) or w.is_rational() or w.root is not None:
        return 0, 0
    N, cs = _coords(w)
    _, _, zs, _, _ = _box(cs, 1)
    den = lcm(*[c[3].denominator for c in cs])
    top = max(abs(c[3].numerator) * (den // c[3].denominator) for c in cs)
    phi, s = _phi_deg(N), zs + 1
    g = max(1, top.bit_length() + (den - 1).bit_length())
    return phi * g, phi * phi * s * isqrt(phi * s) * g


class _Parser:
    def __init__(self, toks, hbar_order):
        self.toks = toks
        self.pos = 0
        self.order = hbar_order
        self.conductor = 1
        self.depth = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        t = self.toks[self.pos]
        if kind is not None and t.kind != kind:
            raise ParseError(
                "expected %s, found %r" % (kind, t.text or "end of input"),
                t.line,
                t.col,
            )
        self.pos += 1
        return t

    def enter(self, tok):
        """One level deeper at tok, an opening '(' or unary '-': a
        ParseError there past _MAX_DEPTH levels.  The caller leaves the
        level by lowering depth again."""
        if self.depth == _MAX_DEPTH:
            raise ParseError(
                "nesting deeper than %d levels" % _MAX_DEPTH, tok.line, tok.col
            )
        self.depth += 1

    def expr(self):
        v = self.term()
        while self.peek().kind in "+-":
            op = self.take().kind
            w = self.term()
            v = v + w if op == "+" else v - w
        return v

    def term(self):
        v = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.take()
            w = self.unary()
            what = "product" if op.kind == "*" else "quotient"
            self.bound(op, what, lambda: _product_cost(v, w))
            if op.kind == "/":
                self.bound(op, what, lambda: _inverse_cost(w), _MAX_INVERSE_WORK)
            v = v * w if op.kind == "*" else _invertible(op, lambda: v / w)
        return v

    def unary(self):
        if self.peek().kind == "-":
            self.enter(self.take())
            v = -self.unary()
            self.depth -= 1
            return v
        return self.power()

    def power(self):
        v = self.atom()
        if self.peek().kind == "^":
            op = self.take()
            k = self.intexp()
            what = "power ^%d" % k
            if k < 0:
                self.bound(op, what, lambda: _inverse_cost(v), _MAX_INVERSE_WORK)
            self.bound(op, what, lambda: _power_cost(v, k, self.order))
            v = _invertible(op, lambda: v**k)
        return v

    def bound(self, op, what, cost, max_work=_MAX_WORK):
        """ParseError at the operator token op when the (bits, work) that
        cost() estimates for its result passes a cap."""
        bits, work = cost()
        if bits > _MAX_BITS or work > max_work:
            caps = (what, bits, work, _MAX_BITS, max_work)
            raise ParseError(
                "%s too large: about %d bits a coordinate and %d bit "
                "operations, above the cap of %d or %d" % caps, op.line, op.col
            )

    def intexp(self):
        t = self.peek()
        if t.kind == "-":
            self.enter(self.take())
            k = -self.intexp()
            self.depth -= 1
            return k
        if t.kind == "(":
            self.enter(self.take())
            k = self.intexp()
            self.take(")")
            self.depth -= 1
            return k
        tok = self.take("INT")
        return int(tok.text)

    def atom(self):
        t = self.peek()
        if t.kind == "(":
            self.enter(self.take())
            v = self.expr()
            self.take(")")
            self.depth -= 1
            return v
        return self.leaf()

    def leaf(self):
        """A value that is not parenthesized."""
        t = self.peek()
        if t.kind == "INT":
            self.take()
            return Fraction(int(t.text))
        if t.kind == "z":
            self.take()
            self.take("(")
            ntok = self.take("INT")
            self.take(",")
            neg = False
            if self.peek().kind == "-":
                self.take()
                neg = True
            ktok = self.take("INT")
            self.take(")")
            N = int(ntok.text)
            if N < 1:
                raise ParseError("z conductor must be positive", ntok.line, ntok.col)
            self.conductor = lcm(self.conductor, N)
            if self.conductor > _MAX_CONDUCTOR:
                raise ParseError(
                    "z conductors reach %d, above the cap of %d"
                    % (self.conductor, _MAX_CONDUCTOR),
                    t.line,
                    t.col,
                )
            k = -int(ktok.text) if neg else int(ktok.text)
            return root_of_unity(k, N)
        if t.kind == "tau":
            self.take()
            return TauLaurent.tau()
        if t.kind == "h":
            if self.order is None:
                raise ParseError("h used without a series order", t.line, t.col)
            self.take()
            return Series.hbar(self.order)
        raise ParseError(
            "expected a value, found %r" % (t.text or "end of input"), t.line, t.col
        )


def parse(text, hbar_order=None):
    """Parse scalar text.  Returns Fraction, Cyclotomic, TauLaurent or Series
    depending on which symbols occur."""
    p = _Parser(_tokenize(text), hbar_order)
    v = p.expr()
    t = p.peek()
    if t.kind != "EOF":
        raise ParseError("trailing input %r" % t.text, t.line, t.col)
    return v


class _Degrees:
    """Degree bounds (num, den) for a quotient P/Q of polynomials in h that
    represents a parsed value; _DegreeParser evaluates text to these."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=0):
        self.num = num
        self.den = den

    def __add__(self, o):
        return _Degrees(max(self.num + o.den, o.num + self.den), self.den + o.den)

    __sub__ = __add__

    def __mul__(self, o):
        return _Degrees(self.num + o.num, self.den + o.den)

    def __truediv__(self, o):
        return _Degrees(self.num + o.den, self.den + o.num)

    def __neg__(self):
        return self

    def __pow__(self, k):
        if k < 0:
            return _Degrees(-k * self.den, -k * self.num)
        return _Degrees(k * self.num, k * self.den)


class _DegreeParser(_Parser):
    def bound(self, op, what, cost, max_work=_MAX_WORK):
        """Degree bounds take any product or power at no cost."""

    def leaf(self):
        if self.peek().kind == "h":
            self.take()
            return _Degrees(1)
        super().leaf()
        return _Degrees(0)


def hbar_valuation_bound(text):
    """Upper bound on the hbar valuation of the value of text, untruncated,
    when that value is not zero.

    The value is a quotient P/Q of polynomials in h with Q(0) != 0, so its
    valuation is at most deg P; the bound is the degree of P as built by
    the operations in text.  Parsing at any order at or above the bound
    gives zero only when the untruncated value is zero.
    """
    p = _DegreeParser(_tokenize(text), None)
    v = p.expr()
    t = p.peek()
    if t.kind != "EOF":
        raise ParseError("trailing input %r" % t.text, t.line, t.col)
    return v.num


# ---------------------------------------------------------------------------
# rendering


def _frac_str(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (
        q.numerator,
        q.denominator,
    )


def _cyclo_parts(x):
    """List of (sign, text) additive pieces for a cyclotomic value."""
    parts = []
    for e in sorted(x.coords):
        v = x.coords[e]
        sign = "-" if v < 0 else "+"
        av = -v if v < 0 else v
        if e == 0:
            parts.append((sign, _frac_str(av)))
        else:
            base = "z(%d,%d)" % (x.conductor, e)
            parts.append((sign, base if av == 1 else "%s*%s" % (_frac_str(av), base)))
    return parts


def _coeff_parts(v):
    if isinstance(v, (int, Fraction)):
        q = Fraction(v)
        sign = "-" if q < 0 else "+"
        return [(sign, _frac_str(-q if q < 0 else q))]
    if isinstance(v, Cyclotomic):
        return _cyclo_parts(v)
    raise TypeError("bad coefficient %r" % (v,))


def _mono(parts, symbol):
    """Attach '*symbol' to additive parts, parenthesizing sums."""
    if symbol is None:
        return parts
    if len(parts) == 1:
        s, t = parts[0]
        return [(s, "%s*%s" % (t, symbol) if t != "1" else symbol)]
    inner = _join(parts)
    return [("+", "(%s)*%s" % (inner, symbol))]


def _join(parts):
    if not parts:
        return "0"
    s, t = parts[0]
    out = ("-" if s == "-" else "") + t
    for s, t in parts[1:]:
        out += " %s %s" % (s, t)
    return out


def _tau_parts(x):
    parts = []
    for k in sorted(x.terms):
        sym = None if k == 0 else ("tau" if k == 1 else "tau^%d" % k)
        parts.extend(_mono(_coeff_parts(x.terms[k]), sym))
    return parts


def render(x):
    """Serialize an exact scalar in the same grammar parse() reads."""
    if isinstance(x, (int, Fraction)):
        return _join(_coeff_parts(x))
    if isinstance(x, Cyclotomic):
        return _join(_cyclo_parts(x))
    if isinstance(x, TauLaurent):
        return _join(_tau_parts(x))
    if isinstance(x, Series):
        parts = []
        for k, c in enumerate(x.coeffs):
            if not c:
                continue
            sym = None if k == 0 else ("h" if k == 1 else "h^%d" % k)
            cp = _tau_parts(c)
            if sym is None:
                parts.extend(cp)
            elif len(cp) == 1:
                s, t = cp[0]
                parts.append((s, "%s*%s" % (t, sym) if t != "1" else sym))
            else:
                parts.append(("+", "(%s)*%s" % (_join(cp), sym)))
        return _join(parts)
    raise TypeError("cannot render %r" % (x,))
