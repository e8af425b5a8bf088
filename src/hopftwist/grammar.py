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
"""

from fractions import Fraction

from .errors import NonUnit, ParseError
from .scalars import Cyclotomic, Series, TauLaurent


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


class _Parser:
    def __init__(self, toks, hbar_order):
        self.toks = toks
        self.pos = 0
        self.order = hbar_order

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
            v = v * w if op.kind == "*" else _invertible(op, lambda: v / w)
        return v

    def unary(self):
        if self.peek().kind == "-":
            self.take()
            return -self.unary()
        return self.power()

    def power(self):
        v = self.atom()
        if self.peek().kind == "^":
            op = self.take()
            k = self.intexp()
            v = _invertible(op, lambda: v**k)
        return v

    def intexp(self):
        t = self.peek()
        if t.kind == "-":
            self.take()
            return -self.intexp()
        if t.kind == "(":
            self.take()
            k = self.intexp()
            self.take(")")
            return k
        tok = self.take("INT")
        return int(tok.text)

    def atom(self):
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
            k = -int(ktok.text) if neg else int(ktok.text)
            return Cyclotomic(N, {k % N: 1})
        if t.kind == "tau":
            self.take()
            return TauLaurent.tau()
        if t.kind == "h":
            if self.order is None:
                raise ParseError("h used without a series order", t.line, t.col)
            self.take()
            return Series.hbar(self.order)
        if t.kind == "(":
            self.take()
            v = self.expr()
            self.take(")")
            return v
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
    def atom(self):
        t = self.peek()
        if t.kind == "h":
            self.take()
            return _Degrees(1)
        if t.kind == "(":
            self.take()
            v = self.expr()
            self.take(")")
            return v
        super().atom()
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
