"""Exact coefficient arithmetic: the field Q(q,t) and truncated (q,t) power series.

Rational functions are carried by sympy's sparse fraction field over Z[q,t],
which keeps numerator and denominator coprime, content-free and
sign-normalized after every operation.  Truncated series live in
Q[[q,t]] / (total degree > M) and are plain dictionaries mapping
(q-exponent, t-exponent) to exact rational coefficients.
"""

from fractions import Fraction
from functools import lru_cache

from sympy.polys.domains import ZZ
from sympy.polys.fields import field as _field
from sympy.polys.heuristicgcd import heugcd
from sympy.polys.polyerrors import HeuristicGCDFailed
from sympy.polys.rings import PolyElement as _PolyElement

from .errors import InternalInconsistency, NotSeriesExpandable, SpecializationPole


def _gcd_zz_with_fallback(f, g):
    # sympy's heuristic gcd over Z can give up on the rational functions that
    # appear from weight 6 on; fall back to the deterministic PRS route so
    # every reduction is guaranteed to complete
    try:
        return heugcd(f, g)
    except HeuristicGCDFailed:
        return f.ring.dmp_inner_gcd(f, g)


_PolyElement._gcd_ZZ = _gcd_zz_with_fallback

FIELD, Q, T = _field("q,t", ZZ)
RING = FIELD.ring
ONE = FIELD.one
ZERO = FIELD.zero

#: the exact scalar type used for symmetric-function coefficients
RatQT = type(ONE)


def ratqt(value):
    """Coerce an int, Fraction, string or RatQT into the field Q(q,t)."""
    if isinstance(value, RatQT):
        return value
    if isinstance(value, int):
        return FIELD(value)
    if isinstance(value, Fraction):
        return FIELD(value.numerator) / FIELD(value.denominator)
    if isinstance(value, str):
        return parse_ratqt(value)
    raise TypeError(f"cannot coerce {value!r} into Q(q,t)")


def _eval_poly(poly, q_img, t_img):
    """Evaluate a Z[q,t] polynomial at RatQT images of q and t."""
    qpow, tpow = {0: ONE}, {0: ONE}

    def power(cache, base, k):
        if k not in cache:
            cache[k] = base ** k
        return cache[k]

    total = ZERO
    for (a, b), c in poly.terms():
        total += int(c) * power(qpow, q_img, a) * power(tpow, t_img, b)
    return total


def substitute(r, q_image, t_image):
    """Compose a rational function with images of q and t.

    Images may be rational numbers or elements of Q(q,t); substitutions such
    as q -> 1/q, t -> 1/t are cleared back to ordinary fractions by the field
    arithmetic.  Raises SpecializationPole when the denominator vanishes.
    """
    r = ratqt(r)
    qi, ti = ratqt(q_image), ratqt(t_image)
    num = _eval_poly(r.numer, qi, ti)
    den = _eval_poly(r.denom, qi, ti)
    if not den:
        raise SpecializationPole(f"denominator of {r} vanishes under the substitution")
    return num / den


def swap_qt(r):
    """The involution q <-> t on Q(q,t)."""
    return substitute(r, T, Q)


# ---------------------------------------------------------------------------
# sparse linear algebra
# ---------------------------------------------------------------------------

def add_into(out, terms, scale=None):
    """out += scale * terms, in place, over every key of the dict `terms`.

    A key whose sum cancels is deleted and a zero is never stored, so a
    sparse map stays free of zero entries.  `scale=None` adds the terms as
    they are; a zero scale leaves `out` unchanged.  Returns `out`.
    """
    if scale is not None and not scale:
        return out
    for key, c in terms.items():
        if scale is not None:
            c = c * scale
        prev = out.get(key)
        v = c if prev is None else prev + c
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return out


def invert(rows, plist):
    """Inverse over Q(q,t) of the square matrix {lam: {mu: entry}} indexed by plist.

    Gauss-Jordan elimination with the first nonzero pivot of each column.
    The inverse comes back in the same sparse row form, zeros dropped; a
    singular matrix raises InternalInconsistency.
    """
    k = len(plist)
    idx = {lam: i for i, lam in enumerate(plist)}
    mat = [[ZERO] * k for _ in range(k)]
    for lam, row in rows.items():
        for mu, c in row.items():
            mat[idx[lam]][idx[mu]] = ratqt(c)
    inv = [[ONE if i == j else ZERO for j in range(k)] for i in range(k)]
    for col in range(k):
        piv = next((r for r in range(col, k) if mat[r][col]), None)
        if piv is None:
            raise InternalInconsistency("singular matrix")
        mat[col], mat[piv] = mat[piv], mat[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        c = mat[col][col]
        mat[col] = [v / c for v in mat[col]]
        inv[col] = [v / c for v in inv[col]]
        for r in range(k):
            if r != col and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
                inv[r] = [a - f * b for a, b in zip(inv[r], inv[col])]
    return {lam: {mu: c for mu, c in zip(plist, inv[i]) if c}
            for i, lam in enumerate(plist)}


# ---------------------------------------------------------------------------
# parsing / printing
# ---------------------------------------------------------------------------

def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j])))
            i = j
        elif ch in "qt":
            tokens.append(("sym", ch))
            i += 1
        elif text.startswith("**", i):
            tokens.append(("op", "^"))
            i += 2
        elif ch in "+-*/^()":
            tokens.append(("op", ch))
            i += 1
        else:
            raise ValueError(f"unexpected character {ch!r} in {text!r}")
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expr(self):
        kind, val = self.peek()
        sign = 1
        while (kind, val) in (("op", "+"), ("op", "-")):
            self.take()
            if val == "-":
                sign = -sign
            kind, val = self.peek()
        total = sign * self.term()
        while True:
            kind, val = self.peek()
            if (kind, val) == ("op", "+"):
                self.take()
                total = total + self.term()
            elif (kind, val) == ("op", "-"):
                self.take()
                total = total - self.term()
            else:
                return total

    def term(self):
        total = self.factor()
        while True:
            kind, val = self.peek()
            if (kind, val) == ("op", "*"):
                self.take()
                total = total * self.factor()
            elif (kind, val) == ("op", "/"):
                self.take()
                total = total / self.factor()
            elif kind in ("int", "sym") or (kind, val) == ("op", "("):
                # juxtaposition, e.g. "(1+q)(1-t)" or "2q"
                total = total * self.factor()
            else:
                return total

    def factor(self):
        base = self.atom()
        kind, val = self.peek()
        if (kind, val) == ("op", "^"):
            self.take()
            kind, val = self.take()
            sign = 1
            if (kind, val) == ("op", "-"):
                sign = -1
                kind, val = self.take()
            if kind != "int":
                raise ValueError("exponent must be an integer")
            return base ** (sign * val)
        return base

    def atom(self):
        kind, val = self.take()
        if kind == "int":
            return FIELD(val)
        if kind == "sym":
            return Q if val == "q" else T
        if (kind, val) == ("op", "("):
            inner = self.expr()
            kind, val = self.take()
            if (kind, val) != ("op", ")"):
                raise ValueError("unbalanced parentheses")
            return inner
        if (kind, val) == ("op", "-"):
            return -self.atom()
        raise ValueError(f"unexpected token {val!r}")


def parse_ratqt(text):
    """Parse expressions like "(1 - t + q*t)/(1 - q)" into Q(q,t)."""
    parser = _Parser(_tokenize(text))
    result = parser.expr()
    if parser.pos != len(parser.tokens):
        raise ValueError(f"trailing input in {text!r}")
    return result


def _emit_poly(poly, negate=False):
    terms = sorted(poly.terms(), key=lambda item: (sum(item[0]), item[0]))
    if not terms:
        return "0"
    pieces = []
    for (a, b), c in terms:
        c = -int(c) if negate else int(c)
        mono = "*".join(
            sym if e == 1 else f"{sym}^{e}"
            for sym, e in (("q", a), ("t", b))
            if e
        )
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(pieces)


def emit_ratqt(r):
    """Render a RatQT in expanded textual form, e.g. "(1 - t + q*t)/(1 - q)"."""
    r = ratqt(r)
    den_terms = sorted(r.denom.terms(), key=lambda item: (sum(item[0]), item[0]))
    negate = bool(den_terms) and int(den_terms[0][1]) < 0
    num = _emit_poly(r.numer, negate)
    if r.denom == RING.one:
        return num
    den = _emit_poly(r.denom, negate)
    return f"({num})/({den})"


# ---------------------------------------------------------------------------
# truncated power series
# ---------------------------------------------------------------------------

class QTSeries:
    """Element of Q[[q,t]] truncated past total degree `order`.

    Coefficients are exact (int or Fraction); keys are (q-exp, t-exp) pairs
    with entry sum at most `order`.  Zero coefficients are never stored.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs=None):
        self.order = order
        self.coeffs = {}
        if coeffs:
            for e, c in coeffs.items():
                if c and e[0] + e[1] <= order:
                    self.coeffs[e] = c

    @classmethod
    def const(cls, value, order):
        return cls(order, {(0, 0): value})

    @classmethod
    def one(cls, order):
        return cls.const(1, order)

    @classmethod
    def zero(cls, order):
        return cls(order)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, QTSeries):
            return self.order == other.order and self.coeffs == other.coeffs
        if other == 0:
            return not self.coeffs
        return self.coeffs == {(0, 0): other}

    def __hash__(self):
        return hash((self.order, frozenset(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return f"QTSeries(0; order={self.order})"
        bits = []
        for (a, b), c in sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0])):
            mono = "*".join(s if e == 1 else f"{s}^{e}" for s, e in (("q", a), ("t", b)) if e)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return f"QTSeries({' + '.join(bits)}; order={self.order})"

    def __add__(self, other):
        if other.order != self.order:
            raise ValueError(f"series orders differ: {self.order} and {other.order}")
        res = QTSeries(self.order)
        res.coeffs = add_into(dict(self.coeffs), other.coeffs)
        return res

    def __neg__(self):
        res = QTSeries(self.order)
        res.coeffs = {e: -c for e, c in self.coeffs.items()}
        return res

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, QTSeries):
            if other.order != self.order:
                raise ValueError(f"series orders differ: {self.order} and {other.order}")
            order = self.order
            out = {}
            for (a1, b1), c1 in self.coeffs.items():
                room = order - a1 - b1
                for (a2, b2), c2 in other.coeffs.items():
                    if a2 + b2 > room:
                        continue
                    e = (a1 + a2, b1 + b2)
                    v = out.get(e, 0) + c1 * c2
                    if v:
                        out[e] = v
                    else:
                        del out[e]
            res = QTSeries(order)
            res.coeffs = out
            return res
        # scalar (int / Fraction)
        if not other:
            return QTSeries(self.order)
        res = QTSeries(self.order)
        res.coeffs = {e: c * other for e, c in self.coeffs.items()}
        return res

    __rmul__ = __mul__

    def valuation(self):
        """Minimal total degree of a nonzero term; None for the zero series."""
        if not self.coeffs:
            return None
        return min(a + b for a, b in self.coeffs)

    def truncate(self, order):
        if order > self.order:
            raise ValueError(f"cannot truncate order {self.order} up to {order}")
        return QTSeries(order, self.coeffs)

    def inverse(self):
        """Multiplicative inverse; requires a nonzero constant term."""
        c0 = self.coeffs.get((0, 0), 0)
        if not c0:
            raise NotSeriesExpandable("series has no constant term; not invertible")
        inv0 = Fraction(1) / c0
        order = self.order
        rest = {e: c for e, c in self.coeffs.items() if e != (0, 0)}
        out = {(0, 0): inv0 if inv0.denominator != 1 else int(inv0)}
        for deg in range(1, order + 1):
            for a in range(deg + 1):
                e = (a, deg - a)
                s = 0
                for (fa, fb), c in rest.items():
                    if fa <= a and fb <= e[1]:
                        prev = out.get((a - fa, e[1] - fb))
                        if prev is not None:
                            s += c * prev
                if s:
                    v = -inv0 * s
                    out[e] = int(v) if isinstance(v, Fraction) and v.denominator == 1 else v
        res = QTSeries(order)
        res.coeffs = {e: c for e, c in out.items() if c}
        return res

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers of a series need inverse()")
        res = QTSeries.one(self.order)
        base = self
        while k:
            if k & 1:
                res = res * base
            k >>= 1
            if k:
                base = base * base
        return res


def _poly_to_series(poly, order):
    out = QTSeries(order)
    out.coeffs = {
        (a, b): int(c)
        for (a, b), c in poly.terms()
        if a + b <= order
    }
    return out


def to_series(r, order):
    """Taylor-expand a RatQT about q = t = 0, truncated past total degree `order`."""
    r = ratqt(r)
    den = r.denom
    if not den.coeff(1):
        raise NotSeriesExpandable(f"{r} has a pole at q = t = 0")
    num = _poly_to_series(r.numer, order)
    return num * _poly_to_series(den, order).inverse()


# ---------------------------------------------------------------------------
# q-Pochhammer products
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _poch_series(a, b, order):
    """(q^a t^b; q)_infinity as a QTSeries: product of (1 - q^(a+k) t^b), k >= 0."""
    if a + b <= 0:
        raise ValueError("base must have positive total degree")
    out = QTSeries.one(order)
    k = 0
    while a + k + b <= order:
        out = out * QTSeries(order, {(0, 0): 1, (a + k, b): -1})
        k += 1
    return out


class QPochProduct:
    """prefactor * prod over (a,b) of (q^a t^b; q)_infinity ^ e(a,b), held exactly.

    Closed forms built from infinite q-Pochhammer symbols are not rational
    functions; this type keeps them exact and expands on demand.
    """

    __slots__ = ("prefactor", "factors")

    def __init__(self, prefactor=None, factors=None):
        self.prefactor = ONE if prefactor is None else ratqt(prefactor)
        self.factors = {}
        if factors:
            for key, e in factors.items():
                if e:
                    self.factors[key] = e

    @classmethod
    def poch(cls, a, b, exponent=1):
        return cls(factors={(a, b): exponent})

    def __mul__(self, other):
        if isinstance(other, QPochProduct):
            out = QPochProduct(self.prefactor * other.prefactor)
            out.factors = add_into(dict(self.factors), other.factors)
            return out
        return QPochProduct(self.prefactor * ratqt(other), dict(self.factors))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, QPochProduct):
            inv = QPochProduct(ONE / other.prefactor,
                               {key: -e for key, e in other.factors.items()})
            return self * inv
        return QPochProduct(self.prefactor / ratqt(other), dict(self.factors))

    def to_series(self, order):
        out = to_series(self.prefactor, order)
        for (a, b), e in self.factors.items():
            base = _poch_series(a, b, order)
            if e < 0:
                base = base.inverse()
            out = out * base ** abs(e)
        return out

    def __repr__(self):
        bits = [emit_ratqt(self.prefactor)]
        for (a, b), e in sorted(self.factors.items()):
            mono = "*".join(s if k == 1 else f"{s}^{k}" for s, k in (("q", a), ("t", b)) if k)
            piece = f"({mono or '1'};q)oo"
            if e != 1:
                piece += f"^{e}"
            bits.append(piece)
        return " * ".join(bits)
