"""Exact coefficient arithmetic: the field Q(q,t) and truncated (q,t) power series.

Rational functions are carried by sympy's sparse fraction field over Z[q,t]:
each element is a canonical pair, numerator and denominator coprime,
content-free and sign-normalized, and each field operation pays a gcd to
keep it so.  A linear combination therefore does not add term by term in
the field: `clear_ratqt` clears its terms to Z[q,t] over one common
denominator, the sum runs in the ring, and `reduce_ratqt` reduces each
output once.  An identity of sums of products over Z[q,t] is decided with
no ring product at all: `sums_of_products_equal` evaluates both sides at
q = 2^B, t = 2^(B W), spaced from the operands' norms and degrees so that
the evaluation is injective on them, and compares Python integers.
Truncated series live in
Q[[q,t]] / (total degree > M) and are plain dictionaries mapping
(q-exponent, t-exponent) to exact rational coefficients.  A series product
clears each operand to integers over one denominator, the lcm of its
coefficients' denominators, multiplies Python ints, and divides each output
coefficient once (`clear_denominators` / `divide_back`).
"""

import operator
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod

from sympy.polys.domains import ZZ
from sympy.polys.fields import field as _field

from .errors import InternalInconsistency, NotSeriesExpandable

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


def swap_poly(poly, sign=1):
    """sign * poly with q and t exchanged, for an element of Z[q,t]: its exponents swapped."""
    return poly.new({(b, a): sign * c for (a, b), c in poly.items()})


def swap_qt(r):
    """The involution q <-> t on Q(q,t).

    q <-> t is a ring automorphism of Z[q,t], so it keeps a canonical pair
    coprime and content-free: the exponents of numerator and denominator are
    swapped, and both are negated when the new denominator's leading
    coefficient is negative.  No gcd and no field arithmetic.
    """
    r = ratqt(r)
    numer, denom = r.numer, r.denom
    sign = -1 if denom[max(denom, key=lambda e: (e[1], e[0]))] < 0 else 1
    return FIELD.raw_new(swap_poly(numer, sign), swap_poly(denom, sign))


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
    """Inverse of the square matrix {lam: {mu: entry}} indexed by plist.

    The entries are field elements, Fraction or RatQT, and are used as they
    are; the identity starts as plain 0/1.  Gauss-Jordan elimination with the
    first nonzero pivot of each column; a pivot of 1 divides nothing.  The
    inverse comes back in the same sparse row form, zeros dropped; a singular
    matrix raises InternalInconsistency.
    """
    k = len(plist)
    idx = {lam: i for i, lam in enumerate(plist)}
    mat = [[0] * k for _ in range(k)]
    for lam, row in rows.items():
        for mu, c in row.items():
            mat[idx[lam]][idx[mu]] = c
    inv = [[int(i == j) for j in range(k)] for i in range(k)]
    for col in range(k):
        piv = next((r for r in range(col, k) if mat[r][col]), None)
        if piv is None:
            raise InternalInconsistency("singular matrix")
        mat[col], mat[piv] = mat[piv], mat[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        if (c := mat[col][col]) != 1:
            mat[col] = [v / c for v in mat[col]]
            inv[col] = [v / c for v in inv[col]]
        for r in range(k):
            if r != col and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
                inv[r] = [a - f * b for a, b in zip(inv[r], inv[col])]
    return {lam: {mu: c for mu, c in zip(plist, inv[i]) if c}
            for i, lam in enumerate(plist)}


def clear_ratqt(terms):
    """(den, {key: element of Z[q,t]}) with terms[key] = nums[key] / den.

    The values (RatQT, int or Fraction) are coerced into Q(q,t); den is the
    lcm of their denominators, and a denominator that already divides the
    running lcm costs one exact division and no gcd.  The empty map clears to
    (1, {}).  `reduce_ratqt` takes the pair back.
    """
    coeffs = {key: ratqt(c) for key, c in terms.items()}
    den, cofactor = RING.one, {}
    for c in coeffs.values():
        d = c.denom
        if d not in cofactor:
            cofactor[d] = None
            if den.rem(d):
                den = den.lcm(d)
    for d in cofactor:
        cofactor[d] = den.exquo(d)
    return den, {key: c.numer * cofactor[c.denom] for key, c in coeffs.items()}


def reduce_ratqt(nums, den):
    """{key: nums[key] / den} in Q(q,t) for a map of Z[q,t] numerators; zeros dropped.

    One reduction (`FIELD.new`, which returns the canonical pair) per nonzero
    value.
    """
    return {key: FIELD.new(n, den) for key, n in nums.items() if n}


def _packing_layout(equations):
    """(bits, width) for `sums_of_products_equal`, read from the operands alone.

    bits is one more than the bit length of the largest sum, over the sides,
    of the products of the factors' L1 norms; width is one more than the
    largest sum of q-degrees of a product's factors.
    """
    stats, bound, width = {}, 0, 1
    for side in (side for eq in equations for side in eq):
        total = 0
        for term in side:
            norm, qdeg = 1, 0
            for f in term:
                if (s := stats.get(id(f))) is None:
                    s = stats[id(f)] = (sum(abs(c) for c in f.values()),
                                        max((a for a, _ in f), default=0))
                norm, qdeg = norm * s[0], qdeg + s[1]
            total += norm
            width = max(width, qdeg + 1)
        bound = max(bound, total)
    return bound.bit_length() + 1, width


def sums_of_products_equal(equations):
    """Yield sum of prod(lhs terms) == sum of prod(rhs terms) for each (lhs, rhs), exactly.

    Each side is a list of tuples of Z[q,t] factors (an empty tuple is 1, an
    empty side 0).  Every side is evaluated at q = X = 2^bits, t = X^width
    (`_packing_layout`, over all the equations): a side's product has
    q-degree below width, so its monomials q^a t^b go to distinct powers
    X^(a + width*b), and each of its coefficients is at most the largest sum
    of products of L1 norms, under X / 2.  Balanced digits base X are
    unique, so equal images mean equal sides.  Each distinct operand is
    packed once, when an equation first needs it, and nothing is unpacked:
    a caller that stops at the first False packs no more.
    """
    bits, width = _packing_layout(equations)
    packed = {}

    def image(f):
        if (v := packed.get(id(f))) is None:
            v = packed[id(f)] = sum(c << bits * (a + width * b) for (a, b), c in f.items())
        return v

    def value(side):
        return sum(prod(map(image, term)) for term in side)

    return (value(lhs) == value(rhs) for lhs, rhs in equations)


def clear_denominators(coeffs):
    """(D, {key: c * D}) for a dict of exact int/Fraction values.

    D is the lcm of the values' denominators, so every c * D is an int.  An
    all-int dict comes back as itself with D = 1.
    """
    if all(type(c) is int for c in coeffs.values()):
        return 1, coeffs
    den = lcm(*(c.denominator for c in coeffs.values()))
    return den, {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}


def divide_back(coeffs, den):
    """{key: c / D} of a dict of ints, an int where D divides c, else a Fraction.

    With D = 1 the dict itself comes back.
    """
    if den == 1:
        return coeffs
    out = {}
    for k, c in coeffs.items():
        q, r = divmod(c, den)
        out[k] = Fraction(c, den) if r else q
    return out


# ---------------------------------------------------------------------------
# parsing / printing
# ---------------------------------------------------------------------------

# Largest |exponent| on q or t that parse_ratqt and cache terms accept (J_lam reaches
# 36 at weight 8): a short unbounded power could take minutes and gigabytes.
MAX_EXPONENT = 100
# Largest bit length of a coefficient that cache terms accept (J_lam reaches 19 bits at
# weight 8): the packed images of `sums_of_products_equal` widen with every bit.
MAX_COEFF_BITS = 64
# Largest combined depth of parentheses and unary minus signs parse_ratqt accepts:
# emit_ratqt writes one level, and deeper text would exhaust the recursive descent's stack.
MAX_NESTING = 20


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


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class _Parser:
    """Recursive descent over the text of a coefficient.

    Values stay in Z[q,t] while both operands of an operation are
    polynomials.  A quotient of two polynomials is one reduction
    (`FIELD.new`); from the first operand with a denominator on, the
    arithmetic runs in Q(q,t), reduced at every step, so a long sum of
    fractions stays bounded in size.  emit_ratqt's "(N)/(D)" therefore
    costs one reduction.  The arithmetic is in `combine` and `finish`; the
    grammar does not depend on it.
    """

    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def parse(self):
        result = self.expr()
        if self.pos != len(self.tokens):
            raise ValueError(f"trailing input in {self.text!r}")
        return self.finish(result)

    @staticmethod
    def combine(op, a, b):
        """a op b: over Z[q,t] while both are polynomials, a polynomial quotient
        reduced once, anything else in Q(q,t)."""
        if isinstance(a, RatQT) or isinstance(b, RatQT):
            return _OPS[op](_Parser.finish(a), _Parser.finish(b))
        if op != "/":
            return _OPS[op](a, b)
        if not b:
            raise ZeroDivisionError("division by zero")
        return FIELD.new(a, b)

    @staticmethod
    def finish(value):
        return value if isinstance(value, RatQT) else FIELD.new(value)

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
        total = self.term()
        if sign < 0:
            total = -total
        while True:
            kind, val = self.peek()
            if (kind, val) in (("op", "+"), ("op", "-")):
                self.take()
                total = self.combine(val, total, self.term())
            else:
                return total

    def term(self):
        total = self.factor()
        while True:
            kind, val = self.peek()
            if (kind, val) in (("op", "*"), ("op", "/")):
                self.take()
                total = self.combine(val, total, self.factor())
            elif kind in ("int", "sym") or (kind, val) == ("op", "("):
                # juxtaposition, e.g. "(1+q)(1-t)" or "2q"
                total = self.combine("*", total, self.factor())
            else:
                return total

    def factor(self):
        start = self.pos
        base = self.atom()
        kind, val = self.peek()
        if (kind, val) == ("op", "^"):
            if self.pos != start + 1 or self.tokens[start][0] != "sym":
                raise ValueError("only q or t may carry an exponent")
            self.take()
            kind, val = self.take()
            sign = 1
            if (kind, val) == ("op", "-"):
                sign = -1
                kind, val = self.take()
            if kind != "int" or val > MAX_EXPONENT:
                raise ValueError(f"exponent must be an integer of size at most {MAX_EXPONENT}")
            return base ** val if sign > 0 else FIELD.new(RING.one, base ** val)
        return base

    def atom(self):
        kind, val = self.take()
        if kind == "int":
            return RING(val)
        if kind == "sym":
            return RING.gens["qt".index(val)]
        if (kind, val) not in (("op", "("), ("op", "-")):
            raise ValueError(f"unexpected token {val!r}")
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ValueError(f"parentheses and unary minus signs nest deeper than {MAX_NESTING}")
        if val == "-":
            inner = -self.atom()
        else:
            inner = self.expr()
            if self.take() != ("op", ")"):
                raise ValueError("unbalanced parentheses")
        self.depth -= 1
        return inner


def parse_ratqt(text):
    """Parse "(1 - t + q*t)/(1 - q)" into Q(q,t); only q and t take an exponent.

    The text is evaluated over Z[q,t] until a denominator appears (see
    `_Parser`), so an emitted coefficient costs one reduction.
    """
    return _Parser(text).parse()


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
    of nonnegative entries with sum at most `order`.  Zero coefficients are
    never stored.  A product of two series clears each to integers over one
    denominator, multiplies ints, and divides each output coefficient once,
    so an integral coefficient comes back as an int.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs=None):
        if order < 0:
            raise ValueError(f"series order must be >= 0, got {order}")
        self.order = order
        self.coeffs = {}
        if coeffs:
            for e, c in coeffs.items():
                if e[0] < 0 or e[1] < 0:
                    raise ValueError(f"series exponent {e} is negative")
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
            den_l, left = clear_denominators(self.coeffs)
            den_r, right = clear_denominators(other.coeffs)
            # (a, b) -> a*(order+1) + b adds without carry while a + b <= order;
            # the right terms go by total degree, so each row stops at its room
            n1 = order + 1
            right = sorted((a + b, a * n1 + b, c) for (a, b), c in right.items())
            out = {}
            for (a1, b1), c1 in left.items():
                room, k1 = order - a1 - b1, a1 * n1 + b1
                for s2, k2, c2 in right:
                    if s2 > room:
                        break
                    out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
            res = QTSeries(order)
            res.coeffs = divide_back({divmod(k, n1): c for k, c in out.items() if c},
                                     den_l * den_r)
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


def _poly_to_series(poly, order):
    out = QTSeries(order)
    out.coeffs = {
        (a, b): int(c)
        for (a, b), c in poly.terms()
        if a + b <= order
    }
    return out


def cleared_series(den, nums, order):
    """{key: series of nums[key] / den} for Z[q,t] numerators over one denominator;
    zero series dropped.

    Series expansion is a ring homomorphism on the fractions with no pole at
    q = t = 0, so every representative of nums[key] / den has the same
    series, reduced or not: nothing is reduced here.  The integer content g
    of den comes off, the series of den / g is inverted once (integral when
    its constant term is +-1, as for c_lam), and each numerator costs one
    product and one division by g.  A den that vanishes at q = t = 0 raises
    NotSeriesExpandable.
    """
    den = RING(den)
    if not den.coeff(1):
        raise NotSeriesExpandable(f"{den} vanishes at q = t = 0: a pole of the series")
    content, den = den.primitive()
    inv = _poly_to_series(den, order).inverse()
    out = {}
    for key, num in nums.items():
        if s := _poly_to_series(num, order) * inv:
            s.coeffs = divide_back(s.coeffs, int(content))
            out[key] = s
    return out


def to_series(r, order):
    """Taylor-expand a RatQT about q = t = 0, truncated past total degree `order`."""
    r = ratqt(r)
    return cleared_series(r.denom, {(): r.numer}, order).get((), QTSeries(order))


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


@lru_cache(maxsize=None)
def _poch_series_inverse(a, b, order):
    """1 / (q^a t^b; q)_infinity as a QTSeries, shared by every negative exponent."""
    return _poch_series(a, b, order).inverse()


def _times(x, y):
    """x * y in Q(q,t), with no field operation when either factor is ONE."""
    return y if x == ONE else x if y == ONE else x * y


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
            out = QPochProduct(_times(self.prefactor, other.prefactor))
            out.factors = add_into(dict(self.factors), other.factors)
            return out
        return QPochProduct(_times(self.prefactor, ratqt(other)), dict(self.factors))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, QPochProduct):
            inv = QPochProduct(ONE if other.prefactor == ONE else ONE / other.prefactor,
                               {key: -e for key, e in other.factors.items()})
            return self * inv
        return QPochProduct(self.prefactor / ratqt(other), dict(self.factors))

    def to_series(self, order):
        """The product as a series: one product per factor and unit of its exponent.

        A base of total degree past the order expands to 1 and is skipped, and a
        prefactor of ONE costs nothing.
        """
        out = None if self.prefactor == ONE else to_series(self.prefactor, order)
        for (a, b), e in self.factors.items():
            if a + b > order:
                continue
            base = (_poch_series if e > 0 else _poch_series_inverse)(a, b, order)
            for _ in range(abs(e)):  # the cached base is copied, never handed out
                out = QTSeries(order, base.coeffs) if out is None else out * base
        return QTSeries.one(order) if out is None else out

    def __repr__(self):
        bits = [emit_ratqt(self.prefactor)]
        for (a, b), e in sorted(self.factors.items()):
            mono = "*".join(s if k == 1 else f"{s}^{k}" for s, k in (("q", a), ("t", b)) if k)
            piece = f"({mono or '1'};q)oo"
            if e != 1:
                piece += f"^{e}"
            bits.append(piece)
        return " * ".join(bits)
