"""Symmetric functions over Q(q,t) in the p, m, e, h and s bases.

Elements are sparse maps from index partitions to exact coefficients.  All
conversions route through the monomial basis with per-degree transition
matrices, cached after first use: integer rows, and for m_to_basis integer
rows over one integer denominator, read only by `convert_cleared`.  The
power-sum basis is the pivot for multiplication and for every scalar product
in the package.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm
from operator import sub

from sympy.polys.polyerrors import ExactQuotientFailed
from sympy.utilities.iterables import multiset_permutations

from .coeff import QTSeries, add_into, clear_ratqt, invert, ratqt, reduce_ratqt
from .partitions import as_partition, compositions, partitions_of, weight

BASES = ("p", "m", "e", "h", "s")


class NPoly:
    """Sparse polynomial in n variables with exact scalar coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self.terms[e] = c

    @classmethod
    def constant(cls, n, c):
        return cls(n, {(0,) * n: c})

    def degree(self):
        return max((sum(e) for e in self.terms), default=None)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, NPoly) and self.n == other.n and self.terms == other.terms

    def _check_n(self, other):
        if other.n != self.n:
            raise ValueError(f"polynomials in {self.n} and {other.n} variables")

    def __add__(self, other):
        self._check_n(other)
        res = NPoly(self.n)
        res.terms = add_into(dict(self.terms), other.terms)
        return res

    def __neg__(self):
        res = NPoly(self.n)
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, NPoly):
            self._check_n(other)
            res = NPoly(self.n)
            for e1, c1 in self.terms.items():
                add_into(res.terms, {tuple(a + b for a, b in zip(e1, e2)): c2
                                     for e2, c2 in other.terms.items()}, c1)
            return res
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c):
        res = NPoly(self.n)
        if c:
            res.terms = {e: v * c for e, v in self.terms.items()}
        return res

    def map_coeffs(self, fn):
        res = NPoly(self.n)
        for e, c in self.terms.items():
            v = fn(c)
            if v:
                res.terms[e] = v
        return res

    def __repr__(self):
        return f"NPoly(n={self.n}, {len(self.terms)} terms)"


def npoly_divexact(num, den):
    """Exact division of multivariate polynomials (lex term order).

    Coefficients may lie in Q(q,t) or in Z[q,t].  Raises ArithmeticError when
    the division leaves a remainder, or when a Z[q,t] coefficient does not
    divide; callers treat that as an internal inconsistency.
    """
    num._check_n(den)
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    lead_d = max(den.terms)
    cd = den.terms[lead_d]
    rem = dict(num.terms)
    quo = {}
    while rem:
        lead_r = max(rem)
        e = tuple(a - b for a, b in zip(lead_r, lead_d))
        if any(x < 0 for x in e):
            raise ArithmeticError("nonzero remainder in exact polynomial division")
        try:
            c = rem[lead_r] / cd
        except ExactQuotientFailed as exc:  # ring coefficients that do not divide
            raise ArithmeticError("nonzero remainder in exact polynomial division") from exc
        quo[e] = c
        add_into(rem, {tuple(a + b for a, b in zip(e, ed)): cdd
                       for ed, cdd in den.terms.items()}, -c)
    out = NPoly(num.n)
    out.terms = quo
    return out


def is_symmetric(terms, n):
    """Whether {exponent: coefficient} is fixed by the adjacent transpositions, which generate S_n."""
    return all(terms.get(e[:i] + (e[i + 1], e[i]) + e[i + 2:]) == c
               for e, c in terms.items() for i in range(n - 1))


def require_symmetric(poly, what):
    """Raise ValueError unless poly is symmetric (is_symmetric)."""
    if not is_symmetric(poly.terms, poly.n):
        raise ValueError(f"{what} is not symmetric")


@lru_cache(maxsize=None)
def orbit_exponents(lam, n):
    """All distinct permutations of lam padded with zeros to length n."""
    if len(lam) > n:
        return ()
    padded = list(lam) + [0] * (n - len(lam))
    return tuple(tuple(e) for e in multiset_permutations(padded))


def _collect_m(poly):
    """Collect a symmetric polynomial into monomial-basis coefficients (trusted input)."""
    out = {}
    for e, c in poly.terms.items():
        if all(e[i] >= e[i + 1] for i in range(len(e) - 1)):
            out[as_partition(e)] = c
    return out


def _perm_sign(perm):
    inv = sum(1 for a, b in combinations(range(len(perm)), 2) if perm[a] > perm[b])
    return -1 if inv & 1 else 1


def _straighten(shifted):
    """(sign, nu) with alternant a_shifted = sign a_(nu+delta), or None if it is 0."""
    n = len(shifted)
    if len(set(shifted)) < n:
        return None
    order = sorted(range(n), key=shifted.__getitem__, reverse=True)
    return _perm_sign(order), as_partition([shifted[j] - (n - 1 - i)
                                            for i, j in enumerate(order)])


def _m_in_s(d):
    """Rows {mu: {nu: Fraction}}: each m_mu of degree d in the Schur basis.

    In d variables m_mu a_delta is the sum of a_(alpha+delta) over the orbit
    of mu, and each term straightens to +-a_(nu+delta) = +-s_nu a_delta or 0
    (the bialternant, Macdonald I (3.1)).
    """
    rows = {}
    for mu in partitions_of(d):
        rows[mu] = {}
        for alpha in orbit_exponents(mu, d):
            if straight := _straighten([a + d - 1 - i for i, a in enumerate(alpha)]):
                sign, nu = straight
                add_into(rows[mu], {nu: Fraction(sign)})
    return rows


def _pieri_steps(kind, r, nu):
    """The exponents a <= nu of g_r (p_r, e_r or h_r) on the len(nu) coordinates of nu."""
    n = len(nu)
    if kind == "p":
        return [tuple(r if j == i else 0 for j in range(n)) for i in range(n) if nu[i] >= r]
    if kind == "e":
        return [tuple(int(j in idx) for j in range(n)) for idx in combinations(range(n), r)]
    return [a for a in compositions(r, n) if all(map(int.__le__, a, nu))]


@lru_cache(maxsize=None)
def _gen_expansion_m(kind, lam):
    """X_lam (X in {p, e, h}) in the monomial basis: dict partition -> int.

    One Pieri step on sorted exponents (Macdonald I.6): X_lam = g_r X_rest
    with r = lam_1, and every monomial of g_r has coefficient 1, so the
    coefficient of m_nu is the sum of X_rest[sort(nu - a)] over the exponents
    a <= nu of g_r.  Those vanish past len(nu), and only the partitions nu of
    |lam| are visited.
    """
    if not lam:
        return {(): 1}
    rest = _gen_expansion_m(kind, lam[1:])
    out = {}
    for nu in partitions_of(weight(lam)):
        c = sum(rest.get(tuple(sorted(filter(None, map(sub, nu, a)), reverse=True)), 0)
                for a in _pieri_steps(kind, lam[0], nu))
        if c:
            out[nu] = c
    return out


@lru_cache(maxsize=None)
def basis_to_m(basis, d):
    """Rows {lam: {mu: int}} expanding each basis element of degree d in m."""
    if basis == "s":  # the unitriangular inverse of the straightened m -> s rows
        return {lam: {mu: int(c) for mu, c in row.items()}
                for lam, row in invert(_m_in_s(d), list(partitions_of(d))).items()}
    rows = {}
    for lam in partitions_of(d):
        if basis == "m":
            rows[lam] = {lam: 1}
        elif basis in ("p", "e", "h"):
            rows[lam] = _gen_expansion_m(basis, lam)
        else:
            raise ValueError(f"unknown basis {basis!r}")
    return rows


@lru_cache(maxsize=None)
def m_to_basis(basis, d):
    """(D, {mu: {lam: int}}): each m_mu of degree d in the target basis, times one integer D.

    The rows are the inverse of the integer matrix basis_to_m(basis, d)
    (Macdonald I.6), eliminated over Fractions; D is the lcm of their
    denominators.
    """
    inv = invert({lam: {mu: Fraction(c) for mu, c in row.items()}
                  for lam, row in basis_to_m(basis, d).items()}, list(partitions_of(d)))
    den = lcm(*(c.denominator for row in inv.values() for c in row.values()))
    return den, {mu: {lam: int(c * den) for lam, c in row.items()} for mu, row in inv.items()}


# ---------------------------------------------------------------------------
# the SymFunc container
# ---------------------------------------------------------------------------

class SymFunc:
    """A symmetric function: basis tag plus sparse map partition -> coefficient."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis, terms=None):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        self.terms = {}
        if terms:
            for lam, c in terms.items():
                if c:
                    self.terms[as_partition(lam)] = c

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, SymFunc)
            and self.basis == other.basis
            and self.terms == other.terms
        )

    def __add__(self, other):
        if other.basis != self.basis:
            raise ValueError(f"cannot add the {self.basis} and {other.basis} bases")
        res = SymFunc(self.basis)
        res.terms = add_into(dict(self.terms), other.terms)
        return res

    def __neg__(self):
        res = SymFunc(self.basis)
        res.terms = {lam: -c for lam, c in self.terms.items()}
        return res

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        res = SymFunc(self.basis)
        if c:
            res.terms = {lam: v * c for lam, v in self.terms.items()}
        return res

    def map_coeffs(self, fn):
        res = SymFunc(self.basis)
        for lam, c in self.terms.items():
            v = fn(c)
            if v:
                res.terms[lam] = v
        return res

    def degrees(self):
        return sorted({weight(lam) for lam in self.terms})

    def coefficient(self, lam):
        return self.terms.get(as_partition(lam), ratqt(0))

    def __repr__(self):
        bits = [f"{c!r}*{self.basis}{lam}" for lam, c in sorted(self.terms.items())]
        return " + ".join(bits) if bits else "0"


def sym_gen(basis, lam, coeff=1):
    return SymFunc(basis, {as_partition(lam): ratqt(coeff)})


def convert_cleared(nums, basis, to, d):
    """(D, out): the degree-d map nums in `basis` rewritten in `to` as out / D.

    The coefficients need only take integer multiples (ints, Z[q,t]
    numerators or series).  The integer basis_to_m rows take them to m and
    the integer m_to_basis rows on to `to`; D is 1 into m and otherwise the
    rows' one integer denominator.  This is the one reader of those rows.
    """
    src, mid = basis_to_m(basis, d), {}
    for lam, c in nums.items():
        add_into(mid, src[lam], c)
    if to == "m":
        return 1, mid
    den, rows = m_to_basis(to, d)
    out = {}
    for mu, c in mid.items():
        add_into(out, rows[mu], c)
    return den, out


def convert(f, to):
    """Rewrite f in the target basis; exact, degree by degree.

    Over Q(q,t), f is cleared to Z[q,t] over one denominator, each degree
    goes through `convert_cleared`, and each output coefficient is reduced
    once.  A map of series coefficients converts to the m basis only.
    """
    if to not in BASES:
        raise ValueError(f"unknown basis {to!r}")
    if f.basis == to:
        return SymFunc(to, dict(f.terms))
    series = any(isinstance(c, QTSeries) for c in f.terms.values())
    if series and to != "m":
        raise ValueError(f"series coefficients convert to the m basis only, not {to!r}")
    den, nums = (None, f.terms) if series else clear_ratqt(f.terms)
    by_degree = {}
    for lam, c in nums.items():
        by_degree.setdefault(weight(lam), {})[lam] = c
    res = SymFunc(to)
    for d, terms in by_degree.items():
        row_den, out = convert_cleared(terms, f.basis, to, d)
        res.terms.update(out if series else reduce_ratqt(out, den * row_den))
    return res


def _reduced_p(cleared):
    """The p-basis SymFunc of a cleared pair (den, {lam: Z[q,t]}), each coefficient reduced once."""
    den, nums = cleared
    return SymFunc("p", reduce_ratqt(nums, den))


def multiply(f, g):
    """Product in the ring of symmetric functions, returned in the p basis: each
    factor cleared to Z[q,t] once, each output coefficient reduced once."""
    return _reduced_p(p_product_cleared(clear_ratqt(convert(f, "p").terms),
                                        clear_ratqt(convert(g, "p").terms)))


def p_product_cleared(f, g):
    """The product of cleared p-vectors (den, {lam: Z[q,t]}): p_lam p_mu is p of the merged parts."""
    (den_f, nums_f), (den_g, nums_g) = f, g
    out = {}
    for lam, c1 in nums_f.items():
        add_into(out, {as_partition(sorted(lam + mu, reverse=True)): c2
                       for mu, c2 in nums_g.items()}, c1)
    return den_f * den_g, out


def evaluate_n(f, n):
    """Project onto n variables; monomials indexed by partitions longer than n vanish."""
    if n < 0:
        raise ValueError(f"variable count must be >= 0, got {n}")
    fm = convert(f, "m")
    out = NPoly(n)
    for lam, c in fm.terms.items():
        for e in orbit_exponents(lam, n):
            out.terms[e] = c
    return out

