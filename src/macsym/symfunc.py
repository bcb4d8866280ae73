"""Symmetric functions over Q(q,t) in the p, m, e, h and s bases.

Elements are sparse maps from index partitions to exact coefficients.  All
conversions route through the monomial basis with per-degree transition
matrices, cached after first use.  The power-sum basis is the pivot for
multiplication and for every scalar product in the package.
"""

from functools import lru_cache
from itertools import combinations, permutations

from sympy.utilities.iterables import multiset_permutations

from .coeff import add_into, invert, ratqt
from .errors import NotSymmetric, UnstableRange
from .partitions import as_partition, partitions_of, weight

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

    Raises ArithmeticError when the division leaves a remainder; callers treat
    that as an internal inconsistency.
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
        c = rem[lead_r] / cd
        quo[e] = c
        add_into(rem, {tuple(a + b for a, b in zip(e, ed)): cdd
                       for ed, cdd in den.terms.items()}, -c)
    out = NPoly(num.n)
    out.terms = quo
    return out


# ---------------------------------------------------------------------------
# generators expanded into monomials
# ---------------------------------------------------------------------------

def power_sum_poly(r, n):
    terms = {}
    for i in range(n):
        e = [0] * n
        e[i] = r
        terms[tuple(e)] = 1
    return NPoly(n, terms)


def elementary_poly(r, n):
    if r > n:
        return NPoly(n)
    terms = {}
    for idx in combinations(range(n), r):
        e = [0] * n
        for i in idx:
            e[i] = 1
        terms[tuple(e)] = 1
    return NPoly(n, terms)


def complete_poly(r, n):
    terms = {}

    def rec(i, rem, acc):
        if i == n - 1:
            terms[tuple(acc + [rem])] = 1
            return
        for v in range(rem + 1):
            rec(i + 1, rem - v, acc + [v])

    if n == 0:
        return NPoly(0, {(): 1} if r == 0 else None)
    rec(0, r, [])
    return NPoly(n, terms)


_GEN = {"p": power_sum_poly, "e": elementary_poly, "h": complete_poly}


@lru_cache(maxsize=None)
def orbit_exponents(lam, n):
    """All distinct permutations of lam padded with zeros to length n."""
    if len(lam) > n:
        return ()
    padded = list(lam) + [0] * (n - len(lam))
    return tuple(tuple(e) for e in multiset_permutations(padded))


def monomial_poly(lam, n):
    return NPoly(n, {e: 1 for e in orbit_exponents(lam, n)})


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


@lru_cache(maxsize=None)
def schur_in_h(lam):
    """Jacobi-Trudi expansion s_lam = det(h_{lam_i - i + j}): dict h-partition -> int."""
    lam = as_partition(lam)
    if not lam:
        return {(): 1}
    ell = len(lam)
    out = {}
    for sigma in permutations(range(ell)):
        parts = []
        ok = True
        for i in range(ell):
            v = lam[i] - (i + 1) + (sigma[i] + 1)
            if v < 0:
                ok = False
                break
            if v > 0:
                parts.append(v)
        if not ok:
            continue
        add_into(out, {as_partition(sorted(parts, reverse=True)): _perm_sign(sigma)})
    return out


@lru_cache(maxsize=None)
def _gen_expansion_m(kind, lam):
    """X_lam (X in {p, e, h}) in the monomial basis: dict partition -> int."""
    d = weight(lam)
    if d == 0:
        return {(): 1}
    n = d
    poly = NPoly.constant(n, 1)
    for part in lam:
        poly = poly * _GEN[kind](part, n)
    return _collect_m(poly)


@lru_cache(maxsize=None)
def basis_to_m(basis, d):
    """Rows {lam: {mu: int}} expanding each basis element of degree d in m."""
    rows = {}
    for lam in partitions_of(d):
        if basis == "m":
            rows[lam] = {lam: 1}
        elif basis in _GEN:
            rows[lam] = _gen_expansion_m(basis, lam)
        elif basis == "s":
            rows[lam] = {}
            for mu, c in schur_in_h(lam).items():
                add_into(rows[lam], _gen_expansion_m("h", mu), c)
        else:
            raise ValueError(f"unknown basis {basis!r}")
    return rows


@lru_cache(maxsize=None)
def m_to_basis(basis, d):
    """Rows {mu: {lam: RatQT}} expanding each m_mu of degree d in the target basis."""
    plist = list(partitions_of(d))
    if basis == "m":
        return {lam: {lam: ratqt(1)} for lam in plist}
    return invert(basis_to_m(basis, d), plist)


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


def sym_zero(basis="p"):
    return SymFunc(basis)


def sym_one(basis="p"):
    return SymFunc(basis, {(): ratqt(1)})


def sym_gen(basis, lam, coeff=1):
    return SymFunc(basis, {as_partition(lam): ratqt(coeff)})


def convert(f, to):
    """Rewrite f in the target basis; exact, degree by degree."""
    if to not in BASES:
        raise ValueError(f"unknown basis {to!r}")
    if f.basis == to:
        return SymFunc(to, dict(f.terms))
    out = {}
    by_degree = {}
    for lam, c in f.terms.items():
        by_degree.setdefault(weight(lam), {})[lam] = c
    for d, terms in by_degree.items():
        src_rows = basis_to_m(f.basis, d)
        mid = {}
        for lam, c in terms.items():
            add_into(mid, src_rows[lam], c)
        if to == "m":
            out.update(mid)
            continue
        dst_rows = m_to_basis(to, d)
        for mu, c in mid.items():
            add_into(out, dst_rows[mu], c)
    res = SymFunc(to)
    res.terms = out
    return res


def multiply(f, g):
    """Product in the ring of symmetric functions, returned in the p basis."""
    return p_product(convert(f, "p"), convert(g, "p"))


def p_product(f, g):
    """Product of two p-basis elements: p_lam p_mu is p of the merged parts."""
    res = SymFunc("p")
    for lam, c1 in f.terms.items():
        add_into(res.terms, {as_partition(sorted(lam + mu, reverse=True)): c2
                             for mu, c2 in g.terms.items()}, c1)
    return res


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


def from_poly(g, require_stable=False):
    """Recover the m-basis preimage (supported on partitions of length <= n).

    The preimage is unique whenever the variable count is at least the degree;
    below that range monomial terms indexed by longer partitions are invisible,
    and `require_stable=True` turns the ambiguity into an UnstableRange error.
    Non-symmetric input raises NotSymmetric.
    """
    d = g.degree()
    if require_stable and d is not None and g.n < d:
        raise UnstableRange(f"degree {d} needs at least {d} variables, got {g.n}")
    groups = {}
    for e, c in g.terms.items():
        lam = as_partition(sorted((x for x in e if x), reverse=True))
        groups.setdefault(lam, []).append(c)
    out = {}
    for lam, cs in groups.items():
        if len(cs) != len(orbit_exponents(lam, g.n)):
            raise NotSymmetric(f"orbit of {lam} is incomplete")
        first = cs[0]
        if any(c != first for c in cs[1:]):
            raise NotSymmetric(f"unequal coefficients on the orbit of {lam}")
        out[lam] = first
    res = SymFunc("m")
    res.terms = out
    return res
