"""Construction of the Macdonald basis and the operators attached to it.

P_lam comes from the zero mode E = [phi(z)]_0 of the paper's vertex operator
phi(z) = exp(sum_n (1-t^-n)/n p_n z^n) exp(-sum_n (1-q^n) d/dp_n z^-n).  On
degree d, t^d E has a matrix over Z[q,t] in the monomial basis that is
triangular in dominance, with the distinct eigenvalues eps_lam on its
diagonal.  The integral form J_lam = c_lam P_lam (Macdonald VI.8) has
coefficients in Z[q,t], so its eigenvector equation is solved down the
dominance order by exact ring division, with no gcd.  A pair holds J_lam;
P_lam and Q_lam are reduced into Q(q,t) on first read, each coefficient
once.  A cache file holds J as integer triples, checked against the same
equation when loaded: every coefficient of t^d E J - eps_lam J is decided
by one packed big-integer evaluation (`coeff.sums_of_products_equal`).
The Hall-Littlewood side of the specializations is built independently, by
symmetrization (Macdonald III (2.2)).
"""

import json
import os
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, product, zip_longest
from math import comb, factorial, prod
from types import MappingProxyType

from .coeff import (FIELD, MAX_COEFF_BITS, MAX_EXPONENT, RING, add_into, clear_ratqt,
                    reduce_ratqt, sums_of_products_equal)
from .errors import InternalInconsistency, SpecializationPole
from .pairing import z_plain
from .partitions import (MAX_WEIGHT, as_partition, arm_leg, cells, conjugate,
                         dominates, partitions_of, weight)
from .symfunc import (NPoly, SymFunc, _collect_m, _reduced_p, _straighten, basis_to_m,
                      convert_cleared, evaluate_n, orbit_exponents, p_product_cleared,
                      require_symmetric)

_q, _t = RING.gens


@dataclass(frozen=True)
class MacdonaldPair:
    """P_lam and its dual partner Q_lam = b_lam P_lam, <Q_lam, P_lam> = 1, held as
    the integral form J_lam = c_lam P_lam over Z[q,t].

    J_p = (D, D J_lam in p) is formed from J on first read.  P (m basis,
    unitriangular), P_p = J_p / (D c_lam) and Qf = J_p / (D c'_lam) (both in p)
    are reduced into Q(q,t) on first read, each coefficient once.  J is held
    read-only, as every read above and `save_cache` trust it, and the pair
    hashes on lam.
    """

    lam: tuple
    J: MappingProxyType = field(hash=False)  # J_lam = c_lam P_lam in m, {mu: Z[q,t]}

    def __post_init__(self):
        object.__setattr__(self, "J", MappingProxyType(dict(self.J)))

    @cached_property
    def J_p(self):
        return convert_cleared(self.J, "m", "p", weight(self.lam))

    def cleared_p(self, dual=False):
        """P_lam (Q_lam if dual) in the p basis as (den, {kappa: element of Z[q,t]})."""
        D, nums = self.J_p
        return D * _arm_leg_products(self.lam)[dual], nums

    @cached_property
    def P(self):
        return SymFunc("m", reduce_ratqt(self.J, _arm_leg_products(self.lam)[0]))

    @cached_property
    def P_p(self):
        return _reduced_p(self.cleared_p())

    @cached_property
    def Qf(self):
        return _reduced_p(self.cleared_p(dual=True))

    @property
    def b(self):
        return b_coeff(self.lam)

    @cached_property
    def norm(self):
        """<P_lam, P_lam> = 1/b_lam."""
        return 1 / self.b


@lru_cache(maxsize=None)
def _arm_leg_products(lam):
    """(c_lam, c'_lam) = prod over cells (1 - q^a t^(l+1)), (1 - q^(a+1) t^l) in Z[q,t]."""
    c = c_prime = RING.one
    for cell in cells(lam):
        a, l, _, _ = arm_leg(lam, cell)
        c *= 1 - _q ** a * _t ** (l + 1)
        c_prime *= 1 - _q ** (a + 1) * _t ** l
    return c, c_prime


@lru_cache(maxsize=None)
def b_coeff(lam):
    """Arm/leg product for b_lam = 1 / <P_lam, P_lam>: c_lam / c'_lam."""
    return FIELD.new(*_arm_leg_products(as_partition(lam)))


def _eigenvalue(lam, d):
    """eps_lam = t^d + (t-1) sum_i (q^lam_i - 1) t^(d-i), the eigenvalue of t^d E."""
    return _t ** d + (_t - 1) * sum(((_q ** part - 1) * _t ** (d - i)
                                     for i, part in enumerate(lam, 1)), RING.zero)


def _zero_mode_p(kappa, d):
    """d! t^d E p_kappa in the power-sum basis, as {rho: element of Z[q,t]}.

    The translation part sends p_r to p_r - (1-q^r) z^-r; a removed sub-multiset
    S of kappa pairs with g_|S| = sum_{|mu|=|S|} z_mu^-1 prod (1 - t^-mu_i) p_mu.
    z_mu divides |mu|!, which divides d!, so d! / z_mu is an integer.
    """
    mult = Counter(kappa)
    out = {}
    for removed in product(*(range(m + 1) for m in mult.values())):
        coeff, s, rest = RING.one, 0, []
        for (part, m), k in zip(mult.items(), removed):
            coeff *= comb(m, k) * (_q ** part - 1) ** k
            s += part * k
            rest += [part] * (m - k)
        for mu in partitions_of(s):
            c = coeff * _t ** (d - s) * (factorial(d) // z_plain(mu))
            for part in mu:
                c *= _t ** part - 1
            add_into(out, {as_partition(sorted(rest + list(mu), reverse=True)): c})
    return out


@lru_cache(maxsize=None)
def zero_mode(d):
    """t^d E on degree d in the monomial basis: rows {nu: {mu: element of Z[q,t]}}.

    E m_nu = sum_mu row[nu][mu] m_mu.  d! t^d E runs over Z[q,t] in the p
    basis and is taken to m; it acts on m_nu through the integer m -> p row
    of nu over its denominator D, and each entry is divided exactly by D d!.
    The matrix must be over Z[q,t] (a remainder), triangular in dominance and
    with diagonal eps_nu; anything else raises InternalInconsistency.
    """
    image_m = {kappa: convert_cleared(_zero_mode_p(kappa, d), "p", "m", d)[1]
               for kappa in partitions_of(d)}
    rows = {}
    for nu in partitions_of(d):
        den, m2p_row = convert_cleared({nu: 1}, "m", "p", d)
        den *= factorial(d)
        row = {}
        for kappa, c in m2p_row.items():
            add_into(row, image_m[kappa], c)
        rows[nu] = {}
        for mu, c in row.items():
            quo, rem = divmod(c, den)
            if rem:
                raise InternalInconsistency(
                    f"zero-mode entry ({nu}, {mu}) is not in Z[q,t]: {c} / {den}")
            if not dominates(nu, mu):
                raise InternalInconsistency(f"zero mode is not triangular at ({nu}, {mu})")
            rows[nu][mu] = quo
        if rows[nu].get(nu) != _eigenvalue(nu, d):
            raise InternalInconsistency(f"zero-mode diagonal at {nu} is not eps_{nu}")
    return rows


def _zero_mode_image(rows, numer, mu):
    """Coefficient of m_mu in t^d E applied to sum_nu numer[nu] m_nu."""
    return sum((n * rows[nu][mu] for nu, n in numer.items() if mu in rows[nu]), RING.zero)


def _eigen_equations(lam, J):
    """{mu: (lhs, rhs)}: the m_mu coefficient of t^d E J = eps_lam J, for every
    partition mu of d = |lam|, as sums of products for `sums_of_products_equal`."""
    rows = zero_mode(weight(lam))
    eps = rows[lam][lam]
    return {mu: ([(n, rows[nu][mu]) for nu, n in J.items() if mu in rows[nu]],
                 [(eps, J[mu])] if mu in J else [])
            for mu in rows}


def _integral_form(lam):
    """J_lam = c_lam P_lam in the monomial basis, {mu: element of Z[q,t]}.

    Solves t^d E J = eps_lam J from N_lam = c_lam down the dominance order: each
    N_mu is an exact quotient by eps_lam - eps_mu, and a remainder raises
    InternalInconsistency.
    """
    d = weight(lam)
    rows = zero_mode(d)
    eps = rows[lam][lam]
    numer = {lam: _arm_leg_products(lam)[0]}
    for mu in partitions_of(d):
        if mu == lam or not dominates(lam, mu):
            continue
        total = _zero_mode_image(rows, numer, mu)
        if total:
            quo, rem = divmod(total, eps - rows[mu][mu])
            if rem:
                raise InternalInconsistency(
                    f"J_{lam} coefficient at m_{mu} is not an exact quotient")
            numer[mu] = quo
    return numer


_PAIRS = {}


def macdonald_pair(lam):
    """The Macdonald pair for lam, memoized per session."""
    lam = as_partition(lam)
    pair = _PAIRS.get(lam)
    if pair is None:
        pair = _PAIRS[lam] = MacdonaldPair(lam, _integral_form(lam))
    return pair


@lru_cache(maxsize=1)
def _symmetrizer_product(n):
    """prod_{i<j} (x_i - t x_j) as {x-exponent: (c_0, c_1, ...)}, sum_b c_b t^b the Z[t]
    coefficient of that x-monomial, shared by every lam of one n; each factor multiplies
    the rows, so no monomial in x and t is held."""
    rows = {(0,) * n: (1,)}
    for i, j in combinations(range(n), 2):
        nxt = {}
        for e, row in rows.items():
            for k, part in ((i, row), (j, (0, *(-c for c in row)))):  # x_i, then -t x_j
                key = e[:k] + (e[k] + 1,) + e[k + 1:]
                nxt[key] = tuple(map(sum, zip_longest(nxt.get(key, ()), part, fillvalue=0)))
        rows = nxt
    return rows


def hall_littlewood_symmetrizer(lam, n):
    """(A, v_lam) with P_lam(x_1..x_n; t) = sum_nu A[nu] s_nu / v_lam (Macdonald III (2.2)).

    Summed over S_n, each monomial x^beta of x^lam prod_{i<j} (x_i - t x_j)
    gives the alternant a_beta, +-a_(nu+delta) or 0 (`_straighten`), and
    a_(nu+delta) / a_delta = s_nu; each x-exponent is straightened once, for its
    whole Z[t] row.  v_lam(t) = prod_i prod_{j<=m_i} (1-t^j)/(1-t) over the
    multiplicities m_i of lam padded with zeros to length n.
    """
    shift = tuple(lam) + (0,) * (n - len(lam))  # x^lam, as a shift of exponents
    A = {}
    for e, row in _symmetrizer_product(n).items():
        if straight := _straighten([a + part for a, part in zip(e, shift)]):
            sign, nu = straight
            A.setdefault(nu, []).append([sign * c for c in row])
    v = prod((sum((_t ** s for s in range(k)), RING.zero)
              for m in Counter(shift).values() for k in range(1, m + 1)), start=RING.one)
    return {nu: c for nu, rows in A.items() if (c := RING.from_dict(
        {(0, b): a for b, a in enumerate(map(sum, zip_longest(*rows, fillvalue=0))) if a}))}, v


# ---------------------------------------------------------------------------
# shift operators
# ---------------------------------------------------------------------------

def _spectrum_e(alpha, r, n):
    """e_r(t^(n-1) q^alpha_1, ..., t^0 q^alpha_n) in Z[q,t], alpha padded with zeros."""
    alpha = tuple(alpha) + (0,) * (n - len(alpha))
    return RING.from_dict(Counter((sum(alpha[i] for i in subset), sum(n - 1 - i for i in subset))
                                  for subset in combinations(range(n), r)))


def _dr_core(r, F, n):
    """D_r of sum_mu F[mu] m_mu in n variables, as s-basis coefficients over Z[q,t].

    For symmetric f = sum_alpha c_alpha x^alpha, D_r f is the sum of
    c_alpha e_r(t^(n-i) q^alpha_i) a_(alpha+delta) / a_delta, delta = (n-1, ..., 0)
    (Macdonald VI (3.4)).  `_straighten` takes a_(alpha+delta) to
    +-a_(nu+delta) or 0, and a_(nu+delta) / a_delta = s_nu: no division.  An
    m_mu with l(mu) > n is 0.
    """
    out = {}
    for mu, c in F.items():
        row = {}  # D_r m_mu, so that c multiplies once per nu
        for alpha in orbit_exponents(mu, n):
            if straight := _straighten([a + n - 1 - i for i, a in enumerate(alpha)]):
                sign, nu = straight
                add_into(row, {nu: _spectrum_e(alpha, r, n)}, sign)
        add_into(out, row, c)
    return out


def _schur_to_m(S, n):
    """sum_nu S[nu] s_nu in the m basis by the integer rows, without the m_mu, l(mu) > n."""
    out = {}
    for nu, c in S.items():
        add_into(out, basis_to_m("s", weight(nu))[nu], c)
    return {mu: c for mu, c in out.items() if len(mu) <= n}


def _cleared_m(f, n, *orders):
    """(den, {mu: element of Z[q,t]}): f cleared to one denominator, in the m basis.

    f must be a symmetric polynomial in n variables, and 1 <= r <= n for each
    r in orders; anything else raises ValueError.
    """
    if f.n != n or not all(1 <= r <= n for r in orders):
        raise ValueError(f"D_r for r in {orders} needs 1 <= r <= n = {n} and a polynomial "
                         "in n variables")
    require_symmetric(f, "the argument of D_r")
    den, F = clear_ratqt(f.terms)
    return den, _collect_m(NPoly(n, F))


def dr_apply(r, f, n):
    """Apply the r-th Macdonald shift operator to f, a symmetric polynomial in n variables over Q(q,t).

    The core takes f, cleared to Z[q,t], from the m basis to D_r f in the s
    basis; the integer s -> m rows take it back, and each m coefficient is
    reduced into Q(q,t) once.
    """
    den, F = _cleared_m(f, n, r)
    return evaluate_n(SymFunc("m", reduce_ratqt(_schur_to_m(_dr_core(r, F, n), n), den)), n)


def dr_eigenvalue(lam, r, n):
    """e_r of the spectrum (t^(n-1) q^lam_1, ..., t^0 q^lam_n), for len(lam) <= n, 1 <= r <= n."""
    lam = as_partition(lam)
    if len(lam) > n or not 1 <= r <= n:
        raise ValueError(f"the D_{r} eigenvalue needs len(lambda) <= n = {n} and 1 <= r <= n")
    return FIELD(_spectrum_e(lam, r, n))


def dr_eigencheck(lam, r, n):
    """Exact check of D_r P_lam = e_r(spectrum) P_lam in n variables.

    D_r J and e_r J, J = c_lam P_lam the pair's integral form over Z[q,t], are
    compared in the s basis on the s_nu with l(nu) <= n, a basis of the
    symmetric polynomials in n variables.  For r = n this sees only the
    degree: D_n = t^(n(n-1)/2) T_(q,x_1) ... T_(q,x_n) scales every f of
    degree d by t^(n(n-1)/2) q^d, which is e_n for every lam of weight d.
    """
    ev = dr_eigenvalue(lam, r, n).numer  # e_r of a spectrum in Z[q,t]: its denom is 1
    J = macdonald_pair(lam).J
    den, J_s = convert_cleared(J, "m", "s", weight(lam))
    rhs = {nu: c * ev for nu, c in J_s.items() if len(nu) <= n}
    return {nu: c * den for nu, c in _dr_core(r, J, n).items()} == rhs


def dr_commute_check(r, s, f, n):
    """[D_r, D_s] f = 0, exactly: the core twice on f cleared to Z[q,t], compared in s."""
    _, F = _cleared_m(f, n, r, s)
    return (_dr_core(r, _schur_to_m(_dr_core(s, F, n), n), n)
            == _dr_core(s, _schur_to_m(_dr_core(r, F, n), n), n))


# ---------------------------------------------------------------------------
# structure constants, skew functions, specializations
# ---------------------------------------------------------------------------

def structure_f(mu, nu):
    """f^lam_{mu,nu}, the P-basis expansion of P_mu P_nu: a fresh dict over the
    memoized peel of the unordered pair, as f^lam_{mu,nu} = f^lam_{nu,mu}."""
    return dict(_structure_peel(*sorted((as_partition(mu), as_partition(nu)))))


def _peel_p(rest, den, below=None):
    """Peel an m-basis map {rho: {key: element of Z[q,t]}} over den into the P basis.

    Yields (lam, numerators, den) down reverse lex, numerators / den the
    coefficient of P_lam; a row that cancels to empty is skipped.  Reverse lex
    puts each lam before every partition it dominates and P is unitriangular
    in m, so once the larger P are off, the m_lam row left is that
    coefficient, and P_lam = J_lam / c_lam comes off over one running
    denominator.  With `below`, only the rows of the rho dominating it are kept.
    """
    while rest:
        lam = max(rest)
        if a := rest.pop(lam):
            yield lam, a, den
            J = macdonald_pair(lam).J
            rest = {rho: {key: v * J[lam] for key, v in row.items()} for rho, row in rest.items()}
            den *= J[lam]
            for rho, v in J.items():
                if rho != lam and (below is None or dominates(rho, below)):
                    add_into(rest.setdefault(rho, {}), a, -v)


@lru_cache(maxsize=None)
def _structure_peel(mu, nu):
    """{lam: f^lam_{mu,nu}}: the ring product of the held numerators, taken to m by the
    integer p -> m rows and peeled into P (`_peel_p`); each f^lam_{mu,nu} reduced once."""
    den, prod_p = p_product_cleared(macdonald_pair(mu).cleared_p(),
                                    macdonald_pair(nu).cleared_p())
    _, rest = convert_cleared(prod_p, "p", "m", weight(mu) + weight(nu))
    return {lam: FIELD.new(a[()], den)
            for lam, a, den in _peel_p({rho: {(): v} for rho, v in rest.items()}, den)}


def skew_q_cleared(lam, mu):
    """Q_{lam/mu} = sum_nu f^lam_{mu,nu} Q_nu in p as (den, {kappa: Z[q,t]}).

    Each f^lam_{mu,nu} comes from the peel of P_mu P_nu (`structure_f`).
    With Q_nu = J_p(nu) / den_nu, the f^lam_{mu,nu} / den_nu are cleared to
    Z[q,t] once and the sum runs over the held J_p; nothing is reduced.
    """
    lam, mu = as_partition(lam), as_partition(mu)
    if weight(mu) > weight(lam):
        return RING.one, {}
    f, J = {}, {}
    for nu in partitions_of(weight(lam) - weight(mu)):
        if c := structure_f(mu, nu).get(lam):
            den_nu, J[nu] = macdonald_pair(nu).cleared_p(dual=True)
            f[nu] = c / den_nu
    den, f = clear_ratqt(f)
    total = {}
    for nu, nums in J.items():
        add_into(total, nums, f[nu])
    return den, total


def skew_q(lam, mu):
    """Skew function Q_{lam/mu} in the p basis, each coefficient reduced once."""
    return _reduced_p(skew_q_cleared(lam, mu))


def skew_p(lam, mu):
    """P_{lam/mu} = b_lam^(-1) b_mu Q_{lam/mu}: nums c_mu c'_lam over den c'_mu c_lam."""
    lam, mu = as_partition(lam), as_partition(mu)
    den, nums = skew_q_cleared(lam, mu)
    (c_lam, c_lam_prime), (c_mu, c_mu_prime) = map(_arm_leg_products, (lam, mu))
    scale = c_mu * c_lam_prime
    return _reduced_p((den * c_mu_prime * c_lam, {k: n * scale for k, n in nums.items()}))


SPECIALIZE_CASES = ("schur", "hall-littlewood", "monomial", "dual-e", "inverse-qt")
# the exponents (a, b) of a term under t -> q, q -> 0 (None: dropped), t -> 1, q -> 1, (1/q, 1/t)
_EXPONENT_MAPS = dict(zip(SPECIALIZE_CASES, (
    lambda a, b, A, B: (a + b, 0), lambda a, b, A, B: None if a else (0, b),
    lambda a, b, A, B: (a, 0), lambda a, b, A, B: (0, b), lambda a, b, A, B: (A - a, B - b))))


def specialize_difference(lam, which):
    """None when P_lam, degenerated as in Macdonald VI (4.14), equals what it must, else
    (mu, got, want) in Q(q,t) at the first m_mu where they differ.  Each coefficient of the
    held reduced P goes by one exponent map of its numerator and denominator, (A, B) their
    largest exponents of q and t; a denominator image 0 raises SpecializationPole.  Each m_mu
    is one equation num want_den = want_num den over Z[q,t] (a missing key an empty side),
    all decided by one packed evaluation; only a failing key's values are reduced."""
    lam, exponents = as_partition(lam), _EXPONENT_MAPS.get(which)
    if exponents is None:
        raise ValueError(f"unknown specialization {which!r}")
    P, got, d = macdonald_pair(lam).P.terms, {}, weight(lam)
    for mu, c in P.items():
        shift = tuple(map(max, zip(*c.numer, *c.denom))) if which == "inverse-qt" else (0, 0)
        images = (Counter(), Counter())
        for image, poly in zip(images, (c.numer, c.denom)):
            for (a, b), v in poly.items():
                if (e := exponents(a, b, *shift)) is not None:
                    image[e] += v
        got[mu] = RING.from_dict(images[0]), RING.from_dict(images[1])
        if not got[mu][1]:
            raise SpecializationPole(f"the denominator of {c} vanishes under {which}")
    if which == "inverse-qt":
        want = {mu: (c.numer, c.denom) for mu, c in P.items()}
    elif which == "hall-littlewood":
        A, v = hall_littlewood_symmetrizer(lam, d)
        want = {mu: (c, v) for mu, c in _schur_to_m(A, d).items()}
    else:
        row = ({lam: 1} if which == "monomial" else basis_to_m("s", d)[lam] if which == "schur"
               else basis_to_m("e", d)[conjugate(lam)])
        want = {mu: (RING(c), RING.one) for mu, c in row.items()}
    keys, none = sorted(got.keys() | want.keys()), (RING.zero, RING.one)
    equations = [([(n, wd)] if n else [], [(wn, dn)] if wn else [])
                 for (n, dn), (wn, wd) in ((got.get(mu, none), want.get(mu, none)) for mu in keys)]
    for mu, holds in zip(keys, sums_of_products_equal(equations)):
        if not holds:
            return mu, *(FIELD.new(*side.get(mu, none)) for side in (got, want))
    return None


def specialize_check(lam, which):
    """Check one classical degeneration of P_lam, exactly, with no Q(q,t) arithmetic."""
    return specialize_difference(lam, which) is None


# ---------------------------------------------------------------------------
# session cache persistence
# ---------------------------------------------------------------------------

CACHE_FORMAT = "macsym-macdonald-cache"
CACHE_VERSION = 2


def save_cache(path):
    """Persist every memoized pair's integral form J as compact JSON, reducing nothing.

    One record per partition: `{"lambda": lam, "J_in_m": [{"partition": mu,
    "terms": [[a, b, c], ...]}, ...]}`, each entry sum c q^a t^b in Z[q,t].  A
    temporary file beside path is renamed over it, so an interrupted save
    leaves the previous file (or none), never a truncated one.
    """
    # json.dumps encodes in C (json.dump always takes the Python encoder), one
    # record at a time, so no more than one record's chunks are held at once
    records = (json.dumps({"lambda": list(lam),
                           "J_in_m": [{"partition": list(mu),
                                       "terms": [[a, b, int(c)] for (a, b), c in n.terms()]}
                                      for mu, n in sorted(_PAIRS[lam].J.items())]},
                          separators=(",", ":"))
               for lam in sorted(_PAIRS, key=lambda l: (weight(l), l)))
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    fh = open(tmp, "w")
    try:
        with fh:
            fh.write(f'{{"format":"{CACHE_FORMAT}","version":{CACHE_VERSION},"records":['
                     f'{",".join(records)}]}}')
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _cached_element(terms):
    """sum c q^a t^b in Z[q,t] over a cache entry's [a, b, c] triples: ints, not bools,
    with 0 <= a, b <= MAX_EXPONENT, 0 < |c| < 2^MAX_COEFF_BITS and no repeated
    monomial, or ValueError."""
    monomials = {}
    for term in terms:
        if len(term) != 3 or not type(term[0]) is type(term[1]) is type(term[2]) is int:
            raise ValueError(f"cache term {term!r} is not three ints [a, b, c]")
        a, b, c = term
        if not (0 <= a <= MAX_EXPONENT and 0 <= b <= MAX_EXPONENT):
            raise ValueError(f"cache term {term!r} has an exponent outside 0..{MAX_EXPONENT}")
        if c.bit_length() > MAX_COEFF_BITS:
            raise ValueError(f"cache term {term!r} has a coefficient of more than "
                             f"{MAX_COEFF_BITS} bits")
        if not c or (a, b) in monomials:
            raise ValueError(f"cache term {term!r} has a zero c or a repeated monomial")
        monomials[a, b] = c
    return RING.from_dict(monomials)


def load_cache(path):
    """Install cached pairs; returns the number of records loaded.

    J is read from integer triples, so it lies in Z[q,t] by construction and
    nothing is parsed or reduced.  A record above MAX_WEIGHT, or with a
    coefficient above MAX_COEFF_BITS bits, is rejected before any table is
    built; every other one needs J = c_lam P with P unitriangular and
    t^d E J = eps_lam J at every m_mu, all decided by one packed evaluation
    (`coeff.sums_of_products_equal`) sized from the record's own entries.
    The pair is held as J, as a built pair is.  A version-1 or malformed
    file, a repeated record or entry, or a failing record raises ValueError,
    and then no pair from the file is installed.
    """
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError as exc:
            raise ValueError(f"cache file {path} nests too deeply for the JSON parser") from exc
    header = (data.get("format"), data.get("version")) if isinstance(data, dict) else None
    if header == (CACHE_FORMAT, 1):
        raise ValueError(f"cache file {path} is version 1, no longer read: delete it to rebuild")
    if header != (CACHE_FORMAT, CACHE_VERSION) or not isinstance(data.get("records"), list):
        raise ValueError(f"unrecognized cache file {path}")
    loaded = {}
    for rec in data["records"]:
        try:
            lam, J = as_partition(rec["lambda"]), {}
            for it in rec["J_in_m"]:
                if (mu := as_partition(it["partition"])) in J:
                    raise ValueError(f"record {lam} repeats the entry of m_{mu}")
                J[mu] = _cached_element(it["terms"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed record in cache file {path}: {exc!r}") from exc
        if lam in loaded:
            raise ValueError(f"cache file {path} repeats the record of {lam}")
        if weight(lam) > MAX_WEIGHT:
            raise ValueError(f"record {lam} has weight {weight(lam)}, above the limit "
                             f"{MAX_WEIGHT}")
        if J.get(lam) != _arm_leg_products(lam)[0] or not all(dominates(lam, mu) for mu in J):
            raise ValueError(f"J of {lam} is not c_lam times a unitriangular P")
        equations = _eigen_equations(lam, J)
        for mu, holds in zip(equations, sums_of_products_equal(list(equations.values()))):
            if not holds:
                raise ValueError(f"J of {lam} is not an eigenfunction of the zero mode at m_{mu}")
        loaded[lam] = MacdonaldPair(lam, J)
    _PAIRS.update(loaded)
    return len(loaded)
