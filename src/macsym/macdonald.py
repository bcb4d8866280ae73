"""Construction of the Macdonald basis and the operators attached to it.

P_lam is built degree by degree: traverse the partitions of d in a linear
extension of dominance (reverse-lex, bottom up) and orthogonalize m_lam
against the already-built family, projecting only onto strictly dominated
indices.  The leading coefficient stays 1, norms come out of the arm/leg
product and are cross-checked against the scalar product on every build.
"""

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .coeff import Q, T, RatQT, add_into, emit_ratqt, parse_ratqt, ratqt, substitute
from .errors import InternalInconsistency
from .pairing import inner_qt, z_factor
from .partitions import (as_partition, arm_leg, cells, conjugate, dominates,
                         partitions_of, weight)
from .symfunc import (NPoly, SymFunc, convert, evaluate_n, m_to_basis,
                      multiply, npoly_divexact, sym_gen)


@dataclass(frozen=True)
class MacdonaldPair:
    """P_lam and its dual partner: Q_lam = b_lam * P_lam, <Q_lam, P_lam> = 1."""

    lam: tuple
    P: SymFunc        # monomial basis, unitriangular
    P_p: SymFunc      # the same element in the power-sum basis
    b: RatQT
    Qf: SymFunc       # Q_lam in the power-sum basis
    norm: RatQT       # <P_lam, P_lam> = 1/b


@lru_cache(maxsize=None)
def b_coeff(lam):
    """Arm/leg product for b_lam = 1 / <P_lam, P_lam>."""
    lam = as_partition(lam)
    val = ratqt(1)
    for cell in cells(lam):
        a, l, _, _ = arm_leg(lam, cell)
        val = val * (1 - Q ** a * T ** (l + 1)) / (1 - Q ** (a + 1) * T ** l)
    return val


@lru_cache(maxsize=None)
def _z_value(lam, zkey):
    z = z_factor(lam)
    if zkey == "hl":
        z = substitute(z, 0, T)
    return z


def _inner_pvec(a, b, zkey):
    total = ratqt(0)
    for lam, c1 in a.items():
        c2 = b.get(lam)
        if c2 is not None:
            total = total + c1 * c2 * _z_value(lam, zkey)
    return total


@lru_cache(maxsize=None)
def _orthogonal_family(d, zkey):
    """All orthogonal pairs of degree d: {lam: (m_coeffs, p_coeffs, norm)}."""
    order = list(partitions_of(d))[::-1]  # dominance-smallest first
    m2p = m_to_basis("p", d)
    built = {}
    for lam in order:
        mvec = {lam: ratqt(1)}
        pvec = dict(m2p[lam])
        for mu in built:
            if mu != lam and dominates(lam, mu):
                mu_m, mu_p, mu_norm = built[mu]
                c = _inner_pvec(pvec, mu_p, zkey) / mu_norm
                add_into(mvec, mu_m, -c)
                add_into(pvec, mu_p, -c)
        built[lam] = (mvec, pvec, _inner_pvec(pvec, pvec, zkey))
    return built


_PAIRS = {}


def macdonald_pair(lam):
    """The Macdonald pair for lam, memoized per session."""
    lam = as_partition(lam)
    pair = _PAIRS.get(lam)
    if pair is not None:
        return pair
    family = _orthogonal_family(weight(lam), "qt")
    mvec, pvec, norm = family[lam]
    b = b_coeff(lam)
    if b * norm != 1:
        raise InternalInconsistency(
            f"arm/leg norm and Gram-Schmidt norm disagree for {lam}")
    pair = MacdonaldPair(
        lam=lam,
        P=SymFunc("m", mvec),
        P_p=SymFunc("p", pvec),
        b=b,
        Qf=SymFunc("p", pvec).scale(b),
        norm=norm,
    )
    _PAIRS[lam] = pair
    return pair


def macdonald_p(lam):
    """P_lam in the monomial basis."""
    return macdonald_pair(lam).P


def macdonald_q(lam):
    """Q_lam = b_lam P_lam in the power-sum basis."""
    return macdonald_pair(lam).Qf


def hall_littlewood_p(lam):
    """Hall-Littlewood P_lam(t): same construction under the (0,t) scalar product."""
    lam = as_partition(lam)
    mvec, _, _ = _orthogonal_family(weight(lam), "hl")[lam]
    return SymFunc("m", mvec)


# ---------------------------------------------------------------------------
# shift operators
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _vandermonde(n):
    out = NPoly.constant(n, ratqt(1))
    for u in range(n):
        for v in range(u + 1, n):
            eu, ev = [0] * n, [0] * n
            eu[u] = 1
            ev[v] = 1
            out = out * NPoly(n, {tuple(eu): ratqt(1), tuple(ev): ratqt(-1)})
    return out


@lru_cache(maxsize=None)
def _dr_prefactors(n, r):
    """Per-subset numerators of D_r with the Vandermonde denominator cleared.

    For each r-subset I this is  sign * prod_{i in I, j not in I} (t x_i - x_j)
    * prod_{u<v not split by I} (x_u - x_v),  so that summing prefactor * f(q x_I)
    and dividing by the full Vandermonde realizes the operator exactly.
    """
    out = []
    for subset in combinations(range(n), r):
        inside = set(subset)
        poly = NPoly.constant(n, ratqt(1))
        sign = 1
        for u in range(n):
            for v in range(u + 1, n):
                eu, ev = [0] * n, [0] * n
                eu[u] = 1
                ev[v] = 1
                eu, ev = tuple(eu), tuple(ev)
                u_in, v_in = u in inside, v in inside
                if u_in and not v_in:
                    poly = poly * NPoly(n, {eu: T, ev: ratqt(-1)})
                elif v_in and not u_in:
                    poly = poly * NPoly(n, {ev: T, eu: ratqt(-1)})
                    sign = -sign
                else:
                    poly = poly * NPoly(n, {eu: ratqt(1), ev: ratqt(-1)})
        if sign < 0:
            poly = poly.scale(ratqt(-1))
        out.append((subset, poly))
    return out


def dr_apply(r, f, n):
    """Apply the r-th Macdonald shift operator to a polynomial in n variables.

    The sum over subsets is cleared of denominators and divided exactly by the
    Vandermonde at the end; a nonzero remainder signals a bug.
    """
    if not 1 <= r <= n or f.n != n:
        raise ValueError(f"D_{r} needs 1 <= r <= n = {n} and a polynomial in n variables")
    qpow = {}
    total = NPoly(n)
    for subset, pref in _dr_prefactors(n, r):
        shifted = NPoly(n)
        for e, c in f.terms.items():
            k = sum(e[i] for i in subset)
            if k not in qpow:
                qpow[k] = Q ** k
            shifted.terms[e] = c * qpow[k]
        total = total + pref * shifted
    total = total.scale(T ** (r * (r - 1) // 2))
    try:
        return npoly_divexact(total, _vandermonde(n)) if n > 1 else total
    except ArithmeticError as exc:
        raise InternalInconsistency("shift-operator sum is not divisible "
                                    "by the Vandermonde") from exc


def dr_eigenvalue(lam, r, n):
    """e_r of the spectrum (t^(n-1) q^lam_1, ..., t^0 q^lam_n)."""
    lam = as_partition(lam)
    vals = [T ** (n - i) * Q ** (lam[i - 1] if i <= len(lam) else 0)
            for i in range(1, n + 1)]
    total = ratqt(0)
    for subset in combinations(vals, r):
        prod = ratqt(1)
        for v in subset:
            prod = prod * v
        total = total + prod
    return total


def dr_eigencheck(lam, r, n):
    """Exact check of D_r P_lam = e_r(spectrum) P_lam in n variables."""
    lam = as_partition(lam)
    if len(lam) > n or not 1 <= r <= n:
        raise ValueError(f"eigen check needs len(lambda) <= n = {n} and 1 <= r <= n")
    P = evaluate_n(macdonald_pair(lam).P, n)
    return dr_apply(r, P, n) == P.scale(dr_eigenvalue(lam, r, n))


def dr_commute_check(r, s, f, n):
    """[D_r, D_s] f = 0, exactly."""
    a = dr_apply(r, dr_apply(s, f, n), n)
    b = dr_apply(s, dr_apply(r, f, n), n)
    return a == b


# ---------------------------------------------------------------------------
# structure constants, skew functions, specializations
# ---------------------------------------------------------------------------

def structure_f(mu, nu):
    """f^lam_{mu,nu} = <Q_lam, P_mu P_nu>: the P-basis expansion of P_mu P_nu."""
    mu, nu = as_partition(mu), as_partition(nu)
    prod = multiply(macdonald_pair(mu).P_p, macdonald_pair(nu).P_p)
    out = {}
    for lam in partitions_of(weight(mu) + weight(nu)):
        pair = macdonald_pair(lam)
        c = pair.b * inner_qt(pair.P_p, prod)
        if c:
            out[lam] = c
    return out


def skew_q(lam, mu):
    """Skew function Q_{lam/mu} = sum_nu f^lam_{mu,nu} Q_nu, in the p basis."""
    lam, mu = as_partition(lam), as_partition(mu)
    d = weight(lam) - weight(mu)
    out = SymFunc("p")
    if d < 0:
        return out
    pair_l = macdonald_pair(lam)
    pmu = macdonald_pair(mu).P_p
    for nu in partitions_of(d):
        pair_n = macdonald_pair(nu)
        f = pair_l.b * inner_qt(pair_l.P_p, multiply(pmu, pair_n.P_p))
        add_into(out.terms, pair_n.Qf.terms, f)
    return out


def skew_p(lam, mu):
    """P_{lam/mu} = b_lam^(-1) b_mu Q_{lam/mu}."""
    lam, mu = as_partition(lam), as_partition(mu)
    scale = macdonald_pair(mu).b / macdonald_pair(lam).b
    return skew_q(lam, mu).scale(scale)


SPECIALIZE_CASES = ("schur", "hall-littlewood", "monomial", "dual-e", "inverse-qt")


def specialize_check(lam, which):
    """Check one classical degeneration of P_lam; exact in every coefficient."""
    lam = as_partition(lam)
    P = macdonald_pair(lam).P
    if which == "schur":
        spec = P.map_coeffs(lambda c: substitute(c, Q, Q))  # t -> q
        return spec == convert(sym_gen("s", lam), "m")
    if which == "hall-littlewood":
        spec = P.map_coeffs(lambda c: substitute(c, 0, T))
        return spec == hall_littlewood_p(lam)
    if which == "monomial":
        spec = P.map_coeffs(lambda c: substitute(c, Q, 1))
        return spec == SymFunc("m", {lam: ratqt(1)})
    if which == "dual-e":
        spec = P.map_coeffs(lambda c: substitute(c, 1, T))
        return spec == convert(sym_gen("e", conjugate(lam)), "m")
    if which == "inverse-qt":
        spec = P.map_coeffs(lambda c: substitute(c, 1 / Q, 1 / T))
        return spec == P
    raise ValueError(f"unknown specialization {which!r}")


# ---------------------------------------------------------------------------
# session cache persistence
# ---------------------------------------------------------------------------

CACHE_FORMAT = "macsym-macdonald-cache"
CACHE_VERSION = 1


def save_cache(path):
    """Persist every memoized pair as JSON: one record per partition."""
    records = []
    for lam in sorted(_PAIRS, key=lambda l: (weight(l), l)):
        pair = _PAIRS[lam]
        records.append({
            "lambda": list(lam),
            "b": emit_ratqt(pair.b),
            "P_in_m": [
                {"partition": list(mu), "coeff": emit_ratqt(c)}
                for mu, c in sorted(pair.P.terms.items())
            ],
        })
    with open(path, "w") as fh:
        json.dump({"format": CACHE_FORMAT, "version": CACHE_VERSION,
                   "records": records}, fh, indent=1)


def load_cache(path):
    """Install cached pairs; returns the number of records loaded.

    Every record is checked as a built pair is: b must equal the arm/leg
    product and P must be unitriangular.  A malformed file or a record that
    fails raises ValueError, and then no pair from the file is installed.
    """
    with open(path) as fh:
        data = json.load(fh)
    header = (data.get("format"), data.get("version")) if isinstance(data, dict) else None
    if header != (CACHE_FORMAT, CACHE_VERSION) or not isinstance(data.get("records"), list):
        raise ValueError(f"unrecognized cache file {path}")
    loaded = {}
    for rec in data["records"]:
        try:
            lam = as_partition(rec["lambda"])
            P = SymFunc("m", {as_partition(item["partition"]): parse_ratqt(item["coeff"])
                              for item in rec["P_in_m"]})
            b = parse_ratqt(rec["b"])
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed record in cache file {path}: {exc!r}") from exc
        if b != b_coeff(lam):
            raise ValueError(f"b of {lam} is not the arm/leg product")
        if P.terms.get(lam) != 1 or not all(dominates(lam, mu) for mu in P.terms):
            raise ValueError(f"P of {lam} is not unitriangular")
        P_p = convert(P, "p")
        loaded[lam] = MacdonaldPair(lam=lam, P=P, P_p=P_p, b=b,
                                    Qf=P_p.scale(b), norm=1 / b)
    _PAIRS.update(loaded)
    return len(loaded)
