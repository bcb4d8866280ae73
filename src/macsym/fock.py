"""Boson-Fock adapter and the scalar reductions of the vertex-operator picture.

The Fock space is the ring of symmetric functions itself; no oscillator algebra
is materialized.  Two skew routes share nothing with `macdonald.skew_q`'s peel
of P_mu P_nu: the translation coproduct p_r -> p_r(x) + p_r(y) of the half
vertex operator, and P_mu acting in the lowered power sums.  Each `_cleared`
form returns (den, numerators over Z[q,t]); the public form reduces them.  Two
scalar identities come from the vertex-operator construction: the
finite-product collapse of the kernels at t = q^beta and the symmetrizer sum
formula.
"""

from functools import lru_cache
from itertools import combinations, product
from math import comb, prod
from types import MappingProxyType

from .coeff import RING, Q, add_into, clear_ratqt, ratqt, substitute
from .macdonald import _arm_leg_products, _peel_p, hall_littlewood_symmetrizer, macdonald_pair
from .pairing import qbinom_coeff
from .partitions import as_partition, dominates, weight
from .symfunc import NPoly, _reduced_p, basis_to_m

_q, _t = RING.gens


def skew_via_fock(lam, mu):
    """Q_{lam/mu} by the translation coproduct, each coefficient reduced once."""
    return _reduced_p(skew_via_fock_cleared(lam, mu))


def skew_via_fock_cleared(lam, mu):
    """Q_{lam/mu} in p as (den, {kappa: Z[q,t]}), by the coproduct p_r -> p_r(x) + p_r(y).

    Q_lam(x, y) = sum_mu Q_{lam/mu}(x) b_mu P_mu(y) (Macdonald VI (7.9')); P_mu(y) is
    peeled off the y-parts in the m basis (`macdonald._peel_p`), stopping at mu: only the
    m_nu(y) with nu dominating mu reach P_mu, and a mu that carries no term gives 0.
    Q_lam and each P_nu = J_nu / c_nu are read from the held J over one
    running denominator; nothing is reduced.
    """
    lam, mu = as_partition(lam), as_partition(mu)
    if (k := weight(mu)) > weight(lam):
        return RING.one, {}
    den, Qf = macdonald_pair(lam).cleared_p(dual=True)
    to_m, rest = basis_to_m("p", k), {}  # rest: {nu: {x-partition: numerator of m_nu(y)}}
    for kappa, c in Qf.items():
        splits = {((), ()): 1}  # {(x-parts, y-parts): multiplicity}
        for part in kappa:
            nxt = {}
            for (x, y), n in splits.items():
                for key in ((x + (part,), y), (x, y + (part,))):
                    if weight(key[1]) <= k:
                        nxt[key] = nxt.get(key, 0) + n
            splits = nxt
        for (x, y), n in splits.items():
            for nu, v in to_m[y].items() if weight(y) == k else ():
                if dominates(nu, mu):
                    add_into(rest.setdefault(nu, {}), {x: c}, n * v)
    for nu, a, den in _peel_p(rest, den, below=mu):
        if nu == mu:  # Q_{lam/mu} = a / b_mu, b_mu = c_mu / c'_mu
            c, c_prime = _arm_leg_products(mu)
            return den * c, {x: v * c_prime for x, v in a.items()}
    return RING.one, {}


def _lower(r, nums):
    """r (1-q^r) d/dp_r on p-basis numerators over Z[q,t]: p_bar_r times 1 - t^r."""
    factor = r * (1 - _q ** r)
    out = {}
    for nu, c in nums.items():
        if m := nu.count(r):
            rest = list(nu)
            rest.remove(r)
            out[as_partition(rest)] = c * (m * factor)
    return out


def skew_via_diffop(lam, mu):
    """Q_{lam/mu} with P_mu acting by lowering operators, each coefficient reduced once."""
    return _reduced_p(skew_via_diffop_cleared(lam, mu))


def skew_via_diffop_cleared(lam, mu):
    """Q_{lam/mu} in p as (den, {kappa: Z[q,t]}), P_mu acting in the lowered power sums.

    p_kappa of P_mu acts as the lowering operators of the parts of kappa: their
    factors r (1-q^r) act on J_lam, and prod (1-t^r) joins the denominator of
    the J_mu coefficient of p_kappa.  Each such product divides (t;t)_|mu|, so
    the sum over kappa runs over that one denominator; nothing is reduced.
    """
    lam, mu = as_partition(lam), as_partition(mu)
    den, target = macdonald_pair(lam).cleared_p(dual=True)
    den_mu, P_mu = macdonald_pair(mu).cleared_p()
    den_w = prod((1 - _t ** r for r in range(1, weight(mu) + 1)), start=RING.one)
    total = {}
    for kappa, u in P_mu.items():
        piece, lowering = target, RING.one
        for part in kappa:
            piece = _lower(part, piece)
            lowering *= 1 - _t ** part
        if piece:
            add_into(total, piece, u * den_w.exquo(lowering))
    return den * den_mu * den_w, total


# ---------------------------------------------------------------------------
# scalar reductions of the vertex-operator construction
# ---------------------------------------------------------------------------

def _delta_factor_rational(m, beta):
    """c_m with t = q^beta: prod_{k<m} (q^beta - q^k) / (q;q)_m, exact in q."""
    num = ratqt(1)
    for k in range(m):
        num = num * (Q ** beta - Q ** k)
    den = ratqt(1)
    for k in range(1, m + 1):
        den = den * (1 - Q ** k)
    return num / den


def _finite_delta_poly(beta, deg):
    """Coefficients of prod_{k<beta} (1 - q^k u) in u, up to u^deg."""
    coeffs = [ratqt(1)]
    for k in range(beta):
        nxt = [ratqt(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] = nxt[i] + c
            nxt[i + 1] = nxt[i + 1] - c * Q ** k
        coeffs = nxt
    coeffs += [ratqt(0)] * max(0, deg + 1 - len(coeffs))
    return coeffs[: deg + 1]


def _finite_pi_series(beta, deg):
    """Coefficients of 1 / prod_{k<beta} (1 - q^k u) in u, up to u^deg."""
    den = _finite_delta_poly(beta, deg)
    out = [ratqt(1)]
    for j in range(1, deg + 1):
        s = ratqt(0)
        for i in range(1, min(j, len(den) - 1) + 1):
            s = s + den[i] * out[j - i]
        out.append(-s)
    return out


def _monomial_shift(n, i, j, k=1):
    """Exponent vector of (x_i / x_j)^k in n variables."""
    e = [0] * n
    e[i] += k
    e[j] -= k
    return tuple(e)


def _vertex_pair_series(beta):
    """{d: coefficient of (x_i/x_j)^d} in the interchange kernel of one pair at t = q^beta."""
    cm = [_delta_factor_rational(m, beta) for m in range(beta + 1)]
    return {dd: sum((cm[k + abs(dd)] * cm[k] for k in range(beta - abs(dd) + 1)), ratqt(0))
            for dd in range(-beta, beta + 1)}


@lru_cache(maxsize=None)
def _vertex_factors(beta, d):
    """The per-factor half of `vertex_product_check(beta, n, d)`, shared by every n.

    None when a per-factor identity fails up to u^d.  Else (den, pair,
    finite_pair), read-only {degree of z = x_i / x_j: Z[q]} maps of one pair:
    its interchange kernel cleared to the denominator den, and its finite
    product a(z) a(1/z), a(z) = prod_{k<beta} (1 - q^k z).
    """
    # per-factor interchange kernel
    finite = _finite_delta_poly(beta, max(d, beta))
    for m in range(max(d, beta) + 1):
        lhs = _delta_factor_rational(m, beta)
        rhs = finite[m] if m < len(finite) else ratqt(0)
        if lhs != rhs:
            return None
    # per-factor positive kernel: kappa_m(q, q^beta) against the geometric side
    pi_side = _finite_pi_series(beta, d)
    for m in range(d + 1):
        lhs = substitute(qbinom_coeff(m), Q, Q ** beta)
        if lhs != pi_side[m]:
            return None
    den, pair = clear_ratqt(_vertex_pair_series(beta))
    a = [c.numer for c in finite[:beta + 1]]  # prod_{k<beta} (1 - q^k z), over Z[q]
    finite_pair = {}
    for i, j in product(range(beta + 1), repeat=2):
        add_into(finite_pair, {i - j: a[i] * a[j]})
    return den, MappingProxyType(pair), MappingProxyType(finite_pair)


def vertex_product_check(beta, n, d):
    """Finite-product collapse of both kernels at t = q^beta, exact in q.

    Checks the per-factor identities coefficientwise up to u^d, then
    assembles the full interchange kernel over n variables as an exact
    Laurent polynomial and compares against the finite product, one factor
    in z = x_i / x_j per pair i < j.  The assembly is compared over Z[q]:
    the pair series cleared to one denominator D, the finite product times
    D^(number of pairs).  The per-factor half is read from `_vertex_factors`.
    """
    if beta < 1:
        raise ValueError(f"beta must be >= 1, got {beta}")
    if (factors := _vertex_factors(beta, d)) is None:
        return False
    den, pair, finite_pair = factors
    lhs = NPoly.constant(n, RING.one)
    rhs = NPoly.constant(n, den ** comb(n, 2))
    for i, j in combinations(range(n), 2):
        lhs = lhs * NPoly(n, {_monomial_shift(n, i, j, dd): s for dd, s in pair.items()})
        rhs = rhs * NPoly(n, {_monomial_shift(n, i, j, dd): c for dd, c in finite_pair.items()})
    return lhs == rhs


def symmetrizer_check(n):
    """sum_w w(prod_{i<j} (x_i - t x_j) / (x_i - x_j)) over S_n is v_n(t) = prod_{k<=n} [k]_t.

    That is A = {(): v_n} for the symmetrizer that builds Hall-Littlewood P_() = 1.
    """
    if n < 1:
        raise ValueError(f"variable count must be >= 1, got {n}")
    A, v = hall_littlewood_symmetrizer((), n)
    return A == {(): v}
