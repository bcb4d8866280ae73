"""Boson-Fock adapter and the scalar reductions of the vertex-operator picture.

The Fock space is the ring of symmetric functions itself; no oscillator algebra
is materialized.  Two skew routes share nothing with `macdonald.skew_q`'s peel
of P_mu P_nu: the translation coproduct p_r -> p_r(x) + p_r(y) of the half
vertex operator, and P_mu acting in the lowered power sums.  Each `_cleared`
form returns (den, numerators over Z[q,t]); the public form reduces them.  Two
scalar identities come from the vertex-operator construction: the symmetrizer
sum formula, and the finite-product collapse of the kernels at t = q^beta, over
Z[q] with its n-variable products compared as ints at q = 2^bits.
"""

from collections import Counter
from functools import lru_cache
from itertools import combinations, product
from math import comb, perm, prod
from types import MappingProxyType

from .coeff import FIELD, RING, add_into
from .errors import check_counts
from .macdonald import _arm_leg_products, _peel_p, hall_littlewood_symmetrizer, macdonald_pair
from .pairing import _poch, qpoch
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


@lru_cache(maxsize=None)
def _lowering_weights(mu):
    """(den_mu den_w, {kappa: (m(kappa), uw_kappa)}), P_mu = sum u_kappa p_kappa / den_mu: p_kappa
    lowers by r (1-q^r) d/dp_r / (1-t^r) per part r, so uw_kappa = u_kappa (den_w / prod (1-t^r))
    prod r (1-q^r), den_w = (t;t)_|mu|, which each prod (1-t^r) divides; m counts the parts."""
    den_mu, P_mu = macdonald_pair(mu).cleared_p()
    den_w = prod((1 - _t ** r for r in range(1, weight(mu) + 1)), start=RING.one)
    return den_mu * den_w, {
        kappa: (Counter(kappa), u * den_w.exquo(prod((1 - _t ** r for r in kappa), start=RING.one))
                * prod(r * (1 - _q ** r) for r in kappa))
        for kappa, u in P_mu.items()}


def _lowered_terms(lam, mu):
    """(den, den_mu den_w, [(k, uw_kappa, nums[K], f)]), Q_lam = nums / den lowered by P_mu:
    p_kappa takes p_K, K = k + kappa, to f = prod_r m_r(K)! / m_r(k)! times p_k and kappa's
    factors in uw_kappa, so p_k has the sum of its terms' products over den den_mu den_w."""
    den, target = macdonald_pair(lam).cleared_p(dual=True)
    den_w, weights = _lowering_weights(as_partition(mu))
    terms = []
    for K, c in target.items():
        have = Counter(K)
        for m, w in weights.values():
            if have >= m:
                k = tuple(sorted((have - m).elements(), reverse=True))
                terms.append((k, w, c, prod(perm(have[r], m[r]) for r in m)))
    return den, den_w, terms


def skew_via_diffop(lam, mu):
    """Q_{lam/mu} with P_mu acting by lowering operators, each coefficient reduced once."""
    return _reduced_p(skew_via_diffop_cleared(lam, mu))


def skew_via_diffop_cleared(lam, mu):
    """Q_{lam/mu} in p as (den, {kappa: Z[q,t]}), P_mu acting in the lowered power sums:
    the sum of `_lowered_terms` at each key; nothing is reduced."""
    den, den_w, terms = _lowered_terms(lam, mu)
    total = {}
    for k, w, c, f in terms:
        add_into(total, {k: w * c}, f)
    return den * den_w, total


# ---------------------------------------------------------------------------
# scalar reductions of the vertex-operator construction
# ---------------------------------------------------------------------------

def _monomial_shift(n, i, j, k=1):
    """Exponent vector of (x_i / x_j)^k in n variables."""
    return tuple(k * ((x == i) - (x == j)) for x in range(n))


def _collapse_numerator(m, beta):
    """prod_{k<m} (q^beta - q^k) = c_m (q;q)_m, c_m of one interchange factor at t = q^beta."""
    return prod((_q ** beta - _q ** k for k in range(m)), start=RING.one)


@lru_cache(maxsize=None)
def _vertex_factors(beta, d):
    """The per-factor half of `vertex_product_check(beta, n, d)` over Z[q], shared by every n.

    (mismatch, den, pair, finite_pair) with a(u) = (u;q)_beta = sum a_m u^m, c(u) = sum c_m u^m.
    mismatch is None, or the first identity up to u^d that fails as (key, got, want) in Q(q):
    ("interchange", m), c_m against a_m for m <= max(d, beta), or ("positive", m),
    `qbinom_coeff(m)` at t = q^beta against h_m, h = 1/a by h_j = -sum_{i>=1} a_i h_{j-i}
    (a_0 = 1); each is compared as its numerator over (q;q)_m.  pair and finite_pair are
    read-only {degree of z = x_i / x_j: Z[q]} maps of one pair: its interchange kernel
    c(z) c(1/z) over den = (q;q)_beta^2, and a(z) a(1/z).
    """
    top = max(d, beta)
    a = [_poch(beta, _t).coeff_wrt(_t, m) for m in range(top + 1)]
    h = [RING.one]
    for j in range(1, d + 1):
        h.append(-sum((a[i] * h[j - i] for i in range(1, j + 1)), RING.zero))
    sides = [(("interchange", m), _collapse_numerator(m, beta), a[m]) for m in range(top + 1)]
    sides += [(("positive", m), _poch(m, _t).compose(_t, _q ** beta), h[m]) for m in range(d + 1)]
    for key, got, want in sides:
        if got != want * qpoch(key[1]):
            return (key, FIELD.new(got, qpoch(key[1])), FIELD(want)), None, None, None
    den = qpoch(beta)
    c = [sides[m][1] * den.exquo(qpoch(m)) for m in range(beta + 1)]
    pair, finite_pair = {}, {}
    for i, j in product(range(beta + 1), repeat=2):
        add_into(pair, {i - j: c[i] * c[j]})
        add_into(finite_pair, {i - j: a[i] * a[j]})
    return None, den ** 2, MappingProxyType(pair), MappingProxyType(finite_pair)


def _pack(p, bits):
    """The int p(2^bits) of a Z[q] polynomial p."""
    return sum(v << bits * e[0] for e, v in p.terms())


def _unpack(v, bits):
    """The Z[q] polynomial whose balanced base-2^bits digits, q^0 first, make the int v."""
    digit = ((v + (1 << bits - 1)) & ((1 << bits) - 1)) - (1 << bits - 1)
    return RING.zero if not v else digit + _q * _unpack((v - digit) >> bits, bits)


# Largest n of the kernel collapse: n = 4 takes 0.26-0.29 s at d = 3 to 8, n = 5 61 s and 1.26 GB
MAX_VERTEX_N = 4


def vertex_product_difference(beta, n, d):
    """None when `vertex_product_check(beta, n, d)` holds, else its first failing piece
    as (key, got, want) in Q(q): a per-factor identity of `_vertex_factors`, or
    ("assembly", e) at the first x-monomial e where the n-variable products differ.

    One factor in z = x_i / x_j per pair i < j: the pair series on the left, the finite
    product on the right, times den^(number of pairs).  Each Z[q] coefficient is packed to
    its int at q = 2^bits, bits one more than the bit length of the larger side's bound:
    the product over the pairs of the sum of a factor's coefficients' L1 norms, den's norm
    included on the right.  Each q-coefficient of either product is then below 2^(bits-1)
    in absolute value and balanced base-2^bits digits are unique, so equal ints at an
    x-monomial mean equal polynomials in Z[q] there.
    """
    check_counts("vertex_product_check", beta=(beta, 1), n=(n, 1, MAX_VERTEX_N), d=(d, 0))
    mismatch, den, pair, finite_pair = _vertex_factors(beta, d)
    if mismatch:
        return mismatch
    pairs = comb(n, 2)
    l1 = [sum(abs(v) for p in side for v in p.coeffs())
          for side in (pair.values(), finite_pair.values(), [den])]
    bits = (max(l1[0], l1[1] * l1[2]) ** pairs).bit_length() + 1
    lhs, rhs = NPoly.constant(n, 1), NPoly.constant(n, _pack(den, bits) ** pairs)
    for i, j in combinations(range(n), 2):
        lhs = lhs * NPoly(n, {_monomial_shift(n, i, j, e): _pack(s, bits)
                              for e, s in pair.items()})
        rhs = rhs * NPoly(n, {_monomial_shift(n, i, j, e): _pack(c, bits)
                              for e, c in finite_pair.items()})
    if lhs == rhs:
        return None
    e = min((lhs - rhs).terms)
    return (("assembly", e),
            *(FIELD.new(_unpack(side.terms.get(e, 0), bits), den ** pairs) for side in (lhs, rhs)))


def vertex_product_check(beta, n, d):
    """Finite-product collapse of both kernels at t = q^beta in n variables, exact in q:
    the per-factor identities up to u^d over Z[q], then the n-variable interchange kernel
    against the finite product on ints packed at q = 2^bits, under the L1 bound of
    `vertex_product_difference`.  ValueError unless beta >= 1, 1 <= n <= 4, d >= 0 are ints."""
    return vertex_product_difference(beta, n, d) is None


def symmetrizer_check(n):
    """sum_w w(prod_{i<j} (x_i - t x_j) / (x_i - x_j)) over S_n is v_n(t) = prod_{k<=n} [k]_t.

    That is A = {(): v_n} for the symmetrizer that builds Hall-Littlewood P_() = 1.
    """
    check_counts("symmetrizer_check", n=(n, 1))
    A, v = hall_littlewood_symmetrizer((), n)
    return A == {(): v}
