"""Boson-Fock adapter and the scalar reductions of the vertex-operator picture.

The Fock space is identified with the ring of symmetric functions itself, so
matrix elements reduce to (q,t) scalar products; no oscillator algebra is
materialized.  The module carries three independent routes to the skew
functions, plus two scalar identities extracted from the vertex-operator
construction: the finite-product collapse of the kernels at t = q^beta and the
symmetrizer sum formula.
"""

from functools import lru_cache
from itertools import combinations, permutations

from sympy.polys.domains import ZZ
from sympy.polys.rings import ring

from .coeff import Q, T, add_into, ratqt, substitute
from .macdonald import macdonald_pair
from .pairing import inner_qt, qbinom_coeff
from .partitions import as_partition, partitions_of, weight
from .symfunc import NPoly, SymFunc, _perm_sign, convert, multiply


def matrix_element(bra, mult, ket):
    """<bra | mult^ | ket> = <bra, mult * ket> under the (q,t) scalar product."""
    return inner_qt(bra, multiply(mult, ket))


def skew_via_fock(lam, mu):
    """Skew function through vacuum matrix elements: coefficientwise pairing."""
    lam, mu = as_partition(lam), as_partition(mu)
    d = weight(lam) - weight(mu)
    out = SymFunc("p")
    if d < 0:
        return out
    q_lam = macdonald_pair(lam).Qf
    p_mu = macdonald_pair(mu).P_p
    for nu in partitions_of(d):
        pair_n = macdonald_pair(nu)
        add_into(out.terms, pair_n.Qf.terms, matrix_element(q_lam, p_mu, pair_n.P_p))
    return out


@lru_cache(maxsize=None)
def _pbar_factor(r):
    return r * (1 - Q ** r) / (1 - T ** r)


def p_bar_apply(r, f):
    """The lowering operator r (1-q^r)/(1-t^r) d/dp_r on a p-basis element."""
    fp = convert(f, "p")
    out = SymFunc("p")
    for nu, c in fp.terms.items():
        m = nu.count(r)
        if m:
            rest = list(nu)
            rest.remove(r)
            add_into(out.terms, {as_partition(rest): c * (m * _pbar_factor(r))})
    return out


def skew_via_diffop(lam, mu):
    """Skew function by letting P_mu act in the lowered power sums on Q_lam."""
    lam, mu = as_partition(lam), as_partition(mu)
    cur = SymFunc("p")
    target = macdonald_pair(lam).Qf
    for kappa, u in macdonald_pair(mu).P_p.terms.items():
        piece = target
        for part in kappa:
            piece = p_bar_apply(part, piece)
        add_into(cur.terms, piece.terms, u)
    return cur


def commutator_contract(r, s, f):
    """[pbar_r, p_s] f equals delta_{rs} r (1-q^r)/(1-t^r) f, exactly."""
    fp = convert(f, "p")
    p_s = SymFunc("p", {(s,): ratqt(1)})
    lhs = p_bar_apply(r, multiply(p_s, fp)) - multiply(p_s, p_bar_apply(r, fp))
    rhs = fp.scale(_pbar_factor(r)) if r == s else SymFunc("p")
    return lhs == rhs


def completeness_check(f):
    """sum_lam P_lam <Q_lam, f> reassembles f, degree by degree."""
    fp = convert(f, "p")
    out = SymFunc("p")
    for d in fp.degrees():
        for lam in partitions_of(d):
            pair = macdonald_pair(lam)
            add_into(out.terms, pair.P_p.terms, inner_qt(pair.Qf, fp))
    return out == fp


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


def vertex_product_check(beta, n, d):
    """Finite-product collapse of both kernels at t = q^beta, exact in q.

    Checks the per-factor identities coefficientwise up to u^d, then
    assembles the full interchange kernel over n variables as an exact
    Laurent polynomial and compares against the finite product.
    """
    if beta < 1:
        raise ValueError(f"beta must be >= 1, got {beta}")
    # per-factor interchange kernel
    finite = _finite_delta_poly(beta, max(d, beta))
    for m in range(max(d, beta) + 1):
        lhs = _delta_factor_rational(m, beta)
        rhs = finite[m] if m < len(finite) else ratqt(0)
        if lhs != rhs:
            return False
    # per-factor positive kernel: kappa_m(q, q^beta) against the geometric side
    pi_side = _finite_pi_series(beta, d)
    for m in range(d + 1):
        lhs = substitute(qbinom_coeff(m), Q, Q ** beta)
        if lhs != pi_side[m]:
            return False
    # assembled interchange kernel over n variables (Laurent polynomials in x)
    cm = [_delta_factor_rational(m, beta) for m in range(beta + 1)]
    pair = {}
    for dd in range(-beta, beta + 1):
        s = ratqt(0)
        for k in range(beta - abs(dd) + 1):
            s = s + cm[k + abs(dd)] * cm[k]
        pair[dd] = s
    lhs = NPoly.constant(n, ratqt(1))
    rhs = NPoly.constant(n, ratqt(1))
    for i, j in combinations(range(n), 2):
        lhs = lhs * NPoly(n, {_monomial_shift(n, i, j, dd): s for dd, s in pair.items()})
    for i, j in permutations(range(n), 2):
        for k in range(beta):
            rhs = rhs * NPoly(n, {(0,) * n: ratqt(1), _monomial_shift(n, i, j): -Q ** k})
    return lhs == rhs


def symmetrizer_check(n):
    """Symmetrized product sum identity, exact in x and t.

    Clearing the Vandermonde turns the sum over permutations into polynomial
    arithmetic in Z[x_1..x_n, t]; the right side is prod_{k<=n} (1-t^k)/(1-t)
    times the Vandermonde.
    """
    if n < 1:
        raise ValueError(f"variable count must be >= 1, got {n}")
    R, *gens = ring([f"x{i}" for i in range(n)] + ["t"], ZZ)
    xs, t = gens[:n], gens[n]
    lhs = R.zero
    for perm in permutations(range(n)):
        term = R(_perm_sign(perm))
        for i, j in combinations(range(n), 2):
            term *= xs[perm[i]] - t * xs[perm[j]]
        lhs += term
    rhs = R.one
    for i, j in combinations(range(n), 2):
        rhs *= xs[i] - xs[j]
    for k in range(1, n + 1):
        rhs *= sum((t ** s for s in range(k)), R.zero)
    return lhs == rhs
