"""The (q,t) scalar product, the plethystic maps p_r -> w(r) p_r, and the Cauchy kernels.

The scalar product is diagonal on power sums with weight z_lam(q,t); both
Cauchy kernels expand factorwise by the q-binomial theorem.  A Cauchy kernel
coefficient of degree S is held as its numerator over (q;q)_S in Z[q,t]
(`kernel_numerator`), and the dual kernel's coefficients are integers.
"""

from collections import Counter
from functools import lru_cache
from math import factorial, prod

from .coeff import FIELD, RING, ZERO, Q, T, clear_ratqt, ratqt, reduce_ratqt
from .partitions import as_partition, compositions
from .symfunc import SymFunc, convert, sym_gen

_q, _t = RING.gens


@lru_cache(maxsize=None)
def z_factor(lam):
    """z_lam(q,t): the squared norm of p_lam under the (q,t) scalar product."""
    val = ratqt(z_plain(lam))
    for part in as_partition(lam):
        val = val * (1 - Q ** part) / (1 - T ** part)
    return val


@lru_cache(maxsize=None)
def z_plain(lam):
    """The classical z_lam = prod r^{m_r} m_r! as an integer."""
    out = 1
    for r, m in Counter(as_partition(lam)).items():
        out *= r ** m * factorial(m)
    return out


@lru_cache(maxsize=None)
def _z_weights_cleared(keys):
    """clear_ratqt of the weights z_lam(q,t) of the keys."""
    return clear_ratqt({lam: z_factor(lam) for lam in keys})


def inner_products(a, b):
    """<a, b> for cleared p-vectors (den, nums) as products over Z[q,t], unmultiplied:
    (den_a, den_b, den_z) and one (a_lam, z_lam, b_lam) per shared key, z_lam / den_z
    the cleared weight z_lam(q,t); <a, b> is the sum of the products over den."""
    (den_a, a), (den_b, b) = a, b
    shared = tuple(sorted(lam for lam in a if lam in b))
    den_z, num_z = _z_weights_cleared(shared)
    return (den_a, den_b, den_z), [(a[lam], num_z[lam], b[lam]) for lam in shared]


def inner_cleared(a, b):
    """<a, b> = num / den as (den, num) over Z[q,t], for cleared p-vectors (den, nums):
    the products of `inner_products` multiplied out, with no reduction."""
    dens, terms = inner_products(a, b)
    return prod(dens), sum((x * z * y for x, z, y in terms), RING.zero)


def inner_pvec(a, b):
    """<p-basis map a, p-basis map b>: sum over shared lam of a * b * z_lam(q,t).

    a and b are each cleared to Z[q,t] on the shared keys once, `inner_cleared`
    pairs them, and the sum is reduced once.
    """
    shared = [lam for lam in a if lam in b]
    den, num = inner_cleared(clear_ratqt({lam: a[lam] for lam in shared}),
                             clear_ratqt({lam: b[lam] for lam in shared}))
    return reduce_ratqt({(): num}, den).get((), ZERO)


def inner_qt(f, g):
    """Bilinear extension of <p_lam, p_mu> = delta * z_lam(q,t); see inner_pvec."""
    return inner_pvec(convert(f, "p").terms, convert(g, "p").terms)


def omega_qt(f):
    """The automorphism sending p_r to (-1)^(r-1) (1-q^r)/(1-t^r) p_r."""
    return plethysm(f, "omega")


@lru_cache(maxsize=None)
def omega_cleared(rho):
    """(num, den) over Z[q,t], num / den the omega_qt weight of p_rho:
    prod over the parts r of (-1)^(r-1) (1 - q^r) and of (1 - t^r)."""
    num = den = RING.one
    for r in rho:
        num *= (_q ** r - 1) if r % 2 == 0 else (1 - _q ** r)
        den *= 1 - _t ** r
    return num, den


@lru_cache(maxsize=None)
def qbinom_coeff(m):
    """(t;q)_m / (q;q)_m: the coefficient of (xy)^m in one Cauchy kernel factor."""
    return FIELD.new(_poch(m, _t), qpoch(m))


@lru_cache(maxsize=None)
def inv_qpoch(m):
    """1/(q;q)_m: qbinom_coeff(m) at t = 0, the factor of the kernel prod 1/(x_i y_j; q)oo."""
    return FIELD.new(RING.one, qpoch(m))


def dual_factor(v):
    """Coefficient of (xy)^v in one dual kernel factor 1 + xy."""
    return 1 if v == 1 else 0


def _poch(m, a):
    """(a;q)_m = prod_{k<m} (1 - a q^k) in Z[q,t]."""
    return prod((1 - a * _q ** k for k in range(m)), start=RING.one)


@lru_cache(maxsize=None)
def qpoch(m):
    """(q;q)_m in Z[q,t]: the denominator of the degree-m Cauchy kernel coefficients."""
    return _poch(m, _q)


@lru_cache(maxsize=None)
def _row_weight(free, first):
    """[S; free, first]_q prod_v (t;q)_v over Z[q,t], S = free + sum(first), first sorted:
    (q;q)_S / ((q;q)_free prod (q;q)_v) is a q-multinomial, so the division is exact."""
    multinomial = qpoch(free + sum(first)).exquo(prod(map(qpoch, first), start=qpoch(free)))
    return prod((_poch(v, _t) for v in first), start=multinomial)


def _margins(margins):
    return tuple(sorted(filter(None, margins), reverse=True))


@lru_cache(maxsize=None)
def kernel_numerator(rows, cols, dual=False):
    """(q;q)_S times the Cauchy kernel coefficient of x^rows y^cols, S = sum(rows), over
    Z[q,t]; with dual, the number of 0/1 matrices with these margins, the coefficient of
    the dual kernel.  rows and cols are sorted nonzero margins of equal sum.

    The matrix sum of prod qbinom_coeff(v_ij) = prod (t;q)_v / prod (q;q)_v is peeled
    by its first row r_0: (q;q)_S / prod (q;q)_v factors as [S; S - r_0, first row]_q
    times (q;q)_(S - r_0) / prod (q;q)_v over the other rows, so
    N(rows, cols) = sum over the first rows v of [S; S - r_0, v]_q prod (t;q)_v
    N(rows[1:], cols - v), with ring products and exact divisions only.
    """
    if not rows:
        return RING.one
    free, total = sum(rows) - rows[0], RING.zero
    for first in compositions(rows[0], len(cols)):
        if all(v <= c for v, c in zip(first, cols)) and not (dual and max(first) > 1):
            rest = kernel_numerator(rows[1:], _margins(c - v for c, v in zip(cols, first)), dual)
            total += rest if dual else _row_weight(free, _margins(first)) * rest
    return total


def _checked_margins(margins):
    if not isinstance(margins, (list, tuple)) or not all(type(m) is int for m in margins):
        raise ValueError(f"kernel_coeff: margins must be a list or tuple of ints, "
                         f"got {margins!r}")
    return tuple(margins)


def kernel_coeff(rows, cols, factor):
    """Coefficient of x^rows y^cols in prod_{i,j} sum_v factor(v) (x_i y_j)^v.

    factor is qbinom_coeff (the Cauchy kernel), inv_qpoch (its t = 0 value)
    or dual_factor (prod (1 + x_i y_j)); the margins are lists or tuples of
    ints, anything else raises ValueError.  The coefficient is 0 for a
    negative margin or unequal sums.
    """
    rows, cols = _checked_margins(rows), _checked_margins(cols)
    if factor not in (qbinom_coeff, inv_qpoch, dual_factor):
        raise ValueError(f"kernel_coeff: no kernel numerator for the factor {factor!r}")
    if min(rows + cols, default=0) < 0 or sum(rows) != sum(cols):
        return ratqt(0)
    return _kernel_coeff(_margins(rows), _margins(cols), factor)


@lru_cache(maxsize=None)
def _kernel_coeff(rows, cols, factor):
    """kernel_coeff at sorted nonzero margins (the kernel is symmetric in x and in y):
    kernel_numerator over (q;q)_S, reduced once per margin pair and factor, at t = 0
    for inv_qpoch; an integer for dual_factor."""
    num = kernel_numerator(rows, cols, factor is dual_factor)
    if factor is dual_factor:
        return FIELD(num)
    if factor is inv_qpoch:
        num = RING({(a, b): c for (a, b), c in num.items() if not b})
    return FIELD.new(num, qpoch(sum(rows)))


def _kernel_table(nx, ny, d, factor):
    """The nonzero kernel_coeff up to total degree d, keyed (x-exponents, y-exponents)."""
    return {(rows, cols): c for total in range(d + 1) for rows in compositions(total, nx)
            for cols in compositions(total, ny) if (c := kernel_coeff(rows, cols, factor))}


def cauchy_pi(nx, ny, d):
    """Expansion of prod_{i,j} (t x_i y_j; q)oo / (x_i y_j; q)oo to total degree d,
    as a bigraded map (x-exponents, y-exponents) -> RatQT."""
    return _kernel_table(nx, ny, d, qbinom_coeff)


def cauchy_pi_tilde(nx, ny, d):
    """Expansion of the finite dual kernel prod_{i,j} (1 + x_i y_j) to total degree d."""
    return _kernel_table(nx, ny, d, dual_factor)


# ---------------------------------------------------------------------------
# plethystic weights
# ---------------------------------------------------------------------------
#
# plethysm(f, kind) sends each p_r to w(r) p_r.  kernel_product((r,), kind), the
# image of h_r, is the y^r coefficient of a kernel K(x; y) that factors over y:
#
#   'g'      (1-t^r)/(1-q^r)              Cauchy kernel: Macdonald g_r
#   'e'      (-1)^(r-1)                   dual kernel prod(1+xy): e_r
#   'h'      1                            prod 1/(1-xy): h_r
#   'hl'     1-t^r                        X -> X(1-t): S_lam(t) = s_lam[X(1-t)]
#   'qinv'   1/(1-q^r)                    X -> X/(1-q): S_lam(q,t) = s_lam[X/(1-q)]
#   'tinv'   1/(1-t^r)                    X -> X/(1-t): Kostka column J_mu[X/(1-t)]
#   'omega'  (-1)^(r-1)(1-q^r)/(1-t^r)    omega_qt

_KERNEL_WEIGHTS = {
    "g": lambda r: (1 - T ** r) / (1 - Q ** r),
    "e": lambda r: ratqt(-1) ** (r - 1),
    "h": lambda r: ratqt(1),
    "hl": lambda r: ratqt(1) - T ** r,
    "qinv": lambda r: 1 / (ratqt(1) - Q ** r),
    "tinv": lambda r: 1 / (ratqt(1) - T ** r),
    "omega": lambda r: FIELD.new(*omega_cleared((r,))),
}


@lru_cache(maxsize=None)
def _weight(r, kind):
    return _KERNEL_WEIGHTS[kind](r)


def plethysm(f, kind):
    """f with each p_lam scaled by the product of the weights w(part) of `kind`."""
    out = SymFunc("p")
    for lam, c in convert(f, "p").terms.items():
        for part in lam:
            c = c * _weight(part, kind)
        out.terms[lam] = c
    return out


@lru_cache(maxsize=None)
def kernel_product(kappa, kind):
    """Product of kernel strata prod_j kernel_product((kappa_j,)), in the p basis.

    The stratum of degree r is the image of h_r, and plethysm is a ring
    homomorphism, so the product is the image of h_kappa.
    """
    return plethysm(sym_gen("h", kappa), kind)
