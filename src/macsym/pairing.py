"""The (q,t) scalar product, the omega automorphism, and the Cauchy kernels.

The scalar product is diagonal on power sums with weight z_lam(q,t); both
Cauchy kernels expand factorwise by the q-binomial theorem, so every
coefficient stays an exact rational function.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .coeff import Q, T, add_into, ratqt, substitute
from .partitions import as_partition, partitions_of
from .symfunc import SymFunc, convert, p_product


@lru_cache(maxsize=None)
def z_factor(lam):
    """z_lam(q,t): the squared norm of p_lam under the (q,t) scalar product."""
    lam = as_partition(lam)
    val = ratqt(1)
    for r, m in Counter(lam).items():
        val = val * (r ** m * factorial(m))
    for part in lam:
        val = val * (1 - Q ** part) / (1 - T ** part)
    return val


@lru_cache(maxsize=None)
def z_plain(lam):
    """The classical z_lam = prod r^{m_r} m_r! as an integer."""
    out = 1
    for r, m in Counter(as_partition(lam)).items():
        out *= r ** m * factorial(m)
    return out


def inner_qt(f, g, specialize=None):
    """Bilinear extension of <p_lam, p_mu> = delta * z_lam(q,t).

    `specialize` optionally substitutes (q_image, t_image) into the weights,
    e.g. (0, t) gives the Hall-Littlewood scalar product.
    """
    fp, gp = convert(f, "p"), convert(g, "p")
    total = ratqt(0)
    for lam, c1 in fp.terms.items():
        c2 = gp.terms.get(lam)
        if c2 is None:
            continue
        z = z_factor(lam)
        if specialize is not None:
            z = substitute(z, *specialize)
        total = total + c1 * c2 * z
    return total


@lru_cache(maxsize=None)
def _omega_part(r):
    return ratqt(-1) ** (r - 1) * (1 - Q ** r) / (1 - T ** r)


def omega_qt(f):
    """The automorphism sending p_r to (-1)^(r-1) (1-q^r)/(1-t^r) p_r."""
    fp = convert(f, "p")
    out = SymFunc("p")
    for lam, c in fp.terms.items():
        for part in lam:
            c = c * _omega_part(part)
        out.terms[lam] = c
    return out


@lru_cache(maxsize=None)
def qbinom_coeff(m):
    """(t;q)_m / (q;q)_m: the coefficient of (xy)^m in one Cauchy kernel factor."""
    val = ratqt(1)
    for k in range(m):
        val = val * (1 - T * Q ** k) / (1 - Q ** (k + 1))
    return val


def _matrices(rows, cols, budget):
    """Yield (matrix entries as tuple, total) over nonneg rows x cols matrices."""
    cells = rows * cols

    def rec(i, rem, acc):
        if i == cells:
            yield tuple(acc)
            return
        for v in range(rem + 1):
            acc.append(v)
            yield from rec(i + 1, rem - v, acc)
            acc.pop()

    yield from rec(0, budget, [])


def _kernel_expand(nx, ny, d, factor):
    """Bigraded expansion of prod_{i,j} sum_v factor(v) (x_i y_j)^v to total degree d.

    Returns a map (x-exponents, y-exponents) -> RatQT.
    """
    out = {}
    for entries in _matrices(nx, ny, d):
        coeff = 1  # stays an int while the factors are ints
        for v in entries:
            if v:
                coeff = coeff * factor(v)
        xexp = tuple(sum(entries[i * ny + j] for j in range(ny)) for i in range(nx))
        yexp = tuple(sum(entries[i * ny + j] for i in range(nx)) for j in range(ny))
        add_into(out, {(xexp, yexp): coeff})
    return {key: ratqt(c) for key, c in out.items()}


def cauchy_pi(nx, ny, d):
    """Expansion of prod_{i,j} (t x_i y_j; q)oo / (x_i y_j; q)oo to total degree d.

    Returns a bigraded map (x-exponents, y-exponents) -> RatQT.
    """
    return _kernel_expand(nx, ny, d, qbinom_coeff)


def cauchy_pi_tilde(nx, ny, d):
    """Expansion of the finite dual kernel prod_{i,j} (1 + x_i y_j) to total degree d."""
    return _kernel_expand(nx, ny, d, lambda v: 1 if v == 1 else 0)


# ---------------------------------------------------------------------------
# single-variable kernel strata
# ---------------------------------------------------------------------------
#
# Each two-variable kernel K(x; y) used by the constant-term engine factors
# over y-variables, with the coefficient of y^r a symmetric function of x:
#
#   'g'    : Cauchy kernel           weight (1-t^r)/(1-q^r)  -> Macdonald g_r
#   'e'    : dual kernel prod(1+xy)  weight (-1)^(r-1)       -> elementary e_r
#   'h'    : prod 1/(1-xy)           weight 1                -> complete h_r
#   'hl'   : Hall-Littlewood dual    weight (1-t^r)
#   'qinv' : Schur-(q,t)-dual        weight 1/(1-q^r)

_KERNEL_WEIGHTS = {
    "g": lambda r: (1 - T ** r) / (1 - Q ** r),
    "e": lambda r: ratqt(-1) ** (r - 1),
    "h": lambda r: ratqt(1),
    "hl": lambda r: ratqt(1) - T ** r,
    "qinv": lambda r: 1 / (ratqt(1) - Q ** r),
}


@lru_cache(maxsize=None)
def kernel_sym(r, kind):
    """Degree-r stratum of a kernel as a p-basis symmetric function of x."""
    wfn = _KERNEL_WEIGHTS[kind]
    out = SymFunc("p")
    for mu in partitions_of(r):
        c = ratqt(Fraction(1, z_plain(mu)))
        for part in mu:
            c = c * wfn(part)
        out.terms[mu] = c
    if r == 0:
        out.terms[()] = ratqt(1)
    return out


@lru_cache(maxsize=None)
def kernel_product(kappa, kind):
    """Product of kernel strata prod_j kernel_sym(kappa_j), in the p basis."""
    out = SymFunc("p", {(): ratqt(1)})
    for r in kappa:
        out = p_product(out, kernel_sym(r, kind))
    return out
