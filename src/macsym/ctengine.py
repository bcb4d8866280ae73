"""Constant-term realization of the contour integrals.

Every integral in scope is the coefficient-extraction functional: integrating
a Laurent object against prod dy_j/(2 pi i y_j) keeps exactly the terms with
zero exponent in each y_j.  The engine therefore works with Laurent terms
whose coefficients are truncated (q,t)-series.

The interchange kernel Delta(y) = prod_{i != j} (y_i/y_j; q)oo/(t y_i/y_j; q)oo
expands factorwise with coefficients c_m = prod_{k<m}(t - q^k)/(q;q)_m, whose
(q,t)-adic valuation is m - 1.  Grouping the two factors of each unordered
variable pair gives a Laurent series in y_i/y_j whose degree-d coefficient has
valuation at least |d| - 1, so a total (q,t)-order cutoff M needs pair degrees
only up to M + 1: truncation is exact, never approximate.

The positive kernels never need their own variables: the coefficient of
y^(-a) in Pi(x, 1/y) is the product of single-variable strata g_{a_j}(x)
(and e_{a_j} for the finite dual kernel), so integral transforms collect
straight into the power-sum basis.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from math import factorial

from .coeff import QPochProduct, QTSeries, add_into, ratqt, swap_qt, to_series
from .errors import InternalInconsistency, WindowTooSmall
from .macdonald import b_coeff, dr_apply, macdonald_pair
from .pairing import kernel_product, qbinom_coeff
from .partitions import (add_parts, as_partition, conjugate, rectangles,
                         weight)
from .symfunc import NPoly, SymFunc, evaluate_n, power_sum_poly


@lru_cache(maxsize=None)
def series_of(r, order):
    return to_series(r, order)


# ---------------------------------------------------------------------------
# the Delta kernel
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def delta_factor_coeffs(order):
    """c_0..c_{order+1} with c_m = prod_{k<m} (t - q^k) / (q;q)_m, truncated.

    Asserts the valuation bound val(c_m) >= m - 1 that makes the order-M
    cutoff exact.
    """
    coeffs = [QTSeries.one(order)]
    for m in range(1, order + 2):
        num = QTSeries(order, {(0, 1): 1, (m - 1, 0): -1})  # t - q^(m-1)
        geom = QTSeries(order, {(m * j, 0): 1 for j in range(order // m + 1)})
        c = coeffs[-1] * num * geom
        if c and c.valuation() < m - 1:
            raise InternalInconsistency("Delta coefficient valuation bound failed")
        coeffs.append(c)
    return coeffs


@lru_cache(maxsize=None)
def delta_pair_series(order):
    """Laurent coefficients of one unordered-pair factor of Delta.

    Returns {d: series} for the coefficient of (y_i/y_j)^d in
    f(u) f(1/u), u = y_i/y_j, f the single-factor expansion; nonzero entries
    have |d| <= order + 1.
    """
    c = delta_factor_coeffs(order)
    out = {}
    for d in range(order + 2):
        total = QTSeries.zero(order)
        k = 0
        while True:
            vk = k - 1 if k else 0
            vkd = k + d - 1 if k + d else 0
            if vk + vkd > order or k + d >= len(c):
                break
            total = total + c[k + d] * c[k]
            k += 1
        if total:
            out[d] = total
            if d:
                out[-d] = total
    return out


def _accumulate_delta(seeds, nvars, order, lo, hi, total):
    """Multiply Delta(y_1..y_nvars) onto seed Laurent terms, windowed.

    Keeps exactly the terms that can still reach the final window
    {lo <= e_j <= hi for all j}; the admissible future movement of each
    exponent is bounded through the remaining valuation budget.
    """
    for e in seeds:
        if sum(e) != total:
            raise WindowTooSmall(f"seed exponent {e} has total {sum(e)} != {total}")
    pairs = [(i, j) for i in range(nvars) for j in range(i + 1, nvars)]
    series = sorted(delta_pair_series(order).items())
    remain = []
    cnt = [0] * nvars
    for i, j in reversed(pairs):
        remain.append(tuple(cnt))
        cnt[i] += 1
        cnt[j] += 1
    remain.reverse()
    terms = {e: c for e, c in seeds.items() if c}
    for step, (i, j) in enumerate(pairs):
        touch = remain[step]
        nxt = {}
        for e, ce in terms.items():
            row = {}
            for d, cd in series:
                c = ce * cd
                if not c:
                    continue
                slack = order - c.valuation()
                ei, ej = e[i] + d, e[j] - d
                fi = touch[i] + slack if touch[i] else 0
                fj = touch[j] + slack if touch[j] else 0
                if lo - fi <= ei <= hi + fi and lo - fj <= ej <= hi + fj:
                    ne = list(e)
                    ne[i], ne[j] = ei, ej
                    row[tuple(ne)] = c
            add_into(nxt, row)
        terms = nxt
    return {e: c for e, c in terms.items()
            if all(lo <= x <= hi for x in e)}


class WindowSeries:
    """Laurent terms over a declared exponent window with series coefficients."""

    __slots__ = ("nvars", "order", "lo", "hi", "terms", "truncated")

    def __init__(self, nvars, order, lo, hi, terms=None):
        self.nvars = nvars
        self.order = order
        self.lo = lo
        self.hi = hi
        self.truncated = False
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self.terms[e] = c

    def coefficient(self, exponents):
        e = tuple(exponents)
        if not all(self.lo <= x <= self.hi for x in e):
            raise WindowTooSmall(f"exponent {e} outside window [{self.lo}, {self.hi}]")
        return self.terms.get(e, QTSeries.zero(self.order))

    def __mul__(self, other):
        if (other.nvars, other.order) != (self.nvars, self.order):
            raise ValueError("window series differ in variable count or order")
        out = WindowSeries(self.nvars, self.order,
                           min(self.lo, other.lo), max(self.hi, other.hi))
        for e1, c1 in self.terms.items():
            row = {}
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if all(out.lo <= x <= out.hi for x in e):
                    row[e] = c2
                else:
                    out.truncated = True
            add_into(out.terms, row, c1)
        return out

    def ct(self, variables=None):
        """Constant term in the listed variables (all by default).

        Integrating over every variable yields a plain series; otherwise the
        surviving terms keep their exponents in the remaining variables.
        """
        if variables is None:
            variables = range(self.nvars)
        variables = sorted(set(variables))
        if len(variables) == self.nvars:
            return self.terms.get((0,) * self.nvars, QTSeries.zero(self.order))
        keep = [v for v in range(self.nvars) if v not in variables]
        out = WindowSeries(len(keep), self.order, self.lo, self.hi)
        for e, c in self.terms.items():
            if all(e[v] == 0 for v in variables):
                out.terms[tuple(e[v] for v in keep)] = c
        return out

    def __repr__(self):
        return (f"WindowSeries(nvars={self.nvars}, order={self.order}, "
                f"window=[{self.lo},{self.hi}], {len(self.terms)} terms)")


def ct(series, variables=None):
    """Constant-term functional on a WindowSeries; all variables by default."""
    return series.ct(variables)


@lru_cache(maxsize=None)
def delta_expand(n, order, cap):
    """Delta(y;q,t) over n variables as a WindowSeries on {|e_j| <= cap, sum e = 0}."""
    seeds = {(0,) * n: QTSeries.one(order)}
    terms = _accumulate_delta(seeds, n, order, -cap, cap, 0)
    return WindowSeries(n, order, -cap, cap, terms)


@lru_cache(maxsize=None)
def _qbinom_series(m, order):
    return series_of(qbinom_coeff(m), order)


def pi_inv_expand(nx, ny, d_out, order):
    """Pi(x, 1/y) over explicit variable groups: x_1..x_nx then y_1..y_ny.

    Strata with total x-degree above d_out are never generated.
    """
    out = WindowSeries(nx + ny, order, -d_out, d_out)
    cells = [(i, j) for i in range(nx) for j in range(ny)]

    def rec(idx, rem, exps, coeff):
        if idx == len(cells):
            add_into(out.terms, {tuple(exps): coeff})
            return
        i, j = cells[idx]
        rec(idx + 1, rem, exps, coeff)
        for m in range(1, rem + 1):
            exps[i] += m
            exps[nx + j] -= m
            rec(idx + 1, rem - m, exps, coeff * _qbinom_series(m, order))
            exps[i] -= m
            exps[nx + j] += m

    rec(0, d_out, [0] * (nx + ny), QTSeries.one(order))
    return out


# ---------------------------------------------------------------------------
# the second scalar product
# ---------------------------------------------------------------------------

def _as_npoly(f, n, order):
    """Coerce SymFunc / NPoly input into an NPoly with series coefficients."""
    if isinstance(f, SymFunc):
        f = evaluate_n(f, n)
    if f.n != n:
        raise ValueError(f"expected a polynomial in {n} variables, got {f.n}")
    out = NPoly(n)
    for e, c in f.terms.items():
        s = c if isinstance(c, QTSeries) else series_of(ratqt(c), order)
        if s:
            out.terms[e] = s
    return out


def scalar_prime(f, g, n, order):
    """(1/n!) * constant term of f(1/x) g(x) Delta(x), truncated at the order.

    Zero when the degrees differ (the integrand then has no constant term).
    """
    fp = _as_npoly(f, n, order)
    gp = _as_npoly(g, n, order)
    if not fp or not gp:
        return QTSeries.zero(order)
    cap = max(fp.degree(), gp.degree())
    moments = delta_expand(n, order, cap).terms
    total = QTSeries.zero(order)
    for alpha, ca in fp.terms.items():
        for beta, cb in gp.terms.items():
            mom = moments.get(tuple(a - b for a, b in zip(alpha, beta)))
            if mom is not None:
                total = total + ca * cb * mom
    return total * Fraction(1, factorial(n))


def norm_prime_product(lam, n):
    """Closed form of <P_lam, P_lam>'_n as an exact q-Pochhammer product."""
    lam = as_partition(lam)
    parts = list(lam) + [0] * (n - len(lam))
    out = QPochProduct()
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            a = parts[i - 1] - parts[j - 1]
            b = j - i
            out = out * QPochProduct.poch(a, b) * QPochProduct.poch(a + 1, b)
            out = out / (QPochProduct.poch(a, b + 1) * QPochProduct.poch(a + 1, b - 1))
    return out


def ct_norm_check(lam, n, order):
    """Series equality of the constant-term norm against its product form."""
    lam = as_partition(lam)
    if len(lam) > n:
        raise ValueError(f"{lam} has more than n = {n} parts")
    P = macdonald_pair(lam).P
    lhs = scalar_prime(P, P, n, order)
    rhs = norm_prime_product(lam, n).to_series(order)
    return lhs == rhs


def scalar_prime_orthogonality(lam, mu, n, order):
    """<P_lam, P_mu>'_n vanishes to the working order for lam != mu."""
    lhs = scalar_prime(macdonald_pair(lam).P, macdonald_pair(mu).P, n, order)
    return not lhs


def self_adjoint_check(f, g, n, order):
    """<D_1 f, g>' = <f, D_1 g>' to the working order."""
    if isinstance(f, SymFunc):
        f = evaluate_n(f, n)
    if isinstance(g, SymFunc):
        g = evaluate_n(g, n)
    lhs = scalar_prime(dr_apply(1, f, n), g, n, order)
    rhs = scalar_prime(f, dr_apply(1, g, n), n, order)
    return lhs == rhs


# ---------------------------------------------------------------------------
# the integral transforms
# ---------------------------------------------------------------------------

def map_G(s, f):
    """Multiply by (x_1 ... x_r)^s."""
    if s < 1:
        raise ValueError(f"gauge exponent must be >= 1, got {s}")
    out = NPoly(f.n)
    out.terms = {tuple(x + s for x in e): c for e, c in f.terms.items()}
    return out


def _windowed_integrand(f, m, order):
    """Terms of Delta(y) f(y) that can meet positive-kernel strata: e >= 0, sum = deg f."""
    fp = _as_npoly(f, m, order)
    if not fp:
        return {}, 0
    degs = {sum(e) for e in fp.terms}
    if len(degs) != 1:
        raise WindowTooSmall("integrand must be homogeneous")
    d = degs.pop()
    return _accumulate_delta(fp.terms, m, order, 0, d, d), d


def _collect_kernel(wterms, order, kind):
    """Pair windowed integrand terms with kernel stratum products: p-basis output."""
    by_kappa = {}
    for e, c in wterms.items():
        add_into(by_kappa, {as_partition(sorted(e, reverse=True)): c})
    out = {}
    for kappa, c in by_kappa.items():
        add_into(out, {nu: series_of(gc, order)
                       for nu, gc in kernel_product(kappa, kind).terms.items()}, c)
    return out


def _eval_p_series(terms, n, order):
    """Evaluate a p-basis map {partition: series} into n variables."""
    out = NPoly(n)
    for kappa, c in terms.items():
        poly = NPoly.constant(n, 1)
        for part in kappa:
            poly = poly * power_sum_poly(part, n)
        add_into(out.terms, poly.terms, c)
    return out


def _kernel_transform(n_to, m_from, f, order, d_out, kind):
    wterms, d = _windowed_integrand(f, m_from, order)
    if d_out is not None and d_out < d:
        raise WindowTooSmall(f"output degree {d} exceeds requested cap {d_out}")
    out = _collect_kernel(wterms, order, kind)
    if n_to is None:
        return SymFunc("p", out)
    return _eval_p_series(out, n_to, order)


def map_N(n_to, m_from, f, order, d_out=None):
    """Integral transform against Pi(x, 1/y) Delta(y): m_from variables in.

    Returns the p-basis image {partition: series} when n_to is None (the
    projective limit); otherwise evaluates into n_to variables.
    """
    return _kernel_transform(n_to, m_from, f, order, d_out, "g")


def map_N_tilde(n_to, m_from, f, order, d_out=None):
    """Integral transform against the finite dual kernel prod(1 + x_i/y_j) Delta(y)."""
    return _kernel_transform(n_to, m_from, f, order, d_out, "e")


@dataclass(frozen=True)
class IntegralConstants:
    """Normalizations of the nested integral representation.

    The primed norms are infinite q-Pochhammer products, so both constants are
    carried exactly as product objects and expanded on demand;
    `uses_ct_conjecture` records that a nontrivial primed norm entered.
    """

    lam: tuple
    c_plus: QPochProduct
    c_minus: QPochProduct
    block_norms: tuple
    block_prime_norms: tuple
    uses_ct_conjecture: bool


def integral_constants(lam):
    lam = as_partition(lam)
    blocks = rectangles(lam) if lam else []
    c_plus = QPochProduct()
    norms = []
    primes = []
    stack = ()
    for s, r in blocks:
        stack = add_parts(stack, (s,) * r)
        norm = 1 / b_coeff(stack)
        prime = norm_prime_product(stack, r)
        norms.append(norm)
        primes.append(prime)
        c_plus = c_plus * QPochProduct(Fraction(1, factorial(r))) * norm / prime
    total_norm = 1 / b_coeff(lam) if lam else ratqt(1)
    return IntegralConstants(
        lam=lam,
        c_plus=c_plus,
        c_minus=c_plus / total_norm,
        block_norms=tuple(norms),
        block_prime_norms=tuple(primes),
        uses_ct_conjecture=any(r >= 2 for _, r in blocks),
    )


def _pipeline_inner(lam, order):
    """The nested transform through the last gauge factor: an NPoly over r_N variables."""
    blocks = rectangles(lam)
    cur = None
    prev_r = None
    for s, r in blocks:
        if cur is None:
            cur = NPoly.constant(r, QTSeries.one(order))
        else:
            cur = map_N(r, prev_r, cur, order)
        cur = map_G(s, cur)
        prev_r = r
    return cur


def _integral_rep(lam, order, d_out, dual):
    lam = as_partition(lam)
    if d_out is not None and d_out < weight(lam):
        raise WindowTooSmall(f"degree {weight(lam)} exceeds requested cap {d_out}")
    if not lam:
        return SymFunc("p", {(): QTSeries.one(order)})
    inner = _pipeline_inner(lam, order)
    transform = map_N_tilde if dual else map_N
    sym = transform(None, rectangles(lam)[-1][1], inner, order)
    constants = integral_constants(lam)
    scale = (constants.c_minus if dual else constants.c_plus).to_series(order)
    return SymFunc("p", {nu: c * scale for nu, c in sym.terms.items()})


def integral_rep_P(lam, order, d_out=None):
    """Nested-integral reconstruction of P_lam: p-basis map {partition: series}."""
    return _integral_rep(lam, order, d_out, dual=False)


def integral_rep_P_dual(lam, order, d_out=None):
    """Dual-kernel reconstruction of P_{lam'}(x; t, q): p-basis map."""
    return _integral_rep(lam, order, d_out, dual=True)


def expected_p_series(lam, order, swapped=False):
    """P_lam (or P_lam with q,t swapped) in the p basis, coefficients as series."""
    pair = macdonald_pair(lam)
    src = pair.P_p if not swapped else pair.P_p.map_coeffs(swap_qt)
    return {nu: series_of(c, order) for nu, c in src.terms.items()}


def integral_rep_check(lam, order):
    got = integral_rep_P(lam, order)
    return got.terms == expected_p_series(lam, order)


def integral_rep_dual_check(lam, order):
    got = integral_rep_P_dual(lam, order)
    return got.terms == expected_p_series(conjugate(lam), order, swapped=True)


# ---------------------------------------------------------------------------
# bosonization integrands and the skew integral
# ---------------------------------------------------------------------------

def f_plus_terms(lam, order):
    """Windowed terms of the outer-level integrand F+_lam, constants included.

    Returns (terms over r_N variables with sum of exponents = |lam|, r_N).
    """
    lam = as_partition(lam)
    if not lam:
        return {(): QTSeries.one(order)}, 0
    inner = _pipeline_inner(lam, order)
    r_n = rectangles(lam)[-1][1]
    wterms, _ = _windowed_integrand(inner, r_n, order)
    scale = integral_constants(lam).c_plus.to_series(order)
    return {e: c * scale for e, c in wterms.items()}, r_n


def _compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def skew_integral_check(lam, mu, order):
    """Nested-integral route to b_lam^(-1) Q_{lam/mu} against the algebraic route.

    The two integrand groups interact through Pi(1/z, 1/w) (enumerated as
    stratum matrices) while Pi(x, 1/z) collects the output into the p basis.
    """
    lam, mu = as_partition(lam), as_partition(mu)
    wl, r = f_plus_terms(lam, order)
    wm, rho = f_plus_terms(mu, order)
    wterms = {}
    for beta, cb in wm.items():
        col_opts = [list(_compositions(b, r)) for b in beta]
        for cols in iproduct(*col_opts):
            coeff = cb
            for col in cols:
                for v in col:
                    if v:
                        coeff = coeff * _qbinom_series(v, order)
            rows = tuple(sum(col[i] for col in cols) for i in range(r))
            add_into(wterms, {tuple(x - y for x, y in zip(alpha, rows)): ca
                              for alpha, ca in wl.items()
                              if all(x >= y for x, y in zip(alpha, rows))}, coeff)
    out = _collect_kernel(wterms, order, "g")
    from .macdonald import skew_q
    expected = skew_q(lam, mu).scale(1 / b_coeff(lam))
    want = {nu: series_of(c, order) for nu, c in expected.terms.items()}
    want = {nu: c for nu, c in want.items() if c}
    return out == want


# ---------------------------------------------------------------------------
# Schur-type constant-term formulas
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _sign_factor_terms(ell, reverse=False):
    """Expansion of prod_{i<j} (1 - y_i/y_j), or of prod_{i<j} (1 - y_j/y_i)."""
    terms = {(0,) * ell: 1}
    for i in range(ell):
        for j in range(i + 1, ell):
            up, down = (j, i) if reverse else (i, j)
            shifted = {}
            for e, c in terms.items():
                ne = list(e)
                ne[up] += 1
                ne[down] -= 1
                shifted[tuple(ne)] = c
            terms = add_into(dict(terms), shifted, -1)
    return terms


def schur_ct(lam, nx=None, kind="h"):
    """Constant-term formula with kernel strata of the given kind.

    kind 'h' reproduces the Schur function s_lam; 'hl' and 'qinv' give the
    dual bases of the Schur family under the deformed scalar products.
    """
    lam = as_partition(lam)
    acc = {}
    for w, c in _sign_factor_terms(len(lam)).items():
        v = tuple(l + x for l, x in zip(lam, w))
        if all(x >= 0 for x in v):
            add_into(acc, {as_partition(sorted(v, reverse=True)): c})
    out = SymFunc("p")
    for kappa, c in acc.items():
        add_into(out.terms, kernel_product(kappa, kind).terms, c)
    return evaluate_n(out, nx) if nx is not None else out


def schur_ct_dual(lam, nx=None):
    """Dual constant-term formula: (-1)^|lam| with kernel prod(1 - x_i/y_j) gives s_{lam'}."""
    # the outer (-1)^|lam| cancels the (-1)^sum(v) from the kernel strata,
    # since every surviving stratum vector v sums to |lam|
    return schur_ct(lam, nx, kind="e")
