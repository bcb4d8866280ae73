"""Constant-term realization of the contour integrals.

Every integral in scope is the coefficient-extraction functional: integrating
a Laurent object against prod dy_j/(2 pi i y_j) keeps exactly the terms with
zero exponent in each y_j.  The engine therefore works with Laurent terms
held in plain {exponent tuple: series} dicts, whose values are truncated
(q,t)-series.

The interchange kernel Delta(y) = prod_{i != j} (y_i/y_j; q)oo/(t y_i/y_j; q)oo
expands factorwise with coefficients c_m = prod_{k<m}(t - q^k)/(q;q)_m, whose
(q,t)-adic valuation is m - 1.  Grouping the two factors of each unordered
variable pair gives a Laurent series in y_i/y_j whose degree-d coefficient has
valuation at least |d| - 1, so a total (q,t)-order cutoff M needs pair degrees
only up to M + 1: truncation is exact, never approximate.  Q[[q,t]] has no zero
divisors, so val(a*b) = val(a) + val(b) whenever that sum is at most M, and the
truncated product is 0 otherwise: the engine decides from valuations alone
which products it keeps, and forms only those.

Inside the Delta kernel each Laurent term is one Python integer (Kronecker
substitution): q^a t^b sits in slot (a+b)(M+1) + a of B bits, as a balanced
digit.  As 0 <= a <= a+b, slot keys add without carry: the slot of a product
is the sum of the slots while its total degree is at most M, and that sum
reaches (M+1)^2 exactly when the degree exceeds M, so the truncated product
of two terms is their integer product reduced mod 2^(B (M+1)^2) into the
signed range.  Rational seeds are cleared to one integer denominator first,
and B comes from a coefficientwise majorant of what the pair steps can make
of the seeds, so no slot overflows (see _accumulate_delta).  Symmetric seeds
give a symmetric result, so the kernel then computes only the weakly
decreasing exponents and fills each S_n-orbit from them.

The Delta moments M(delta) = [y^delta] Delta are exact whatever the box,
so the windows nest: a window on a box is every wider window restricted to
it.  One window per (n, order) is held (_delta_window), and the kernel runs
only on the unit seed, when a box is not covered by the held one.
delta_expand reads each cap from it, and every other product with Delta
is read from it by linearity: [y^e'] Delta f = sum_e f_e M(e' - e), one
series product per target e' and S_n-orbit of a symmetric f (_delta_times).

The positive kernels never need their own variables: the coefficient of
y^(-a) in Pi(x, 1/y) is the product of single-variable strata g_{a_j}(x)
(and e_{a_j} for the finite dual kernel), so integral transforms collect
straight into the power-sum basis.  A stratum product is the image of
h_kappa under p_r -> w(r) p_r, held as series: the rational p-coefficients
of h_kappa times the series of the weights.  The expected P_lam, the expected
skew side and the normalization constants are read from Z[q,t] numerators
over one inverted denominator (coeff.cleared_series), so no value on the
integral-rep path is reduced in Q(q,t).
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import permutations
from math import factorial

from .coeff import (RING, QPochProduct, QTSeries, add_into, clear_denominators,
                    cleared_series, divide_back, ratqt, reduce_ratqt, swap_poly, to_series)
from .errors import InternalInconsistency, WindowTooSmall, check_counts
from .macdonald import _arm_leg_products, dr_apply, macdonald_pair, skew_q_cleared
from .pairing import _weight, kernel_coeff, kernel_product, qbinom_coeff
from .partitions import (as_partition, compositions, conjugate, partial_stacks, partitions_of,
                         rectangles, weight)
from .symfunc import (NPoly, SymFunc, convert_cleared, evaluate_n, is_symmetric,
                      require_symmetric)


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


@lru_cache(maxsize=None)
def _pair_majorant(order, steps):
    """G^steps truncated at the order, G = sum_d |F_d| coefficientwise, as dense slots.

    Slot (a+b)(order+1) + a holds the q^a t^b coefficient.  G majorizes every
    pair factor, so G^steps bounds what `steps` pair steps make of a unit seed.
    """
    width = order + 1
    size = width * width
    g = [0] * size
    for cd in delta_pair_series(order).values():
        for (a, b), c in cd.coeffs.items():
            g[(a + b) * width + a] += abs(c)
    out = [1] + [0] * (size - 1)
    for _ in range(steps):
        out = _slot_product(out, g, size)
    return tuple(out)


def _slot_product(x, y, size):
    """Truncated product of two dense slot lists: slots at or past `size` dropped."""
    out = [0] * size
    for k1, c1 in enumerate(x):
        if c1:
            for k2 in range(size - k1):
                out[k1 + k2] += c1 * y[k2]
    return out


def _accumulate_delta(seeds, nvars, order, lo, hi, total):
    """Multiply Delta(y_1..y_nvars) onto seed Laurent terms, windowed.

    Keeps exactly the terms that can still reach the final window
    {lo <= e_j <= hi for all j}; the admissible future movement of each
    exponent is bounded through the remaining valuation budget.  That budget
    is order - val(ce) - val(cd) = order - val(ce * cd) by valuation
    additivity, so a pair is pruned before its product is formed.

    Each Laurent term is one Python integer.  With W = order + 1, q^a t^b
    sits in slot k = (a+b)*W + a of B bits, so a coefficient c contributes
    c * 2^(B*k).  Slots are balanced digits: a slot value v with
    -2^(B-1) <= v < 2^(B-1) is read back from the low B bits r as r, or as
    r - 2^B when r >= 2^(B-1), and the next slot is read from the rest.

    Seeds.  Rational seed coefficients are cleared to one integer
    denominator D, the lcm of their denominators; the pair factors F_d are
    integral, so every term stays integral and each output coefficient is
    divided by D once (coeff.clear_denominators, coeff.divide_back).

    Width.  Let G = sum_d |F_d| coefficientwise.  A target of a pair step
    takes at most one product from each d, so if every term is majorized by
    a series S, every term after the step is majorized by S*G.  Hence every
    slot of every term is at most the same slot of seed_bound * G^steps,
    seed_bound being the coefficientwise maximum of the cleared seeds, and
    B is one bit more than that bound's bit length (36 bits at n = 4,
    order 8, against 82 for the plain L1 bound).

    Truncation.  As 0 <= a <= a+b, slot keys add without carry while the
    total degree is at most the order, and a key sum reaches W*W exactly
    when the degree exceeds it.  So the integer product of two terms holds
    the truncated product in its slots below W*W and only dropped terms
    above.  A pair step shifts each operand down by its lowest nonzero slot
    (its valuation), cuts both to the W*W - k_left - k_right slots that can
    survive, multiplies, and adds the product shifted back into its target.
    The cuts and the dropped slots only change the target by multiples of
    2^(B*W*W); the truncated sum has |value| < 2^(B*W*W - 1) by the width
    bound, so reducing mod 2^(B*W*W) into the signed range recovers it
    exactly.  Series are built only for the terms in the final window.

    Symmetry.  Delta is S_n-invariant and the box window is symmetric, so
    when the seeds are fixed by every adjacent transposition (is_symmetric)
    so is the output, and only its weakly decreasing exponents are computed.
    Pairs run in lex order, so no step after (i, nvars-1) touches e_i: that
    step finalizes e_i, and drops a target before its product is formed when
    e_i > e_(i-1), or when the nvars-1-i coordinates still open cannot sum
    to the rest of the total while each stays in [lo, e_i]; at the last
    step the latter says e_(nvars-1) > e_(nvars-2).  The later steps only
    carry a dropped target to exponents that leave the window or are not
    weakly decreasing, and no kept coefficient sums over those, so each
    kept coefficient is exact.  Each orbit is then filled from its sorted
    representative, and its members share one series object: the returned
    dict is read-only, like the caches that hold it.  Any other seed runs
    the full product.
    """
    symmetric = is_symmetric(seeds, nvars)
    for e in seeds:
        if sum(e) != total:
            raise WindowTooSmall(f"seed exponent {e} has total {sum(e)} != {total}")
    width = order + 1
    size = width * width
    pairs = [(i, j) for i in range(nvars) for j in range(i + 1, nvars)]
    remain = []
    cnt = [0] * nvars
    for i, j in reversed(pairs):
        remain.append(tuple(cnt))
        cnt[i] += 1
        cnt[j] += 1
    remain.reverse()
    flat = {}
    for e, c in seeds.items():
        if c.order != order:
            raise ValueError(f"seed series order {c.order} != {order}")
        for (a, b), v in c.coeffs.items():
            flat[e, (a + b) * width + a] = v
    den, flat = clear_denominators(flat)
    seed_bound = [0] * size
    cleared = {}
    for (e, k), v in flat.items():
        cleared.setdefault(e, {})[k] = v
        seed_bound[k] = max(seed_bound[k], abs(v))
    bits = max(_slot_product(seed_bound, _pair_majorant(order, len(pairs)),
                             size)).bit_length() + 1
    masks = [(1 << (bits * m)) - 1 for m in range(size + 1)]
    half = 1 << (bits * size - 1)

    def shifted(slots):
        """(valuation slot, the term shifted down by it) of a packed term."""
        v = ((slots & -slots).bit_length() - 1) // bits
        return v, slots >> (bits * v)

    def packed(slots):
        return shifted(sum(c << (bits * k) for k, c in slots.items()))

    terms = {e: packed(slots) for e, slots in cleared.items()}
    series = [(d, *packed({(a + b) * width + a: c for (a, b), c in cd.coeffs.items()}))
              for d, cd in sorted(delta_pair_series(order).items())]
    for step, (i, j) in enumerate(pairs):
        touch = remain[step]
        final = symmetric and j == nvars - 1  # this step finalizes e_i
        still = nvars - 1 - i  # coordinates still open after it
        accs = {}
        for e, (kl, left) in terms.items():
            ve = kl // width
            if final:
                top = e[i - 1] if i else hi
                rest = total - sum(e[:i])
            shared = {}  # F_d = F_-d, so one product can serve both targets
            for d, kr, right in series:
                slack = order - ve - kr // width
                if slack < 0:
                    continue
                ei, ej = e[i] + d, e[j] - d
                fi = touch[i] + slack if touch[i] else 0
                fj = touch[j] + slack if touch[j] else 0
                if lo - fi <= ei <= hi + fi and lo - fj <= ej <= hi + fj:
                    if final and (ei > top or not lo * still <= rest - ei <= ei * still):
                        continue
                    ne = list(e)
                    ne[i], ne[j] = ei, ej
                    ne = tuple(ne)
                    p = shared.pop(-d, None)
                    if p is None:
                        mask = masks[size - kl - kr]
                        p = shared[d] = ((left & mask) * (right & mask)) << (bits * (kl + kr))
                    accs[ne] = accs.get(ne, 0) + p
        terms = {}
        for e, acc in accs.items():
            if acc := ((acc + half) & masks[size]) - half:
                terms[e] = shifted(acc)
    out = {}
    digit, top = masks[1], 1 << (bits - 1)
    for e, (k, x) in terms.items():
        if all(lo <= y <= hi for y in e):
            coeffs = {}
            while x and k < size:
                c = x & digit
                if c >= top:
                    c -= 1 << bits
                x = (x - c) >> bits
                if c:
                    deg, a = divmod(k, width)
                    coeffs[(a, deg - a)] = c
                k += 1
            if x:
                raise InternalInconsistency(f"Delta kernel term {e} overflows its slots")
            s = QTSeries(order)
            s.coeffs = divide_back(coeffs, den)
            for p in sorted(set(permutations(e))) if symmetric else (e,):
                out[p] = s
    return out


@lru_cache(maxsize=None)
def _delta_windows(n, order):
    """{None: (lo, hi, the held Delta window on lo <= e_j <= hi), cap: its delta_expand view}."""
    return {}


def _delta_window(n, order, lo, hi):
    """The held Delta window at (n, order), covering lo <= e_j <= hi: the first is the box
    asked for, a later miss runs the kernel on the smallest [-c, c] covering both boxes."""
    windows = _delta_windows(n, order)
    held = windows.get(None)
    if held is None or lo < held[0] or hi > held[1]:
        if held is not None:
            c = max(-lo, hi, -held[0], held[1])
            lo, hi = -c, c
        held = windows[None] = lo, hi, _accumulate_delta({(0,) * n: QTSeries.one(order)},
                                                         n, order, lo, hi, 0)
    return held[2]


def delta_expand(n, order, cap):
    """Delta(y;q,t) over n variables: {exponent: series} on {|e_j| <= cap, sum e = 0}.

    The held window's view on the cap's box, kept and shared; the exponents
    of one S_n-orbit share one series: do not mutate either.
    """
    check_counts("delta_expand", n=(n, 0), order=(order, 0), cap=(cap, 0))
    windows = _delta_windows(n, order)
    if cap not in windows:
        window = _delta_window(n, order, -cap, cap)
        windows[cap] = window if windows[None][:2] == (-cap, cap) else {
            e: s for e, s in window.items() if max(map(abs, e), default=0) <= cap}
    return windows[cap]


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


def _orbits(terms):
    """{sorted exponent: [exponents of its S_n-orbit that carry a term]}."""
    out = {}
    for e in terms:
        out.setdefault(tuple(sorted(e)), []).append(e)
    return out


def _series_sum(order, terms):
    out = QTSeries(order)
    for s in terms:
        add_into(out.coeffs, s.coeffs)
    return out


def _delta_times(seeds, moments, targets, order, symmetric=True):
    """{e': [y^e'](Delta f) = sum_e f_e M(e' - e)} over the targets, zeros left out, f = seeds.

    A delta missing from the `moments` is a zero moment.  A symmetric f is
    constant on each S_n-orbit: one series product per (target, orbit).
    """
    groups = _orbits(seeds) if symmetric else {e: [e] for e in seeds}
    out = {}
    for target in targets:
        acc = QTSeries(order)
        for rep, members in groups.items():
            diffs = (tuple(a - b for a, b in zip(target, e)) for e in members)
            msum = _series_sum(order, (moments[d] for d in diffs if d in moments))
            if msum:
                add_into(acc.coeffs, (seeds[rep] * msum).coeffs)
        if acc:
            out[target] = acc
    return out


def _scalar_prime(fp, gp, n, order):
    """scalar_prime of series NPolys fp and symmetric gp, unchecked."""
    if not fp or not gp:
        return QTSeries.zero(order)
    moments = delta_expand(n, order, max(fp.degree(), gp.degree()))
    f_orbits = _orbits(fp.terms)
    total = QTSeries.zero(order)
    for rep, inner in _delta_times(gp.terms, moments, f_orbits, order).items():
        total = total + _series_sum(order, (fp.terms[a] for a in f_orbits[rep])) * inner
    return total * Fraction(1, factorial(n))


def scalar_prime(f, g, n, order):
    """(1/n!) * constant term of f(1/x) g(x) Delta(x), truncated at the order.

    `g` must be symmetric (ValueError otherwise); `f` may be any polynomial.
    Zero when the degrees differ (the integrand then has no constant term).
    It is sum_alpha f_alpha [x^alpha](g Delta), and g Delta is symmetric, so
    f's coefficients are summed per orbit and each orbit reads its sorted
    representative (`_delta_times`).
    """
    fp = _as_npoly(f, n, order)
    gp = fp if g is f else _as_npoly(g, n, order)
    require_symmetric(gp, "the second argument of scalar_prime")
    return _scalar_prime(fp, gp, n, order)


def norm_prime_product(lam, n):
    """Closed form of <P_lam, P_lam>'_n as an exact q-Pochhammer product."""
    lam = as_partition(lam)
    if n < len(lam):
        raise ValueError(f"{lam} has more than n = {n} parts")
    parts = list(lam) + [0] * (n - len(lam))
    out = QPochProduct()
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            a = parts[i - 1] - parts[j - 1]
            b = j - i
            out = out * QPochProduct.poch(a, b) * QPochProduct.poch(a + 1, b)
            out = out / (QPochProduct.poch(a, b + 1) * QPochProduct.poch(a + 1, b - 1))
    return out


def ct_norm_sides(lam, n, order):
    """(<P_lam, P_lam>'_n by the constant term, its product form), as series."""
    rhs = norm_prime_product(lam, n).to_series(order)
    P = macdonald_pair(lam).P
    return scalar_prime(P, P, n, order), rhs


def ct_norm_check(lam, n, order):
    """Series equality of the constant-term norm against its product form."""
    lhs, rhs = ct_norm_sides(lam, n, order)
    return lhs == rhs


def self_adjoint_operand(f, n, order):
    """(f, D_1 f) for symmetric f in n variables, as series NPolys checked symmetric:
    f's operand of `self_adjoint_sides` at the order."""
    if isinstance(f, SymFunc):
        f = evaluate_n(f, n)
    out = _as_npoly(f, n, order), _as_npoly(dr_apply(1, f, n), n, order)
    for p in out:
        require_symmetric(p, "a self-adjointness operand")
    return out


def self_adjoint_sides(f, g, n, order):
    """(<D_1 f, g>'_n, <f, D_1 g>'_n) as series, for operands f and g of
    `self_adjoint_operand`: each is formed and checked once and paired many times."""
    (f, d1_f), (g, d1_g) = f, g
    return _scalar_prime(d1_f, g, n, order), _scalar_prime(f, d1_g, n, order)


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
    """Terms of Delta(y) f(y) that can meet positive-kernel strata: e >= 0, sum = deg f.

    Read from the held window on [-max e, d - min e], which holds every e' - e;
    a symmetric f computes the weakly decreasing e' and shares each orbit's series.
    """
    fp = _as_npoly(f, m, order)
    if not fp:
        return {}
    degs = {sum(e) for e in fp.terms}
    if len(degs) != 1:
        raise WindowTooSmall("integrand must be homogeneous")
    d = degs.pop()
    exps = [x for e in fp.terms for x in e]
    moments = _delta_window(m, order, -max(exps, default=0), d - min(exps, default=0))
    if not is_symmetric(fp.terms, m):
        return _delta_times(fp.terms, moments, compositions(d, m), order, symmetric=False)
    reps = (lam + (0,) * (m - len(lam)) for lam in partitions_of(d, max_length=m))
    return {e: s for rep, s in _delta_times(fp.terms, moments, reps, order).items()
            for e in sorted(set(permutations(rep)))}


@lru_cache(maxsize=None)
def _weight_series(nu, kind, order):
    """prod over the parts r of nu of the plethystic weight w(r) of `kind`, as a series."""
    if not nu:
        return QTSeries.one(order)
    return _weight_series(nu[1:], kind, order) * series_of(_weight(nu[0], kind), order)


@lru_cache(maxsize=None)
def _kernel_series(kappa, kind, order):
    """The kernel stratum product of kappa (pairing.kernel_product) as p-basis series.

    It is the image of h_kappa under p_r -> w(r) p_r, so each rational
    p-coefficient of h_kappa (an integer over the denominator of the
    m -> p rows, by `convert_cleared`) is multiplied by the series
    of prod w(nu_j), formed in the series ring: no Q(q,t) arithmetic.
    """
    den, h_p = convert_cleared({kappa: 1}, "h", "p", weight(kappa))
    return {nu: _weight_series(nu, kind, order) * Fraction(c, den) for nu, c in h_p.items()}


def _collect_kernel(wterms, order, kind):
    """Pair windowed integrand terms with kernel stratum products: p-basis output."""
    by_kappa = {}
    for e, c in wterms.items():
        add_into(by_kappa, {as_partition(sorted(e, reverse=True)): c})
    out = {}
    for kappa, c in by_kappa.items():
        add_into(out, _kernel_series(kappa, kind, order), c)
    return out


def _kernel_transform(n_to, m_from, f, order, kind):
    out = _collect_kernel(_windowed_integrand(f, m_from, order), order, kind)
    if n_to is None:
        return SymFunc("p", out)
    return evaluate_n(SymFunc("p", out), n_to)


def map_N(n_to, m_from, f, order):
    """Integral transform against Pi(x, 1/y) Delta(y): m_from variables in.

    Returns the p-basis image {partition: series} when n_to is None (the
    projective limit); otherwise evaluates into n_to variables.
    """
    return _kernel_transform(n_to, m_from, f, order, "g")


def map_N_tilde(n_to, m_from, f, order):
    """Integral transform against the finite dual kernel prod(1 + x_i/y_j) Delta(y)."""
    return _kernel_transform(n_to, m_from, f, order, "e")


@dataclass(frozen=True)
class IntegralConstants:
    """Normalizations of the nested integral representation.

    c_plus = prefactor / primes and c_minus = c_plus b_lam.  The primed norms
    are infinite q-Pochhammer products, held as the product object `primes`;
    each rational prefactor is held unreduced over Z[q,t], as (num, den) in
    `prefactors` (c_plus's, then c_minus's), and `block_norms` holds each
    block's <P, P> = c'/c the same way.  `c_plus` and `c_minus` are reduced
    into Q(q,t) on first read; `series(order, dual)` expands a constant
    straight from its cleared prefactor.  `uses_ct_conjecture` records that
    a nontrivial primed norm entered.
    """

    lam: tuple
    prefactors: tuple
    primes: QPochProduct
    block_norms: tuple
    uses_ct_conjecture: bool
    _series: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def _reduced(self, dual):
        num, den = self.prefactors[dual]
        return QPochProduct(reduce_ratqt({(): num}, den)[()]) / self.primes

    @cached_property
    def c_plus(self):
        return self._reduced(False)

    @cached_property
    def c_minus(self):
        return self._reduced(True)

    def series(self, order, dual=False):
        """c_minus (dual) or c_plus as a series, cached per (order, dual); do not mutate it."""
        key = order, dual
        if key not in self._series:
            num, den = self.prefactors[dual]
            pre = cleared_series(den, {(): num}, order)[()]
            self._series[key] = pre * (QPochProduct() / self.primes).to_series(order)
        return self._series[key]


def integral_constants(lam):
    """The IntegralConstants of lam (a partition, tuple or list), cached per partition.

    The cached result is shared: do not mutate it.
    """
    return _integral_constants(as_partition(lam))


@lru_cache(maxsize=None)
def _integral_constants(lam):
    blocks = rectangles(lam) if lam else []
    primes = QPochProduct()
    norms = []
    num = den = RING.one  # the prefactor of c_plus, prod over blocks of norm / r!
    for (_, r), stack in zip(blocks, partial_stacks(blocks)):
        c, c_prime = _arm_leg_products(stack)
        norms.append((c_prime, c))  # <P_stack, P_stack> = 1 / b_stack = c' / c
        num, den = num * c_prime, den * c * factorial(r)
        primes = primes * norm_prime_product(stack, r)
    # c_minus = c_plus / <P_lam, P_lam> = c_plus b_lam, b_lam = c_lam / c'_lam
    c, c_prime = _arm_leg_products(lam)
    return IntegralConstants(
        lam=lam,
        prefactors=((num, den), (num * c, den * c_prime)),
        primes=primes,
        block_norms=tuple(norms),
        uses_ct_conjecture=any(r >= 2 for _, r in blocks),
    )


@lru_cache(maxsize=None)
def _outer_integrand(lam, order):
    """Windowed outer-level terms of the nested transform of lam, and r_N.

    Runs the transform through the last gauge factor, an NPoly over r_N
    variables, and multiplies Delta onto it.  Both kernels of the integral
    representation and F+_lam read this one expansion: do not mutate it.
    """
    cur = prev_r = None
    for s, r in rectangles(lam):
        if cur is None:
            cur = NPoly.constant(r, QTSeries.one(order))
        else:
            cur = map_N(r, prev_r, cur, order)
        cur = map_G(s, cur)
        prev_r = r
    return _windowed_integrand(cur, prev_r, order), prev_r


def _integral_rep(lam, order, dual):
    lam = as_partition(lam)
    if not lam:
        return SymFunc("p", {(): QTSeries.one(order)})
    out = _collect_kernel(_outer_integrand(lam, order)[0], order, "e" if dual else "g")
    scale = integral_constants(lam).series(order, dual)
    return SymFunc("p", {nu: c * scale for nu, c in out.items()})


def integral_rep_P(lam, order):
    """Nested-integral reconstruction of P_lam: p-basis map {partition: series}."""
    return _integral_rep(lam, order, dual=False)


def integral_rep_P_dual(lam, order):
    """Dual-kernel reconstruction of P_{lam'}(x; t, q): p-basis map."""
    return _integral_rep(lam, order, dual=True)


def expected_p_series(lam, order, swapped=False):
    """P_lam (or P_lam with q,t swapped) in the p basis, as its nonzero truncated series.

    Read from the pair's cleared p-vector over Z[q,t] (q and t swapped on its
    polynomials), with no reduction: see coeff.cleared_series.
    """
    den, nums = macdonald_pair(lam).cleared_p()
    if swapped:
        den, nums = swap_poly(den), {nu: swap_poly(n) for nu, n in nums.items()}
    return cleared_series(den, nums, order)


def integral_rep_sides(lam, order, dual=False):
    """(nested-integral p-basis series of P_lam or of its dual, the expected ones)."""
    if dual:
        return (integral_rep_P_dual(lam, order).terms,
                expected_p_series(conjugate(lam), order, swapped=True))
    return integral_rep_P(lam, order).terms, expected_p_series(lam, order)


def integral_rep_check(lam, order):
    got, want = integral_rep_sides(lam, order)
    return got == want


def integral_rep_dual_check(lam, order):
    got, want = integral_rep_sides(lam, order, dual=True)
    return got == want


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
    wterms, r_n = _outer_integrand(lam, order)
    scale = integral_constants(lam).series(order)
    return {e: c * scale for e, c in wterms.items()}, r_n


def skew_integral_sides(lam, mu, order):
    """(nested-integral route to b_lam^(-1) Q_{lam/mu}, the algebraic route), as series.

    The two integrand groups interact through Pi(1/z, 1/w), read at the margins
    (z-, w-exponents) by kernel_coeff; Pi(x, 1/z) collects the output into p.  The
    algebraic route, `skew_q_cleared` times c'_lam / c_lam, is expanded unreduced.
    """
    lam, mu = as_partition(lam), as_partition(mu)
    wl, r = f_plus_terms(lam, order)
    wm, rho = f_plus_terms(mu, order)
    wterms = {}
    for rows in compositions(weight(mu), r):
        shifted = {tuple(x - y for x, y in zip(alpha, rows)): ca for alpha, ca in wl.items()
                   if all(x >= y for x, y in zip(alpha, rows))}
        for beta, cb in wm.items():
            if k := kernel_coeff(rows, beta, qbinom_coeff):
                add_into(wterms, shifted, cb * series_of(k, order))
    out = _collect_kernel(wterms, order, "g")
    (den, nums), (c, c_prime) = skew_q_cleared(lam, mu), _arm_leg_products(lam)
    return out, cleared_series(den * c, {nu: n * c_prime for nu, n in nums.items()}, order)


def skew_integral_check(lam, mu, order):
    got, want = skew_integral_sides(lam, mu, order)
    return got == want


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


def schur_ct(lam, kind="h"):
    """Constant-term formula with kernel strata of the given kind.

    kind 'h' reproduces s_lam as a Jacobi-Trudi sum over h strata, checked
    against the bialternant s tables; 'hl' and 'qinv' give the dual bases of
    the Schur family under the deformed scalar products.
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
    return out


def schur_ct_dual(lam):
    """Dual constant-term formula: (-1)^|lam| with kernel prod(1 - x_i/y_j) gives s_{lam'}."""
    # the outer (-1)^|lam| cancels the (-1)^sum(v) from the kernel strata,
    # since every surviving stratum vector v sums to |lam|
    return schur_ct(lam, kind="e")
