"""Independent mini-implementations used only as oracles by the tests.

Everything here is deliberately written against a different representation
(dense triangular arrays of Fractions indexed [q-power][t-power]) than the
package's sparse series type, so the two can check each other.  The kernel
oracle enumerates whole matrices where the package recurses on sorted margins,
the Macdonald oracle orthogonalizes in Q(q,t) where the package solves the
zero-mode eigenvector equation over Z[q,t], the Hall-Littlewood oracle sums
over every permutation and divides by the Vandermonde where the package
straightens each monomial into an alternant, the shift-operator oracle does
every coefficient operation in Q(q,t) where the package works in Z[q,t], the
dual Schur oracle inverts Gram matrices where the package reads the
plethystic closed forms, the series product multiplies Fractions where the
package clears both operands to integers, the pairwise scalar product pairs
every two monomials where the package pairs S_n-orbits, the coefficient
parser does every operation in Q(q,t) where the package stays in Z[q,t]
until a denominator appears, and the p, e and h tables multiply generator
polynomials in d variables where the package takes one Pieri step on
partitions.  The integral-representation oracle reduces every kernel
stratum (a Q(q,t) plethysm), P_p and normalization constant into Q(q,t)
and expands the reduced value, where the package reads each series
straight from Z[q,t] numerators over one inverted denominator.  The
term-by-term bodies below (scalar product, p-product, basis change, the three
skew routes) add and multiply one reduced Q(q,t) element at a time where the
package clears each linear combination to Z[q,t] once and reduces each output
once.  The structure constants pair Q_lam with P_mu P_nu over Z[q,t], one
scalar product per lam, where the package peels P_mu P_nu into the P basis
down the dominance order.  The kernel collapse at t = q^beta checks its
per-factor identities afresh for every n in Q(q) and assembles the n-variable
kernel with its Q(q) pair coefficients, where the package shares the factor
half across n, stays in Z[q] and compares the assembly on packed ints.
The specializations substitute into each reduced coefficient of P with
Q(q,t) arithmetic (`substitute`) and compare reduced symmetric functions,
where the package maps the exponents of numerator and denominator over
Z[q,t] and compares cleared sides on packed ints.
`from_poly` and `completeness_check` are helpers only the tests read.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial, prod

from sympy.polys.domains import ZZ
from sympy.polys.rings import ring

from macsym.coeff import (_OPS, FIELD, ONE, Q, RING, QTSeries, T, _Parser, add_into, invert,
                          ratqt, reduce_ratqt, swap_qt)
from macsym.ctengine import (_as_npoly, _windowed_integrand, delta_expand, integral_constants,
                             map_G, series_of)
from macsym.errors import MacsymError, SpecializationPole
from macsym.macdonald import _schur_to_m, hall_littlewood_symmetrizer, macdonald_pair
from macsym.pairing import (inner_cleared, inner_pvec, inner_qt, kernel_product, qbinom_coeff,
                            z_factor)
from macsym.partitions import (as_partition, compositions, conjugate, dominates, partitions_of,
                               rectangles, weight)
from macsym.symfunc import (NPoly, SymFunc, basis_to_m, convert, evaluate_n, m_to_basis,
                            npoly_divexact, orbit_exponents, p_product_cleared, sym_gen)


def dense_zero(order):
    return [[Fraction(0)] * (order + 1 - i) for i in range(order + 1)]


def dense_const(value, order):
    out = dense_zero(order)
    out[0][0] = Fraction(value)
    return out


def dense_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_mul(a, b):
    order = len(a) - 1
    out = dense_zero(order)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            if not a[i][j]:
                continue
            for k in range(order + 1 - i - j):
                for l in range(order + 1 - i - j - k):
                    if b[k][l]:
                        out[i + k][j + l] += a[i][j] * b[k][l]
    return out


def dense_inv(a):
    order = len(a) - 1
    assert a[0][0]
    out = dense_zero(order)
    out[0][0] = 1 / a[0][0]
    for deg in range(1, order + 1):
        for i in range(deg + 1):
            j = deg - i
            s = Fraction(0)
            for k in range(i + 1):
                for l in range(j + 1):
                    if (k, l) != (0, 0) and a[k][l]:
                        s += a[k][l] * out[i - k][j - l]
            out[i][j] = -s / a[0][0]
    return out


def dense_linear(order, const, terms):
    """const + sum of (coeff, qpow, tpow) entries."""
    out = dense_const(const, order)
    for coeff, qp, tp in terms:
        if qp + tp <= order:
            out[qp][tp] += Fraction(coeff)
    return out


def poch_dense(a, b, order):
    """(q^a t^b; q)_infinity as a dense triangular array."""
    out = dense_const(1, order)
    k = 0
    while a + k + b <= order:
        out = dense_mul(out, dense_linear(order, 1, [(-1, a + k, b)]))
        k += 1
    return out


def dense_from_qtseries(s):
    out = dense_zero(s.order)
    for (i, j), c in s.coeffs.items():
        out[i][j] = Fraction(c)
    return out


def delta_two_var_oracle(order, umax):
    """Laurent coefficients of the two-variable interchange kernel.

    Expands (u;q)oo (1/u;q)oo / ((t u;q)oo (t/u;q)oo) by brute force over a
    wide enough u-window and returns {d: dense array} for |d| <= umax.
    Exact to the requested (q,t) order.
    """
    # finite pieces (u q^k; q) contribute only for k <= order; inverse pieces
    # carry one t per u so their u-exponents are bounded by the order too
    width = 3 * order + umax + 4
    terms = {0: dense_const(1, order)}

    def mul_factor(terms, entries):
        # entries: list of (u-shift, dense array) summing to one factor
        out = {}
        for d, arr in terms.items():
            for shift, farr in entries:
                nd = d + shift
                if abs(nd) > width:
                    continue
                piece = dense_mul(arr, farr)
                if nd in out:
                    out[nd] = dense_add(out[nd], piece)
                else:
                    out[nd] = piece
        return out

    for k in range(order + 1):
        # (1 - u q^k) and (1 - q^k / u)
        terms = mul_factor(terms, [(0, dense_const(1, order)),
                                   (1, dense_linear(order, 0, [(-1, k, 0)]))])
        terms = mul_factor(terms, [(0, dense_const(1, order)),
                                   (-1, dense_linear(order, 0, [(-1, k, 0)]))])
    for k in range(order + 1):
        # 1/(1 - t u q^k) and 1/(1 - t q^k / u): geometric sums
        for sign in (1, -1):
            entries = [(0, dense_const(1, order))]
            j = 1
            while j * (1 + k) <= order:
                entries.append((sign * j, dense_linear(order, 0, [(1, k * j, j)])))
                j += 1
            terms = mul_factor(terms, entries)
    return {d: arr for d, arr in terms.items() if abs(d) <= umax}


def delta_unpruned(seeds, nvars, pair_series, order, lo, hi):
    """Seed Laurent terms times every pair factor of Delta, windowed only at the end.

    seeds and pair_series ({d: coefficient of (y_i/y_j)^d}) hold QTSeries;
    each pair factor is multiplied out in full on dense arrays, with no
    valuation or window bound on the way, and only the final terms are
    restricted to {lo <= e_j <= hi}.  Returns {exponent: dense array}.
    """
    zero = dense_zero(order)
    pair = {d: dense_from_qtseries(c) for d, c in pair_series.items()}
    terms = {e: dense_from_qtseries(c) for e, c in seeds.items()}
    for i in range(nvars):
        for j in range(i + 1, nvars):
            out = {}
            for e, arr in terms.items():
                for d, parr in pair.items():
                    ne = list(e)
                    ne[i] += d
                    ne[j] -= d
                    key = tuple(ne)
                    piece = dense_mul(arr, parr)
                    out[key] = dense_add(out[key], piece) if key in out else piece
            terms = {e: arr for e, arr in out.items() if arr != zero}
    return {e: arr for e, arr in terms.items() if all(lo <= x <= hi for x in e)}


def margin_matrices(rows, cols):
    """Every matrix of nonnegative integers with row sums `rows` and column sums `cols`,
    as the tuple of its entries row by row."""
    if not rows:
        if not any(cols):
            yield ()
        return
    for first in compositions(rows[0], len(cols)):
        if all(v <= c for v, c in zip(first, cols)):
            for rest in margin_matrices(rows[1:], tuple(c - v for c, v in zip(cols, first))):
                yield first + rest


def kernel_at_margins(rows, cols, factor):
    """kernel_matrices' coefficient at one pair of margins, as a RatQT: the sum of
    prod factor(entry) over the matrices with these margins, enumerated one by one
    (those with the same multiset of entries share one product of factors), so that
    margins of degree 5 need not enumerate every matrix of total at most 5.
    """
    entries = Counter(tuple(sorted(v for v in m if v)) for m in margin_matrices(rows, cols))
    return ratqt(sum((n * prod(map(factor, e)) for e, n in entries.items()), 0))


def kernel_matrices(nx, ny, d, factor):
    """prod_{i,j} sum_v factor(v) (x_i y_j)^v to total degree d, matrix by matrix.

    Enumerates every nx-by-ny matrix of nonnegative entries with total at
    most d and adds prod factor(entry) at its margins.  Returns the nonzero
    coefficients as {(x-exponents, y-exponents): RatQT}.
    """
    out = {}
    for total in range(d + 1):
        for entries in compositions(total, nx * ny):
            coeff = 1
            for v in entries:
                if v:
                    coeff = coeff * factor(v)
            xexp = tuple(sum(entries[i * ny + j] for j in range(ny)) for i in range(nx))
            yexp = tuple(sum(entries[i * ny + j] for i in range(nx)) for j in range(ny))
            out[(xexp, yexp)] = out.get((xexp, yexp), 0) + coeff
    return {key: ratqt(c) for key, c in out.items() if c}


def schur_bialternant(lam, n):
    """s_lam in n variables via the ratio of alternants: dict exponent -> int."""
    assert n >= len(lam)
    padded = list(lam) + [0] * (n - len(lam))
    num = {}
    for perm in permutations(range(n)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n)
                  if perm[a] > perm[b])
        sign = -1 if inv & 1 else 1
        exp = [0] * n
        for row, col in enumerate(perm):
            exp[col] = padded[row] + (n - 1 - row)
        key = tuple(exp)
        num[key] = num.get(key, 0) + sign
    den = {}
    for perm in permutations(range(n)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n)
                  if perm[a] > perm[b])
        sign = -1 if inv & 1 else 1
        exp = [0] * n
        for row, col in enumerate(perm):
            exp[col] = n - 1 - row
        key = tuple(exp)
        den[key] = den.get(key, 0) + sign
    # long division num / den in pure-lex order
    num = {k: v for k, v in num.items() if v}
    den = {k: v for k, v in den.items() if v}
    lead = max(den)
    quo = {}
    while num:
        top = max(num)
        e = tuple(a - b for a, b in zip(top, lead))
        assert all(x >= 0 for x in e), "alternant division left a remainder"
        c = num[top] // den[lead]
        quo[e] = c
        for ed, cd in den.items():
            key = tuple(a + b for a, b in zip(e, ed))
            v = num.get(key, 0) - c * cd
            if v:
                num[key] = v
            else:
                num.pop(key, None)
    return quo


def hall_littlewood_p(lam):
    """Hall-Littlewood P_lam(t) in m: the symmetrizer in |lam| variables over v_lam, reduced once."""
    lam = as_partition(lam)
    n = weight(lam)
    A, v = hall_littlewood_symmetrizer(lam, n)
    return SymFunc("m", reduce_ratqt(_schur_to_m(A, n), v))


def hall_littlewood_p_division(lam):
    """Hall-Littlewood P_lam(t) in the m basis: every permutation, then one division.

    sum_w sign(w) w(x^lam prod_{i<j} (x_i - t x_j)) is summed over all n!
    permutations of n = |lam| variables and divided, as a polynomial in
    Z[x_1..x_n, t], by v_lam(t) prod_{i<j} (x_i - x_j) (Macdonald III (2.2)).
    """
    lam = as_partition(lam)
    n = weight(lam)
    R, *gens = ring([f"x{i}" for i in range(n)] + ["t"], ZZ)
    xs, t = gens[:n], gens[n]
    seed = R.one
    for x, part in zip(xs, lam):
        seed *= x ** part
    for i, j in combinations(range(n), 2):
        seed *= xs[i] - t * xs[j]
    terms = {}
    for perm in permutations(range(n)):
        inv = sum(1 for a, b in combinations(range(n), 2) if perm[a] > perm[b])
        source = sorted(range(n), key=perm.__getitem__) + [n]  # x_i -> x_perm[i]
        for mono, c in seed.items():
            key = tuple(map(mono.__getitem__, source))
            terms[key] = terms.get(key, 0) + (-c if inv & 1 else c)
    den = R.one
    for i, j in combinations(range(n), 2):
        den *= xs[i] - xs[j]
    for m in Counter(lam + (0,) * (n - len(lam))).values():
        for k in range(1, m + 1):
            den *= sum((t ** s for s in range(k)), R.zero)
    quo, rem = divmod(R.from_dict({key: c for key, c in terms.items() if c}), den)
    assert not rem, "the symmetrizer is not divisible by the Vandermonde and v_lam(t)"
    coeffs = {}
    for mono, c in quo.items():
        if all(mono[i] >= mono[i + 1] for i in range(n - 1)):
            coeffs.setdefault(as_partition(mono[:n]), {})[(0, mono[n])] = c
    return SymFunc("m", {mu: FIELD(RING.from_dict(c)) for mu, c in coeffs.items()})


def _eval_poly(poly, q_img, t_img):
    """Evaluate a Z[q,t] polynomial at RatQT images of q and t."""
    qpow, tpow = {0: ONE}, {0: ONE}

    def power(cache, base, k):
        if k not in cache:
            cache[k] = base ** k
        return cache[k]

    total = FIELD.zero
    for (a, b), c in poly.terms():
        total += int(c) * power(qpow, q_img, a) * power(tpow, t_img, b)
    return total


def substitute(r, q_image, t_image):
    """Compose a rational function with images of q and t.

    Images may be rational numbers or elements of Q(q,t); substitutions such
    as q -> 1/q, t -> 1/t are cleared back to ordinary fractions by the field
    arithmetic.  Raises SpecializationPole when the denominator vanishes.
    """
    r = ratqt(r)
    qi, ti = ratqt(q_image), ratqt(t_image)
    num = _eval_poly(r.numer, qi, ti)
    den = _eval_poly(r.denom, qi, ti)
    if not den:
        raise SpecializationPole(f"denominator of {r} vanishes under the substitution")
    return num / den


def specialize_sides_field(lam, which):
    """(P_lam degenerated, what it must equal), reduced m-basis SymFuncs: each coefficient
    of P substituted into in Q(q,t), against the Schur, Hall-Littlewood, monomial and e
    functions and P itself."""
    lam = as_partition(lam)
    P = macdonald_pair(lam).P
    if which == "schur":
        return P.map_coeffs(lambda c: substitute(c, Q, Q)), convert(sym_gen("s", lam), "m")
    if which == "hall-littlewood":
        return P.map_coeffs(lambda c: substitute(c, 0, T)), hall_littlewood_p(lam)
    if which == "monomial":
        return P.map_coeffs(lambda c: substitute(c, Q, 1)), SymFunc("m", {lam: ratqt(1)})
    if which == "dual-e":
        return (P.map_coeffs(lambda c: substitute(c, 1, T)),
                convert(sym_gen("e", conjugate(lam)), "m"))
    if which == "inverse-qt":
        return P.map_coeffs(lambda c: substitute(c, 1 / Q, 1 / T)), P
    raise ValueError(f"unknown specialization {which!r}")


def specialize_check_field(lam, which):
    """`macdonald.specialize_check` in Q(q,t) (`specialize_sides_field`)."""
    spec, want = specialize_sides_field(lam, which)
    return spec == want


def gen_expansion_by_product(kind, lam):
    """X_lam (X in {p, e, h}) in the m basis: the X_r multiplied in d = |lam| variables."""
    d = weight(lam)
    poly = NPoly.constant(d, 1)
    for r in lam:
        if kind == "p":
            steps = [tuple(r if j == i else 0 for j in range(d)) for i in range(d)]
        elif kind == "e":
            steps = [tuple(int(j in idx) for j in range(d)) for idx in combinations(range(d), r)]
        else:
            steps = compositions(r, d)
        poly = poly * NPoly(d, {a: 1 for a in steps})
    return {as_partition(e): c for e, c in poly.terms.items()
            if all(e[i] >= e[i + 1] for i in range(d - 1))}


@lru_cache(maxsize=None)
def m_to_basis_field(to, d):
    """The rows of m_to_basis(to, d) divided back by their denominator, in Q(q,t)."""
    den, rows = m_to_basis(to, d)
    return {mu: {lam: ratqt(Fraction(c, den)) for lam, c in row.items()}
            for mu, row in rows.items()}


def gram_schmidt(d, specialize=None):
    """Orthogonal family of degree d by Gram-Schmidt: {lam: (m_coeffs, p_coeffs, norm)}.

    Traverses the partitions of d dominance-smallest first and orthogonalizes
    m_lam against the strictly dominated members already built, under the
    (q,t) scalar product or the one `specialize` selects as in
    `inner_pvec_termwise` ((0, t) gives Hall-Littlewood).  The leading
    coefficient stays 1; norm is <P_lam, P_lam> under that product.
    """
    if specialize is None:
        inner = inner_pvec
    else:
        def inner(a, b):
            return inner_pvec_termwise(a, b, specialize)
    m2p = m_to_basis_field("p", d)
    built = {}
    for lam in list(partitions_of(d))[::-1]:
        mvec = {lam: ratqt(1)}
        pvec = dict(m2p[lam])
        for mu, (mu_m, mu_p, mu_norm) in built.items():
            if dominates(lam, mu):
                c = inner(pvec, mu_p) / mu_norm
                add_into(mvec, mu_m, -c)
                add_into(pvec, mu_p, -c)
        built[lam] = (mvec, pvec, inner(pvec, pvec))
    return built


def _dual_by_gram(d, partner, specialize):
    """{lam: S_lam} in the s basis with <S_lam, partner[mu]> = delta, by Gram inversion."""
    plist = list(partitions_of(d))
    gram = {a: {b: inner_qt_termwise(sym_gen("s", a), partner[b], specialize)
                for b in plist} for a in plist}
    out = {lam: SymFunc("s", row) for lam, row in invert(gram, plist).items()}
    for a in plist:
        for b in plist:
            if inner_qt_termwise(out[a], partner[b], specialize) != (1 if a == b else 0):
                raise AssertionError(f"duality pairing failed at {a}, {b}")
    return out


def dual_schur_by_gram(d):
    """(S(t), S(q,t)) of degree d: S(t) dual to s under the Hall-Littlewood
    product, S(q,t) dual to S(t) under the (q,t) product, each solved for."""
    st = _dual_by_gram(d, {lam: sym_gen("s", lam) for lam in partitions_of(d)}, (0, T))
    return st, _dual_by_gram(d, st, None)


def _field_linear(n, u, cu, v, cv):
    """cu x_u + cv x_v as an NPoly over Q(q,t)."""
    eu, ev = [0] * n, [0] * n
    eu[u] = 1
    ev[v] = 1
    return NPoly(n, {tuple(eu): ratqt(cu), tuple(ev): ratqt(cv)})


def dr_apply_field(r, f, n):
    """D_r f with every coefficient operation in Q(q,t): the reference shift operator.

    Sums sign_I * prod_{i in I, j not in I} (t x_i - x_j) * prod_{u<v not split
    by I} (x_u - x_v) * f(q x_I) over r-subsets I, scales by t^(r(r-1)/2) and
    divides by the Vandermonde prod_{u<v} (x_u - x_v).
    """
    vandermonde = NPoly.constant(n, ratqt(1))
    for u, v in combinations(range(n), 2):
        vandermonde = vandermonde * _field_linear(n, u, 1, v, -1)
    total = NPoly(n)
    for subset in combinations(range(n), r):
        pref = NPoly.constant(n, ratqt(1))
        for u, v in combinations(range(n), 2):
            if u in subset and v not in subset:
                pref = pref * _field_linear(n, u, T, v, -1)
            elif v in subset and u not in subset:
                pref = pref * _field_linear(n, v, T, u, -1).scale(ratqt(-1))
            else:
                pref = pref * _field_linear(n, u, 1, v, -1)
        shifted = NPoly(n, {e: ratqt(c) * Q ** sum(e[i] for i in subset)
                            for e, c in f.terms.items()})
        total = total + pref * shifted
    total = total.scale(T ** (r * (r - 1) // 2))
    return npoly_divexact(total, vandermonde) if n > 1 else total


def series_mul_fraction(a, b):
    """a * b on the coefficients as they are (int or Fraction): the reference product.

    (a, b) -> a*(order+1) + b adds without carry while a + b <= order; the
    right terms go by total degree, so each row stops at its room.
    """
    order = a.order
    n1 = order + 1
    right = sorted((x + y, x * n1 + y, c) for (x, y), c in b.coeffs.items())
    out = {}
    for (a1, b1), c1 in a.coeffs.items():
        room, k1 = order - a1 - b1, a1 * n1 + b1
        for s2, k2, c2 in right:
            if s2 > room:
                break
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    res = QTSeries(order)
    res.coeffs = {divmod(k, n1): c for k, c in out.items() if c}
    return res


def scalar_prime_pairwise(f, g, n, order):
    """(1/n!) CT f(1/x) g(x) Delta(x), pairing every monomial of f with every one of g."""
    fp = _as_npoly(f, n, order)
    gp = _as_npoly(g, n, order)
    if not fp or not gp:
        return QTSeries.zero(order)
    moments = delta_expand(n, order, max(fp.degree(), gp.degree()))
    total = QTSeries.zero(order)
    for alpha, ca in fp.terms.items():
        for beta, cb in gp.terms.items():
            mom = moments.get(tuple(a - b for a, b in zip(alpha, beta)))
            if mom is not None:
                total = total + series_mul_fraction(series_mul_fraction(ca, cb), mom)
    return total * Fraction(1, factorial(n))


# ---------------------------------------------------------------------------
# term-by-term Q(q,t) linear combinations
# ---------------------------------------------------------------------------

def inner_pvec_termwise(a, b, specialize=None):
    """sum over shared lam of a * b * z_lam(q,t), one reduced field operation at a time."""
    total = ratqt(0)
    for lam, c1 in a.items():
        c2 = b.get(lam)
        if c2 is not None:
            z = z_factor(lam)
            if specialize is not None:
                z = substitute(z, *specialize)
            total = total + c1 * c2 * z
    return total


def inner_qt_termwise(f, g, specialize=None):
    return inner_pvec_termwise(convert_termwise(f, "p").terms,
                               convert_termwise(g, "p").terms, specialize)


def p_product_termwise(f, g):
    """p_lam p_mu = p of the merged parts, summed one field product at a time."""
    res = SymFunc("p")
    for lam, c1 in f.terms.items():
        add_into(res.terms, {as_partition(sorted(lam + mu, reverse=True)): c2
                             for mu, c2 in g.terms.items()}, c1)
    return res


def multiply_termwise(f, g):
    return p_product_termwise(convert_termwise(f, "p"), convert_termwise(g, "p"))


def convert_termwise(f, to):
    """f in the basis `to` through the m basis, one field operation per term."""
    if f.basis == to:
        return SymFunc(to, dict(f.terms))
    out = {}
    by_degree = {}
    for lam, c in f.terms.items():
        by_degree.setdefault(weight(lam), {})[lam] = c
    for d, terms in by_degree.items():
        mid = {}
        for lam, c in terms.items():
            add_into(mid, basis_to_m(f.basis, d)[lam], c)
        if to == "m":
            out.update(mid)
            continue
        rows = m_to_basis_field(to, d)
        for mu, c in mid.items():
            add_into(out, rows[mu], c)
    res = SymFunc(to)
    res.terms = out
    return res


def structure_constant_pairing(lam, mu, nu):
    """f^lam_{mu,nu} = <Q_lam, P_mu P_nu>: P_mu P_nu as a ring product of the held
    numerators, paired with those of Q_lam, reduced once."""
    pm_pn = p_product_cleared(macdonald_pair(mu).cleared_p(), macdonald_pair(nu).cleared_p())
    den, num = inner_cleared(macdonald_pair(lam).cleared_p(dual=True), pm_pn)
    return FIELD.new(num, den)


def skew_q_termwise(lam, mu):
    """Q_{lam/mu} = sum_nu b_lam <P_lam, P_mu P_nu> Q_nu, term by term in Q(q,t)."""
    lam, mu = as_partition(lam), as_partition(mu)
    out = SymFunc("p")
    if weight(mu) > weight(lam):
        return out
    pair_l = macdonald_pair(lam)
    for nu in partitions_of(weight(lam) - weight(mu)):
        pair_n = macdonald_pair(nu)
        f = pair_l.b * inner_qt_termwise(
            pair_l.P_p, multiply_termwise(macdonald_pair(mu).P_p, pair_n.P_p))
        add_into(out.terms, pair_n.Qf.terms, f)
    return out


def skew_via_fock_termwise(lam, mu):
    """The translation-coproduct route with every coefficient in Q(q,t).

    Splits each p_kappa of Q_lam into x- and y-parts, takes the y-parts to the
    m basis and peels P_nu(y) off down the whole dominance order.
    """
    lam, mu = as_partition(lam), as_partition(mu)
    if (k := weight(mu)) > weight(lam):
        return SymFunc("p")
    to_m, rest = basis_to_m("p", k), {}
    for kappa, c in macdonald_pair(lam).Qf.terms.items():
        splits = {((), ()): 1}
        for part in kappa:
            nxt = {}
            for (x, y), n in splits.items():
                for key in ((x + (part,), y), (x, y + (part,))):
                    if weight(key[1]) <= k:
                        nxt[key] = nxt.get(key, 0) + n
            splits = nxt
        for (x, y), n in splits.items():
            for nu, v in to_m[y].items() if weight(y) == k else ():
                add_into(rest.setdefault(nu, {}), {x: c}, n * v)
    for nu in partitions_of(k):
        a = dict(rest.get(nu, {}))
        if nu == mu:
            return SymFunc("p", a).scale(macdonald_pair(mu).norm)
        if a and dominates(nu, mu):
            for rho, v in macdonald_pair(nu).P.terms.items():
                add_into(rest.setdefault(rho, {}), a, -v)


def p_bar_apply_termwise(r, f):
    """r (1-q^r)/(1-t^r) d/dp_r, one field product per term."""
    out = SymFunc("p")
    for nu, c in convert_termwise(f, "p").terms.items():
        m = nu.count(r)
        if m:
            rest = list(nu)
            rest.remove(r)
            add_into(out.terms, {as_partition(rest): c * (m * r * (1 - Q ** r) / (1 - T ** r))})
    return out


def skew_via_diffop_termwise(lam, mu):
    """P_mu acting in the lowered power sums on Q_lam, term by term in Q(q,t)."""
    cur = SymFunc("p")
    for kappa, u in macdonald_pair(mu).P_p.terms.items():
        piece = macdonald_pair(lam).Qf
        for part in kappa:
            piece = p_bar_apply_termwise(part, piece)
        add_into(cur.terms, piece.terms, u)
    return cur


class _FieldParser(_Parser):
    """The coefficient grammar with every operation in Q(q,t)."""

    @staticmethod
    def combine(op, a, b):
        return _OPS[op](_Parser.finish(a), _Parser.finish(b))


def parse_ratqt_field(text):
    """parse_ratqt with field arithmetic at every step, one reduction per operation."""
    return _FieldParser(text).parse()


class NotSymmetric(MacsymError):
    """Polynomial is not invariant under permutations of its variables."""


class UnstableRange(MacsymError):
    """Too few variables to identify a symmetric function of this degree."""


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
    return SymFunc("m", out)


def completeness_check(f):
    """sum_lam P_lam <Q_lam, f> reassembles f, degree by degree."""
    fp = convert(f, "p")
    out = SymFunc("p")
    for d in fp.degrees():
        for lam in partitions_of(d):
            pair = macdonald_pair(lam)
            add_into(out.terms, pair.P_p.terms, inner_qt(pair.Qf, fp))
    return out == fp


def _collect_kernel_field(wterms, order, kind):
    """Windowed terms against the kernel strata, each a reduced Q(q,t) plethysm
    (pairing.kernel_product) expanded by series_of."""
    by_kappa = {}
    for e, c in wterms.items():
        add_into(by_kappa, {as_partition(sorted(e, reverse=True)): c})
    out = {}
    for kappa, c in by_kappa.items():
        add_into(out, {nu: series_of(gc, order)
                       for nu, gc in kernel_product(kappa, kind).terms.items()}, c)
    return out


def _outer_integrand_field(lam, order):
    """The nested transform of lam through its last gauge factor, every level
    collected by _collect_kernel_field, then windowed against Delta."""
    cur = prev = None
    for s, r in rectangles(lam):
        if cur is None:
            cur = NPoly.constant(r, QTSeries.one(order))
        else:
            wterms = _windowed_integrand(cur, prev, order)
            cur = evaluate_n(SymFunc("p", _collect_kernel_field(wterms, order, "g")), r)
        cur, prev = map_G(s, cur), r
    return _windowed_integrand(cur, prev, order), prev


def integral_rep_sides_field(lam, order, dual=False):
    """ctengine.integral_rep_sides by the Q(q,t) route: reduced kernel strata, the
    reduced P_p (q and t swapped for the dual) and the reduced c_plus or c_minus,
    each expanded by series_of or QPochProduct.to_series."""
    lam = as_partition(lam)
    P_p = macdonald_pair(conjugate(lam) if dual else lam).P_p
    if dual:
        P_p = P_p.map_coeffs(swap_qt)
    want = {nu: s for nu, c in P_p.terms.items() if (s := series_of(c, order))}
    if not lam:
        return {(): QTSeries.one(order)}, want
    wterms, _ = _outer_integrand_field(lam, order)
    constants = integral_constants(lam)
    scale = (constants.c_minus if dual else constants.c_plus).to_series(order)
    got = _collect_kernel_field(wterms, order, "e" if dual else "g")
    return {nu: s for nu, c in got.items() if (s := c * scale)}, want


def f_plus_terms_field(lam, order):
    """ctengine.f_plus_terms by the Q(q,t) route of integral_rep_sides_field."""
    lam = as_partition(lam)
    if not lam:
        return {(): QTSeries.one(order)}, 0
    wterms, r_n = _outer_integrand_field(lam, order)
    scale = integral_constants(lam).c_plus.to_series(order)
    return {e: c * scale for e, c in wterms.items()}, r_n


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


def _vertex_pair_series(beta):
    """{d: coefficient of (x_i/x_j)^d} in the interchange kernel of one pair at t = q^beta."""
    cm = [_delta_factor_rational(m, beta) for m in range(beta + 1)]
    return {dd: sum((cm[k + abs(dd)] * cm[k] for k in range(beta - abs(dd) + 1)), ratqt(0))
            for dd in range(-beta, beta + 1)}


def invert_dividing(rows, plist):
    """`coeff.invert` with every pivot row divided by its pivot, 1 included: the
    elimination that the package's skip of a pivot of 1 must agree with."""
    k = len(plist)
    idx = {lam: i for i, lam in enumerate(plist)}
    mat = [[0] * k for _ in range(k)]
    for lam, row in rows.items():
        for mu, c in row.items():
            mat[idx[lam]][idx[mu]] = c
    inv = [[int(i == j) for j in range(k)] for i in range(k)]
    for col in range(k):
        piv = next(r for r in range(col, k) if mat[r][col])
        mat[col], mat[piv] = mat[piv], mat[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        c = mat[col][col]
        mat[col] = [v / c for v in mat[col]]
        inv[col] = [v / c for v in inv[col]]
        for r in range(k):
            if r != col and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
                inv[r] = [a - f * b for a, b in zip(inv[r], inv[col])]
    return {lam: {mu: c for mu, c in zip(plist, inv[i]) if c} for i, lam in enumerate(plist)}


def vertex_product_check_field(beta, n, d):
    """The kernel collapse at t = q^beta for one n, nothing shared or cleared:
    the per-factor identities up to u^d, then the n-variable product of the
    pair series against the finite product, both over Q(q)."""
    finite = _finite_delta_poly(beta, max(d, beta))
    if any(_delta_factor_rational(m, beta) != (finite[m] if m < len(finite) else 0)
           for m in range(max(d, beta) + 1)):
        return False
    pi_side = _finite_pi_series(beta, d)
    if any(substitute(qbinom_coeff(m), Q, Q ** beta) != pi_side[m] for m in range(d + 1)):
        return False
    pair = _vertex_pair_series(beta)
    lhs = rhs = NPoly.constant(n, ratqt(1))

    def shift(i, j, k):  # the exponent vector of (x_i / x_j)^k
        return tuple(k if v == i else -k if v == j else 0 for v in range(n))

    for i, j in combinations(range(n), 2):
        finite_pair = {}
        for k, l in product(range(beta + 1), repeat=2):
            add_into(finite_pair, {shift(i, j, k - l): finite[k] * finite[l]})
        lhs = lhs * NPoly(n, {shift(i, j, dd): s for dd, s in pair.items()})
        rhs = rhs * NPoly(n, finite_pair)
    return lhs == rhs
