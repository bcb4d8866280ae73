"""Named verification suites with machine-readable reports.

Each suite is a generator of records {identity, parameters, order, status,
max_order_checked, wall_time}, run into a list by `_timed`; wall_time is the
time spent producing the record.  `order`/`max_order_checked` are null for
exact (non-truncated) checks.  A failing record of a check that compares two
sides also carries `detail`: the first key at which they differ, with both
values, or no detail when a side could not be computed or when the sides
agree and only the check's own table failed (`suite_cauchy`).
Reports are deterministic apart from the timing field: cases are generated in
reverse-lex partition order.
"""

import time
from functools import wraps
from itertools import combinations

from . import ctengine, fock, kostka, macdonald, pairing
from .coeff import (FIELD, RING, QTSeries, add_into, clear_ratqt, emit_ratqt, invert,
                    reduce_ratqt, sums_of_products_equal, swap_poly, swap_qt)
from .errors import InternalInconsistency
from .macdonald import macdonald_pair
from .pairing import (dual_factor, inner_cleared, inner_products, kernel_coeff, omega_cleared,
                      qbinom_coeff, qpoch)
from .partitions import (MAX_HL_WEIGHT, MAX_INTEGRAL_WEIGHT, MAX_KOSTKA_DEGREE,
                         conjugate, partitions_of, weight)
from .symfunc import _reduced_p, convert, evaluate_n, sym_gen

REPORT_VERSION = "v1"


def _record(identity, parameters, passed, order=None):
    return {"identity": identity, "parameters": parameters, "order": order,
            "status": "pass" if passed else "fail", "max_order_checked": order,
            "wall_time": None}


def _render(c):
    return repr(c) if isinstance(c, QTSeries) else emit_ratqt(c)


def first_difference(got, want):
    """{key, got, want} at the first key where two sides differ, values rendered.

    Sides are scalars, series, sparse maps, or SymFunc/NPoly; a key missing on
    one side reads as 0 there.  None when the sides agree.
    """
    if got == want:
        return None
    if isinstance(got, QTSeries) and isinstance(want, QTSeries):
        got, want = got.coeffs, want.coeffs
    got, want = (getattr(x, "terms", x) for x in (got, want))
    if not (isinstance(got, dict) and isinstance(want, dict)):
        return {"got": _render(got), "want": _render(want)}
    keys = [k for k in got.keys() | want.keys() if got.get(k, 0) != want.get(k, 0)]
    if not keys:  # equal maps on unequal carriers, e.g. two bases
        return {"got": repr(got), "want": repr(want)}
    key = min(keys)
    return {"key": repr(key), "got": _render(got.get(key, 0)),
            "want": _render(want.get(key, 0))}


def _compared(identity, parameters, got, want, order=None):
    """A record of the check got == want, with the first difference when it fails."""
    rec = _record(identity, parameters, got == want, order)
    if rec["status"] == "fail":
        rec["detail"] = first_difference(got, want)
    return rec


def _timed(suite):
    """Run a suite generator into a list, each record's wall_time the time spent
    producing it: since the previous record, or since the suite started."""
    @wraps(suite)
    def run(**params):
        out = []
        start = time.perf_counter()
        for rec in suite(**params):
            now = time.perf_counter()
            rec["wall_time"] = round(now - start, 6)
            out.append(rec)
            start = now
        return out
    return run


def _all_partitions(maxweight, max_length=None):
    for d in range(maxweight + 1):
        yield from partitions_of(d, max_length=max_length)


@_timed
def suite_orthogonality(maxweight=5, **_):
    """<P_lam, P_mu> = delta_lam,mu / b_lam on the held integral forms over Z[q,t].

    `inner_products` gives a pairing as a sum of products over a product den.
    lam != mu checks that the sum for <P_lam, P_mu> is 0, and lam = mu that
    the sum for <Q_lam, P_lam> = b_lam <P_lam, P_lam> equals its den: Q_lam
    is held as the numerators of P_lam over the denominator D c'_lam.  One
    packed evaluation decides every record, and only a failing record is
    reduced, for its detail.
    """
    plist = list(_all_partitions(maxweight))
    cases = {}
    for lam in plist:
        for mu in plist:
            dens, terms = inner_products(macdonald_pair(lam).cleared_p(dual=lam == mu),
                                         macdonald_pair(mu).cleared_p())
            cases[lam, mu] = (terms, [dens] if lam == mu else [])
    for (lam, mu), holds in zip(cases, sums_of_products_equal(list(cases.values()))):
        rec = _record("orthogonality-norm", {"lambda": lam, "mu": mu}, holds)
        if not holds:
            den, num = inner_cleared(macdonald_pair(lam).cleared_p(),
                                     macdonald_pair(mu).cleared_p())
            rec["detail"] = first_difference(FIELD.new(num, den),
                                             macdonald_pair(lam).norm if lam == mu else 0)
        yield rec


@_timed
def suite_eigen(maxweight=3, **_):
    """D_r P_lam = e_r P_lam for 1 <= r <= n = |lam|, and [D_r, D_s] m_mu = 0.

    The r = n records check only the degree: e_n is t^(n(n-1)/2) q^d for
    every lam of weight d (see macdonald.dr_eigencheck).
    """
    for lam in _all_partitions(maxweight):
        n = max(weight(lam), 1)
        for r in range(1, n + 1):
            yield _record("eigen-equation", {"lambda": lam, "r": r, "n": n},
                          macdonald.dr_eigencheck(lam, r, n))
    for n in range(2, min(3, maxweight + 1) + 1):
        for d in range(0, min(3, maxweight) + 1):
            for mu in partitions_of(d, max_length=n):
                for r, s in combinations(range(1, n + 1), 2):
                    f = evaluate_n(sym_gen("m", mu), n)
                    yield _record("commutator", {"mu": mu, "r": r, "s": s, "n": n},
                                  macdonald.dr_commute_check(r, s, f, n))


@_timed
def suite_duality(maxweight=5, **_):
    """omega_qt P_lam = Q_lam'(x; t, q) (Macdonald VI (5.1)) on the held numerators.

    With P_lam = nums / den (`cleared_p`), Q_lam' = nums' / den' and the omega
    weight of p_rho cleared to w_num / w_den (`omega_cleared`), the record
    holds when w_num nums[rho] swap(den') = swap(nums'[rho]) w_den den at
    every p-key rho.  One packed evaluation per lam decides it, and nothing
    is reduced on a pass; a failing record reduces both sides for its detail.
    """
    for lam in _all_partitions(maxweight):
        den, nums = macdonald_pair(lam).cleared_p()
        den_d, nums_d = macdonald_pair(conjugate(lam)).cleared_p(dual=True)
        den_d, nums_d = swap_poly(den_d), {rho: swap_poly(n) for rho, n in nums_d.items()}
        weights = {rho: omega_cleared(rho) for rho in nums.keys() | nums_d.keys()}
        equations = [([(weights[rho][0], nums[rho], den_d)] if rho in nums else [],
                      [(nums_d[rho], weights[rho][1], den)] if rho in nums_d else [])
                     for rho in weights]
        rec = _record("omega-duality", {"lambda": lam}, all(sums_of_products_equal(equations)))
        if rec["status"] == "fail":
            lhs = {rho: FIELD.new(weights[rho][0] * n, weights[rho][1] * den)
                   for rho, n in nums.items() if n}
            rec["detail"] = first_difference(lhs, reduce_ratqt(nums_d, den_d))
        yield rec


def _cauchy_products(d, dual):
    """{(lam, mu): coefficient of x^lam y^mu} in sum_nu P_nu(x) Q_nu(y), |nu| = d,
    or in the dual sum_nu P_nu(x) P_nu'(y; t, q), both read from P in the m basis:
    the side of a failing Cauchy record's detail."""
    out = {}
    for nu in partitions_of(d):
        pair = macdonald_pair(nu)
        right = (macdonald_pair(conjugate(nu)).P.map_coeffs(swap_qt) if dual
                 else pair.P.scale(pair.b))
        for lam, c in pair.P.terms.items():
            add_into(out, {(lam, mu): r for mu, r in right.terms.items()}, c)
    return out


def cauchy_equations(d):
    """{(name, nu, mu): (lhs, rhs)}: the degree-d Cauchy identities over Z[q,t].

    A[nu][mu] = J_nu[mu] / c_nu are P's m-rows, inverted by `invert` and each
    column nu cleared to N[rho][nu] / E_nu.  With the kernel numerators K
    over (q;q)_d and the dual kernel's integers K~ (`kernel_numerator`):
    - "cauchy-kernel": c'_nu sum_rho N[rho][nu] K[rho][mu] = J_nu[mu] E_nu (q;q)_d;
    - "dual-cauchy-kernel": c'_nu sum_rho N[rho][nu] K~[rho][mu] = swap(J_nu')[mu] E_nu;
    - "table" (nu2 in place of nu): sum_rho J_nu2[rho] N[rho][nu] = delta c_nu2 E_nu.
    """
    plist = list(partitions_of(d))
    inverse = invert({nu: macdonald_pair(nu).P.terms for nu in plist}, plist)
    qq = qpoch(d)
    out = {}
    for nu in plist:
        E, N = clear_ratqt({rho: row[nu] for rho, row in inverse.items() if nu in row})
        c, c_prime = macdonald._arm_leg_products(nu)
        J, J_dual = macdonald_pair(nu).J, macdonald_pair(conjugate(nu)).J
        for mu in plist:
            out["cauchy-kernel", nu, mu] = (
                [(c_prime, n, pairing.kernel_numerator(rho, mu)) for rho, n in N.items()],
                [(J[mu], E, qq)] if mu in J else [])
            out["dual-cauchy-kernel", nu, mu] = (
                [(c_prime, n, k) for rho, n in N.items()
                 if (k := pairing.kernel_numerator(rho, mu, True))],
                [(swap_poly(J_dual[mu]), E)] if mu in J_dual else [])
            J2 = macdonald_pair(mu).J
            out["table", mu, nu] = (
                [(J2[rho], n) for rho, n in N.items() if rho in J2],
                [(c, E)] if mu == nu else [])
    return out


@_timed
def suite_cauchy(maxweight=4, **_):
    """Both Cauchy identities at partition keys, decided over Z[q,t] per degree.

    sum_nu P_nu(x) Q_nu(y) = K reads K = A^T B A at degree d, with A P's
    m-rows and B = diag(b_nu).  A is unitriangular in reverse lex, so this
    is K's unique LDL^T factorization, and it holds exactly when
    A^-T K = B A.  `cauchy_equations` states that over Z[q,t] on the
    table N / E of A^-1, and the table equations check A N / E = 1, so the
    inverse is checked, not trusted; the dual identity is the same with
    B A replaced by the q <-> t swapped rows of P_nu'.  One packed
    evaluation per degree decides both records, each of which needs the
    table equations too.  A failing record forms both sides of the identity
    (the kernel coefficients and `_cauchy_products`) for its detail.
    """
    for d in range(maxweight + 1):
        equations = cauchy_equations(d)
        failed = {key[0] for key, holds in zip(equations,
                                                sums_of_products_equal(list(equations.values())))
                  if not holds}
        for identity, factor, dual in (("cauchy-kernel", qbinom_coeff, False),
                                       ("dual-cauchy-kernel", dual_factor, True)):
            rec = _record(identity, {"degree": d}, not failed & {identity, "table"})
            if rec["status"] == "fail":
                plist = list(partitions_of(d))
                kernel = {(lam, mu): c for lam in plist for mu in plist
                          if (c := kernel_coeff(lam, mu, factor))}
                if detail := first_difference(kernel, _cauchy_products(d, dual)):
                    rec["detail"] = detail
            yield rec


@_timed
def suite_specializations(maxweight=4, **_):
    for lam in _all_partitions(maxweight):
        for case in macdonald.SPECIALIZE_CASES:
            if case != "hall-littlewood" or weight(lam) <= MAX_HL_WEIGHT:
                rec = _record(f"specialization-{case}", {"lambda": lam},
                              macdonald.specialize_check(lam, case))
                if rec["status"] == "fail":
                    key, got, want = macdonald.specialize_difference(lam, case)
                    rec["detail"] = first_difference({key: got}, {key: want})
                yield rec


@_timed
def suite_ct_conjecture(maxweight=3, order=6, **_):
    for n in range(1, 4):
        ctengine.delta_expand(n, order, maxweight)  # the widest cap: one kernel run per n
        for lam in _all_partitions(maxweight, max_length=n):
            yield _compared("constant-term-norm", {"lambda": lam, "n": n},
                            *ctengine.ct_norm_sides(lam, n, order), order)


@_timed
def suite_self_adjoint(maxweight=3, order=4, **_):
    """<D_1 m_mu, m_nu>'_n = <m_mu, D_1 m_nu>'_n, each m_mu and its D_1 image formed
    once per n and paired with every m_nu."""
    for n in (2, 3):
        ctengine.delta_expand(n, order, maxweight)  # the widest cap: one kernel run per n
        operands = {mu: ctengine.self_adjoint_operand(sym_gen("m", mu), n)
                    for mu in _all_partitions(maxweight, max_length=n)}
        for mu, f in operands.items():
            for nu, g in operands.items():
                yield _compared("self-adjointness", {"f": mu, "g": nu, "n": n},
                                *ctengine.self_adjoint_sides(f, g, n, order), order)


@_timed
def suite_integral_reps(maxweight=4, order=6, **_):
    for lam in _all_partitions(min(maxweight, MAX_INTEGRAL_WEIGHT)):
        for identity, dual in (("integral-rep", False), ("integral-rep-dual", True)):
            yield _compared(identity, {"lambda": lam},
                            *ctengine.integral_rep_sides(lam, order, dual), order)


def skew_route_sides(lam, mu):
    """(got, want, route) for Q_{lam/mu}: want is `skew_q_cleared`'s (den_q, nums_q), got the
    cleared pair of the first other route, fock first, that differs from it and route its
    name, or both None.  One packed evaluation decides a route, key k by
    den_q nums[k] = nums_q[k] den; the diffop route's nums[k] is the sum of its lowering
    terms uw_kappa Q_lam[K] f (`fock._lowered_terms`), so that route is formed only when it
    fails.  A missing key is an empty side; a zero den raises InternalInconsistency."""
    want = den_q, nums_q = macdonald.skew_q_cleared(lam, mu)

    def holds(lhs, *den):
        if not (den_q and all(den)):
            raise InternalInconsistency("a cleared skew function has denominator 0")
        return all(sums_of_products_equal([(lhs.get(k, []),
                                            [(nums_q[k], *den)] if k in nums_q else [])
                                           for k in lhs.keys() | nums_q.keys()]))

    den, nums = got = fock.skew_via_fock_cleared(lam, mu)
    if not holds({k: [(n, den_q)] for k, n in nums.items()}, den):
        return got, want, "fock"
    den, den_w, terms = fock._lowered_terms(lam, mu)
    lhs = {}
    for k, w, c, f in terms:
        lhs.setdefault(k, []).append((w, c, den_q, RING(f)))
    if not holds(lhs, den, den_w):
        return fock.skew_via_diffop_cleared(lam, mu), want, "diffop"
    return None, want, None


@_timed
def suite_skew_routes(maxweight=4, **_):
    for lam in _all_partitions(maxweight):
        for dm in range(weight(lam) + 1):
            for mu in partitions_of(dm):
                got, want, route = skew_route_sides(lam, mu)
                rec = _record("skew-three-routes", {"lambda": lam, "mu": mu}, got is None)
                if got is not None:
                    rec["detail"] = {**first_difference(_reduced_p(got), _reduced_p(want)),
                                     "route": route}
                yield rec


@_timed
def suite_skew_integral(order=5, **_):
    for lam, mu in [((2,), (1,)), ((1, 1), (1,)), ((2, 1), (1,))]:
        yield _compared("skew-integral", {"lambda": lam, "mu": mu},
                        *ctengine.skew_integral_sides(lam, mu, order), order)


@_timed
def suite_schur_ct(maxweight=4, **_):
    """The constant-term formulas for s_lam and s_lam' against the bialternant
    definition: the s tables come from straightening alternants, not from
    Jacobi-Trudi, which the formula itself expands."""
    for lam in _all_partitions(maxweight):
        yield _compared("schur-ct", {"lambda": lam},
                        convert(ctengine.schur_ct(lam), "m"),
                        convert(sym_gen("s", lam), "m"))
        yield _compared("schur-ct-dual", {"lambda": lam},
                        convert(ctengine.schur_ct_dual(lam), "m"),
                        convert(sym_gen("s", conjugate(lam)), "m"))


@_timed
def suite_kostka(maxweight=3, order=5, **_):
    """The reconstruction inside kostka_matrix and the integral route to each entry
    of degree 2; a record whose table raises InternalInconsistency fails."""
    for d in range(1, min(maxweight, MAX_KOSTKA_DEGREE) + 1):
        try:
            kostka.kostka_matrix(d)  # N[q,t] entries and reconstruction asserted inside
            ok = True
        except InternalInconsistency:
            ok = False
        yield _record("kostka-reconstruction", {"degree": d}, ok)
    for lam in partitions_of(2):
        for mu in partitions_of(2):
            params = {"lambda": lam, "mu": mu}
            try:
                sides = kostka.kostka_integral_sides(lam, mu, order)
            except InternalInconsistency:
                yield _record("kostka-integral", params, False, order)
            else:
                yield _compared("kostka-integral", params, *sides, order)


@_timed
def suite_vertex_identities(maxweight=3, **_):
    for beta in range(1, 4):
        for n in range(2, 4):
            rec = _record("kernel-product-collapse", {"beta": beta, "n": n, "degree": maxweight},
                          fock.vertex_product_check(beta, n, maxweight))
            if rec["status"] == "fail":
                key, got, want = fock.vertex_product_difference(beta, n, maxweight)
                rec["detail"] = first_difference({key: got}, {key: want})
            yield rec
    for n in range(1, 6):
        yield _record("symmetrizer-sum", {"n": n}, fock.symmetrizer_check(n))


SUITES = {
    "orthogonality": suite_orthogonality,
    "eigen": suite_eigen,
    "duality": suite_duality,
    "cauchy": suite_cauchy,
    "specializations": suite_specializations,
    "ct-conjecture": suite_ct_conjecture,
    "self-adjoint": suite_self_adjoint,
    "integral-reps": suite_integral_reps,
    "skew-routes": suite_skew_routes,
    "skew-integral": suite_skew_integral,
    "schur-ct": suite_schur_ct,
    "kostka": suite_kostka,
    "vertex-identities": suite_vertex_identities,
}


def run_suite(name, **params):
    if name == "all":
        return [rec for suite in SUITES.values() for rec in suite(**params)]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](**params)
