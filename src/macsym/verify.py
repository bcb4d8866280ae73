"""Named verification suites with machine-readable reports.

Each check yields a record {identity, parameters, order, status,
max_order_checked, wall_time}; `order`/`max_order_checked` are null for exact
(non-truncated) checks.  A failing record of a check that compares two sides
also carries `detail`: the first key at which they differ, with both values.
Reports are deterministic apart from the timing field: cases are generated in
reverse-lex partition order.
"""

import time
from itertools import combinations

from . import ctengine, fock, kostka, macdonald
from .coeff import FIELD, QTSeries, add_into, emit_ratqt, swap_qt
from .errors import InternalInconsistency
from .macdonald import macdonald_pair
from .pairing import dual_factor, inner_cleared, kernel_coeff, omega_qt, qbinom_coeff
from .partitions import (MAX_HL_WEIGHT, MAX_INTEGRAL_WEIGHT, MAX_KOSTKA_DEGREE,
                         conjugate, partitions_of, weight)
from .symfunc import convert, evaluate_n, sym_gen

REPORT_VERSION = "v1"


def _record(identity, parameters, passed, order=None):
    return {
        "identity": identity,
        "parameters": parameters,
        "order": order,
        "status": "pass" if passed else "fail",
        "max_order_checked": order,
        "wall_time": None,
    }


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


def _timed(records):
    out = []
    for make in records:
        start = time.perf_counter()
        rec = make()
        rec["wall_time"] = round(time.perf_counter() - start, 6)
        out.append(rec)
    return out


def _all_partitions(maxweight, max_length=None):
    for d in range(maxweight + 1):
        yield from partitions_of(d, max_length=max_length)


def suite_orthogonality(maxweight=5, **_):
    """<P_lam, P_mu> = delta_lam,mu / b_lam, paired on the held integral forms
    over Z[q,t] and reduced once."""
    checks = []
    plist = list(_all_partitions(maxweight))
    for lam in plist:
        for mu in plist:
            def chk(lam=lam, mu=mu):
                den, num = inner_cleared(macdonald_pair(lam).cleared_p(),
                                         macdonald_pair(mu).cleared_p())
                got = FIELD.new(num, den)
                want = macdonald_pair(lam).norm if lam == mu else 0
                return _compared("orthogonality-norm", {"lambda": lam, "mu": mu},
                                 got, want)
            checks.append(chk)
    return _timed(checks)


def suite_eigen(maxweight=3, **_):
    """D_r P_lam = e_r P_lam for 1 <= r <= n = |lam|, and [D_r, D_s] m_mu = 0.

    The r = n records check only the degree: e_n is t^(n(n-1)/2) q^d for
    every lam of weight d (see macdonald.dr_eigencheck).
    """
    checks = []
    for lam in _all_partitions(maxweight):
        n = max(weight(lam), 1)
        for r in range(1, n + 1):
            def chk(lam=lam, r=r, n=n):
                return _record("eigen-equation", {"lambda": lam, "r": r, "n": n},
                               macdonald.dr_eigencheck(lam, r, n))
            checks.append(chk)
    maxn = min(3, maxweight + 1)
    for n in range(2, maxn + 1):
        for d in range(0, min(3, maxweight) + 1):
            for mu in partitions_of(d, max_length=n):
                for r, s in combinations(range(1, n + 1), 2):
                    def chk(mu=mu, r=r, s=s, n=n):
                        f = evaluate_n(sym_gen("m", mu), n)
                        return _record("commutator",
                                       {"mu": mu, "r": r, "s": s, "n": n},
                                       macdonald.dr_commute_check(r, s, f, n))
                    checks.append(chk)
    return _timed(checks)


def suite_duality(maxweight=5, **_):
    checks = []
    for lam in _all_partitions(maxweight):
        def chk(lam=lam):
            lhs = omega_qt(macdonald_pair(lam).P_p)
            rhs = macdonald_pair(conjugate(lam)).Qf.map_coeffs(swap_qt)
            return _compared("omega-duality", {"lambda": lam}, lhs, rhs)
        checks.append(chk)
    return _timed(checks)


def _cauchy_products(d, dual):
    """{(lam, mu): coefficient of x^lam y^mu} in sum_nu P_nu(x) Q_nu(y), |nu| = d,
    or in the dual sum_nu P_nu(x) P_nu'(y; t, q), both read from P in the m basis."""
    out = {}
    for nu in partitions_of(d):
        pair = macdonald_pair(nu)
        right = (macdonald_pair(conjugate(nu)).P.map_coeffs(swap_qt) if dual
                 else pair.P.scale(pair.b))
        for lam, c in pair.P.terms.items():
            add_into(out, {(lam, mu): r for mu, r in right.terms.items()}, c)
    return out


def suite_cauchy(maxweight=4, **_):
    """Both Cauchy identities at partition keys: each side is symmetric in x and in y."""
    checks = []
    for d in range(maxweight + 1):
        for identity, factor, dual in (("cauchy-kernel", qbinom_coeff, False),
                                       ("dual-cauchy-kernel", dual_factor, True)):
            def chk(d=d, identity=identity, factor=factor, dual=dual):
                plist = list(partitions_of(d))
                kernel = {(lam, mu): c for lam in plist for mu in plist
                          if (c := kernel_coeff(lam, mu, factor))}
                return _compared(identity, {"degree": d}, kernel, _cauchy_products(d, dual))
            checks.append(chk)
    return _timed(checks)


def suite_specializations(maxweight=4, **_):
    checks = []
    for lam in _all_partitions(maxweight):
        for case in macdonald.SPECIALIZE_CASES:
            if case == "hall-littlewood" and weight(lam) > MAX_HL_WEIGHT:
                continue
            def chk(lam=lam, case=case):
                return _record(f"specialization-{case}", {"lambda": lam},
                               macdonald.specialize_check(lam, case))
            checks.append(chk)
    return _timed(checks)


def suite_ct_conjecture(maxweight=3, order=6, **_):
    checks = []
    for n in range(1, 4):
        for lam in _all_partitions(maxweight, max_length=n):
            def chk(lam=lam, n=n):
                return _compared("constant-term-norm", {"lambda": lam, "n": n},
                                 *ctengine.ct_norm_sides(lam, n, order), order)
            checks.append(chk)
    return _timed(checks)


def suite_self_adjoint(maxweight=3, order=4, **_):
    checks = []
    for n in (2, 3):
        fams = list(_all_partitions(maxweight, max_length=n))
        for mu in fams:
            for nu in fams:
                def chk(mu=mu, nu=nu, n=n):
                    return _compared("self-adjointness", {"f": mu, "g": nu, "n": n},
                                     *ctengine.self_adjoint_sides(
                                         sym_gen("m", mu), sym_gen("m", nu), n, order),
                                     order)
                checks.append(chk)
    return _timed(checks)


def suite_integral_reps(maxweight=4, order=6, **_):
    checks = []
    for lam in _all_partitions(min(maxweight, MAX_INTEGRAL_WEIGHT)):
        for identity, dual in (("integral-rep", False), ("integral-rep-dual", True)):
            def chk(lam=lam, identity=identity, dual=dual):
                return _compared(identity, {"lambda": lam},
                                 *ctengine.integral_rep_sides(lam, order, dual), order)
            checks.append(chk)
    return _timed(checks)


def suite_skew_routes(maxweight=4, **_):
    checks = []
    for lam in _all_partitions(maxweight):
        for dm in range(weight(lam) + 1):
            for mu in partitions_of(dm):
                def chk(lam=lam, mu=mu):
                    a = macdonald.skew_q(lam, mu)
                    b = fock.skew_via_fock(lam, mu)
                    c = fock.skew_via_diffop(lam, mu)
                    return _compared("skew-three-routes", {"lambda": lam, "mu": mu},
                                     b if b != a else c, a)
                checks.append(chk)
    return _timed(checks)


def suite_skew_integral(order=5, **_):
    cases = [((2,), (1,)), ((1, 1), (1,)), ((2, 1), (1,))]
    checks = []
    for lam, mu in cases:
        def chk(lam=lam, mu=mu):
            return _compared("skew-integral", {"lambda": lam, "mu": mu},
                             *ctengine.skew_integral_sides(lam, mu, order), order)
        checks.append(chk)
    return _timed(checks)


def suite_schur_ct(maxweight=4, **_):
    checks = []
    for lam in _all_partitions(maxweight):
        def chk(lam=lam):
            return _compared("schur-ct", {"lambda": lam},
                             convert(ctengine.schur_ct(lam), "m"),
                             convert(sym_gen("s", lam), "m"))
        checks.append(chk)
        def chk2(lam=lam):
            return _compared("schur-ct-dual", {"lambda": lam},
                             convert(ctengine.schur_ct_dual(lam), "m"),
                             convert(sym_gen("s", conjugate(lam)), "m"))
        checks.append(chk2)
    return _timed(checks)


def suite_kostka(maxweight=3, order=5, **_):
    checks = []
    for d in range(1, min(maxweight, MAX_KOSTKA_DEGREE) + 1):
        def chk(d=d):
            try:
                kostka.kostka_matrix(d)  # N[q,t] entries and reconstruction asserted inside
                ok = True
            except InternalInconsistency:
                ok = False
            return _record("kostka-reconstruction", {"degree": d}, ok)
        checks.append(chk)
    for lam in partitions_of(2):
        for mu in partitions_of(2):
            def chk2(lam=lam, mu=mu):
                return _compared("kostka-integral", {"lambda": lam, "mu": mu},
                                 *kostka.kostka_integral_sides(lam, mu, order), order)
            checks.append(chk2)
    return _timed(checks)


def suite_vertex_identities(maxweight=3, **_):
    checks = []
    for beta in range(1, 4):
        for n in range(2, 4):
            def chk(beta=beta, n=n):
                return _record("kernel-product-collapse",
                               {"beta": beta, "n": n, "degree": maxweight},
                               fock.vertex_product_check(beta, n, maxweight))
            checks.append(chk)
    for n in range(1, 6):
        def chk2(n=n):
            return _record("symmetrizer-sum", {"n": n},
                           fock.symmetrizer_check(n))
        checks.append(chk2)
    return _timed(checks)


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
        out = []
        for key in SUITES:
            out.extend(SUITES[key](**params))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](**params)
