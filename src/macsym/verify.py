"""Named verification suites with machine-readable reports.

Each check yields a record {identity, parameters, order, status,
max_order_checked, wall_time}; `order`/`max_order_checked` are null for exact
(non-truncated) checks.  Reports are deterministic apart from the timing
field: cases are generated in reverse-lex partition order.
"""

import time
from itertools import combinations

from . import ctengine, fock, kostka, macdonald
from .coeff import add_into, swap_qt
from .macdonald import macdonald_pair
from .pairing import cauchy_pi, cauchy_pi_tilde, inner_qt, omega_qt
from .partitions import conjugate, partitions_of, weight
from .symfunc import evaluate_n, sym_gen

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
    checks = []
    plist = list(_all_partitions(maxweight))
    for lam in plist:
        for mu in plist:
            def chk(lam=lam, mu=mu):
                got = inner_qt(macdonald_pair(lam).P_p, macdonald_pair(mu).P_p)
                want = macdonald_pair(lam).norm if lam == mu else 0
                return _record("orthogonality-norm", {"lambda": lam, "mu": mu},
                               got == want)
            checks.append(chk)
    return _timed(checks)


def suite_eigen(maxweight=3, **_):
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
            return _record("omega-duality", {"lambda": lam}, lhs == rhs)
        checks.append(chk)
    return _timed(checks)


def _bigraded_sum(d, dual=False):
    out = {}
    for lam in partitions_of(d):
        if dual:
            left = evaluate_n(macdonald_pair(lam).P_p, d)
            right = evaluate_n(
                macdonald_pair(conjugate(lam)).P_p.map_coeffs(swap_qt), d)
        else:
            left = evaluate_n(macdonald_pair(lam).P_p, d)
            right = evaluate_n(macdonald_pair(lam).Qf, d)
        for ea, ca in left.terms.items():
            add_into(out, {(ea, eb): cb for eb, cb in right.terms.items()}, ca)
    return out


def suite_cauchy(maxdegree=4, **_):
    checks = []
    for d in range(maxdegree + 1):
        def chk(d=d):
            kernel = {k: v for k, v in cauchy_pi(d, d, d).items()
                      if sum(k[0]) == d}
            return _record("cauchy-kernel", {"degree": d},
                           kernel == _bigraded_sum(d))
        checks.append(chk)
        def chk2(d=d):
            kernel = {k: v for k, v in cauchy_pi_tilde(d, d, d).items()
                      if sum(k[0]) == d}
            return _record("dual-cauchy-kernel", {"degree": d},
                           kernel == _bigraded_sum(d, dual=True))
        checks.append(chk2)
    return _timed(checks)


def suite_specializations(maxweight=4, **_):
    checks = []
    for lam in _all_partitions(maxweight):
        for case in macdonald.SPECIALIZE_CASES:
            def chk(lam=lam, case=case):
                return _record(f"specialization-{case}", {"lambda": lam},
                               macdonald.specialize_check(lam, case))
            checks.append(chk)
    return _timed(checks)


def suite_ct_conjecture(maxweight=3, maxn=3, order=6, **_):
    checks = []
    for n in range(1, maxn + 1):
        for lam in _all_partitions(maxweight, max_length=n):
            def chk(lam=lam, n=n):
                return _record("constant-term-norm", {"lambda": lam, "n": n},
                               ctengine.ct_norm_check(lam, n, order), order)
            checks.append(chk)
    return _timed(checks)


def suite_self_adjoint(maxdegree=3, order=4, **_):
    checks = []
    for n in (2, 3):
        fams = list(_all_partitions(maxdegree, max_length=n))
        for mu in fams:
            for nu in fams:
                def chk(mu=mu, nu=nu, n=n):
                    ok = ctengine.self_adjoint_check(
                        sym_gen("m", mu), sym_gen("m", nu), n, order)
                    return _record("self-adjointness",
                                   {"f": mu, "g": nu, "n": n}, ok, order)
                checks.append(chk)
    return _timed(checks)


def suite_integral_reps(maxweight=4, order=6, **_):
    checks = []
    for lam in _all_partitions(maxweight):
        def chk(lam=lam):
            return _record("integral-rep", {"lambda": lam},
                           ctengine.integral_rep_check(lam, order), order)
        checks.append(chk)
        def chk2(lam=lam):
            return _record("integral-rep-dual", {"lambda": lam},
                           ctengine.integral_rep_dual_check(lam, order), order)
        checks.append(chk2)
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
                    return _record("skew-three-routes",
                                   {"lambda": lam, "mu": mu}, a == b == c)
                checks.append(chk)
    return _timed(checks)


def suite_skew_integral(order=5, **_):
    cases = [((2,), (1,)), ((1, 1), (1,)), ((2, 1), (1,))]
    checks = []
    for lam, mu in cases:
        def chk(lam=lam, mu=mu):
            return _record("skew-integral", {"lambda": lam, "mu": mu},
                           ctengine.skew_integral_check(lam, mu, order), order)
        checks.append(chk)
    return _timed(checks)


def suite_schur_ct(maxweight=4, **_):
    from .symfunc import convert
    checks = []
    for lam in _all_partitions(maxweight):
        def chk(lam=lam):
            got = convert(ctengine.schur_ct(lam), "m")
            return _record("schur-ct", {"lambda": lam},
                           got == convert(sym_gen("s", lam), "m"))
        checks.append(chk)
        def chk2(lam=lam):
            got = convert(ctengine.schur_ct_dual(lam), "m")
            return _record("schur-ct-dual", {"lambda": lam},
                           got == convert(sym_gen("s", conjugate(lam)), "m"))
        checks.append(chk2)
    return _timed(checks)


def suite_kostka(maxdegree=3, order=5, integral_degree=2, **_):
    checks = []
    from .errors import InternalInconsistency
    for d in range(1, maxdegree + 1):
        def chk(d=d):
            try:
                kostka.kostka_matrix(d)  # reconstruction asserted inside
                ok = True
            except InternalInconsistency:
                ok = False
            return _record("kostka-reconstruction", {"degree": d}, ok)
        checks.append(chk)
    for lam in partitions_of(integral_degree):
        for mu in partitions_of(integral_degree):
            def chk2(lam=lam, mu=mu):
                return _record("kostka-integral", {"lambda": lam, "mu": mu},
                               kostka.kostka_integral_check(lam, mu, order),
                               order)
            checks.append(chk2)
    return _timed(checks)


def suite_vertex_identities(maxbeta=3, maxn=3, maxdegree=3, sym_n=5, **_):
    checks = []
    for beta in range(1, maxbeta + 1):
        for n in range(2, maxn + 1):
            def chk(beta=beta, n=n):
                return _record("kernel-product-collapse",
                               {"beta": beta, "n": n, "degree": maxdegree},
                               fock.vertex_product_check(beta, n, maxdegree))
            checks.append(chk)
    for n in range(1, sym_n + 1):
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
