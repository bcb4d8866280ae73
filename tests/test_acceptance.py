"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Exact means equality in Q(q,t); order-M means equality of truncated series at
total (q,t)-degree <= M.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time
from fractions import Fraction
from itertools import combinations

from macsym.coeff import QPochProduct, ratqt, swap_qt
from macsym.ctengine import (ct_norm_check, expected_p_series,
                             integral_rep_check, integral_rep_dual_check,
                             map_G, map_N, norm_prime_product,
                             schur_ct, schur_ct_dual, self_adjoint_operand,
                             self_adjoint_sides, skew_integral_check)
from macsym.fock import (skew_via_diffop, skew_via_fock, symmetrizer_check,
                         vertex_product_check)
from macsym.kostka import kostka_entry, kostka_integral_check, kostka_matrix
from macsym.macdonald import (SPECIALIZE_CASES, b_coeff, dr_commute_check,
                              dr_eigencheck, macdonald_pair, skew_q,
                              specialize_check)
from macsym.pairing import (Q, T, cauchy_pi, cauchy_pi_tilde, inner_qt,
                            omega_qt)
from macsym.partitions import add_parts, conjugate, partitions_of, weight
from macsym.symfunc import convert, evaluate_n, sym_gen


def _report(num, name, start):
    print(f"criterion {num:2d} ({name}): PASS  [{time.perf_counter() - start:.1f}s]")


def _partitions_up_to(maxweight, max_length=None):
    for d in range(maxweight + 1):
        yield from partitions_of(d, max_length=max_length)


def test_criterion_01_orthogonality_norms():
    start = time.perf_counter()
    plist = list(_partitions_up_to(5))
    for lam in plist:
        for mu in plist:
            got = inner_qt(macdonald_pair(lam).P_p, macdonald_pair(mu).P_p)
            want = 1 / b_coeff(lam) if lam == mu else 0
            assert got == want, (lam, mu)
    _report(1, "orthogonality + norms, weight <= 5, exact", start)


def test_criterion_02_eigen_equations():
    start = time.perf_counter()
    for d in range(1, 5):
        for lam in partitions_of(d):
            n = d
            for r in range(1, n + 1):
                assert dr_eigencheck(lam, r, n), (lam, r, n)
    for n in range(2, 5):
        for d in range(0, 5):
            for mu in partitions_of(d, max_length=n):
                f = evaluate_n(sym_gen("m", mu), n)
                for r, s in combinations(range(1, n + 1), 2):
                    assert dr_commute_check(r, s, f, n), (mu, r, s, n)
    _report(2, "eigen-equations + commutators, exact", start)


def test_criterion_03_duality():
    start = time.perf_counter()
    for lam in _partitions_up_to(5):
        lhs = omega_qt(macdonald_pair(lam).P_p)
        rhs = macdonald_pair(conjugate(lam)).Qf.map_coeffs(swap_qt)
        assert lhs == rhs, lam
    _report(3, "omega duality, weight <= 5, exact", start)


def _bigraded_product_sum(d, dual):
    out = {}
    for lam in partitions_of(d):
        left = evaluate_n(macdonald_pair(lam).P_p, d)
        if dual:
            right = evaluate_n(
                macdonald_pair(conjugate(lam)).P_p.map_coeffs(swap_qt), d)
        else:
            right = evaluate_n(macdonald_pair(lam).Qf, d)
        for ea, ca in left.terms.items():
            for eb, cb in right.terms.items():
                key = (ea, eb)
                v = out.get(key, ratqt(0)) + ca * cb
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
    return out


def test_criterion_04_cauchy_kernels():
    start = time.perf_counter()
    for d in range(5):
        kernel = {k: v for k, v in cauchy_pi(d, d, d).items() if sum(k[0]) == d}
        assert kernel == _bigraded_product_sum(d, dual=False), d
        kernel = {k: v for k, v in cauchy_pi_tilde(d, d, d).items() if sum(k[0]) == d}
        assert kernel == _bigraded_product_sum(d, dual=True), d
    _report(4, "Cauchy kernels, degree <= 4, exact", start)


def test_criterion_05_specializations():
    start = time.perf_counter()
    for lam in _partitions_up_to(4):
        for case in SPECIALIZE_CASES:
            assert specialize_check(lam, case), (lam, case)
    print("criterion  5 note: Jack limit q -> 1 is out of scope "
          "(requires symbolic limits)")
    _report(5, "specializations (i),(ii),(iv),(v),(vi), weight <= 4, exact", start)


def test_criterion_06_constant_term_norms():
    start = time.perf_counter()
    M = 6
    for n in (1, 2, 3):
        for lam in _partitions_up_to(3, max_length=n):
            assert ct_norm_check(lam, n, M), (lam, n)
    _report(6, "constant-term norm identity, order 6", start)


def test_criterion_07_self_adjointness():
    start = time.perf_counter()
    M = 4
    for n in (2, 3):
        operands = {mu: self_adjoint_operand(sym_gen("m", mu), n, M)
                    for mu in _partitions_up_to(3, max_length=n)}
        for mu, f in operands.items():
            for nu, g in operands.items():
                lhs, rhs = self_adjoint_sides(f, g, n, M)
                assert lhs == rhs, (mu, nu, n)
    _report(7, "self-adjointness, degree <= 3, n = 2,3, order 4", start)


def test_criterion_08_integral_representations():
    start = time.perf_counter()
    M = 6
    for lam in _partitions_up_to(4):
        assert integral_rep_check(lam, M), ("primal", lam)
        assert integral_rep_dual_check(lam, M), ("dual", lam)
    # gauge map adds a rectangle on top of the stack
    for r, s, lam in [(1, 2, (1,)), (2, 1, (1,)), (2, 2, (1, 1)), (3, 1, (1,))]:
        target = add_parts((s,) * r, lam)
        lhs = evaluate_n(macdonald_pair(target).P, r)
        rhs = map_G(s, evaluate_n(macdonald_pair(lam).P, r))
        assert lhs == rhs, (r, s, lam)
    # transform of P_lam returns P_lam after the closed-form normalization
    from math import factorial
    for lam, m in [((1,), 1), ((2,), 2), ((1, 1), 2)]:
        f = evaluate_n(macdonald_pair(lam).P, m)
        out = map_N(None, m, f, M)
        scale = (QPochProduct(Fraction(1, factorial(m)))
                 * (1 / b_coeff(lam)) / norm_prime_product(lam, m))
        sc = scale.to_series(M)
        got = {nu: c * sc for nu, c in out.terms.items()}
        got = {nu: c for nu, c in got.items() if c}
        assert got == expected_p_series(lam, M), (lam, m)
    _report(8, "integral representations, weight <= 4, order 6", start)


def test_criterion_09_skew_routes_and_integral():
    start = time.perf_counter()
    for lam in _partitions_up_to(4):
        for dm in range(weight(lam) + 1):
            for mu in partitions_of(dm):
                a = skew_q(lam, mu)
                b = skew_via_fock(lam, mu)
                c = skew_via_diffop(lam, mu)
                assert a == b == c, (lam, mu)
    for lam, mu in [((2,), (1,)), ((1, 1), (1,)), ((2, 1), (1,))]:
        assert skew_integral_check(lam, mu, 5), (lam, mu)
    _report(9, "skew three-route equality (exact) + integral (order 5)", start)


def test_criterion_10_schur_constant_terms():
    start = time.perf_counter()
    for lam in _partitions_up_to(4):
        got = convert(schur_ct(lam), "m")
        assert got == convert(sym_gen("s", lam), "m"), lam
        got = convert(schur_ct_dual(lam), "m")
        assert got == convert(sym_gen("s", conjugate(lam)), "m"), lam
    _report(10, "Schur constant-term formulas, weight <= 4, exact", start)


def test_criterion_11_kostka():
    start = time.perf_counter()
    for d in range(1, 5):
        kostka_matrix(d)  # reconstruction M_mu = sum K S(t) asserted inside
    assert kostka_entry((2,), (2,)) == 1
    assert kostka_entry((2,), (1, 1)) == T
    assert kostka_entry((1, 1), (2,)) == Q
    assert kostka_entry((1, 1), (1, 1)) == 1
    for lam in partitions_of(2):
        for mu in partitions_of(2):
            assert kostka_integral_check(lam, mu, 5), (lam, mu)
    _report(11, "Kostka tables d <= 4 (exact) + integral route (order 5)", start)


def test_criterion_12_vertex_reductions():
    start = time.perf_counter()
    for beta in (1, 2, 3):
        for n in (2, 3):
            assert vertex_product_check(beta, n, 3), (beta, n)
    print("criterion 12 note: kernel-collapse comparisons are exact in q "
          "(stronger than any finite q-order)")
    for n in range(1, 6):
        assert symmetrizer_check(n), n
    _report(12, "kernel collapse at t = q^beta + symmetrizer sum, exact", start)
