import random

from macsym import pairing, verify
from macsym.coeff import FIELD, Q, RING, T, parse_ratqt, ratqt, sums_of_products_equal, swap_qt
from macsym.pairing import (cauchy_pi, cauchy_pi_tilde, dual_factor, inner_pvec, inner_qt,
                            inv_qpoch, kernel_coeff, kernel_numerator, kernel_product, omega_qt,
                            qbinom_coeff, qpoch, z_factor, z_plain)
from macsym.partitions import compositions, partitions_of
from macsym.symfunc import SymFunc, convert, multiply, sym_gen

from hypothesis import given

from oracles import (inner_pvec_termwise, kernel_at_margins, kernel_matrices, p_product_termwise,
                     substitute)
from strategies import pvec_maps


def test_z_factor_examples():
    assert z_factor((1,)) == parse_ratqt("(1-q)/(1-t)")
    assert z_factor(()) == 1
    assert z_factor((1, 1)) == 2 * ((1 - Q) / (1 - T)) ** 2


def test_z_factor_is_the_reduced_stepwise_product():
    # one reduction gives the canonical pair that one field operation per part gives
    for d in range(7):
        for lam in partitions_of(d):
            want = ratqt(z_plain(lam))
            for r in lam:
                want = want * (1 - Q ** r) / (1 - T ** r)
            got = z_factor(lam)
            assert (got.numer, got.denom) == (want.numer, want.denom), lam


def test_z_factor_specializes_to_classical():
    for d in range(6):
        for lam in partitions_of(d):
            assert swap_qt(z_factor(lam)) * z_factor(lam) / z_factor(lam) is not None
            # z at t = q is the plain permutation count
            assert substitute(z_factor(lam), Q, Q) == z_plain(lam)


def test_inner_examples():
    p1 = sym_gen("p", (1,))
    assert inner_qt(p1, p1) == parse_ratqt("(1-q)/(1-t)")
    assert inner_qt(sym_gen("p", (2,)), sym_gen("p", (1, 1))) == 0
    # m11 = (p11 - p2)/2, so the pairing is (z11 + z2)/4
    m11 = sym_gen("m", (1, 1))
    want = (z_factor((1, 1)) + z_factor((2,))) / 4
    assert inner_qt(m11, m11) == want


def test_omega_examples():
    p1 = sym_gen("p", (1,))
    assert omega_qt(p1) == p1.scale((1 - Q) / (1 - T))
    p2 = sym_gen("p", (2,))
    assert omega_qt(p2) == p2.scale(-(1 - Q ** 2) / (1 - T ** 2))
    # omega_{t,q} inverts omega_{q,t}
    f = sym_gen("p", (3, 1))
    assert omega_qt(omega_qt(f).map_coeffs(swap_qt)).map_coeffs(swap_qt) == f


def test_omega_is_algebra_homomorphism():
    rng = random.Random(5)
    for _ in range(5):
        f = SymFunc("p", {lam: ratqt(rng.randint(-3, 3))
                          for lam in partitions_of(rng.randint(1, 3))})
        g = SymFunc("p", {lam: ratqt(rng.randint(-3, 3))
                          for lam in partitions_of(rng.randint(1, 3))})
        assert omega_qt(multiply(f, g)) == multiply(omega_qt(f), omega_qt(g))


def test_cauchy_pi_examples():
    kernel = cauchy_pi(1, 1, 2)
    assert kernel[((1,), (1,))] == parse_ratqt("(1-t)/(1-q)")
    assert kernel[((0,), (0,))] == 1
    kernel = cauchy_pi(1, 2, 2)
    assert kernel[((2,), (1, 1))] == parse_ratqt("(1-t)/(1-q)") ** 2


def test_cauchy_pi_tilde_examples():
    kernel = cauchy_pi_tilde(1, 1, 2)
    assert kernel[((1,), (1,))] == 1
    assert ((2,), (2,)) not in kernel  # each factor is at most linear
    kernel = cauchy_pi_tilde(2, 2, 4)
    assert kernel[((1, 1), (1, 1))] == 2


def test_kernel_coefficients_against_matrix_enumeration():
    for nx in range(4):
        for ny in range(4):
            for d in range(4):
                assert cauchy_pi(nx, ny, d) == kernel_matrices(nx, ny, d, qbinom_coeff)
                assert cauchy_pi_tilde(nx, ny, d) == kernel_matrices(nx, ny, d, dual_factor)
                want = kernel_matrices(nx, ny, d, inv_qpoch)
                for total in range(d + 1):
                    for rows in compositions(total, nx):
                        for cols in compositions(total, ny):
                            got = kernel_coeff(rows, cols, inv_qpoch)
                            assert got == want.get((rows, cols), 0), (rows, cols)
    # every margin pair up to degree 5: the numerator over (q;q)_d, at t = 0, and the dual
    for d in range(6):
        for rows in partitions_of(d):
            for cols in partitions_of(d):
                num = kernel_numerator(rows, cols)
                at_t0 = RING({(a, b): c for (a, b), c in num.items() if not b})
                assert FIELD.new(num, qpoch(d)) == kernel_at_margins(rows, cols, qbinom_coeff)
                assert FIELD.new(at_t0, qpoch(d)) == kernel_at_margins(rows, cols, inv_qpoch)
                assert (FIELD(kernel_numerator(rows, cols, True))
                        == kernel_at_margins(rows, cols, dual_factor)), (rows, cols)


def test_kernel_coeff_vanishes_off_the_margins():
    assert kernel_coeff((2, -1), (1, 0), qbinom_coeff) == 0
    assert kernel_coeff((1,), (2, -1), dual_factor) == 0
    assert kernel_coeff((2, 1), (2,), qbinom_coeff) == 0
    assert kernel_coeff((1, 1), (1, 1, 1), dual_factor) == 0


def test_cauchy_fails_at_every_degree_a_wrong_q_multinomial_reaches(monkeypatch,
                                                                    cold_kernel_memos):
    # [2; 1, 1]_q = 1 + q off by one power of q: every margin pair peeled down to
    # the rows (1, 1) reads it, and (1^d) is one for each d >= 2
    row_weight = pairing._row_weight
    monkeypatch.setattr(pairing, "_row_weight", lambda free, first: row_weight(free, first)
                        * (Q.numer if (free, first) == (1, (1,)) else 1))
    records = verify.suite_cauchy(maxweight=4)
    failed = [(r["identity"], r["parameters"]["degree"]) for r in records
              if r["status"] == "fail"]
    assert failed == [("cauchy-kernel", d) for d in (2, 3, 4)]
    assert all("key" in r["detail"] for r in records if r["status"] == "fail")


def test_cauchy_table_with_a_perturbed_entry_fails_the_table_equations(monkeypatch):
    # J is intact and the inverse of A off at one entry, rho = (2, 1) in the column
    # nu = (1, 1, 1): that column's table equations fail for each nu2 whose J has an
    # m_(2,1) coefficient
    invert = verify.invert

    def perturbed(rows, plist):
        out = invert(rows, plist)
        if (1, 1, 1) in plist:
            row = out[(2, 1)] = dict(out[(2, 1)])
            row[(1, 1, 1)] = row[(1, 1, 1)] + Q
        return out

    monkeypatch.setattr(verify, "invert", perturbed)
    equations = verify.cauchy_equations(3)
    failed = {key for key, holds in zip(equations,
                                         sums_of_products_equal(list(equations.values())))
              if not holds}
    assert {key for key in failed if key[0] == "table"} == {
        ("table", (3,), (1, 1, 1)), ("table", (2, 1), (1, 1, 1))}
    records = verify.suite_cauchy(maxweight=3)
    assert [(r["identity"], r["parameters"]["degree"]) for r in records
            if r["status"] == "fail"] == [("cauchy-kernel", 3), ("dual-cauchy-kernel", 3)]
    # both sides of the identity agree, so a failing record has no first difference
    assert all("detail" not in r for r in records)


def test_qbinom_telescopes_at_beta_one():
    for m in range(5):
        assert substitute(qbinom_coeff(m), Q, Q) == 1


def test_kernel_strata_match_classical_bases():
    for r in range(5):
        kappa = (r,) if r else ()
        assert kernel_product(kappa, "h") == convert(sym_gen("h", kappa), "p")
        assert kernel_product(kappa, "e") == convert(sym_gen("e", kappa), "p")


def test_kernel_product_is_the_product_of_its_strata():
    # kernel_product is the image of h_kappa; plethysm is a ring homomorphism
    for kind in ("g", "e"):
        for d in range(5):
            for kappa in partitions_of(d):
                want = SymFunc("p", {(): ratqt(1)})
                for r in kappa:
                    want = multiply(want, kernel_product((r,), kind))
                assert kernel_product(kappa, kind) == want, (kind, kappa)


def test_g_kernel_weighted_sum():
    # degree-2 stratum of the Cauchy kernel: p2 (1-t^2)/(2(1-q^2)) + p11 (1-t)^2/(2(1-q)^2)
    g2 = kernel_product((2,), "g")
    assert g2.terms[(2,)] == (1 - T ** 2) / (2 * (1 - Q ** 2))
    assert g2.terms[(1, 1)] == ((1 - T) / (1 - Q)) ** 2 / 2


@given(pvec_maps, pvec_maps)
def test_inner_pvec_matches_the_termwise_sum(a, b):
    got = inner_pvec(a, b)
    want = inner_pvec_termwise(a, b)
    assert got == want
    assert (got.numer, got.denom) == (want.numer, want.denom)


@given(pvec_maps, pvec_maps)
def test_p_product_matches_the_termwise_product(a, b):
    f, g = SymFunc("p", a), SymFunc("p", b)
    got = multiply(f, g)
    assert got == p_product_termwise(f.map_coeffs(ratqt), g.map_coeffs(ratqt))
