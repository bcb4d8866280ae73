import random

from macsym.coeff import Q, T, parse_ratqt, ratqt, swap_qt
from macsym.kostka import _inv_qpoch
from macsym.pairing import (cauchy_pi, cauchy_pi_tilde, dual_factor, inner_pvec, inner_qt,
                            kernel_coeff, kernel_product, omega_qt,
                            qbinom_coeff, z_factor, z_plain)
from macsym.partitions import compositions, partitions_of
from macsym.symfunc import SymFunc, convert, multiply, sym_gen

from hypothesis import given

from oracles import inner_pvec_termwise, kernel_matrices, p_product_termwise
from strategies import pvec_maps


def test_z_factor_examples():
    assert z_factor((1,)) == parse_ratqt("(1-q)/(1-t)")
    assert z_factor(()) == 1
    assert z_factor((1, 1)) == 2 * ((1 - Q) / (1 - T)) ** 2


def test_z_factor_specializes_to_classical():
    for d in range(6):
        for lam in partitions_of(d):
            assert swap_qt(z_factor(lam)) * z_factor(lam) / z_factor(lam) is not None
            # z at t = q is the plain permutation count
            from macsym.coeff import substitute
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
                want = kernel_matrices(nx, ny, d, _inv_qpoch)
                for total in range(d + 1):
                    for rows in compositions(total, nx):
                        for cols in compositions(total, ny):
                            got = kernel_coeff(rows, cols, _inv_qpoch)
                            assert got == want.get((rows, cols), 0), (rows, cols)


def test_kernel_coeff_vanishes_off_the_margins():
    assert kernel_coeff((2, -1), (1, 0), qbinom_coeff) == 0
    assert kernel_coeff((1,), (2, -1), dual_factor) == 0
    assert kernel_coeff((2, 1), (2,), qbinom_coeff) == 0
    assert kernel_coeff((1, 1), (1, 1, 1), dual_factor) == 0


def test_qbinom_telescopes_at_beta_one():
    from macsym.coeff import substitute
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
