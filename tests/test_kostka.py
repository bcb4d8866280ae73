import json
from math import factorial, prod

import pytest

import macsym
from macsym import cli, kostka, pairing
from macsym.coeff import Q, T, parse_ratqt, ratqt
from macsym.errors import InternalInconsistency
from macsym.kostka import (KostkaTable, dual_schur_qt, dual_schur_t,
                           h_factors, kostka_entry, kostka_integral_check,
                           kostka_matrix, m_function)
from macsym.macdonald import b_coeff, macdonald_pair
from macsym.pairing import inner_qt
from macsym.partitions import arm_leg, cells, conjugate, partitions_of
from macsym.symfunc import convert, sym_gen

from oracles import dual_schur_by_gram, inner_qt_termwise, substitute


def test_h_factor_examples():
    assert h_factors((1,)) == (1 - T, 1 - Q)
    assert h_factors(()) == (ratqt(1), ratqt(1))
    assert h_factors((2,)) == (parse_ratqt("(1-q*t)(1-t)"),
                               parse_ratqt("(1-q^2)(1-q)"))


def test_b_is_hook_ratio():
    for d in range(7):
        for lam in partitions_of(d):
            h, hp = h_factors(lam)
            assert b_coeff(lam) == h / hp


def test_hook_conjugation_symmetry():
    # the second hook product is the first one of the conjugate with q,t swapped
    from macsym.coeff import swap_qt
    for d in range(6):
        for lam in partitions_of(d):
            h_conj, _ = h_factors(conjugate(lam))
            _, hp = h_factors(lam)
            assert hp == swap_qt(h_conj)


def test_m_function_examples():
    assert m_function((1,)) == sym_gen("p", (1,), coeff=1 - T)
    assert m_function(()) == sym_gen("p", ())
    want = macdonald_pair((2,)).P_p.scale(parse_ratqt("(1-t)(1-q*t)"))
    assert m_function((2,)) == want


def test_dual_schur_t_examples():
    st = dual_schur_t(1)
    assert st[(1,)] == sym_gen("s", (1,), coeff=1 - T)
    # 2x2 Gram inversion oracle: s2 = (p2+p11)/2, s11 = (p11-p2)/2
    z2 = substitute((1 - Q ** 2) / (1 - T ** 2) * 2, 0, T)
    z11 = substitute(2 * ((1 - Q) / (1 - T)) ** 2, 0, T)
    g_22 = (z11 + z2) / 4
    g_2_11 = (z11 - z2) / 4
    det = g_22 * g_22 - g_2_11 * g_2_11  # the Gram matrix is symmetric Toeplitz here
    got = dual_schur_t(2)[(2,)]
    assert got.terms[(2,)] == g_22 / det
    assert got.terms[(1, 1)] == -g_2_11 / det


def test_dual_schur_t_orthonormal():
    for d in (1, 2, 3):
        st = dual_schur_t(d)
        for a in partitions_of(d):
            for b in partitions_of(d):
                got = inner_qt_termwise(st[a], sym_gen("s", b), (0, T))
                assert got == (1 if a == b else 0)


def test_dual_schur_qt_examples():
    sqt = dual_schur_qt(1)
    assert sqt[(1,)].terms[(1,)] == 1 / (1 - Q)
    for d in (1, 2, 3):
        st, sqt = dual_schur_t(d), dual_schur_qt(d)
        for a in partitions_of(d):
            for b in partitions_of(d):
                assert inner_qt(sqt[a], st[b]) == (1 if a == b else 0)


def test_dual_schur_qt_degenerates_at_q_zero():
    for d in (1, 2):
        st, sqt = dual_schur_t(d), dual_schur_qt(d)
        for a in partitions_of(d):
            dropped = sqt[a].map_coeffs(lambda c: substitute(c, 0, T))
            for b in partitions_of(d):
                got = inner_qt_termwise(dropped, st[b], (0, T))
                assert got == (1 if a == b else 0)


def test_kostka_small_tables():
    assert kostka_matrix(1).entries == {((1,), (1,)): ratqt(1)}
    assert kostka_entry((2,), (1, 1)) == T
    assert kostka_entry((1, 1), (2,)) == Q
    assert kostka_entry((2,), (2,)) == 1
    assert kostka_entry((1, 1), (1, 1)) == 1


def test_kostka_oracle_by_linear_solve():
    # independent route: solve M_mu = sum_lam K S_lam(t) in the p basis
    d = 2
    st = dual_schur_t(d)
    plist = list(partitions_of(d))
    for mu in plist:
        target = m_function(mu)
        basis = {lam: convert(st[lam], "p") for lam in plist}
        # 2x2 solve by hand
        a, b = plist
        A = [[basis[a].terms.get(nu, ratqt(0)) for nu in [(2,), (1, 1)]],
             [basis[b].terms.get(nu, ratqt(0)) for nu in [(2,), (1, 1)]]]
        rhs = [target.terms.get(nu, ratqt(0)) for nu in [(2,), (1, 1)]]
        det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
        ka = (rhs[0] * A[1][1] - rhs[1] * A[1][0]) / det
        kb = (A[0][0] * rhs[1] - A[0][1] * rhs[0]) / det
        assert kostka_entry(a, mu) == ka
        assert kostka_entry(b, mu) == kb


def test_kostka_degree_three_frozen():
    want = {
        ((3,), (3,)): ratqt(1),
        ((3,), (2, 1)): T,
        ((3,), (1, 1, 1)): T ** 3,
        ((2, 1), (3,)): Q + Q ** 2,
        ((2, 1), (2, 1)): 1 + Q * T,
        ((2, 1), (1, 1, 1)): T + T ** 2,
        ((1, 1, 1), (3,)): Q ** 3,
        ((1, 1, 1), (2, 1)): Q,
        ((1, 1, 1), (1, 1, 1)): ratqt(1),
    }
    assert kostka_matrix(3).entries == want


def test_kostka_integral_examples():
    assert kostka_integral_check((1,), (1,), 5)
    assert kostka_integral_check((2,), (1, 1), 5)
    assert kostka_integral_check((1, 1), (2,), 5)


def test_non_polynomial_report_helper():
    table = KostkaTable(degree=1, entries={((1,), (1,)): 1 / (1 - Q)})
    assert table.non_polynomial() == [((1,), (1,))]


def test_dual_bases_against_constant_term_route():
    # the contour formulas with deformed kernel strata rebuild both dual bases
    from macsym.ctengine import schur_ct
    for d in (1, 2, 3):
        st, sqt = dual_schur_t(d), dual_schur_qt(d)
        for lam in partitions_of(d):
            assert convert(schur_ct(lam, kind="hl"), "p") == convert(st[lam], "p")
            assert convert(schur_ct(lam, kind="qinv"), "p") == convert(sqt[lam], "p")


def test_dual_bases_equal_gram_inversion():
    for d in range(5):
        st, sqt = dual_schur_by_gram(d)
        assert dual_schur_t(d) == st
        assert dual_schur_qt(d) == sqt


def test_dual_bases_use_no_scalar_product(monkeypatch):
    want = {d: (dual_schur_t(d), dual_schur_qt(d)) for d in range(5)}

    def refuse(*args, **kwargs):
        raise AssertionError("the closed forms called inner_qt")
    monkeypatch.setattr(pairing, "inner_qt", refuse)
    dual_schur_t.cache_clear()
    dual_schur_qt.cache_clear()
    assert {d: (dual_schur_t(d), dual_schur_qt(d)) for d in range(5)} == want


@pytest.mark.parametrize("d", range(6))
def test_kostka_matrix_equals_pairing_on_gram_bases(d):
    # the pairing route K[lam,mu] = <S_lam(q,t), M_mu> on the solved-for dual basis
    _, sqt = dual_schur_by_gram(d)
    plist = list(partitions_of(d))
    want = {(lam, mu): k for mu in plist for lam in plist
            if (k := inner_qt(sqt[lam], m_function(mu)))}
    assert kostka_matrix(d).entries == want


def test_kostka_matrix_takes_no_scalar_product(monkeypatch):
    assert not hasattr(kostka, "inner_qt")
    want = {d: kostka_matrix(d).entries for d in range(6)}

    def refuse(*args, **kwargs):
        raise AssertionError("kostka_matrix took a scalar product")
    monkeypatch.setattr(pairing, "inner_qt", refuse)
    monkeypatch.setattr(pairing, "inner_cleared", refuse)
    macsym.clear_caches()
    assert {d: kostka_matrix(d).entries for d in range(6)} == want


def test_kostka_entries_lie_in_N_qt_and_count_standard_tableaux():
    for d in range(7):
        for (lam, mu), k in kostka_matrix(d).entries.items():
            assert k.denom == 1 and min(k.numer.values()) > 0, (lam, mu, k)
            hooks = prod(arm + leg + 1 for arm, leg, _, _ in
                         (arm_leg(lam, cell) for cell in cells(lam)))
            assert substitute(k, 1, 1) == factorial(d) // hooks, (lam, mu)
        assert len(kostka_matrix(d).entries) == len(list(partitions_of(d))) ** 2
        assert kostka_matrix(d).non_polynomial() == []


def test_wrong_plethysm_weight_raises_and_fails_verify(monkeypatch, capsys):
    # X -> -X/(1-t) gives polynomial entries with negative coefficients, and
    # X -> X/(1-qt) in place of X/(1-t) gives entries with a denominator
    # the caches then hold tables built with the wrong weight: clear them
    # even when an assertion fails, or the next Kostka test reads them
    try:
        with monkeypatch.context() as m:
            m.setitem(pairing._KERNEL_WEIGHTS, "tinv", lambda r: -1 / (1 - T ** r))
            macsym.clear_caches()
            with pytest.raises(InternalInconsistency, match="K\\[\\(1,\\),\\(1,\\)\\] = -1 "):
                kostka_matrix(1)
            m.setitem(pairing._KERNEL_WEIGHTS, "tinv", lambda r: 1 / (1 - Q * T ** r))
            macsym.clear_caches()
            with pytest.raises(InternalInconsistency, match="N\\[q,t\\]"):
                kostka_matrix(2)
            argv = ["verify", "--suite", "kostka", "--maxweight", "3", "--format", "json"]
            # the kostka-integral records read the table too: they fail, without a
            # detail, and the run still emits the whole report
            assert cli.main(argv) == 1
            checks = json.loads(capsys.readouterr().out)["checks"]
            assert [r["identity"] for r in checks] == ["kostka-reconstruction"] * 3 + [
                "kostka-integral"] * 4
            assert {r["status"] for r in checks} == {"fail"}
            assert not any("detail" in r for r in checks)
    finally:
        macsym.clear_caches()
    assert kostka_entry((2,), (1, 1)) == T


def test_kostka_reconstruction_checks_the_duality(monkeypatch):
    # X -> X/(1-t) is undone by X(1-t), not by s_lam in place of S_lam(t): J_mu is
    # not rebuilt.  This is a plethysm round trip; kostka-integral tests the duality.
    real = kostka.plethysm
    monkeypatch.setattr(kostka, "plethysm",
                        lambda f, kind: real(f, "h" if kind == "hl" else kind))
    kostka_matrix.cache_clear()
    with pytest.raises(InternalInconsistency, match="reconstruction"):
        kostka_matrix(2)
