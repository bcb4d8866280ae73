from fractions import Fraction
from itertools import permutations

import pytest

import macsym
from macsym import ctengine, macdonald, pairing, verify
from macsym.coeff import QPochProduct, QTSeries, parse_ratqt, ratqt, to_series
from macsym.ctengine import (_accumulate_delta, _as_npoly, _windowed_integrand, ct_norm_check,
                             delta_expand, delta_factor_coeffs, delta_pair_series,
                             expected_p_series, f_plus_terms,
                             integral_constants, integral_rep_P,
                             integral_rep_P_dual, integral_rep_check,
                             integral_rep_dual_check, integral_rep_sides, map_G, map_N,
                             map_N_tilde, norm_prime_product, scalar_prime,
                             schur_ct, schur_ct_dual, self_adjoint_operand,
                             self_adjoint_sides, skew_integral_check)
from macsym.errors import WindowTooSmall
from macsym.macdonald import b_coeff, dr_apply, macdonald_pair
from macsym.partitions import conjugate, partitions_of, rectangles
from macsym.symfunc import NPoly, convert, evaluate_n, is_symmetric, sym_gen

from oracles import (dense_from_qtseries, dense_inv, dense_mul, dense_zero,
                     delta_two_var_oracle, delta_unpruned, f_plus_terms_field,
                     integral_rep_sides_field, poch_dense, scalar_prime_pairwise)


def test_delta_coefficient_valuations():
    c = delta_factor_coeffs(6)
    assert c[0] == QTSeries.one(6)
    assert c[1].coeffs[(0, 0)] == -1
    for m in range(1, 8):
        assert c[m].valuation() == m - 1


def test_delta_trivial_cases():
    assert delta_expand(1, 4, 3) == {(0,): QTSeries.one(4)}
    # pair coefficients are symmetric in the exponent
    pair = delta_pair_series(4)
    for d in range(1, 6):
        assert (d in pair) == (-d in pair)
        if d in pair:
            assert pair[d] == pair[-d]


def test_delta_two_variables_against_brute_force():
    for order in (1, 2):
        got = delta_expand(2, order, 3)
        want = delta_two_var_oracle(order, 3)
        for d in range(-3, 4):
            lhs = dense_from_qtseries(got.get((d, -d), QTSeries.zero(order)))
            assert lhs == want.get(d, dense_zero(order)), (order, d)


def _delta_cases():
    """(nvars, order, seeds, lo, hi) for the prune test.

    Symmetric windows on the vacuum, and homogeneous seeds of degree d on
    [0, d]: one with a coefficient of positive valuation, and one each with a
    Fraction, a negative, a beyond-64-bit coefficient, a coefficient at the
    order boundary (valuation = order, a single surviving degree), terms
    that all lie at degree order, and Fractions whose common denominator
    exceeds 2**64.  A single variable carries a coefficient of +-2**64 as
    it is, so the slot width there is exactly the one its majorant allows.
    """
    big = 2 ** 64
    for order in range(4):
        for coeffs in ({(0, 0): big}, {(0, 0): -big}, {(0, 0): big, (order, 0): -big}):
            yield 1, order, {(0,): QTSeries(order, coeffs)}, 0, 0
    for n, orders in ((3, range(4)), (4, range(3))):
        for order in orders:
            one = QTSeries.one(order)
            for c in range(3):
                yield n, order, {(0,) * n: one}, -c, c
            t_minus_q = QTSeries(order, {(0, 1): 1, (1, 0): -1})
            mono = ((2, 1, 0), (1, 1, 1)) if n == 3 else ((2, 1, 0, 0), (1, 1, 1, 0))
            for e in mono:
                yield n, order, {e: one}, 0, sum(e)
            yield n, order, {mono[0]: t_minus_q, mono[1]: one + one}, 0, 3
            for coeffs in ({(0, 0): Fraction(2, 3), (0, 1): Fraction(-1, 7)},
                           {(0, 0): -3, (1, 0): 2},
                           {(0, 0): 2 ** 70 + 1, (0, 1): -(2 ** 65)},
                           {(order, 0): 1, (0, order): -1},
                           {(a, order - a): a - 2 for a in range(order + 1)},
                           {(0, 0): Fraction(1, 2 ** 40 + 1), (1, 0): Fraction(-3, 3 ** 30),
                            (0, 1): Fraction(5, 7 ** 10)}):
                yield n, order, {mono[0]: QTSeries(order, coeffs), mono[1]: one}, 0, 3


def test_delta_prune_against_unpruned_product():
    for n, order, seeds, lo, hi in _delta_cases():
        total = sum(next(iter(seeds)))
        got = _accumulate_delta(seeds, n, order, lo, hi, total)
        want = delta_unpruned(seeds, n, delta_pair_series(order), order, lo, hi)
        assert {e: dense_from_qtseries(c) for e, c in got.items()} == want, \
            (n, order, seeds, lo, hi)


def _matches_unpruned(seeds, n, order, lo, hi):
    total = sum(next(iter(seeds)))
    got = _accumulate_delta(seeds, n, order, lo, hi, total)
    want = delta_unpruned(seeds, n, delta_pair_series(order), order, lo, hi)
    return {e: dense_from_qtseries(c) for e, c in got.items()} == want


def _outer_seed(lam, order):
    """The seed that _outer_integrand hands the kernel: (series terms, variable count)."""
    cur = prev = None
    for s, r in rectangles(lam):
        cur = NPoly.constant(r, QTSeries.one(order)) if cur is None else map_N(r, prev, cur, order)
        cur, prev = map_G(s, cur), r
    return _as_npoly(cur, prev, order).terms, prev


def _orbit_seed(coeff_of):
    """The S_3-orbit of (2,1,0), coefficient coeff_of(e), beside (1,1,1) with coefficient 1."""
    seeds = {e: coeff_of(e) for e in permutations((2, 1, 0))}
    seeds[1, 1, 1] = QTSeries.one(3)
    return seeds


def test_symmetric_seeds_against_unpruned_product():
    # symmetric seeds take the sorted-exponent path; the (1^4) integrand is
    # checked at order 3, as the unpruned oracle needs 3.7 s at order 4
    for lam, order in (((2, 1, 1), 4), ((1, 1, 1, 1), 3)):
        seeds, n = _outer_seed(lam, order)
        assert is_symmetric(seeds, n)
        assert _matches_unpruned(seeds, n, order, 0, sum(lam)), lam
    frac = QTSeries(3, {(0, 0): Fraction(2, 3), (0, 1): Fraction(-1, 7)})
    seeds = _orbit_seed(lambda e: frac)
    assert is_symmetric(seeds, 3)
    assert _matches_unpruned(seeds, 3, 3, 0, 3)
    for n, order, cap in ((1, 3, 2), (2, 3, 2), (5, 0, 2)):
        assert _matches_unpruned({(0,) * n: QTSeries.one(order)}, n, order, -cap, cap), n


def test_unit_seed_in_five_variables_by_linearity():
    # the oracle takes about 30 s at n = 5, order 3; instead the symmetric
    # unit seed is the difference of two seeds that take the full path
    one, side = QTSeries.one(3), QTSeries(3, {(0, 1): 3, (1, 0): -2})
    shifted = (1, -1, 0, 0, 0)
    both = _accumulate_delta({(0,) * 5: one, shifted: side}, 5, 3, -2, 2, 0)
    alone = _accumulate_delta({shifted: side}, 5, 3, -2, 2, 0)
    diff = {e: s for e in both.keys() | alone.keys()
            if (s := both.get(e, QTSeries.zero(3)) - alone.get(e, QTSeries.zero(3)))}
    assert delta_expand(5, 3, 2) == diff


def test_permutation_closed_nonsymmetric_seeds_take_the_full_path():
    # keys closed under S_3, but a coefficient differs from its image under
    # the first or under the second adjacent transposition
    two = QTSeries(3, {(0, 0): 2, (1, 0): -1})
    for pos in (0, 2):
        seeds = _orbit_seed(lambda e: two if e[pos] == 2 else QTSeries.one(3))
        assert not is_symmetric(seeds, 3)
        assert _matches_unpruned(seeds, 3, 3, 0, 3), pos


def test_delta_windows_nest():
    # a wider kernel window holds the narrower one's terms unchanged, which
    # lets delta_expand read every narrower cap from the widest window
    unit = {(0,) * 4: QTSeries.one(3)}
    for c in range(3):
        narrow = _accumulate_delta(unit, 4, 3, -c, c, 0)
        wide = _accumulate_delta(unit, 4, 3, -c - 1, c + 1, 0)
        assert narrow == {e: s for e, s in wide.items() if max(map(abs, e)) <= c}, c
        assert len(wide) > len(narrow)


def _counted_kernel(monkeypatch):
    """Count the Delta kernel runs that delta_expand makes from here on."""
    runs = []

    def kernel(*args):
        runs.append(args[1:])
        return _accumulate_delta(*args)
    monkeypatch.setattr(ctengine, "_accumulate_delta", kernel)
    return runs


@pytest.mark.parametrize("caps, kernel_runs", [
    ((3, 2, 1, 0), 1), ((0, 1, 2, 3), 4), ((1, 3, 0, 2), 2),
], ids=["descending", "ascending", "shuffled"])
def test_delta_window_table_in_any_call_order(monkeypatch, caps, kernel_runs):
    # the kernel runs only for a cap wider than every window held; a narrower
    # cap is the widest window restricted to its box, kept and shared
    cases = ((3, 4), (4, 3), (5, 2), (4, 8))
    want = {(n, order, cap): _accumulate_delta({(0,) * n: QTSeries.one(order)},
                                               n, order, -cap, cap, 0)
            for n, order in cases for cap in caps}
    macsym.clear_caches()
    runs = _counted_kernel(monkeypatch)
    got = {}
    for n, order in cases:
        for cap in caps:
            got[n, order, cap] = window = delta_expand(n, order, cap)
            assert window == want[n, order, cap], (n, order, cap)
            assert all(max(map(abs, e)) <= cap for e in window), (n, order, cap)
    assert len(runs) == kernel_runs * len(cases)
    for key, window in got.items():
        assert delta_expand(*key) is window, key


@pytest.mark.parametrize("suite, order, ns", [
    (verify.suite_ct_conjecture, 6, (1, 2, 3)), (verify.suite_self_adjoint, 4, (2, 3)),
], ids=["ct-conjecture", "self-adjoint"])
def test_verify_suites_run_the_delta_kernel_once_per_n(monkeypatch, suite, order, ns):
    # each suite asks for its caps in ascending order; the widest window, formed
    # first, answers every narrower cap
    macsym.clear_caches()
    runs = _counted_kernel(monkeypatch)
    records = suite(maxweight=3)
    assert {r["status"] for r in records} == {"pass"}
    assert runs == [(n, order, -3, 3, 0) for n in ns]


def _seeded_kernel(seeds, n, order):
    """The Delta kernel run on the seeds themselves, as the integrands once were."""
    d = sum(next(iter(seeds)))
    return _accumulate_delta(seeds, n, order, 0, d, d)


def test_windowed_integrand_equals_the_seeded_kernel():
    # every outer seed with |lam| <= 5 at orders 0-6, read from the held window
    for order in range(7):
        for lam in (lam for d in range(1, 6) for lam in partitions_of(d)):
            seeds, n = _outer_seed(lam, order)
            got = _windowed_integrand(NPoly(n, seeds), n, order)
            assert got == _seeded_kernel(seeds, n, order), (lam, order)
    two = QTSeries(3, {(0, 0): 2, (1, 0): -1})
    for pos in (0, 2):
        seeds = _orbit_seed(lambda e: two if e[pos] == 2 else QTSeries.one(3))
        assert _windowed_integrand(NPoly(3, seeds), 3, 3) == _seeded_kernel(seeds, 3, 3), pos


def test_outer_integrands_run_one_delta_kernel_per_window(monkeypatch):
    # the (1^4) integrand reads its box [-1, 3] from the window the norm left
    macsym.clear_caches()
    runs = _counted_kernel(monkeypatch)
    assert ct_norm_check((2, 1), 4, 8)
    assert integral_rep_check((1, 1, 1, 1), 8)
    assert runs == [(4, 8, -3, 3, 0)]
    # a first window is the box asked for; a later miss widens to the symmetric hull
    macsym.clear_caches()
    runs.clear()
    got, want = integral_rep_sides((1,) * 5, 3)
    assert got == want
    assert runs == [(5, 3, -1, 4, 0)]
    narrow = delta_expand(5, 3, 1)
    assert len(runs) == 1
    wide = delta_expand(5, 3, 2)
    assert runs[1:] == [(5, 3, -4, 4, 0)]
    assert delta_expand(5, 3, 1) is narrow
    assert delta_expand(5, 3, 2) is wide
    unit = {(0,) * 5: QTSeries.one(3)}
    assert narrow == _accumulate_delta(unit, 5, 3, -1, 1, 0)
    assert wide == _accumulate_delta(unit, 5, 3, -2, 2, 0)


def test_a_perturbed_held_window_fails_the_integral_rep(monkeypatch):
    # the integrand reads its moments from the held window, not from a kernel of its own
    macsym.clear_caches()
    try:
        delta_expand(4, 8, 3)
        window = ctengine._delta_windows(4, 8)[None][2]
        for e in set(permutations((1, 0, 0, -1))):
            monkeypatch.setitem(window, e, window[e] + QTSeries.one(8))
        assert not integral_rep_check((1, 1, 1, 1), 8)
    finally:
        macsym.clear_caches()


@pytest.mark.parametrize("order", [0, 1])
def test_integral_reps_at_low_orders(order):
    # a coefficient of P_lam that truncates to zero must not read as a mismatch
    for d in range(5):
        for lam in partitions_of(d):
            assert integral_rep_check(lam, order), lam
            assert integral_rep_dual_check(lam, order), lam


def test_delta_low_order_values():
    # constant term of the two-variable kernel is 2 - 2t + 2q + O(2)
    ct0 = delta_expand(2, 1, 0)[(0, 0)]
    assert ct0.coeffs == {(0, 0): 2, (0, 1): -2, (1, 0): 2}
    # first Laurent coefficient is -1 + 2t - 2q + O(2)
    c1 = delta_expand(2, 1, 1)[(1, -1)]
    assert c1.coeffs == {(0, 0): -1, (0, 1): 2, (1, 0): -2}


def test_dual_single_transform_reconstruction():
    # one application of the dual transform rebuilds the conjugate shape with
    # the parameters exchanged, after the closed-form normalization
    order = 5
    lam, m = (2, 1), 2
    f = evaluate_n(macdonald_pair(lam).P, m)
    out = map_N_tilde(None, m, f, order)
    scale = (QPochProduct(Fraction(1, 2)) / norm_prime_product(lam, m)).to_series(order)
    got = {nu: c * scale for nu, c in out.terms.items()}
    got = {nu: c for nu, c in got.items() if c}
    assert got == expected_p_series(conjugate(lam), order, swapped=True)


def test_scalar_prime_basics():
    one = sym_gen("m", ())
    assert scalar_prime(one, one, 1, 4) == QTSeries.one(4)
    assert scalar_prime(macdonald_pair((1,)).P, macdonald_pair((2,)).P, 2, 4) == \
        QTSeries.zero(4)


def test_scalar_prime_empty_against_poch_oracle():
    # <1,1>' for two variables equals (t;q)(qt;q)/((t^2;q)(q;q)) exactly
    got = dense_from_qtseries(scalar_prime(sym_gen("m", ()), sym_gen("m", ()), 2, 4))
    want = dense_mul(
        dense_mul(poch_dense(0, 1, 4), poch_dense(1, 1, 4)),
        dense_inv(dense_mul(poch_dense(0, 2, 4), poch_dense(1, 0, 4))))
    assert got == want


def test_scalar_prime_against_pairwise_oracle_on_the_ct_norm_cases():
    for n in range(1, 5):
        for d in range(4):
            for lam in partitions_of(d, max_length=n):
                P = macdonald_pair(lam).P
                assert scalar_prime(P, P, n, 6) == scalar_prime_pairwise(P, P, n, 6)


def test_scalar_prime_against_pairwise_oracle_on_a_nonsymmetric_f():
    f = NPoly(3, {(2, 1, 0): ratqt(1), (0, 1, 2): parse_ratqt("q/(1-t)"),
                  (1, 1, 1): ratqt(-3), (3, 0, 0): parse_ratqt("1+t")})
    for mu in ((3,), (2, 1), (1, 1, 1)):
        g = evaluate_n(macdonald_pair(mu).P, 3)
        got = scalar_prime(f, g, 3, 5)
        assert got == scalar_prime_pairwise(f, g, 3, 5)
    assert got  # the pairing with P_(1,1,1) is nonzero


def test_scalar_prime_against_pairwise_oracle_on_the_self_adjointness_pairs():
    for n in (2, 3):
        fams = [evaluate_n(sym_gen("m", lam), n)
                for d in range(4) for lam in partitions_of(d, max_length=n)]
        for f in fams:
            df = dr_apply(1, f, n)
            for g in fams:
                assert scalar_prime(df, g, n, 4) == scalar_prime_pairwise(df, g, n, 4)
                dg = dr_apply(1, g, n)
                assert scalar_prime(f, dg, n, 4) == scalar_prime_pairwise(f, dg, n, 4)


@pytest.mark.parametrize("terms", [
    {(2, 0): 1},                           # x_1^2: its orbit lacks x_2^2
    {(0, 2): 1},                           # x_2^2, the sorted representative alone
    {(2, 0): 1, (0, 2): 2},                # unequal coefficients on one orbit
    {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): parse_ratqt("q")},
])
def test_scalar_prime_rejects_a_nonsymmetric_g(terms):
    n = len(next(iter(terms)))
    g = NPoly(n, {e: ratqt(c) for e, c in terms.items()})
    with pytest.raises(ValueError):
        scalar_prime(sym_gen("m", (2,)), g, n, 4)
    with pytest.raises(ValueError):
        scalar_prime(NPoly(n), g, n, 4)  # checked even when f is zero
    with pytest.raises(ValueError):
        dr_apply(1, g, n)
    with pytest.raises(ValueError):
        self_adjoint_operand(g, n, 4)


def test_ct_norm_examples():
    assert ct_norm_check((), 1, 4)
    assert ct_norm_check((1,), 2, 4)
    assert ct_norm_check((2,), 2, 4)


def test_scalar_prime_orthogonality():
    for n in (2, 3):
        for d in range(1, 4):
            for lam in partitions_of(d, max_length=n):
                for mu in partitions_of(d, max_length=n):
                    if lam != mu:
                        assert not scalar_prime(macdonald_pair(lam).P, macdonald_pair(mu).P,
                                                n, 4)


def test_self_adjoint_pairings_reuse_their_operands(monkeypatch):
    # operands are formed and checked once; a pairing neither converts nor re-checks them
    f, g = (self_adjoint_operand(sym_gen("m", mu), 3, 4) for mu in ((2, 1), (1, 1, 1)))
    calls = []
    for name in ("_as_npoly", "require_symmetric"):
        monkeypatch.setattr(ctengine, name, lambda *args, name=name: calls.append(name))
    lhs, rhs = self_adjoint_sides(f, g, 3, 4)
    assert lhs == rhs
    assert calls == []


def test_self_adjoint_examples():
    m2, m11 = sym_gen("m", (2,)), sym_gen("m", (1, 1))
    for f, g in [(m2, m2), (m2, m11), (sym_gen("m", ()), sym_gen("m", (1,)))]:
        lhs, rhs = self_adjoint_sides(self_adjoint_operand(f, 2, 4),
                                      self_adjoint_operand(g, 2, 4), 2, 4)
        assert lhs == rhs


def test_map_G():
    f = NPoly(2, {(0, 0): ratqt(1)})
    assert map_G(1, f).terms == {(1, 1): ratqt(1)}
    g = NPoly(2, {(1, 0): ratqt(1), (0, 1): ratqt(1)})
    assert map_G(2, g).terms == {(3, 2): ratqt(1), (2, 3): ratqt(1)}


def test_map_N_examples():
    order = 5
    # constant input over one variable passes through
    one = NPoly(1, {(0,): QTSeries.one(order)})
    out = map_N(None, 1, one, order)
    assert out.terms == {(): QTSeries.one(order)}
    # gauge-shifted vacuum gives the first Cauchy stratum
    f = NPoly(1, {(1,): QTSeries.one(order)})
    out = map_N(None, 1, f, order)
    assert out.terms == {(1,): to_series(parse_ratqt("(1-t)/(1-q)"), order)}


def test_map_N_proportionality():
    # transform of P_lam itself returns P_lam after the closed-form rescale
    order = 5
    lam = (2,)
    m = 2
    f = evaluate_n(macdonald_pair(lam).P, m)
    out = map_N(None, m, f, order)
    norm = 1 / b_coeff(lam)
    prime = norm_prime_product(lam, m)
    scale = (QPochProduct(Fraction(1, 2)) * norm / prime).to_series(order)
    got = {nu: c * scale for nu, c in out.terms.items()}
    got = {nu: c for nu, c in got.items() if c}
    assert got == expected_p_series(lam, order)


def test_map_N_tilde_examples():
    order = 5
    one = NPoly(1, {(0,): QTSeries.one(order)})
    assert map_N_tilde(None, 1, one, order).terms == {(): QTSeries.one(order)}
    # first stratum of the finite kernel is e_1 = p_1
    f = NPoly(1, {(1,): QTSeries.one(order)})
    out = map_N_tilde(None, 1, f, order)
    assert out.terms == {(1,): QTSeries.one(order)}


def test_window_too_small_flag():
    # the window [0, d] needs one degree d: a non-homogeneous integrand has none
    one = QTSeries.one(4)
    f = NPoly(2, {(1, 0): one, (2, 0): one})
    with pytest.raises(WindowTooSmall):
        map_N(None, 2, f, 4)


def test_integral_constants_examples():
    c = integral_constants((1,))
    assert c.c_plus.factors == {}
    assert c.c_plus.prefactor == parse_ratqt("(1-q)/(1-t)")
    assert not c.uses_ct_conjecture
    c0 = integral_constants(())
    assert c0.c_plus.to_series(3) == QTSeries.one(3)
    c22 = integral_constants((2, 2))
    assert c22.uses_ct_conjecture
    assert len(c22.block_norms) == 1
    # primed norm of a single variable block is 1
    assert norm_prime_product((2,), 1).to_series(4) == QTSeries.one(4)


def test_integral_constants_takes_a_list_and_is_cached():
    c = integral_constants([2, 1])
    assert c == integral_constants((2, 1))
    assert c is integral_constants((2, 1)) and c.lam == (2, 1)


def test_integral_constants_minus_relation():
    for lam in [(1,), (2,), (2, 1)]:
        c = integral_constants(lam)
        lhs = c.c_minus.to_series(5)
        rhs = (c.c_plus * b_coeff(lam)).to_series(5)
        assert lhs == rhs


def test_integral_rep_small():
    # single row of weight one is the first power sum at every order
    for order in (2, 4, 6):
        out = integral_rep_P((1,), order)
        assert out.terms == {(1,): QTSeries.one(order)}
    out = integral_rep_P((), 4)
    assert out.terms == {(): QTSeries.one(4)}
    assert integral_rep_check((2, 1), 6)


@pytest.mark.parametrize("lam", [(2, 1, 1, 1), (3, 1, 1)])
def test_integral_reps_of_two_level_shapes(lam):
    # a 1-variable level feeds the seeds of the outer Delta kernel: over 4
    # variables for (2,1,1,1), and as Fraction coefficients for (3,1,1)
    assert integral_rep_check(lam, 4)
    assert integral_rep_dual_check(lam, 4)


def test_integral_rep_dual_small():
    out = integral_rep_P_dual((1,), 4)
    assert out.terms == {(1,): QTSeries.one(4)}
    assert integral_rep_P_dual((), 4).terms == {(): QTSeries.one(4)}
    # single column swaps to a single row with parameters exchanged
    assert integral_rep_dual_check((2,), 6)


def test_schur_ct_examples():
    assert convert(schur_ct((1,)), "m") == convert(sym_gen("s", (1,)), "m")
    got = convert(schur_ct((2, 1)), "m")
    assert got == convert(sym_gen("s", (2, 1)), "m")
    assert evaluate_n(schur_ct((2, 1)), 3).terms == \
        evaluate_n(sym_gen("s", (2, 1)), 3).terms
    # dual route produces the conjugate shape
    got = convert(schur_ct_dual((1, 1)), "m")
    assert got == convert(sym_gen("s", (2,)), "m")


def test_skew_integral_examples():
    assert skew_integral_check((2,), (), 5)    # no inner group: plain reconstruction
    assert skew_integral_check((1,), (1,), 5)  # collapses to 1 * b^(-1)
    assert skew_integral_check((2,), (1,), 5)


@pytest.mark.parametrize("order", [0, 1, 8])
def test_integral_reps_match_the_field_route(order):
    # every series read from Z[q,t] numerators equals the series of the value
    # reduced in Q(q,t), on both kernels, the expected sides and F+
    for d in range(5):
        for lam in partitions_of(d):
            for dual in (False, True):
                assert integral_rep_sides(lam, order, dual) == \
                    integral_rep_sides_field(lam, order, dual), (lam, dual)
            assert f_plus_terms(lam, order) == f_plus_terms_field(lam, order), lam


def test_integral_reps_reduce_nothing_in_the_field():
    # with the pairs prebuilt, no kernel stratum is a plethysm and no expected
    # side or constant is reduced: each raises, and every side still agrees
    def refused(*args, **kwargs):
        raise AssertionError("the integral-rep path reduced a value in Q(q,t)")

    lams = [lam for d in range(5) for lam in partitions_of(d)]
    macsym.clear_caches()
    try:
        for lam in lams:
            macdonald_pair(lam)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(pairing, "plethysm", refused)
            m.setattr(macdonald, "reduce_ratqt", refused)
            m.setattr(ctengine, "reduce_ratqt", refused)
            for lam in lams:
                for dual in (False, True):
                    got, want = integral_rep_sides(lam, 6, dual)
                    assert got == want, (lam, dual)
    finally:
        macsym.clear_caches()


def test_f_plus_degenerate():
    terms, nvars = f_plus_terms((), 4)
    assert nvars == 0 and terms == {(): QTSeries.one(4)}
