import random
from collections import Counter
from itertools import combinations
from math import comb, prod

import pytest

import macsym
from macsym import fock, macdonald, pairing, symfunc, verify
from macsym.coeff import FIELD, Q, RING, T, clear_ratqt, emit_ratqt, ratqt
from macsym.fock import (skew_via_diffop, skew_via_fock, skew_via_fock_cleared, symmetrizer_check,
                         vertex_product_check)
from macsym.macdonald import macdonald_pair, skew_q
from macsym.partitions import partitions_of, weight
from macsym.symfunc import NPoly, SymFunc, _reduced_p, multiply, sym_gen

from oracles import (_delta_factor_rational, _finite_pi_series, completeness_check,
                     p_bar_apply_termwise, skew_q_termwise, skew_via_diffop_termwise,
                     skew_via_fock_termwise, vertex_product_check_field)

_q = RING.gens[0]


def test_skew_route_examples():
    assert skew_via_fock((2, 1), ()) == macdonald_pair((2, 1)).Qf
    assert skew_via_fock((2, 1), (2, 1)) == sym_gen("p", ())
    assert skew_via_diffop((2, 1), ()) == macdonald_pair((2, 1)).Qf
    assert skew_via_diffop((1,), (1,)) == sym_gen("p", ())
    assert skew_via_diffop((2,), (1,)) == skew_q((2,), (1,))


def test_three_routes_small():
    for d in range(4):
        for lam in partitions_of(d):
            for dm in range(d + 1):
                for mu in partitions_of(dm):
                    a = skew_q(lam, mu)
                    assert a == skew_via_fock(lam, mu) == skew_via_diffop(lam, mu)


def test_three_routes_match_their_termwise_bodies():
    # every pair with |lam| <= 4: each route against its one-field-operation-at-a-time body
    for d in range(5):
        for lam in partitions_of(d):
            for dm in range(d + 1):
                for mu in partitions_of(dm):
                    want = skew_q_termwise(lam, mu)
                    assert skew_q(lam, mu) == want, (lam, mu)
                    assert skew_via_fock(lam, mu) == skew_via_fock_termwise(lam, mu) == want
                    assert skew_via_diffop(lam, mu) == skew_via_diffop_termwise(lam, mu) == want


def test_fock_route_uses_no_scalar_product(monkeypatch):
    # the translation route stands alone: no pairing, no product, no skew_q
    pairs = [(lam, mu) for d in range(4) for lam in partitions_of(d)
             for dm in range(d + 1) for mu in partitions_of(dm)]
    want = {pair: skew_q(*pair) for pair in pairs}

    def forbidden(*args, **kwargs):
        raise AssertionError("the Fock route reached a scalar-product helper")

    for name in ("inner_qt", "inner_cleared"):  # fock does not import them
        monkeypatch.setattr(pairing, name, forbidden)
    monkeypatch.setattr(symfunc, "multiply", forbidden)  # fock does not import it
    for mod in (macdonald, symfunc):
        monkeypatch.setattr(mod, "p_product_cleared", forbidden)
    for name in ("skew_q", "skew_q_cleared", "_structure_peel"):  # nor the structure peel
        monkeypatch.setattr(macdonald, name, forbidden)
    for pair in pairs:
        assert skew_via_fock(*pair) == want[pair]


@pytest.mark.parametrize("lam, mu", [((3, 2), (2, 1)), ((2, 2, 1), (1, 1)),
                                     ((1, 1, 1, 1, 1), (1, 1)), ((3, 1, 1), (2,)),
                                     ((4, 1), (3,))])
def test_fock_route_weight_five(lam, mu):
    assert skew_via_fock(lam, mu) == skew_q(lam, mu)


def test_fock_route_above_lambda_is_zero():
    macsym.clear_caches()
    assert skew_via_fock((2,), (2, 1)) == SymFunc("p")
    assert skew_via_fock_cleared((2,), (1, 1)) == (RING.one, {})  # (1,1) lies outside (2)
    assert not [lam for lam in macdonald._PAIRS if weight(lam) == 3]


def test_p_bar_is_scaled_derivative():
    # P_(1) = p_1 lowers by p_bar_1 = (1-q)/(1-t) d/dp_1: the weight (1-q)(1-t) over
    # (1-t)^2; on Q_(2,1) it takes p_(2,1) to p_2 and p_(1,1,1) to 3 p_(1,1), and misses p_3
    q, t = RING.gens
    assert fock._lowering_weights((1,)) == ((1 - t) ** 2,
                                             {(1,): (Counter({1: 1}), (1 - q) * (1 - t))})
    den, nums = macdonald_pair((2, 1)).cleared_p(dual=True)
    den_l, den_w, terms = fock._lowered_terms((2, 1), (1,))
    assert (den_l, den_w) == (den, (1 - t) ** 2)
    assert {k: (w, c, f) for k, w, c, f in terms} == {
        (2,): ((1 - q) * (1 - t), nums[2, 1], 1), (1, 1): ((1 - q) * (1 - t), nums[1, 1, 1], 3)}


def test_skew_diffop_decision_matches_the_termwise_body(monkeypatch):
    # every pair with |lam| <= 5: the diffop route, decided unformed, against its termwise
    # body as the wanted side (the fock route held at that side), and against that body
    # plus p_(1^d), which it must fail
    for d in range(6):
        for lam in partitions_of(d):
            for dm in range(d + 1):
                for mu in partitions_of(dm):
                    body = skew_via_diffop_termwise(lam, mu).terms
                    key = (1,) * (d - dm)
                    for want, holds in ((body, True),
                                        ({**body, key: body.get(key, FIELD.zero) + 1}, False)):
                        cleared = clear_ratqt(want)
                        monkeypatch.setattr(macdonald, "skew_q_cleared", lambda *_: cleared)
                        monkeypatch.setattr(fock, "skew_via_fock_cleared", lambda *_: cleared)
                        got, _, route = verify.skew_route_sides(lam, mu)
                        assert (got is None, route) == (holds, None if holds else "diffop")


@pytest.mark.parametrize("key", [(3, 2, 1), (2, 2, 1, 1), (1,) * 6])
def test_skew_diffop_decision_fails_on_a_perturbed_q_numerator(monkeypatch, key):
    # +1 on one numerator of Q_(3,2,1), read through cleared_p(dual=True), with the fock
    # route held at its true value: the diffop equations fail (3,2,1)/(2,1)
    lam, mu = (3, 2, 1), (2, 1)
    assert verify.skew_route_sides(lam, mu)[0] is None
    held, original = skew_via_fock_cleared(lam, mu), macdonald.MacdonaldPair.cleared_p

    def perturbed(pair, dual=False):
        den, nums = original(pair, dual)
        if (pair.lam, dual) == (lam, True):
            nums = {**nums, key: nums[key] + 1}
        return den, nums

    monkeypatch.setattr(macdonald.MacdonaldPair, "cleared_p", perturbed)
    monkeypatch.setattr(fock, "skew_via_fock_cleared", lambda *_: held)
    got, want, route = verify.skew_route_sides(lam, mu)
    assert route == "diffop" and got == fock.skew_via_diffop_cleared(lam, mu)
    assert _reduced_p(got) != _reduced_p(want)


def test_skew_records_fail_on_a_shifted_lowering_factor(monkeypatch):
    # r (1-q^r) off by one power of q, r (1-q^(r+1)), in every lowering weight: each record
    # with mu != () fails, naming the diffop route; P_() lowers nothing, so mu = () passes
    original = fock._lowering_weights

    def shifted(mu):
        den, held = original(mu)
        return den, {kappa: (m, w.exquo(prod((1 - _q ** r for r in kappa), start=RING.one))
                             * prod((1 - _q ** (r + 1) for r in kappa), start=RING.one))
                     for kappa, (m, w) in held.items()}

    monkeypatch.setattr(fock, "_lowering_weights", shifted)
    records = verify.suite_skew_routes(maxweight=4)
    for rec in records:
        if rec["parameters"]["mu"]:
            assert rec["status"] == "fail" and rec["detail"]["route"] == "diffop", rec
            assert rec["detail"]["got"] != rec["detail"]["want"]
        else:
            assert rec["status"] == "pass" and "detail" not in rec


def test_a_passing_skew_suite_forms_no_diffop_route(monkeypatch):
    def forbidden(lam, mu):
        raise AssertionError("a passing record formed the diffop route")

    monkeypatch.setattr(fock, "skew_via_diffop_cleared", forbidden)
    records = verify.suite_skew_routes(maxweight=4)
    assert len(records) == 92 and {r["status"] for r in records} == {"pass"}


def test_commutator_contract():
    rng = random.Random(2)
    for _ in range(4):
        d = rng.randint(1, 4)
        f = SymFunc("p", {lam: ratqt(rng.randint(-3, 3)) for lam in partitions_of(d)})
        for r in (1, 2):
            for s in (1, 2, 3):
                # [p_bar_r, p_s] = delta_rs r (1-q^r)/(1-t^r), the Heisenberg relation
                p_s = sym_gen("p", (s,))
                lhs = (p_bar_apply_termwise(r, multiply(p_s, f))
                       - multiply(p_s, p_bar_apply_termwise(r, f)))
                assert lhs == (f.scale(r * (1 - Q ** r) / (1 - T ** r)) if r == s
                               else SymFunc("p")), (f, r, s)


def test_completeness():
    rng = random.Random(9)
    for _ in range(4):
        d = rng.randint(1, 4)
        f = SymFunc("p", {lam: ratqt(rng.randint(-3, 3)) for lam in partitions_of(d)})
        assert completeness_check(f)


def test_vertex_product_beta_one():
    # t = q collapses each kernel factor to a single linear term
    assert vertex_product_check(1, 2, 3)
    assert _delta_factor_rational(1, 1) == -1  # coefficient of u in (1 - u)
    assert _delta_factor_rational(2, 1) == 0
    assert _finite_pi_series(1, 3) == [ratqt(1)] * 4  # 1/(1-u) telescoped


@pytest.fixture
def vertex_factors_cold():
    """An empty `_vertex_factors` cache before and after the test, so neither a
    value built before a monkeypatch nor one built under it outlives the test."""
    memo = fock._vertex_factors  # taken before a test rebinds the name
    memo.cache_clear()
    yield memo
    memo.cache_clear()


def _perturb_factors(monkeypatch, side, change):
    """Rebind `fock._vertex_factors` so that the Z[q] map `side` ("pair" or
    "finite_pair") of every beta reads change(map, den) in place of the map."""
    exact = fock._vertex_factors

    def perturbed(beta, d):
        mismatch, den, pair, finite_pair = exact(beta, d)
        maps = {"pair": dict(pair), "finite_pair": dict(finite_pair)}
        maps[side] = change(maps[side], den)
        return mismatch, den, maps["pair"], maps["finite_pair"]

    monkeypatch.setattr(fock, "_vertex_factors", perturbed)


def test_vertex_product_fails_on_a_perturbed_pair_series(monkeypatch, vertex_factors_cold):
    assert vertex_product_check(2, 3, 3)
    # the pair series' coefficient of x_i / x_j plus q^2 / (1 - q), cleared to den
    _perturb_factors(monkeypatch, "pair",
                     lambda pair, den: {**pair, 1: pair[1] + _q ** 2 * den.exquo(1 - _q)})
    assert not vertex_product_check(2, 3, 3)
    assert not vertex_product_check(1, 2, 3)
    key, got, want = fock.vertex_product_difference(2, 3, 3)
    assert key[0] == "assembly" and got != want


def test_vertex_suite_checks_the_factors_once_per_beta(vertex_factors_cold):
    records = verify.run_suite("vertex-identities", maxweight=3)
    collapse = [r for r in records if r["identity"] == "kernel-product-collapse"]
    assert len(collapse) == 6 and all(r["status"] == "pass" for r in collapse)
    info = vertex_factors_cold.cache_info()
    assert (info.misses, info.hits) == (3, 3)  # one build per beta, read again for n = 3


def test_vertex_suite_fails_every_collapse_on_a_perturbed_factor(monkeypatch,
                                                                 vertex_factors_cold):
    # c_1 + q: its numerator over (q;q)_1 = 1 - q plus q (1 - q)
    exact = fock._collapse_numerator
    monkeypatch.setattr(fock, "_collapse_numerator",
                        lambda m, beta: exact(m, beta) + (_q * (1 - _q) if m == 1 else 0))
    records = verify.run_suite("vertex-identities", maxweight=3)
    collapse = [r for r in records if r["identity"] == "kernel-product-collapse"]
    assert len(collapse) == 6 and all(r["status"] == "fail" for r in collapse)
    assert all(r["status"] == "pass" and "detail" not in r for r in records if r not in collapse)
    for r in collapse:  # the first failing piece: the interchange identity at u^1
        a_1 = -sum(Q ** k for k in range(r["parameters"]["beta"]))
        assert r["detail"] == {"key": "('interchange', 1)", "got": emit_ratqt(a_1 + Q),
                               "want": emit_ratqt(a_1)}


def test_vertex_suite_reports_the_first_differing_monomial(monkeypatch, vertex_factors_cold):
    exact = {beta: fock._vertex_factors(beta, 3)[3] for beta in (1, 2, 3)}
    _perturb_factors(monkeypatch, "finite_pair", lambda fp, den: {**fp, 0: fp[0] + _q})
    records = verify.run_suite("vertex-identities", maxweight=3)
    assert all(r["status"] == "pass" for r in records
               if r["identity"] != "kernel-product-collapse")
    for r in (r for r in records if r["identity"] == "kernel-product-collapse"):
        beta, n = r["parameters"]["beta"], r["parameters"]["n"]
        # the finite product over Z[q] with and without q added at z^0 in every pair:
        # the kernel equals the unperturbed one, so they first differ where the record does
        sides = []
        for fp in (exact[beta], {**exact[beta], 0: exact[beta][0] + _q}):
            side = NPoly.constant(n, RING.one)
            for i, j in combinations(range(n), 2):
                side = side * NPoly(n, {tuple(e * ((x == i) - (x == j)) for x in range(n)): c
                                        for e, c in fp.items()})
            sides.append(side)
        e = min((sides[0] - sides[1]).terms)
        assert r["status"] == "fail"
        assert r["detail"] == {"key": repr(("assembly", e)),
                               "got": emit_ratqt(FIELD(sides[0].terms.get(e, 0))),
                               "want": emit_ratqt(FIELD(sides[1].terms.get(e, 0)))}


@pytest.mark.parametrize("beta", [1, 2, 3])
def test_vertex_packing_sees_a_change_at_the_top_q_degree(monkeypatch, vertex_factors_cold,
                                                           beta):
    # q^top added to a coefficient of the highest q-degree in one factor: the digit
    # a carry out of the packed top digit would lose
    exact = fock._vertex_factors(beta, 3)
    for side, factor in (("pair", exact[2]), ("finite_pair", exact[3])):
        top, e = max((c.degree(), e) for e, c in factor.items())
        with monkeypatch.context() as patch:
            _perturb_factors(patch, side, lambda m, den: {**m, e: m[e] + _q ** top})
            for n in (2, 3):
                assert not vertex_product_check(beta, n, 3), (side, n)


@pytest.mark.parametrize("beta", [1, 2, 3])
def test_vertex_packing_widens_with_the_coefficients(monkeypatch, vertex_factors_cold, beta):
    _, den, pair, finite_pair = fock._vertex_factors(beta, 3)
    for n in (2, 3):
        l1 = [sum(abs(v) for c in m for v in c.coeffs())
              for m in (pair.values(), finite_pair.values(), [den])]
        bound = max(l1[0], l1[1] * l1[2]) ** comb(n, 2)
        bits = bound.bit_length() + 1
        for change in (
                lambda m, den: {**m, 0: m[0] + bound},  # an integer the size of the bound
                # 2^bits - q packs to 0 at the unperturbed width: only a width taken
                # from the perturbed coefficients sees it
                lambda m, den: {**m, 0: m[0] + (1 << bits) - _q}):
            with monkeypatch.context() as patch:
                _perturb_factors(patch, "pair", change)
                assert not vertex_product_check(beta, n, 3), n


def test_vertex_product_matches_the_unshared_field_check(vertex_factors_cold):
    cases = [(beta, n) for beta in (1, 2, 3) for n in (1, 2, 3)] + [(1, 4), (2, 4)]
    for beta, n in cases:
        for d in range(6):
            assert vertex_product_check(beta, n, d) is \
                vertex_product_check_field(beta, n, d) is True, (beta, n, d)


def test_vertex_product_betas():
    for beta in (1, 2, 3):
        for n in (2, 3):
            assert vertex_product_check(beta, n, 3)


def test_symmetrizer_examples():
    assert symmetrizer_check(1)
    assert symmetrizer_check(2)
    assert symmetrizer_check(4)
    assert symmetrizer_check(6)
    # direct rational-function route for two variables: result is 1 + t
    x1 = NPoly(2, {(1, 0): ratqt(1)})
    x2 = NPoly(2, {(0, 1): ratqt(1)})
    # (x1 - t x2)/(x1 - x2) + (x2 - t x1)/(x2 - x1) has polynomial sum (1+t)(x1-x2)
    num = (x1 - x2.scale(T)) - (x2 - x1.scale(T))
    assert num == (x1 - x2).scale(1 + T)


def test_symmetrizer_needs_the_alternant_signs(monkeypatch):
    # negative control: straightening without the sign of the sort breaks the
    # identity; the s tables straighten too, so no cache may keep a patched value
    assert symmetrizer_check(3)
    macsym.clear_caches()
    try:
        with monkeypatch.context() as m:
            m.setattr(symfunc, "_perm_sign", lambda perm: 1)
            assert not symmetrizer_check(3)
    finally:
        macsym.clear_caches()
