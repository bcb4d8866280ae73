import dataclasses
import hashlib
import json
import os
import re
import tempfile
import time

import pytest
from hypothesis import given, strategies as st
from sympy.polys.rings import PolyElement

import macsym
import macsym.macdonald as mac
from macsym import pairing, symfunc, verify
from macsym.coeff import (FIELD, MAX_COEFF_BITS, MAX_EXPONENT, Q, RING, T, RatQT,
                          _packing_layout, emit_ratqt, parse_ratqt, ratqt, reduce_ratqt, swap_qt)
from macsym.errors import InternalInconsistency, SpecializationPole
from macsym.macdonald import (SPECIALIZE_CASES, MacdonaldPair, b_coeff, dr_apply,
                              dr_commute_check, dr_eigencheck, dr_eigenvalue,
                              load_cache, macdonald_pair,
                              save_cache, skew_p, skew_q, specialize_check,
                              structure_f)
from macsym.pairing import inner_qt, omega_qt
from macsym.partitions import MAX_WEIGHT, conjugate, dominates, partitions_of, weight
from macsym.symfunc import NPoly, SymFunc, convert, evaluate_n, multiply, sym_gen

from oracles import (dr_apply_field, gram_schmidt, hall_littlewood_p, hall_littlewood_p_division,
                     specialize_check_field, specialize_sides_field, structure_constant_pairing,
                     substitute)


def test_p_examples():
    assert macdonald_pair(()).P == sym_gen("m", ())
    assert macdonald_pair((1,)).P == sym_gen("m", (1,))
    P2 = macdonald_pair((2,)).P
    assert P2.terms[(2,)] == 1
    assert P2.terms[(1, 1)] == parse_ratqt("(1+q)(1-t)/(1-q*t)")


def test_b_examples():
    assert b_coeff((1,)) == parse_ratqt("(1-t)/(1-q)")
    assert b_coeff(()) == 1
    assert b_coeff((2,)) == parse_ratqt("(1-t)(1-q*t)/((1-q)(1-q^2))")


def test_unitriangularity():
    from macsym.partitions import dominates
    for d in range(6):
        for lam in partitions_of(d):
            P = macdonald_pair(lam).P
            assert P.terms[lam] == 1
            for mu in P.terms:
                assert dominates(lam, mu)


def test_constructor_matches_gram_schmidt():
    for d in range(6):
        for lam, (mvec, pvec, norm) in gram_schmidt(d).items():
            pair = macdonald_pair(lam)
            assert pair.P == SymFunc("m", mvec), lam
            assert pair.P_p == SymFunc("p", pvec), lam
            assert pair.norm == norm, lam
            assert pair.b == 1 / norm, lam
            assert pair.Qf == SymFunc("p", pvec).scale(1 / norm), lam


def test_zero_mode_is_triangular_with_eigenvalue_diagonal():
    from macsym.coeff import RING
    from macsym.partitions import dominates
    q, t = RING.gens
    for d in range(6):
        rows = mac.zero_mode(d)
        for nu, row in rows.items():
            assert all(dominates(nu, mu) for mu in row)
            eps = t ** d + (t - 1) * sum(((q ** part - 1) * t ** (d - i)
                                          for i, part in enumerate(nu, 1)), RING.zero)
            assert row[nu] == eps


def test_perturbed_zero_mode_raises(monkeypatch):
    rows = {nu: dict(row) for nu, row in mac.zero_mode(3).items()}
    rows[(2, 1)][(1, 1, 1)] += 1
    monkeypatch.setattr(mac, "zero_mode", lambda d: rows)
    monkeypatch.setattr(mac, "_PAIRS", {})
    with pytest.raises(InternalInconsistency, match="exact quotient"):
        macdonald_pair((2, 1))
    assert mac._PAIRS == {}


def test_zero_mode_entry_off_the_integers_raises(monkeypatch):
    # doubling z_mu halves d!/z_mu, so an entry no longer divides by D d!
    z_plain = mac.z_plain
    monkeypatch.setattr(mac, "z_plain", lambda mu: 2 * z_plain(mu))
    mac.zero_mode.cache_clear()
    try:
        with pytest.raises(InternalInconsistency, match="not in Z"):
            mac.zero_mode(3)
    finally:
        mac.zero_mode.cache_clear()


def test_orthogonality_small():
    for d in range(4):
        ps = list(partitions_of(d))
        for a in ps:
            for b in ps:
                got = inner_qt(macdonald_pair(a).P_p, macdonald_pair(b).P_p)
                assert got == (1 / b_coeff(a) if a == b else 0)


def test_q_pairing_normalized():
    for lam in partitions_of(3):
        pair = macdonald_pair(lam)
        assert inner_qt(pair.Qf, pair.P_p) == 1


def test_dr_examples():
    one = NPoly(2, {(0, 0): ratqt(1)})
    assert dr_apply(1, one, 2).terms == {(0, 0): 1 + T}
    f = NPoly(1, {(3,): ratqt(1)})
    assert dr_apply(1, f, 1).terms == {(3,): Q ** 3}
    assert dr_eigencheck((1,), 1, 2)
    assert dr_eigenvalue((1,), 1, 2) == T * Q + 1
    assert dr_eigencheck((2, 1), 2, 3)


def test_dr_apply_matches_field_oracle():
    inputs = [sym_gen("m", mu) for d in range(4) for mu in partitions_of(d)]
    inputs += [macdonald_pair(lam).P for d in range(4) for lam in partitions_of(d)]
    for n in (1, 2, 3):
        for f in inputs:
            F = evaluate_n(f, n)
            for r in range(1, n + 1):
                assert dr_apply(r, F, n) == dr_apply_field(r, F, n), (f, r, n)


def test_dr_eigencheck_fails_for_a_wrong_eigenvalue(monkeypatch):
    eigenvalue = mac.dr_eigenvalue
    monkeypatch.setattr(mac, "dr_eigenvalue", lambda *a: eigenvalue(*a) + 1)
    for lam, r, n in (((1,), 1, 2), ((2, 1), 2, 3), ((), 1, 1)):
        assert not dr_eigencheck(lam, r, n), (lam, r, n)
    # P_mu checked against lam's eigenvalue fails for every mu != lam and
    # r < n = d (for r = n every lam of weight d has the same e_n)
    failed = 0
    for d in (3, 4):
        for lam in partitions_of(d):
            monkeypatch.setattr(mac, "dr_eigenvalue",
                                lambda mu, r, n, lam=lam: eigenvalue(lam, r, n))
            for mu in partitions_of(d):
                for r in range(1, d):
                    if mu != lam:
                        assert not dr_eigencheck(mu, r, d), (lam, mu, r)
                        failed += 1
    assert failed == 72


def test_dr_eigenvalue_full_subset():
    # e_n of the bare spectrum is t^(n(n-1)/2)
    for n in (2, 3):
        assert dr_eigenvalue((), n, n) == T ** (n * (n - 1) // 2)


def test_dr_commute_spot():
    f = evaluate_n(sym_gen("m", (2, 1)), 3)
    assert dr_commute_check(1, 2, f, 3)
    assert dr_commute_check(2, 3, f, 3)


def test_structure_constants_examples():
    assert structure_f((), ()) == {(): ratqt(1)}
    assert structure_f((1,), ()) == {(1,): ratqt(1)}
    f = structure_f((1,), (1,))
    assert f[(2,)] == 1
    assert f[(1, 1)] == parse_ratqt("(1+t)(1-q)/(1-q*t)")


def test_structure_constants_reconstruct_product():
    for mu in partitions_of(2):
        for nu in partitions_of(2):
            prod = multiply(macdonald_pair(mu).P_p, macdonald_pair(nu).P_p)
            recon = SymFunc("p")
            for lam, c in structure_f(mu, nu).items():
                recon = recon + macdonald_pair(lam).P_p.scale(c)
            assert recon == prod


@pytest.mark.parametrize("pairs", [
    [(mu, nu) for d in range(5) for dm in range(d + 1)
     for mu in partitions_of(dm) for nu in partitions_of(d - dm)],
    [((2, 1), (1, 1)), ((3,), (1, 1)), ((1, 1, 1), (2,)), ((2, 2), (1,)), ((4,), (1,))],
], ids=["weight<=4", "weight5"])
def test_structure_f_peel_equals_the_pairing(pairs):
    for mu, nu in pairs:
        want = {lam: c for lam in partitions_of(weight(mu) + weight(nu))
                if (c := structure_constant_pairing(lam, mu, nu))}
        assert structure_f(mu, nu) == want, (mu, nu)
        assert structure_f(nu, mu) == want, (nu, mu)


def test_structure_f_returns_a_fresh_dict():
    mac._structure_peel.cache_clear()
    first = structure_f((2,), (1,))
    want = dict(first)
    first[(3,)] = ratqt(7)
    first.clear()
    again = structure_f((1,), (2,))
    assert again == want and again is not first and want
    again.pop((2, 1))
    assert structure_f((2,), (1,)) == want
    assert mac._structure_peel.cache_info().currsize == 1  # one peel for both orders


def test_peel_skips_cancelled_rows_and_keeps_the_rows_above_below():
    lam, one = (2, 1), RING.one
    J = macdonald_pair(lam).J
    # J_lam = c_lam P_lam: every row below lam cancels, so P_lam alone comes off,
    # and a mu below lam carries no term (the zero map of the translation route)
    assert list(mac._peel_p({rho: {"x": v} for rho, v in J.items()}, one)) == [
        (lam, {"x": J[lam]}, one)]
    # m_lam = P_lam - J_lam[(1,1,1)] / c_lam P_(1,1,1), unless `below` drops that row
    assert list(mac._peel_p({lam: {"x": one}}, one)) == [
        (lam, {"x": one}, one), ((1, 1, 1), {"x": -J[(1, 1, 1)]}, J[lam])]
    assert list(mac._peel_p({lam: {"x": one}}, one, below=lam)) == [(lam, {"x": one}, one)]


def test_skew_q_uses_no_scalar_product(monkeypatch):
    cases = [((3, 1), (1,)), ((2, 2), (1, 1)), ((2, 1, 1), (2,)), ((2, 1), ())]
    want = {case: skew_q(*case) for case in cases}
    mac._structure_peel.cache_clear()

    def forbidden(*args, **kwargs):
        raise AssertionError("skew_q reached a scalar product")

    for mod in (mac, pairing):  # also where a by-name import would put them
        for name in ("inner_cleared", "inner_pvec", "inner_qt"):
            monkeypatch.setattr(mod, name, forbidden, raising=False)
    for case in cases:
        assert skew_q(*case) == want[case]


def test_skew_examples():
    assert skew_q((2, 1), ()) == macdonald_pair((2, 1)).Qf
    assert skew_q((2, 1), (2, 1)) == sym_gen("p", ())
    f = structure_f((1,), (1,))
    assert skew_q((2,), (1,)) == macdonald_pair((1,)).Qf.scale(f[(2,)])
    # skew P normalization
    assert skew_p((2,), ()) == macdonald_pair((2,)).P_p


def test_skew_adjointness():
    for lam in partitions_of(4):
        for dm in range(5):
            for mu in partitions_of(dm):
                sk = skew_q(lam, mu)
                for nu in partitions_of(weight(lam) - dm):
                    lhs = inner_qt(sk, macdonald_pair(nu).P_p)
                    rhs = inner_qt(
                        macdonald_pair(lam).Qf,
                        multiply(macdonald_pair(mu).P_p, macdonald_pair(nu).P_p))
                    assert lhs == rhs


def test_duality_small():
    for d in range(4):
        for lam in partitions_of(d):
            lhs = omega_qt(macdonald_pair(lam).P_p)
            rhs = macdonald_pair(conjugate(lam)).Qf.map_coeffs(swap_qt)
            assert lhs == rhs


def test_specializations():
    assert specialize_check((2,), "schur")
    assert specialize_check((2,), "monomial")
    assert specialize_check((2, 1), "inverse-qt")
    for lam in [(2,), (1, 1), (2, 1)]:
        for case in SPECIALIZE_CASES:
            assert specialize_check(lam, case), (lam, case)


@pytest.mark.parametrize("case", SPECIALIZE_CASES)
def test_specialize_check_matches_the_field_oracle(case):
    # the exponent maps over Z[q,t] against substituting into each reduced coefficient
    for d in range(6):
        for lam in partitions_of(d):
            assert specialize_check(lam, case) is specialize_check_field(lam, case) is True, lam


def _perturb_j21(monkeypatch, extra):
    """Install J_(2,1) + extra at m_(1,1,1), so that P_(2,1) is reduced afresh from it."""
    J = dict(macdonald_pair((2, 1)).J)
    J[(1, 1, 1)] += extra
    monkeypatch.setitem(mac._PAIRS, (2, 1), MacdonaldPair((2, 1), J))


def test_every_specialization_fails_on_a_perturbed_integral_form(monkeypatch):
    # (1-t)^2 / c_(2,1) = 1 / (1 - q t^2) joins P_(2,1) at m_(1,1,1): no case has a pole
    # there, and none of t = q, q = 0, t = 1, q = 1, (1/q, 1/t) takes it to 0 or to itself
    _perturb_j21(monkeypatch, (1 - RING.gens[1]) ** 2)
    zero = FIELD.zero
    for case in SPECIALIZE_CASES:
        assert not specialize_check((2, 1), case)
        assert not specialize_check_field((2, 1), case)
        spec, want = specialize_sides_field((2, 1), case)
        assert mac.specialize_difference((2, 1), case) == (
            (1, 1, 1), spec.terms.get((1, 1, 1), zero), want.terms.get((1, 1, 1), zero)), case
        assert spec.terms.get((2, 1)) == want.terms.get((2, 1)), case


def test_a_specialization_pole_raises(monkeypatch):
    # J_(2,1) + q at m_(1,1,1): the reduced coefficient keeps 1 - t in its denominator,
    # so t -> 1 is a pole; q -> 0 does not see the perturbation, t -> q does
    _perturb_j21(monkeypatch, RING.gens[0])
    for check in (specialize_check, specialize_check_field):
        with pytest.raises(SpecializationPole):
            check((2, 1), "monomial")
        assert check((2, 1), "hall-littlewood")
        assert not check((2, 1), "schur")
    with pytest.raises(ValueError):
        specialize_check((2, 1), "jack")


def test_failing_specialization_records_report_the_first_difference(monkeypatch):
    _perturb_j21(monkeypatch, (1 - RING.gens[1]) ** 2)
    records = verify.suite_specializations(maxweight=3)
    failed = [r for r in records if r["status"] == "fail"]
    assert [(r["identity"], r["parameters"]) for r in failed] == [
        (f"specialization-{case}", {"lambda": (2, 1)}) for case in SPECIALIZE_CASES]
    for rec, case in zip(failed, SPECIALIZE_CASES):
        spec, want = specialize_sides_field((2, 1), case)
        assert rec["detail"] == {"key": "(1, 1, 1)",
                                 "got": emit_ratqt(spec.terms.get((1, 1, 1), 0)),
                                 "want": emit_ratqt(want.terms.get((1, 1, 1), 0))}
    assert all("detail" not in r for r in records if r["status"] == "pass")


def test_passing_specializations_form_no_field_value(monkeypatch):
    assert {r["status"] for r in verify.suite_specializations(maxweight=5)} == {"pass"}

    def forbidden(*args, **kwargs):
        raise AssertionError("a passing specialization record formed a Q(q,t) value")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__pow__"):
        monkeypatch.setattr(RatQT, name, forbidden)
    monkeypatch.setattr(FIELD, "new", forbidden)
    with pytest.raises(AssertionError):
        FIELD.one + FIELD.one
    records = verify.suite_specializations(maxweight=5)
    assert len(records) == 5 * 19 and {r["status"] for r in records} == {"pass"}


def test_the_symmetrizer_product_is_formed_once_per_n():
    memo = mac._symmetrizer_product
    memo.cache_clear()
    for lam in partitions_of(4):
        mac.hall_littlewood_symmetrizer(lam, 4)
    assert memo.cache_info()[:2] == (4, 1)  # hits, misses
    mac.hall_littlewood_symmetrizer((3,), 3)
    assert memo.cache_info().currsize == macsym.cache_sizes()["macdonald._symmetrizer_product"] == 1
    macsym.clear_caches()
    assert memo.cache_info().currsize == 0


def test_hall_littlewood_reference():
    # t -> q degeneration of the Hall-Littlewood family gives Schur too
    P = hall_littlewood_p((2, 1))
    spec = P.map_coeffs(lambda c: substitute(c, T, T))  # identity; stays exact
    assert spec.terms[(2, 1)] == 1


def test_hall_littlewood_matches_gram_schmidt():
    for d in range(6):
        for lam, (mvec, _, _) in gram_schmidt(d, (0, T)).items():
            assert hall_littlewood_p(lam) == SymFunc("m", mvec), lam


def test_hall_littlewood_matches_the_division_route():
    # the straightened symmetrizer against every permutation and the Vandermonde division
    for d in range(6):
        for lam in partitions_of(d):
            assert hall_littlewood_p(lam) == hall_littlewood_p_division(lam), lam


def _count_reductions(monkeypatch):
    """Record the denominator of every reduce_ratqt call the pairs make: P's in
    macdonald, P_p's and Qf's through symfunc._reduced_p."""
    calls = []

    def counted(nums, den):
        calls.append(den)
        return reduce_ratqt(nums, den)

    for mod in (mac, symfunc):
        monkeypatch.setattr(mod, "reduce_ratqt", counted)
    return calls


def test_held_integral_forms_give_back_the_pair(monkeypatch):
    calls = _count_reductions(monkeypatch)
    for d in range(5):
        for lam in partitions_of(d):
            pair = MacdonaldPair(lam, mac._integral_form(lam))
            assert calls == [] and "J_p" not in vars(pair), lam  # nothing formed until read
            c, c_prime = mac._arm_leg_products(lam)
            D, nums = pair.J_p
            assert reduce_ratqt(pair.J, c) == pair.P.terms, lam
            assert calls == [c], lam
            assert reduce_ratqt(nums, RING(D) * c) == pair.P_p.terms, lam
            assert reduce_ratqt(nums, RING(D) * c_prime) == pair.Qf.terms, lam
            assert (pair.b, pair.norm) == (b_coeff(lam), 1 / b_coeff(lam)), lam
            assert (pair.P, pair.P_p, pair.Qf) == (macdonald_pair(lam).P, macdonald_pair(lam).P_p,
                                                   macdonald_pair(lam).Qf), lam
            calls.clear()
            _ = (pair.P, pair.P_p, pair.Qf)  # read again: held, not reduced again
            assert calls == [], lam


def test_cache_loaded_pairs_hold_the_built_integral_forms(tmp_path, monkeypatch):
    mac._PAIRS.clear()
    calls = _count_reductions(monkeypatch)
    built = {lam: macdonald_pair(lam) for d in range(5) for lam in partitions_of(d)}
    cancels = []
    cancel = PolyElement.cancel

    def counted_cancel(f, g):
        cancels.append(g)
        return cancel(f, g)

    monkeypatch.setattr(PolyElement, "cancel", counted_cancel)
    path = tmp_path / "pairs.json"
    save_cache(path)
    assert (calls, cancels) == ([], [])  # the held J is written as it is
    mac._PAIRS.clear()
    assert load_cache(path) == len(built)
    assert (calls, cancels) == ([], [])  # and read back over Z[q,t]
    for lam, pair in built.items():
        got = mac._PAIRS[lam]
        assert got is not pair and got == pair, lam  # the one field, J
        assert got.cleared_p() == pair.cleared_p(), lam
        assert got.cleared_p(dual=True) == pair.cleared_p(dual=True), lam
        assert ((got.P, got.P_p, got.Qf, got.b, got.norm)
                == (pair.P, pair.P_p, pair.Qf, pair.b, pair.norm)), lam
    # P, P_p and Qf of each loaded and each built pair, reduced once on first read
    assert len(calls) == 6 * len(built)
    for pair in [*built.values(), *mac._PAIRS.values()]:
        _ = (pair.P, pair.P_p, pair.Qf)
    assert len(calls) == 6 * len(built)


_UP_TO_5 = [lam for d in range(6) for lam in partitions_of(d)]


@given(st.lists(st.sampled_from(_UP_TO_5), unique=True))
def test_cache_round_trip_of_pairs_built_in_any_order(lams):
    mac._PAIRS.clear()
    built = {lam: macdonald_pair(lam) for lam in lams}  # in the drawn order
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pairs.json")
        save_cache(path)
        mac._PAIRS.clear()
        assert load_cache(path) == len(built)
    assert mac._PAIRS.keys() == built.keys()
    for lam, pair in built.items():
        assert mac._PAIRS[lam] == pair, lam
        assert mac._PAIRS[lam].cleared_p() == pair.cleared_p(), lam


def test_built_held_and_loaded_pairs_agree(tmp_path):
    # a pair stores J alone; J_p is formed from it on first read, the same on every route
    assert [f.name for f in dataclasses.fields(MacdonaldPair)] == ["lam", "J"]
    mac._PAIRS.clear()
    memo = {lam: macdonald_pair(lam) for lam in _UP_TO_5}
    path = tmp_path / "pairs.json"
    save_cache(path)
    mac._PAIRS.clear()
    assert load_cache(path) == len(memo)
    for lam in _UP_TO_5:
        held = MacdonaldPair(lam, mac._integral_form(lam))
        pairs = (held, memo[lam], mac._PAIRS[lam])
        assert not any("J_p" in vars(pair) for pair in pairs), lam  # not formed at build or load
        assert all(pair.J == held.J for pair in pairs), lam
        for dual in (False, True):
            den, nums = held.cleared_p(dual)
            assert all(pair.cleared_p(dual) == (den, nums) for pair in pairs), (lam, dual)
            want = convert(memo[lam].P, "p").scale(memo[lam].b if dual else 1)  # Q = b P
            assert reduce_ratqt(nums, den) == want.terms, (lam, dual)


@pytest.mark.parametrize("repeat", ["entry", "record"])
def test_cache_load_rejects_a_repeat(tmp_path, repeat):
    mac._PAIRS.clear()
    macdonald_pair((2, 1))
    path = tmp_path / "pairs.json"
    save_cache(path)
    data = json.loads(path.read_text())
    rec = data["records"][0]
    if repeat == "entry":  # (1,1,1,0) is m_(1,1,1): a junk entry before the real one
        assert rec["J_in_m"][0]["partition"] == [1, 1, 1]
        rec["J_in_m"].insert(0, {"partition": [1, 1, 1, 0], "terms": [[5, 5, 7]]})
    else:
        data["records"].append(rec)
    path.write_text(json.dumps(data))
    mac._PAIRS.clear()
    with pytest.raises(ValueError, match=f"repeats the {repeat}"):
        load_cache(path)
    assert mac._PAIRS == {}


def test_cache_load_rejects_every_single_term_perturbation(tmp_path):
    # a negative control for the eigen check: +1 on one term of any entry below m_lam
    mac._PAIRS.clear()
    built = [macdonald_pair(lam) for d in range(5) for lam in partitions_of(d)]
    path = tmp_path / "pairs.json"
    save_cache(path)
    text = path.read_text()
    mac._PAIRS.clear()
    perturbed = 0
    for i, rec in enumerate(json.loads(text)["records"]):
        for j, entry in enumerate(rec["J_in_m"]):
            if entry["partition"] == rec["lambda"]:
                continue
            data = json.loads(text)
            terms = data["records"][i]["J_in_m"][j]["terms"]
            next(term for term in terms if term[2] != -1)[2] += 1  # stays nonzero
            path.write_text(json.dumps(data))
            with pytest.raises(ValueError, match="eigenfunction"):
                load_cache(path)
            assert mac._PAIRS == {}, (rec["lambda"], entry["partition"])
            perturbed += 1
    assert perturbed == sum(len(pair.J) - 1 for pair in built) > 0


def test_pair_holds_J_read_only_and_hashes_on_lam(tmp_path):
    mac._PAIRS.clear()
    pair = macdonald_pair((2, 1))
    source = dict(pair.J)
    held = MacdonaldPair((2, 1), source)
    source[(3,)] = RING.one  # the pair holds its own copy
    assert held == pair and hash(held) == hash(pair)
    path = tmp_path / "pairs.json"
    save_cache(path)
    mac._PAIRS.clear()
    load_cache(path)
    loaded = mac._PAIRS[(2, 1)]
    assert loaded == pair and len({pair, held, loaded}) == 1
    for p in (pair, held, loaded):
        with pytest.raises(TypeError):
            p.J[(1, 1, 1)] = RING.one
        with pytest.raises(TypeError):
            del p.J[(2, 1)]
        assert p.J == pair.J and (3,) not in p.J


def test_cache_load_forms_no_zero_mode_image(tmp_path, monkeypatch):
    mac._PAIRS.clear()
    built = [macdonald_pair(lam) for lam in _UP_TO_5]
    path = tmp_path / "pairs.json"
    save_cache(path)
    mac._PAIRS.clear()

    def refuse(*args):
        raise AssertionError("load_cache formed a zero-mode image")

    monkeypatch.setattr(mac, "_zero_mode_image", refuse)
    assert load_cache(path) == len(built)


def _record_of(lam, J):
    return {"lambda": list(lam), "J_in_m": [
        {"partition": list(mu), "terms": [[a, b, int(c)] for (a, b), c in n.terms()]}
        for mu, n in sorted(J.items())]}


def _write_cache(path, records):
    path.write_text(json.dumps({"format": mac.CACHE_FORMAT, "version": mac.CACHE_VERSION,
                                "records": records}))


@pytest.mark.parametrize("lam", [(2, 1), (2, 2), (3, 1, 1)])
def test_cache_load_sizes_its_layout_from_the_record(tmp_path, lam):
    # 2^B on one term of an entry below m_lam and -1 on the next slot: at the
    # layout (B, W) that the genuine record gets, both records have the same
    # images; sized from its own entries, the shifted one is rejected
    mac._PAIRS.clear()
    J = dict(macdonald_pair(lam).J)
    bits, width = _packing_layout(list(mac._eigen_equations(lam, J).values()))
    mu = min(J)
    (a, b), _ = J[mu].terms()[0]
    slot = a + width * b + 1
    shift = RING.from_dict({(a, b): 2 ** bits, (slot % width, slot // width): -1})
    x = 2 ** bits
    assert shift(x, x ** width) == 0 and bits < MAX_COEFF_BITS
    path = tmp_path / "pairs.json"
    _write_cache(path, [_record_of(lam, {**J, mu: J[mu] + shift})])
    mac._PAIRS.clear()
    with pytest.raises(ValueError, match=re.escape(f"eigenfunction of the zero mode at m_{mu}")):
        load_cache(path)
    assert mac._PAIRS == {}


@pytest.mark.parametrize("entries", ["every", "last"])
def test_cache_load_rejects_a_record_at_the_ceilings_quickly(tmp_path, entries):
    # J_(d) at the top weight with terms at MAX_EXPONENT and MAX_COEFF_BITS bits
    # in every entry below m_(d), or in the last one only
    lam = (MAX_WEIGHT,)
    mac.zero_mode(MAX_WEIGHT)  # built once per session, outside the timing
    big = 2 ** MAX_COEFF_BITS - 1
    hostile = RING.from_dict({(MAX_EXPONENT, MAX_EXPONENT): big, (MAX_EXPONENT, 0): -big,
                              (0, MAX_EXPONENT): big})
    last = (1,) * MAX_WEIGHT
    if entries == "every":
        J = {mu: hostile for mu in partitions_of(MAX_WEIGHT) if dominates(lam, mu)}
        J[lam] = mac._arm_leg_products(lam)[0]
    else:
        J = dict(macdonald_pair(lam).J)
        J[last] += hostile
    path = tmp_path / "pairs.json"
    _write_cache(path, [_record_of(lam, J)])
    mac._PAIRS.clear()
    start = time.perf_counter()
    with pytest.raises(ValueError, match="eigenfunction"):
        load_cache(path)
    assert time.perf_counter() - start < 1
    assert mac._PAIRS == {}


def test_cache_round_trip(tmp_path):
    macdonald_pair((2, 1))
    macdonald_pair((1,))
    path = tmp_path / "pairs.json"
    save_cache(path)
    import macsym.macdonald as mac
    saved = dict(mac._PAIRS)
    mac._PAIRS.clear()
    count = load_cache(path)
    assert count >= 2
    for lam in [(1,), (2, 1)]:
        assert mac._PAIRS[lam].P == saved[lam].P
        assert mac._PAIRS[lam].b == saved[lam].b
    assert load_cache(path) == count


def test_interrupted_cache_save_keeps_previous_file(tmp_path, monkeypatch):
    import macsym.macdonald as mac
    macdonald_pair((1,))
    path = tmp_path / "pairs.json"
    save_cache(path)
    before = path.read_text()

    def open_failing_midway(file, mode="r", **kw):
        fh = open(file, mode, **kw)
        write = fh.write

        def write_half_then_fail(text):
            write(text[:len(text) // 2])
            raise OSError("no space left on device")

        fh.write = write_half_then_fail
        return fh

    monkeypatch.setattr(mac, "open", open_failing_midway, raising=False)
    with pytest.raises(OSError):
        save_cache(path)
    assert path.read_text() == before
    assert [p.name for p in tmp_path.iterdir()] == ["pairs.json"]


def test_cache_file_bytes_are_pinned(tmp_path):
    # a weight <= 3 cache byte for byte: the file does not drift with the JSON encoder
    mac._PAIRS.clear()
    for d in range(4):
        for lam in partitions_of(d):
            macdonald_pair(lam)
    path = tmp_path / "pairs.json"
    save_cache(path)
    data = path.read_bytes()
    assert len(data) == 1228
    assert hashlib.sha256(data).hexdigest() == \
        "53ecdf4d967ec799bd8f28663ad2e4fbf6a19e0f1ed9cba3e86cea6029f8a0e4"


def test_cache_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "other", "version": 9, "records": []}')
    with pytest.raises(ValueError):
        load_cache(path)
