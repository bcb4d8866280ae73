import contextlib
import io
import json
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from macsym import cli, ctengine, fock, macdonald, pairing, verify
from macsym.cli import build_parser, main
from macsym.coeff import (FIELD, MAX_COEFF_BITS, MAX_EXPONENT, RING, QTSeries, RatQT, clear_ratqt,
                          emit_ratqt, ratqt, reduce_ratqt, swap_qt)
from macsym.errors import InternalInconsistency, NotSeriesExpandable
from macsym.macdonald import MacdonaldPair, macdonald_pair
from macsym.pairing import dual_factor, inner_qt, kernel_coeff, omega_qt, qbinom_coeff
from macsym.partitions import MAX_HL_WEIGHT, conjugate, partitions_of
from macsym.symfunc import evaluate_n, sym_gen

from strategies import cleared_maps, pvec_maps


def test_expand_json(capsys):
    assert main(["expand", "--lam", "2", "--basis", "m", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    terms = {tuple(item["partition"]): item["coeff"] for item in data["terms"]}
    assert terms[(2,)] == "1"
    assert terms[(1, 1)] == "(1 - t + q - q*t)/(1 - q*t)"
    assert data["report"] == "v1"


def test_expand_deterministic(capsys):
    main(["expand", "--lam", "2,1", "--format", "json"])
    first = capsys.readouterr().out
    main(["expand", "--lam", "2,1", "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


def test_norm_command(capsys):
    assert main(["norm", "--lam", "1", "--order", "3"]) == 0
    out = capsys.readouterr().out
    assert "(1 - t)/(1 - q)" in out


def test_lambda_long_flag_alias(capsys):
    assert main(["expand", "--lambda", "1,1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["lambda"] == [1, 1]


def test_skew_command(capsys):
    assert main(["skew", "--lam", "2", "--mu", "1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["routes_agree"] is True
    assert data["skew_Q_in_p"] == [
        {"partition": [1], "coeff": "(1 - t)/(1 - q)"}]


@pytest.mark.parametrize("route", ["skew_via_fock", "skew_via_diffop"])
def test_skew_counterexample_reports_its_first_difference(monkeypatch, capsys, route):
    # a wrong route fails the command, and stderr names the first differing coefficient:
    # the fock route's numerators doubled, or every lowering weight that the diffop
    # route's equations read (that route is formed only when it fails)
    original, weights = fock.skew_via_fock_cleared, fock._lowering_weights

    def doubled(lam, mu):
        den, nums = original(lam, mu)
        return den, {kappa: 2 * n for kappa, n in nums.items()}

    def doubled_weights(mu):
        den, held = weights(mu)
        return den, {kappa: (m, 2 * w) for kappa, (m, w) in held.items()}

    if route == "skew_via_fock":
        monkeypatch.setattr(fock, "skew_via_fock_cleared", doubled)
    else:
        monkeypatch.setattr(fock, "_lowering_weights", doubled_weights)
    assert main(["skew", "--lam", "2", "--mu", "1", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["routes_agree"] is False
    want = macdonald.skew_q((2,), (1,)).terms[(1,)]
    assert captured.err == ("counterexample: routes disagree for lambda=(2) mu=(1); first "
                            f"difference at (1,): got {emit_ratqt(2 * want)}, "
                            f"want {emit_ratqt(want)}\n")


def test_kostka_json(capsys):
    assert main(["kostka", "--degree", "2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["entries"]["(2),(1,1)"] == "t"
    assert data["entries"]["(1,1),(2)"] == "q"
    assert data["non_polynomial_entries"] == []


def test_kostka_tsv(capsys):
    assert main(["kostka", "--degree", "2", "--format", "tsv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("lambda\\mu")
    assert len(lines) == 3


def test_integral_command(capsys):
    assert main(["integral", "--lam", "2", "--order", "4", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "pass"


@pytest.mark.parametrize("extra", [[], ["--dual"]], ids=["plain", "dual"])
def test_integral_order_zero_passes(capsys, extra):
    # P_(2,1) has a p-coefficient that truncates to zero at order 0
    assert main(["integral", "--lam", "2,1", "--order", "0", "--format", "json"] + extra) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


@pytest.mark.parametrize("dual", [False, True], ids=["plain", "dual"])
def test_integral_counterexample_reports_its_first_difference(monkeypatch, capsys, dual):
    # a wrong integral side fails the command, and stderr names the first differing series
    sides = ctengine.integral_rep_sides

    def wrong(lam, order, dual=False):
        got, want = sides(lam, order, dual)
        return {nu: s * 2 for nu, s in got.items()}, want

    monkeypatch.setattr(ctengine, "integral_rep_sides", wrong)
    argv = ["integral", "--lam", "2", "--order", "3", "--format", "json"]
    assert main(argv + ["--dual"] * dual) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["status"] == "fail"
    detail = verify.first_difference(*wrong((2,), 3, dual))
    identity = "integral-rep-dual" if dual else "integral-rep"
    assert captured.err == (f"counterexample: {identity} fails for lambda=(2) at order 3; "
                            f"first difference at {detail['key']}: got {detail['got']}, "
                            f"want {detail['want']}\n")
    assert detail["got"] != detail["want"]


def test_verify_suite(capsys):
    assert main(["verify", "--suite", "duality", "--maxweight", "3",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["failed"] == 0
    assert all(r["status"] == "pass" for r in data["checks"])
    assert {"identity", "parameters", "order", "status",
            "max_order_checked", "wall_time"} <= set(data["checks"][0])


def test_record_time_is_the_time_spent_producing_it(monkeypatch):
    # only the symmetrizer-sum record at n = 3 sleeps, so only it may take 0.2 s
    check = fock.symmetrizer_check

    def slow(n):
        if n == 3:
            time.sleep(0.2)
        return check(n)

    monkeypatch.setattr(fock, "symmetrizer_check", slow)
    records = verify.run_suite("vertex-identities")
    slow_records = [r for r in records if r["identity"] == "symmetrizer-sum"
                    and r["parameters"]["n"] == 3]
    assert len(slow_records) == 1 and slow_records[0]["wall_time"] >= 0.2
    assert all(r["wall_time"] < 0.2 for r in records if r is not slow_records[0])


def test_verify_cauchy_default_degree(capsys):
    # degree 4 by default; the kernel side is read at partition margins
    assert main(["verify", "--suite", "cauchy", "--format", "json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [(r["identity"], r["parameters"]["degree"]) for r in checks] == [
        (name, d) for d in range(5) for name in ("cauchy-kernel", "dual-cauchy-kernel")]
    assert all(r["status"] == "pass" for r in checks)


def test_verify_cauchy_detects_a_wrong_coefficient(monkeypatch, cold_kernel_memos):
    # the degree-3 kernel numerator at x^(2,1) y^(2,1) off by (q;q)_3: the kernel
    # coefficient there + 1, read by the packed equations and by the detail alike
    numerator = pairing.kernel_numerator

    def perturbed(rows, cols, dual=False):
        out = numerator(rows, cols, dual)
        if (rows, cols, dual) == ((2, 1), (2, 1), False):
            out = out + pairing.qpoch(3)
        return out

    monkeypatch.setattr(pairing, "kernel_numerator", perturbed)
    records = {(r["identity"], r["parameters"]["degree"]): r
               for r in verify.suite_cauchy(maxweight=3)}
    failed = records.pop(("cauchy-kernel", 3))
    assert failed["status"] == "fail"
    assert failed["detail"]["key"] == repr(((2, 1), (2, 1)))
    assert {r["status"] for r in records.values()} == {"pass"}


def test_failing_record_reports_its_first_difference(monkeypatch, capsys):
    # P_lam held as its cleared p-numerators plus den at p_2, i.e. P_lam + p_2, for every
    # lam with a p_2 coefficient: omega_qt adds the weight of p_2 to the left side there
    cleared_p = MacdonaldPair.cleared_p

    def perturbed(self, dual=False):
        den, nums = cleared_p(self, dual)
        if not dual and (2,) in nums:
            nums = {**nums, (2,): nums[(2,)] + den}
        return den, nums

    monkeypatch.setattr(MacdonaldPair, "cleared_p", perturbed)
    assert main(["verify", "--suite", "duality", "--maxweight", "2", "--format", "json"]) == 1
    captured = capsys.readouterr()
    checks = json.loads(captured.out)["checks"]
    failed = [r for r in checks if r["status"] == "fail"]
    assert [r["parameters"]["lambda"] for r in failed] == [[2], [1, 1]]
    weight = omega_qt(sym_gen("p", (2,))).terms[(2,)]
    for rec in failed:
        lam = tuple(rec["parameters"]["lambda"])
        want = macdonald_pair(conjugate(lam)).Qf.map_coeffs(swap_qt).terms[(2,)]
        assert rec["detail"] == {"key": "(2,)", "got": emit_ratqt(want + weight),
                                 "want": emit_ratqt(want)}
    # passing records keep exactly the v1 fields
    assert all(set(r) == {"identity", "parameters", "order", "status",
                          "max_order_checked", "wall_time"}
               for r in checks if r["status"] == "pass")
    detail = failed[0]["detail"]
    assert captured.err == (f"counterexample: omega-duality {{'lambda': (2,)}}; first difference "
                            f"at (2,): got {detail['got']}, want {detail['want']}\n")


def test_passing_duality_suite_forms_no_field_value(monkeypatch):
    for d in range(5):
        for lam in partitions_of(d):
            macdonald_pair(lam).J_p

    def forbidden(*args, **kwargs):
        raise AssertionError("a passing duality record formed a Q(q,t) value")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__pow__"):
        monkeypatch.setattr(RatQT, name, forbidden)
    monkeypatch.setattr(FIELD, "new", forbidden)
    with pytest.raises(AssertionError):
        FIELD.one + FIELD.one
    records = verify.suite_duality(maxweight=4)
    assert len(records) == 12 and {r["status"] for r in records} == {"pass"}


def test_perturbed_integral_form_fails_the_cauchy_and_duality_records(monkeypatch):
    # J_(2,1) + q at m_(1,1,1): each failing record carries the first difference of
    # the two sides as formed in Q(q,t), the kernel against the products of the P_nu,
    # and omega_qt P_lam against Q_lam'(x; t, q)
    J = dict(macdonald_pair((2, 1)).J)
    J[(1, 1, 1)] = J[(1, 1, 1)] + RING.gens[0]
    monkeypatch.setitem(macdonald._PAIRS, (2, 1), MacdonaldPair((2, 1), J))
    records = verify.suite_cauchy(maxweight=3) + verify.suite_duality(maxweight=3)
    failed = {(r["identity"], str(r["parameters"])): r["detail"] for r in records
              if r["status"] == "fail"}
    plist = list(partitions_of(3))
    want = {}
    for identity, factor, dual in (("cauchy-kernel", qbinom_coeff, False),
                                   ("dual-cauchy-kernel", dual_factor, True)):
        kernel = {(lam, mu): c for lam in plist for mu in plist
                  if (c := kernel_coeff(lam, mu, factor))}
        want[identity, "{'degree': 3}"] = verify.first_difference(
            kernel, verify._cauchy_products(3, dual))
    want["omega-duality", "{'lambda': (2, 1)}"] = verify.first_difference(
        omega_qt(macdonald_pair((2, 1)).P_p),
        macdonald_pair((2, 1)).Qf.map_coeffs(swap_qt))
    assert failed == want and all(want.values())


@pytest.mark.parametrize("added, failing", [
    # J_(2,1) doubled: <P, P> = 4 / b_lam, and P still pairs to 0 with the others
    ((2, 1), [((2, 1), (2, 1))]),
    # J_(2,1) + J_(1,1,1): P_(2,1) gains a multiple of P_(1,1,1)
    ((1, 1, 1), [((2, 1), (2, 1)), ((2, 1), (1, 1, 1)), ((1, 1, 1), (2, 1))]),
])
def test_failing_orthogonality_record_reports_its_value(monkeypatch, added, failing):
    lam = (2, 1)
    J = dict(macdonald_pair(lam).J)
    for mu, c in macdonald_pair(added).J.items():
        J[mu] = J.get(mu, RING.zero) + c
    wrong = MacdonaldPair(lam, J)
    pairs = {nu: macdonald_pair(nu) for nu in ((3,), (2, 1), (1, 1, 1))}
    monkeypatch.setitem(macdonald._PAIRS, lam, wrong)
    records = verify.run_suite("orthogonality", maxweight=3)
    failed = [r for r in records if r["status"] == "fail"]
    assert [(r["parameters"]["lambda"], r["parameters"]["mu"]) for r in failed] == failing
    for rec in failed:
        a, b = (wrong if nu == lam else pairs[nu] for nu in rec["parameters"].values())
        want = pairs[lam].norm if a is b else 0
        assert rec["detail"] == {"got": emit_ratqt(inner_qt(a.P_p, b.P_p)),
                                 "want": emit_ratqt(want)}
    assert all("detail" not in r for r in records if r["status"] == "pass")


def test_verify_integral_reps_stop_at_the_integral_ceiling(monkeypatch, capsys):
    seen = []

    def stub(lam, order, dual=False):
        seen.append(lam)
        return {}, {}

    monkeypatch.setattr(verify.ctengine, "integral_rep_sides", stub)
    assert main(["verify", "--suite", "integral-reps", "--maxweight", "6",
                 "--format", "json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    weights = {sum(r["parameters"]["lambda"]) for r in checks}
    assert weights == set(range(cli.MAX_INTEGRAL_WEIGHT + 1)) == {sum(lam) for lam in seen}
    assert cli.MAX_INTEGRAL_WEIGHT == 5


def test_verify_hall_littlewood_stops_at_its_ceiling(monkeypatch, capsys):
    seen = []

    def stub(lam, case):
        seen.append((lam, case))
        return True

    monkeypatch.setattr(verify.macdonald, "specialize_check", stub)
    assert main(["verify", "--suite", "specializations", "--maxweight", "8",
                 "--format", "json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    hl = {sum(r["parameters"]["lambda"]) for r in checks
          if r["identity"] == "specialization-hall-littlewood"}
    assert hl == set(range(MAX_HL_WEIGHT + 1)) == set(range(8))
    assert {sum(lam) for lam, case in seen if case == "schur"} == set(range(9))
    assert len(seen) == len(checks)


def test_verify_kostka_stops_at_the_kostka_ceiling(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(verify.kostka, "kostka_matrix", seen.append)
    monkeypatch.setattr(verify.kostka, "kostka_integral_sides", lambda lam, mu, order: (0, 0))
    assert main(["verify", "--suite", "kostka", "--maxweight", str(cli.MAX_WEIGHT),
                 "--format", "json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    degrees = [r["parameters"]["degree"] for r in checks
               if r["identity"] == "kostka-reconstruction"]
    assert degrees == seen == list(range(1, cli.MAX_KOSTKA_DEGREE + 1))


@pytest.mark.parametrize("suite, module, sides", [
    ("skew-integral", "ctengine", "skew_integral_sides"),
    ("kostka", "kostka", "kostka_integral_sides"),
])
def test_integral_checks_report_their_first_difference(monkeypatch, suite, module, sides):
    # a wrong nested-integral side fails the record and names the coefficient
    mod = getattr(verify, module)
    original = getattr(mod, sides)

    def perturbed(lam, mu, order):
        got, want = original(lam, mu, order)
        if isinstance(got, dict):
            got = {nu: s * 2 for nu, s in got.items()}
        else:
            got = got * 2
        return got, want

    passing = verify.run_suite(suite)
    monkeypatch.setattr(mod, sides, perturbed)
    records = verify.run_suite(suite)
    integral = [r for r in records if r["identity"] != "kostka-reconstruction"]
    assert integral and all(r["status"] == "fail" for r in integral)
    for rec in integral:
        assert set(rec["detail"]) <= {"key", "got", "want"}
        assert rec["detail"]["got"] != rec["detail"]["want"]
    # a passing record carries no detail
    assert all(r["status"] == "pass" and "detail" not in r for r in passing)


@pytest.mark.parametrize("route", ["skew_via_fock", "skew_via_diffop"])
def test_skew_routes_report_the_perturbed_key(monkeypatch, route):
    # one route's cleared numerator at p_1 off by one: every record whose skew
    # function has a p_1 term fails and names it, and every other record passes
    # (the diffop route through the lowering terms its equations read: one more term
    # worth den den_w, where the terms at p_1 sum to a nonzero numerator)
    key = (1,)
    name = "skew_via_fock_cleared" if route == "skew_via_fock" else "_lowered_terms"
    original = getattr(fock, name)

    def perturbed(lam, mu):
        if route == "skew_via_fock":
            den, nums = original(lam, mu)
            return den, ({**nums, key: nums[key] + den} if key in nums else nums)
        den, den_w, terms = original(lam, mu)
        if sum((w * c * f for k, w, c, f in terms if k == key), RING.zero):
            terms = [*terms, (key, den, den_w, 1)]
        return den, den_w, terms

    passing = verify.run_suite("skew-routes", maxweight=3)
    monkeypatch.setattr(fock, name, perturbed)
    records = verify.run_suite("skew-routes", maxweight=3)
    assert [r["parameters"] for r in records] == [r["parameters"] for r in passing]
    failed = 0
    for rec in records:
        want = macdonald.skew_q(rec["parameters"]["lambda"], rec["parameters"]["mu"]).terms
        if key in want:
            failed += 1
            assert rec["status"] == "fail"
            assert rec["detail"] == {"key": repr(key), "got": emit_ratqt(want[key] + 1),
                                     "want": emit_ratqt(want[key]),
                                     "route": route.removeprefix("skew_via_")}
        else:
            assert rec["status"] == "pass" and "detail" not in rec
    assert 0 < failed < len(records)
    assert all(r["status"] == "pass" and "detail" not in r for r in passing)


def _routes_against(monkeypatch, want, via_fock, via_diffop):
    """skew_route_sides((1,), ()) with skew_q_cleared and the fock route replaced by fixed
    pairs, and Q_(1)'s numerators by via_diffop: P_() lowers nothing, so they are the diffop
    route."""
    monkeypatch.setattr(macdonald, "skew_q_cleared", lambda lam, mu: want)
    monkeypatch.setattr(fock, "skew_via_fock_cleared", lambda lam, mu: via_fock)
    monkeypatch.setattr(fock, "macdonald_pair", lambda lam: (
        SimpleNamespace(cleared_p=lambda dual=False: via_diffop) if lam == (1,)
        else macdonald_pair(lam)))
    got, same, route = verify.skew_route_sides((1,), ())
    assert route == (None if got is None else "fock" if got is via_fock else "diffop")
    return got, same


def test_skew_route_sides_examples(monkeypatch):
    q, one = RING.gens[0], RING.one
    want = (1 - q, {(1,): one})  # 1 / (1 - q) at p_1

    def failing(route):  # the route that skew_route_sides reports, the other one agreeing
        got, same = _routes_against(monkeypatch, want, route, want)
        assert same is want
        return got

    assert failing(want) is None
    assert failing((q - 1, {(1,): -one})) is None  # den and nums negated
    unreduced = 2 * (1 + q)
    assert failing(((1 - q) * unreduced, {(1,): unreduced})) is None
    assert failing((1 - q, {(1,): one, (2,): RING.zero})) is None  # an extra zero entry
    for route in [(1 - q, {(1,): -one}), (1 - q, {(1,): one, (2,): one}), (1 - q, {})]:
        assert failing(route) is route  # a wrong value, or a key missing on one side
    assert _routes_against(monkeypatch, (1 - q, {}), (one, {}), (q, {}))[0] is None
    # the fock route is reported first, and the diffop route when only it differs
    wrong = (1 - q, {(1,): 2 * one})
    assert _routes_against(monkeypatch, want, wrong, (one, {}))[0] is wrong
    assert _routes_against(monkeypatch, want, want, wrong)[0] == wrong  # formed only now
    for zero_den in [(RING.zero, {(1,): one}), (RING.zero, {})]:
        with pytest.raises(InternalInconsistency):
            _routes_against(monkeypatch, want, zero_den, want)


@given(cleared_maps, pvec_maps, st.sampled_from(["fock", "diffop"]), st.data())
def test_skew_route_sides_agree_with_reducing(cleared, other, route, data):
    den, nums = cleared
    reduced = reduce_ratqt(nums, den)
    target = data.draw(st.sampled_from([
        reduced, other, {**reduced, **other}, {**other, **reduced},
        dict(list(reduced.items())[1:])]))
    agree = reduced == {key: ratqt(c) for key, c in target.items() if c}
    want = clear_ratqt(target)
    with pytest.MonkeyPatch.context() as mp:
        routes = (cleared, want) if route == "fock" else (want, cleared)
        got, _ = _routes_against(mp, want, *routes)
    if agree or route == "fock":
        assert got is (None if agree else cleared)
    else:  # the diffop route is formed from the same numerators, zeros dropped
        assert got == (den, {key: n for key, n in nums.items() if n})


def test_skew_route_with_a_zero_denominator_exits_3(monkeypatch, capsys):
    weights = fock._lowering_weights
    monkeypatch.setattr(fock, "_lowering_weights", lambda mu: (RING.zero, weights(mu)[1]))
    assert main(["skew", "--lam", "2", "--mu", "1", "--format", "json"]) == 3
    assert "internal inconsistency" in capsys.readouterr().err


def test_self_adjointness_failure_reports_its_first_difference(monkeypatch):
    # one shared image, D_1 m_(2,1) in 3 variables, doubled: every record that
    # pairs it on exactly one side with a nonzero pairing fails and names its
    # first coefficient; f = g = (2,1) doubles both sides and still passes
    mu0, n0, order = (2, 1), 3, 4
    original = ctengine.dr_apply
    m_mu0 = evaluate_n(sym_gen("m", mu0), n0)

    def doubled(r, f, n):
        out = original(r, f, n)
        return out.scale(ratqt(2)) if (n, f) == (n0, m_mu0) else out

    passing = verify.run_suite("self-adjoint")
    d1_mu0 = original(1, m_mu0, n0)
    want = set()
    for nu in (lam for d in range(4) for lam in partitions_of(d, max_length=n0)):
        m_nu = evaluate_n(sym_gen("m", nu), n0)
        if nu != mu0 and ctengine.scalar_prime(d1_mu0, m_nu, n0, order):
            want |= {(mu0, nu), (nu, mu0)}  # <D_1 m_mu0, m_nu>' = <m_nu, D_1 m_mu0>'
    assert len(want) == 4
    monkeypatch.setattr(ctengine, "dr_apply", doubled)
    records = verify.run_suite("self-adjoint")
    assert [r["parameters"] for r in records] == [r["parameters"] for r in passing]
    failed = [r for r in records if r["status"] == "fail"]
    assert {(r["parameters"]["f"], r["parameters"]["g"]) for r in failed} == want
    assert all(r["parameters"]["n"] == n0 for r in failed) and len(failed) == len(want)
    for rec in failed:
        detail = rec["detail"]
        assert set(detail) == {"key", "got", "want"} and detail["got"] != detail["want"]
    assert all("detail" not in r for r in records if r["status"] == "pass")
    assert all(r["status"] == "pass" and "detail" not in r for r in passing)


def test_self_adjoint_suite_forms_each_d1_image_once(monkeypatch):
    original = ctengine.dr_apply
    calls = []

    def counted(r, f, n):
        calls.append((r, n, tuple(sorted(f.terms))))
        return original(r, f, n)

    monkeypatch.setattr(ctengine, "dr_apply", counted)
    records = verify.run_suite("self-adjoint", maxweight=3)
    assert len(records) == 6 * 6 + 7 * 7 and all(r["status"] == "pass" for r in records)
    assert len(calls) == 13 == len(set(calls))  # one per (mu, n): 6 for n = 2, 7 for n = 3
    assert {r for r, _, _ in calls} == {1}


def test_first_difference_of_scalars_series_and_maps():
    assert verify.first_difference({(1,): 2}, {(1,): 2}) is None
    assert verify.first_difference(ratqt(1), 0) == {"got": "1", "want": "0"}
    assert verify.first_difference(QTSeries(2, {(0, 1): 3}), QTSeries(2, {(1, 0): 3})) == \
        {"key": "(0, 1)", "got": "3", "want": "0"}
    got = {(1,): QTSeries.one(2), (2,): QTSeries.one(2)}
    assert verify.first_difference(got, {(2,): QTSeries.one(2)}) == \
        {"key": "(1,)", "got": "QTSeries(1; order=2)", "want": "0"}


def test_malformed_partition_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--lam", "x,y"])
    assert exc.value.code == 2


def test_partition_weight_above_the_limit_exits_2(capsys):
    start = time.perf_counter()
    for argv in (["expand", "--lam", "40"], ["skew", "--lam", "2", "--mu", "40"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "above the limit" in capsys.readouterr().err
    assert time.perf_counter() - start < 1
    limit = ",".join("1" * cli.MAX_WEIGHT)
    assert build_parser().parse_args(["expand", "--lam", limit]).lam == (1,) * cli.MAX_WEIGHT


def test_degree_and_maxweight_above_the_limit_exit_2(capsys):
    start = time.perf_counter()
    for argv in (["kostka", "--degree", "12"],
                 ["kostka", "--degree", str(cli.MAX_KOSTKA_DEGREE + 1)],
                 ["verify", "--suite", "orthogonality", "--maxweight", "9"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "above the limit" in capsys.readouterr().err
    assert time.perf_counter() - start < 1
    args = build_parser().parse_args(["kostka", "--degree", str(cli.MAX_KOSTKA_DEGREE)])
    assert args.degree == cli.MAX_KOSTKA_DEGREE == 7
    args = build_parser().parse_args(["verify", "--maxweight", str(cli.MAX_WEIGHT)])
    assert args.maxweight == cli.MAX_WEIGHT


@pytest.mark.parametrize("argv", [
    ["integral", "--lam", "1,1,1,1", "--order", "30"],
    ["norm", "--lam", "1", "--n", "8", "--order", "400"],
    ["verify", "--suite", "integral-reps", "--order", "11"],
    ["norm", "--lam", "1", "--n", "300"],
    ["integral", "--lam", "1,1,1,1,1,1", "--order", "6"],
    ["integral", "--lam", "1,1,1,1,1,1,1,1", "--order", "2"],
], ids=["integral-order", "norm-order", "verify-order", "norm-n", "integral-weight-6",
        "integral-weight-8"])
def test_order_n_and_integral_weight_above_the_limit_exit_2(capsys, argv):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "above the limit" in capsys.readouterr().err
    assert time.perf_counter() - start < 1


def test_order_n_and_integral_weight_at_the_limit_parse():
    parse = build_parser().parse_args
    lam = ",".join("1" * cli.MAX_INTEGRAL_WEIGHT)
    args = parse(["integral", "--lam", lam, "--order", str(cli.MAX_ORDER)])
    assert (args.lam, args.order) == ((1,) * cli.MAX_INTEGRAL_WEIGHT, cli.MAX_ORDER)
    args = parse(["norm", "--lam", "1", "--n", str(cli.MAX_N), "--order", str(cli.MAX_ORDER)])
    assert (args.n, args.order) == (cli.MAX_N, cli.MAX_ORDER)
    assert parse(["verify", "--order", str(cli.MAX_ORDER)]).order == cli.MAX_ORDER
    # the defaults stay inside the ceilings
    assert parse(["integral", "--lam", "2,1"]).order == cli.DEFAULT_ORDER <= cli.MAX_ORDER
    assert parse(["norm", "--lam", "2"]).n is None


def test_broken_shift_operator_exits_3(monkeypatch, capsys):
    # a wrong eigenvalue eps_lam trips the zero mode's diagonal check while
    # the eigen suite builds its first pair
    import macsym
    from macsym import macdonald
    eigenvalue = macdonald._eigenvalue
    monkeypatch.setattr(macdonald, "_eigenvalue", lambda lam, d: eigenvalue(lam, d) + 1)
    macsym.clear_caches()
    try:
        assert main(["verify", "--suite", "eigen", "--maxweight", "1"]) == 3
    finally:
        macsym.clear_caches()
    err = capsys.readouterr().err
    assert err.startswith("error: internal inconsistency: "), err
    assert "diagonal" in err, err


def test_negative_degree_exits_2():
    for argv in (["kostka", "--degree", "-1"],
                 ["verify", "--maxweight", "-1"],
                 ["verify", "--order", "-1"],
                 ["integral", "--lam", "1", "--order", "-1"],
                 ["norm", "--lam", "1", "--order", "-1"],
                 ["expand", "--lam", "1", "--order", "6"]):  # no --order there
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2, argv


def test_norm_fewer_variables_than_parts_exits_2(capsys):
    for n in ("1", "-1"):
        assert main(["norm", "--lam", "2,1", "--n", n]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""


def _cache_text(records, fmt="macsym-macdonald-cache", version=2):
    return json.dumps({"format": fmt, "version": version, "records": records})


def _terms(n):
    return [[a, b, int(c)] for (a, b), c in n.terms()]


def _j_entries(lam, scale=1, shift_at=None):
    """J_lam as cache entries, each times scale, with 1 added at m_shift_at."""
    return [{"partition": list(mu), "terms": _terms(n * scale + int(mu == shift_at))}
            for mu, n in sorted(macdonald_pair(lam).J.items())]


def _j2_with_term(term):
    """The record of J_(2) with one more term in its m_(2) entry."""
    top, rest = _j_entries((2,))
    return _cache_text([{"lambda": [2], "J_in_m": [
        {"partition": [2], "terms": top["terms"] + [term]}, rest]}])


_q = RING.gens[0]
_C12 = _terms(macdonald._arm_leg_products((12,))[0])
_DEEP = [0, 0, json.loads("[" * 20 + "1" + "]" * 20)]


@pytest.mark.parametrize("text, message", [
    ("{not json", "bad cache file"),
    (_cache_text([], fmt="other"), "unrecognized cache file"),
    (_cache_text([{"lambda": [2], "b": "(1 - t)(1 - q*t)/((1 - q)(1 - q^2))",
                   "P_in_m": [{"partition": [2], "coeff": "1"}]}], version=1), "version 1"),
    (_cache_text([{"lambda": [2]}]), "malformed record"),  # J_in_m missing
    # J_(2) times 1 + q: the eigen equation holds, but J[lam] is not c_lam
    (_cache_text([{"lambda": [2], "J_in_m": _j_entries((2,), scale=1 + _q)}]), "c_lam times"),
    (_cache_text([{"lambda": [1, 1], "J_in_m": _j_entries((1, 1)) + [
        {"partition": [2], "terms": [[0, 0, 1]]}]}]), "unitriangular"),
    (_cache_text([{"lambda": [2, 1], "J_in_m": _j_entries((2, 1), shift_at=(1, 1, 1))}]),
     "eigenfunction"),
    # normalized; the weight-12 tables would take hours
    (_cache_text([{"lambda": [12], "J_in_m": [{"partition": [12], "terms": _C12}]}]),
     "above the limit"),
    # parts that are not ints: json writes 1e999 as Infinity
    (_cache_text([{"lambda": [1e999], "J_in_m": _j_entries((2,))}]), "non-integer part"),
    (_cache_text([{"lambda": [1.5], "J_in_m": _j_entries((2,))}]), "non-integer part"),
    (_cache_text([{"lambda": [True], "J_in_m": _j_entries((2,))}]), "non-integer part"),
    (_j2_with_term(_DEEP), "not three ints"),
    ("[" * 100000 + "]" * 100000, "nests too deeply"),
    (_j2_with_term([3, 3, 1.0]), "not three ints"),
    (_j2_with_term([3, 3, True]), "not three ints"),
    (_j2_with_term([3, 3, "1/(1-q)"]), "not three ints"),
    (_j2_with_term([-1, 0, 1]), "exponent outside"),
    (_j2_with_term([0, MAX_EXPONENT + 1, 1]), "exponent outside"),
    (_j2_with_term([3, 3, -2 ** MAX_COEFF_BITS]), f"more than {MAX_COEFF_BITS} bits"),
    (_j2_with_term([0, 0, 1]), "repeated monomial"),  # c_(2) has the constant 1
    (_j2_with_term([3, 3, 0]), "zero c"),
    (_j2_with_term([3, 3]), "not three ints"),
    (_j2_with_term([3, 3, 1, 0]), "not three ints"),
    # past Python's limit on digits in an int literal: rejected while the JSON is read
    (_j2_with_term([3, 3, 123456789]).replace("123456789", "7" * 5000), "bad cache file"),
    # a junk m_(1,1,1,0) entry before the real m_(1,1,1) one, then the same record twice
    (_cache_text([{"lambda": [2, 1], "J_in_m": [{"partition": [1, 1, 1, 0], "terms": [[5, 5, 7]]}]
                   + _j_entries((2, 1))}]), "repeats the entry"),
    (_cache_text([{"lambda": [2, 1], "J_in_m": _j_entries((2, 1))}] * 2), "repeats the record"),
], ids=["malformed-json", "wrong-header", "version-1", "missing-key", "wrong-normalization",
        "not-unitriangular", "not-an-eigenfunction", "weight-above-the-limit", "infinite-part",
        "float-part", "bool-part", "nested-term", "nested-json", "float-c", "bool-c",
        "string-c", "negative-exponent", "huge-exponent", "huge-c", "repeated-monomial", "zero-c",
        "short-term", "long-term", "5000-digit-c", "repeated-entry", "repeated-record"])
def test_bad_cache_file_exits_2(tmp_path, capsys, text, message):
    cache = tmp_path / "cache.json"
    cache.write_text(text)
    start = time.perf_counter()
    assert main(["--cache-path", str(cache), "verify", "--suite", "orthogonality",
                 "--maxweight", "2"]) == 2
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert cache.read_text() == text  # a rejected cache is not overwritten


def test_unreadable_cache_path_exits_2(tmp_path, capsys):
    assert main(["--cache-path", str(tmp_path), "expand", "--lam", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_unwritable_cache_path_exits_2(tmp_path, capsys):
    cache = tmp_path / "missing" / "c.json"
    assert main(["--cache-path", str(cache), "expand", "--lam", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write cache file: "), err
    assert not cache.parent.exists()


@pytest.mark.parametrize("error, code", [(InternalInconsistency, 3),
                                         (NotSeriesExpandable, 1)])
def test_macsym_error_exit_codes(monkeypatch, capsys, error, code):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_expand", fail)
    assert main(["expand", "--lam", "1"]) == code
    assert capsys.readouterr().err.startswith("error: ")


def test_cache_path_round_trip(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    assert main(["--cache-path", str(cache), "expand", "--lam", "2,1"]) == 0
    capsys.readouterr()
    assert cache.exists()
    data = json.loads(cache.read_text())
    assert any(rec["lambda"] == [2, 1] for rec in data["records"])
    assert main(["--cache-path", str(cache), "expand", "--lam", "2,1"]) == 0


ARGV_WORDS = ["expand", "norm", "skew", "kostka", "integral", "verify", "--lam", "--mu",
              "--degree", "--maxweight", "--order", "--n", "--suite", "--format",
              "--what", "--basis", "--dual", "--cache-path", "--help", "-h", "all",
              "eigen", "json", "tsv", "P", "p", "0", "1", "2,1", "-1", "8", "9", "12",
              "1,2", "x", "", "3,3,3", "1e3"]


@given(st.lists(st.sampled_from(ARGV_WORDS) | st.integers(-20, 20).map(str), max_size=6))
def test_fuzzed_argv_parses_or_exits_0_or_2(argv):
    # parse only: no command runs
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            build_parser().parse_args(argv)
    except SystemExit as exc:
        assert exc.code in (0, 2), (argv, exc.code)
