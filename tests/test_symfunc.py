import random

import pytest
from hypothesis import given, strategies as st

import macsym
from macsym.coeff import FIELD, RING, ratqt, reduce_ratqt, to_series
from macsym.partitions import partitions_of
from macsym.symfunc import (BASES, NPoly, SymFunc, basis_to_m, convert, convert_cleared,
                            evaluate_n, m_to_basis, multiply, npoly_divexact, sym_gen)

from oracles import (NotSymmetric, UnstableRange, convert_termwise, from_poly,
                     gen_expansion_by_product, schur_bialternant)
from strategies import degree_maps, pvec_maps


def test_convert_examples():
    assert convert(sym_gen("p", (2,)), "m") == sym_gen("m", (2,))
    assert convert(sym_gen("p", (1, 1)), "m") == SymFunc(
        "m", {(2,): ratqt(1), (1, 1): ratqt(2)})
    assert convert(sym_gen("e", (2,)), "m") == sym_gen("m", (1, 1))
    assert convert(sym_gen("s", (2, 1)), "m") == SymFunc(
        "m", {(2, 1): ratqt(1), (1, 1, 1): ratqt(2)})


@pytest.mark.parametrize("basis", ["p", "e", "h", "s"])
def test_m_to_basis_is_the_integer_inverse_of_basis_to_m(basis):
    for d in range(7):
        den, rows = m_to_basis(basis, d)
        to_m = basis_to_m(basis, d)
        assert type(den) is int and den > 0
        for mu, row in rows.items():
            assert all(type(c) is int and c for c in row.values())
            prod = {}
            for lam, c in row.items():
                for nu, v in to_m[lam].items():
                    prod[nu] = prod.get(nu, 0) + c * v
            assert {nu: v for nu, v in prod.items() if v} == {mu: den}, (d, mu)


@pytest.mark.parametrize("kind", ["p", "e", "h"])
def test_generator_tables_against_the_d_variable_product(kind):
    for d in range(7):
        assert basis_to_m(kind, d) == {lam: gen_expansion_by_product(kind, lam)
                                       for lam in partitions_of(d)}, d


def test_generator_tables_multiply_no_polynomials(monkeypatch):
    # negative control: the Pieri step builds the tables on partitions alone
    def refuse(self, other):
        raise AssertionError("a p, e or h table multiplied NPolys")

    macsym.clear_caches()
    try:
        with monkeypatch.context() as m:
            m.setattr(NPoly, "__mul__", refuse)
            m.setattr(NPoly, "__rmul__", refuse)
            for kind in "peh":
                assert len(basis_to_m(kind, 7)) == 15
    finally:
        macsym.clear_caches()


def test_schur_against_bialternant_oracle():
    for lam in [(2,), (1, 1), (2, 1), (3, 1), (2, 2)]:
        n = sum(lam)
        got = evaluate_n(sym_gen("s", lam), n).terms
        want = {e: ratqt(c) for e, c in schur_bialternant(lam, n).items()}
        assert got == want, lam


def test_multiply_examples():
    p1 = sym_gen("p", (1,))
    assert multiply(p1, p1) == sym_gen("p", (1, 1))
    one = sym_gen("p", ())
    f = SymFunc("p", {(2, 1): ratqt(3)})
    assert multiply(one, f) == f
    m1 = sym_gen("m", (1,))
    assert convert(multiply(m1, m1), "m") == SymFunc(
        "m", {(2,): ratqt(1), (1, 1): ratqt(2)})


def test_evaluate_examples():
    assert not evaluate_n(sym_gen("m", (1, 1)), 1)
    assert evaluate_n(sym_gen("p", (2,)), 2).terms == {(2, 0): ratqt(1), (0, 2): ratqt(1)}
    e2 = evaluate_n(sym_gen("e", (2,)), 3)
    assert e2.terms == {(1, 1, 0): ratqt(1), (1, 0, 1): ratqt(1), (0, 1, 1): ratqt(1)}


def test_from_poly_examples():
    g = NPoly(2, {(1, 0): ratqt(1), (0, 1): ratqt(1)})
    assert from_poly(g) == sym_gen("m", (1,))
    g = NPoly(2, {(2, 1): ratqt(1), (1, 2): ratqt(1)})
    assert from_poly(g) == sym_gen("m", (2, 1))
    with pytest.raises(NotSymmetric):
        from_poly(NPoly(2, {(2, 1): ratqt(1)}))
    with pytest.raises(NotSymmetric):
        from_poly(NPoly(2, {(2, 1): ratqt(1), (1, 2): ratqt(2)}))
    with pytest.raises(UnstableRange):
        from_poly(NPoly(2, {(2, 1): ratqt(1), (1, 2): ratqt(1)}),
                  require_stable=True)


def test_round_trips_all_bases():
    rng = random.Random(7)
    bases = ["p", "m", "e", "h", "s"]
    for _ in range(12):
        d = rng.randint(1, 6)
        terms = {lam: ratqt(rng.randint(-3, 3))
                 for lam in partitions_of(d) if rng.random() < 0.7}
        src, dst = rng.sample(bases, 2)
        f = SymFunc(src, terms)
        assert convert(convert(f, dst), src) == f


def test_evaluate_from_poly_round_trip():
    rng = random.Random(3)
    for _ in range(6):
        d = rng.randint(1, 4)
        f = SymFunc("m", {lam: ratqt(rng.randint(-3, 3)) for lam in partitions_of(d)})
        n = d + rng.randint(0, 2)
        assert from_poly(evaluate_n(f, n)) == f


def test_multiply_commutative_associative():
    rng = random.Random(11)
    for _ in range(4):
        fs = [SymFunc("m", {lam: ratqt(rng.randint(-2, 2))
                            for lam in partitions_of(rng.randint(1, 2))})
              for _ in range(3)]
        a, b, c = fs
        assert multiply(a, b) == multiply(b, a)
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_newton_identity_consistency():
    # k e_k = sum_{i=1..k} (-1)^(i-1) p_i e_{k-i}, checked through conversions
    for k in range(1, 7):
        lhs = sym_gen("e", (k,), coeff=k)
        rhs = SymFunc("p")
        for i in range(1, k + 1):
            term = multiply(sym_gen("p", (i,)), sym_gen("e", (k - i,) if k > i else ()))
            rhs = rhs + term.scale(ratqt(-1) ** (i - 1))
        assert convert(lhs, "p") == rhs


def test_npoly_divexact():
    A = NPoly(2, {(2, 0): ratqt(1), (0, 2): ratqt(-1)})
    B = NPoly(2, {(1, 0): ratqt(1), (0, 1): ratqt(-1)})
    assert npoly_divexact(A, B).terms == {(1, 0): ratqt(1), (0, 1): ratqt(1)}
    with pytest.raises(ArithmeticError):
        npoly_divexact(NPoly(2, {(1, 0): ratqt(1)}),
                       NPoly(2, {(0, 1): ratqt(1)}))


def test_npoly_divexact_ring_coefficient_that_does_not_divide():
    # sympy's ExactQuotientFailed is not an ArithmeticError; it must not escape
    q, t = RING.gens
    with pytest.raises(ArithmeticError):
        npoly_divexact(NPoly(1, {(1,): q}), NPoly(1, {(1,): 1 + q}))
    assert npoly_divexact(NPoly(1, {(1,): q + q * q}),
                          NPoly(1, {(1,): 1 + q})).terms == {(0,): q}


def test_inhomogeneous_conversion():
    f = SymFunc("p", {(): ratqt(5), (1,): ratqt(1), (2, 1): ratqt(2)})
    assert convert(convert(f, "m"), "p") == f


@given(pvec_maps, st.sampled_from(BASES), st.sampled_from(BASES))
def test_convert_matches_the_termwise_conversion(terms, src, dst):
    f = SymFunc(src, terms).map_coeffs(ratqt)
    assert convert(f, dst) == convert_termwise(f, dst)


@pytest.mark.parametrize("src, dst", [(a, b) for a in BASES for b in BASES if a != b])
@given(degree_maps)
def test_convert_cleared_reduces_to_the_termwise_conversion(src, dst, dmap):
    d, nums = dmap
    den, out = convert_cleared(nums, src, dst, d)
    assert type(den) is int and den > 0 and (dst != "m" or den == 1)
    f = SymFunc(src, nums).map_coeffs(FIELD)
    got = SymFunc(dst, reduce_ratqt(out, RING(den)))
    assert got == convert(f, dst) == convert_termwise(f, dst)


@pytest.mark.parametrize("src", [b for b in BASES if b != "m"])
@given(degree_maps)
def test_convert_cleared_takes_series_into_m(src, dmap):
    # expanding each coefficient commutes with the change of basis; order 4 is exact
    # for the Z[q,t] values drawn, of degree at most 2 in each of q and t
    d, nums = dmap
    series = {lam: to_series(FIELD(c), 4) for lam, c in nums.items()}
    den, out = convert_cleared(series, src, "m", d)
    want = convert(SymFunc(src, nums).map_coeffs(FIELD), "m")
    assert den == 1 and out == {mu: to_series(c, 4) for mu, c in want.terms.items()}
    assert convert(SymFunc(src, series), "m").terms == out
