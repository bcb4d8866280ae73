from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from macsym.coeff import (FIELD, ONE, Q, QPochProduct, QTSeries, T, add_into,
                          emit_ratqt, parse_ratqt, ratqt, substitute, swap_qt,
                          to_series)
from macsym.errors import NotSeriesExpandable, SpecializationPole

from oracles import dense_from_qtseries, dense_inv, dense_mul, poch_dense


def test_arith_examples():
    assert parse_ratqt("1-t^2") / parse_ratqt("1-t") == 1 + T
    assert parse_ratqt("(1-q)(1-t)") / parse_ratqt("(1-t)(1-q)") == 1
    assert parse_ratqt("(1-t)/(1-q)") * parse_ratqt("(1-q)/(1-t)") == 1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / FIELD.zero


def test_add_into_drops_cancelled_keys():
    out = {"a": ONE, "b": 2 * Q}
    assert add_into(out, {"a": -ONE, "c": T}) is out
    assert out == {"b": 2 * Q, "c": T}  # "a" cancelled to zero and was deleted
    add_into(out, {"b": Q, "d": ONE}, scale=-2)
    assert out == {"c": T, "d": -2 * ONE}
    add_into(out, {"c": ONE, "e": ONE}, scale=FIELD.zero)
    assert out == {"c": T, "d": -2 * ONE}  # a zero scale stores nothing
    assert add_into({}, {"z": FIELD.zero}) == {}  # a zero term is never stored


def test_to_series_examples():
    s = to_series(parse_ratqt("1/(1-q)"), 2)
    assert s.coeffs == {(0, 0): 1, (1, 0): 1, (2, 0): 1}
    s = to_series(parse_ratqt("(1-t)/(1-q)"), 1)
    assert s.coeffs == {(0, 0): 1, (1, 0): 1, (0, 1): -1}
    with pytest.raises(NotSeriesExpandable):
        to_series(parse_ratqt("1/q"), 3)


def test_substitute_examples():
    r = parse_ratqt("(1-t)/(1-q)")
    assert substitute(r, Q, Q) == 1          # t -> q
    assert substitute(r, 0, T) == 1 - T      # q -> 0
    x = parse_ratqt("(1+q)(1-t)/(1-q*t)")
    assert substitute(x, 1 / Q, 1 / T) == x  # Laurent clearing
    with pytest.raises(SpecializationPole):
        substitute(parse_ratqt("1/(1-q)"), 1, T)


def test_substitute_fraction_images():
    r = parse_ratqt("(1-t)/(1-q)")
    assert substitute(r, Fraction(1, 2), Fraction(1, 3)) == ratqt(Fraction(4, 3))


def test_swap_qt_involution():
    x = parse_ratqt("(1+q)(1-t)/(1-q*t^2)")
    assert swap_qt(swap_qt(x)) == x


small_ints = st.integers(min_value=-4, max_value=4)


@st.composite
def ratqt_values(draw, nonzero=False):
    terms = draw(st.lists(
        st.tuples(small_ints, st.integers(0, 2), st.integers(0, 2)),
        min_size=1, max_size=3))
    val = FIELD.zero
    for c, a, b in terms:
        val += c * Q ** a * T ** b
    if nonzero and not val:
        val = ONE + Q
    return val


@given(ratqt_values(), ratqt_values(), ratqt_values(nonzero=True))
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert (a / c) * c == a


@given(ratqt_values(nonzero=True), st.integers(1, 8))
def test_series_is_ring_homomorphism(a, order):
    b = 1 - Q * T + T
    assert to_series(a * b, order) == to_series(a, order) * to_series(b, order)
    assert to_series(a + b, order) == to_series(a, order) + to_series(b, order)


@given(ratqt_values(), ratqt_values())
def test_substitute_commutes_with_arithmetic(a, b):
    try:
        sa, sb = substitute(a, 0, Q), substitute(b, 0, Q)
    except SpecializationPole:
        return
    assert substitute(a * b, 0, Q) == sa * sb
    assert substitute(a + b, 0, Q) == sa + sb


def test_canonical_form_invariants():
    # coprime, content-free, sign-normalized after arithmetic
    x = (2 - 2 * T) / (4 - 4 * Q)
    assert x.numer.LC in (1, -1) or int(x.numer.LC) % 2 != 0
    y = (1 - T * T) / (1 - T)
    assert y == 1 + T and y.denom == FIELD.ring.one
    zero = (1 - Q) - (1 - Q)
    assert not zero and zero.denom == FIELD.ring.one


def test_parse_emit_round_trip():
    for text in ["(1 - t + q*t)/(1 - q)", "1 - q + t^2", "q^3*t - 2", "(1+q)(1-t)/(1-q*t)"]:
        val = parse_ratqt(text)
        assert parse_ratqt(emit_ratqt(val)) == val
    assert emit_ratqt(parse_ratqt("(1-t)/(1-q)")) == "(1 - t)/(1 - q)"


def test_series_inverse_against_dense_oracle():
    s = to_series(parse_ratqt("1 - q - t + 3*q*t"), 5)
    inv = s.inverse()
    assert dense_from_qtseries(inv) == dense_inv(dense_from_qtseries(s))
    assert s * inv == QTSeries.one(5)


def test_series_truncation_discards_overflow():
    s = QTSeries(3, {(1, 1): 1, (3, 1): 5})
    assert (3, 1) not in s.coeffs
    prod = QTSeries(3, {(2, 0): 1}) * QTSeries(3, {(2, 0): 1})
    assert not prod


def test_qpoch_product_against_dense_oracle():
    # (t;q)oo (qt;q)oo / ((t^2;q)oo (q;q)oo) at order 4
    prod = (QPochProduct.poch(0, 1) * QPochProduct.poch(1, 1)
            / (QPochProduct.poch(0, 2) * QPochProduct.poch(1, 0)))
    got = prod.to_series(4)
    want = dense_mul(
        dense_mul(poch_dense(0, 1, 4), poch_dense(1, 1, 4)),
        dense_inv(dense_mul(poch_dense(0, 2, 4), poch_dense(1, 0, 4))))
    assert dense_from_qtseries(got) == want


def test_qpoch_cancellation():
    prod = QPochProduct.poch(0, 1) / QPochProduct.poch(0, 1)
    assert prod.factors == {}
    assert prod.to_series(3) == QTSeries.one(3)
