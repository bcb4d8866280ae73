from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from sympy.polys.rings import PolyElement

import macsym
from macsym import symfunc, verify
from macsym.coeff import (FIELD, MAX_EXPONENT, MAX_NESTING, ONE, Q, QPochProduct,
                          QTSeries, RatQT, RING, T, _packing_layout, add_into, clear_denominators,
                          clear_ratqt, cleared_series, divide_back, emit_ratqt,
                          invert, parse_ratqt, ratqt, reduce_ratqt,
                          sums_of_products_equal, swap_qt, to_series)
from macsym.errors import InternalInconsistency, NotSeriesExpandable, SpecializationPole
from macsym.macdonald import macdonald_pair
from macsym.partitions import partitions_of
from macsym.symfunc import basis_to_m, m_to_basis

from oracles import (dense_from_qtseries, dense_inv, dense_mul, invert_dividing,
                     parse_ratqt_field, poch_dense, series_mul_fraction, substitute)
from strategies import ratqt_values


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


def test_clear_ratqt_examples():
    assert clear_ratqt({}) == (RING.one, {})
    den, nums = clear_ratqt({"a": 1 / (1 - Q), "b": Q / (1 - Q ** 2), "c": Fraction(1, 2)})
    assert den in (2 - 2 * Q ** 2, 2 * Q ** 2 - 2)  # the lcm, up to sign
    assert reduce_ratqt(nums, den) == {"a": 1 / (1 - Q), "b": Q / (1 - Q ** 2),
                                       "c": ratqt(Fraction(1, 2))}
    # a denominator that divides the running lcm leaves it as it is
    assert clear_ratqt({"a": 1 / (1 - Q ** 2), "b": 1 / (1 - Q)})[0] == clear_ratqt(
        {"a": 1 / (1 - Q ** 2)})[0]
    assert reduce_ratqt({"z": RING.zero, "o": RING.one}, RING.one) == {"o": ONE}


@given(st.dictionaries(st.integers(0, 9), ratqt_values, max_size=6))
def test_clear_then_reduce_is_the_identity(terms):
    den, nums = clear_ratqt(terms)
    assert set(nums) == set(terms)
    assert all(isinstance(n, PolyElement) for n in nums.values())
    for c in map(ratqt, terms.values()):
        assert not den.rem(c.denom)  # every denominator divides den
    got = reduce_ratqt(nums, den)
    assert got == {key: ratqt(c) for key, c in terms.items() if c}
    # the canonical pair, as the field's own arithmetic leaves it
    assert all((v.numer, v.denom) == (ratqt(terms[k]).numer, ratqt(terms[k]).denom)
               for k, v in got.items())


# Z[q,t] factors with large coefficients of both signs; the zero polynomial included
_factors = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                           st.integers(-2 ** 70, 2 ** 70), max_size=4).map(RING.from_dict)
_sides = st.lists(st.lists(_factors, max_size=3).map(tuple), max_size=4)


def _ring_sum(side):
    return sum((prod(term, start=RING.one) for term in side), RING.zero)


@st.composite
def _equations(draw):
    """(lhs, rhs): rhs random, or lhs rearranged, expanded, or expanded and perturbed."""
    lhs = draw(_sides)
    kind = draw(st.sampled_from(["random", "rearranged", "expanded", "perturbed"]))
    if kind == "random":
        return lhs, draw(_sides)
    if kind == "rearranged":  # the same operand objects, terms and factors reversed
        return lhs, [term[::-1] for term in reversed(lhs)]
    total = _ring_sum(lhs)
    if kind == "perturbed":
        a, b = draw(st.integers(0, 12)), draw(st.integers(0, 12))
        total += draw(st.sampled_from([1, -1, 2 ** 70])) * RING.gens[0] ** a * RING.gens[1] ** b
    return lhs, [(total,)] if draw(st.booleans()) else [(RING.one, total)]


@given(st.lists(_equations(), min_size=1, max_size=3))
def test_sums_of_products_equal_agrees_with_the_ring(equations):
    want = [_ring_sum(lhs) == _ring_sum(rhs) for lhs, rhs in equations]
    assert list(sums_of_products_equal(equations)) == want


def test_sums_of_products_equal_examples():
    q, t = RING.gens
    assert list(sums_of_products_equal([])) == []
    assert list(sums_of_products_equal([([], []), ([()], [(RING.one,)]),
                                        ([(RING.zero, q)], [])])) == [True, True, True]
    f = 1 - q * t
    assert list(sums_of_products_equal([([(f, f)], [(1 - 2 * q * t + q ** 2 * t ** 2,)]),
                                        ([(f, 1 + q * t)], [(1 - q ** 2 * t,)])])) \
        == [True, False]


@pytest.mark.parametrize("k", [2, 5, 19, 64])
def test_sums_of_products_equal_one_bit_past_a_collision(k):
    # 2^k - 1 and q - 1 agree at q = 2^k: a layout one bit narrower than the
    # helper's maps them to one integer, and the helper tells them apart
    q = RING.gens[0]
    f, g = RING(2 ** k - 1), q - 1
    equations = [([(f,)], [(g,)])]
    bits, width = _packing_layout(equations)
    assert (bits, width) == (k + 1, 2)
    narrow = 2 ** (bits - 1)
    assert f(narrow, narrow ** width) == g(narrow, narrow ** width)
    assert list(sums_of_products_equal(equations)) == [False]
    assert list(sums_of_products_equal([([(f,)], [(f,)]), ([(g,)], [(g,)])])) == [True, True]


def test_to_series_examples():
    s = to_series(parse_ratqt("1/(1-q)"), 2)
    assert s.coeffs == {(0, 0): 1, (1, 0): 1, (2, 0): 1}
    s = to_series(parse_ratqt("(1-t)/(1-q)"), 1)
    assert s.coeffs == {(0, 0): 1, (1, 0): 1, (0, 1): -1}
    with pytest.raises(NotSeriesExpandable):
        to_series(parse_ratqt("1/q"), 3)


def test_cleared_series_reads_any_representative():
    # unreduced numerators over one denominator with content 6 and constant
    # term 18 give the series of the reduced fractions; zero series drop out
    q, t = RING.gens
    extra = 6 * (1 - q * t) * (3 - t)
    nums = {"a": (1 - t) * extra, "b": RING.zero, "c": 2 * extra, "d": q ** 3 * extra}
    got = cleared_series((1 - q) * extra, nums, 2)
    assert got == {"a": to_series(parse_ratqt("(1-t)/(1-q)"), 2),
                   "c": to_series(parse_ratqt("2/(1-q)"), 2)}
    assert got["c"].coeffs == {(0, 0): 2, (1, 0): 2, (2, 0): 2}  # ints where exact
    assert cleared_series(4, {"x": 2 * q + RING(1)}, 1)["x"].coeffs == \
        {(0, 0): Fraction(1, 4), (1, 0): Fraction(1, 2)}
    with pytest.raises(NotSeriesExpandable):
        cleared_series(q * (1 - t), {"x": q}, 3)


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


def _assert_swap_matches_substitute(r):
    got = swap_qt(r)
    assert got == substitute(r, T, Q)
    canonical = FIELD.new(got.numer, got.denom)
    assert (got.numer, got.denom) == (canonical.numer, canonical.denom)
    back = swap_qt(got)
    assert (back.numer, back.denom) == (r.numer, r.denom)


def test_swap_qt_equals_substitute_on_the_macdonald_tables():
    for d in range(6):
        for lam in partitions_of(d):
            pair = macdonald_pair(lam)
            for table in (pair.P, pair.P_p, pair.Qf):
                for c in table.terms.values():
                    _assert_swap_matches_substitute(c)
            _assert_swap_matches_substitute(pair.b)


@settings(max_examples=300)
@given(st.text(alphabet="0123456789qt+-*/^() ", max_size=20))
def test_swap_qt_equals_substitute_on_fuzzed_input(text):
    try:
        value = parse_ratqt(text)
    except (ValueError, ZeroDivisionError):
        return
    _assert_swap_matches_substitute(value)


def test_swap_qt_makes_no_field_arithmetic_call(monkeypatch):
    def forbidden(*args):
        raise AssertionError("field arithmetic in swap_qt")

    x = parse_ratqt("(3 - q^2*t)/(2*t - 5*q^3 + q*t^4)")
    want = substitute(x, T, Q)
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__pow__", "new"):
        monkeypatch.setattr(RatQT, name, forbidden)
    for name in ("cancel", "gcd", "cofactors"):
        monkeypatch.setattr(PolyElement, name, forbidden)
    got = swap_qt(x)
    monkeypatch.undo()
    assert got == want


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


@pytest.mark.parametrize("text", [
    "(1+q+t)^1200",  # a power of a sum: 12 bytes, about 1 GB to expand
    "(1-q^1000*t^1000)/(1-q^999*t^999)",  # a gcd that does not finish in minutes
    f"q^{MAX_EXPONENT + 1}", f"t^-{MAX_EXPONENT + 1}", "2^3", "(q)^2", "-(t)^2",
    # nesting past the recursive descent's stack, and just past the bound
    pytest.param("(" * 3000 + "1" + ")" * 3000, id="3000-parentheses"),
    pytest.param("1*" + "-" * 5000 + "1", id="5000-minus-signs"),
    pytest.param("(" * (MAX_NESTING + 1) + "q" + ")" * (MAX_NESTING + 1),
                 id="parentheses-past-MAX_NESTING"),
    pytest.param("1*" + "-" * (MAX_NESTING + 1) + "q", id="minus-signs-past-MAX_NESTING"),
])
def test_parse_rejects_unbounded_powers(text):
    with pytest.raises(ValueError):
        parse_ratqt(text)


def test_parse_accepts_exponents_up_to_the_bound():
    assert parse_ratqt(f"q^{MAX_EXPONENT}*t**-{MAX_EXPONENT}") == \
        Q ** MAX_EXPONENT / T ** MAX_EXPONENT
    assert parse_ratqt("-q^2") == -Q ** 2
    assert parse_ratqt("(" * MAX_NESTING + "q" + ")" * MAX_NESTING) == Q
    assert parse_ratqt("1*" + "-" * MAX_NESTING + "q") == Q


@settings(max_examples=500)
@given(st.text(alphabet="0123456789qt+-*/^() ", max_size=20))
def test_parse_ratqt_fuzz(text):
    try:
        value = parse_ratqt(text)
    except (ValueError, ZeroDivisionError):
        return
    assert isinstance(value, RatQT)


def _parsed_or_error(parse, text):
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


@settings(max_examples=500)
@given(st.text(alphabet="0123456789qt+-*/^() ", max_size=20))
def test_parse_ratqt_matches_the_field_evaluator(text):
    # the same value, or the same exception class
    assert _parsed_or_error(parse_ratqt, text) == _parsed_or_error(parse_ratqt_field, text)


def test_parse_makes_one_reduction_per_emitted_coefficient(monkeypatch):
    texts = []
    for d in range(6):
        for lam in partitions_of(d):
            pair = macdonald_pair(lam)
            texts.append(emit_ratqt(pair.b))
            for table in (pair.P, pair.P_p, pair.Qf):
                texts += [emit_ratqt(c) for c in table.terms.values()]
    want = [_parsed_or_error(parse_ratqt_field, text) for text in texts]

    def forbidden(*args):
        raise AssertionError("field arithmetic in parse_ratqt")

    reductions = []
    cancel = PolyElement.cancel

    def counted(f, g):
        reductions.append(g)
        return cancel(f, g)

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__pow__"):
        monkeypatch.setattr(RatQT, name, forbidden)
    monkeypatch.setattr(PolyElement, "cancel", counted)
    got = []
    for text in texts:
        reductions.clear()
        got.append(parse_ratqt(text))
        assert len(reductions) == 1, text
    monkeypatch.undo()
    assert got == want


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


@st.composite
def sparse_series(draw, order, fractions=True):
    """A sparse QTSeries with int (or int and Fraction) coefficients, part of it cancelled."""
    key = st.integers(0, order).flatmap(
        lambda a: st.tuples(st.just(a), st.integers(0, order - a)))
    coeff = (st.one_of(small_ints, st.fractions(-3, 3, max_denominator=4)) if fractions
             else small_ints)
    terms = draw(st.dictionaries(key, coeff, max_size=6))
    s = QTSeries(order, terms)
    # subtract some of its own terms: keys that cancel to zero must vanish
    cancel = draw(st.sets(st.sampled_from(sorted(terms)))) if terms else set()
    return s - QTSeries(order, {e: terms[e] for e in cancel})


@given(st.integers(0, 8).flatmap(lambda n: st.tuples(sparse_series(n), sparse_series(n))))
def test_series_product_against_dense_oracle(operands):
    a, b = operands
    prod = a * b
    assert all(prod.coeffs.values())  # no zero is stored
    assert all(x >= 0 and y >= 0 and x + y <= a.order for x, y in prod.coeffs)
    want = dense_mul(dense_from_qtseries(a), dense_from_qtseries(b))
    assert dense_from_qtseries(prod) == want
    assert dense_from_qtseries(b * a) == want
    # a binomial and its conjugate cancel the middle term: (1 + q)(1 - q) = 1 - q^2
    one_q = QTSeries(a.order, {(0, 0): 1, (1, 0): 1})
    assert one_q * QTSeries(a.order, {(0, 0): 1, (1, 0): -1}) == \
        QTSeries(a.order, {(0, 0): 1, (2, 0): -1})


@given(st.integers(0, 8).flatmap(lambda n: st.tuples(
    sparse_series(n, fractions=False), sparse_series(n))), st.booleans())
def test_series_product_against_fraction_oracle(operands, swap):
    ints, mixed = operands
    a, b = (mixed, ints) if swap else (ints, mixed)
    prod = a * b
    assert prod == series_mul_fraction(a, b)
    # an integral coefficient comes back as an int, any other as a Fraction
    for c in prod.coeffs.values():
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)
    square = ints * ints
    assert square == series_mul_fraction(ints, ints)
    assert all(type(c) is int for c in square.coeffs.values())


def test_clear_denominators_round_trip():
    ints = {(0, 0): 3, (1, 0): -2}
    assert clear_denominators(ints) == (1, ints)
    assert clear_denominators(ints)[1] is ints  # an all-int dict is not copied
    mixed = {(0, 0): Fraction(1, 6), (0, 1): -3, (2, 0): Fraction(-3, 4), (1, 1): Fraction(5)}
    den, cleared = clear_denominators(mixed)
    assert den == 12 and cleared == {(0, 0): 2, (0, 1): -36, (2, 0): -9, (1, 1): 60}
    assert all(type(c) is int for c in cleared.values())
    back = divide_back(cleared, den)
    assert back == mixed and type(back[(1, 1)]) is int and type(back[(0, 0)]) is Fraction


def test_qpoch_product_against_dense_oracle():
    # (t;q)oo (qt;q)oo / ((t^2;q)oo (q;q)oo) at order 4
    prod = (QPochProduct.poch(0, 1) * QPochProduct.poch(1, 1)
            / (QPochProduct.poch(0, 2) * QPochProduct.poch(1, 0)))
    got = prod.to_series(4)
    want = dense_mul(
        dense_mul(poch_dense(0, 1, 4), poch_dense(1, 1, 4)),
        dense_inv(dense_mul(poch_dense(0, 2, 4), poch_dense(1, 0, 4))))
    assert dense_from_qtseries(got) == want


def test_qpoch_product_powers_prefactor_and_a_base_past_the_order():
    # (t;q)oo^2 (q^3 t^2;q)oo / (q;q)oo^3 times 2/3 at order 4; q^3 t^2 expands to 1
    prod = (QPochProduct(Fraction(2, 3)) * QPochProduct.poch(0, 1, 2) * QPochProduct.poch(3, 2)
            / QPochProduct.poch(1, 0, 3))
    want = dense_mul(dense_mul(poch_dense(0, 1, 4), poch_dense(0, 1, 4)),
                     dense_inv(dense_mul(dense_mul(poch_dense(1, 0, 4), poch_dense(1, 0, 4)),
                                         poch_dense(1, 0, 4))))
    assert dense_from_qtseries(prod.to_series(4) * Fraction(3, 2)) == want
    # a single factor comes back as a copy: mutating it leaves the next expansion whole
    single = QPochProduct.poch(0, 1).to_series(4)
    single.coeffs.clear()
    assert dense_from_qtseries(QPochProduct.poch(0, 1).to_series(4)) == poch_dense(0, 1, 4)


def test_qpoch_cancellation():
    prod = QPochProduct.poch(0, 1) / QPochProduct.poch(0, 1)
    assert prod.factors == {}
    assert prod.to_series(3) == QTSeries.one(3)


def _times(a, b, keys):
    """The product of two sparse square matrices {row: {col: entry}}, zeros dropped."""
    out = {}
    for i in keys:
        row = {}
        for k, x in a.get(i, {}).items():
            add_into(row, b.get(k, {}), x)
        out[i] = row
    return out


def test_invert_a_fraction_matrix():
    keys = ["a", "b", "c"]
    # the first column's first entry is zero, so the elimination has to swap rows
    mat = {"a": {"b": Fraction(2), "c": Fraction(1, 3)},
           "b": {"a": Fraction(1), "b": Fraction(-1, 2)},
           "c": {"a": Fraction(4), "c": Fraction(5)}}
    inv = invert(mat, keys)
    assert all(type(c) is Fraction for row in inv.values() for c in row.values())
    identity = {k: {k: 1} for k in keys}
    assert _times(mat, inv, keys) == identity
    assert _times(inv, mat, keys) == identity


def test_invert_a_ratqt_matrix():
    keys = [0, 1]
    mat = {0: {0: 1 - Q, 1: T}, 1: {0: ONE, 1: (1 - T) / (1 - Q)}}
    inv = invert(mat, keys)
    assert all(isinstance(c, RatQT) for row in inv.values() for c in row.values())
    det = (1 - T) - T
    assert inv == {0: {0: (1 - T) / (1 - Q) / det, 1: -T / det},
                   1: {0: -1 / det, 1: (1 - Q) / det}}
    assert _times(mat, inv, keys) == {0: {0: ONE}, 1: {1: ONE}}


@pytest.mark.parametrize("mat", [
    {0: {0: Fraction(1), 1: Fraction(2)}, 1: {0: Fraction(2), 1: Fraction(4)}},
    {0: {0: 1 - Q, 1: 1 - Q ** 2}, 1: {0: ONE, 1: 1 + Q}},
    {0: {0: Fraction(1)}},  # row 1 is empty
], ids=["fraction", "ratqt", "zero-row"])
def test_invert_a_singular_matrix_raises(mat):
    with pytest.raises(InternalInconsistency, match="singular"):
        invert(mat, [0, 1])


def test_invert_callers_read_what_dividing_by_every_pivot_gives(monkeypatch):
    """A pivot of 1 divides nothing: the s rows, every m_to_basis table and the
    degree-d Cauchy equations equal (==) what the elimination that divides every
    pivot row gives, for d <= 5."""
    def tables():
        return [(basis_to_m("s", d), {b: m_to_basis(b, d) for b in "mpehs"},
                 verify.cauchy_equations(d)) for d in range(6)]

    macsym.clear_caches()
    got = tables()
    with monkeypatch.context() as patch:
        for module in (symfunc, verify):
            patch.setattr(module, "invert", invert_dividing)
        macsym.clear_caches()
        want = tables()
    macsym.clear_caches()
    assert got == want
