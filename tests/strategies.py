"""Hypothesis strategies for exact coefficients and sparse partition maps, reduced or cleared."""

from fractions import Fraction
from math import prod

from hypothesis import strategies as st

from macsym.coeff import Q, T, ratqt
from macsym.partitions import partitions_of

# denominators made of the factors the package meets (hooks, weights, constants)
_DEN_FACTORS = (1 - Q, 1 - T, 1 - Q * T, 1 + Q, 1 - Q ** 2 * T, 1 - T ** 2, ratqt(2),
                ratqt(-3))

_polys = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3)),
                  max_size=4).map(lambda terms: sum((c * Q ** a * T ** b for a, b, c in terms),
                                                    ratqt(0)))

#: RatQT values (zero included) and exact int / Fraction values
ratqt_values = st.one_of(
    st.builds(lambda num, dens: num / prod(dens, start=ratqt(1)),
              _polys, st.lists(st.sampled_from(_DEN_FACTORS), max_size=3)),
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=6).map(Fraction),
)

_SMALL_PARTITIONS = [lam for d in range(4) for lam in partitions_of(d)]

#: sparse p-basis maps {partition: value}, |partition| <= 3
pvec_maps = st.dictionaries(st.sampled_from(_SMALL_PARTITIONS), ratqt_values, max_size=5)

_ring_elements = _polys.map(lambda r: r.numer)  # Z[q,t], zero included

#: nonzero denominators in Z[q,t]; the negated ones have a negative leading coefficient
cleared_dens = st.builds(lambda dens, sign: sign * prod(dens, start=ratqt(1)).numer,
                         st.lists(st.sampled_from(_DEN_FACTORS), max_size=3),
                         st.sampled_from((1, -1)))

#: (d, {partition of d: element of Z[q,t]}) for d <= 5, zero values included
degree_maps = st.integers(0, 5).flatmap(lambda d: st.tuples(st.just(d), st.dictionaries(
    st.sampled_from(list(partitions_of(d))), _ring_elements, max_size=5)))

#: cleared p-basis maps (den, {partition: element of Z[q,t]}), zero numerators included
cleared_maps = st.tuples(cleared_dens, st.dictionaries(st.sampled_from(_SMALL_PARTITIONS),
                                                       _ring_elements, max_size=5))
