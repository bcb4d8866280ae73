"""Public entry points reject out-of-range arguments with ValueError.

The checks must hold under ``python -O`` too, so none may be an ``assert``.
"""

import pytest

from macsym import fock
from macsym.coeff import QTSeries
from macsym.ctengine import ct_norm_check, delta_expand, map_G, norm_prime_product
from macsym.fock import symmetrizer_check, vertex_product_check
from macsym.macdonald import dr_apply, dr_eigenvalue, macdonald_pair
from macsym.pairing import dual_factor, inv_qpoch, kernel_coeff, qbinom_coeff
from macsym.partitions import as_partition
from macsym.symfunc import NPoly, evaluate_n, sym_gen


@pytest.mark.parametrize("call", [
    lambda: dr_apply(3, NPoly(2), 2),
    lambda: dr_eigenvalue((3, 2, 1), 1, 2),
    lambda: dr_eigenvalue((1,), 0, 2),
    lambda: dr_eigenvalue((1,), 3, 2),
    lambda: map_G(0, NPoly(1)),
    lambda: vertex_product_check(0, 2, 3),
    lambda: symmetrizer_check(0),
    lambda: evaluate_n(sym_gen("m", (1,)), -1),
    lambda: ct_norm_check((1, 1), 1, 2),
    lambda: norm_prime_product((2, 1), 1),
    lambda: QTSeries(-1),
    lambda: QTSeries(3, {(-1, 0): 1}),
    lambda: QTSeries(3, {(0, -2): 0}),
    lambda: as_partition([2.7, 1]),
    lambda: as_partition([2.0, 1]),
    lambda: as_partition([True]),
    lambda: as_partition(["2", "1"]),
    lambda: as_partition([float("inf")]),
    lambda: macdonald_pair([2.5]),
    lambda: kernel_coeff((2.0, 1), (2, 1), qbinom_coeff),
    lambda: kernel_coeff((1,), [1.0], inv_qpoch),
    lambda: kernel_coeff((True,), (1,), dual_factor),
    lambda: kernel_coeff("21", (2, 1), qbinom_coeff),
    lambda: kernel_coeff((1,), (1,), lambda v: 1),
], ids=["dr_apply-r", "dr_eigenvalue-length", "dr_eigenvalue-r-zero",
        "dr_eigenvalue-r-above-n", "map_G-s", "vertex_product_check-beta",
        "symmetrizer_check-n", "evaluate_n-n", "ct_norm_check-length",
        "norm_prime_product-n", "QTSeries-order", "QTSeries-q-exponent",
        "QTSeries-t-exponent", "as_partition-float", "as_partition-integral-float",
        "as_partition-bool", "as_partition-str", "as_partition-inf",
        "macdonald_pair-float", "kernel_coeff-float", "kernel_coeff-list-float",
        "kernel_coeff-bool", "kernel_coeff-str", "kernel_coeff-factor"])
def test_out_of_range_argument_raises_value_error(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("args", [
    (2.0, 3, 1), (True, 3, 1), (2, 3.0, 1), (2, True, 1), (2, 3, True), (2, 3, "1"),
    (-1, 3, 1), (2, -1, 1), (2, 3, -1),
])
def test_delta_expand_rejects_non_int_or_negative_arguments(args):
    # a held (2, 3, 1) window must not answer (2.0, 3, 1) or (2, 3, True)
    delta_expand(2, 3, 1)
    with pytest.raises(ValueError):
        delta_expand(*args)


@pytest.mark.parametrize("args", [
    (2, 0, 3), (2, 2, -1), (0, 2, 3), (2.0, 2, 3), (True, 2, 3), (2, True, 3), (2, 2, 3.0),
    (2, 2.0, 3), (2, 2, True), ("2", 2, 3),
])
def test_vertex_product_check_rejects_non_int_or_out_of_range_arguments(args):
    # the held factors of (2, 3) must not answer (2.0, 3) or (True, 3)
    assert vertex_product_check(2, 2, 3)
    with pytest.raises(ValueError):
        vertex_product_check(*args)


@pytest.mark.parametrize("call", [fock.vertex_product_check, fock.vertex_product_difference])
def test_vertex_product_check_rejects_n_above_its_ceiling_before_any_product(monkeypatch, call):
    # n = 5 took 61 s and 1.26 GB: the ceiling must reject it before the factors are formed
    def forbidden(*args):
        raise AssertionError("the kernel factors were formed for n above the ceiling")

    monkeypatch.setattr(fock, "_vertex_factors", forbidden)
    assert fock.MAX_VERTEX_N == 4
    for n in (5, 6, 100):
        with pytest.raises(ValueError, match="n must be an int >= 1 and <= 4"):
            call(1, n, 0)


@pytest.mark.parametrize("n", [0, -1, True, 2.0, "2"])
def test_symmetrizer_check_rejects_non_int_or_out_of_range_counts(n):
    with pytest.raises(ValueError):
        symmetrizer_check(n)


def test_kernel_coeff_takes_list_or_tuple_margins_and_reads_negative_ones_as_zero():
    assert kernel_coeff([2, 1], (2, 1), qbinom_coeff) == kernel_coeff((2, 1), [2, 1], qbinom_coeff)
    assert kernel_coeff([1, 1], [1, 1], dual_factor) == 2
    assert kernel_coeff((2, -1), [1, 0], inv_qpoch) == 0
