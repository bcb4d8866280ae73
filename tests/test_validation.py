"""Public entry points reject out-of-range arguments with ValueError.

The checks must hold under ``python -O`` too, so none may be an ``assert``.
"""

import pytest

from macsym.ctengine import ct_norm_check, map_G
from macsym.fock import symmetrizer_check, vertex_product_check
from macsym.macdonald import dr_apply
from macsym.symfunc import NPoly, evaluate_n, sym_gen


@pytest.mark.parametrize("call", [
    lambda: dr_apply(3, NPoly(2), 2),
    lambda: map_G(0, NPoly(1)),
    lambda: vertex_product_check(0, 2, 3),
    lambda: symmetrizer_check(0),
    lambda: evaluate_n(sym_gen("m", (1,)), -1),
    lambda: ct_norm_check((1, 1), 1, 2),
], ids=["dr_apply-r", "map_G-s", "vertex_product_check-beta",
        "symmetrizer_check-n", "evaluate_n-n", "ct_norm_check-length"])
def test_out_of_range_argument_raises_value_error(call):
    with pytest.raises(ValueError):
        call()
