"""Exact computer algebra for Macdonald symmetric functions.

Constructs the P/Q bases over Q(q,t), realizes the associated contour
integrals as constant-term extractions on truncated (q,t)-series, and
verifies the operator, norm, duality, kernel, skew and Kostka identities of
the theory at desk scale.
"""

from .coeff import (FIELD, ONE, Q, QPochProduct, QTSeries, RatQT, T,
                    emit_ratqt, parse_ratqt, ratqt, swap_qt, to_series)
from .ctengine import (ct_norm_check, delta_expand, integral_constants,
                       integral_rep_P, integral_rep_P_dual, map_G, map_N,
                       map_N_tilde, norm_prime_product, scalar_prime,
                       schur_ct, schur_ct_dual, skew_integral_check)
from .fock import (skew_via_diffop, skew_via_fock, symmetrizer_check,
                   vertex_product_check)
from .kostka import (dual_schur_qt, dual_schur_t, h_factors,
                     kostka_integral_check, kostka_matrix, m_function)
from .macdonald import (MacdonaldPair, b_coeff, dr_apply, dr_commute_check,
                        dr_eigencheck, dr_eigenvalue, load_cache, macdonald_pair,
                        save_cache, skew_p, skew_q, specialize_check, structure_f)
from .pairing import (cauchy_pi, cauchy_pi_tilde, inner_qt, kernel_coeff,
                      omega_qt, z_factor)
from .partitions import (arm_leg, as_partition, conjugate, dominates,
                         parse_partition, partitions_of, rectangles, weight)
from .symfunc import NPoly, SymFunc, convert, evaluate_n, multiply, sym_gen

__version__ = "0.1.0"

# every memo cache macsym defines, named module.function; collected at import,
# before any caller can rebind a module attribute
_CACHES = {f"{mod.__name__.split('.', 1)[1]}.{name}": fn
           for mod in (coeff, ctengine, fock, kostka, macdonald, pairing, partitions,
                       symfunc)
           for name, fn in vars(mod).items()
           if hasattr(fn, "cache_info") and fn.__module__ == mod.__name__}


def cache_sizes():
    """{module.function: entries held} for every memo cache, plus macdonald._PAIRS."""
    out = {name: fn.cache_info().currsize for name, fn in _CACHES.items()}
    out["macdonald._PAIRS"] = len(macdonald._PAIRS)
    return out


def clear_caches():
    """Empty every memo cache and the table of constructed pairs."""
    for fn in _CACHES.values():
        fn.cache_clear()
    macdonald._PAIRS.clear()
