"""Exact computer algebra for Macdonald symmetric functions.

Constructs the P/Q bases over Q(q,t), realizes the associated contour
integrals as constant-term extractions on truncated (q,t)-series, and
verifies the operator, norm, duality, kernel, skew and Kostka identities of
the theory at desk scale.
"""

from .coeff import (FIELD, ONE, Q, QPochProduct, QTSeries, RatQT, T,
                    emit_ratqt, parse_ratqt, ratqt, substitute, swap_qt,
                    to_series)
from .ctengine import (ct, ct_norm_check, delta_expand, integral_constants,
                       integral_rep_P, integral_rep_P_dual, map_G, map_N,
                       map_N_tilde, norm_prime_product, pi_inv_expand,
                       scalar_prime, schur_ct, schur_ct_dual,
                       self_adjoint_check, skew_integral_check)
from .fock import (completeness_check, matrix_element, p_bar_apply,
                   skew_via_diffop, skew_via_fock, symmetrizer_check,
                   vertex_product_check)
from .kostka import (dual_schur_qt, dual_schur_t, h_factors,
                     kostka_integral_check, kostka_matrix, m_function)
from .macdonald import (MacdonaldPair, b_coeff, dr_apply, dr_commute_check,
                        dr_eigencheck, dr_eigenvalue, hall_littlewood_p,
                        load_cache, macdonald_p, macdonald_pair, macdonald_q,
                        save_cache, skew_p, skew_q, specialize_check,
                        structure_f)
from .pairing import (cauchy_pi, cauchy_pi_tilde, inner_qt, kernel_sym,
                      omega_qt, z_factor)
from .partitions import (arm_leg, as_partition, conjugate, dominance_cmp,
                         dominates, parse_partition, partitions_of,
                         rectangles, stack_blocks, weight)
from .symfunc import (NPoly, SymFunc, convert, evaluate_n, from_poly,
                      multiply, sym_gen)

__version__ = "0.1.0"
