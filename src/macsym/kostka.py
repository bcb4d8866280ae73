"""Dual Schur bases, the M_lam family, and the (q,t)-Kostka matrix.

S_lam(t) is the dual of the Schur basis under the Hall-Littlewood scalar
product, S_lam(q,t) the dual of S_lam(t) under the full (q,t) product; both are
their plethystic closed forms s_lam[X(1-t)] and s_lam[X/(1-q)] (Macdonald
III.4, VI.8).  K[lam,mu] = <S_lam(q,t), J_mu> = <s_lam, J_mu[X/(1-t)]>
(Macdonald VI (8.11)), so each Kostka column is a Schur expansion and no
pairing is taken; the nested constant-term formula cross-checks it
independently.
"""

from dataclasses import dataclass
from functools import lru_cache

from .coeff import FIELD, RING, QTSeries, ratqt, reduce_ratqt
from .errors import InternalInconsistency
from .macdonald import _arm_leg_products, macdonald_pair
from .pairing import inv_qpoch, kernel_coeff, plethysm
from .partitions import as_partition, partitions_of, weight
from .symfunc import SymFunc, convert, sym_gen

from .ctengine import _sign_factor_terms, f_plus_terms, series_of


@lru_cache(maxsize=None)
def h_factors(lam):
    """The two arm/leg hook products (h, h') = (c_lam, c'_lam), so b_lam = h/h'."""
    return tuple(map(FIELD, _arm_leg_products(as_partition(lam))))


def m_function(lam):
    """M_lam = h_lam P_lam (= h'_lam Q_lam, as b_lam = h/h') = J_lam: J_p's numerators over D."""
    D, nums = macdonald_pair(lam).J_p
    return SymFunc("p", reduce_ratqt(nums, RING(D)))


@lru_cache(maxsize=None)
def dual_schur_t(d):
    """{lam: S_lam(t) = s_lam[X(1-t)]} for |lam| = d, each an s-basis SymFunc."""
    return {lam: convert(plethysm(sym_gen("s", lam), "hl"), "s") for lam in partitions_of(d)}


@lru_cache(maxsize=None)
def dual_schur_qt(d):
    """{lam: S_lam(q,t) = s_lam[X/(1-q)]}: dual of S(t) under the (q,t) scalar product."""
    return {lam: convert(plethysm(sym_gen("s", lam), "qinv"), "s") for lam in partitions_of(d)}


@dataclass(frozen=True)
class KostkaTable:
    degree: int
    entries: dict  # (lam, mu) -> RatQT

    def non_polynomial(self):
        """Entries with a denominator: none in a table from `kostka_matrix`, which raises on one."""
        return sorted(key for key, v in self.entries.items() if v.denom != 1)


@lru_cache(maxsize=None)
def kostka_matrix(d):
    """K[lam,mu] = <s_lam, J_mu[X/(1-t)]>: one plethysm and one Schur expansion per column,
    each entry checked to lie in N[q,t] (Haiman).  Rebuilding J_mu = sum K S_lam(t) is a
    plethysm round trip that no longer tests duality; kostka-integral is the independent route."""
    entries = {}
    for mu in partitions_of(d):
        j_mu = m_function(mu)
        column = convert(plethysm(j_mu, "tinv"), "s")
        for lam, k in column.terms.items():
            if k.denom != 1 or min(k.numer.values()) < 0:
                raise InternalInconsistency(f"Kostka entry K[{lam},{mu}] = {k} is not in N[q,t]")
            entries[(lam, mu)] = k
        if plethysm(column, "hl") != j_mu:
            raise InternalInconsistency(f"Kostka reconstruction failed for {mu}")
    return KostkaTable(degree=d, entries=entries)


def kostka_entry(lam, mu):
    lam, mu = as_partition(lam), as_partition(mu)
    table = kostka_matrix(weight(mu))
    return table.entries.get((lam, mu), ratqt(0))


def kostka_integral_sides(lam, mu, order):
    """(constant-term route to K[lam,mu], the `kostka_matrix` entry), as series at the order.

    The x-side carries x^(-lam) and the sign factor; the kernel
    prod 1/(x_i/y_j; q)oo couples it to the windowed integrand of mu.
    """
    lam, mu = as_partition(lam), as_partition(mu)
    wm, rho = f_plus_terms(mu, order)
    ell = len(lam)
    h_mu, _ = h_factors(mu)
    total = QTSeries.zero(order)
    for w, sign in _sign_factor_terms(ell, reverse=True).items():
        rows = tuple(l - x for l, x in zip(lam, w))
        for beta, cb in wm.items():
            if k := kernel_coeff(rows, beta, inv_qpoch):
                total = total + cb * sign * series_of(k, order)
    return total * series_of(h_mu, order), series_of(kostka_entry(lam, mu), order)


def kostka_integral_check(lam, mu, order):
    got, want = kostka_integral_sides(lam, mu, order)
    return got == want
