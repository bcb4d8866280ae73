"""Dual Schur bases, the M_lam family, and the (q,t)-Kostka matrix.

S_lam(t) is the dual of the Schur basis under the Hall-Littlewood scalar
product, S_lam(q,t) the dual of S_lam(t) under the full (q,t) product; both
are produced per degree by Gram-matrix inversion.  Kostka entries are the
pairings K[lam,mu] = <S_lam(q,t), M_mu>, cross-checked by reconstruction and,
independently, by the nested constant-term formula.
"""

from dataclasses import dataclass
from functools import lru_cache

from .coeff import Q, QTSeries, T, add_into, invert, ratqt
from .errors import InternalInconsistency
from .macdonald import b_coeff, macdonald_pair
from .pairing import inner_qt
from .partitions import arm_leg, as_partition, cells, partitions_of, weight
from .symfunc import SymFunc, convert, sym_gen

from .ctengine import (_compositions, _sign_factor_terms, f_plus_terms,
                       series_of)


@lru_cache(maxsize=None)
def h_factors(lam):
    """The two arm/leg hook products (h, h'); b_lam = h/h' is asserted."""
    lam = as_partition(lam)
    h = ratqt(1)
    hp = ratqt(1)
    for cell in cells(lam):
        a, l, _, _ = arm_leg(lam, cell)
        h = h * (1 - Q ** a * T ** (l + 1))
        hp = hp * (1 - Q ** (a + 1) * T ** l)
    if hp * b_coeff(lam) != h:
        raise InternalInconsistency(f"hook products disagree with b for {lam}")
    return h, hp


def m_function(lam):
    """M_lam = h_lam P_lam = h'_lam Q_lam; both routes compared."""
    lam = as_partition(lam)
    pair = macdonald_pair(lam)
    h, hp = h_factors(lam)
    via_p = pair.P_p.scale(h)
    via_q = pair.Qf.scale(hp)
    if via_p != via_q:
        raise InternalInconsistency(f"two routes to M_{lam} disagree")
    return via_p


def _dual_basis(d, partner, specialize, name):
    """{lam: S_lam} in the s basis with <S_lam, partner[mu]> = delta, by Gram inversion."""
    plist = list(partitions_of(d))
    gram = {a: {b: inner_qt(sym_gen("s", a), partner[b], specialize=specialize)
                for b in plist} for a in plist}
    out = {lam: SymFunc("s", row) for lam, row in invert(gram, plist).items()}
    for a in plist:
        for b in plist:
            got = inner_qt(out[a], partner[b], specialize=specialize)
            if got != (1 if a == b else 0):
                raise InternalInconsistency(f"{name} duality pairing failed")
    return out


@lru_cache(maxsize=None)
def dual_schur_t(d):
    """{lam: S_lam(t)} for |lam| = d, each an s-basis SymFunc."""
    schur = {lam: sym_gen("s", lam) for lam in partitions_of(d)}
    return _dual_basis(d, schur, (0, T), "S(t)")


@lru_cache(maxsize=None)
def dual_schur_qt(d):
    """{lam: S_lam(q,t)}: dual of S(t) under the full (q,t) scalar product."""
    return _dual_basis(d, dual_schur_t(d), None, "S(q,t)")


@dataclass(frozen=True)
class KostkaTable:
    degree: int
    entries: dict  # (lam, mu) -> RatQT

    def non_polynomial(self):
        """Entries whose reduced denominator is not 1 (observed, never asserted)."""
        return sorted(key for key, v in self.entries.items() if v.denom != 1)


@lru_cache(maxsize=None)
def kostka_matrix(d):
    """K[lam,mu] = <S_lam(q,t), M_mu>; reconstruction of M_mu is asserted."""
    plist = list(partitions_of(d))
    sqt = dual_schur_qt(d)
    st = dual_schur_t(d)
    entries = {}
    for mu in plist:
        m_mu = m_function(mu)
        recon = SymFunc("p")
        for lam in plist:
            k = inner_qt(sqt[lam], m_mu)
            if k:
                entries[(lam, mu)] = k
            add_into(recon.terms, convert(st[lam], "p").terms, k)
        if recon != m_mu:
            raise InternalInconsistency(f"Kostka reconstruction failed for {mu}")
    return KostkaTable(degree=d, entries=entries)


def kostka_entry(lam, mu):
    lam, mu = as_partition(lam), as_partition(mu)
    table = kostka_matrix(weight(mu))
    return table.entries.get((lam, mu), ratqt(0))


@lru_cache(maxsize=None)
def _inv_qpoch_series(m, order):
    """Coefficient 1/(q;q)_m of the kernel prod 1/(x_i/y_j; q)oo."""
    out = QTSeries.one(order)
    for k in range(1, m + 1):
        out = out * QTSeries(order, {(k * j, 0): 1 for j in range(order // k + 1)})
    return out


def _matrices_row_col(rows, cols):
    """Nonnegative integer matrices with the given row and column sums."""
    nr, nc = len(rows), len(cols)
    if nr == 0:
        if all(c == 0 for c in cols):
            yield ()
        return

    def rec(i, remaining_cols, acc):
        if i == nr:
            if all(c == 0 for c in remaining_cols):
                yield tuple(acc)
            return
        for row in _compositions(rows[i], nc):
            if any(row[j] > remaining_cols[j] for j in range(nc)):
                continue
            yield from rec(i + 1,
                           tuple(remaining_cols[j] - row[j] for j in range(nc)),
                           acc + [row])

    yield from rec(0, tuple(cols), [])


def kostka_integral_check(lam, mu, order):
    """Constant-term route to K[lam,mu] against the pairing route, at the order.

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
        if any(r < 0 for r in rows):
            continue
        for beta, cb in wm.items():
            for matrix in _matrices_row_col(rows, beta):
                piece = cb * sign
                for row in matrix:
                    for v in row:
                        if v:
                            piece = piece * _inv_qpoch_series(v, order)
                total = total + piece
    total = total * series_of(h_mu, order)
    expected = series_of(kostka_entry(lam, mu), order)
    return total == expected
