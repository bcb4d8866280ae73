"""Spans and counts recorded around macsym's layers, from outside the program.

A module function is rebound in its defining module and in every macsym
module that imported it by name; a method is replaced on its class.  Each
call of a wrapped function appends one span ``[name, start, end, parent]``
to an in-memory list; the field arithmetic on Q(q,t) is only counted,
because it runs millions of times and a span per call would dominate the
run.  Self time is a span's duration minus the part of it that its child
spans cover.
"""

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, function names, metric name): one span name per line.
FUNCTION_SPANS = [
    ("coeff", ("parse_ratqt",), "coeff.parse_ratqt"),
    ("coeff", ("emit_ratqt",), "coeff.emit_ratqt"),
    ("symfunc", ("basis_to_m",), "symfunc.basis_to_m"),
    ("symfunc", ("m_to_basis",), "symfunc.m_to_basis"),
    ("symfunc", ("convert",), "symfunc.convert"),
    ("symfunc", ("multiply",), "symfunc.multiply"),
    ("symfunc", ("evaluate_n",), "symfunc.evaluate_n"),
    ("symfunc", ("npoly_divexact",), "symfunc.npoly_divexact"),
    ("pairing", ("inner_qt",), "pairing.inner_qt"),
    ("pairing", ("cauchy_pi", "cauchy_pi_tilde"), "pairing.cauchy"),
    ("pairing", ("kernel_product",), "pairing.kernel_product"),
    ("macdonald", ("dr_apply",), "macdonald.dr_apply"),
    ("macdonald", ("skew_q",), "macdonald.skew_q"),
    ("macdonald", ("save_cache",), "macdonald.save_cache"),
    ("macdonald", ("load_cache",), "macdonald.load_cache"),
    ("ctengine", ("delta_expand",), "ctengine.delta_expand"),
    ("ctengine", ("map_N",), "ctengine.map_N"),
    ("ctengine", ("map_N_tilde",), "ctengine.map_N_tilde"),
    ("ctengine", ("scalar_prime",), "ctengine.scalar_prime"),
    ("ctengine", ("integral_rep_P",), "ctengine.integral_rep_P"),
    ("ctengine", ("integral_rep_P_dual",), "ctengine.integral_rep_P_dual"),
    ("ctengine", ("skew_integral_check",), "ctengine.skew_integral_check"),
    ("kostka", ("dual_schur_t",), "kostka.dual_schur_t"),
    ("kostka", ("dual_schur_qt",), "kostka.dual_schur_qt"),
    ("kostka", ("kostka_matrix",), "kostka.kostka_matrix"),
    ("kostka", ("kostka_integral_check",), "kostka.kostka_integral_check"),
    ("fock", ("skew_via_fock", "skew_via_diffop"), "fock.skew_routes"),
    ("fock", ("vertex_product_check", "symmetrizer_check"), "fock.vertex_checks"),
    ("cli", ("main",), "cli.main"),
]

# Span names reported with .calls and .self_s.
TIMED_LAYERS = sorted(
    {metric for _, _, metric in FUNCTION_SPANS}
    | {"coeff.gcd", "coeff.series_mul", "coeff.series_inverse",
       "symfunc.npoly_mul", "macdonald.pair"})

# Q(q,t) arithmetic dunders, counted per group.
FIELD_OPS = {
    "coeff.field_add": ("__add__", "__radd__", "__sub__", "__rsub__"),
    "coeff.field_mul": ("__mul__", "__rmul__"),
    "coeff.field_div": ("__truediv__", "__rtruediv__"),
}

# lru-cached functions, named as lru_caches() names them, whose hit ratio is a layer metric.
HIT_RATIOS = ("symfunc.basis_to_m", "symfunc.m_to_basis", "pairing.kernel_product",
              "ctengine.series_of")


def self_times(spans):
    """Self time of every span: its duration minus what its children cover.

    ``spans`` is a list of ``(name, start, end, parent)`` with ``parent`` the
    index of the enclosing span or -1.  Child intervals are clipped to the
    parent and merged where they overlap, so no instant is subtracted twice.
    """
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[index]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_times(spans):
    """{name: (calls, summed self time)} over a list of spans."""
    calls, total = Counter(), defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        calls[span[0]] += 1
        total[span[0]] += own
    return {name: (calls[name], total[name]) for name in calls}


class Recorder:
    """In-memory spans and counters for one traced process."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def span(self, name, fn, before=None):
        """Wrap ``fn`` so every call records a span; ``before(counts, args)`` runs first."""
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(counts, args)
            record = [name, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper


def _macsym_modules():
    return [mod for key, mod in sorted(sys.modules.items())
            if key == "macsym" or key.startswith("macsym.")]


def _rebind(original, replacement):
    """Point every macsym module name bound to ``original`` at ``replacement``."""
    for mod in _macsym_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _series_pairs(counts, args):
    a, b = args
    if isinstance(b, type(a)):
        counts["coeff.series_mul.term_pairs"] += len(a.coeffs) * len(b.coeffs)


def _suite_timer(recorder, key, suite):
    """Sum the suite's own per-record wall_time into verify.<suite>.wall_s."""
    def run(**params):
        records = suite(**params)
        recorder.counts[f"verify.{key}.wall_s"] += sum(rec["wall_time"] for rec in records)
        return records
    return run


def install(recorder):
    """Wrap macsym's layer boundaries; call after ``import macsym``."""
    from macsym import cli, coeff, macdonald, symfunc, verify  # noqa: F401 (cli is wrapped)

    mods = {mod.__name__.rsplit(".", 1)[-1]: mod for mod in _macsym_modules()}
    for modname, names, metric in FUNCTION_SPANS:
        for name in names:
            original = getattr(mods[modname], name)
            _rebind(original, recorder.span(metric, original))

    pairs = macdonald._PAIRS
    original_pair = macdonald.macdonald_pair

    def pair(lam):
        before = len(pairs)
        out = original_pair(lam)
        if len(pairs) > before:
            recorder.counts["macdonald.pair.builds"] += 1
        return out
    _rebind(original_pair, recorder.span("macdonald.pair", pair))

    for key, suite in list(verify.SUITES.items()):
        verify.SUITES[key] = recorder.span(f"verify.{key}", _suite_timer(recorder, key, suite))

    series_mul = recorder.span("coeff.series_mul", coeff.QTSeries.__mul__, _series_pairs)
    coeff.QTSeries.__mul__ = coeff.QTSeries.__rmul__ = series_mul
    coeff.QTSeries.inverse = recorder.span("coeff.series_inverse", coeff.QTSeries.inverse)
    npoly_mul = recorder.span("symfunc.npoly_mul", symfunc.NPoly.__mul__)
    symfunc.NPoly.__mul__ = symfunc.NPoly.__rmul__ = npoly_mul

    poly = type(coeff.RING.one)
    poly._gcd_ZZ = recorder.span("coeff.gcd", poly._gcd_ZZ)
    for metric, dunders in FIELD_OPS.items():
        for dunder in dunders:
            setattr(coeff.RatQT, dunder,
                    recorder.counter(metric, getattr(coeff.RatQT, dunder)))


def lru_caches():
    """{module.function: lru_cache wrapper} for every memo cache macsym defines."""
    out = {}
    for mod in _macsym_modules():
        for attr, value in vars(mod).items():
            if (isinstance(value, functools._lru_cache_wrapper)
                    and value.__module__ == mod.__name__):
                out[f"{mod.__name__.split('.', 1)[-1]}.{attr}"] = value
    return out


def hit_ratio(hits, misses):
    return hits / (hits + misses) if hits + misses else 0.0


def cache_report(caches, pairs):
    """Size and hit ratio of every memo cache, plus the pair table size."""
    out = {}
    for name, cached in sorted(caches.items()):
        info = cached.cache_info()
        out[name] = {"size": info.currsize,
                     "hit_ratio": hit_ratio(info.hits, info.misses)}
    out["macdonald._PAIRS"] = {"size": len(pairs)}
    return out


def layer_metrics(spans, counts, caches, pairs_len, suites, records):
    """Per-layer metrics from spans and counts taken at the end of the timed phase.

    ``caches`` maps each name in HIT_RATIOS to (hits, misses); ``suites`` names
    the verify suites and ``records`` is the verify report, empty outside
    verify-sweep.
    """
    times = layer_times(spans)
    counts = Counter(counts)
    out = {}
    for name in TIMED_LAYERS:
        calls, own = times.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = own
    for metric in FIELD_OPS:
        out[f"{metric}.calls"] = counts[metric]
    out["coeff.series_mul.term_pairs"] = counts["coeff.series_mul.term_pairs"]
    builds = counts["macdonald.pair.builds"]
    out["macdonald.pair.builds"] = builds
    out["macdonald.pair.hit_ratio"] = hit_ratio(out["macdonald.pair.calls"] - builds, builds)
    out["macdonald.cached_pairs"] = pairs_len
    for metric, (hits, misses) in caches.items():
        out[f"{metric}.hit_ratio"] = hit_ratio(hits, misses)
    for key in suites:
        out[f"verify.{key}.wall_s"] = float(counts[f"verify.{key}.wall_s"])
    walls = [rec["wall_time"] for rec in records]
    out["verify.checks"] = len(records)
    out["verify.checks_failed"] = sum(rec["status"] != "pass" for rec in records)
    cuts = statistics.quantiles(walls, n=100) if len(walls) > 1 else [0.0] * 99
    out["verify.check_p50_s"] = cuts[49]
    out["verify.check_p98_s"] = cuts[97]
    return out
