"""One cold iteration of a benchmark workload, in a fresh interpreter.

run.py starts this file once per iteration:

    python3 -B perfbench/worker.py ROOT WORKLOAD SEED TRACE SPAWNED SCRATCH

ROOT is the checkout (macsym is imported from ROOT/src).  TRACE is 0, 1, or
"setup" to stop once set-up is done.  SPAWNED is the CLOCK_MONOTONIC reading
taken just before the process was started, and SCRATCH a directory inside
the checkout for files this iteration writes.  The last line of standard
output is one JSON object.

Each workload class makes its inputs from the seed in its constructor (set-up),
does the timed work in run(), and checks the result in check(), which returns
the number of operations attempted and one message per failed operation.
Times are reported twice: as the clocks read them (``*_raw_s``) and
rescaled to the reference speed of the host (see HostSpeed).
The sizes keep one cold iteration between about 2 and 12 s on a 2-core
Xeon VM, so a 30 s run holds several iterations: weight 6 (25-35 s per
family) and verify --maxweight 4 (about 47 s) would not fit.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import signal
import sys
import time
import traceback

FAMILY_MAX_WEIGHT = 5
VERIFY_ARGV = ["verify", "--suite", "all", "--maxweight", "3", "--format", "json"]
VERIFY_CHECKS = 324
# sha256 of the verify report's records without their wall_time field; see
# verify_digest().  Recompute it only when a change is meant to alter output.
VERIFY_DIGEST = "6b2fea077de0eb834d6c2f044e79bc0a59ea00200400e72dc730505e66c0c34c"
SERIES_ORDER = 8
REPORT_V1_FIELDS = ("identity", "parameters", "order", "status", "max_order_checked")
PROBE_PERIOD_S = 0.05
# probe_work()'s duration on an idle core of the 2-vCPU Xeon VM the benchmark
# was written on (the fastest of 2000 runs); rescaled times are seconds at that speed.
PROBE_REF_S = 0.00077
_rng = random.Random(20)
PROBE_POLYS = [{(_rng.randrange(6), _rng.randrange(6)): _rng.randrange(-10**12, 10**12)
                for _ in range(12)} for _ in range(2)]


def probe_work():
    """A fixed stretch of pure-Python work of the kinds macsym spends its time on.

    A product of two sparse bivariate polynomials with big-int coefficients
    (sympy's ring arithmetic), and a loop of dict updates on big ints.
    """
    left, right = PROBE_POLYS
    for _ in range(8):
        out = {}
        for (a1, b1), c1 in left.items():
            for (a2, b2), c2 in right.items():
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, 0) + c1 * c2
    acc, x = {}, 1
    for i in range(1000):
        x = (x * 1103515245 + 12345) % 2305843009213693951
        key = (i & 255, x & 15)
        acc[key] = acc.get(key, 0) + x * x


class HostSpeed:
    """Rescales stretches of wall time to the host's reference speed.

    On the shared host a core runs macsym 1.4-2x slower for stretches of a
    tenth of a second to minutes, and this process's wall and CPU clocks both
    count the lost time.  Every PROBE_PERIOD_S a SIGALRM handler times
    probe_work(); between two probes the host's speed is the mean of theirs,
    before the first and after the last it is that probe's.  rescaled() gives
    the seconds a stretch takes at the speed where probe_work() takes
    PROBE_REF_S, leaving out the probes' own time (about 2% of the run).
    """

    def __init__(self):
        self.probes = []
        self._busy = False

    def probe(self, *_):
        if self._busy:
            return
        self._busy = True
        began = time.monotonic()
        probe_work()
        self.probes.append((began, time.monotonic()))
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        self.probe()

    def stop(self):
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def rescaled(self, begin, end):
        """Seconds at reference speed of the work done between ``begin`` and ``end``."""
        probes = self.probes
        rates = [PROBE_REF_S / (stop - start) for start, stop in probes]
        gaps = [(-math.inf, probes[0][0], rates[0])]
        gaps += [(before[1], after[0], (r0 + r1) / 2)
                 for before, after, r0, r1 in zip(probes, probes[1:], rates, rates[1:])]
        gaps.append((probes[-1][1], math.inf, rates[-1]))
        return sum(max(0.0, min(hi, end) - max(lo, begin)) * rate for lo, hi, rate in gaps)


class FamilyBuild:
    """Every P/Q pair with |lam| <= FAMILY_MAX_WEIGHT, then a cache round trip.

    Weight-5 Gram-Schmidt over Q(q,t) is most of the run, and most of that is
    gcd in fraction cancellation.  The seed shuffles the order within each
    weight; weights stay ascending, so the work does not change.
    """

    def __init__(self, seed, scratch):
        from macsym.partitions import partitions_of
        rng = random.Random(seed)
        self.order = []
        for d in range(FAMILY_MAX_WEIGHT + 1):
            group = list(partitions_of(d))
            rng.shuffle(group)
            self.order.extend(group)
        self.path = os.path.join(scratch, "pairs.json")

    def run(self):
        from macsym import macdonald
        built, errors, loaded = {}, [], None
        for lam in self.order:
            try:
                built[lam] = macdonald.macdonald_pair(lam)
            except Exception as exc:  # every raise is a failed operation
                errors.append(f"macdonald_pair{lam}: {exc!r}")
        try:
            macdonald.save_cache(self.path)
        except Exception as exc:
            errors.append(f"save_cache: {exc!r}")
        try:
            loaded = macdonald.load_cache(self.path)
        except Exception as exc:
            errors.append(f"load_cache: {exc!r}")
        return built, loaded, errors

    def check(self, result):
        from macsym import macdonald
        from macsym.partitions import dominates
        built, loaded, errors = result
        failures = list(errors)
        for lam, pair in built.items():
            terms = pair.P.terms
            if terms.get(lam) != 1 or not all(dominates(lam, mu) for mu in terms):
                failures.append(f"P{lam} is not unitriangular")
        if loaded is not None:
            changed = [lam for lam, pair in built.items()
                       if macdonald._PAIRS[lam].P != pair.P or macdonald._PAIRS[lam].b != pair.b]
            if loaded != len(self.order) or changed:
                failures.append(f"load_cache returned {loaded} of {len(self.order)} pairs; "
                                f"reloaded pairs that differ from the built ones: {changed}")
        return len(self.order) + 2, failures


def verify_digest(records):
    """sha256 over the v1 fields of every record, in report order."""
    rows = [[rec[key] for key in REPORT_V1_FIELDS] for rec in records]
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class VerifySweep:
    """The user-facing command: every verify suite through macsym.cli.main.

    Its order is fixed by the command, so the seed changes nothing.
    """

    def __init__(self, seed, scratch):
        self.records = []

    def run(self):
        from macsym import cli
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(list(VERIFY_ARGV))
        except Exception as exc:
            return None, repr(exc)
        return code, out.getvalue()

    def check(self, result):
        code, text = result
        if code is None:
            return VERIFY_CHECKS + 1, [f"cli.main raised {text}"]
        self.records = json.loads(text)["checks"]
        failures = [f"{rec['identity']} {rec['parameters']}: {rec['status']}"
                    for rec in self.records if rec["status"] != "pass"]
        digest = verify_digest(self.records)
        if code != 0 or len(self.records) != VERIFY_CHECKS or digest != VERIFY_DIGEST:
            failures.append(f"exit code {code}, {len(self.records)} records "
                            f"(want {VERIFY_CHECKS}), report digest {digest}")
        return max(len(self.records), VERIFY_CHECKS) + 1, failures


class IntegralSeries:
    """Constant-term and nested-integral checks at SERIES_ORDER.

    Series multiplication under the Delta engine is most of the run; pairs are
    built only up to weight 4.  The seed shuffles the order of the checks.
    """

    def __init__(self, seed, scratch):
        from macsym.partitions import partitions_of
        self.calls = []
        for d in range(1, 5):
            for lam in partitions_of(d):
                self.calls.append(("ctengine", "integral_rep_check", (lam, SERIES_ORDER)))
                self.calls.append(("ctengine", "integral_rep_dual_check", (lam, SERIES_ORDER)))
        for n in range(1, 5):
            for d in range(4):
                for lam in partitions_of(d, max_length=n):
                    self.calls.append(("ctengine", "ct_norm_check", (lam, n, SERIES_ORDER)))
        for lam, mu in (((2,), (1,)), ((1, 1), (1,)), ((2, 1), (1,))):
            self.calls.append(("ctengine", "skew_integral_check", (lam, mu, SERIES_ORDER)))
        for lam in partitions_of(2):
            for mu in partitions_of(2):
                self.calls.append(("kostka", "kostka_integral_check", (lam, mu, SERIES_ORDER)))
        random.Random(seed).shuffle(self.calls)

    def run(self):
        import macsym
        out = []
        for module, name, args in self.calls:
            try:
                out.append(getattr(getattr(macsym, module), name)(*args) is True)
            except Exception as exc:
                out.append(repr(exc))
        return out

    def check(self, result):
        failures = [f"{name}{args}: {got}"
                    for (_, name, args), got in zip(self.calls, result) if got is not True]
        return len(self.calls), failures


WORKLOADS = {
    "family-build": FamilyBuild,
    "verify-sweep": VerifySweep,
    "integral-series": IntegralSeries,
}


def import_macsym(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import macsym
    if os.path.dirname(os.path.dirname(os.path.abspath(macsym.__file__))) != src:
        raise ImportError(f"macsym was imported from {macsym.__file__}, not {src}")
    return macsym


def cold_guard(caches, pairs):
    warm = [f"{name} holds {fn.cache_info().currsize}"
            for name, fn in caches.items() if fn.cache_info().currsize]
    if pairs:
        warm.append(f"macdonald._PAIRS holds {len(pairs)}")
    return warm


def main(argv):
    root, workload, seed, trace, spawned, scratch = argv
    setup_only = trace == "setup"
    seed, trace, spawned = int(seed), trace == "1", float(spawned)
    speed = HostSpeed()
    speed.start()
    import_macsym(root)
    import spans
    from macsym import cli, macdonald, verify  # noqa: F401 (every workload imports the same modules)
    job = WORKLOADS[workload](seed, scratch)
    caches = spans.lru_caches()
    recorder = None
    if trace:
        recorder = spans.Recorder()
        spans.install(recorder)
    warm = cold_guard(caches, macdonald._PAIRS)

    ready = time.monotonic()
    if setup_only:
        speed.stop()
        print(json.dumps({"setup_s": speed.rescaled(spawned, ready),
                          "setup_raw_s": ready - spawned}))
        return 0
    speed.probe()
    cpu0, wall0 = time.process_time(), time.monotonic()
    result = job.run()
    wall1, cpu1 = time.monotonic(), time.process_time()
    speed.stop()
    wall_raw, cpu_raw = wall1 - wall0, cpu1 - cpu0
    wall = speed.rescaled(wall0, wall1)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder is not None:
        n_spans, counts = len(recorder.spans), dict(recorder.counts)
        hits = {name: caches[name].cache_info()[:2] for name in spans.HIT_RATIOS}
        pairs_len = len(macdonald._PAIRS)
        cache_sizes = spans.cache_report(caches, macdonald._PAIRS)

    attempted, failures = job.check(result)
    if warm:
        attempted += 1
        failures.append("caches not cold at the timed phase: " + "; ".join(warm))
    import sympy
    from sympy.external.gmpy import GROUND_TYPES
    out = {
        "setup_s": speed.rescaled(spawned, ready),
        "wall_s": wall,
        "cpu_s": wall * cpu_raw / wall_raw,
        "setup_raw_s": ready - spawned,
        "wall_raw_s": wall_raw,
        "cpu_raw_s": cpu_raw,
        "peak_rss_mb": rss_mb,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "sympy": sympy.__version__,
        "ground_types": GROUND_TYPES,
    }
    if recorder is not None:
        records = job.records if isinstance(job, VerifySweep) else []
        layers = spans.layer_metrics(recorder.spans[:n_spans], counts, hits,
                                     pairs_len, list(verify.SUITES), records)
        # Layer times are rescaled by the iteration's mean speed, like wall_s.
        out["layers"] = {name: value * wall / wall_raw if name.endswith("_s") else value
                         for name, value in layers.items()}
        out["caches"] = cache_sizes
        path = os.path.join(os.path.dirname(scratch), f"spans-{workload}-{seed}.jsonl")
        with open(path, "w") as fh:
            for span in recorder.spans[:n_spans]:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:
        traceback.print_exc()
        sys.exit(3)
