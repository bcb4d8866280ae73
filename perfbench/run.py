"""Cold-process benchmark for macsym.

    python3 perfbench/run.py --workload family-build --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each iteration is a fresh interpreter
(perfbench/worker.py) that imports macsym from ./src with every memo cache
cold, makes its inputs from the seed, times one pass of the workload and
checks the outputs.  Iterations run one after another: a closed loop with
one client, one process and one thread.  They repeat until --seconds have
passed and at least MIN_ITERATIONS have run.

End-to-end metrics, medians over the run's untraced iterations: wall_s and
cpu_s of the timed phase (first call into macsym to last result), setup_s
from process start to ready (interpreter, imports, inputs), and
peak_rss_mb, the process's maximum resident set.  The times are rescaled to
the host's reference speed by a probe that runs every 50 ms inside the
worker (worker.HostSpeed), so a slow stretch of the shared host does not
show as a slower macsym; the medians of the times as the clocks read them
are printed beside them.  error_rate, failed over attempted operations as
counted by the correctness gates, is printed with them; the JSON result
carries it as "failed" and "attempted".

With --trace 1, untraced and traced iterations alternate; the result holds
the per-layer metrics of the traced ones (perfbench/spans.py) and
trace.overhead_s, traced minus untraced median wall time.  The last line of
standard output is one JSON object; the exit status is 0 only when every
correctness gate passed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("family-build", "verify-sweep", "integral-series")
MIN_ITERATIONS = 2
# A run with fewer iterations than this starts set-up-only processes until
# setup_s is a median of this many set-ups.
SETUP_SAMPLES = 9
# No iteration starts when it would likely end past HARD_LIMIT_S, and none
# runs past DEADLINE_S, so a run ends within 180 s.
HARD_LIMIT_S = 140
DEADLINE_S = 170
PYTHONHASHSEED = "0"
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Per-layer values that are exact counts and must repeat in every traced iteration.
COUNT_SUFFIXES = (".calls", ".builds", ".term_pairs", ".cached_pairs", ".checks")


def environment():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or commit
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": model, "commit": commit, "pythonhashseed": PYTHONHASHSEED}


def run_iteration(workload, seed, traced, scratch, deadline):
    """One worker process; its JSON result or a failure record.

    ``traced`` is True, False or "setup" for a process that stops after set-up.
    """
    env = dict(os.environ, PYTHONHASHSEED=PYTHONHASHSEED, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        argv = [sys.executable, "-B", str(HERE / "worker.py"), str(ROOT), workload,
                str(seed), {True: "1", False: "0"}.get(traced, traced),
                repr(time.monotonic()), tmp]
        try:
            done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(deadline - time.monotonic(), 1))
        except subprocess.TimeoutExpired:
            return {"attempted": 1, "failed": 1, "failures": ["iteration timed out"]}
    lines = done.stdout.strip().splitlines()
    if traced == "setup" and done.returncode == 0 and lines:
        return json.loads(lines[-1])
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-5:]
        return {"attempted": 1, "failed": 1,
                "failures": [f"worker exited {done.returncode}: {' | '.join(tail)}"]}
    out = json.loads(lines[-1])
    out.update(traced=traced)
    return out


def spread(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def measure(args, scratch, start):
    """Run iterations until the time is up; a list of worker results."""
    deadline = start + DEADLINE_S
    results, longest = [], 0.0
    while True:
        traced = bool(args.trace) and len(results) % 2 == 1
        began = time.monotonic()
        results.append(run_iteration(args.workload, args.seed, traced, scratch, deadline))
        longest = max(longest, time.monotonic() - began)
        elapsed = time.monotonic() - start
        if "wall_s" not in results[-1] or elapsed + longest > HARD_LIMIT_S:
            return results
        paired = not args.trace or len(results) % 2 == 0
        if len(results) >= MIN_ITERATIONS - args.trace and elapsed >= args.seconds and paired:
            return results


def extra_setups(args, scratch, have, start):
    """Results of set-up-only processes, up to SETUP_SAMPLES set-ups in all."""
    out = []
    while have + len(out) < SETUP_SAMPLES and time.monotonic() < start + HARD_LIMIT_S:
        out.append(run_iteration(args.workload, args.seed, "setup", scratch,
                                 start + DEADLINE_S))
    return out


def end_to_end(plain, setups):
    """The median of each end-to-end metric over the untraced iterations.

    ``setups`` are the results of extra set-up-only processes.
    """
    metrics = {}
    for name, unit in END_TO_END.items():
        rows = plain + (setups if name == "setup_s" else [])
        values = [r[name] for r in rows]
        value, (q1, q3) = statistics.median(values), spread(values)
        metrics[name] = {"value": value, "unit": unit}
        clocks = ""
        if name.endswith("_s"):
            raw = statistics.median(r[name[:-2] + "_raw_s"] for r in rows)
            clocks = f" as clocked: median {raw:.6f}"
        print(f"{name:<12} {value:12.6f} {unit:<3} q1 {q1:.6f} q3 {q3:.6f} "
              f"n {len(values)}{clocks}")
    return metrics


def per_layer(traced, plain):
    """Median of each per-layer metric over the traced iterations, and the overhead."""
    metrics = {}
    for name in traced[0]["layers"]:
        unit = "s" if name.endswith("_s") else (
            "ratio" if name.endswith("hit_ratio") else "count")
        metrics[name] = {"value": statistics.median(r["layers"][name] for r in traced),
                         "unit": unit}
    overhead = (statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in plain))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    print("# caches " + json.dumps(traced[-1]["caches"], sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name:<40} {metric['value']!r} {metric['unit']}")
    return metrics


def moved_counts(traced):
    """Count metrics that differ between traced iterations; they must repeat exactly."""
    first = traced[0]["layers"]
    return sorted({name for r in traced[1:] for name, value in r["layers"].items()
                   if name.endswith(COUNT_SUFFIXES) and value != first[name]})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "macsym" / "__init__.py").is_file():
        print(f"error: no macsym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    results = measure(args, scratch, start)
    setups = extra_setups(args, scratch, len(results), start) if not args.trace else []
    plain = [r for r in results if "wall_s" in r and not r["traced"]]
    traced = [r for r in results if "wall_s" in r and r["traced"]]
    attempted = sum(r.get("attempted", 0) for r in results + setups)
    failed = sum(r.get("failed", 0) for r in results + setups)
    env = environment()
    if plain:
        env.update(sympy=plain[0]["sympy"], ground_types=plain[0]["ground_types"],
                   worker_pythonhashseed=plain[0]["pythonhashseed"])
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(plain)} untraced + {len(traced)} traced iterations "
          f"in {time.monotonic() - start:.1f} s")
    print("# environment " + json.dumps(env, sort_keys=True))
    for msg in [msg for r in results + setups for msg in r.get("failures", [])][:20]:
        print(f"# FAILED {msg}")

    metrics = {}
    if plain:
        metrics = end_to_end(plain, [r for r in setups if "setup_s" in r])
    if args.trace:
        metrics = per_layer(traced, plain) if traced and plain else {}
        if len(traced) > 1:
            attempted += 1
            moved = moved_counts(traced)
            if moved:
                failed += 1
                print("# FAILED counts differ between traced iterations: " + ", ".join(moved))
    print(f"{'error_rate':<12} {failed / max(attempted, 1):12.6f} "
          f"ratio ({failed} failed of {attempted} attempted)")

    correct = not failed and bool(plain) and (bool(traced) or not args.trace)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
