"""Every README command-line example prints exactly its recorded output.

The files under tests/golden/ hold the stdout of each example.  The verify
example is re-serialized without its `wall_time` fields, the only part of
the output that is not deterministic.  To record a new expected output after
an intended change, run the example and write its stdout (for verify, the
form that `_normalize` returns) to the golden file.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from macsym.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"
# `verify --suite all --format json` at the defaults; recompute only when a
# change is meant to alter the report
DEFAULT_VERIFY_CHECKS = 755
DEFAULT_VERIFY_DIGEST = "2b019b8515d5ecc5b358c655f87985422e50e777e9d351ecde25f3dfac817e59"

EXAMPLES = {
    "expand": ["expand", "--lam", "2,1", "--basis", "m", "--format", "json"],
    "norm": ["norm", "--lam", "2", "--n", "2"],
    "skew": ["skew", "--lam", "2,1", "--mu", "1"],
    "kostka": ["kostka", "--degree", "3", "--format", "tsv"],
    "integral": ["integral", "--lam", "2,1", "--order", "6"],
    "verify-eigen": ["verify", "--suite", "eigen", "--maxweight", "3",
                     "--format", "json"],
}


def _normalize(name, out):
    if not name.startswith("verify"):
        return out
    data = json.loads(out)
    for record in data["checks"]:
        del record["wall_time"]
    return json.dumps(data, indent=1) + "\n"


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_readme_example_output(name, capsys):
    assert main(EXAMPLES[name]) == 0
    got = _normalize(name, capsys.readouterr().out)
    assert got == (GOLDEN / f"{name}.txt").read_text()


def _worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


def test_verify_all_matches_benchmark_digest(capsys):
    # the benchmark's verify-sweep gate: all 13 suites at --maxweight 3
    worker = _worker()
    assert main(list(worker.VERIFY_ARGV)) == 0
    records = json.loads(capsys.readouterr().out)["checks"]
    assert len(records) == worker.VERIFY_CHECKS
    assert worker.verify_digest(records) == worker.VERIFY_DIGEST


def test_verify_all_at_the_defaults_matches_its_digest(capsys):
    # the default report, each suite at its own maxweight and order, pinned by
    # the same digest over the v1 fields
    assert main(["verify", "--suite", "all", "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)["checks"]
    assert len(records) == DEFAULT_VERIFY_CHECKS
    assert _worker().verify_digest(records) == DEFAULT_VERIFY_DIGEST
