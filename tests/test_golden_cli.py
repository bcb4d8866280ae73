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


def test_verify_all_matches_benchmark_digest(capsys):
    # the benchmark's verify-sweep gate: all 13 suites at --maxweight 3
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    assert main(list(worker.VERIFY_ARGV)) == 0
    records = json.loads(capsys.readouterr().out)["checks"]
    assert len(records) == worker.VERIFY_CHECKS
    assert worker.verify_digest(records) == worker.VERIFY_DIGEST
