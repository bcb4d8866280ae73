"""The benchmark's tracing hooks still find every program name they wrap.

perfbench/spans.py looks names up with getattr and no fallback, so a rename
or deletion in macsym would make every traced benchmark iteration fail.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path[:0] = sys.argv[1:3]
import macsym, spans
from macsym import macdonald
caches = spans.lru_caches()
missing = [name for name in spans.HIT_RATIOS if name not in caches]
if missing:
    sys.exit(f"lru caches not found: {missing}")
spans.install(spans.Recorder())
if not macsym.ctengine.integral_rep_check((2,), 3) or not macdonald._PAIRS:
    sys.exit("traced integral check failed")
"""


def test_span_hooks_install_on_src():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
