"""The benchmark's smoke mode: the smallest size of every workload,
untraced and traced, with its verdicts, output schema and result files
checked (see perfbench/README.md).  Timings are not checked."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
