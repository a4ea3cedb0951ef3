"""The scripts under scripts/ run against the library in src/ and print
what they printed when their golden output was recorded."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tour_matches_golden():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "tour.py")],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    golden = (ROOT / "tests" / "golden" / "tour.txt").read_text(
        encoding="utf-8")
    assert done.stdout == golden
