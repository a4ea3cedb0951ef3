"""The scripts under scripts/ run against the library in src/ and print
what they printed when their golden output was recorded."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def src_env() -> dict:
    """The environment with the library in src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def test_tour_matches_golden():
    env = src_env()
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "tour.py")],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    golden = (ROOT / "tests" / "golden" / "tour.txt").read_text(
        encoding="utf-8")
    assert done.stdout == golden


def test_cli_demo_passes(tmp_path):
    """scripts/cli_demo.sh drives `lincat` from PATH through the 0/1/2
    exit-code contract; a shim stands in for the installed entry point."""
    shim = tmp_path / "lincat"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m lincat.cli "$@"\n',
                    encoding="utf-8")
    shim.chmod(0o755)
    env = src_env()
    env["PATH"] = os.pathsep.join([str(tmp_path), env.get("PATH", "")])
    done = subprocess.run(["bash", str(ROOT / "scripts" / "cli_demo.sh")],
                          capture_output=True, text=True, env=env,
                          timeout=300, check=False)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
