#!/usr/bin/env python3
"""Digests of every benchmark job's output, kept in
tests/golden/bench_outputs.json.

Usage: python scripts/bench_outputs.py [--write] [--workload NAME]

For each workload of perfbench at seed 7 and full scale, the inputs are
generated under a temporary directory by perfbench/generate.py and every
job runs through `lincat.cli.run` in process.  A job's key is its family,
its size and its argv; its digest is the sha256 of its exit code, its
stdout without the `elapsed_ms` line, and its stderr.  The input
directory is replaced by `{inputs}` in the argv and in both streams, so
neither keys nor digests depend on where the inputs were written, and
keys do not depend on the order of the job list.

Without --write the digests are compared with the golden file, and the
keys whose digest changed, appeared or disappeared are printed; the exit
code is 1 when any did.  --write replaces the golden file.
"""
import argparse
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "bench_outputs.json"
SEED = 7
PLACEHOLDER = "{inputs}"
_ELAPSED = re.compile(r'^ *"elapsed_ms": [^\n]*\n', re.M)


def _import():
    """generate.py from perfbench, and the cli of the library in src/."""
    for path in (ROOT / "perfbench", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import generate
    from lincat import cli
    return generate, cli


def job_key(job, directory: str) -> str:
    argv = " ".join(job.argv).replace(directory, PLACEHOLDER)
    return f"{job.family} | {job.size} | {argv}"


def digests(workload: str, directory: Path) -> dict[str, str]:
    """Job key -> digest for one workload, its inputs written under
    directory."""
    generate, cli = _import()
    jobs = generate.build(workload, SEED, directory, "full")
    where = str(directory)
    out: dict[str, str] = {}
    for job in jobs:
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            code = cli.run(job.argv, stdout=stdout, stderr=stderr)
        except SystemExit as e:  # argparse refused the command line
            code = e.code
        text = _ELAPSED.sub("", stdout.getvalue()).replace(where, PLACEHOLDER)
        err = stderr.getvalue().replace(where, PLACEHOLDER)
        key = job_key(job, where)
        if key in out:
            raise SystemExit(f"two jobs share the key {key!r}")
        out[key] = hashlib.sha256(
            json.dumps([code, text, err]).encode("utf-8")).hexdigest()
    return dict(sorted(out.items()))


def all_digests(workloads) -> dict[str, dict[str, str]]:
    with tempfile.TemporaryDirectory() as tmp:
        return {w: digests(w, Path(tmp) / w) for w in workloads}


def differences(want: dict, got: dict) -> list[str]:
    """One line per key whose digest changed, appeared or disappeared."""
    lines = []
    for w in sorted(set(want) | set(got)):
        a, b = want.get(w, {}), got.get(w, {})
        for key in sorted(set(a) | set(b)):
            if a.get(key) != b.get(key):
                what = "new" if key not in a else \
                    "gone" if key not in b else "changed"
                lines.append(f"{w}: {what}: {key}")
    return lines


def main() -> int:
    generate, _ = _import()
    ap = argparse.ArgumentParser()
    ap.add_argument("--write", action="store_true",
                    help="replace the golden file")
    ap.add_argument("--workload", action="append",
                    choices=generate.WORKLOADS)
    args = ap.parse_args()
    workloads = args.workload or generate.WORKLOADS
    got = all_digests(workloads)
    if args.write:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8")) \
            if GOLDEN.exists() else {}
        golden.update(got)
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
        print(f"wrote {sum(map(len, got.values()))} digests to {GOLDEN}")
        return 0
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    lines = differences({w: want.get(w, {}) for w in workloads}, got)
    print("\n".join(lines) if lines else
          f"{sum(map(len, got.values()))} digests unchanged")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
