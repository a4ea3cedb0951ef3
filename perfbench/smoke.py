"""The benchmark's own smoke check.

    python3 perfbench/run.py --smoke

Runs the smallest size of every family of every workload through the
real entry point, untraced and traced, and checks what a caller of the
benchmark relies on: exit code 0, the last stdout line with exactly
the keys correct, attempted, failed and metrics, every metric of
BENCHMARK.json by name with its unit, every verdict right (failures only
on the known defect jobs), the machine record in the result file, and
per-layer self times that add up to the traced wall time.  Timings are
not checked.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
MACHINE_KEYS = {"python", "nproc", "cpu", "git_sha", "seed"}


def check_run(workload: str, trace: int, spec: dict) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    line = json.loads(lines[-1])
    problems = []
    if set(line) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(line)}")
    if line.get("correct") is not True:
        problems.append(f"{where}: verdicts wrong:\n" + proc.stdout)
    attempted, failed = line.get("attempted"), line.get("failed")
    if not (isinstance(attempted, int) and attempted >= 1
            and isinstance(failed, int) and 0 <= failed <= attempted):
        problems.append(f"{where}: attempted {attempted}, failed {failed}")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = line.get("metrics", {})
    if set(metrics) != set(wanted):
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(wanted))}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m["unit"] != wanted.get(name) \
                or not isinstance(m["value"], (int, float)) \
                or not math.isfinite(m["value"]):
            problems.append(f"{where}: bad metric {name}: {m}")
    result_file = next(ln.split(":", 1)[1].strip() for ln in lines
                       if ln.strip().startswith("result file:"))
    result = json.loads((ROOT / result_file).read_text(encoding="utf-8"))
    if not MACHINE_KEYS <= set(result):
        problems.append(f"{where}: result file lacks "
                        f"{sorted(MACHINE_KEYS - set(result))}")
    if trace:
        values = result["metrics"]
        total = sum(v for k, v in values.items()
                    if k.count(".") == 1 and k.endswith(".self_s"))
        wall = values["trace.wall_s"]
        if abs(total - wall) > 1e-6 * wall:
            problems.append(f"{where}: self times add up to {total}, "
                            f"traced wall is {wall}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(workload, trace, spec)
            print(f"{workload} --trace {trace}: "
                  f"{'ok' if not found else 'FAILED'}")
            problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0
