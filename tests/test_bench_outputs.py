"""Every benchmark job's output is the one recorded in
tests/golden/bench_outputs.json: its exit code, its stdout without
`elapsed_ms`, and its stderr, by sha256, for each workload at seed 7 and
full scale.  The inputs are generated by perfbench/generate.py under
tmp_path and every job runs through `lincat.cli.run` in process (see
scripts/bench_outputs.py, which rewrites the golden file with --write).
A change that alters a job's output must say which keys changed and
why."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _script():
    spec = importlib.util.spec_from_file_location(
        "bench_outputs", ROOT / "scripts" / "bench_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_outputs = _script()
GOLDEN = json.loads(bench_outputs.GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_bench_outputs_match_golden(tmp_path, workload):
    got = bench_outputs.digests(workload, tmp_path / workload)
    want = GOLDEN[workload]
    assert bench_outputs.differences({workload: want}, {workload: got}) == []


def test_golden_covers_every_workload():
    generate, _ = bench_outputs._import()
    assert sorted(GOLDEN) == sorted(generate.WORKLOADS)
    assert all(len(v) > 100 for v in GOLDEN.values())
