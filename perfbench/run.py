"""The lincat benchmark.

    python3 perfbench/run.py --workload covers --seed 1 --seconds 30 --trace 0

Runs from the root of a lincat checkout: writes the seeded inputs of one
workload (see generate.py) under .bench_build/perfbench, then sends its
fixed job list through `lincat.cli.run()` in process, pass after pass,
for --seconds, checking every verdict.  One client, one thread, closed
loop.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics from one traced pass run after the untraced ones.  A result file
with the machine, the seed and every sample goes to
.bench_build/perfbench/results.

Other modes: `--compare A B` compares two directories of result files
(compare.py); `--smoke` runs the smallest size of each workload and
checks the schema and the verdicts (smoke.py).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_RUNS = 5          # set-ups per run; setup_s is their median

import generate
import harness


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def require_source() -> None:
    if not (SRC / "lincat" / "cli.py").is_file():
        sys.exit(f"perfbench: no lincat source under {SRC}; run from the "
                 "root of a lincat checkout")


def import_cli():
    """Import the checkout's lincat, never an installed copy."""
    sys.path.insert(0, str(SRC))
    from lincat import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported lincat from {cli.__file__}")
    return cli


def setup(workload: str, seed: int, scale: str, workdir: Path):
    """Everything before the first timed job: imports, inputs, files."""
    cli = import_cli()
    return cli, generate.build(workload, seed, workdir, scale)


def timed_setups(args, runs: int) -> list[float]:
    """Wall time of `runs` fresh processes that each do the whole set-up
    and exit (process start, imports, input generation, file writes), at
    the reference speed of the core (see harness.py)."""
    times = []
    for i in range(runs):
        workdir = OUT / "work" / f"setup-{os.getpid()}-{i}"
        before = harness.reference_s()
        start = time.perf_counter()
        # no timeout: waiting with one polls in steps of up to 50 ms
        subprocess.run([sys.executable, str(HERE / "run.py"),
                        "--setup-only", str(workdir),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--scale", args.scale], check=True)
        spent = time.perf_counter() - start
        times.append(harness.at_reference_speed(spent, before,
                                                harness.reference_s()))
        shutil.rmtree(workdir, ignore_errors=True)
    return times


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": model or platform.processor(), "git_sha": git_sha()}


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def job_s(passes) -> list[float]:
    """Each job's latency: its median run() time over the passes, at the
    reference speed (see harness.py)."""
    return [statistics.median(times)
            for times in zip(*(p.scaled_job_s() for p in passes))]


def end_to_end(passes, setups: list[float]) -> tuple[dict, dict]:
    """Metric values and the sample count behind each: wall_s is the job
    list once, the sum of its job latencies; p50 and p90 are taken over
    the latencies of the job list."""
    latency = job_s(passes)
    job_ms = [t * 1000 for t in latency]
    attempted = sum(len(p.job_s) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(latency),
        "job_ms.p50": statistics.median(job_ms),
        "job_ms.p90": statistics.quantiles(job_ms, n=10)[-1],
        "fail_ratio": failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    samples = {"setup_s": len(setups), "wall_s": len(passes),
               "job_ms.p50": len(job_ms), "job_ms.p90": len(job_ms),
               "fail_ratio": attempted, "peak_rss_mb": 1}
    return values, samples


def measure(args):
    require_source()
    setups = timed_setups(args, SETUP_RUNS if args.scale == "full" else 1)
    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        cli, jobs = setup(args.workload, args.seed, args.scale, workdir)
        budget = args.seconds / 2 if args.trace else args.seconds
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(harness.run_pass(cli, jobs))
            typical = statistics.median(p.wall_s for p in passes)
            if time.perf_counter() - start + typical > budget:
                break
        traced = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
            try:
                traced = harness.run_pass(cli, jobs, tracer)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    everything = passes + ([traced] if traced else [])
    failures = [(jobs[i], why) for p in everything
                for i, why in p.failures.items()]
    result = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"), **machine(),
        "jobs": [f"{j.family} {j.size}" for j in jobs],
        "pass_wall_s": [p.wall_s for p in passes],
        "job_ms": [[t * 1000 for t in p.job_s] for p in passes],
        "reference_ms": [[t * 1000 for t in p.reference_s] for p in passes],
        "setup_runs_s": setups,
        "attempted": sum(len(p.job_s) for p in everything),
        "failed": len(failures),
        "correct": all(job.defect for job, _ in failures),
        "failures": sorted({(f"{j.family} {j.size}", why, j.defect)
                            for j, why in failures}),
    }
    if traced:
        result["metrics"] = tracer.metrics(
            traced.wall_s, sum(job_s([traced])) / sum(job_s(passes)))
        result["samples"] = {"traced passes": 1, "untraced passes":
                             len(passes)}
        result["trace_counters"] = dict(tracer.counters)
    else:
        result["metrics"], result["samples"] = end_to_end(passes, setups)
    return result, (tracer if traced else None)


def report(result: dict, tracer, units: dict) -> None:
    """Human-readable lines, the result file, then the JSON line."""
    OUT.mkdir(parents=True, exist_ok=True)
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    stem = (f"{result['workload']}-seed{result['seed']}-"
            f"trace{result['trace']}-{time.strftime('%Y%m%d-%H%M%S')}-"
            f"{os.getpid()}")
    path = results / f"{stem}.json"
    if tracer is not None:
        spans = results / f"{stem}.spans.jsonl"
        tracer.write(spans)
        result["spans"] = str(spans.relative_to(ROOT))
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"perfbench {result['workload']} seed {result['seed']}: "
          f"{len(result['pass_wall_s'])} untraced pass(es) of "
          f"{len(result['jobs'])} jobs, {result['failed']} of "
          f"{result['attempted']} jobs failed")
    for what, why, defect in result["failures"]:
        print(f"  {'known defect' if defect else 'FAILED'}: {what}: {why}")
    samples = result["samples"]
    for name, value in result["metrics"].items():
        n = samples.get(name)
        print(f"  {name:40s} {value:14.6g} {units[name]:6s}"
              + (f" ({n} samples)" if n else ""))
    print(f"  result file: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()}}))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=generate.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=tuple(generate.SIZES), default="full",
                   help="input sizes; smoke keeps the smallest of each "
                        "family")
    p.add_argument("--setup-only", metavar="DIR",
                   help="do the set-up into DIR and exit (timed by the "
                        "parent run)")
    p.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                   help="compare two directories of result files")
    p.add_argument("--smoke", action="store_true",
                   help="check schema and verdicts at the smallest sizes")
    args = p.parse_args(argv)
    if args.compare:
        import compare
        return compare.main(*args.compare, spec())
    if args.smoke:
        import smoke
        return smoke.main()
    if args.workload is None:
        p.error("--workload is required")
    if args.setup_only:
        require_source()
        setup(args.workload, args.seed, args.scale, Path(args.setup_only))
        return 0
    bench = spec()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    result, tracer = measure(args)
    report(result, tracer, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
