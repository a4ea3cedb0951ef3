"""Closed-loop job runner: one client, one thread, no queue.

Each job goes through `lincat.cli.run()` in process; the next job starts
only when the previous one has returned.  A job fails when its exit code
or a verdict differs from the value known by construction, when an
exit-2 diagnostic misses the expected text, or when an exception escapes
`run()`; the failure is counted and the loop goes on.  Each job starts
after a garbage collection, so that no job pays for the garbage of the
one before, whatever the seeded order.

Times are reported at a fixed reference speed of the core.  On a shared
host the other tenants swing the speed of a core by tens of percent for
seconds at a time (on a 2-core x86-64 guest the same covers job list
took 7.9 s to 10.9 s from one pass to the next).  So a fixed pure-Python
kernel is timed before the first job, between jobs and after the last,
and each job's time is scaled by REFERENCE_S over the mean of the kernel
times around it (the same passes, scaled, stayed within 3 % of each
other).  The kernel does not touch lincat, so a change to the library
moves job times, not the kernel.
"""
from __future__ import annotations

import gc
import io
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

# what the reference kernel takes on a quiet core of the machine the
# benchmark was tuned on (x86-64, Python 3.11)
REFERENCE_S = 0.005


def _reference_kernel() -> Fraction:
    """Fixed work in the style of lincat's hot paths: Fraction arithmetic,
    tuple keys, dict and list churn."""
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 1000):
        f = Fraction(i % 7 + 1, i % 5 + 1)
        acc = acc + f * f - f
        table[(i % 97, "k")] = [acc.numerator % 1000, i]
        if len(table) > 50:
            table.clear()
    return acc


def reference_s() -> float:
    """One timing of the reference kernel: how fast the core runs now."""
    start = time.perf_counter()
    _reference_kernel()
    return time.perf_counter() - start


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    return seconds * REFERENCE_S * 2 / (before + after)


@dataclass
class PassResult:
    wall_s: float               # as measured; traced: the root span
    job_s: list[float]          # each run() call as measured
    reference_s: list[float]    # kernel before job 0, between jobs, after
    failures: dict[int, str] = field(default_factory=dict)  # index -> why

    def scaled_job_s(self) -> list[float]:
        r = self.reference_s
        return [at_reference_speed(t, r[i], r[i + 1])
                for i, t in enumerate(self.job_s)]


def check(job, code, out: str, err: str) -> str:
    """Why the job's outcome differs from the expected one ('' if not)."""
    if code != job.exit:
        return f"exit {code}, expected {job.exit}: {err.strip()[:200]}"
    if code == 2:
        return "" if job.error in err else \
            f"diagnostic lacks {job.error!r}: {err.strip()[:200]}"
    verdicts = json.loads(out)["verdicts"]
    wrong = {k: verdicts.get(k) for k, v in job.verdicts.items()
             if verdicts.get(k) != v}
    return f"verdicts {wrong}, expected " \
        f"{ {k: job.verdicts[k] for k in wrong} }" if wrong else ""


def run_pass(cli, jobs, tracer=None) -> PassResult:
    """Run every job once, in order, timing each call of cli.run() (looked
    up per call, so a traced pass sees the wrapped entry point)."""
    times: list[float] = []
    failures: dict[int, str] = {}
    if tracer is not None:
        root = len(tracer.span_name)
        tracer.open(tracer.name_id("harness.pass"))
        job_span = tracer.name_id("harness.job")
    start = time.perf_counter()
    reference = [reference_s()]
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
            tracer.open(job_span)
        out, err = io.StringIO(), io.StringIO()
        gc.collect()    # no job pays for the garbage of the one before
        t0 = time.perf_counter()
        try:
            code = cli.run(job.argv, stdout=out, stderr=err)
        except SystemExit as e:     # argparse rejected the command line
            code = e.code
        except Exception as e:      # noqa: BLE001 -- any escape is a failure
            code = None
            err.write(f"{type(e).__name__}: {e}")
        times.append(time.perf_counter() - t0)
        why = check(job, code, out.getvalue(), err.getvalue())
        if why:
            failures[i] = why
        if tracer is not None:
            tracer.close()
        reference.append(reference_s())
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.close()   # the root span: its self times add up to its length
        wall = tracer.span_end[root] - tracer.span_start[root]
    return PassResult(wall, times, reference, failures)
