"""Benchmark entry point: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload flow-n1-adaptive --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from `src/`. With
`--trace 0` the last stdout line carries the end-to-end metrics, with
`--trace 1` the per-layer metrics of one traced set-up and one traced pass
(see bench/README.md). Everything runs in this one thread, in a closed loop:
each job starts when the previous one returns.
"""

from __future__ import annotations

import os

# BLAS threads are capped before numpy loads: one thread is the steadiest
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# set-up runs before the first pass and SETUP_PER_PASS times after every
# pass, at least SETUP_REPS times, so its median samples the host over the
# whole run
SETUP_REPS = 5
SETUP_PER_PASS = 3
# Host speed: a calibration chunk runs before the first job of a pass,
# before any later job once CALIB_EVERY_S of timed work has passed, after
# the last job, and before each block of set-ups. Reported times are
# host-normalized: wall time scaled by CALIB_REF_S / (mean chunk time next
# to that work), i.e. seconds on a host that runs one chunk in CALIB_REF_S.
CALIB_ITERS = 120
CALIB_REF_S = 0.1
CALIB_EVERY_S = 0.5


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Calibration:
    """A fixed numpy loop, independent of the package, timed between jobs.

    The loop is shaped like the flows' kernels: batched 3x3 complex
    products and periodic differences on a 32x32 grid. Its chunks run
    next to the jobs, so a pass's chunk time measures the host's speed
    while that pass ran.
    """

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.np = np
        self.m = rng.standard_normal((1024, 3, 3)) \
            + 1j * rng.standard_normal((1024, 3, 3))
        self.f = rng.standard_normal((2, 32, 32, 3, 3)) + 0j
        self.times: list[float] = []

    def chunk(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        acc = self.m
        for _ in range(CALIB_ITERS):
            acc = (acc @ self.m) * 0.3
            g = (np.roll(self.f, 1, axis=1) - np.roll(self.f, -1, axis=2)) * 0.5
            acc = acc + g[0, 0, 0]
        elapsed = time.perf_counter() - t0
        self.times.append(elapsed)
        return elapsed


class StepCounter:
    """Accepted and rejected flow steps, read from each runner's result."""

    def __init__(self):
        self.steps = 0
        self.rejected = 0

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.steps += result.steps
            self.rejected += result.rejected
            return result
        return wrapper


class Run:
    """Attempted and failed jobs of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def execute(self, job, counter, tracer=None):
        """Time one job, then check it untimed; returns (seconds, counts)."""
        self.attempted += 1
        counter.steps = counter.rejected = 0
        error = None
        span = tracer.span("bench.job") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                result = job.call()
        except Exception:  # noqa: BLE001 - a failed job is counted, the run goes on
            error = traceback.format_exc(limit=4)
        elapsed = time.perf_counter() - t0
        counts = (counter.steps, counter.rejected)
        if error is None:
            if tracer is not None:
                tracer.enabled = False
            try:
                error = job.check(result)
            except Exception:  # noqa: BLE001
                error = traceback.format_exc(limit=4)
            if tracer is not None:
                tracer.enabled = True
        if error:
            self.failed += 1
            self.problems.append(f"{job.name}: {error}")
        return elapsed, counts


class Samples:
    """Raw and host-normalized timings of one run's untraced part."""

    def __init__(self):
        self.setup_raw, self.setup = [], []
        self.pass_raw, self.passes = [], []
        self.latency_raw, self.latency = [], []
        self.pass_counts = []
        self.pass_chunks = []


def measure(run, build, counter, budget_s, calib) -> Samples:
    """Passes over the jobs until the budget is spent, set-up between them.

    A pass starts only if a pass of the mean length still fits.
    """
    out = Samples()

    def setups(count):
        scale = CALIB_REF_S / calib.chunk()
        for _ in range(count):
            t0 = time.perf_counter()
            jobs = build()
            elapsed = time.perf_counter() - t0
            out.setup_raw.append(elapsed)
            out.setup.append(elapsed * scale)
        return jobs

    jobs = setups(1)
    start = time.perf_counter()
    while True:
        chunks, latencies, counts = [], [], []
        since_chunk = CALIB_EVERY_S
        for job in jobs:
            if since_chunk >= CALIB_EVERY_S:
                chunks.append(calib.chunk())
                since_chunk = 0.0
            elapsed, c = run.execute(job, counter)
            since_chunk += elapsed
            latencies.append(elapsed)
            counts.append(c)
        chunks.append(calib.chunk())  # the pass's last job is bracketed too
        scale = CALIB_REF_S / statistics.fmean(chunks)
        out.pass_chunks.append(chunks)
        out.pass_raw.append(sum(latencies))
        out.passes.append(sum(latencies) * scale)
        out.latency_raw += latencies
        out.latency += [x * scale for x in latencies]
        out.pass_counts.append(counts)
        spent = time.perf_counter() - start
        if spent + spent / len(out.passes) > budget_s:
            break
        jobs = setups(SETUP_PER_PASS)
    if len(out.setup) < SETUP_REPS:
        setups(SETUP_REPS - len(out.setup))
    return out


def _p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke test's small inputs")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "higgsflow" / "__init__.py").is_file():
        print(f"bench: no package at {src / 'higgsflow'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    build = WORKLOADS[args.workload]
    tiny = args.scale == "tiny"
    out_dir = ROOT / "bench_out"
    out_dir.mkdir(exist_ok=True)

    calib = Calibration(np)
    run = Run()
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        workdir = Path(tmp)
        counter = StepCounter()
        tracing.rebind(counter.wrap, {"flows.run_donaldson_flow",
                                      "flows.run_ymh_flow"})
        budget = args.seconds / 2 if args.trace else args.seconds
        samples = measure(run, lambda: build(args.seed, tiny, workdir),
                          counter, budget, calib)
        counts = samples.pass_counts[0]
        if any(c != counts for c in samples.pass_counts):
            run.problems.append(f"step counts differ between passes: "
                                f"{samples.pass_counts}")
        solve_s = statistics.median(samples.passes)

        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
            chunk_before = calib.chunk()
            tracer.enabled = True
            with tracer.span("bench.setup"):
                jobs = build(args.seed, tiny, workdir)
            traced_counts = []
            for op, job in enumerate(jobs, start=1):
                tracer.op = op
                _, c = run.execute(job, counter, tracer)
                traced_counts.append(c)
            tracer.enabled = False
            traced_scale = CALIB_REF_S / statistics.fmean(
                [chunk_before, calib.chunk()])
            if traced_counts != counts:
                run.problems.append(f"traced step counts {traced_counts} differ "
                                    f"from untraced {counts}")
            tracer.write_csv(out_dir / f"trace-{args.workload}-{args.seed}.csv")

    correct = run.failed == 0 and not run.problems
    for problem in run.problems:
        print(f"bench: {problem}", file=sys.stderr)

    calib_s = statistics.median(calib.times)
    lat_ms = [1e3 * x for x in samples.latency]
    if args.trace:
        values = tracing.per_layer_metrics(tracer)
        jobs_s = sum(sp.duration for sp in tracer.spans if sp.name == "bench.job")
        setup_traced = sum(sp.duration for sp in tracer.spans
                           if sp.name == "bench.setup")
        values["trace.solve_s"] = (jobs_s, "s")
        values["trace.setup_s"] = (setup_traced, "s")
        values["trace.overhead_frac"] = (jobs_s * traced_scale / solve_s - 1.0,
                                         "ratio")
        values["host.calib_s"] = (calib_s, "s")
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": (statistics.median(samples.setup), "s"),
            "solve_s": (solve_s, "s"),
            "steps": (sum(s for s, _ in counts), "count"),
            "op_ms_p50": (statistics.median(lat_ms), "ms"),
            "op_ms_p90": (_p90(lat_ms), "ms"),
            "passed_frac": (1.0 - run.failed / run.attempted, "ratio"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }

    raw_ms = [1e3 * x for x in samples.latency_raw]
    info = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "passes": len(samples.passes),
        "op_calls": len(lat_ms), "setup_reps": len(samples.setup),
        "rejected": sum(r for _, r in counts),
        "host.calib_s": calib_s, "calib_chunks": len(calib.times),
        "calib_ref_s": CALIB_REF_S,
        "wall": {"setup_s": statistics.median(samples.setup_raw),
                 "solve_s": statistics.median(samples.pass_raw),
                 "op_ms_p50": statistics.median(raw_ms),
                 "op_ms_p90": _p90(raw_ms),
                 "pass_s": samples.pass_raw,
                 "pass_chunks_s": samples.pass_chunks,
                 "chunks_s": calib.times},
        "git_sha": _git_sha(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
        "waiting": "none: one thread, no queues, so no layer waits on another",
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
