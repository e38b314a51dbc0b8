"""Benchmark of procmat: one workload, one seed, one run.

    python3 bench/run.py --workload sep_multistart --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (``src/procmat`` is imported from
there; nothing is installed).  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced run
with ``--trace 1``.  The line before it carries the environment and the
details behind the metrics.  The exit status is 1 when any output check
fails and 2 when the checkout has no ``src/procmat``.

Each run executes the workload's fixed batch (its size is in
``workloads.py``), then keeps going through the same seeded stream until
``--seconds`` have passed.  Set-up time is the median over separate
processes, each importing procmat and building the batch's inputs.  Every
time in the metrics is divided by the run's speed factor (see ``speed.py``):
the unit ``ref_s`` of ``wall_s``, ``ops_per_s``, ``op_p50_s`` and
``op_tail_s`` is seconds on the reference machine, not measured seconds, and
``setup_s`` is scaled the same way although its unit reads ``s``.  The details
line carries the measured times under ``raw``.  Records of the run (and
spans of a traced run) go to ``.bench_out/``.
"""

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

#: BLAS / OpenMP thread counts, pinned to 1 before numpy is first imported
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
#: speed-kernel runs before and after the measured loop
SPEED_SAMPLES_AROUND = 5
#: the speed kernel runs after an operation once this long has passed
SPEED_EVERY_S = 0.25
WORKLOAD_NAMES = ("sep_multistart", "feix_plane", "inspect_mix")
#: shown on standard error, at most this many failures per run
SHOWN_FAILURES = 5


def tail(samples):
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples_beyond)``.  With ten samples or
    fewer no percentile qualifies; the maximum is returned with 0 beyond.
    """
    xs = sorted(samples)
    n = len(xs)
    k = n - 11 if n >= 11 else n - 1
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


def environment(workload: str, seed: int, trace: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = proc.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def setup_probe(workload: str, seed: int) -> float:
    """Time import, input building and first-call set-up in this process."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    workdir = OUT / f"setup-{os.getpid()}"
    try:
        workloads.WORKLOADS[workload].setup(seed, workdir)
        return time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up times of ``SETUP_SAMPLES`` fresh processes, in seconds."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def show_failures(name: str, failures: list[str]):
    for message in failures[:SHOWN_FAILURES]:
        print(f"FAILED {name} {message}", file=sys.stderr)


def run_untraced(wl, state, seconds: float) -> dict:
    """The closed loop: the batch, then more of the stream until ``seconds``
    have passed, with the speed kernel run between operations.  Times are
    reported raw in the details and divided by the speed factor in the
    metrics; the kernel's own time is excluded from both."""
    from speed import SpeedProbe
    from workloads import RunContext

    probe = SpeedProbe()
    for _ in range(SPEED_SAMPLES_AROUND):
        probe.sample()
    ctx = RunContext()
    done = []  # (item, result or exception)
    times = []
    wall = None
    kernel_s = 0.0
    t_start = last_sample = time.perf_counter()
    i = 0
    while i < wl.batch or time.perf_counter() - t_start < seconds:
        item = wl.item(state, i)
        t0 = time.perf_counter()
        try:
            result = wl.execute(state, item, ctx)
        except Exception as err:  # an unexpected exception is a failed operation
            result = err
        times.append(time.perf_counter() - t0)
        done.append((item, result))
        i += 1
        if i == wl.batch:
            wall = time.perf_counter() - t_start - kernel_s
        if time.perf_counter() - last_sample >= SPEED_EVERY_S:
            kernel_s += probe.sample()
            last_sample = time.perf_counter()
    elapsed = time.perf_counter() - t_start - kernel_s
    for _ in range(SPEED_SAMPLES_AROUND):
        probe.sample()
    speed = probe.factor()

    failures = []
    values = []
    for n, (item, result) in enumerate(done):
        try:
            if isinstance(result, Exception):
                raise result
            value = wl.check(state, item, result)
        except Exception as err:  # any exception in a check is a failed operation
            failures.append(f"op {n}: {type(err).__name__}: {err}")
            continue
        if n < wl.batch and value is not None:
            values.append(value)
    show_failures(wl.name, failures)
    tail_s, percentile, beyond = tail(times)
    attempted = len(done)
    completed = attempted - len(failures)
    raw = {
        "wall_s": wall,
        "ops_per_s": completed / elapsed,
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
    }
    metrics = {
        "wall_s": (raw["wall_s"] / speed, "ref_s"),
        "ops_per_s": (raw["ops_per_s"] * speed, "1/ref_s"),
        "op_p50_s": (raw["op_p50_s"] / speed, "ref_s"),
        "op_tail_s": (raw["op_tail_s"] / speed, "ref_s"),
        "success_rate": (completed / attempted, "ratio"),
        "best_value_bits": (max(values) if values else 0.0, "bits"),
        "mean_value_bits": (statistics.fmean(values) if values else 0.0, "bits"),
    }
    details = {
        "raw": raw,
        "speed_factor": speed,
        "kernel_ratio": probe.ratio(),
        "speed_samples": len(probe.samples),
        "op_tail": {"percentile": percentile, "samples": attempted, "beyond": beyond},
        "batch": wl.batch,
        "error_rate": len(failures) / attempted,
        "rejected": ctx.rejected,
        "elapsed_s": elapsed,
    }
    return {"attempted": attempted, "failed": len(failures), "metrics": metrics, "details": details}


def run_traced(wl, state) -> dict:
    import tracing

    tracer = tracing.Tracer()
    outcome = wl.traced(wl, state, tracer)
    show_failures(wl.name, outcome["failures"])
    metrics = tracer.summary()
    metrics["optimizer.coordinate_ascent.sweeps"] = (
        tracer.counters.get("optimizer.coordinate_ascent.sweeps", 0), "count")
    metrics["process.rejected"] = (tracer.counters.get("process.rejected", 0), "count")
    metrics["trace.overhead_s"] = (outcome["traced_s"] - outcome["untraced_s"], "s")
    details = {
        "untraced_s": outcome["untraced_s"],
        "traced_s": outcome["traced_s"],
        "bitwise_mismatches": outcome["bitwise_mismatches"],
        "spans": len(tracer.spans),
    }
    return {
        "attempted": wl.batch,
        "failed": len(outcome["failures"]),
        "metrics": metrics,
        "details": details,
        "dump": tracer.dump(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "procmat" / "__init__.py").is_file():
        print(f"error: no procmat sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0

    # set-up is timed in fresh processes before this one imports procmat
    setup_samples = None if args.trace else setup_seconds(args.workload, args.seed)
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    try:
        state = wl.setup(args.seed, workdir)
        if args.trace:
            outcome = run_traced(wl, state)
        else:
            outcome = run_untraced(wl, state, args.seconds)
            setup_raw = statistics.median(setup_samples)
            outcome["details"]["raw"]["setup_s"] = setup_raw
            outcome["metrics"]["setup_s"] = (setup_raw / outcome["details"]["speed_factor"], "s")
            outcome["metrics"]["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
            outcome["details"]["setup_samples_s"] = setup_samples
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args.workload, args.seed, args.trace)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    dump = outcome.pop("dump", None)
    if dump is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(dump))
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in outcome["metrics"].items()},
    }
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({"env": env, "details": outcome["details"], **result}, indent=1))
    print(json.dumps({"env": env, "details": outcome["details"]}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
