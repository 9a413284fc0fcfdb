"""nbwalk benchmark: one workload, one process, one client, jobs back to back.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ``src/``.
The run sets up the workload several times (import nbwalk, make the seeded
inputs, build and contract the graphs), runs one untimed pass that checks
every job's output in full, then runs passes over the fixed job list for
``--seconds`` seconds.  A fixed reference loop runs beside every timed
set-up and job, and times are reported relative to it, so that the shared
host's changes of speed, which last seconds to minutes, cancel out.  With
``--trace 1`` untraced and traced passes alternate, and the traced ones
record spans and counters around the calls into each module of nbwalk.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, whose names and
units are those ``BENCHMARK.json`` declares; everything else
(per-job times, output digests, machine facts, the spans) goes to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 11
REF_S = 0.01  # seconds one reference loop counts as when set-up time is scaled
TRACED_SETUP_REPS = 2
MIN_PASSES = 3

# numpy must not start a thread pool of its own: the closed loop uses at
# most two threads, both from `diagnose --jobs 2`
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  -- loaded before set-up, which times nbwalk alone

import inputs  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, digests, expect  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_nbwalk():
    for name in [m for m in sys.modules if m == "nbwalk" or m.startswith("nbwalk.")]:
        del sys.modules[name]
    nb = importlib.import_module("nbwalk")
    importlib.import_module("nbwalk.cli")
    return nb


def timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def reference_loop():
    """Fixed work that does not touch nbwalk: dictionary updates and integer
    arithmetic in the interpreter, then numpy draws and a cumulative sum, the
    two kinds of work nbwalk's jobs do.  About 10 ms on a 2-vCPU Xeon host."""
    table = {}
    acc = 0
    for i in range(30_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        acc ^= (i * 2654435761) & 0xFFFF
    rng = np.random.default_rng(12345)
    return acc + int(np.cumsum(rng.integers(0, 6, 60_000))[-1])


def machine_facts(nb):
    src = hashlib.sha256()
    for path in sorted((SRC / "nbwalk").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nbwalk": nb.__version__,
        "nbwalk_src_sha256": src.hexdigest(),
        "bit_generator": type(np.random.default_rng(0).bit_generator).__name__,
        "platform": platform.platform(),
    }


class Runner:
    """Runs the job list pass after pass and keeps every timing and failure."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.attempted = 0
        self.failures = []
        self.ref_s = []  # per calibrated pass: the reference loop's time before each job

    def fail(self, where, exc):
        self.failures.append(
            {"where": where, "error": f"{type(exc).__name__}: {exc}", "traceback": traceback.format_exc()}
        )

    def run_pass(self, label, tracer=None, first=False, calibrate=False):
        """One pass over the job list; returns the seconds each job took.
        With ``calibrate`` the reference loop runs, timed, before each job."""
        span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
        gc.collect()
        times = {}
        refs = []
        for job in self.jobs:
            if calibrate:
                refs.append(timed(reference_loop))
            self.attempted += 1
            if tracer:
                tracer.job = job.name
            try:
                with span("job"):
                    t0 = time.perf_counter()
                    try:
                        with span("cli." + job.cli) if job.cli else contextlib.nullcontext():
                            raw = job.call()
                    finally:
                        times[job.name] = time.perf_counter() - t0
                out = job.collect(raw)
                job.last = digests(out)
                if first:
                    job.digests = job.last
                    job.check(out)
                else:
                    expect(job.last == job.digests, "output bytes differ from the first pass")
                    if job.recheck:
                        with span("job.recheck"):
                            job.recheck(out)
            except Exception as exc:  # a failed job is counted, and the run goes on
                self.fail(f"{label}/{job.name}", exc)
        if calibrate:
            self.ref_s.append(refs)
        return times

    def checked(self, where, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # recorded as a failed check
            self.fail(where, exc)
            return f"failed: {exc}"


class Deadline:
    """Stops the measuring loop before a pass would run past ``seconds``."""

    def __init__(self, seconds):
        self.end = time.perf_counter() + seconds
        self.longest = 0.0

    def lap(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.longest = max(self.longest, time.perf_counter() - t0)
        return result

    def room(self):
        return time.perf_counter() + self.longest <= self.end


def pass_seconds(passes):
    return [sum(t.values()) for t in passes]


def spread(values):
    q = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q[0], "q3": q[2],
            "min": min(values), "max": max(values)}


def bench(args, work):
    wl = WORKLOADS[args.workload]
    setup_times = []
    refs = [timed(reference_loop), timed(reference_loop)]  # the first warms numpy up
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        nb = import_nbwalk()
        ctx = wl.setup(nb, args.seed, work)
        setup_times.append(time.perf_counter() - t0)
        refs.append(timed(reference_loop))
    # each set-up scaled by the mean of the reference loops just before and after it
    setup_scaled = [t * REF_S / statistics.fmean(refs[i + 1:i + 3]) for i, t in enumerate(setup_times)]
    if Path(nb.__file__).resolve().parent != SRC / "nbwalk":
        raise RuntimeError(f"imported nbwalk from {nb.__file__}, not from {SRC}")
    input_files = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(work.iterdir()) if p.is_file()
    }
    jobs = wl.jobs(nb, ctx)
    runner = Runner(jobs)
    runner.run_pass("first", first=True)
    notes = {}
    if wl.extra_check:
        notes["extra_check"] = runner.checked("extra_check", wl.extra_check, nb, ctx, args.seed)

    untraced, traced = [], []
    tracer = None
    clock = Deadline(args.seconds)
    if not args.trace:
        while len(untraced) < MIN_PASSES or clock.room():
            untraced.append(clock.lap(runner.run_pass, f"p{len(untraced)}", calibrate=True))
    else:
        tracer = tracing.Tracer(nb)
        tracer.install(ctx["graphs"])
        setups = []
        for i in range(TRACED_SETUP_REPS):
            tracer.pass_label = f"setup{i}"
            setups.append(tracer.pass_label)
            (work / "traced-setup").mkdir(exist_ok=True)
            with tracer.span("setup"):
                wl.setup(nb, args.seed, work / "traced-setup")
        tracer.uninstall()
        while min(len(untraced), len(traced)) < MIN_PASSES or clock.room():
            untraced.append(clock.lap(runner.run_pass, f"u{len(untraced)}", calibrate=True))
            label = f"t{len(traced)}"
            tracer.pass_label = label
            tracer.install(ctx["graphs"])
            try:
                traced.append(clock.lap(runner.run_pass, label, tracer))
            finally:
                tracer.uninstall()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    steps = sum(j.steps for j in jobs)
    plain = pass_seconds(untraced)
    pass_s = statistics.median(plain)
    # each pass in units of the reference loop timed beside its own jobs
    ref_s = [statistics.fmean(refs) for refs in runner.ref_s]
    in_refs = [p / r for p, r in zip(plain, ref_s)]
    pass_ref = statistics.median(in_refs)
    e2e = {
        "setup_s": statistics.median(setup_scaled),
        "pass_ref": pass_ref,
        "steps_per_ref": steps / pass_ref,
        "peak_rss_mb": peak_rss_mb,
    }
    per_job = {j.name: spread([t[j.name] for t in untraced]) for j in jobs}
    result = {
        "workload": wl.name,
        "why": wl.why,
        "predicts": wl.predicts,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "generator": inputs.GENERATOR,
        "input_files": input_files,
        "machine": machine_facts(nb),
        "setup_s": spread(setup_scaled),
        "setup_wall_s": spread(setup_times),
        "passes": len(untraced),
        "pass_s": spread(plain),
        "reference_loop_s": spread(ref_s),
        "pass_ref": spread(in_refs),
        "steps_per_s": steps / pass_s,
        "steps_per_pass": steps,
        "per_job_s": per_job,
        "job_s_by_pass": untraced,
        "digests": {j.name: j.digests for j in jobs},
        "notes": notes,
    }
    if args.trace:
        layers = tracing.layer_metrics(tracer, [f"t{i}" for i in range(len(traced))], setups)
        if wl.jobs_pair:
            one, two = wl.jobs_pair
            layers["stats.jobs2_speedup"] = statistics.median(t[one] / t[two] for t in untraced)
        else:
            layers["stats.jobs2_speedup"] = 0.0
        slow = pass_seconds(traced)
        layers["trace.overhead"] = statistics.median(slow) / pass_s
        idle = [m for m in wl.busy if not layers.get(m)]
        runner.checked("busy_layers", expect, not idle, f"layers marked busy recorded nothing: {idle}")
        result.update(traced_passes=len(traced), traced_pass_s=spread(slow), layers=layers,
                      trace_missing=tracer.missing)
        spans_file = OUT / f"{wl.name}-seed{args.seed}-spans.json"
        spans_file.write_text(json.dumps(tracer.dump()))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    values = layers if args.trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result.update(attempted=runner.attempted, failed=len(runner.failures),
                  fail_ratio=len(runner.failures) / runner.attempted, failures=runner.failures,
                  metrics=metrics)
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
    return result


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "nbwalk" / "__init__.py").is_file():
        print(f"run.py: no nbwalk package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        result = bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"wall time: setup {result['setup_wall_s']['median']:.6g} s  pass {result['pass_s']['median']:.6g} s  "
          f"{result['steps_per_s']:.6g} steps/s  reference loop {result['reference_loop_s']['median']:.6g} s")
    print(f"passes {result['passes']}  fail_ratio {result['fail_ratio']:.6g}  "
          f"({result['failed']} of {result['attempted']})")
    for f in result["failures"]:
        print(f"FAILED {f['where']}: {f['error']}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
