"""Closed-loop benchmark of awgp's public API.

    python3 bench/run.py --workload fbm-table --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all     # every workload, one process each

One caller in one process runs a workload's task list pass after pass, after
one untimed warm-up pass; the next task starts only when the previous one
has returned.  Every task's result is checked against an independent
reference after its pass, outside the timed region.  With ``--trace 0``
the run reports the end-to-end metrics (tracing off); with ``--trace 1`` it
alternates untraced and traced passes over the same inputs and reports
per-layer metrics, checking that traced results are bit-identical to
untraced ones.  The last line of standard
output is one JSON object; the full report, including the spans of a traced
run, is written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_PASSES = 4          # untraced passes per run, whatever --seconds says
WARMUP_PASS = 10**6     # pass index of the untimed warm-up pass; timed passes count from 0
MIN_TRACE_PASSES = 2    # untraced/traced pass pairs per traced run
MAX_WALL_S = 140.0      # start no pass that would end past this, so a run ends within 180 s
SETUP_REPS = 5
PROBE_REPS = 3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)

SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
              "import awgp; print(time.perf_counter() - t0)")


WORKLOAD_NAMES = ("fbm-table", "kernel-zoo", "monte-carlo")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup() -> list[float]:
    """``import awgp`` in fresh interpreters, timed inside each one."""
    out = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def git_commit() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "awgp").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int, nproc: int, n_workers: int) -> dict:
    import mpmath
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_lib = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_lib = "unknown"
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas_lib,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "AWGP_THREADS": os.environ.get("AWGP_THREADS"),
        "machine": platform.machine(),
        "nproc": nproc,
        "n_workers": n_workers,
    }


def run_pass(tasks, tracer=None) -> tuple[list[float], dict]:
    """Run the tasks in order; return latencies and the results of those that returned."""
    latencies, results = [], {}
    for k, task in enumerate(tasks):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = task.call()
            else:
                out = tracer.run_task(k, task.layer, task.call, task.grid, task.counts)
        except Exception as exc:  # a task that raises is counted as failed
            print(f"task {task.name} raised {exc!r}", file=sys.stderr)
        else:
            results[task.name] = out
        latencies.append(time.perf_counter() - t0)
    return latencies, results


def warm_up(build, args, workdir, n_workers) -> float:
    """Run one untimed pass, on inputs no timed pass uses, and return its time.

    The first pass in a process pays one-time costs (the allocator growing
    its arenas, first touches of fresh pages): on fbm-table its tasks took
    up to twice as long as those of later passes.
    """
    t0 = time.perf_counter()
    run_pass(build(args.seed, WARMUP_PASS, workdir, n_workers))
    return time.perf_counter() - t0


def failed_tasks(tasks, results: dict) -> list[str]:
    """Names of tasks that raised or whose result fails its reference check."""
    failed = []
    for task in tasks:
        try:
            ok = task.name in results and task.check(results) is True
        except Exception as exc:  # a check that cannot run counts its task as failed
            print(f"check of {task.name} raised {exc!r}", file=sys.stderr)
            ok = False
        if not ok:
            failed.append(task.name)
    return failed


def tail_percentile(n_samples: int) -> float:
    """Highest ladder percentile with at least 10 of ``n_samples`` beyond it."""
    for p in TAIL_LADDER:
        if math.floor(n_samples * (1.0 - p / 100.0)) >= 10:
            return p
    return 50.0


def _more(p: int, minimum: int, start: float, seconds: float, last: float) -> bool:
    elapsed = time.perf_counter() - start
    if elapsed + last > MAX_WALL_S:
        return False
    return p < minimum or elapsed < seconds


def end_to_end(build, args, workdir, n_workers) -> tuple[dict, dict]:
    import numpy as np

    setup = measure_setup()
    warmup_s = warm_up(build, args, workdir, n_workers)
    passes, latencies, failures = [], [], []
    start, last, p = time.perf_counter(), 0.0, 0
    n_tasks = None
    while _more(p, MIN_PASSES, start, args.seconds, last):
        t0 = time.perf_counter()
        tasks = build(args.seed, p, workdir, n_workers)
        n_tasks = n_tasks or len(tasks)
        lat, results = run_pass(tasks)
        failures += [f"pass {p}: {name}" for name in failed_tasks(tasks, results)]
        passes.append(sum(lat))
        latencies.append(lat)
        last = time.perf_counter() - t0
        p += 1

    lat = np.concatenate(latencies)
    tail_p = tail_percentile(MIN_PASSES * n_tasks)
    tail_cut = float(np.percentile(lat, tail_p))
    # the mean of the latencies beyond the cut: an average of 10 or more
    # samples, steadier than the single order statistic at the cut
    beyond = lat[lat > tail_cut]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (statistics.median(passes), "s"),
        "task_p50_ms": (float(np.percentile(lat, 50.0)) * 1e3, "ms"),
        "task_tail_ms": (float(np.mean(beyond)) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "failed_frac": (len(failures) / lat.size, "1"),
    }
    detail = {
        "passes": len(passes), "tasks": int(lat.size), "failures": failures, "warmup_s": warmup_s,
        "setup_samples_s": setup, "pass_samples_s": passes, "task_latencies_s": latencies,
        "task_tail": {"percentile": tail_p, "cut_ms": tail_cut * 1e3, "samples": int(lat.size),
                      "beyond": int(beyond.size)},
    }
    return metrics, detail


def probes(seed: int) -> tuple[dict, list[str]]:
    """Rates of public fsde calls on pair A of the monte-carlo workload, untraced."""
    from awgp import fsde
    from workloads import N_PATHS, N_STEPS, _rng, pair_a

    s1, s2 = pair_a(_rng(seed, 4, 0))
    sync = fsde.CouplingControl.synchronous()
    noise_t, euler_t, speedup, failures = [], [], [], []
    steps = 2 * N_PATHS * N_STEPS
    for r in range(PROBE_REPS):
        t0 = time.perf_counter()
        z1, z2 = fsde.simulate_coupled_noise(s1.noise_kernel, s2.noise_kernel, sync, 1.0,
                                             N_STEPS, N_PATHS, seed + r)
        t1 = time.perf_counter()
        fsde.euler_fsde(s1, z1)
        fsde.euler_fsde(s2, z2)
        t2 = time.perf_counter()
        noise_t.append(t1 - t0)
        euler_t.append(t2 - t1)
        timed = {}
        for workers in (1, 2):
            t0 = time.perf_counter()
            est = fsde.estimate_coupling_cost(s1, s2, sync, N_STEPS, N_PATHS, seed + r,
                                              n_workers=workers)
            timed[workers] = (time.perf_counter() - t0, est.to_dict())
        speedup.append(timed[1][0] / timed[2][0])
        if timed[1][1] != timed[2][1]:
            failures.append(f"probe {r}: estimate differs between 1 and 2 workers")
    return {
        "fsde.noise.path_steps_per_s": steps / statistics.median(noise_t),
        "fsde.euler.path_steps_per_s": steps / statistics.median(euler_t),
        "fsde.estimate.speedup_2w": statistics.median(speedup),
    }, failures


def per_layer(build, args, workdir, n_workers) -> tuple[dict, dict]:
    from tracing import Tracer, layer_metrics, pass_profile
    from workloads import digest

    warmup_s = warm_up(build, args, workdir, n_workers)
    profiles, untraced, traced, failures, spans = [], [], [], [], []
    attempted = 0
    start, last, p = time.perf_counter(), 0.0, 0
    while _more(p, MIN_TRACE_PASSES, start, args.seconds, last):
        t0 = time.perf_counter()
        tasks = build(args.seed, p, workdir, n_workers)
        tracer = Tracer()
        # alternate which side runs first, so warm-up does not bias the overhead
        for with_trace in ((False, True) if p % 2 == 0 else (True, False)):
            if with_trace:
                with tracer:
                    lat_t, res_t = run_pass(tasks, tracer)
            else:
                lat_u, res_u = run_pass(tasks)
        failures += [f"pass {p}: {name}" for name in failed_tasks(tasks, res_u)]
        for task in tasks:
            if task.name in res_u and (task.name not in res_t
                                       or digest(res_u[task.name]) != digest(res_t[task.name])):
                failures.append(f"pass {p}: {task.name} traced result differs")
        attempted += 2 * len(tasks)
        untraced.append(sum(lat_u))
        traced.append(sum(lat_t))
        profiles.append(pass_profile(tracer.spans))
        spans.append([[s.name, s.task, s.parent, s.start, s.end, s.grid, s.counts]
                      for s in tracer.spans])
        last = time.perf_counter() - t0
        p += 1

    counts, times, extra, repeat = layer_metrics(profiles)
    probe_rates, probe_failures = probes(args.seed)
    attempted += PROBE_REPS
    failures += probe_failures
    if not repeat:
        failures.append("per-pass counts differ between passes")
    metrics = {name: (value, _unit(name)) for name, value in {**counts, **times}.items()}
    metrics.update({name: (value, _unit(name)) for name, value in probe_rates.items()})
    metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(untraced) - 1.0, "1")
    detail = {
        "passes": p, "attempted": attempted, "failures": failures, "counts_repeat": repeat,
        "warmup_s": warmup_s,
        "untraced_pass_s": untraced, "traced_pass_s": traced,
        "extra_times": extra, "spans": spans,
    }
    return metrics, detail


def _unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith(("inner_lanes_per_point", "speedup_2w", "overhead_frac")):
        return "1"
    return "count"


# derived from array sizes or file sizes rather than counted at a call
COMPUTED = ("gauss_aw.cholesky.flops", "gauss_aw.discrete.bytes", "fsde.path_steps",
            "cli.io_bytes")


def run_all(args) -> int:
    """Run every workload in a process of its own, then print their metrics side by side."""
    reports = {}
    for name in WORKLOAD_NAMES:
        code = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT).returncode
        if code:
            return code
        reports[name] = json.loads((OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").read_text())
    print(f"{'metric':<44} {'unit':<6}" + "".join(f" {n:>16}" for n in WORKLOAD_NAMES))
    for metric, first in reports[WORKLOAD_NAMES[0]]["metrics"].items():
        print(f"{metric:<44} {first['unit']:<6}"
              + "".join(f" {r['metrics'][metric]['value']:>16.6g}" for r in reports.values()))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "awgp" / "__init__.py").is_file():
        print(f"error: no awgp sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import awgp
    if Path(awgp.__file__).resolve().parent != (SRC / "awgp").resolve():
        print(f"error: imported awgp from {awgp.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    nproc = len(os.sched_getaffinity(0))
    n_workers = min(2, nproc)
    env = environment(args.seed, nproc, n_workers)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        build = WORKLOADS[args.workload]
        if args.trace:
            metrics, detail = per_layer(build, args, workdir, n_workers)
            attempted = detail["attempted"]
        else:
            metrics, detail = end_to_end(build, args, workdir, n_workers)
            attempted = detail["tasks"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(detail["failures"])
    report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "computed": list(COMPUTED),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              **detail}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1))

    print(f"environment: {json.dumps(env)}")
    for name, (value, unit) in metrics.items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"{args.workload} {name} = {value!r} {unit}{label}")
    if not args.trace:
        tail = detail["task_tail"]
        print(f"{args.workload} task_tail_ms is the mean of the {tail['beyond']} task latencies beyond "
              f"p{tail['percentile']:g} ({tail['cut_ms']:.4g} ms) of {tail['samples']}, "
              f"{detail['passes']} passes")
    for line in detail["failures"]:
        print(f"FAILED {line}")
    print(f"report: {path.relative_to(ROOT)}")

    # failed_frac is 0 on a correct build; the result line carries it as failed / attempted
    keep = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if k != "failed_frac"}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": keep}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
