"""Benchmark for gallai-lab: one workload in one single-threaded process.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the library is imported from ``src/``.  The
run sets the workload up several times (timing each), then runs samples of
tasks until ``--seconds`` have passed, checking every answer.  The end-to-end
times are scaled to a fixed machine speed (see ``REF_S``).  The last line
of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json;
with ``--trace 1`` they are the per-layer ones, from a run that alternates
untraced and traced samples.  The line before it is the run's record: the
stamps (Python, nproc, gallai_lab version, git commit, seed) and the
per-order search numbers.  The full record, and in traced runs the spans,
are written under ``.bench_work/``.
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
import types
from pathlib import Path

from spans import NullTracer, Tracer
from workloads import WORKLOADS, load_library

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Set-ups per run: at least this many, and more until this much time is spent,
# so that a set-up of a few milliseconds still gets a steady median.
SETUP_REPEATS = 7
SETUP_MIN_S = 2.0


def _call(fn, *args):
    return fn(*args)


# CPython 3.11+ keeps Python frames in 16 KiB chunks and frees a chunk as soon
# as the first frame in it returns.  A recursion that goes back and forth over
# a chunk boundary maps and unmaps memory at every crossing, so a task's time
# would depend on how deep the benchmark's own stack happens to be: one
# ramsey-c5c6 task took from 1.9 s to 4.3 s (165k page faults) depending only
# on the caller's depth (Python 3.11.7 on a shared 2-vCPU Xeon VM).  This
# frame asks for 65,600 stack slots, which puts it at the start of a 1 MiB
# chunk with about 512 KiB free after it, so the library's frames stay inside
# one chunk whatever the call depth.
call_in_own_chunk = types.FunctionType(_call.__code__.replace(co_stacksize=65_600), globals())

# The end-to-end times are scaled to a fixed machine speed.  On a shared VM
# the speed of the whole machine drifts by up to 1.7x over minutes: in ten
# runs in a row every workload's task time moved together, so no run-level
# statistic of raw times could stay within the bounds.  Before each set-up
# and each sample the run times reference_work, which does not touch the
# library, at least once and until the reference has taken REF_SHARE of the
# time measured so far; one 20 ms reference time is too noisy to use alone.
# The run multiplies its times by REF_S over the median reference time.
# REF_S is the reference's median time on the machine the bounds were set on
# (Python 3.11.7, shared 2-vCPU Xeon VM); it is fixed, so the scaled times
# of two commits compare directly.  The raw times are in the record.
REF_S = 0.021
REF_SHARE = 0.1


def reference_work() -> int:
    """A fixed pure-Python loop of dict, set and tuple work, like the library's."""
    counts: dict[int, int] = {}
    seen: set[tuple[int, int]] = set()
    for i in range(36_000):
        k = (i * 7919) % 1021
        counts[k] = counts.get(k, 0) + 1
        pair = (k, i & 7)
        if pair in seen:
            seen.discard(pair)
        else:
            seen.add(pair)
    return len(counts) + len(seen)


def time_reference(into: list[float], measured_s: float) -> None:
    """Time reference_work once, and again until ``into`` adds up to REF_SHARE of ``measured_s``."""
    while True:
        t0 = time.perf_counter()
        reference_work()
        into.append(time.perf_counter() - t0)
        if sum(into) >= REF_SHARE * measured_s:
            return


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def git_commit(root: Path) -> str | None:
    """The checked-out commit, or None outside a git checkout or without git."""
    try:
        proc = subprocess.run(["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(totals: dict[str, float], tasks: int) -> dict[str, float]:
    """One sample's per-task figures, including the derived search ratios."""
    per = {name: value / tasks for name, value in totals.items()}
    nodes = per.get("search.nodes", 0.0)
    canonical = per.get("search.canonical", 0.0)
    rejected = per.get("search.rejected", 0.0)
    per["search.cycle_pruned"] = nodes - canonical - rejected
    per["search.canon_accept_ratio"] = _ratio(canonical, canonical + rejected)
    per["search.nodes_per_s"] = _ratio(nodes, per.get("search.exists_avoiding.s", 0.0))
    return per


def run(args: argparse.Namespace, spec: dict, workdir: Path) -> tuple[dict, dict]:
    tracer = Tracer() if args.trace else None
    null = NullTracer()

    setup_s = []
    reference_s = []
    tr = tracer or null
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_MIN_S:
        time_reference(reference_s, sum(setup_s))
        workload = WORKLOADS[args.workload]()
        t0 = time.perf_counter()
        with tr.sample("setup", 1):
            lib = load_library()
            call_in_own_chunk(workload.setup, lib, args.seed, workdir, tr)
        setup_s.append(time.perf_counter() - t0)
    if Path(lib.file).resolve().parent != SRC / "gallai_lab":
        raise RuntimeError(f"gallai_lab was imported from {lib.file}, not from {SRC}")

    # Traced runs alternate untraced and traced samples, so the two medians
    # give the tracing overhead under the same conditions.
    step = 2 if tracer else 1
    samples = []  # (wall seconds per task, CPU seconds per task, traced)
    results = []
    measured_s = sum(setup_s)
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = len(samples) % step == 1
        tr = tracer if traced else null
        tasks = workload.tasks_per_sample
        time_reference(reference_s, measured_s)
        t0, c0 = time.perf_counter(), time.process_time()
        with tr.sample("task", tasks):
            got = call_in_own_chunk(workload.sample, tr)
        wall = time.perf_counter() - t0
        measured_s += wall
        samples.append((wall / tasks, (time.process_time() - c0) / tasks, traced))
        results.extend(got)
        if len(samples) % step == 0 and time.perf_counter() >= deadline:
            break

    attempted = len(results)
    failed = sum(not r.ok for r in results)
    plain = [s for s, _, traced in samples if not traced]
    q1, med, q3 = quartiles(plain)
    cpu = [c for _, c, traced in samples if not traced]
    speed = REF_S / statistics.median(reference_s)
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_s) * speed,
            "task_s": med * speed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
    else:
        per_task = [layer_values(t, tasks) for tasks, t in tracer.totals("task")]
        names = [m["name"] for m in spec["per_layer"]]
        values = {n: statistics.median(p.get(n, 0.0) for p in per_task) for n in names}
        values["constructions.build.s"] = statistics.median(
            t.get("constructions.build.s", 0.0) for _, t in tracer.totals("setup"))
        traced_s = statistics.median(s for s, _, traced in samples if traced)
        values["trace.overhead_frac"] = traced_s / med - 1
        wanted = spec["per_layer"]
        tracer.write(WORK / "spans" / f"{args.workload}-seed{args.seed}.json")
    missing = {m["name"] for m in wanted} ^ set(values)
    if missing:
        raise RuntimeError(f"metrics computed and declared differ: {sorted(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    search_tasks = [r.detail for r in results if "orders" in r.detail]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": nproc(),
        "gallai_lab_version": lib.version,
        "commit": git_commit(ROOT),
        "setup_wall_s": setup_s,
        "task_wall_s": {"median": med, "q1": q1, "q3": q3, "samples": len(plain),
                        "tasks_per_sample": workload.tasks_per_sample},
        # CPU time per task next to wall time: a gap between the two is time
        # the process waited for a CPU, not time the code took.
        "task_cpu_s": {"median": statistics.median(cpu)},
        "reference_s": {"median": statistics.median(reference_s), "runs": len(reference_s)},
        "speed_factor": speed,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "errors": sorted({r.error for r in results if r.error}),
        "last_search_task": search_tasks[-1] if search_tasks else None,
    }
    full = dict(record, samples=samples, tasks=[r.detail for r in results])
    path = WORK / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(full) + "\n", encoding="utf-8")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return record, result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="measuring time (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gallai_lab" / "__init__.py").is_file():
        print(f"bench: no gallai_lab sources under {SRC}", file=sys.stderr)
        return 2
    spec = _spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"run-{os.getpid()}"
    try:
        record, result = run(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
