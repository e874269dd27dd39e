"""Steadiness check: do two sets of fresh-process runs of the same code agree?

    python3 bench/steady.py [--workload NAME ...] [--runs 10]

For each workload, runs ``bench/run.py --trace 0`` twice per seed (1..runs),
once for each of two sets, one process at a time and for BENCHMARK.json's
``run_seconds``.  The two runs of a seed go back to back, and which set goes
first alternates from seed to seed, so a slow drift of the machine falls on
both sets alike.  For each end-to-end metric it prints each set's median and
quartiles, the spread (quartile distance over the median) and whether the two
sets agree: every spread except setup_s within the metric's bound, and the
second median not worse than the first by more than the bound.  The target
is a spread below a third of the bound.  After ``task_s``, which is scaled
to the reference speed, come the unscaled wall and CPU seconds per task;
when wall time moves and CPU time does not, the process was waiting for a
CPU.  Exits 1 if any pair disagrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 180
SETS = (0, 1)
RAW = ("task_wall_s", "task_cpu_s")  # unscaled medians, printed after task_s


def one_run(workload: str, seed: int, seconds: int) -> dict:
    """The run's end-to-end metrics, plus the raw task times from its record."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    record, result = json.loads(record_line), json.loads(result_line)
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} tasks failed")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for name in RAW:
        values[name] = record[name]["median"]
    return values


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is than the first, as a share of the first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names,
                    help="workload to check (repeatable; default: all)")
    ap.add_argument("--runs", type=int, default=10, help="runs per set, one seed each")
    args = ap.parse_args(argv)
    workloads = args.workload or names

    values: dict[tuple[int, str], list[dict]] = {(s, w): [] for s in SETS for w in workloads}
    for seed in range(1, args.runs + 1):
        order = SETS if seed % 2 else SETS[::-1]
        for w in workloads:
            for s in order:
                values[s, w].append(one_run(w, seed, spec["run_seconds"]))

    agree = True
    header = "workload      metric       set  median       q1           q3           spread  bound  verdict"
    print(header)
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for s in SETS:
                q1, med, q3, spread = summary([v[name] for v in values[s, w]])
                medians.append(med)
                if name == "setup_s":
                    verdict = "spread not bounded"
                elif spread <= bound / 3:
                    verdict = "ok"
                elif spread <= bound:
                    verdict = "within bound"
                else:
                    verdict = "SPREAD TOO WIDE"
                    agree = False
                print(f"{w:<13} {name:<12} {s + 1:<4} {med:<12.6g} {q1:<12.6g} {q3:<12.6g} "
                      f"{spread:<7.3f} {bound:<6} {verdict}")
                for raw in RAW if name == "task_s" else ():
                    q1, med, q3, spread = summary([v[raw] for v in values[s, w]])
                    print(f"{w:<13} {raw:<12} {s + 1:<4} {med:<12.6g} {q1:<12.6g} "
                          f"{q3:<12.6g} {spread:<7.3f} -      not bounded")
            worse = worse_by(medians[0], medians[1], m["better"])
            ok = worse <= bound
            agree &= ok
            print(f"{w:<13} {name:<12} 2v1  second median worse by {worse:+.3f} "
                  f"(bound {bound}): {'agree' if ok else 'DISAGREE'}")
    print("all sets agree within bounds" if agree else "sets DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
