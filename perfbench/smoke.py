#!/usr/bin/env python3
"""Smoke check of the repository benchmark itself.

    python3 perfbench/smoke.py [--seconds S]

For every workload in BENCHMARK.json it runs perfbench/run.py untraced at
the committed and the hold-out seed, and traced twice at the committed
seed, then checks that:

  * every end-to-end and per-layer metric is printed with its unit;
  * failed_share is printed and is 0, and the run reports correct;
  * the simulated statistics are identical across the two traced runs.

Each run lasts BENCHMARK.json's run_seconds unless --seconds says
otherwise; much shorter untraced runs fail, because run_ms_tail then has
fewer than ten samples beyond its percentile.  Exits 0 when every check
passes.
"""

import argparse
import json
import os
import re
import subprocess
import sys

COMMITTED_SEED = 1
HOLDOUT_SEED = 9001

# Per-layer metrics that are simulated statistics: they depend only on the
# seed, never on the host.
SIMULATED = (
    "model.iae_sum", "batch.iae_sum", "cosim.negotiations",
    "cosim.mean_abs_error", "can.frames_delivered", "pil.exchanges",
    "pil.retransmits", "pil.rtt_us_p50", "fault.injected",
    "fault.opportunities", "sim.events",
)


def run(root, workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(root, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {proc.returncode}\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_metrics(result, expected, where, problems):
    printed = result["metrics"]
    for metric in expected:
        got = printed.get(metric["name"])
        if got is None:
            problems.append(f"{where}: {metric['name']} missing")
        elif got.get("unit") != metric["unit"]:
            problems.append(f"{where}: {metric['name']} unit {got.get('unit')}"
                            f" != {metric['unit']}")
    extra = set(printed) - {m["name"] for m in expected}
    if extra:
        problems.append(f"{where}: unexpected metrics {sorted(extra)}")


def check_clean(lines, result, where, problems):
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"{where}: correct={result['correct']} "
                        f"failed={result['failed']}")
    shares = [float(m.group(1)) for line in lines
              for m in [re.search(r"failed_share=(\S+)", line)] if m]
    if shares != [0.0]:
        problems.append(f"{where}: failed_share {shares}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]

    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for seed in (COMMITTED_SEED, HOLDOUT_SEED):
            where = f"{workload} seed {seed}"
            lines, result = run(root, workload, seed, args.seconds, 0)
            check_metrics(result, bench["end_to_end"], where, problems)
            check_clean(lines, result, where, problems)

        traced = []
        for attempt in (1, 2):
            where = f"{workload} traced #{attempt}"
            lines, result = run(root, workload, COMMITTED_SEED,
                                args.seconds, 1)
            check_metrics(result, bench["per_layer"], where, problems)
            check_clean(lines, result, where, problems)
            traced.append({name: result["metrics"][name]["value"]
                           for name in SIMULATED})
        if traced[0] != traced[1]:
            problems.append(f"{workload}: simulated statistics differ "
                            f"between invocations: {traced}")
        print(f"{workload}: checked", flush=True)

    for problem in problems:
        print("FAIL", problem)
    print("smoke:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
