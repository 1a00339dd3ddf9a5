#!/usr/bin/env python3
"""Campaign benchmark: oracle checks per second through CampaignScheduler::run.

    python3 campaign_bench/run.py --workload fleet|single|triage \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call builds the benchmark
package (campaign_bench/CMakeLists.txt, Release) into $CARGO_TARGET_DIR
(default .bench_build). Each call then

  1. runs the workload's pinned-seed round and compares the digest of its
     merged CampaignStats with the one pinned below (the correctness gate);
  2. with --trace 0: launches the checks = 0 schedule SETUP_LAUNCHES times
     (setup_s is the median process wall time), then runs the timed rounds
     untraced and reports every end-to-end metric of BENCHMARK.json;
  3. with --trace 1: runs the traced mirror (campaign_bench.cc) and
     reports every per-layer metric of BENCHMARK.json.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The exit code is non-zero when the gate, an invariant, or the
mirror's equality with the untraced run fails.

Each run is a closed loop of rounds: one CampaignScheduler::run per round,
round r seeded from (workload, --seed, r). A round is short so a run covers
many campaign seeds: throughput depends strongly on each campaign's random
database state, and many small campaigns average that out.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Per workload: checks per round (per dialect on fleet), the measured cost
# of one round on a 4-core x86 VM (sets the round count from --seconds),
# and how many rounds get ground-truth bug attribution (None = all).
WORKLOADS = {
    # 17 dialects, 4 workers, TLP/NOREC/PQS/EET, bounded statements.
    "fleet": {"checks": 50, "round_s": 0.25, "bug_rounds": 8},
    # sqlite-like, 1 worker, TLP/NOREC/PQS/EET: the per-check hot path.
    "single": {"checks": 300, "round_s": 0.33, "bug_rounds": None},
    # sqlite-like, 4 slices on 2 workers, all five oracles, UCB guidance,
    # reduction on: the developer's minimized-report run.
    "triage": {"checks": 200, "round_s": 0.74, "bug_rounds": None},
}

# Digest of round 0's merged CampaignStats for --seed PINNED_SEED. A program
# that is faster but computes something else fails here. Regenerate with
#   campaign_bench run --workload W --seed 1234 --checks C --round 0
PINNED_SEED = 1234
PINNED_DIGESTS = {
    "fleet": "cbce3c6951404448",
    "single": "2d06c0aade6f59bb",
    "triage": "25d54995ffadd31f",
}

SETUP_LAUNCHES = 11
TRACE_ROUND_SHARE = 4  # the traced run mirrors 1 in 4 of the timed rounds


def fail(message):
    print(f"campaign_bench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "campaign_bench"


def build():
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        configure = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            fail("cmake configure failed")
    compiled = subprocess.run(
        ["cmake", "--build", str(out), "-j4"],
        stdout=sys.stderr, stderr=sys.stderr)
    if compiled.returncode != 0:
        fail("build failed")
    return out / "campaign_bench"


def call(binary, *args):
    """Run campaign_bench; return (its JSON last line, the other lines)."""
    done = subprocess.run([str(binary), *map(str, args)],
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"{' '.join(map(str, args[:3]))} exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{' '.join(map(str, args[:3]))} printed nothing")
    return json.loads(lines[-1]), lines[:-1]


def gate(binary, workload, checks):
    result, _ = call(binary, "run", "--workload", workload,
                     "--seed", PINNED_SEED, "--checks", checks,
                     "--round", 0)
    got = result["digest"]
    want = PINNED_DIGESTS[workload]
    print(f"gate: {workload} seed {PINNED_SEED} digest {got} "
          f"({'ok' if got == want else 'MISMATCH, pinned ' + want})")
    return got == want and result["checks_failed"] == 0


def setup_seconds(binary, workload, seed):
    times, digests = [], set()
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        result, _ = call(binary, "setup", "--workload", workload,
                         "--seed", seed)
        times.append(time.perf_counter() - start)
        digests.add(result["digest"])
    # Every launch builds the same databases.
    return statistics.median(times), len(digests) == 1


def timed_rounds(binary, name, seed, rounds, bug_rounds):
    """Run rounds 0..rounds-1, one process each; return their results.

    A process per round gives every round the same clean heap, so
    peak_rss_mb (the median of the rounds' process peaks) reads the
    workload's footprint rather than heap growth across rounds.
    """
    return [call(binary, "run", "--workload", name, "--seed", seed,
                 "--checks", WORKLOADS[name]["checks"], "--round", r,
                 "--attribute", int(r < bug_rounds))[0]
            for r in range(rounds)]


def shard_table(results, drain, rounds):
    """Per-shard seconds, checks and budget-cut statements, summed."""
    rows = {}
    for result in results:
        for label, shard in result["shards"].items():
            row = rows.setdefault(label, [0.0, 0, 0])
            row[0] += shard["seconds"]
            row[1] += int(shard["checks"])
            row[2] += int(shard["budget_cut"])
    lines = [f"{'shard':<16} {'seconds':>9} {'checks':>8} {'budget-cut':>10}"]
    for label, (seconds, checks, cut) in sorted(rows.items()):
        lines.append(f"{label:<16} {seconds:9.3f} {checks:8d} {cut:10d}")
    checks = sum(row[1] for row in rows.values())
    cut = sum(row[2] for row in rows.values())
    lines.append(f"{'total':<16} {drain:9.3f} {checks:8d} {cut:10d}"
                 f"   (queue drain, {rounds} rounds)")
    return lines


def metric_specs(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main():
    load_at_start = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    workload = WORKLOADS[args.workload]
    rounds = max(1, math.ceil(args.seconds / workload["round_s"]))
    binary = build()
    correct = gate(binary, args.workload, workload["checks"])

    if args.trace:
        trace_rounds = max(1, math.ceil(rounds / TRACE_ROUND_SHARE))
        result, table = call(binary, "trace", "--workload", args.workload,
                             "--seed", args.seed,
                             "--checks", workload["checks"],
                             "--rounds", trace_rounds)
        values = result["metrics"]
        attempted = int(result["checks_attempted"])
        failed = 0
        correct = correct and result["mirror_identical"]
        units = metric_specs("per_layer")
    else:
        setup_s, setup_same = setup_seconds(binary, args.workload,
                                            args.seed)
        bug_rounds = min(rounds, workload["bug_rounds"] or rounds)
        results = timed_rounds(binary, args.workload, args.seed, rounds,
                               bug_rounds)
        result = results[0]
        total = {key: sum(r[key] for r in results)
                 for key in ("checks_attempted", "checks_valid",
                             "checks_failed", "drain_s", "cpu_s",
                             "plans_unique", "bugs_distinct")}
        attempted = int(total["checks_attempted"])
        failed = int(total["checks_failed"])
        correct = correct and setup_same and failed == 0
        values = {
            "checks_per_s": attempted / total["drain_s"],
            "checks_per_cpu_s": attempted / total["cpu_s"],
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(
                r["peak_rss_mib"] for r in results),
            "invalid_check_pct":
                100.0 * (attempted - total["checks_valid"]) / attempted,
            "bugs_distinct": total["bugs_distinct"] / bug_rounds,
            "plans_unique": total["plans_unique"] / rounds,
        }
        table = shard_table(results, total["drain_s"], rounds)
        units = metric_specs("end_to_end")

    if set(values) != set(units):
        fail(f"metric set differs from BENCHMARK.json: "
             f"{sorted(set(values) ^ set(units))}")
    env = dict(result["build"], nproc=os.cpu_count(),
               loadavg_at_start=load_at_start[0], rounds=rounds,
               checks_per_round=workload["checks"])
    print("env: " + json.dumps(env, sort_keys=True))
    print("\n".join(table))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
