#!/usr/bin/env bash
# A/B the campaign benchmark: alternating runs of a parent revision and
# of this checkout's working tree, one pair per seed.
#
#   scripts/bench_ab.sh PARENT_REV WORKLOAD PAIRS [SECONDS] [FIRST_SEED]
#
# PARENT_REV is any git revision; WORKLOAD is fleet, single or triage;
# each of the PAIRS pairs runs `campaign_bench/run.py --workload WORKLOAD
# --seed S --seconds SECONDS` (SECONDS defaults to 30) on both sides, with
# S = FIRST_SEED (default 1), FIRST_SEED + 1, ... The side that runs
# first alternates from pair to pair so slow drift in machine load does
# not favour either side.
#
# The parent is exported with `git archive` into a temporary directory
# (nothing is added to the repository's worktree list), and each side
# builds into its own CARGO_TARGET_DIR there; both are removed on exit.
# campaign_bench/ itself is only read.
#
# Output: one line per pair with checks_per_s and checks_per_cpu_s on
# both sides and the 1-minute load average when the pair started. Then
# one row per end-to-end metric: the parent's median and quartiles, the
# change's median, the change's win count, whether the metric meets the
# gain rule (the change wins at least 9 of 10 pairs and its median beats
# the parent's by more than the parent's quartile spread), and whether
# the change is worse than the metric's bound. Then, per metric, the
# median and quartiles of the per-pair gains: each pair runs one seed on
# both sides, so these leave out the spread between seeds that the
# parent's quartiles include. The gain rule above stays the gate. Then
# whether bugs_distinct, plans_unique and invalid_check_pct agreed on
# every seed, and each side's share of failed operations.
# Metrics, directions and bounds are read from BENCHMARK.json. The exit
# code is non-zero when a run fails its gate.
set -eu

if [ $# -lt 3 ] || [ $# -gt 5 ]; then
    echo "usage: $0 PARENT_REV WORKLOAD PAIRS [SECONDS] [FIRST_SEED]" >&2
    exit 2
fi
PARENT_REV="$1"
WORKLOAD="$2"
PAIRS="$3"
SECONDS_PER_RUN="${4:-30}"
FIRST_SEED="${5:-1}"
if [ "$PAIRS" -lt 2 ]; then
    echo "bench_ab: PAIRS must be at least 2 (quartiles need two runs)" >&2
    exit 2
fi

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

mkdir -p "$WORK/parent"
git -C "$ROOT" archive "$PARENT_REV" | tar -x -C "$WORK/parent"

# run_side SIDE_DIR TARGET_DIR SEED OUT: one benchmark run, JSON to OUT.
run_side() {
    (cd "$1" && CARGO_TARGET_DIR="$2" python3 campaign_bench/run.py \
        --workload "$WORKLOAD" --seed "$3" --seconds "$SECONDS_PER_RUN" \
        2>>"$WORK/build.log" | tail -n 1 >"$4")
}

echo "bench_ab: $WORKLOAD, $PAIRS pairs of ${SECONDS_PER_RUN}s," \
     "parent $(git -C "$ROOT" rev-parse --short "$PARENT_REV")" \
     "vs working tree; nproc $(nproc), load $(cut -d' ' -f1 /proc/loadavg)"
for ((i = 0; i < PAIRS; ++i)); do
    seed=$((FIRST_SEED + i))
    if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
    cut -d' ' -f1 /proc/loadavg >"$WORK/load.$seed"
    for side in $order; do
        if [ "$side" = parent ]; then
            run_side "$WORK/parent" "$WORK/target-parent" "$seed" \
                "$WORK/$side.$seed.json"
        else
            run_side "$ROOT" "$WORK/target-change" "$seed" \
                "$WORK/$side.$seed.json"
        fi
    done
done

python3 - "$WORK" "$FIRST_SEED" "$PAIRS" "$ROOT/BENCHMARK.json" <<'EOF'
import json
import statistics
import sys

work, first, pairs = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
with open(sys.argv[4]) as handle:
    END_TO_END = json.load(handle)["end_to_end"]
SIDES = ("parent", "change")
SPECS = {spec["name"]: spec for spec in END_TO_END}
SAME = ("bugs_distinct", "plans_unique", "invalid_check_pct")
THROUGHPUT = ("checks_per_s", "checks_per_cpu_s")
seeds = range(first, first + pairs)


def load(side, seed):
    with open(f"{work}/{side}.{seed}.json") as handle:
        return json.load(handle)


def load_average(seed):
    with open(f"{work}/load.{seed}") as handle:
        return float(handle.read())


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def gain(parent, change, better):
    """Relative change from parent to change, positive when better."""
    if parent == change:
        return 0.0
    if parent == 0:
        improved = (change > parent) == (better == "higher")
        return float("inf") if improved else float("-inf")
    delta = (change - parent) / abs(parent)
    return delta if better == "higher" else -delta


results = {side: [load(side, seed) for seed in seeds] for side in SIDES}
values = {side: {spec["name"]: [r["metrics"][spec["name"]]["value"]
                                for r in results[side]]
                 for spec in END_TO_END}
          for side in SIDES}
ok = all(r["correct"] for side in SIDES for r in results[side])

# Per pair: the two throughput metrics, and whether the metrics that
# must not move agreed on the seed.
same = True
for i, seed in enumerate(seeds):
    cells = []
    for name in THROUGHPUT:
        better = SPECS[name]["better"]
        p, c = values["parent"][name][i], values["change"][name][i]
        cells.append(f"{name} {p:8.1f} -> {c:8.1f} "
                     f"{100 * gain(p, c, better):+6.1f}%")
    agree = all(values["parent"][m][i] == values["change"][m][i]
                for m in SAME)
    same = same and agree
    print(f"seed {seed:4d}: {'  '.join(cells)}  load {load_average(seed):5.2f}"
          f"{'' if agree else '  (metrics differ)'}")

# Every end-to-end metric, in its direction from BENCHMARK.json: each
# side's median and quartiles, the change's win count, the gain rule
# (the change wins at least 9 of every 10 pairs, and its median beats
# the parent's by more than the parent's quartile spread), and whether
# the change is worse than the metric's bound.
print(f"{'metric':17s} {'parent median (q1 - q3)':>34s} "
      f"{'change median':>13s} {'gain':>7s} {'wins':>5s} "
      f"{'spread':>6s}  gain rule  bound")
worse_any = False
for spec in END_TO_END:
    name, better, bound = spec["name"], spec["better"], spec["bound"]
    p_med, p_q1, p_q3 = quartiles(values["parent"][name])
    c_med = quartiles(values["change"][name])[0]
    wins = sum(gain(p, c, better) > 0 for p, c in
               zip(values["parent"][name], values["change"][name]))
    margin = c_med - p_med if better == "higher" else p_med - c_med
    rule = 10 * wins >= 9 * pairs and margin > p_q3 - p_q1
    g = gain(p_med, c_med, better)
    worse = g < -bound
    worse_any = worse_any or worse
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    print(f"{name:17s} {p_med:10.4g} ({p_q1:9.4g} - {p_q3:9.4g}) "
          f"{c_med:13.4g} {100 * g:+6.1f}% {wins:2d}/{pairs:<2d} "
          f"{100 * spread:5.1f}%  "
          f"{'met    ' if rule else 'NOT met'}    "
          f"{'WORSE' if worse else 'ok'} ({better} is better, "
          f"bound {100 * bound:.0f}%)")

# The paired statistic: each pair's gain on its own seed, so the spread
# between seeds cancels out. Reported beside the gain rule, not instead.
print(f"{'metric':17s} {'per-pair gain median (q1 - q3)':>34s}")
for spec in END_TO_END:
    name, better = spec["name"], spec["better"]
    gains = [gain(p, c, better) for p, c in
             zip(values["parent"][name], values["change"][name])]
    g_med, g_q1, g_q3 = quartiles(gains)
    print(f"{name:17s} {100 * g_med:+13.1f}% "
          f"({100 * g_q1:+7.1f}% - {100 * g_q3:+7.1f}%)")
print(f"{', '.join(SAME)} identical per seed: {'yes' if same else 'NO'}")
share = {}
for side in SIDES:
    attempted = sum(r["attempted"] for r in results[side])
    failed = sum(r["failed"] for r in results[side])
    share[side] = failed / max(attempted, 1)
    print(f"{side:6s} failed operations: {failed}/{attempted} "
          f"({100 * share[side]:.2f}%)")
more_failures = share["change"] > share["parent"]
print("verdict: " + ("a metric is WORSE than its bound" if worse_any
                     else "no metric worse than its bound") +
      ("; the change FAILS a larger share of operations" if more_failures
       else ""))
sys.exit(0 if ok else 1)
EOF
