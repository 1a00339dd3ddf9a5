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
# Output: one line per pair, then each side's median and quartiles of
# checks_per_s, the change's win count, whether bugs_distinct,
# plans_unique and invalid_check_pct agreed on every seed, and each
# side's median of the other end-to-end metrics. The exit code is
# non-zero when a run fails its gate.
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

python3 - "$WORK" "$FIRST_SEED" "$PAIRS" <<'EOF'
import json
import statistics
import sys

work, first, pairs = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
SAME = ("bugs_distinct", "plans_unique", "invalid_check_pct")


def load(side, seed):
    with open(f"{work}/{side}.{seed}.json") as handle:
        return json.load(handle)


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


runs = {side: [] for side in ("parent", "change")}
wins, same, ok = 0, True, True
for seed in range(first, first + pairs):
    parent, change = load("parent", seed), load("change", seed)
    ok = ok and parent["correct"] and change["correct"]
    p = parent["metrics"]["checks_per_s"]["value"]
    c = change["metrics"]["checks_per_s"]["value"]
    runs["parent"].append(p)
    runs["change"].append(c)
    wins += c > p
    agree = all(parent["metrics"][m]["value"] == change["metrics"][m]["value"]
                for m in SAME)
    same = same and agree
    print(f"seed {seed:4d}: parent {p:9.1f}  change {c:9.1f}  "
          f"{100 * (c / p - 1):+6.1f}%  {'win' if c > p else 'loss'}"
          f"{'' if agree else '  (metrics differ)'}")
for side, values in runs.items():
    median, q1, q3 = quartiles(values)
    print(f"{side:6s} checks_per_s median {median:9.1f}  "
          f"quartiles {q1:9.1f} - {q3:9.1f}")
p_med, p_q1, p_q3 = quartiles(runs["parent"])
c_med = quartiles(runs["change"])[0]
print(f"change wins {wins}/{pairs}; median gain {100 * (c_med / p_med - 1):+.1f}%"
      f" (parent quartile spread {100 * (p_q3 - p_q1) / p_med:.1f}%)")
print(f"{', '.join(SAME)} identical per seed: {'yes' if same else 'NO'}")
for metric in ("checks_per_cpu_s", "setup_s", "peak_rss_mb"):
    medians = [statistics.median(load(side, seed)["metrics"][metric]["value"]
                                 for seed in range(first, first + pairs))
               for side in ("parent", "change")]
    print(f"{metric} median: parent {medians[0]:.4g}  change {medians[1]:.4g}"
          f"  ({100 * (medians[1] / medians[0] - 1):+.1f}%)")
sys.exit(0 if ok else 1)
EOF
