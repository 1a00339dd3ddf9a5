#!/usr/bin/env bash
# Metrics smoke test: run a tiny campaign with --metrics-out, validate
# the exported document against the sqlpp.metrics.v1 schema, assert
# the byte-identity guarantee (same seed, one worker → same bytes), and
# that a tlp-only run exports the same metric names as a five-oracle
# run.
#
# Usage: scripts/metrics_smoke.sh [path/to/bug_hunt]
set -u

BUG_HUNT="${1:-build/examples/bug_hunt}"
if [ ! -x "$BUG_HUNT" ]; then
    echo "metrics_smoke: $BUG_HUNT not found; build first" >&2
    exit 1
fi

WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

CHECKS=20

"$BUG_HUNT" "$CHECKS" --workers 1 --metrics-out "$WORKDIR/a.json" \
    --metrics-summary > "$WORKDIR/run_a.log" 2>&1 || {
    echo "FAIL: bug_hunt exited non-zero" >&2
    cat "$WORKDIR/run_a.log" >&2
    exit 1
}

[ -s "$WORKDIR/a.json" ] || {
    echo "FAIL: --metrics-out wrote no document" >&2
    exit 1
}

grep -q "connection.statements" "$WORKDIR/run_a.log" || {
    echo "FAIL: --metrics-summary printed no metrics table" >&2
    cat "$WORKDIR/run_a.log" >&2
    exit 1
}

# Schema validation: parse as JSON, check the envelope, require the
# core metric families, and require every entry to be well-formed.
if command -v python3 > /dev/null 2>&1; then
    python3 - "$WORKDIR/a.json" <<'PYEOF' || exit 1
import json
import sys

with open(sys.argv[1]) as handle:
    doc = json.load(handle)

assert doc["schema"] == "sqlpp.metrics.v1", doc.get("schema")
metrics = doc["metrics"]
assert isinstance(metrics, list) and metrics, "empty metrics list"

names = [m["name"] for m in metrics]
assert names == sorted(names), "metrics are not sorted by name"
assert len(set(names)) == len(names), "duplicate metric names"

for metric in metrics:
    kind = metric["kind"]
    assert kind in ("counter", "gauge", "histogram", "timer"), kind
    if kind in ("counter", "gauge"):
        assert isinstance(metric["total"], int), metric
        for shard in metric.get("shards", []):
            assert isinstance(shard["shard"], str), metric
            assert isinstance(shard["value"], int), metric
    else:
        assert isinstance(metric["count"], int), metric
        if kind == "timer":
            # Determinism contract: no wall-clock values by default.
            assert "sum" not in metric and "buckets" not in metric, \
                metric

for family in ("generator.", "connection.", "oracle.", "campaign.",
               "scheduler."):
    assert any(n.startswith(family) for n in names), \
        "missing metric family " + family

print("schema ok: %d metrics" % len(metrics))
PYEOF
else
    # Fallback without python3: structural greps only.
    grep -q '"schema": "sqlpp.metrics.v1"' "$WORKDIR/a.json" || {
        echo "FAIL: document lacks the sqlpp.metrics.v1 envelope" >&2
        exit 1
    }
    for family in generator connection oracle campaign scheduler; do
        grep -q "\"name\": \"$family\." "$WORKDIR/a.json" || {
            echo "FAIL: missing metric family $family" >&2
            exit 1
        }
    done
fi

# Byte-identity: a second run with the same seed and one worker must
# export the exact same document.
"$BUG_HUNT" "$CHECKS" --workers 1 --metrics-out "$WORKDIR/b.json" \
    > "$WORKDIR/run_b.log" 2>&1 || {
    echo "FAIL: second bug_hunt run exited non-zero" >&2
    exit 1
}
cmp -s "$WORKDIR/a.json" "$WORKDIR/b.json" || {
    echo "FAIL: metrics documents differ between identical runs" >&2
    diff "$WORKDIR/a.json" "$WORKDIR/b.json" | head -20 >&2
    exit 1
}

# Stable shape: every instrumented site registers its metric before
# main, so the exported names do not depend on which oracles ran.
metric_names() {
    grep -o '"name": "[^"]*"' "$1"
}
for oracles in tlp,norec,pqs,eet,iso tlp; do
    "$BUG_HUNT" "$CHECKS" --workers 1 --oracles "$oracles" \
        --metrics-out "$WORKDIR/$oracles.json" \
        > "$WORKDIR/run_$oracles.log" 2>&1 || {
        echo "FAIL: bug_hunt --oracles $oracles exited non-zero" >&2
        cat "$WORKDIR/run_$oracles.log" >&2
        exit 1
    }
done
if ! cmp -s <(metric_names "$WORKDIR/tlp,norec,pqs,eet,iso.json") \
        <(metric_names "$WORKDIR/tlp.json"); then
    echo "FAIL: metric names depend on the oracles that ran" >&2
    diff <(metric_names "$WORKDIR/tlp,norec,pqs,eet,iso.json") \
        <(metric_names "$WORKDIR/tlp.json") | head -20 >&2
    exit 1
fi

echo "OK: sqlpp.metrics.v1 document valid, byte-identical across runs" \
    "and the same names for any oracle set"
