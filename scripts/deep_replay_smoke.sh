#!/usr/bin/env bash
# Deep-replay smoke test: write a repro.sql whose predicate nests 5,000
# parentheses and replay it with `dialect_probe --replay`. The parser's
# nesting bound must turn it into a SyntaxError: the probe exits
# normally (0 or 1, never by a signal) and reports "nested too deeply".
#
# Usage: scripts/deep_replay_smoke.sh [path/to/dialect_probe]
set -u

DIALECT_PROBE="${1:-build/examples/dialect_probe}"
if [ ! -x "$DIALECT_PROBE" ]; then
    echo "deep_replay_smoke: $DIALECT_PROBE not found; build first" >&2
    exit 1
fi

WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

DEPTH=5000
OPEN=$(printf '%*s' "$DEPTH" '' | tr ' ' '(')
CLOSE=$(printf '%*s' "$DEPTH" '' | tr ' ' ')')
cat > "$WORKDIR/repro.sql" <<EOF
-- sqlancerpp repro deep-nesting
-- dialect: sqlite-like
-- oracle: TLP
-- base: SELECT c0 FROM t0
-- predicate: ${OPEN}c0 = 1${CLOSE}

CREATE TABLE t0 (c0 INT)
INSERT INTO t0 VALUES (1)
EOF

"$DIALECT_PROBE" --replay "$WORKDIR/repro.sql" > "$WORKDIR/replay.log" 2>&1
STATUS=$?
if [ "$STATUS" -gt 1 ]; then
    echo "FAIL: dialect_probe --replay exited with status $STATUS" \
         "(killed by a signal above 128)" >&2
    cat "$WORKDIR/replay.log" >&2
    exit 1
fi
grep -q "nested too deeply" "$WORKDIR/replay.log" || {
    echo "FAIL: replay output does not report the nesting bound" >&2
    cat "$WORKDIR/replay.log" >&2
    exit 1
}

echo "OK: ${DEPTH}-deep predicate replayed to a SyntaxError" \
     "(exit $STATUS)"
