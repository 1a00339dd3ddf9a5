#!/usr/bin/env bash
# Count the heap allocations of one campaign benchmark round.
#
#   scripts/alloc_count.sh BUILD_DIR WORKLOAD SEED CHECKS
#
# BUILD_DIR is a campaign_bench build tree (the one campaign_bench/run.py
# makes, .bench_build by default, or any
# `cmake -S campaign_bench -B DIR -DCMAKE_BUILD_TYPE=Release` tree);
# WORKLOAD is fleet, single or triage. The script compiles a small
# malloc-counting shim into a temporary directory, runs
#
#   BUILD_DIR/campaign_bench run --workload WORKLOAD --seed SEED \
#       --checks CHECKS --round 0
#
# with the shim preloaded, and prints the whole process's malloc calls
# and requested bytes, in total and per attempted check. Only malloc is
# counted (operator new reaches it); calloc, realloc and
# posix_memalign are not. The count does not depend on timing: a
# single-worker round repeats it to within a call or two.
# campaign_bench/ is only read.
set -eu

if [ $# -ne 4 ]; then
    echo "usage: $0 BUILD_DIR WORKLOAD SEED CHECKS" >&2
    exit 2
fi
BIN="$1/campaign_bench"
if [ ! -x "$BIN" ]; then
    echo "alloc_count: no campaign_bench binary in $1" >&2
    exit 2
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

cat >"$WORK/shim.c" <<'EOF'
#include <stdatomic.h>
#include <stdio.h>
#include <stdlib.h>

extern void *__libc_malloc(size_t size);

static atomic_ulong calls;
static atomic_ulong bytes;

void *
malloc(size_t size)
{
    atomic_fetch_add_explicit(&calls, 1, memory_order_relaxed);
    atomic_fetch_add_explicit(&bytes, size, memory_order_relaxed);
    return __libc_malloc(size);
}

__attribute__((destructor)) static void
report(void)
{
    FILE *out = fopen(COUNT_FILE, "w");
    if (out == NULL)
        return;
    fprintf(out, "%lu %lu\n", atomic_load(&calls), atomic_load(&bytes));
    fclose(out);
}
EOF
cc -O2 -shared -fPIC -DCOUNT_FILE="\"$WORK/counts\"" \
    -o "$WORK/shim.so" "$WORK/shim.c"

LD_PRELOAD="$WORK/shim.so" "$BIN" run --workload "$2" --seed "$3" \
    --checks "$4" --round 0 >"$WORK/run.json"

python3 - "$WORK/run.json" "$WORK/counts" "$2" "$3" <<'EOF'
import json
import sys

run = json.loads(open(sys.argv[1]).read().strip().splitlines()[-1])
calls, size = (int(x) for x in open(sys.argv[2]).read().split())
checks = run["checks_attempted"]
print(f"workload {sys.argv[3]} seed {sys.argv[4]}: "
      f"{checks} checks attempted")
print(f"malloc calls  {calls:>12}  {calls / checks:>10.1f} per check")
print(f"malloc bytes  {size:>12}  {size / checks:>10.1f} per check")
EOF
