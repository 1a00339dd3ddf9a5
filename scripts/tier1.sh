#!/usr/bin/env bash
# Tier-1 verification pipeline, fastest signal first:
#
#   1. unit lane    — configure + build, then `ctest -L unit`: the
#                     sub-second suites, for a quick inner loop. The
#                     build fails if the compiler prints any warning
#                     for a file under src/: the libraries are built
#                     first and any "warning:" in their output fails
#                     the lane (that also catches warnings GCC reports
#                     at a system header a src/ function inlined, like
#                     -Wrestrict's), then the rest, where a warning
#                     located in a src/ header fails it. A compiler
#                     prints a file's warnings only when it compiles
#                     it, so a fresh build tree checks every file.
#   2. full suite   — every registered test (unit + integration +
#                     smoke), the bar every PR must clear. The smoke
#                     tests drive the built binaries end to end, each
#                     run once here:
#                       metrics_smoke, trace_smoke — the metrics JSON
#                         and the flight-recorder trace and dossiers;
#                       guided_smoke — fixed-seed guided campaigns are
#                         byte-deterministic at --workers 1 and beat
#                         the adaptive lane on unique plan fingerprints
#                         at the same statement budget;
#                       status_smoke — the /status, /metrics and /trace
#                         endpoints answer while a campaign runs;
#                       txn_replay_smoke — a tick-annotated
#                         transactional dossier (bug_hunt --oracles
#                         iso) replays through dialect_probe;
#                       deep_replay_smoke — a repro.sql whose
#                         predicate nests 5,000 parentheses replays to
#                         the parser's "nested too deeply" SyntaxError,
#                         not a signal.
#   3. bench lane   — run the campaign benchmark's self-test
#                     (campaign_bench/test_bench.py): the benchmark
#                     compiles the library sources itself, so this
#                     proves it still builds, reports every metric of
#                     BENCHMARK.json, and passes its pinned-digest gate.
#   4. asan lane    — rebuild in a separate tree with
#                     -DSQLPP_SANITIZE=address and rerun the unit lane
#                     under AddressSanitizer plus UBSan (any undefined
#                     behaviour aborts the test) with libstdc++'s
#                     _GLIBCXX_ASSERTIONS bounds checks, then the
#                     integration-labelled EngineDifferentialTest: it
#                     drives random optimized-vs-reference joins
#                     through the executor's flat row buffers, where an
#                     out-of-width column read is a bounds trap only
#                     under these checks.
#   5. tsan lane    — rebuild with -DSQLPP_SANITIZE=thread, under the
#                     same src/ warning gate as the unit lane (GCC's
#                     -Wtsan flags orderings TSan cannot model, such
#                     as standalone fences), and run the
#                     interleaving, scheduler, and telemetry suites
#                     under ThreadSanitizer: the multi-session
#                     transaction tests, the worker pool, and the
#                     shard-bound metric/trace/progress lanes with
#                     their live readers, the reference counts of
#                     Value's shared text blocks, and coverage-probe
#                     registration racing per-thread captures are the
#                     code most worth race-checking.
#
# Usage: scripts/tier1.sh [--unit-only] [--no-asan] [--no-txn] [-j N]
set -eu -o pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build"
ASAN_BUILD="$ROOT/build-asan"
TSAN_BUILD="$ROOT/build-tsan"
JOBS=4
RUN_FULL=1
RUN_ASAN=1
RUN_BENCH=1
RUN_TXN=1

while [ $# -gt 0 ]; do
    case "$1" in
      --unit-only) RUN_FULL=0; RUN_ASAN=0; RUN_BENCH=0; RUN_TXN=0 ;;
      --no-asan) RUN_ASAN=0 ;;
      --no-txn) RUN_TXN=0 ;;
      -j) JOBS="$2"; shift ;;
      *) echo "usage: $0 [--unit-only] [--no-asan] [--no-txn] [-j N]" >&2
         exit 2 ;;
    esac
    shift
done

# Build the configured tree in $1, failing on any compiler warning for
# a src/ file (see the header). The log is $1/tier1-build.log.
build_without_src_warnings() {
    local log="$1/tier1-build.log"
    cmake --build "$1" -j "$JOBS" --target sqlpp_util sqlpp_sqlir \
        sqlpp_parser sqlpp_engine sqlpp_dialect sqlpp_core 2>&1 |
        tee "$log"
    if grep -q "warning:" "$log"; then
        echo "tier1: compiler warnings in src/ (see $log)" >&2
        exit 1
    fi
    cmake --build "$1" -j "$JOBS" 2>&1 | tee "$log"
    if grep -Eq "/src/[^:]+:[0-9]+(:[0-9]+)?: warning:" "$log"; then
        echo "tier1: compiler warnings in src/ (see $log)" >&2
        exit 1
    fi
}

echo "== tier1: configure + build =="
cmake -B "$BUILD" -S "$ROOT" >/dev/null
build_without_src_warnings "$BUILD"

echo "== tier1: unit lane (ctest -L unit) =="
ctest --test-dir "$BUILD" -L unit --output-on-failure -j "$JOBS" \
    --timeout 300

if [ "$RUN_FULL" -eq 1 ]; then
    echo "== tier1: full suite =="
    ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS" \
        --timeout 300
fi

if [ "$RUN_BENCH" -eq 1 ]; then
    echo "== tier1: campaign benchmark self-test =="
    (cd "$ROOT" && python3 campaign_bench/test_bench.py)
fi

if [ "$RUN_ASAN" -eq 1 ]; then
    echo "== tier1: asan+ubsan unit lane =="
    cmake -B "$ASAN_BUILD" -S "$ROOT" -DSQLPP_SANITIZE=address \
        >/dev/null
    cmake --build "$ASAN_BUILD" -j "$JOBS"
    ctest --test-dir "$ASAN_BUILD" -L unit --output-on-failure \
        -j "$JOBS" --timeout 300
    ctest --test-dir "$ASAN_BUILD" -R EngineDifferentialTest \
        --output-on-failure -j "$JOBS" --timeout 300
fi

if [ "$RUN_TXN" -eq 1 ]; then
    echo "== tier1: tsan interleaving lane =="
    cmake -B "$TSAN_BUILD" -S "$ROOT" -DSQLPP_SANITIZE=thread \
        >/dev/null
    build_without_src_warnings "$TSAN_BUILD"
    # The multi-session transaction machinery (snapshot views, commit
    # replay, isolation-fault overlays), the ISO oracle, the threaded
    # scheduler, the shard-bound telemetry lanes, Value's shared text
    # blocks, and coverage-probe registration and captures, all under
    # ThreadSanitizer.
    ctest --test-dir "$TSAN_BUILD" \
        -R "TxnTest|TxnFaultTest|TxnGenTest|IsolationOracleTest|SchedulerTest|MetricsTest|TraceTest|ProgressTest|ShardScopeTest|ValueTest|CoverageTest|CoverageCaptureTest" \
        --output-on-failure -j "$JOBS" --timeout 300
fi

echo "== tier1: OK =="
