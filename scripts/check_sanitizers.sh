#!/usr/bin/env sh
# Sanitizer lanes: build the whole tree and run the full test suite under
#   1. AddressSanitizer + UndefinedBehaviorSanitizer  (memory / UB)
#   2. ThreadSanitizer                                (data races)
# TSan is a separate lane because it cannot be combined with ASan. The TSan
# lane is the merge gate for anything touching the concurrent DbServer (its
# admission gate and per-session mutexes), the socket transport, or engine
# locking: it must pass with zero reports.
#
# A third lane, `chaos`, runs only the seeded fault-schedule matrix, the WAL
# unit suite, and the recovery regression suite under both sanitizers — the
# fast loop when iterating on recovery/chaos code. Any red schedule prints a
# one-line `PHX_CHAOS_SEED=<seed>` repro command.
#
# A fourth lane, `socket`, runs the real-wire suites (framing; the socket
# transport's synchronous round trips, with threads sharing a channel, the
# late-reply skip and one server thread per connection; out-of-process
# phoenixd with SIGKILL rendezvous; and the process-kill chaos matrix) under
# asan+tsan with PHX_TRANSPORT=unix, so the chaos matrix's process lane
# crosses a real process boundary. Sandboxed
# no-network runners should instead exclude socket-labelled tests from the
# main lanes with `ctest -LE socket` (the suites also self-skip when the
# sandbox denies AF_UNIX).
#
# A fifth lane, `recovery`, runs the recovery-side suites under TSan three
# times: with PHX_RECOVERY_THREADS=1 (fully serial recovery), =4 (checkpoint
# chunks decoded and replay partitioned on the recovery pool) and unset (the
# default, one thread per usable CPU), so the decode window, the scan-thread/
# worker handoff, the DDL barriers, and the sticky first-error path are
# race-checked in every mode.
#
# A sixth lane, `mvcc`, runs the MVCC-sensitive suites once under TSan:
# snapshot reads (version installation, pin/reclaim, the committed_lsn_
# publish) and the READ UNCOMMITTED live-heap reads that share the writer
# hooks are both race-checked, since both run in every build.
#
# A seventh lane, `failover`, runs the multi-server suites — two phoenixd
# incarnations over one data dir, session migration across SIGKILLs, the
# refused-endpoint fast-skip sweep, and the chaos failover schedules —
# under asan+tsan with PHX_TRANSPORT=unix.
#
# Usage: scripts/check_sanitizers.sh
#   [asan|tsan|chaos|socket|recovery|mvcc|failover]
# (default: both)
set -eu

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"

run_lane() {
  lane_name="$1"
  sanitizers="$2"
  test_regex="${3:-}"
  build_dir="build-$lane_name"
  echo "==> [$lane_name] configure ($sanitizers)"
  cmake -B "$build_dir" -S . -DPHOENIX_SANITIZE="$sanitizers" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  echo "==> [$lane_name] build"
  cmake --build "$build_dir" -j "$JOBS" >/dev/null
  echo "==> [$lane_name] ctest"
  # halt_on_error makes any sanitizer report fail the test that produced it.
  # LANE_RECOVERY_THREADS=default leaves PHX_RECOVERY_THREADS unset.
  if [ "${LANE_RECOVERY_THREADS:-1}" = default ]; then
    unset PHX_RECOVERY_THREADS
  else
    export PHX_RECOVERY_THREADS="${LANE_RECOVERY_THREADS:-1}"
  fi
  PHX_TRANSPORT="${LANE_TRANSPORT:-inproc}" \
  ASAN_OPTIONS="halt_on_error=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir "$build_dir" --output-on-failure -j 2 \
          ${test_regex:+-R "$test_regex"}
  echo "==> [$lane_name] OK"
}

CHAOS_TESTS='chaos_matrix_test|recovery_regression_test|wal_test'
SOCKET_TESTS='net_test|process_server_test|chaos_matrix_test'
RECOVERY_TESTS='storage_recovery_test|table_store_test|recovery_regression_test|chaos_matrix_test|wal_test|database_recovery_test'
MVCC_TESTS='executor_test|txn_test|checkpoint_snapshot_test|cursor_test|engine_edge_test|concurrent_server_test|seek_and_multiclient_test|chaos_test|chaos_matrix_test|phoenix_basic_test|phoenix_recovery_test|left_join_test'
FAILOVER_TESTS='failover_test|chaos_matrix_test'

want="${1:-both}"
case "$want" in
  asan) run_lane asan address,undefined ;;
  tsan) run_lane tsan thread ;;
  chaos)
    run_lane asan address,undefined "$CHAOS_TESTS"
    run_lane tsan thread "$CHAOS_TESTS"
    ;;
  socket)
    # Real-wire lane: the chaos matrix's process schedules SIGKILL an
    # out-of-process phoenixd over a Unix socket under both sanitizers.
    LANE_TRANSPORT=unix run_lane asan address,undefined "$SOCKET_TESTS"
    LANE_TRANSPORT=unix run_lane tsan thread "$SOCKET_TESTS"
    ;;
  recovery)
    # Parallel-recovery lane: same build, three recovery pool sizes.
    LANE_RECOVERY_THREADS=1 run_lane tsan thread "$RECOVERY_TESTS"
    LANE_RECOVERY_THREADS=4 run_lane tsan thread "$RECOVERY_TESTS"
    LANE_RECOVERY_THREADS=default run_lane tsan thread "$RECOVERY_TESTS"
    ;;
  mvcc) run_lane tsan thread "$MVCC_TESTS" ;;
  failover)
    # Multi-server lane: session migration across real SIGKILLs plus the
    # chaos failover schedules, both sanitizers.
    LANE_TRANSPORT=unix run_lane asan address,undefined "$FAILOVER_TESTS"
    LANE_TRANSPORT=unix run_lane tsan thread "$FAILOVER_TESTS"
    ;;
  both)
    run_lane asan address,undefined
    run_lane tsan thread
    ;;
  *)
    echo "usage: $0 [asan|tsan|chaos|socket|recovery|mvcc|failover]" >&2
    exit 2
    ;;
esac
