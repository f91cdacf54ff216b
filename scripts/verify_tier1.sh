#!/usr/bin/env bash
# Tier-1 verify flow:
#   1. standard build + the full test suite;
#   2. rebuild the concurrency-sensitive pieces under ThreadSanitizer
#      (-DCOMB_SANITIZE=thread) and run the thread-pool / parallel-sweep /
#      logger tests, which exercise every cross-thread interaction the
#      parallel sweep executor introduces — plus the fault-injection
#      tests (`faults` label), whose parallel sweeps run retransmission
#      machinery on every worker thread — and the tracing/observability
#      tests (`trace` label), whose TraceLog rides along with parallel
#      traced-point runs — and the sharded-PDES core tests (`pdes`
#      label), whose window loop drives a persistent worker team through
#      a lock-free epoch barrier and folds cross-shard events back in
#      from per-pair mailbox rings (test_window_barrier exercises the
#      barrier/ring primitives directly; test_executor_alloc counts
#      operator-new calls in the steady-state loop);
#   3. rebuild the tracing/observability suites under AddressSanitizer
#      (-DCOMB_SANITIZE=address) and run the `trace`-labelled tests: the
#      TraceLog ring recycles slots and interns labels, exactly the kind
#      of code ASan exists to check — plus the packet path: the
#      nic::ReliableLink, Switch, Link and Fabric unit tests and the
#      `faults`-labelled tests (the reliability engine's window and
#      fragment-bit index arithmetic, its timers capturing the link's
#      `this`, and the idealized switch's early Link::send);
#   4. rebuild the stats/archive/compare engine under UBSan
#      (-DCOMB_SANITIZE=undefined) and run the `stats`-labelled tests:
#      percentile interpolation, bootstrap index arithmetic and the
#      Mann-Whitney normal approximation are dense in the float/integer
#      conversions UBSan checks;
#   5. with --perf: additionally run the simulator-core micro-benchmark
#      suite in Release (scripts/run_micro.sh), refreshing the "current"
#      block of BENCH_sim_core.json against the recorded baseline.
#
# Every stage runs even when an earlier one fails; the script prints a
# stage-by-stage PASS/FAIL summary and exits non-zero if anything failed.
# A ctest selection (-L label / -R regex) matching zero tests is itself a
# failure — a renamed label must not silently skip a sanitizer stage.
set -uo pipefail
cd "$(dirname "$0")/.."

PERF=0
for arg in "$@"; do
  case "$arg" in
    --perf) PERF=1 ;;
    *) echo "unknown option: $arg (supported: --perf)" >&2; exit 2 ;;
  esac
done

STAGES=()
RESULTS=()
FAILED=0

# run_stage NAME CMD...: run CMD, record PASS/FAIL, keep going.
run_stage() {
  local name=$1
  shift
  echo
  echo "=== stage: $name ==="
  if "$@"; then
    STAGES+=("$name"); RESULTS+=(PASS)
  else
    STAGES+=("$name"); RESULTS+=("FAIL (exit $?)")
    FAILED=1
  fi
}

# ctest_checked BUILD_DIR CTEST_ARGS...: fail when the selection matches
# zero tests, then run it.
ctest_checked() {
  local dir=$1
  shift
  local n
  n=$(cd "$dir" && ctest -N "$@" | sed -n 's/^Total Tests: //p')
  if [[ -z "$n" || "$n" == 0 ]]; then
    echo "ctest selection '$*' matched no tests in $dir" >&2
    return 1
  fi
  (cd "$dir" && ctest --output-on-failure -j"$(nproc)" "$@")
}

build_standard() {
  cmake -B build -S . && cmake --build build -j
}
build_tsan() {
  cmake -B build-tsan -S . -DCOMB_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
    cmake --build build-tsan -j --target test_thread_pool test_runner \
      test_log test_thread_comb test_fault test_fault_injection \
      test_tracelog test_trace_export test_audit test_executor test_pdes \
      test_window_barrier test_executor_alloc test_tail_observability \
      test_progress_thread test_rdma test_reliable_link
}
build_asan() {
  cmake -B build-asan -S . -DCOMB_SANITIZE=address \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
    cmake --build build-asan -j --target test_tracelog test_trace_export \
      test_audit test_progress_thread test_rdma test_reliable_link \
      test_switch test_link test_fabric test_fault test_fault_injection \
      test_match test_stress test_gm_nic test_portals_nic
}
# The packet path and the shared receive path (messages move in and out
# of the reassembler, the send-order gate and the matcher's queues).
asan_link() {
  ctest_checked build-asan -R '^(ReliableLink|Switch|Link|Fabric)\.' &&
    ctest_checked build-asan -L faults &&
    ctest_checked build-asan -L receive
}
build_ubsan() {
  cmake -B build-ubsan -S . -DCOMB_SANITIZE=undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
    cmake --build build-ubsan -j --target test_stats test_json test_archive \
      test_compare test_reps
}

run_stage "build"            build_standard
run_stage "tests"            ctest_checked build
run_stage "tsan build"       build_tsan
run_stage "tsan concurrency" ctest_checked build-tsan \
  -R 'ThreadPool|ParallelFor|ParallelSweep|LogSweep|Log\.|Runner'
run_stage "tsan faults"      ctest_checked build-tsan -L faults
run_stage "tsan trace"       ctest_checked build-tsan -L trace
run_stage "tsan pdes"        ctest_checked build-tsan -L pdes
run_stage "asan build"       build_asan
run_stage "asan trace"       ctest_checked build-asan -L trace
run_stage "asan link"        asan_link
run_stage "ubsan build"      build_ubsan
run_stage "ubsan stats"      ctest_checked build-ubsan -L stats
if [[ "$PERF" == 1 ]]; then
  run_stage "perf micro"     scripts/run_micro.sh
fi

echo
echo "=== tier-1 verify summary ==="
for i in "${!STAGES[@]}"; do
  printf '  %-18s %s\n' "${STAGES[$i]}" "${RESULTS[$i]}"
done
if [[ "$FAILED" != 0 ]]; then
  echo "tier-1 verify: FAILED"
  exit 1
fi
echo "tier-1 verify: OK"
