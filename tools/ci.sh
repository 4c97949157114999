#!/usr/bin/env bash
# Correctness-tooling CI matrix for autocat.
#
# Runs, in order:
#   1. Release build + full ctest (includes the autocat_lint gate and the
#      SQL fuzz-corpus replay)
#   2. Debug + AddressSanitizer build + full ctest
#   3. Debug + UndefinedBehaviorSanitizer build + full ctest
#   4. Debug + ThreadSanitizer build + full ctest (the parallel engine's
#      pool, hot paths, and determinism suite under real interleavings)
#   5. The static-analysis leg (also available alone as --analyze):
#      clang thread-safety analysis over the annotated tree, the
#      concurrency lint rules (autocat_lint), and clang-tidy with the
#      concurrency-* checks. Clang-dependent stages skip with a notice
#      when the toolchain is absent (the ctest gates skip the same way
#      via exit code 77); the lint stage always runs.
#
# Usage: tools/ci.sh [--fast|--serve|--pipeline|--bench-smoke|--workload|--store|--kernels|--analyze]
#   --fast   run only the Release leg (useful as a pre-push smoke test)
#   --serve  run only the serving-layer suite (src/serve/ + histogram)
#            under ASan and TSan — the targeted gate for cache/admission
#            concurrency work
#   --pipeline
#            run the push-based cold-path pipeline and request-coalescing
#            suites (legacy-vs-pipeline equivalence at several thread
#            counts, the morsel scheduler's determinism, the coalescing
#            registry, and the service burst tests) in Release and under
#            ASan and TSan, plus bench_pipeline at --smoke sizes — the
#            targeted gate for operator/scheduler/coalescing work. The
#            TSan pass of this leg also runs in the default matrix.
#   --bench-smoke
#            build and run bench_exec_filter, bench_serve_throughput, and
#            bench_pipeline at tiny sizes (--smoke) under ASan and TSan —
#            the targeted gate for the columnar engine's kernels, views,
#            and the threaded serve path, exercised through the real
#            benchmark drivers rather than unit fixtures
#   --workload
#            run the workload-harness suites (session/traffic/scenario
#            generators, the scenario harness with its drift-recovery
#            gate, loadgen flag parsing, admission bursts, and the
#            determinism proofs) in Release and under TSan, plus the
#            scenario benchmark at --smoke sizes — the targeted gate for
#            workload-synthesis and adaptive-serving work. The TSan pass
#            of this leg also runs in the default matrix.
#   --store  run the persistent segment-store suite (coding/segment
#            decoders, mapped file + buffer manager, external-sort
#            writer, corruption rejection, the store-vs-memory
#            equivalence gate, simgen flag parsing, and the decoder
#            fuzz-corpus replay) in Release and under ASan and TSan —
#            the targeted gate for on-disk-format work. The ASan and
#            TSan passes of this leg also run in the default matrix.
#   --kernels
#            run the zone-map + SIMD kernel suites (exact zone metadata,
#            the zone prover's refuse-or-exact verdicts against row
#            truth, cold-pipeline pruning counters, and the
#            SIMD-vs-scalar equivalence gate over the fuzz corpus and
#            randomized queries at threads 1/2/7/16) in Release and
#            under ASan and UBSan, plus bench_exec_filter at --smoke
#            sizes — the targeted gate for filter-kernel and zone-map
#            work (DESIGN.md section 15). The ASan and UBSan passes of
#            this leg also run in the default matrix.
#   --analyze
#            run only the static-analysis leg — the targeted gate for
#            concurrency-discipline work (DESIGN.md section 11)
#
# A gate that skips (a ctest that exits 77, or an analyze stage whose
# toolchain is missing) is not a pass: every leg records its skips and
# the final line names them.

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
FAST=0
SERVE=0
PIPELINE=0
BENCH_SMOKE=0
WORKLOAD=0
STORE=0
KERNELS=0
ANALYZE=0
if [[ "${1:-}" == "--fast" ]]; then
  FAST=1
elif [[ "${1:-}" == "--serve" ]]; then
  SERVE=1
elif [[ "${1:-}" == "--pipeline" ]]; then
  PIPELINE=1
elif [[ "${1:-}" == "--bench-smoke" ]]; then
  BENCH_SMOKE=1
elif [[ "${1:-}" == "--workload" ]]; then
  WORKLOAD=1
elif [[ "${1:-}" == "--store" ]]; then
  STORE=1
elif [[ "${1:-}" == "--kernels" ]]; then
  KERNELS=1
elif [[ "${1:-}" == "--analyze" ]]; then
  ANALYZE=1
fi

# Gates that skipped instead of running, as "[leg] gate" entries.
SKIPPED=()

# Runs ctest in build dir $2 for leg $1 (extra arguments go to ctest) and
# records every test ctest reports as skipped.
run_ctest() {
  local name="$1" dir="$2"
  shift 2
  local log="$ROOT/$dir/ci-ctest.log"
  (cd "$ROOT/$dir" && ctest --output-on-failure -j "$JOBS" "$@") | tee "$log"
  local gate
  while IFS= read -r gate; do
    SKIPPED+=("[$name] $gate")
  done < <(sed -n 's/^[[:space:]]*[0-9]* - \(.*\) (Skipped)$/\1/p' "$log")
}

# Prints the closing line for the run named $1, naming every skipped gate.
finish() {
  if [[ "${#SKIPPED[@]}" == "0" ]]; then
    echo "==== $1 passed ===="
    return
  fi
  local joined
  joined="$(printf '%s, ' "${SKIPPED[@]}")"
  echo "==== $1 passed, but ${#SKIPPED[@]} gate(s) skipped: ${joined%, } ===="
}

# Every serving-layer test suite, plus the histogram the metrics build on.
SERVE_FILTER='^(ServiceTest|SignatureTest|SignatureCacheTest|CachedCategorizationTest|AdmissionTest|ServiceMetricsTest|HistogramTest)\.'

serve_leg() {
  local name="$1" dir="$2"
  shift 2
  echo "==== [serve/$name] configure ===="
  cmake -B "$ROOT/$dir" -S "$ROOT" "$@"
  echo "==== [serve/$name] build ===="
  cmake --build "$ROOT/$dir" -j "$JOBS" \
    --target autocat_serve_tests autocat_common_tests
  echo "==== [serve/$name] ctest ===="
  run_ctest "serve/$name" "$dir" -R "$SERVE_FILTER"
}

# The pipeline/coalescing gate: the push-based cold path's
# legacy-vs-pipeline equivalence suite (bit-identical results and
# attribute indexes at thread counts 1/2/7/16), the coalescing registry
# units, and the service-level burst/epoch-invalidation tests.
PIPELINE_FILTER='^(PipelineEquivalenceTest|CoalescingRegistryTest|ServiceCoalescingTest)\.'

pipeline_leg() {
  local name="$1" dir="$2"
  shift 2
  echo "==== [pipeline/$name] configure ===="
  cmake -B "$ROOT/$dir" -S "$ROOT" "$@"
  echo "==== [pipeline/$name] build ===="
  cmake --build "$ROOT/$dir" -j "$JOBS" \
    --target autocat_columnar_tests autocat_serve_tests bench_pipeline
  echo "==== [pipeline/$name] ctest ===="
  run_ctest "pipeline/$name" "$dir" -R "$PIPELINE_FILTER"
  echo "==== [pipeline/$name] bench_pipeline --smoke ===="
  "$ROOT/$dir/bench/bench_pipeline" --smoke --benchmark_min_time=0.01
}

# The workload-harness gate: scenario/session/traffic generation, the
# scenario harness (including the drift-recovery acceptance gate), strict
# loadgen flag parsing, the scripted admission burst, and the
# bit-identical-at-any-thread-count determinism proofs.
WORKLOAD_FILTER='^(SessionGeneratorTest|TrafficStreamTest|ScenarioSpecTest|WorkloadHarnessTest|LoadgenFlagsTest|ParallelDeterminismTest|AdmissionTest)\.'

workload_leg() {
  local name="$1" dir="$2"
  shift 2
  echo "==== [workload/$name] configure ===="
  cmake -B "$ROOT/$dir" -S "$ROOT" "$@"
  echo "==== [workload/$name] build ===="
  cmake --build "$ROOT/$dir" -j "$JOBS" \
    --target autocat_workloadgen_tests autocat_tooling_tests \
             autocat_parallel_tests autocat_serve_tests \
             bench_workload_scenarios
  echo "==== [workload/$name] ctest ===="
  run_ctest "workload/$name" "$dir" -R "$WORKLOAD_FILTER"
  echo "==== [workload/$name] bench_workload_scenarios --smoke ===="
  "$ROOT/$dir/bench/bench_workload_scenarios" --smoke \
    --benchmark_min_time=0.01
}

# The segment-store gate: every Store* suite in tests/store_test.cc and
# the store-vs-memory equivalence tests, the strict simgen flag parser,
# and the decoder fuzz corpus replayed as a plain ctest entry.
STORE_FILTER='^(StoreCodingTest|StoreSegmentTest|StoreMappedFileTest|StoreBufferManagerTest|StoreSorterTest|StoreWriterTest|StoreRoundTripTest|StoreCorruptionTest|StoreEquivalenceTest|SimgenFlagsTest)\.|^store_fuzz_corpus_replay$'

store_leg() {
  local name="$1" dir="$2"
  shift 2
  echo "==== [store/$name] configure ===="
  cmake -B "$ROOT/$dir" -S "$ROOT" "$@"
  echo "==== [store/$name] build ===="
  cmake --build "$ROOT/$dir" -j "$JOBS" \
    --target autocat_store_tests autocat_tooling_tests \
             autocat_store_fuzz_replay
  echo "==== [store/$name] ctest ===="
  run_ctest "store/$name" "$dir" -R "$STORE_FILTER"
}

# The zone-map + SIMD kernel gate: zone metadata construction, the zone
# prover's refuse-or-exact verdicts (randomized, NULL/NaN edges,
# clustered pruning bite, cold-pipeline counters), the kernel-vs-scalar
# unit comparisons, and the end-to-end SIMD-vs-scalar equivalence gate
# (fuzz corpus + randomized queries, bit-identical at threads 1/2/7/16).
KERNELS_FILTER='^(ZoneMapTest|ZoneProverTest|SimdKernelTest|SimdEquivalenceTest|StoreRoundTripTest)\.'

kernels_leg() {
  local name="$1" dir="$2"
  shift 2
  echo "==== [kernels/$name] configure ===="
  cmake -B "$ROOT/$dir" -S "$ROOT" "$@"
  echo "==== [kernels/$name] build ===="
  cmake --build "$ROOT/$dir" -j "$JOBS" \
    --target autocat_kernel_tests autocat_store_tests bench_exec_filter
  echo "==== [kernels/$name] ctest ===="
  run_ctest "kernels/$name" "$dir" -R "$KERNELS_FILTER"
  echo "==== [kernels/$name] bench_exec_filter --smoke ===="
  "$ROOT/$dir/bench/bench_exec_filter" --smoke --benchmark_min_time=0.01
}

bench_smoke_leg() {
  local name="$1" dir="$2"
  shift 2
  echo "==== [bench-smoke/$name] configure ===="
  cmake -B "$ROOT/$dir" -S "$ROOT" "$@"
  echo "==== [bench-smoke/$name] build ===="
  cmake --build "$ROOT/$dir" -j "$JOBS" \
    --target bench_exec_filter bench_serve_throughput bench_pipeline
  echo "==== [bench-smoke/$name] bench_exec_filter ===="
  "$ROOT/$dir/bench/bench_exec_filter" --smoke --benchmark_min_time=0.01
  echo "==== [bench-smoke/$name] bench_serve_throughput ===="
  "$ROOT/$dir/bench/bench_serve_throughput" --smoke \
    --benchmark_min_time=0.01
  echo "==== [bench-smoke/$name] bench_pipeline ===="
  "$ROOT/$dir/bench/bench_pipeline" --smoke --benchmark_min_time=0.01
}

# The static-analysis leg: thread-safety annotations (clang), the
# concurrency lint rules, and clang-tidy's concurrency checks. Needs a
# Release build dir for the lint binary and the compile database.
analyze_leg() {
  local dir="build-ci-release"
  echo "==== [analyze] configure + build lint ===="
  cmake -B "$ROOT/$dir" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$ROOT/$dir" -j "$JOBS" --target autocat_lint

  echo "==== [analyze] thread-safety ===="
  if "$ROOT/tools/run_thread_safety.sh" "$ROOT"; then
    echo "thread-safety: clean"
  else
    local rc=$?
    if [[ "$rc" == "77" ]]; then
      echo "thread-safety: clang++ not installed, skipped"
      SKIPPED+=("[analyze] thread-safety (clang++ not installed)")
    else
      echo "thread-safety: FAILED (exit $rc)" >&2
      exit "$rc"
    fi
  fi

  echo "==== [analyze] autocat_lint (concurrency rules) ===="
  "$ROOT/$dir/tools/autocat_lint" --root "$ROOT" src tools

  echo "==== [analyze] clang-tidy (incl. concurrency-*) ===="
  if "$ROOT/tools/run_clang_tidy.sh" "$ROOT" "$ROOT/$dir"; then
    echo "clang-tidy: clean"
  else
    local rc=$?
    if [[ "$rc" == "77" ]]; then
      echo "clang-tidy: not installed, skipped"
      SKIPPED+=("[analyze] clang-tidy (not installed)")
    else
      echo "clang-tidy: FAILED (exit $rc)" >&2
      exit "$rc"
    fi
  fi
}

if [[ "$ANALYZE" == "1" ]]; then
  analyze_leg
  finish "analyze leg"
  exit 0
fi

if [[ "$BENCH_SMOKE" == "1" ]]; then
  bench_smoke_leg asan build-ci-asan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=address
  bench_smoke_leg tsan build-ci-tsan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=thread
  finish "bench-smoke legs"
  exit 0
fi

if [[ "$WORKLOAD" == "1" ]]; then
  workload_leg release build-ci-release -DCMAKE_BUILD_TYPE=Release
  workload_leg tsan build-ci-tsan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=thread
  finish "workload legs"
  exit 0
fi

if [[ "$STORE" == "1" ]]; then
  store_leg release build-ci-release -DCMAKE_BUILD_TYPE=Release
  store_leg asan build-ci-asan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=address
  store_leg tsan build-ci-tsan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=thread
  finish "store legs"
  exit 0
fi

if [[ "$KERNELS" == "1" ]]; then
  kernels_leg release build-ci-release -DCMAKE_BUILD_TYPE=Release
  kernels_leg asan build-ci-asan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=address
  kernels_leg ubsan build-ci-ubsan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=undefined
  finish "kernels legs"
  exit 0
fi

if [[ "$SERVE" == "1" ]]; then
  serve_leg asan build-ci-asan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=address
  serve_leg tsan build-ci-tsan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=thread
  finish "serve legs"
  exit 0
fi

if [[ "$PIPELINE" == "1" ]]; then
  pipeline_leg release build-ci-release -DCMAKE_BUILD_TYPE=Release
  pipeline_leg asan build-ci-asan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=address
  pipeline_leg tsan build-ci-tsan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=thread
  finish "pipeline legs"
  exit 0
fi

run_leg() {
  local name="$1" dir="$2"
  shift 2
  echo "==== [$name] configure ===="
  cmake -B "$ROOT/$dir" -S "$ROOT" "$@"
  echo "==== [$name] build ===="
  cmake --build "$ROOT/$dir" -j "$JOBS"
  echo "==== [$name] ctest ===="
  run_ctest "$name" "$dir"
}

run_leg release build-ci-release -DCMAKE_BUILD_TYPE=Release

if [[ "$FAST" == "0" ]]; then
  run_leg asan build-ci-asan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=address
  run_leg ubsan build-ci-ubsan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=undefined
  run_leg tsan build-ci-tsan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=thread
  # The workload gate's TSan pass: the full leg above already ran these
  # suites, so this reuses the build dir and adds only the scenario
  # benchmark under TSan (threaded harness replay the unit legs don't
  # exercise through the benchmark driver).
  workload_leg tsan build-ci-tsan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=thread
  # The pipeline/coalescing gate's TSan pass: same build-dir reuse; adds
  # bench_pipeline --smoke under TSan (morsel fan-out through the real
  # benchmark driver).
  pipeline_leg tsan build-ci-tsan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=thread
  # The store gate's sanitizer passes (the full ASan/TSan legs above ran
  # the suites already; these reuse the build dirs and pin the filter so
  # a future split of the full matrix keeps the store gate explicit).
  store_leg asan build-ci-asan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=address
  store_leg tsan build-ci-tsan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=thread
  # The kernel gate's sanitizer passes (build-dir reuse as above; adds
  # bench_exec_filter --smoke under ASan/UBSan through the real driver).
  kernels_leg asan build-ci-asan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=address
  kernels_leg ubsan build-ci-ubsan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=undefined
fi

analyze_leg

finish "CI matrix"
