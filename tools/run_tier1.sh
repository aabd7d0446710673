#!/usr/bin/env bash
# Minimal CI entry point: configure, build, and run the tier-1 suite.
#
# Usage: tools/run_tier1.sh [--tsan|--asan|--ubsan] [extra cmake args...]
#
#   (default)  Release build in build/, full ctest suite, plus three
#              CLI smoke runs: the crossval scenario (the chunk-sim
#              timing backend end to end), the explore-frontier
#              scenario under --explore prune (the design-space
#              exploration layer end to end) — each asserting
#              byte-identical matrix JSON at different thread counts,
#              cached and fresh — a fault-injection smoke that
#              re-runs the golden matrix with injected cache-I/O
#              faults and asserts the JSON is byte-identical to the
#              fault-free cached run (docs/ROBUSTNESS.md), a SIMD
#              smoke that rebuilds the CLI with LIBRA_SIMD=off and
#              asserts the golden matrix JSON is byte-identical to
#              the default build's (docs/PERF.md), and an objective
#              bench smoke asserting BENCH_objective.json emits the
#              tracked speedup metrics.
#   --tsan     ThreadSanitizer build in build-tsan/; runs the threading
#              contract tests (thread pool, parallel determinism, the
#              scenario-matrix engine whose sweeps exercise
#              runLibraSweep, the timing-backend layer, and the
#              explore layer whose prune rounds re-enter the sweep)
#              under TSan.
#   --asan     AddressSanitizer (+UBSan) build in build-asan/; runs the
#              full suite.
#   --ubsan    Standalone UndefinedBehaviorSanitizer build in
#              build-ubsan/; runs the full suite with UB traps fatal,
#              without ASan's memory overhead.
#
# Sanitizer builds use a separate build directory so they never poison
# the Release object cache, and -O1 -g for usable stacks.
#
# CI builds promote the always-on -Wall -Wextra to -Werror
# (LIBRA_WERROR), so new warnings fail tier-1 instead of accumulating.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"

MODE=""
ARGS=()
for arg in "$@"; do
  case "${arg}" in
    --tsan) MODE="tsan" ;;
    --asan) MODE="asan" ;;
    --ubsan) MODE="ubsan" ;;
    *) ARGS+=("${arg}") ;;
  esac
done

BUILD_DIR="build"
CMAKE_EXTRA=(-DLIBRA_WERROR=ON)
CTEST_EXTRA=()
case "${MODE}" in
  tsan)
    BUILD_DIR="build-tsan"
    CMAKE_EXTRA+=(
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
      "-DCMAKE_CXX_FLAGS=-fsanitize=thread -g -O1 -fno-omit-frame-pointer"
      -DLIBRA_BUILD_BENCH=OFF
      -DLIBRA_BUILD_EXAMPLES=OFF
    )
    # The PR 1 threading contract: pool mechanics, bit-identical
    # results at any thread count, the batched matrix sweeps, the
    # timing-backend layer (per-thread chunk-sim memo + crossval fuzz),
    # the fault-tolerance layer (isolated sweeps, injector counters,
    # and line-atomic logging under concurrent cache warnings), the
    # cache-concurrency hammer, the serve subsystem (LRU +
    # single-flight + socket server; docs/SERVE.md), and the shard
    # layer (worker pool, point wire codec; docs/SHARDING.md).
    CTEST_EXTRA+=(-R 'test_thread_pool|test_parallel_determinism|test_study_engine|test_timing_backend|test_sim_crossval|test_explore|test_cache_faults|test_cache_concurrency|test_serve|test_objective_kernels|test_shard|test_point_wire')
    ;;
  asan)
    BUILD_DIR="build-asan"
    CMAKE_EXTRA+=(
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
      "-DCMAKE_CXX_FLAGS=-fsanitize=address,undefined -g -O1 -fno-omit-frame-pointer"
      -DLIBRA_BUILD_BENCH=OFF
      -DLIBRA_BUILD_EXAMPLES=OFF
    )
    ;;
  ubsan)
    BUILD_DIR="build-ubsan"
    CMAKE_EXTRA+=(
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
      "-DCMAKE_CXX_FLAGS=-fsanitize=undefined -fno-sanitize-recover=undefined -g -O1 -fno-omit-frame-pointer"
      -DLIBRA_BUILD_BENCH=OFF
      -DLIBRA_BUILD_EXAMPLES=OFF
    )
    ;;
esac

cmake -B "${BUILD_DIR}" -S . "${CMAKE_EXTRA[@]}" ${ARGS+"${ARGS[@]}"}
cmake --build "${BUILD_DIR}" -j"${JOBS}"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j"${JOBS}" \
  ${CTEST_EXTRA+"${CTEST_EXTRA[@]}"}

if [[ -z "${MODE}" ]]; then
  # Crossval smoke: the chunk-sim backend end to end through the CLI.
  # The matrix JSON must be byte-identical at different thread counts,
  # freshly computed (separate caches) or served from cache (the
  # acceptance contract of the timing-backend layer; docs/BACKENDS.md).
  SMOKE_DIR="$(mktemp -d)"
  trap 'rm -rf "${SMOKE_DIR}"' EXIT
  "${BUILD_DIR}/libra_cli" run-matrix crossval --backend chunk-sim \
    --emit json --cache-dir "${SMOKE_DIR}/cache2" \
    --out "${SMOKE_DIR}/fresh2.json" --threads 2
  "${BUILD_DIR}/libra_cli" run-matrix crossval --backend chunk-sim \
    --emit json --cache-dir "${SMOKE_DIR}/cache4" \
    --out "${SMOKE_DIR}/fresh4.json" --threads 4
  "${BUILD_DIR}/libra_cli" run-matrix crossval --backend chunk-sim \
    --emit json --cache-dir "${SMOKE_DIR}/cache2" \
    --out "${SMOKE_DIR}/cached.json" --threads 4
  cmp "${SMOKE_DIR}/fresh2.json" "${SMOKE_DIR}/fresh4.json"
  cmp "${SMOKE_DIR}/fresh2.json" "${SMOKE_DIR}/cached.json"
  echo "crossval smoke: byte-identical matrix JSON (fresh 2t vs fresh 4t vs cached)"

  # Explore smoke: the design-space layer end to end through the CLI.
  # The prune strategy's screening rounds and promotions must emit
  # byte-identical matrix JSON at different thread counts, freshly
  # computed or served from cache (docs/EXPLORE.md).
  "${BUILD_DIR}/libra_cli" run-matrix explore-frontier --explore prune \
    --emit json --cache-dir "${SMOKE_DIR}/xcache2" \
    --out "${SMOKE_DIR}/xfresh2.json" --threads 2
  "${BUILD_DIR}/libra_cli" run-matrix explore-frontier --explore prune \
    --emit json --cache-dir "${SMOKE_DIR}/xcache4" \
    --out "${SMOKE_DIR}/xfresh4.json" --threads 4
  "${BUILD_DIR}/libra_cli" run-matrix explore-frontier --explore prune \
    --emit json --cache-dir "${SMOKE_DIR}/xcache2" \
    --out "${SMOKE_DIR}/xcached.json" --threads 4
  cmp "${SMOKE_DIR}/xfresh2.json" "${SMOKE_DIR}/xfresh4.json"
  cmp "${SMOKE_DIR}/xfresh2.json" "${SMOKE_DIR}/xcached.json"
  echo "explore smoke: byte-identical matrix JSON (fresh 2t vs fresh 4t vs cached)"

  # Fault-injection smoke: the cache is strictly best-effort, so a
  # golden matrix run with injected cache-I/O faults — fresh, and again
  # over the (partially poisoned) cache it left behind — must emit
  # byte-identical JSON to the fault-free cached run
  # (docs/ROBUSTNESS.md).
  "${BUILD_DIR}/libra_cli" run-matrix golden \
    --emit json --cache-dir "${SMOKE_DIR}/fcache" \
    --out "${SMOKE_DIR}/fclean.json"
  "${BUILD_DIR}/libra_cli" run-matrix golden \
    --faults "cache-load-read=0.25,cache-store-write=0.25,cache-store-rename=0.25,seed=7" \
    --emit json --cache-dir "${SMOKE_DIR}/fcache" \
    --out "${SMOKE_DIR}/ffaulty.json"
  "${BUILD_DIR}/libra_cli" run-matrix golden \
    --faults "cache-load-read=0.25,seed=8" \
    --emit json --cache-dir "${SMOKE_DIR}/fcache" \
    --out "${SMOKE_DIR}/ffaulty2.json"
  cmp "${SMOKE_DIR}/fclean.json" "${SMOKE_DIR}/ffaulty.json"
  cmp "${SMOKE_DIR}/fclean.json" "${SMOKE_DIR}/ffaulty2.json"
  echo "fault smoke: byte-identical matrix JSON under injected cache-I/O faults"

  # Serve smoke: the study service end to end through the CLI
  # (docs/SERVE.md). The one-shot run warms a disk cache; a server
  # over that cache answers the golden-group request twice. Both
  # payloads must be byte-identical to the one-shot emission; the
  # first is disk-served (promoted into the LRU), the second must be
  # served entirely from memory (computed == 0 on its status line,
  # LRU hits visible in the stats op).
  "${BUILD_DIR}/libra_cli" run-matrix golden \
    --emit json --cache-dir "${SMOKE_DIR}/scache" \
    --out "${SMOKE_DIR}/soneshot.json"
  "${BUILD_DIR}/libra_cli" serve --socket "${SMOKE_DIR}/serve.sock" \
    --cache-dir "${SMOKE_DIR}/scache" &
  SERVE_PID=$!
  for _ in $(seq 50); do
    [[ -S "${SMOKE_DIR}/serve.sock" ]] && break
    sleep 0.1
  done
  "${BUILD_DIR}/libra_cli" serve-request --socket "${SMOKE_DIR}/serve.sock" \
    '{"scenario": "golden", "emit": "json"}' \
    > "${SMOKE_DIR}/sfirst.json" 2> "${SMOKE_DIR}/sfirst.status"
  "${BUILD_DIR}/libra_cli" serve-request --socket "${SMOKE_DIR}/serve.sock" \
    '{"scenario": "golden", "emit": "json"}' \
    > "${SMOKE_DIR}/ssecond.json" 2> "${SMOKE_DIR}/ssecond.status"
  # A ~400 KB line nested 200,000 deep stays under the 1 MiB line cap,
  # so it reaches the JSON parser, which must answer it ok:false
  # instead of overflowing the server's stack (docs/SERVE.md). argv
  # cannot carry a line that long, so it goes over the socket directly.
  python3 - "${SMOKE_DIR}/serve.sock" <<'PY'
import socket
import sys

conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
conn.connect(sys.argv[1])
depth = 200000
conn.sendall(b'{"op":' + b"[" * depth + b"]" * depth + b"}\n")
status = conn.makefile("rb").readline()
assert b'"ok":false' in status, status
PY
  "${BUILD_DIR}/libra_cli" serve-request --socket "${SMOKE_DIR}/serve.sock" \
    '{"scenario": "golden", "emit": "json"}' \
    > "${SMOKE_DIR}/sthird.json" 2> /dev/null
  "${BUILD_DIR}/libra_cli" serve-request --socket "${SMOKE_DIR}/serve.sock" \
    '{"op": "stats"}' > "${SMOKE_DIR}/sstats.json" 2> /dev/null
  "${BUILD_DIR}/libra_cli" serve-request --socket "${SMOKE_DIR}/serve.sock" \
    '{"op": "shutdown"}' > /dev/null 2>&1
  wait "${SERVE_PID}"
  cmp "${SMOKE_DIR}/soneshot.json" "${SMOKE_DIR}/sfirst.json"
  cmp "${SMOKE_DIR}/soneshot.json" "${SMOKE_DIR}/ssecond.json"
  cmp "${SMOKE_DIR}/soneshot.json" "${SMOKE_DIR}/sthird.json"
  grep -q '"computed":0,' "${SMOKE_DIR}/ssecond.status"
  grep -Eq '"lruHits": [1-9]' "${SMOKE_DIR}/sstats.json"
  echo "serve smoke: byte-identical golden payloads (one-shot vs disk-served vs LRU-served, and after a nested-bomb request)"

  # Sharded smoke: run-matrix --workers forks worker processes and
  # merges their results through the cache; the matrix JSON must be
  # byte-identical to the single-process run, fresh and cached
  # (docs/SHARDING.md).
  "${BUILD_DIR}/libra_cli" run-matrix explore-frontier \
    --emit json --out "${SMOKE_DIR}/shsingle.json"
  "${BUILD_DIR}/libra_cli" run-matrix explore-frontier --workers 2 \
    --emit json --cache-dir "${SMOKE_DIR}/shcache" \
    --out "${SMOKE_DIR}/shfresh.json"
  "${BUILD_DIR}/libra_cli" run-matrix explore-frontier --workers 2 \
    --emit json --cache-dir "${SMOKE_DIR}/shcache" \
    --out "${SMOKE_DIR}/shcached.json"
  cmp "${SMOKE_DIR}/shsingle.json" "${SMOKE_DIR}/shfresh.json"
  cmp "${SMOKE_DIR}/shsingle.json" "${SMOKE_DIR}/shcached.json"
  echo "shard smoke: byte-identical matrix JSON (single-process vs --workers 2, fresh and cached)"

  # Checkpoint-resume smoke: SIGKILL a checkpointed sharded run once
  # its manifest shows progress, then resume — the completed output
  # must be byte-identical and every recorded slot must be served from
  # the cache, not recomputed (docs/SHARDING.md).
  "${BUILD_DIR}/libra_cli" run-matrix explore-frontier --workers 2 \
    --cache-dir "${SMOKE_DIR}/ckcache" \
    --checkpoint "${SMOKE_DIR}/ckmanifest" \
    --emit json --out "${SMOKE_DIR}/ckkilled.json" 2>/dev/null &
  CKPT_PID=$!
  for _ in $(seq 3000); do
    LINES="$(wc -l < "${SMOKE_DIR}/ckmanifest" 2>/dev/null || echo 0)"
    [[ "${LINES}" -ge 9 ]] && break
    kill -0 "${CKPT_PID}" 2>/dev/null || break
    sleep 0.01
  done
  kill -9 "${CKPT_PID}" 2>/dev/null || true
  wait "${CKPT_PID}" 2>/dev/null || true
  RECORDED="$(($(wc -l < "${SMOKE_DIR}/ckmanifest") - 1))"
  [[ "${RECORDED}" -ge 1 ]]
  "${BUILD_DIR}/libra_cli" run-matrix explore-frontier --workers 2 \
    --cache-dir "${SMOKE_DIR}/ckcache" \
    --checkpoint "${SMOKE_DIR}/ckmanifest" \
    --emit json --out "${SMOKE_DIR}/ckresumed.json" \
    2> "${SMOKE_DIR}/ckresumed.status"
  cmp "${SMOKE_DIR}/shsingle.json" "${SMOKE_DIR}/ckresumed.json"
  grep -q "checkpoint: resuming" "${SMOKE_DIR}/ckresumed.status"
  # Store-before-append: the cache may hold at most a slot more than
  # the manifest when the kill landed between the two, so the resume
  # serves at least every recorded slot from the cache.
  FROMCACHE="$(sed -nE 's/.*unique, ([0-9]+) from cache.*/\1/p' \
    "${SMOKE_DIR}/ckresumed.status")"
  [[ "${FROMCACHE}" -ge "${RECORDED}" ]]
  echo "checkpoint smoke: killed run (${RECORDED} slots recorded) resumed byte-identically without recompute"

  # Sharded-prune smoke: adaptive exploration rounds cross the wire as
  # eval frames on the warm worker pool; the matrix JSON must still be
  # byte-identical to the single-process prune run, fresh and cached
  # (docs/SHARDING.md, docs/EXPLORE.md).
  "${BUILD_DIR}/libra_cli" run-matrix explore-frontier --explore prune \
    --emit json --out "${SMOKE_DIR}/spsingle.json"
  "${BUILD_DIR}/libra_cli" run-matrix explore-frontier --explore prune \
    --workers 2 --emit json --cache-dir "${SMOKE_DIR}/spcache" \
    --out "${SMOKE_DIR}/spfresh.json"
  "${BUILD_DIR}/libra_cli" run-matrix explore-frontier --explore prune \
    --workers 2 --emit json --cache-dir "${SMOKE_DIR}/spcache" \
    --out "${SMOKE_DIR}/spcached.json"
  cmp "${SMOKE_DIR}/spsingle.json" "${SMOKE_DIR}/spfresh.json"
  cmp "${SMOKE_DIR}/spsingle.json" "${SMOKE_DIR}/spcached.json"
  echo "sharded-prune smoke: byte-identical matrix JSON (single-process vs --workers 2 adaptive prune, fresh and cached)"

  # SIMD smoke: the batched candidate-major kernels promise results
  # bit-identical to the scalar fallback (docs/PERF.md), so a golden
  # matrix run from a LIBRA_SIMD=off build must emit byte-identical
  # JSON to the default (auto) build — fresh at 1 thread, then served
  # from each build's own cache at 8 threads.
  cmake -B build-simd-off -S . -DLIBRA_WERROR=ON -DLIBRA_SIMD=off \
    -DLIBRA_BUILD_TESTS=OFF -DLIBRA_BUILD_BENCH=OFF \
    -DLIBRA_BUILD_EXAMPLES=OFF
  cmake --build build-simd-off -j"${JOBS}" --target libra_cli
  for t in 1 8; do
    "${BUILD_DIR}/libra_cli" run-matrix golden --emit json \
      --cache-dir "${SMOKE_DIR}/simd-auto-cache" \
      --out "${SMOKE_DIR}/simd-auto-${t}t.json" --threads "${t}"
    build-simd-off/libra_cli run-matrix golden --emit json \
      --cache-dir "${SMOKE_DIR}/simd-off-cache" \
      --out "${SMOKE_DIR}/simd-off-${t}t.json" --threads "${t}"
    cmp "${SMOKE_DIR}/simd-auto-${t}t.json" \
      "${SMOKE_DIR}/simd-off-${t}t.json"
  done
  cmp "${SMOKE_DIR}/simd-auto-1t.json" "${SMOKE_DIR}/simd-auto-8t.json"
  echo "simd smoke: byte-identical matrix JSON (LIBRA_SIMD=off vs auto, fresh 1t vs cached 8t)"

  # Objective-throughput smoke: the bench must run and emit parseable
  # metrics with the scalar-SoA and gradient-batch speedups the perf
  # docs track.
  BENCH_BIN="$(pwd)/${BUILD_DIR}/micro_objective_eval"
  (cd "${SMOKE_DIR}" && "${BENCH_BIN}")
  grep -q '"soa_speedup_vs_nested":' "${SMOKE_DIR}/BENCH_objective.json"
  grep -q '"gradient_batch_speedup_vs_soa":' "${SMOKE_DIR}/BENCH_objective.json"
  echo "objective bench smoke: BENCH_objective.json emitted with speedup metrics"
fi
