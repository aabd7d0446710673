#!/usr/bin/env bash
# Minimal CI entry point: configure, build, and run the tier-1 suite.
#
# Usage: tools/run_tier1.sh [--tsan|--asan|--ubsan] [extra cmake args...]
#
#   (default)  Release build in build/, full ctest suite (the gtest
#              binaries, plus every example_*, fig01/fig19/fig20 and
#              ablation_* binary, each of which must exit 0), then
#              these smoke runs, in order (docs in parentheses):
#               1. crossval: `run-matrix crossval` under the chunk-sim
#                  and themis backends; JSON byte-identical fresh at 2
#                  and 4 threads and cached (BACKENDS.md).
#               2. solver: cold fig13/14/17/18 JSON under the default
#                  chain, byte-identical at 1 and 4 threads; and four
#                  example-study edits that take the projection's
#                  general route (a duplicated budget row, an equality
#                  chain B1 = B2 = B3 = B4, the binding ordering
#                  B1 >= B2 + 499, DOLLAR_CAP 1.5e7), each with stdout
#                  byte-identical at THREADS 1 and THREADS 4
#                  (SOLVERS.md).
#               3. warm-all: a 1-thread `run-matrix all` over the cache
#                  a 4-thread run filled is byte-identical and serves
#                  all 366 points from that cache, whose entries total
#                  under 256 KB; its CSV equals a fresh uncached
#                  4-thread CSV (PERF.md).
#               4. hostile-number: nan/inf and out-of-range numbers in
#                  a study file (a 1e308 price, a negative weight or
#                  price, a DOLLAR_CAP of 0 or -1, STARTS -3 or 1e30),
#                  a second TOTAL_BW value, out-of-range CONSTRAINT
#                  tokens and NETWORK sizes,
#                  depths and NPU counts, and out-of-range WORKLOAD_FILE
#                  numbers end the CLI with exit 1 and a named error,
#                  never a signal (ROBUSTNESS.md).
#               5. explore: `explore-frontier --explore prune`,
#                  byte-identical fresh at 2 and 4 threads and cached
#                  (EXPLORE.md).
#               6. fault: the golden matrix under injected cache-I/O
#                  faults is byte-identical to the fault-free cached
#                  run, and so is a run over entries forged to drop a
#                  bandwidth under a valid checksum, which quarantines
#                  every one of them (ROBUSTNESS.md).
#               7. serve: a `serve` process answers the golden group
#                  disk-served, LRU-served and after a nested-JSON bomb
#                  and refused `workers` and `solver` requests, each
#                  byte-identical to the one-shot run; stats report
#                  schema v3 (SERVE.md).
#               8. shard: `--workers 2` explore-frontier JSON equals the
#                  single-process run, fresh and cached (SHARDING.md).
#               9. resume: an in-process `run-matrix` SIGKILLed once
#                  its cache holds 8 entries resumes byte-identically
#                  from that cache, serving every entry it stored and
#                  leaving no tmp file (ROBUSTNESS.md).
#              10. sharded-prune: adaptive prune rounds on 2 workers
#                  equal the single-process prune run, fresh and
#                  cached (SHARDING.md, EXPLORE.md).
#              11. simd: a LIBRA_SIMD=off build (build-simd-off/) and,
#                  on hosts whose CPU lists avx2, a LIBRA_SIMD=avx2
#                  build (build-simd-avx2/) emit the default build's
#                  golden JSON, fresh at 1 thread and cached at 8
#                  (PERF.md).
#              12. perfbench: perfbench/ builds in build-perfbench/ and
#                  its self-test passes.
#   --tsan     ThreadSanitizer build in build-tsan/; runs the threading
#              contract tests (thread pool, parallel determinism, the
#              scenario-matrix engine whose sweeps exercise
#              runLibraSweep, the timing-backend layer, the
#              explore layer whose prune rounds re-enter the sweep,
#              the QP/solver tests, the estimator and training
#              simulator, whose per-call timing tables and timeline
#              memos live on each call's stack, and the workload IR,
#              whose copies share one layer array across pool threads)
#              under TSan.
#   --asan     AddressSanitizer (+UBSan) build in build-asan/; runs the
#              full suite, examples and figure binaries included.
#   --ubsan    Standalone UndefinedBehaviorSanitizer build in
#              build-ubsan/; runs the full suite with UB traps fatal,
#              without ASan's memory overhead.
#
# Every mode first runs the number-grammar gate: no std::sto*, strto*
# or ato* call in src/ or tools/, because every number goes through
# parseNumber (src/common/parse_number.hh, ROBUSTNESS.md).
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

if grep -rnE '\b(std::)?(sto(i|l|ul|ll|ull|f|d|ld)|strto[a-z]+|ato(i|l|ll|f))[[:space:]]*\(' \
    --include='*.cc' --include='*.hh' src tools; then
  echo "number-grammar gate: parse numbers with parseNumber (src/common/parse_number.hh)" >&2
  exit 1
fi

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
    # timing-backend layer (per-call chunk-sim dedup + crossval fuzz),
    # the fault-tolerance layer (isolated sweeps, injector counters,
    # and line-atomic logging under concurrent cache warnings), the
    # cache-concurrency hammer, the serve subsystem (LRU + socket
    # server; docs/SERVE.md), and the shard
    # layer (worker pool, point wire codec; docs/SHARDING.md), and the
    # solver layer whose projections and polls run on pool threads,
    # each with its own per-call workspace, and the estimator and
    # training simulator, whose per-call timing tables and timeline
    # memos must stay per call, and the workload IR, whose copies share
    # one immutable layer array across threads.
    CTEST_EXTRA+=(-R 'test_thread_pool|test_parallel_determinism|test_study_engine|test_timing_backend|test_sim_crossval|test_explore|test_cache_faults|test_cache_concurrency|test_serve|test_objective_kernels|test_shard|test_point_wire|test_qp|test_solvers|test_estimator|test_training_sim|test_workload')
    ;;
  asan)
    BUILD_DIR="build-asan"
    CMAKE_EXTRA+=(
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
      "-DCMAKE_CXX_FLAGS=-fsanitize=address,undefined -g -O1 -fno-omit-frame-pointer"
    )
    ;;
  ubsan)
    BUILD_DIR="build-ubsan"
    CMAKE_EXTRA+=(
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
      "-DCMAKE_CXX_FLAGS=-fsanitize=undefined -fno-sanitize-recover=undefined -g -O1 -fno-omit-frame-pointer"
    )
    ;;
esac

cmake -B "${BUILD_DIR}" -S . "${CMAKE_EXTRA[@]}" ${ARGS+"${ARGS[@]}"}
cmake --build "${BUILD_DIR}" -j"${JOBS}"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j"${JOBS}" \
  ${CTEST_EXTRA+"${CTEST_EXTRA[@]}"}

if [[ -z "${MODE}" ]]; then
  # Crossval smoke: the chunk-sim and themis backends end to end
  # through the CLI. Per backend, the matrix JSON must be
  # byte-identical at different thread counts, freshly computed
  # (separate caches) or served from cache (the acceptance contract of
  # the timing-backend layer; docs/BACKENDS.md).
  SMOKE_DIR="$(mktemp -d)"
  trap 'rm -rf "${SMOKE_DIR}"' EXIT
  for backend in chunk-sim themis; do
    "${BUILD_DIR}/libra_cli" run-matrix crossval --backend "${backend}" \
      --emit json --cache-dir "${SMOKE_DIR}/${backend}-cache2" \
      --out "${SMOKE_DIR}/${backend}-fresh2.json" --threads 2
    "${BUILD_DIR}/libra_cli" run-matrix crossval --backend "${backend}" \
      --emit json --cache-dir "${SMOKE_DIR}/${backend}-cache4" \
      --out "${SMOKE_DIR}/${backend}-fresh4.json" --threads 4
    "${BUILD_DIR}/libra_cli" run-matrix crossval --backend "${backend}" \
      --emit json --cache-dir "${SMOKE_DIR}/${backend}-cache2" \
      --out "${SMOKE_DIR}/${backend}-cached.json" --threads 4
    cmp "${SMOKE_DIR}/${backend}-fresh2.json" \
      "${SMOKE_DIR}/${backend}-fresh4.json"
    cmp "${SMOKE_DIR}/${backend}-fresh2.json" \
      "${SMOKE_DIR}/${backend}-cached.json"
    echo "crossval smoke (${backend}): byte-identical matrix JSON (fresh 2t vs fresh 4t vs cached)"
  done

  # Solver smoke: the default subgradient/pattern-search/Nelder-Mead
  # chain under the analytical backend, where pattern search scores its
  # polls in speculative batches and every projection runs in a per-call
  # workspace. Cold runs at 1 and 4 threads over separate caches must
  # emit byte-identical matrix JSON (docs/SOLVERS.md, docs/PERF.md).
  "${BUILD_DIR}/libra_cli" run-matrix fig13 fig14 fig17 fig18 \
    --emit json --cache-dir "${SMOKE_DIR}/ocache1" \
    --out "${SMOKE_DIR}/ofresh1.json" --threads 1
  "${BUILD_DIR}/libra_cli" run-matrix fig13 fig14 fig17 fig18 \
    --emit json --cache-dir "${SMOKE_DIR}/ocache4" \
    --out "${SMOKE_DIR}/ofresh4.json" --threads 4
  cmp "${SMOKE_DIR}/ofresh1.json" "${SMOKE_DIR}/ofresh4.json"
  # The same chain through the projection's general route, where the
  # active set runs: edits of the example study add a duplicated budget
  # row (a singular KKT system), an equality chain, a binding ordering
  # and a dollar cap (the budget becomes a Le row). Each study's stdout
  # must be byte-identical at THREADS 1 and THREADS 4.
  "${BUILD_DIR}/libra_cli" --example > "${SMOKE_DIR}/solver.study"
  for edit in 's/^CONSTRAINT B4 <= 50$/CONSTRAINT B1 + B2 + B3 + B4 = 500/' \
      's/^CONSTRAINT B4 <= 50$/CONSTRAINT B1 = B2 = B3 = B4/' \
      's/^CONSTRAINT B4 <= 50$/CONSTRAINT B1 >= B2 + 499/' \
      's/^# DOLLAR_CAP 1.5e7$/DOLLAR_CAP 1.5e7/'; do
    sed "${edit}" "${SMOKE_DIR}/solver.study" > "${SMOKE_DIR}/edited.study"
    if cmp -s "${SMOKE_DIR}/solver.study" "${SMOKE_DIR}/edited.study"; then
      echo "solver smoke: '${edit}' no longer edits the example study" >&2
      exit 1
    fi
    for threads in 1 4; do
      { cat "${SMOKE_DIR}/edited.study"; echo "THREADS ${threads}"; } \
        > "${SMOKE_DIR}/edited${threads}.study"
      "${BUILD_DIR}/libra_cli" "${SMOKE_DIR}/edited${threads}.study" \
        > "${SMOKE_DIR}/edited${threads}.out"
    done
    cmp "${SMOKE_DIR}/edited1.out" "${SMOKE_DIR}/edited4.out"
  done
  echo "solver smoke: byte-identical matrix JSON (fresh 1t vs fresh 4t) and study output (THREADS 1 vs 4) with a duplicated budget row, an equality chain, a binding ordering and a dollar cap"

  # Warm-all smoke: the warm read path (run-length workload keys, one
  # key hash per slot; docs/PERF.md). A cold 4-thread `all` fills a
  # cache and a 1-thread rerun over it must emit byte-identical JSON.
  # Bytes alone cannot catch a drifted cache key, because a miss
  # recomputes the same bytes; the rerun's status line must also show
  # every point served from the cache. Each entry stores its key, so
  # the filled cache's size pins the key footprint end to end: under
  # 256 KB (about 173 KB with layers keyed as runs, 3.57 MB without).
  "${BUILD_DIR}/libra_cli" run-matrix all --emit json --threads 4 \
    --cache-dir "${SMOKE_DIR}/wcache" --out "${SMOKE_DIR}/wcold.json"
  "${BUILD_DIR}/libra_cli" run-matrix all --emit json --threads 1 \
    --cache-dir "${SMOKE_DIR}/wcache" --out "${SMOKE_DIR}/wwarm.json" \
    2> "${SMOKE_DIR}/wwarm.status"
  cmp "${SMOKE_DIR}/wcold.json" "${SMOKE_DIR}/wwarm.json"
  grep -q "366 from cache, 0 computed" "${SMOKE_DIR}/wwarm.status"
  WCACHE_BYTES="$(cat "${SMOKE_DIR}"/wcache/*.json | wc -c)"
  if [[ "${WCACHE_BYTES}" -ge 262144 ]]; then
    echo "warm-all smoke: the filled cache holds ${WCACHE_BYTES} entry bytes, want < 262144" >&2
    exit 1
  fi
  # Formatters read each point's workloads from the points they are
  # handed (reloaded reports, built inputs), so the CSV rows, which
  # carry the workload labels, must match a run that never touched the
  # cache too.
  "${BUILD_DIR}/libra_cli" run-matrix all --emit csv --threads 4 \
    --out "${SMOKE_DIR}/wfresh.csv"
  "${BUILD_DIR}/libra_cli" run-matrix all --emit csv --threads 1 \
    --cache-dir "${SMOKE_DIR}/wcache" --out "${SMOKE_DIR}/wwarm.csv"
  cmp "${SMOKE_DIR}/wfresh.csv" "${SMOKE_DIR}/wwarm.csv"
  echo "warm-all smoke: byte-identical matrix JSON (fresh 4t vs cached 1t) and CSV (uncached 4t vs cached 1t), 366 from cache, 0 computed, ${WCACHE_BYTES} entry bytes"

  # Hostile-number smoke: nan and inf in a study file are user errors,
  # and so is every number outside its field's range: a 1e308 or
  # negative price, a negative weight, a DOLLAR_CAP of 0 or -1, STARTS
  # -3 or 1e30, a second TOTAL_BW value (it used to be dropped
  # silently), a constraint index or number, a NETWORK group size,
  # hierarchy depth or NPU count, and a WORKLOAD_FILE size, compute
  # time or parallelization size (a 1e18-byte collective used to
  # overflow chunk-sim's ticks with exit 0). Each edit of the example
  # study (the cost edits also switch to the PERF_PER_COST objective
  # its COST line feeds) must end the CLI with exit 1 and its ERRORS
  # entry, never a signal (docs/ROBUSTNESS.md).
  "${BUILD_DIR}/libra_cli" --example > "${SMOKE_DIR}/example.study"
  WL_OK="WORKLOAD hostile
STRATEGY TP 4 PP 1 DP 1024
LAYER only
  FWD_COMPUTE 0.01
  FWD_COMM ALLREDUCE TP 1e8
END"
  sed 's/TP 1e8/TP inf/' <<< "${WL_OK}" > "${SMOKE_DIR}/inf-size.wl"
  sed 's/FWD_COMPUTE 0.01/FWD_COMPUTE -1/' <<< "${WL_OK}" \
    > "${SMOKE_DIR}/negative-compute.wl"
  sed 's/FWD_COMPUTE 0.01/FWD_COMPUTE 1e308/' <<< "${WL_OK}" \
    > "${SMOKE_DIR}/huge-compute.wl"
  sed 's/TP 1e8/TP 1e18/' <<< "${WL_OK}" > "${SMOKE_DIR}/1e18-size.wl"
  sed 's/TP 1e8/TP 1e308/' <<< "${WL_OK}" > "${SMOKE_DIR}/1e308-size.wl"
  sed 's/TP 4 /TP 16.5 /' <<< "${WL_OK}" > "${SMOKE_DIR}/fractional-tp.wl"
  sed 's/TP 4 /TP 1e30 /' <<< "${WL_OK}" > "${SMOKE_DIR}/huge-tp.wl"
  PER_COST='s/^OBJECTIVE PERF /OBJECTIVE PERF_PER_COST /'
  CAPPED='s/^# DOLLAR_CAP/DOLLAR_CAP/'
  WL_FILE='s|^# WORKLOAD_FILE my_profiled_model.wl|WORKLOAD_FILE '"${SMOKE_DIR}"'/'
  NONFINITE="study line [0-9]+: bad .* '(nan|inf)'"
  HUGE_COST="fatal: study line 13: bad cost value '1e308'"
  CHUNK_SIM='s/^# BACKEND chunk-sim/BACKEND chunk-sim/'
  EDITS=(
    's/^TOTAL_BW 500$/TOTAL_BW nan/'
    's/^TOTAL_BW 500$/TOTAL_BW inf/'
    's/^WORKLOAD gpt3$/WORKLOAD gpt3 WEIGHT nan/'
    "${PER_COST};s/^# COST Pod LINK 7.8 /COST Pod LINK nan /"
    "${PER_COST};s/^# COST Pod LINK 7.8 /COST Pod LINK 1e308 /;${CAPPED}"
    "${PER_COST};s/^# COST Pod LINK 7.8 SWITCH 18.0 /COST Pod LINK 7.8 SWITCH 1e308 /;${CAPPED}"
    "${PER_COST};s/^# COST Pod LINK 7.8 SWITCH 18.0 NIC 31.6/COST Pod LINK 7.8 SWITCH 18.0 NIC 1e308/;${CAPPED}"
    's/^CONSTRAINT B4 <= 50$/CONSTRAINT B99999999999999999999999 <= 50/'
    's/^CONSTRAINT B4 <= 50$/CONSTRAINT B3 <= 1e-320/'
    's/^NETWORK .*/NETWORK RI(99999999999999999999999)_FC(8)/'
    's/^NETWORK .*/NETWORK RI(4294967297)_FC(8)/'
    's/^NETWORK .*/NETWORK RI(4:99999999999)_FC(8)/'
    's/^NETWORK .*/NETWORK SW(65536)_SW(65536)_SW(65536)_SW(65536)/'
    "${WL_FILE}inf-size.wl|"
    "${WL_FILE}negative-compute.wl|"
    's/^WORKLOAD gpt3$/WORKLOAD gpt3 WEIGHT -1/'
    "${PER_COST};s/^# COST Pod LINK 7.8 /COST Pod LINK -7 /"
    's/^# DOLLAR_CAP 1.5e7$/DOLLAR_CAP 0/'
    's/^# DOLLAR_CAP 1.5e7$/DOLLAR_CAP -1/'
    's/^NORMALIZE_WEIGHTS$/NORMALIZE_WEIGHTS\nSTARTS -3/'
    's/^NORMALIZE_WEIGHTS$/NORMALIZE_WEIGHTS\nSTARTS 1e30/'
    "${WL_FILE}fractional-tp.wl|"
    "${WL_FILE}huge-tp.wl|"
    "${WL_FILE}huge-compute.wl|"
    "${WL_FILE}1e18-size.wl|;${CHUNK_SIM}"
    "${WL_FILE}1e308-size.wl|"
    's/^TOTAL_BW 500$/TOTAL_BW 500 900/'
  )
  ERRORS=("${NONFINITE}" "${NONFINITE}" "${NONFINITE}" "${NONFINITE}"
          "${HUGE_COST}" "${HUGE_COST}" "${HUGE_COST}"
          "constraint ' B99999999999999999999999 <= 50': B99999999999999999999999 out of range"
          "constraint ' B3 <= 1e-320': bad number '1e-320'"
          "network 'RI\\(99999999999999999999999\\)_FC\\(8\\)': group size 99999999999999999999999 is not in \\[2, 1073741824\\]"
          "network 'RI\\(4294967297\\)_FC\\(8\\)': group size 4294967297 is not in \\[2, 1073741824\\]"
          "network 'RI\\(4:99999999999\\)_FC\\(8\\)': hierarchy depth 99999999999 is not in \\[1, 64\\]"
          "network 'SW\\(65536\\)_SW\\(65536\\)_SW\\(65536\\)_SW\\(65536\\)': more than 1073741824 NPUs"
          "workload line 5: bad collective size 'inf'"
          "workload line 4: bad compute time '-1'"
          "study line 7: bad weight '-1'"
          "study line 13: bad cost value '-7'"
          "study line 14: bad dollar cap '0'"
          "study line 14: bad dollar cap '-1'"
          "study line 10: bad start count '-3'"
          "study line 10: bad start count '1e30'"
          "workload line 2: bad strategy size '16.5'"
          "workload line 2: bad strategy size '1e30'"
          "workload line 4: bad compute time '1e308'"
          "workload line 5: bad collective size '1e18'"
          "workload line 5: bad collective size '1e308'"
          "study line 3: unexpected '900'")
  for i in "${!EDITS[@]}"; do
    edit="${EDITS[${i}]}"
    sed "${edit}" "${SMOKE_DIR}/example.study" > "${SMOKE_DIR}/hostile.study"
    if cmp -s "${SMOKE_DIR}/example.study" "${SMOKE_DIR}/hostile.study"; then
      echo "hostile-number smoke: '${edit}' no longer edits the example study" >&2
      exit 1
    fi
    STATUS=0
    "${BUILD_DIR}/libra_cli" "${SMOKE_DIR}/hostile.study" > /dev/null \
      2> "${SMOKE_DIR}/hostile.err" || STATUS=$?
    if [[ "${STATUS}" -ne 1 ]]; then
      echo "hostile-number smoke: '${edit}' exited ${STATUS}, want 1" >&2
      exit 1
    fi
    if ! grep -Eq "${ERRORS[${i}]}" "${SMOKE_DIR}/hostile.err"; then
      echo "hostile-number smoke: '${edit}' did not report '${ERRORS[${i}]}'" >&2
      exit 1
    fi
  done
  echo "hostile-number smoke: non-finite, out-of-range and surplus study numbers and out-of-range constraint, NETWORK and WORKLOAD_FILE numbers exit 1 with a named error"

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
  # Forged entries: drop the last optimized bandwidth of every entry and
  # re-sign its body (FNV-1a 64), so each one passes the checksum but
  # no longer fits its point. The run quarantines and recomputes them.
  python3 - "${SMOKE_DIR}/fcache" <<'PY'
import glob, json, sys

HEAD, MID, TAIL = b'{"fnv":"', b'","body":', b'}\n'
for path in glob.glob(sys.argv[1] + "/*.json"):
    text = open(path, "rb").read()
    body = json.loads(text[len(HEAD) + 16 + len(MID):-len(TAIL)])
    body["report"]["optimized"]["bw"].pop()
    data = json.dumps(body, separators=(",", ":")).encode()
    fnv = 0xcbf29ce484222325
    for byte in data:
        fnv = ((fnv ^ byte) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    with open(path, "wb") as out:
        out.write(HEAD + b"%016x" % fnv + MID + data + TAIL)
PY
  forged="$(find "${SMOKE_DIR}/fcache" -name '*.json' | wc -l)"
  "${BUILD_DIR}/libra_cli" run-matrix golden \
    --emit json --cache-dir "${SMOKE_DIR}/fcache" \
    --out "${SMOKE_DIR}/fforged.json"
  cmp "${SMOKE_DIR}/fclean.json" "${SMOKE_DIR}/fforged.json"
  quarantined="$(find "${SMOKE_DIR}/fcache" -name '*.corrupt' | wc -l)"
  if [[ "${forged}" -eq 0 || "${quarantined}" -ne "${forged}" ]]; then
    echo "fault smoke: ${quarantined} of ${forged} forged entries quarantined" >&2
    exit 1
  fi
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
  echo "fault smoke: byte-identical matrix JSON under injected cache-I/O faults and forged entries"

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
  # Serve never shards and the search chain is fixed: a request
  # carrying "workers" or "solver" is answered ok:false (unknown
  # request field), and the third request's cmp below proves the
  # server serves on.
  for field in '"workers": 2' '"solver": "nelder-mead"'; do
    if "${BUILD_DIR}/libra_cli" serve-request \
        --socket "${SMOKE_DIR}/serve.sock" \
        "{\"scenario\": \"golden\", ${field}}" \
        > /dev/null 2> "${SMOKE_DIR}/sfield.status"; then
      echo "serve smoke: a request with ${field} was served" >&2
      exit 1
    fi
    grep -q '"ok":false,"error":"unknown request field' \
      "${SMOKE_DIR}/sfield.status"
  done
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
  grep -q 'libra-serve-stats-v3' "${SMOKE_DIR}/sstats.json"
  echo "serve smoke: byte-identical golden payloads (one-shot vs disk-served vs LRU-served, and after a nested-bomb and workers- and solver-field requests)"

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

  # Resume smoke: every slot reaches the cache as it completes, so a
  # plain in-process run SIGKILLed mid-sweep resumes from its cache
  # alone — the rerun must be byte-identical, serve every entry the
  # killed run stored, and reap its stray tmp file (docs/ROBUSTNESS.md).
  "${BUILD_DIR}/libra_cli" run-matrix explore-frontier \
    --cache-dir "${SMOKE_DIR}/rscache" \
    --emit json --out "${SMOKE_DIR}/rskilled.json" 2>/dev/null &
  RESUME_PID=$!
  cache_entries() {
    find "${SMOKE_DIR}/rscache" -name '*.json' 2>/dev/null | wc -l
  }
  for _ in $(seq 3000); do
    [[ "$(cache_entries)" -ge 8 ]] && break
    kill -0 "${RESUME_PID}" 2>/dev/null || break
    sleep 0.01
  done
  kill -9 "${RESUME_PID}" 2>/dev/null || true
  wait "${RESUME_PID}" 2>/dev/null || true
  STORED="$(cache_entries)"
  [[ "${STORED}" -ge 8 ]]
  "${BUILD_DIR}/libra_cli" run-matrix explore-frontier \
    --cache-dir "${SMOKE_DIR}/rscache" \
    --emit json --out "${SMOKE_DIR}/rsresumed.json" \
    2> "${SMOKE_DIR}/rsresumed.status"
  cmp "${SMOKE_DIR}/shsingle.json" "${SMOKE_DIR}/rsresumed.json"
  FROMCACHE="$(sed -nE 's/.*unique, ([0-9]+) from cache.*/\1/p' \
    "${SMOKE_DIR}/rsresumed.status")"
  [[ "${FROMCACHE}" -ge "${STORED}" ]]
  if find "${SMOKE_DIR}/rscache" -name '*.tmp.*' | grep -q .; then
    echo "resume smoke: a tmp file outlived the resumed run" >&2
    exit 1
  fi
  echo "resume smoke: killed run (${STORED} cache entries) resumed byte-identically from the cache"

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
  # from each build's own cache at 8 threads. On an AVX-512 host the
  # auto build never dispatches to the AVX2 kernel, so a
  # LIBRA_SIMD=avx2 build runs it end to end whenever the CPU has AVX2
  # (test_objective_kernels checks it in-process in every build).
  SIMD_BUILDS=(off)
  if grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
    SIMD_BUILDS+=(avx2)
  fi
  for simd in "${SIMD_BUILDS[@]}"; do
    cmake -B "build-simd-${simd}" -S . -DLIBRA_WERROR=ON \
      -DLIBRA_SIMD="${simd}" -DLIBRA_BUILD_TESTS=OFF \
      -DLIBRA_BUILD_BENCH=OFF -DLIBRA_BUILD_EXAMPLES=OFF
    cmake --build "build-simd-${simd}" -j"${JOBS}" --target libra_cli
  done
  for t in 1 8; do
    "${BUILD_DIR}/libra_cli" run-matrix golden --emit json \
      --cache-dir "${SMOKE_DIR}/simd-auto-cache" \
      --out "${SMOKE_DIR}/simd-auto-${t}t.json" --threads "${t}"
    for simd in "${SIMD_BUILDS[@]}"; do
      "build-simd-${simd}/libra_cli" run-matrix golden --emit json \
        --cache-dir "${SMOKE_DIR}/simd-${simd}-cache" \
        --out "${SMOKE_DIR}/simd-${simd}-${t}t.json" --threads "${t}"
      cmp "${SMOKE_DIR}/simd-auto-${t}t.json" \
        "${SMOKE_DIR}/simd-${simd}-${t}t.json"
    done
  done
  cmp "${SMOKE_DIR}/simd-auto-1t.json" "${SMOKE_DIR}/simd-auto-8t.json"
  echo "simd smoke: byte-identical matrix JSON (LIBRA_SIMD=${SIMD_BUILDS[*]} vs auto, fresh 1t vs cached 8t)"

  # Benchmark-build smoke: perfbench/ compiles against the library's
  # public API, so a src/ change that breaks it must fail here, not
  # first in a benchmark run. Its own build dir, its own generator
  # self-test.
  cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release
  cmake --build build-perfbench -j"${JOBS}" \
    --target perfbench perfbench_selftest
  build-perfbench/perfbench_selftest
  echo "perfbench smoke: benchmark package builds and its self-test passes"
fi
