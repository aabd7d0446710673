/**
 * @file
 * Multi-process sharded execution of the scenario matrix
 * (docs/SHARDING.md).
 *
 * One process caps the reachable design-space size; `run-matrix
 * --workers N` forks N worker processes (`libra_cli worker`, a hidden
 * subcommand) and ships deterministic index-ordered batches of work to
 * them over the serve layer's newline-JSON framing
 * (src/serve/framing.hh) on a socketpair.
 *
 * Work crosses the wire in one form: **eval frames** of serialized
 * design points. Each point travels as its studyConfigToString text (a
 * WirePoint) tagged with the hash of its canonical study key; the
 * worker reparses the text and verifies the hash, so a version-skewed
 * worker is rejected point by point before any result can be merged.
 * The handshake itself only checks that both sides run the same engine
 * version (kStudyCacheVersion). Points without a study-file form
 * (non-zoo workloads) cannot ship and stay in the master.
 *
 * Results return inline as bit-exact report JSON
 * (reportToJson/reportFromJson) and the master merges them by index
 * and stores them through the content-addressed ResultCache — which is
 * why emitted matrix JSON is cmp-equal to a single-process run at any
 * worker count, fresh or cached.
 *
 * The pool is warm: `run-matrix` forks and handshakes once, then
 * reuses the same workers for the shared batch and every adaptive
 * round, paying fork/exec/handshake once per run instead of once per
 * round.
 *
 * Fault model: a worker that dies mid-batch gets its batch requeued to
 * the survivors (a bounded number of times); losing every worker with
 * work outstanding is fatal. Workers exit on EOF, so a killed master
 * never leaves orphans computing.
 */

#ifndef LIBRA_STUDY_SHARD_HH
#define LIBRA_STUDY_SHARD_HH

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/framework.hh"
#include "serve/framing.hh"

namespace libra {

/**
 * Content-identity dedup of a point list: every point maps to a slot,
 * and equal canonical keys share one slot.
 */
struct SlotMap
{
    std::vector<std::size_t> slotOf;  ///< Point -> slot.
    std::vector<std::string> slotKey; ///< Canonical study key text.
    std::vector<std::uint64_t> slotHash; ///< studyCacheHashOfKey(slotKey).
    std::vector<std::size_t> slotRep; ///< Slot -> representative point.

    std::size_t slots() const { return slotRep.size(); }
};

/** Deduplicate @p points by content; see SlotMap. */
SlotMap buildSlotMap(const std::vector<LibraInputs>& points);

/**
 * Order-sensitive fingerprint over a slot map's canonical keys
 * (16-hex). Only the benchmark's shard probe (perfbench/layers.cc)
 * calls it.
 */
std::string slotMapFingerprint(const SlotMap& map);

/**
 * One design point in wire form: the studyConfigToString text plus the
 * 16-hex hash of its canonical study key, under a caller-chosen item
 * index. The text is the authoritative payload — the key only lets the
 * receiver prove its reparse means the same design point.
 */
struct WirePoint
{
    std::size_t index = 0; ///< Caller-chosen id echoed back in results.
    std::string text;      ///< studyConfigToString(point).
    std::string key;       ///< pointWireKey(point), 16-hex.
};

/**
 * The 16-hex canonical-key hash of @p inputs
 * (studyCacheHashOfKey over canonicalStudyKey). Only meaningful for
 * points with a wire form (studyConfigSerializable).
 */
std::string pointWireKey(const LibraInputs& inputs);

/** Build the eval-frame payload `{"points":[{index,point,key}...]}`. */
Json evalPayloadJson(const std::vector<WirePoint>& points);

/**
 * Parse and validate an eval-frame payload.
 * @throws FatalError on any malformed shape: missing/ill-typed
 * "points", entries missing index/point/key, fractional or negative
 * indices, or keys that are not 16 lowercase hex digits.
 */
std::vector<WirePoint> parseEvalPayload(const Json& body);

/** How `run-matrix --workers N` spawns and instructs its workers. */
struct ShardOptions
{
    std::size_t workers = 2;   ///< Worker processes (>= 2 to shard).
    std::string workerExe;     ///< Executable exec'd as `... worker`.

    /** Threads per worker; 0 = hardware concurrency / workers. */
    int workerThreads = 0;
};

/**
 * The master side: spawns workers, checks their engine version, and
 * drives eval-frame dispatch; see file comment.
 */
class ShardPool
{
  public:
    /**
     * Result delivery: one call per evaluated point, in completion
     * order (NOT index order — the caller merges by the WirePoint's
     * caller-chosen index).
     */
    using ResultFn = std::function<void(
        std::size_t index, PointStatus status, LibraReport report)>;

    /**
     * Fork @p options.workers workers and check that each runs this
     * build's engine version (kStudyCacheVersion).
     * @throws FatalError when spawning fails or a worker reports
     * another engine version; already spawned workers are killed.
     */
    explicit ShardPool(const ShardOptions& options);

    /**
     * Same as ShardPool(options); the last two arguments are ignored.
     * Its only caller is the benchmark's shard probe
     * (perfbench/layers.cc).
     */
    ShardPool(const ShardOptions& options, std::size_t,
              const std::string&)
        : ShardPool(options)
    {
    }

    /** Kills (SIGKILL) and reaps any worker shutdown() didn't. */
    ~ShardPool();

    ShardPool(const ShardPool&) = delete;
    ShardPool& operator=(const ShardPool&) = delete;

    /**
     * Evaluate serialized design points across the pool via eval
     * frames: deterministic index-ordered batches, dispatched
     * dynamically to idle workers. Returns when every point was
     * delivered through @p onResult exactly once, under its
     * WirePoint's index. Callable any number of times on a warm pool.
     * @throws FatalError when a batch exhausts its retries, every
     * worker died with work outstanding, or a worker's result frame
     * does not match the batch it was sent (that also kills every
     * worker).
     */
    void evaluatePoints(const std::vector<WirePoint>& points,
                        const ResultFn& onResult);

    /** Graceful teardown: send exit, close, reap. Idempotent. */
    void shutdown();

    std::size_t liveWorkers() const;

    /** Live worker pids, for tests that kill one mid-flight. */
    std::vector<pid_t> workerPids() const;

  private:
    struct Worker
    {
        pid_t pid = -1;
        int fd = -1;
        bool alive = false;
        int batch = -1; ///< Outstanding batch id; -1 = idle.
        FrameBuffer buffer{"shard"};
    };

    /** Deterministic index-ordered split, ~4 batches per worker. */
    std::vector<std::vector<std::size_t>>
    splitIndices(std::size_t count) const;

    void spawnWorker(Worker* w);
    void workerFailed(Worker* w, std::vector<int>* requeue,
                      std::vector<int>* attempts);
    void reap(Worker* w);
    void killWorkers();

    ShardOptions options_;
    std::vector<Worker> workers_;
};

/**
 * The worker side of the protocol: speak frames on stdin/stdout until
 * an exit op or EOF. The entry point behind `libra_cli worker`.
 * @return process exit code.
 */
int runShardWorker();

} // namespace libra

#endif // LIBRA_STUDY_SHARD_HH
