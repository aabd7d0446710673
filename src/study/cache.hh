/**
 * @file
 * Content-addressed result cache for design-study points.
 *
 * A study point is cached under a key derived from the *content* of its
 * LibraInputs — everything that can influence the resulting LibraReport:
 * the canonicalized network shape, budget/objective/loop/constraint
 * configuration, search options (a non-default MAX_EVALS budget is
 * appended next to the search block so default keys are unchanged), a
 * non-default timing BACKEND (same only-when-set rule — registered
 * backends are deterministic, so their name is sufficient content), a
 * non-default EXPLORE strategy (same rule; its name is the tag), the
 * full cost model, and the workload IR of every target (not just
 * names — programmatic scenarios build workloads with custom
 * strategies), its layers written as runs of identical layers.
 * Fields that provably do not affect results are excluded: `threads`
 * (the engine's determinism contract guarantees bit-identical results
 * at any thread count) and layer names (no estimate or report reads
 * them).
 *
 * Key = FNV-1a 64-bit over the canonical text, salted with
 * kStudyCacheVersion. Bump the version whenever estimator, optimizer,
 * or solver *semantics* change (anything that would alter a report for
 * identical inputs); stale entries are then simply never hit again.
 *
 * Storage is one JSON file per key in the cache directory, wrapped in
 * an FNV-checksummed envelope written by concatenation:
 * `{"fnv":"<16 hex>","body":` + body text + `}` + newline. The checksum
 * covers exactly the stored body bytes, so load() verifies the byte
 * range it is about to parse without re-serializing anything. Reports
 * round-trip bit-exactly (shortest round-trip double formatting), so a
 * matrix run served from cache emits byte-identical output to the run
 * that populated it.
 *
 * The cache is strictly best-effort and self-healing
 * (docs/ROBUSTNESS.md): it may only ever amortize work, never break or
 * alter a run. Corrupt, truncated, or version-skewed entries, and
 * reports that do not fit their point (reportShapeError), are
 * quarantined to `<name>.corrupt` and recomputed; stale
 * `.tmp.<pid>.<seq>` files left by crashed runs are reaped when the
 * cache opens; store
 * I/O retries with bounded backoff and then degrades to a warning; an
 * uncreatable cache directory disables the cache instead of aborting.
 *
 * Every point is cacheable: a named timing backend's cacheKeyTag is
 * its content.
 */

#ifndef LIBRA_STUDY_CACHE_HH
#define LIBRA_STUDY_CACHE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "common/json.hh"
#include "core/framework.hh"

namespace libra {

/** Bump when a semantic change invalidates previously cached reports. */
constexpr std::uint32_t kStudyCacheVersion = 1;

/** Canonical text form of everything result-relevant in @p inputs. */
std::string canonicalStudyKey(const LibraInputs& inputs);

/** FNV-1a over an already canonicalized key text. */
std::uint64_t studyCacheHashOfKey(std::string_view canonical);

/** FNV-1a hash of the canonical key, salted with kStudyCacheVersion. */
std::uint64_t studyCacheHash(const LibraInputs& inputs);

/** Bit-exact JSON round-trip of a LibraReport. */
Json reportToJson(const LibraReport& report);
LibraReport reportFromJson(const Json& json);

/**
 * Why @p report cannot be the report of @p inputs, or "" when it fits:
 * both designs' `bw` hold one positive entry per network dimension,
 * `perWorkloadTime` one entry per target, and every number is finite.
 * An entry's checksum signs its bytes, not their shape, so the matrix
 * sweep checks every loaded report against its point this way.
 */
std::string reportShapeError(const LibraReport& report,
                             const LibraInputs& inputs);

/**
 * Pluggable study-point store consumed by the matrix runner's cached
 * sweep. ResultCache is the plain disk implementation; the serve
 * subsystem layers an in-memory LRU on top (src/serve/,
 * docs/SERVE.md) behind this same seam.
 *
 * The sweep loads every point, computes the ones that missed, and
 * stores each as it completes. Concurrent sweeps that miss the same
 * key each compute it; evaluation is deterministic, so their stores
 * carry identical bytes. All methods must be safe to call from
 * concurrent sweeps.
 */
class StudyStore
{
  public:
    virtual ~StudyStore() = default;

    /** Load the report cached under @p key / @p canonical; hit/miss. */
    virtual bool load(std::uint64_t key, const std::string& canonical,
                      LibraReport* out) = 0;

    /** Store @p report under @p key; false when not published. */
    virtual bool store(std::uint64_t key, const std::string& canonical,
                       const LibraReport& report) = 0;

    /**
     * Drop the entry load() just served under @p key because it does
     * not fit its point (@p why, from reportShapeError). The sweep
     * recomputes the point and stores it again. A store that keeps
     * nothing it could serve again needs no override.
     */
    virtual void
    reject(std::uint64_t key, const std::string& canonical,
           const std::string& why)
    {
        (void)key;
        (void)canonical;
        (void)why;
    }
};

/**
 * One-file-per-key report store under a directory.
 *
 * Safe for concurrent readers and writers: per-key-sharded mutexes
 * serialize same-key file I/O within the process, the self-healing
 * counters are atomic, and tmp files carry a per-writer
 * `.tmp.<pid>.<seq>` suffix so two threads storing the same key can
 * never interleave writes into one tmp file (cross-process safety
 * still comes from write-then-rename).
 */
class ResultCache : public StudyStore
{
  public:
    /** Counters of the self-healing machinery, exposed for tests. */
    struct Stats
    {
        std::size_t reapedTmp = 0;      ///< Stale tmp files removed.
        std::size_t quarantined = 0;    ///< Entries moved to .corrupt.
        std::size_t loadFailures = 0;   ///< Unreadable entries (I/O).
        std::size_t storeFailures = 0;  ///< Stores lost after retries.
        std::size_t collisions = 0;     ///< 64-bit key collisions seen.
    };

    /**
     * Opens (and creates if needed) @p dir, reaping stale
     * `.tmp.<pid>.<seq>` files whose owning process is gone. An
     * uncreatable directory
     * warns and disables the cache (every load misses, every store
     * no-ops) instead of aborting — the cache is best-effort.
     * @throws FatalError only on an empty @p dir (caller bug).
     */
    explicit ResultCache(std::string dir);

    const std::string& dir() const { return dir_; }

    /** False when the directory could not be created/opened. */
    bool enabled() const { return enabled_; }

    /**
     * Load the report cached under @p key. The entry's stored
     * canonical input text must equal @p canonical — a 64-bit hash is
     * not collision-resistant, so identity is always re-verified on
     * load (a mismatch is treated as a miss and warned about).
     * Corrupt, truncated, checksum-mismatched, or version-skewed
     * entries are quarantined to `<name>.corrupt` and reported as
     * misses; unreadable files warn and miss. Never throws for any
     * file content.
     * @return hit/miss.
     */
    bool load(std::uint64_t key, const std::string& canonical,
              LibraReport* out) override;

    /**
     * Store @p report under @p key with its canonical input text
     * (write-then-rename, FNV-checksummed envelope). Transient I/O
     * failures retry with bounded backoff; a store that still fails
     * warns and returns false — it never aborts the run.
     * @return true when the entry was published.
     */
    bool store(std::uint64_t key, const std::string& canonical,
               const LibraReport& report) override;

    /** Quarantine the entry under @p key to `<name>.corrupt`. */
    void reject(std::uint64_t key, const std::string& canonical,
                const std::string& why) override;

    /** Snapshot of the self-healing counters since the cache opened. */
    Stats stats() const;

  private:
    /** Lock arity for same-key I/O serialization (power of two). */
    static constexpr std::size_t kShards = 16;

    std::string path(std::uint64_t key) const;
    std::mutex& shard(std::uint64_t key) { return shards_[key % kShards]; }
    void reapStaleTmp();
    void quarantine(const std::string& file, const std::string& why);

    std::string dir_;
    bool enabled_ = true;

    /** Per-key-shard mutexes serializing same-key file I/O. */
    std::array<std::mutex, kShards> shards_;

    /** Atomic twins of Stats (concurrent sweeps bump them freely). */
    std::atomic<std::size_t> reapedTmp_{0};
    std::atomic<std::size_t> quarantined_{0};
    std::atomic<std::size_t> loadFailures_{0};
    std::atomic<std::size_t> storeFailures_{0};
    std::atomic<std::size_t> collisions_{0};
};

} // namespace libra

#endif // LIBRA_STUDY_CACHE_HH
