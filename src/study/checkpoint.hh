/**
 * @file
 * Resumable checkpoint manifest for long matrix runs
 * (docs/SHARDING.md).
 *
 * The manifest is an append-only text file: a `libra-checkpoint-v1`
 * header line, then one 16-hex content-hash line per completed slot
 * (the same `studyCacheHashOfKey` value that names the slot's
 * ResultCache file). Every append is fsynced, so the set of recorded
 * slots survives a `kill -9` at any instant: a slot's hash is written
 * only *after* its report was stored to the result cache, which keeps
 * the invariant manifest ⊆ cache — a recorded slot can always be
 * served without recomputation on resume.
 *
 * Entries are content-addressed, so a manifest is self-describing:
 * resuming with a different scenario list, or against a different
 * cache, is harmless — hashes that match nothing simply never come up,
 * and stale entries cannot alias new work. A recorded slot that misses
 * the cache on resume (cache wiped, or a degraded store) is only a
 * warning: it is recomputed, costing work but never correctness.
 *
 * Crash tolerance on load: a torn final line (the write raced the
 * kill) is skipped with a warning, and the first append after it
 * starts a fresh line, so the fragment never absorbs a new hash; a
 * non-empty file whose first line is not the header is rejected with
 * fatal() so a mistyped path can never clobber an unrelated file.
 */

#ifndef LIBRA_STUDY_CHECKPOINT_HH
#define LIBRA_STUDY_CHECKPOINT_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_set>

namespace libra {

/** Append-only, fsynced completed-slot manifest; see file comment. */
class CheckpointLog
{
  public:
    /**
     * Open (or create) the manifest at @p path and load every
     * previously recorded hash.
     * @throws FatalError when the file exists but is not a manifest,
     * or cannot be opened for appending.
     */
    explicit CheckpointLog(const std::string& path);
    ~CheckpointLog();

    CheckpointLog(const CheckpointLog&) = delete;
    CheckpointLog& operator=(const CheckpointLog&) = delete;

    /** Was @p hash recorded (by this run or a previous one)? */
    bool contains(std::uint64_t hash) const;

    /**
     * Record @p hash as completed: append one line and fsync before
     * returning. Idempotent — a hash already present is not rewritten.
     * I/O failure degrades to warn() (the run continues; only
     * resumability is lost), per the cache failure taxonomy.
     */
    void append(std::uint64_t hash);

    /** Hashes loaded from a pre-existing manifest at open. */
    std::size_t resumedSlots() const { return resumed_; }

    const std::string& path() const { return path_; }

  private:
    std::string path_;
    int fd_ = -1;
    std::size_t resumed_ = 0;
    bool tornTail_ = false; ///< File ends mid-line; next append
                            ///< starts with a newline.
    mutable std::mutex mutex_;
    std::unordered_set<std::uint64_t> done_;
};

} // namespace libra

#endif // LIBRA_STUDY_CHECKPOINT_HH
