/**
 * @file
 * Bounded in-memory LRU over study-point reports (docs/SERVE.md).
 *
 * The serve subsystem layers this cache above the content-addressed
 * disk ResultCache so hot studies never touch disk: entries are keyed
 * by the full canonical study key text (the same identity the disk
 * cache verifies, so a hash collision can never alias two points), and
 * values are in-memory LibraReport copies — trivially bit-identical to
 * the reports that produced them, so a matrix served from this cache
 * emits byte-identical output to a fresh or disk-cached run.
 *
 * The one bound is a capacity in entries: inserting past it evicts the
 * coldest entry. A capacity of 0 disables the cache (get always
 * misses, put no-ops).
 *
 * Thread-safe: one internal mutex guards the recency list and index
 * (every operation is a few pointer moves — far below the cost of the
 * optimize() calls the cache amortizes).
 */

#ifndef LIBRA_SERVE_LRU_HH
#define LIBRA_SERVE_LRU_HH

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/framework.hh"

namespace libra {

/** Bounded most-recently-used report cache; see file comment. */
class LruCache
{
  public:
    /** Operation counters, exposed for tests and the stats op. */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::size_t entries = 0;  ///< Current resident entries.
        std::size_t capacity = 0;
    };

    /** @p capacity bounds entries; 0 disables the cache. */
    explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

    /**
     * Look up @p key; a hit copies the report into @p out and marks
     * the entry most recently used.
     * @return hit/miss.
     */
    bool get(const std::string& key, LibraReport* out);

    /**
     * Insert (or refresh) @p key -> @p report as the most recently
     * used entry, evicting the coldest entry past the capacity.
     */
    void put(const std::string& key, const LibraReport& report);

    /** Remove @p key if resident. */
    void erase(const std::string& key);

    /** Counter snapshot since construction. */
    Stats stats() const;

  private:
    using Entry = std::pair<std::string, LibraReport>;

    std::size_t capacity_;

    mutable std::mutex mutex_;
    std::list<Entry> order_; ///< Front = most recently used.
    std::unordered_map<std::string, std::list<Entry>::iterator> index_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace libra

#endif // LIBRA_SERVE_LRU_HH
