/**
 * @file
 * libra_cli's study service: a long-lived Unix-domain-socket server
 * answering scenario-matrix requests without paying process startup,
 * registry construction, or disk-cache traffic per call
 * (docs/SERVE.md).
 *
 * Protocol (newline-delimited JSON requests, framed responses):
 *
 *   request  := one JSON object on one line, e.g.
 *              {"scenario": ["fig13"], "emit": "json"}
 *   response := one compact JSON status line, then exactly
 *              status.bytes raw payload bytes.
 *
 * The payload is byte-identical to what `libra_cli run-matrix` with
 * the same parameters writes to stdout — fresh, disk-cached, or
 * LRU-served, at any thread count — because emission is fully
 * deterministic and cached reports round-trip bit-exactly. The
 * explicit byte count (instead of line framing) is what lets the
 * multi-line pretty-JSON payload cross a line-oriented protocol
 * untouched.
 *
 * Concurrency: one thread per connection; concurrent requests share
 * one ServeStore — a bounded in-memory LRU (serve/lru.hh) over the
 * content-addressed disk cache. Concurrent identical requests that
 * miss both layers may each compute a point; evaluation is
 * deterministic, so every one of them answers the same bytes and
 * stores the same entry. Request errors (unknown
 * scenario, malformed JSON, FatalError from evaluation) are answered
 * as `{"ok":false,...}` responses; they never terminate the server.
 */

#ifndef LIBRA_SERVE_SERVER_HH
#define LIBRA_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>

#include "common/json.hh"
#include "serve/lru.hh"
#include "study/cache.hh"
#include "study/matrix.hh"

namespace libra {

/**
 * The serve-mode StudyStore: an in-memory LRU in front of the disk
 * ResultCache, shared by every concurrent request. Layering on load is
 * LRU -> disk (a disk hit is promoted into the LRU); stores write
 * through to both.
 */
class ServeStore : public StudyStore
{
  public:
    /** Layered counters for the stats op and tests. */
    struct Stats
    {
        LruCache::Stats lru;
        std::uint64_t diskHits = 0;   ///< Loads served by the disk cache.
        std::uint64_t misses = 0;     ///< Loads neither layer served.
    };

    /**
     * @p cacheDir empty runs memory-only (no disk layer);
     * @p lruCapacity bounds the LRU in entries (0 disables it —
     * disk-only).
     */
    ServeStore(const std::string& cacheDir, std::size_t lruCapacity);

    bool load(std::uint64_t key, const std::string& canonical,
              LibraReport* out) override;
    bool store(std::uint64_t key, const std::string& canonical,
               const LibraReport& report) override;
    /** Evict @p canonical from the LRU and reject it on disk. */
    void reject(std::uint64_t key, const std::string& canonical,
                const std::string& why) override;

    Stats stats() const;

    /** The disk layer, when one is configured (tests). */
    const ResultCache* disk() const
    {
        return disk_ ? &*disk_ : nullptr;
    }

  private:
    LruCache lru_;
    std::optional<ResultCache> disk_;
    std::atomic<std::uint64_t> diskHits_{0};
    std::atomic<std::uint64_t> misses_{0};
};

/**
 * Ceiling on concurrently open connections, each of which holds one
 * handler thread. The accept loop answers a connection past it with
 * one `{"ok":false,"error":"server busy ..."}` line and closes it.
 */
inline constexpr std::size_t kMaxServeConnections = 64;

/** Server configuration (the `libra_cli serve` flags). */
struct ServeOptions
{
    std::string socketPath;      ///< AF_UNIX path; created on start.
    std::string cacheDir;        ///< "" = memory-only store.
    std::size_t lruCapacity = 1024;
};

/**
 * The study server; see file comment for protocol and concurrency.
 * Construction builds the store; start() binds/listens and spawns the
 * accept loop; stop() (idempotent, also run by the destructor) shuts
 * every live connection down and joins.
 */
class Server
{
  public:
    /** Cumulative request counters. */
    struct Stats
    {
        std::uint64_t requests = 0; ///< Lines answered (any op).
        std::uint64_t errors = 0;   ///< Of which ok:false.
    };

    explicit Server(ServeOptions options);
    ~Server();

    /**
     * Bind the socket and start accepting. Also warms the scenario/
     * strategy/backend/explore registries so concurrent first requests
     * race on work, not on registration.
     * @throws FatalError when the socket cannot be bound.
     */
    void start();

    /** Shut down: close the listener and every connection, join. */
    void stop();

    /** Block until stop() completes (a shutdown op triggers it). */
    void waitUntilStopped();

    bool running() const { return running_.load(); }

    ServeStore& store() { return store_; }
    const std::string& socketPath() const { return options_.socketPath; }
    Stats stats() const;

    /**
     * The protocol core, public so tests can drive it without a
     * socket: parse one request line, run it, and return the framed
     * response bytes (status line + payload). Sets @p shutdown for a
     * `{"op":"shutdown"}` request; the socket layer then stops the
     * server after answering.
     */
    std::string handleLine(const std::string& line, bool* shutdown);

  private:
    void acceptLoop();
    void handleConnection(int fd);

    ServeOptions options_;
    ServeStore store_;

    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};
    int listenFd_ = -1;
    std::thread acceptThread_;

    mutable std::mutex mutex_;
    std::condition_variable idle_;       ///< Signaled at connections==0.
    std::unordered_set<int> connections_; ///< Live connection fds.

    /** Serializes stop() (shutdown op vs. destructor vs. caller). */
    std::mutex stopMutex_;

    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> errors_{0};
};

/** One framed reply, as seen by a client. */
struct ServeReply
{
    Json status;         ///< The parsed status line.
    std::string payload; ///< Exactly status.bytes raw bytes.
};

/**
 * Client helper: connect to @p socketPath, send @p requestLine (one
 * JSON object; the trailing newline is added), read one framed reply.
 * @throws FatalError on connect/protocol failure.
 */
ServeReply serveRequest(const std::string& socketPath,
                        const std::string& requestLine);

} // namespace libra

#endif // LIBRA_SERVE_SERVER_HH
