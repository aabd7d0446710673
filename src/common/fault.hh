/**
 * @file
 * Deterministic, seeded fault injection for exercising failure paths
 * on demand (docs/ROBUSTNESS.md).
 *
 * Every best-effort seam in the study stack carries a *named injection
 * site*: the cache I/O operations (open, load-read, store-write,
 * store-rename) and the point-evaluation seam of the cached sweep.
 * A site check is a pure function of (seed, site, key):
 *
 *     injectFault(site, key) == splitmix64(seed, site, key) < rate
 *
 * so a given fault either always or never fires for a given key at a
 * given seed — independent of thread count, scheduling, or whether the
 * surrounding run was fresh or cached. Call sites key by the content
 * hash at hand (a cache entry's key, a design point's canonical hash,
 * a retry attempt's salted key); seams with no content identity use
 * the keyless overload, which draws from a per-site arrival counter
 * and is therefore only count-deterministic.
 *
 * Configuration is a spec string, `site=rate[,site=rate...][,seed=N]`
 * (the `--faults` CLI flag), e.g.
 *
 *     cache-load-read=0.25,cache-store-write=0.25,seed=11
 *
 * Unconfigured, every check is a single relaxed atomic load of the
 * armed flag — effectively free, safe to leave in hot paths.
 */

#ifndef LIBRA_COMMON_FAULT_HH
#define LIBRA_COMMON_FAULT_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace libra {

/** Named injection sites; docs/ROBUSTNESS.md catalogs the seams. */
enum class FaultSite : int {
    CacheOpen = 0,    ///< ResultCache directory creation.
    CacheLoadRead,    ///< Reading a cache entry file.
    CacheStoreWrite,  ///< Writing a cache tmp file.
    CacheStoreRename, ///< Publishing tmp -> final rename.
    PointEval,        ///< Evaluating one design point in cachedSweep.
};

inline constexpr int kNumFaultSites = 5;

/** All site names in enum order (spec grammar, error messages). */
std::vector<std::string> faultSiteNames();

/** Parsed fault configuration: a rate per site plus the draw seed. */
struct FaultConfig
{
    /** Injection probability per site in [0, 1]; 0 = never. */
    std::array<double, kNumFaultSites> rate{};

    std::uint64_t seed = 1;

    /** True when any site has a nonzero rate. */
    bool any() const;
};

/**
 * Parse `site=rate[,site=rate...][,seed=N]`.
 * @throws FatalError on an unknown site, a duplicate site or seed, a
 * rate outside [0, 1], or a malformed number.
 */
FaultConfig parseFaultSpec(const std::string& text);

/**
 * Arm fault injection process-wide. Not thread-safe against concurrent
 * injectFault() checks — install before starting a run (the CLI does
 * it at startup; tests install between runs).
 */
void installFaults(const FaultConfig& config);

/** Disarm all sites and reset the keyless arrival counters. */
void clearFaults();

/** True when installFaults armed at least one site. */
bool faultsArmed();

/** Per-site counters of checks made and faults injected while armed. */
struct FaultStats
{
    std::array<std::uint64_t, kNumFaultSites> checks{};
    std::array<std::uint64_t, kNumFaultSites> injected{};
};

/** Snapshot of the counters accumulated since the last install/clear. */
FaultStats faultStats();

/**
 * Salt @p key for retry attempt @p attempt, so a bounded-retry loop
 * draws independently per attempt while staying a pure function of
 * (key, attempt). Attempt 0 is the unsalted key.
 */
inline std::uint64_t
faultRetryKey(std::uint64_t key, int attempt)
{
    return key ^ (static_cast<std::uint64_t>(attempt) *
                  0x9E3779B97F4A7C15ull);
}

namespace detail {

extern std::atomic<bool> faultsArmedFlag;

bool injectFaultSlow(FaultSite site, std::uint64_t key);
std::uint64_t nextFaultSequence(FaultSite site);

} // namespace detail

/**
 * Keyed check: should the fault at @p site fire for content @p key?
 * Deterministic (see file comment); a no-op while disarmed.
 */
inline bool
injectFault(FaultSite site, std::uint64_t key)
{
    if (!detail::faultsArmedFlag.load(std::memory_order_relaxed))
        return false;
    return detail::injectFaultSlow(site, key);
}

/**
 * Keyless check for seams with no content identity: keys by the site's
 * arrival counter, so only the *count* of injected faults is
 * deterministic, not their assignment across threads.
 */
inline bool
injectFault(FaultSite site)
{
    if (!detail::faultsArmedFlag.load(std::memory_order_relaxed))
        return false;
    return detail::injectFaultSlow(site,
                                   detail::nextFaultSequence(site));
}

} // namespace libra

#endif // LIBRA_COMMON_FAULT_HH
