#include "common/fault.hh"

#include <limits>

#include "common/logging.hh"
#include "common/parse_number.hh"

namespace libra {

namespace {

constexpr const char* kSiteNames[kNumFaultSites] = {
    "cache-open",
    "cache-load-read",
    "cache-store-write",
    "cache-store-rename",
    "point-eval",
};

/**
 * The armed configuration plus its counters. Guarded by the install
 * contract (no concurrent installFaults/clearFaults with checks);
 * counters are atomics because checks do run concurrently.
 */
struct FaultState
{
    FaultConfig config;
    std::array<std::atomic<std::uint64_t>, kNumFaultSites> checks{};
    std::array<std::atomic<std::uint64_t>, kNumFaultSites> injected{};
    std::array<std::atomic<std::uint64_t>, kNumFaultSites> sequence{};
};

FaultState&
state()
{
    static FaultState s;
    return s;
}

/**
 * splitmix64 finalizer over (seed, site, key) — the same mixing the
 * multistart engine uses for per-start RNG streams, so draws at
 * different sites (or keys) are decorrelated while staying a pure
 * function of their inputs.
 */
std::uint64_t
mixDraw(std::uint64_t seed, int site, std::uint64_t key)
{
    std::uint64_t z = seed +
                      0x9E3779B97F4A7C15ull *
                          (static_cast<std::uint64_t>(site) + 1) +
                      key;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

std::vector<std::string>
faultSiteNames()
{
    return {kSiteNames, kSiteNames + kNumFaultSites};
}

bool
FaultConfig::any() const
{
    for (double r : rate) {
        if (r > 0.0)
            return true;
    }
    return false;
}

FaultConfig
parseFaultSpec(const std::string& text)
{
    FaultConfig config;
    if (text.empty())
        fatal("empty fault spec (expected site=rate[,...][,seed=N])");

    std::array<bool, kNumFaultSites> seen{};
    bool seenSeed = false;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        std::string token = text.substr(pos, comma - pos);
        pos = comma + 1;

        std::size_t eq = token.find('=');
        if (eq == std::string::npos || eq == 0 ||
            eq + 1 >= token.size()) {
            fatal("fault spec token '", token,
                  "' is not site=rate or seed=N");
        }
        std::string name = token.substr(0, eq);
        std::string value = token.substr(eq + 1);

        if (name == "seed") {
            if (seenSeed)
                fatal("fault spec sets seed twice");
            config.seed = parseNumber(
                value, std::uint64_t{0},
                std::numeric_limits<std::uint64_t>::max(),
                "fault spec seed");
            seenSeed = true;
            continue;
        }

        int site = -1;
        for (int s = 0; s < kNumFaultSites; ++s) {
            if (name == kSiteNames[s])
                site = s;
        }
        if (site < 0) {
            std::string known;
            for (const auto& n : faultSiteNames())
                known += known.empty() ? n : (", " + n);
            fatal("unknown fault site '", name, "' (known: ", known,
                  ")");
        }
        if (seen[static_cast<std::size_t>(site)])
            fatal("fault spec sets site '", name, "' twice");
        seen[static_cast<std::size_t>(site)] = true;

        config.rate[static_cast<std::size_t>(site)] =
            parseNumber(value, 0.0, 1.0, name + " fault rate");

        if (comma == text.size())
            break;
    }
    return config;
}

void
installFaults(const FaultConfig& config)
{
    FaultState& s = state();
    s.config = config;
    for (int i = 0; i < kNumFaultSites; ++i) {
        s.checks[static_cast<std::size_t>(i)].store(0);
        s.injected[static_cast<std::size_t>(i)].store(0);
        s.sequence[static_cast<std::size_t>(i)].store(0);
    }
    detail::faultsArmedFlag.store(config.any());
}

void
clearFaults()
{
    installFaults(FaultConfig{});
}

bool
faultsArmed()
{
    return detail::faultsArmedFlag.load();
}

FaultStats
faultStats()
{
    FaultState& s = state();
    FaultStats out;
    for (int i = 0; i < kNumFaultSites; ++i) {
        out.checks[static_cast<std::size_t>(i)] =
            s.checks[static_cast<std::size_t>(i)].load();
        out.injected[static_cast<std::size_t>(i)] =
            s.injected[static_cast<std::size_t>(i)].load();
    }
    return out;
}

namespace detail {

std::atomic<bool> faultsArmedFlag{false};

bool
injectFaultSlow(FaultSite site, std::uint64_t key)
{
    FaultState& s = state();
    const auto idx = static_cast<std::size_t>(site);
    s.checks[idx].fetch_add(1, std::memory_order_relaxed);
    const double rate = s.config.rate[idx];
    if (rate <= 0.0)
        return false;
    bool fire = rate >= 1.0;
    if (!fire) {
        std::uint64_t z =
            mixDraw(s.config.seed, static_cast<int>(site), key);
        // Top 53 bits -> uniform double in [0, 1).
        fire = static_cast<double>(z >> 11) * 0x1.0p-53 < rate;
    }
    if (fire)
        s.injected[idx].fetch_add(1, std::memory_order_relaxed);
    return fire;
}

std::uint64_t
nextFaultSequence(FaultSite site)
{
    return state()
        .sequence[static_cast<std::size_t>(site)]
        .fetch_add(1, std::memory_order_relaxed);
}

} // namespace detail

} // namespace libra
