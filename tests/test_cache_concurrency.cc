/**
 * @file
 * ResultCache concurrency tests: many threads hammering overlapping
 * keys through load/store (with the fault injector armed at every
 * cache site), same-key store races never tearing an entry, the
 * extended `.tmp.<pid>.<seq>` staleness grammar, and the atomic stats
 * snapshot. The matrix sweep stores each slot from the pool thread
 * that computed it, so two more tests drive it at 4 threads: a store
 * that throws on one key must unwind only after every other slot was
 * stored, and the cache and emitted bytes must equal a 1-thread
 * run's. Runs under `tools/run_tier1.sh --tsan` alongside the other
 * threading suites. See docs/ROBUSTNESS.md and docs/SERVE.md.
 */

#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "core/study_config.hh"
#include "study/cache.hh"
#include "study/matrix.hh"

namespace libra {
namespace {

/** Disarms the injector on scope exit so tests cannot leak faults. */
struct FaultGuard
{
    FaultGuard() { clearFaults(); }
    ~FaultGuard() { clearFaults(); }
};

std::string
freshDir(const char* name)
{
    std::string dir = testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    return dir;
}

/**
 * A synthetic report with a recognizable payload. The cache never
 * interprets reports — it round-trips them bit-exactly — so tests can
 * exercise concurrency with cheap hand-built values instead of paying
 * an optimize() per key.
 */
LibraReport
markedReport(double mark)
{
    LibraReport r;
    r.speedup = mark;
    r.perfPerCostGain = mark * 2.0;
    return r;
}

/** Synthetic canonical keys: the cache treats them as opaque text. */
std::string
syntheticKey(std::size_t i)
{
    return "concurrency-test-key " + std::to_string(i);
}

TEST(CacheConcurrency, ManyThreadsHammerOverlappingKeys)
{
    std::string dir = freshDir("libra-cache-hammer");
    ResultCache cache(dir);
    ASSERT_TRUE(cache.enabled());

    constexpr std::size_t kKeys = 8;
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kIters = 40;

    std::atomic<std::size_t> badLoads{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t i = 0; i < kIters; ++i) {
                std::size_t k = (t + i) % kKeys;
                std::string canonical = syntheticKey(k);
                std::uint64_t key = studyCacheHashOfKey(canonical);
                LibraReport out;
                if (cache.load(key, canonical, &out)) {
                    // A torn or crossed entry would surface here: the
                    // payload is a pure function of the key.
                    if (out.speedup != static_cast<double>(k))
                        ++badLoads;
                } else {
                    cache.store(key, canonical,
                                markedReport(static_cast<double>(k)));
                }
            }
        });
    }
    for (auto& th : threads)
        th.join();
    EXPECT_EQ(badLoads.load(), 0u);

    // Every key is stored by now and loads back with its own payload.
    for (std::size_t k = 0; k < kKeys; ++k) {
        std::string canonical = syntheticKey(k);
        LibraReport out;
        ASSERT_TRUE(
            cache.load(studyCacheHashOfKey(canonical), canonical, &out))
            << canonical;
        EXPECT_EQ(out.speedup, static_cast<double>(k));
    }
    ResultCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.storeFailures, 0u);
    EXPECT_EQ(stats.loadFailures, 0u);
    std::filesystem::remove_all(dir);
}

TEST(CacheConcurrency, HammerSurvivesInjectedCacheFaults)
{
    FaultGuard guard;
    std::string dir = freshDir("libra-cache-hammer-faults");
    ResultCache cache(dir); // Open clean; fault the I/O paths only.
    ASSERT_TRUE(cache.enabled());
    setInformEnabled(false);
    installFaults(parseFaultSpec("cache-load-read=0.3,"
                                 "cache-store-write=0.3,"
                                 "cache-store-rename=0.3,seed=9"));

    constexpr std::size_t kKeys = 8;
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kIters = 30;

    // The injector is a pure function of (seed, site, key), so faults
    // land on the same keys in every thread — the cache must degrade
    // (miss / warn / skip) without ever crashing or serving a wrong
    // report.
    std::atomic<std::size_t> badLoads{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t i = 0; i < kIters; ++i) {
                std::size_t k = (t * 3 + i) % kKeys;
                std::string canonical = syntheticKey(k);
                std::uint64_t key = studyCacheHashOfKey(canonical);
                LibraReport out;
                if (cache.load(key, canonical, &out)) {
                    if (out.speedup != static_cast<double>(k))
                        ++badLoads;
                } else {
                    cache.store(key, canonical,
                                markedReport(static_cast<double>(k)));
                }
            }
        });
    }
    for (auto& th : threads)
        th.join();
    EXPECT_EQ(badLoads.load(), 0u);

    // Disarmed, the surviving entries load cleanly and correctly.
    clearFaults();
    for (std::size_t k = 0; k < kKeys; ++k) {
        std::string canonical = syntheticKey(k);
        LibraReport out;
        if (cache.load(studyCacheHashOfKey(canonical), canonical,
                       &out)) {
            EXPECT_EQ(out.speedup, static_cast<double>(k));
        }
    }
    setInformEnabled(true);
    std::filesystem::remove_all(dir);
}

TEST(CacheConcurrency, SameKeyStoresNeverTearTheEntry)
{
    std::string dir = freshDir("libra-cache-samekey");
    ResultCache cache(dir);
    ASSERT_TRUE(cache.enabled());

    const std::string canonical = syntheticKey(0);
    const std::uint64_t key = studyCacheHashOfKey(canonical);
    const LibraReport expected = markedReport(42.0);
    const std::string expectedDump = reportToJson(expected).dump();

    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kIters = 20;
    std::atomic<std::size_t> mismatches{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (std::size_t i = 0; i < kIters; ++i) {
                cache.store(key, canonical, expected);
                LibraReport out;
                if (cache.load(key, canonical, &out) &&
                    reportToJson(out).dump() != expectedDump)
                    ++mismatches;
            }
        });
    }
    for (auto& th : threads)
        th.join();
    EXPECT_EQ(mismatches.load(), 0u);

    ResultCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.quarantined, 0u);
    EXPECT_EQ(stats.storeFailures, 0u);

    // Exactly one entry file; every per-writer tmp file was consumed
    // by its rename.
    std::size_t files = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir)) {
        EXPECT_EQ(entry.path().extension(), ".json")
            << entry.path().filename();
        ++files;
    }
    EXPECT_EQ(files, 1u);
    std::filesystem::remove_all(dir);
}

TEST(CacheConcurrency, ExtendedTmpSuffixGrammarDecidesStaleness)
{
    std::string dir = freshDir("libra-cache-tmpgrammar");
    std::filesystem::create_directories(dir);
    const std::string pid = std::to_string(::getpid());
    auto touch = [&](const std::string& name) {
        std::ofstream(dir + "/" + name) << "tmp";
    };
    // Stale: dead pid (old and extended grammar), garbage pid,
    // garbage sequence.
    touch("a.json.tmp.999999999");
    touch("b.json.tmp.999999999.3");
    touch("c.json.tmp.notapid");
    touch("d.json.tmp." + pid + ".7x");
    touch("e.json.tmp." + pid + ".");
    // Live: our own pid, bare and with a sequence.
    touch("f.json.tmp." + pid);
    touch("g.json.tmp." + pid + ".12");

    setInformEnabled(false);
    ResultCache cache(dir);
    setInformEnabled(true);
    EXPECT_EQ(cache.stats().reapedTmp, 5u);
    EXPECT_FALSE(
        std::filesystem::exists(dir + "/a.json.tmp.999999999"));
    EXPECT_FALSE(
        std::filesystem::exists(dir + "/b.json.tmp.999999999.3"));
    EXPECT_FALSE(std::filesystem::exists(dir + "/c.json.tmp.notapid"));
    EXPECT_FALSE(
        std::filesystem::exists(dir + "/d.json.tmp." + pid + ".7x"));
    EXPECT_FALSE(
        std::filesystem::exists(dir + "/e.json.tmp." + pid + "."));
    EXPECT_TRUE(std::filesystem::exists(dir + "/f.json.tmp." + pid));
    EXPECT_TRUE(
        std::filesystem::exists(dir + "/g.json.tmp." + pid + ".12"));
    std::filesystem::remove_all(dir);
}

TEST(CacheConcurrency, StatsSnapshotIsConsistentUnderWriters)
{
    std::string dir = freshDir("libra-cache-stats");
    ResultCache cache(dir);
    ASSERT_TRUE(cache.enabled());

    std::atomic<bool> stop{false};
    std::thread reader([&] {
        while (!stop.load()) {
            ResultCache::Stats s = cache.stats();
            // Nothing in this test quarantines or fails I/O; the
            // snapshot must never show transient garbage.
            EXPECT_EQ(s.quarantined, 0u);
            EXPECT_EQ(s.storeFailures, 0u);
        }
    });
    std::vector<std::thread> writers;
    for (std::size_t t = 0; t < 4; ++t) {
        writers.emplace_back([&, t] {
            for (std::size_t i = 0; i < 50; ++i) {
                std::string canonical = syntheticKey(t * 50 + i);
                cache.store(studyCacheHashOfKey(canonical), canonical,
                            markedReport(1.0));
            }
        });
    }
    for (auto& w : writers)
        w.join();
    stop = true;
    reader.join();
    std::filesystem::remove_all(dir);
}

// --- Stores made from pool threads ------------------------------------

/** A cheap design point: seeds make distinct cache keys. */
LibraInputs
seededPoint(int seed)
{
    return parseStudyConfigString(
        "NETWORK SW(4)_RI(4)\nTOTAL_BW 200\nSTARTS 2\n"
        "WORKLOAD resnet50\nSEED " +
        std::to_string(seed) + "\n");
}

/**
 * Register (once) a scenario over the seeds [@p first, @p last] and
 * return its name.
 */
std::string
seededScenario(int first, int last)
{
    std::string name = "test-concurrency-seeds-" + std::to_string(first) +
                       "-" + std::to_string(last);
    if (ScenarioRegistry::global().find(name))
        return name;
    Scenario s;
    s.name = name;
    s.title = "concurrency-test seeded points";
    s.build = [first, last] {
        std::vector<LibraInputs> points;
        for (int seed = first; seed <= last; ++seed)
            points.push_back(seededPoint(seed));
        return points;
    };
    s.format = [](const std::vector<LibraInputs>& points,
                  const std::vector<LibraReport>& reports) {
        ScenarioOutput out;
        for (std::size_t i = 0; i < points.size(); ++i) {
            ScenarioRow row;
            row.label("point", std::to_string(i));
            row.metric("speedup", reports[i].speedup);
            out.rows.push_back(std::move(row));
        }
        return out;
    };
    ScenarioRegistry::global().add(std::move(s));
    return name;
}

/**
 * An in-memory store that records every key it stored, and whose
 * store() throws for one canonical key — an internal error raised on
 * whichever pool thread finished that slot.
 */
class ThrowingStore : public StudyStore
{
  public:
    explicit ThrowingStore(std::string poison) : poison_(std::move(poison))
    {}

    bool load(std::uint64_t, const std::string&, LibraReport*) override
    {
        return false;
    }

    bool store(std::uint64_t, const std::string& canonical,
               const LibraReport&) override
    {
        if (canonical == poison_)
            throw std::runtime_error("store failed");
        std::lock_guard<std::mutex> lock(mutex);
        stored.push_back(canonical);
        return true;
    }

    /** Guards the record; read it only after the sweep. */
    std::mutex mutex;
    std::vector<std::string> stored;

  private:
    const std::string poison_;
};

TEST(SweepStores, AThrowingStoreUnwindsAfterEveryOtherSlotIsStored)
{
    FaultGuard guard;
    setInformEnabled(false);
    ThreadPool::setGlobalThreads(4);

    const std::string poison = canonicalStudyKey(seededPoint(5));
    ThrowingStore store(poison);
    MatrixOptions options;
    options.store = &store;
    // The internal error reaches the caller after every other slot ran.
    EXPECT_THROW(runScenarioMatrix({seededScenario(1, 8)}, options),
                 std::runtime_error);

    // Each of the other 7 slots was stored exactly once.
    std::set<std::string> stored(store.stored.begin(), store.stored.end());
    EXPECT_EQ(store.stored.size(), 7u);
    EXPECT_EQ(stored.size(), 7u);
    EXPECT_EQ(stored.count(poison), 0u);
    for (int seed = 1; seed <= 8; ++seed) {
        if (seed == 5)
            continue;
        EXPECT_EQ(stored.count(canonicalStudyKey(seededPoint(seed))), 1u)
            << "seed " << seed;
    }
}

/** Every file of @p dir by name, with its bytes. */
std::map<std::string, std::string>
dirContents(const std::string& dir)
{
    std::map<std::string, std::string> files;
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
        std::ostringstream bytes;
        bytes << std::ifstream(e.path(), std::ios::binary).rdbuf();
        files[e.path().filename().string()] = bytes.str();
    }
    return files;
}

TEST(SweepStores, CacheAndJsonMatchAcrossThreadCounts)
{
    FaultGuard guard;
    setInformEnabled(false);
    // Two overlapping scenarios: seeds 4-6 dedup into shared slots.
    const std::vector<std::string> names = {seededScenario(1, 6),
                                            seededScenario(4, 9)};

    std::map<std::string, std::string> caches[2];
    std::string json[2];
    const std::size_t threads[2] = {1, 4};
    for (int run = 0; run < 2; ++run) {
        ThreadPool::setGlobalThreads(threads[run]);
        std::string dir =
            freshDir(run == 0 ? "libra-sweep-t1" : "libra-sweep-t4");
        MatrixOptions options;
        options.cacheDir = dir;
        MatrixResult result = runScenarioMatrix(names, options);
        EXPECT_EQ(result.unique, 9u);
        EXPECT_EQ(result.computed, 9u);
        std::ostringstream os;
        emitMatrixJson(result, os);
        json[run] = os.str();
        caches[run] = dirContents(dir);
        std::filesystem::remove_all(dir);
    }
    EXPECT_EQ(caches[0].size(), 9u);
    EXPECT_EQ(caches[0], caches[1]);
    EXPECT_EQ(json[0], json[1]);
}

} // namespace
} // namespace libra
