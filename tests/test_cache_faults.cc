/**
 * @file
 * Fault-tolerance tests: the deterministic fault injector, the
 * self-healing ResultCache under adversarial on-disk entries
 * (truncated, short, bit-flipped, checksum-mismatched, version-skewed,
 * deeply nested, hash-colliding, legacy and old-layout), stale tmp
 * reaping, and per-point failure isolation through
 * runLibraSweepIsolated and the scenario matrix.
 * See docs/ROBUSTNESS.md.
 */

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/fault.hh"
#include "common/logging.hh"
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

LibraInputs
miniInputs(const char* extra = "")
{
    std::string text = "NETWORK SW(4)_RI(4)\nTOTAL_BW 200\n"
                       "STARTS 2\nWORKLOAD resnet50\n";
    text += extra;
    return parseStudyConfigString(text);
}

/**
 * A design point whose evaluation throws FatalError: the resnet50
 * targets were sliced for the 16-NPU parse-time network, and swapping
 * the shape afterwards makes the estimator reject the mismatch.
 */
LibraInputs
poisonedInputs(const char* shape = "SW(4)_RI(8)")
{
    LibraInputs p = miniInputs();
    p.networkShape = shape;
    return p;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::string
freshDir(const char* name)
{
    std::string dir = testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    return dir;
}

/** The 16-hex-digit FNV checksum a cache entry carries for @p text. */
std::string
fnvHex(const std::string& text)
{
    char fnv[24];
    std::snprintf(fnv, sizeof(fnv), "%016llx",
                  static_cast<unsigned long long>(
                      studyCacheHashOfKey(text)));
    return fnv;
}

/**
 * Write @p bodyText to @p file in the current entry layout,
 * `{"fnv":"<16 hex>","body":<bodyText>}` plus a newline, with a valid
 * checksum — so a load gets past the checksum to whatever @p bodyText
 * holds.
 */
void
writeEnvelope(const std::string& file, const std::string& bodyText)
{
    std::ofstream out(file, std::ios::trunc);
    out << "{\"fnv\":\"" << fnvHex(bodyText) << "\",\"body\":" << bodyText
        << "}\n";
}

/**
 * Rewrite the entry at @p file into the nested layout earlier engines
 * wrote: `{"fnv": ..., "body": {...}}` pretty-printed as one value,
 * the checksum over the body's own pretty-printed text.
 */
void
rewriteInOldLayout(const std::string& file)
{
    Json body = Json::parse(readFile(file)).at("body");
    Json j = Json::object();
    j["fnv"] = fnvHex(body.dump(1));
    j["body"] = std::move(body);
    std::ofstream out(file, std::ios::trunc);
    out << j.dump(1) << "\n";
}

// --- Fault-spec parsing ------------------------------------------------

TEST(FaultSpec, ParsesSitesAndSeed)
{
    FaultConfig c = parseFaultSpec("cache-load-read=0.25,seed=7");
    EXPECT_EQ(c.rate[static_cast<int>(FaultSite::CacheLoadRead)], 0.25);
    EXPECT_EQ(c.rate[static_cast<int>(FaultSite::CacheStoreWrite)],
              0.0);
    EXPECT_EQ(c.seed, 7u);
    EXPECT_TRUE(c.any());
    EXPECT_EQ(faultSpecToString(c), "cache-load-read=0.25,seed=7");

    FaultConfig multi = parseFaultSpec(
        "point-eval=1,cache-store-rename=0.5");
    EXPECT_EQ(multi.rate[static_cast<int>(FaultSite::PointEval)], 1.0);
    EXPECT_EQ(
        multi.rate[static_cast<int>(FaultSite::CacheStoreRename)], 0.5);
    EXPECT_EQ(multi.seed, 1u); // Default seed.

    EXPECT_FALSE(FaultConfig{}.any());
}

TEST(FaultSpec, RejectsMalformedSpecs)
{
    EXPECT_THROW(parseFaultSpec(""), FatalError);
    EXPECT_THROW(parseFaultSpec("no-such-site=0.5"), FatalError);
    EXPECT_THROW(parseFaultSpec("point-eval"), FatalError);
    EXPECT_THROW(parseFaultSpec("point-eval=maybe"), FatalError);
    EXPECT_THROW(parseFaultSpec("point-eval=1.5"), FatalError);
    EXPECT_THROW(parseFaultSpec("point-eval=-0.1"), FatalError);
    EXPECT_THROW(parseFaultSpec("point-eval=0.5,point-eval=0.5"),
                 FatalError);
    EXPECT_THROW(parseFaultSpec("seed=1,seed=2"), FatalError);
    EXPECT_THROW(parseFaultSpec("seed=abc"), FatalError);
}

// --- Injector determinism ----------------------------------------------

TEST(FaultInjector, DisarmedIsInert)
{
    FaultGuard guard;
    EXPECT_FALSE(faultsArmed());
    for (std::uint64_t k = 0; k < 100; ++k)
        EXPECT_FALSE(injectFault(FaultSite::PointEval, k));
    FaultStats stats = faultStats();
    EXPECT_EQ(stats.injected[static_cast<int>(FaultSite::PointEval)],
              0u);
}

TEST(FaultInjector, KeyedDrawIsAPureFunctionOfSeedSiteAndKey)
{
    FaultGuard guard;
    installFaults(parseFaultSpec("point-eval=0.5,seed=42"));
    EXPECT_TRUE(faultsArmed());

    // Same (seed, site, key) -> same answer, every time: fault
    // assignment cannot depend on thread schedule or call order.
    std::size_t fired = 0;
    for (std::uint64_t k = 0; k < 1000; ++k) {
        bool first = injectFault(FaultSite::PointEval, k);
        EXPECT_EQ(first, injectFault(FaultSite::PointEval, k)) << k;
        fired += first ? 1 : 0;
    }
    // A 0.5 rate over 1000 keys lands near 500.
    EXPECT_GT(fired, 400u);
    EXPECT_LT(fired, 600u);

    // Sites are decorrelated: the same keys draw independently at
    // another site with the same rate.
    installFaults(parseFaultSpec(
        "point-eval=0.5,cache-load-read=0.5,seed=42"));
    bool siteDiffers = false;
    for (std::uint64_t k = 0; k < 64; ++k) {
        siteDiffers |= injectFault(FaultSite::PointEval, k) !=
                       injectFault(FaultSite::CacheLoadRead, k);
    }
    EXPECT_TRUE(siteDiffers);

    // And the seed reshuffles the assignment.
    std::vector<bool> seed42;
    for (std::uint64_t k = 0; k < 64; ++k)
        seed42.push_back(injectFault(FaultSite::PointEval, k));
    installFaults(parseFaultSpec("point-eval=0.5,seed=43"));
    bool seedDiffers = false;
    for (std::uint64_t k = 0; k < 64; ++k)
        seedDiffers |= injectFault(FaultSite::PointEval, k) != seed42[k];
    EXPECT_TRUE(seedDiffers);
}

TEST(FaultInjector, RateEndpointsAreExact)
{
    FaultGuard guard;
    installFaults(parseFaultSpec("point-eval=1"));
    for (std::uint64_t k = 0; k < 100; ++k)
        EXPECT_TRUE(injectFault(FaultSite::PointEval, k));
    // A site left at rate 0 never fires even while armed.
    for (std::uint64_t k = 0; k < 100; ++k)
        EXPECT_FALSE(injectFault(FaultSite::CacheLoadRead, k));
    FaultStats stats = faultStats();
    EXPECT_EQ(stats.checks[static_cast<int>(FaultSite::PointEval)],
              100u);
    EXPECT_EQ(stats.injected[static_cast<int>(FaultSite::PointEval)],
              100u);
    EXPECT_EQ(
        stats.injected[static_cast<int>(FaultSite::CacheLoadRead)], 0u);
}

// --- Adversarial cache entries -----------------------------------------

/** Stores one valid entry and returns (key, canonical, entry path). */
struct SeededCache
{
    ResultCache cache;
    LibraInputs inputs;
    LibraReport report;
    std::string canonical;
    std::uint64_t key;
    std::string file;

    explicit SeededCache(const std::string& dir)
        : cache(dir),
          inputs(miniInputs()),
          report(runLibra(inputs)),
          canonical(canonicalStudyKey(inputs)),
          key(studyCacheHash(inputs))
    {
        char name[32];
        std::snprintf(name, sizeof(name), "%016llx.json",
                      static_cast<unsigned long long>(key));
        file = dir + "/" + name;
        EXPECT_TRUE(cache.store(key, canonical, report));
    }
};

TEST(CacheAdversarial, TruncatedEntryIsQuarantinedAndRecoverable)
{
    std::string dir = freshDir("libra-fault-truncated");
    SeededCache s(dir);
    std::string full = readFile(s.file);
    {
        std::ofstream out(s.file, std::ios::trunc);
        out << full.substr(0, full.size() / 2);
    }

    setInformEnabled(false);
    LibraReport out;
    EXPECT_FALSE(s.cache.load(s.key, s.canonical, &out));
    EXPECT_EQ(s.cache.stats().quarantined, 1u);
    EXPECT_TRUE(std::filesystem::exists(s.file + ".corrupt"));
    EXPECT_FALSE(std::filesystem::exists(s.file));

    // Self-healing: the key is free again, a re-store round-trips.
    EXPECT_TRUE(s.cache.store(s.key, s.canonical, s.report));
    ASSERT_TRUE(s.cache.load(s.key, s.canonical, &out));
    EXPECT_EQ(out.optimized.bw, s.report.optimized.bw);
    std::filesystem::remove_all(dir);
}

TEST(CacheAdversarial, BitFlippedBodyFailsTheChecksum)
{
    std::string dir = freshDir("libra-fault-bitflip");
    SeededCache s(dir);
    std::string text = readFile(s.file);
    // Flip one digit inside the body (past the envelope header) —
    // still perfectly valid JSON, but not the text the FNV signed.
    std::size_t at = text.find_last_of("0123456789");
    ASSERT_NE(at, std::string::npos);
    text[at] = text[at] == '9' ? '8' : '9';
    {
        std::ofstream out(s.file, std::ios::trunc);
        out << text;
    }

    setInformEnabled(false);
    LibraReport out;
    EXPECT_FALSE(s.cache.load(s.key, s.canonical, &out));
    EXPECT_EQ(s.cache.stats().quarantined, 1u);
    EXPECT_TRUE(std::filesystem::exists(s.file + ".corrupt"));
    std::filesystem::remove_all(dir);
}

TEST(CacheAdversarial, VersionSkewIsQuarantinedEvenWithValidChecksum)
{
    std::string dir = freshDir("libra-fault-version");
    SeededCache s(dir);
    auto bodyText = [&s](double version) {
        Json body = Json::object();
        body["version"] = version;
        body["inputs"] = s.canonical;
        body["report"] = reportToJson(s.report);
        return body.dump();
    };

    // The fixture is a valid entry in the current layout: with the
    // engine's own version it hits.
    setInformEnabled(false);
    LibraReport out;
    writeEnvelope(s.file,
                  bodyText(static_cast<double>(kStudyCacheVersion)));
    ASSERT_TRUE(s.cache.load(s.key, s.canonical, &out));
    EXPECT_EQ(out.optimized.bw, s.report.optimized.bw);

    // The same entry from a "future" engine: correct checksum over
    // its body, wrong engine version.
    writeEnvelope(s.file,
                  bodyText(static_cast<double>(kStudyCacheVersion + 1)));
    EXPECT_FALSE(s.cache.load(s.key, s.canonical, &out));
    EXPECT_EQ(s.cache.stats().quarantined, 1u);
    EXPECT_TRUE(std::filesystem::exists(s.file + ".corrupt"));
    std::filesystem::remove_all(dir);
}

TEST(CacheAdversarial, FileShorterThanTheEnvelopeIsQuarantined)
{
    std::string dir = freshDir("libra-fault-short");
    SeededCache s(dir);
    const std::string full = readFile(s.file);
    setInformEnabled(false);
    std::size_t quarantined = 0;
    // Empty, one byte, mid-header, and header-but-no-tail files: the
    // fixed framing is bounds-checked before any offset is used.
    for (std::size_t len : {std::size_t{0}, std::size_t{1},
                            std::size_t{20}, std::size_t{34}}) {
        {
            std::ofstream out(s.file, std::ios::trunc);
            out << full.substr(0, len);
        }
        LibraReport out;
        EXPECT_FALSE(s.cache.load(s.key, s.canonical, &out)) << len;
        EXPECT_EQ(s.cache.stats().quarantined, ++quarantined) << len;
        EXPECT_TRUE(std::filesystem::exists(s.file + ".corrupt"));
        EXPECT_FALSE(std::filesystem::exists(s.file));
    }
    std::filesystem::remove_all(dir);
}

TEST(CacheAdversarial, DeeplyNestedBodyIsQuarantinedNotACrash)
{
    std::string dir = freshDir("libra-fault-deep");
    SeededCache s(dir);
    // Checksummed correctly, so the bytes reach the parser, which must
    // refuse the nesting instead of recursing off the stack.
    writeEnvelope(s.file, std::string(200000, '[') +
                              std::string(200000, ']'));
    setInformEnabled(false);
    LibraReport out;
    EXPECT_FALSE(s.cache.load(s.key, s.canonical, &out));
    EXPECT_EQ(s.cache.stats().quarantined, 1u);
    EXPECT_TRUE(std::filesystem::exists(s.file + ".corrupt"));
    std::filesystem::remove_all(dir);
}

TEST(CacheAdversarial, HashCollisionIsAMissButNotQuarantined)
{
    std::string dir = freshDir("libra-fault-collision");
    SeededCache s(dir);

    // A *valid* entry under this key whose inputs are someone else's:
    // exactly what a 64-bit collision looks like. The entry must not
    // be served — and must not be destroyed either (it is the rightful
    // result of the other point).
    setInformEnabled(false);
    LibraReport out;
    std::string other = canonicalStudyKey(miniInputs("SEED 9\n"));
    EXPECT_FALSE(s.cache.load(s.key, other, &out));
    EXPECT_EQ(s.cache.stats().collisions, 1u);
    EXPECT_EQ(s.cache.stats().quarantined, 0u);
    EXPECT_TRUE(std::filesystem::exists(s.file));

    // The rightful owner still hits.
    ASSERT_TRUE(s.cache.load(s.key, s.canonical, &out));
    std::filesystem::remove_all(dir);
}

TEST(CacheAdversarial, LegacyUncheckedEntryIsQuarantined)
{
    std::string dir = freshDir("libra-fault-legacy");
    SeededCache s(dir);
    // Pre-envelope format: body at top level, no "fnv" field.
    Json j = Json::object();
    j["version"] = static_cast<double>(kStudyCacheVersion);
    j["inputs"] = s.canonical;
    j["report"] = reportToJson(s.report);
    {
        std::ofstream out(s.file, std::ios::trunc);
        out << j.dump(1) << "\n";
    }

    setInformEnabled(false);
    LibraReport out;
    EXPECT_FALSE(s.cache.load(s.key, s.canonical, &out));
    EXPECT_EQ(s.cache.stats().quarantined, 1u);
    std::filesystem::remove_all(dir);
}

// --- Crash hygiene -----------------------------------------------------

TEST(CacheCrashSafety, StaleTmpFilesAreReapedOnOpen)
{
    std::string dir = freshDir("libra-fault-tmp");
    std::filesystem::create_directories(dir);
    // A tmp file from a pid that cannot exist, one with a garbage
    // suffix, and one owned by this live process.
    std::string dead = dir + "/aaaa.json.tmp.999999999";
    std::string garbage = dir + "/bbbb.json.tmp.notapid";
    std::string live =
        dir + "/cccc.json.tmp." + std::to_string(::getpid());
    for (const auto& f : {dead, garbage, live})
        std::ofstream(f) << "{}";

    setInformEnabled(false);
    ResultCache cache(dir);
    EXPECT_TRUE(cache.enabled());
    EXPECT_EQ(cache.stats().reapedTmp, 2u);
    EXPECT_FALSE(std::filesystem::exists(dead));
    EXPECT_FALSE(std::filesystem::exists(garbage));
    EXPECT_TRUE(std::filesystem::exists(live));
    std::filesystem::remove_all(dir);
}

TEST(CacheCrashSafety, UncreatableDirectoryDisablesTheCache)
{
    // A directory path under a regular file can never be created —
    // works even when the test runs as root (chmod tricks do not).
    std::string blocker = testing::TempDir() + "libra-fault-blocker";
    std::filesystem::remove_all(blocker);
    std::ofstream(blocker) << "not a directory";

    setInformEnabled(false);
    ResultCache cache(blocker + "/sub");
    EXPECT_FALSE(cache.enabled());

    LibraInputs inputs = miniInputs();
    LibraReport report = runLibra(inputs);
    std::string canonical = canonicalStudyKey(inputs);
    std::uint64_t key = studyCacheHash(inputs);
    LibraReport out;
    EXPECT_FALSE(cache.store(key, canonical, report));
    EXPECT_FALSE(cache.load(key, canonical, &out));
    std::filesystem::remove(blocker);
}

// --- Injected cache-I/O faults -----------------------------------------

TEST(CacheInjected, LoadFaultsAreMissesStoreFaultsDegrade)
{
    FaultGuard guard;
    std::string dir = freshDir("libra-fault-injected");
    SeededCache s(dir);
    setInformEnabled(false);

    installFaults(parseFaultSpec("cache-load-read=1"));
    LibraReport out;
    EXPECT_FALSE(s.cache.load(s.key, s.canonical, &out));
    EXPECT_GE(s.cache.stats().loadFailures, 1u);

    // Every write attempt fails -> the retries are exhausted, the
    // store degrades to a warning, and no tmp file is left behind.
    installFaults(parseFaultSpec("cache-store-write=1"));
    std::filesystem::remove(s.file);
    EXPECT_FALSE(s.cache.store(s.key, s.canonical, s.report));
    EXPECT_EQ(s.cache.stats().storeFailures, 1u);
    EXPECT_FALSE(std::filesystem::exists(s.file));
    bool tmpLeft = false;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir)) {
        tmpLeft |= entry.path().string().find(".tmp.") !=
                   std::string::npos;
    }
    EXPECT_FALSE(tmpLeft);

    // Same for the publish rename.
    installFaults(parseFaultSpec("cache-store-rename=1"));
    EXPECT_FALSE(s.cache.store(s.key, s.canonical, s.report));

    // Disarmed again, the cache works normally.
    clearFaults();
    EXPECT_TRUE(s.cache.store(s.key, s.canonical, s.report));
    ASSERT_TRUE(s.cache.load(s.key, s.canonical, &out));
    EXPECT_EQ(out.optimized.bw, s.report.optimized.bw);
    std::filesystem::remove_all(dir);
}

TEST(CacheInjected, OpenFaultDisablesInsteadOfAborting)
{
    FaultGuard guard;
    setInformEnabled(false);
    installFaults(parseFaultSpec("cache-open=1"));
    std::string dir = freshDir("libra-fault-open");
    ResultCache cache(dir);
    EXPECT_FALSE(cache.enabled());
}

// --- Scenario registration for matrix tests ----------------------------

const char*
faultMiniScenarioName()
{
    static const char* name = [] {
        Scenario s;
        s.name = "test-fault-mini";
        s.title = "fault-test all-ok scenario";
        s.build = [] {
            std::vector<LibraInputs> points;
            points.push_back(miniInputs("SEED 11\n"));
            points.push_back(miniInputs("SEED 12\n"));
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
        return "test-fault-mini";
    }();
    return name;
}

const char*
poisonScenarioName()
{
    static const char* name = [] {
        Scenario s;
        s.name = "test-poison";
        s.title = "fault-test scenario with one poisoned point";
        s.build = [] {
            std::vector<LibraInputs> points;
            points.push_back(miniInputs("SEED 13\n"));
            points.push_back(poisonedInputs());
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
        return "test-poison";
    }();
    return name;
}

// --- Sweep isolation ---------------------------------------------------

TEST(SweepIsolation, CapturesFailuresAndKeepsOkPointsBitIdentical)
{
    std::vector<LibraInputs> points;
    points.push_back(miniInputs());
    points.push_back(poisonedInputs("SW(4)_RI(8)"));
    points.push_back(miniInputs("SEED 5\n"));
    points.push_back(poisonedInputs("SW(2)_RI(2)"));

    SweepOutcome outcome = runLibraSweepIsolated(points);
    ASSERT_EQ(outcome.status.size(), 4u);
    EXPECT_EQ(outcome.failed, 2u);
    EXPECT_TRUE(outcome.status[0].ok);
    EXPECT_FALSE(outcome.status[1].ok);
    EXPECT_TRUE(outcome.status[2].ok);
    EXPECT_FALSE(outcome.status[3].ok);

    // The captured message is the FatalError text, prefix stripped.
    EXPECT_NE(outcome.status[1].error.find("ResNet-50"),
              std::string::npos);
    EXPECT_EQ(outcome.status[1].error.rfind("fatal: ", 0),
              std::string::npos);
    // The two poisoned shapes fail with distinct messages.
    EXPECT_NE(outcome.status[1].error, outcome.status[3].error);

    // Ok points are bit-identical to standalone runs.
    LibraReport solo = runLibra(miniInputs());
    EXPECT_EQ(outcome.reports[0].optimized.bw, solo.optimized.bw);
    EXPECT_EQ(outcome.reports[0].speedup, solo.speedup);
}

TEST(SweepIsolation, AbortRethrowsTheLowestIndexFailure)
{
    std::vector<LibraInputs> points;
    points.push_back(miniInputs());
    points.push_back(poisonedInputs("SW(4)_RI(8)"));
    points.push_back(poisonedInputs("SW(2)_RI(2)"));

    SweepOutcome outcome = runLibraSweepIsolated(points);
    ASSERT_FALSE(outcome.status[1].ok);

    // runLibraSweep must surface point 1's error — the lowest failing
    // index — no matter which worker hit its failure first.
    try {
        runLibraSweep(points);
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        EXPECT_EQ(std::string(e.what()),
                  "fatal: " + outcome.status[1].error);
    }
}

// --- Matrix isolation --------------------------------------------------

TEST(MatrixIsolation, AbortModeUnwindsIsolateModeCompletes)
{
    setInformEnabled(false);
    // Default (abort) keeps the classic unwind.
    EXPECT_THROW(runScenarioMatrix({poisonScenarioName()}), FatalError);

    MatrixOptions isolate;
    isolate.failMode = FailMode::Isolate;
    MatrixResult result =
        runScenarioMatrix({poisonScenarioName()}, isolate);
    EXPECT_EQ(result.failed, 1u);
    ASSERT_EQ(result.scenarios.size(), 1u);
    const ScenarioRun& run = result.scenarios[0];
    ASSERT_EQ(run.failures.size(), 1u);
    EXPECT_EQ(run.failures[0].index, 1u);
    EXPECT_EQ(run.failures[0].label, "SW(4)_RI(8)");
    EXPECT_NE(run.failures[0].error.find("ResNet-50"),
              std::string::npos);
    // A failing scenario suppresses its table rather than emitting a
    // silently misaligned partial one.
    EXPECT_TRUE(run.output.rows.empty());
}

TEST(MatrixIsolation, OtherScenariosStayByteIdentical)
{
    setInformEnabled(false);
    // The all-ok reference run of the healthy scenario alone.
    MatrixResult ok = runScenarioMatrix({faultMiniScenarioName()});
    ASSERT_EQ(ok.scenarios.size(), 1u);
    std::string okJson = scenarioRunToJson(ok.scenarios[0]).dump(1);
    // All-ok runs carry no "failures" field: pre-isolation schema.
    EXPECT_EQ(okJson.find("failures"), std::string::npos);

    MatrixOptions isolate;
    isolate.failMode = FailMode::Isolate;
    MatrixResult mixed = runScenarioMatrix(
        {faultMiniScenarioName(), poisonScenarioName()}, isolate);
    ASSERT_EQ(mixed.scenarios.size(), 2u);
    EXPECT_EQ(mixed.failed, 1u);

    // The healthy scenario's emission is byte-identical to the run
    // where nothing failed at all.
    EXPECT_EQ(scenarioRunToJson(mixed.scenarios[0]).dump(1), okJson);
    // The poisoned scenario's emission carries the failure record.
    std::string bad = scenarioRunToJson(mixed.scenarios[1]).dump(1);
    EXPECT_NE(bad.find("\"failures\""), std::string::npos);
    EXPECT_NE(bad.find("SW(4)_RI(8)"), std::string::npos);
}

TEST(MatrixIsolation, InjectedPointEvalFaultsAreDeterministic)
{
    FaultGuard guard;
    setInformEnabled(false);
    installFaults(parseFaultSpec("point-eval=1,seed=3"));

    MatrixOptions isolate;
    isolate.failMode = FailMode::Isolate;
    MatrixResult result =
        runScenarioMatrix({faultMiniScenarioName()}, isolate);
    // Rate 1: every cacheable point fails, with the injector's tag.
    EXPECT_EQ(result.failed, 2u);
    ASSERT_EQ(result.scenarios[0].failures.size(), 2u);
    EXPECT_EQ(result.scenarios[0].failures[0].error,
              "injected point-eval fault");

    // Abort mode: the same injection unwinds instead.
    EXPECT_THROW(runScenarioMatrix({faultMiniScenarioName()}),
                 FatalError);
}

TEST(MatrixFaults, InjectedCacheFaultsNeverChangeTheOutput)
{
    FaultGuard guard;
    setInformEnabled(false);

    // Fault-free, cache-free reference.
    MatrixResult clean = runScenarioMatrix({faultMiniScenarioName()});
    std::string cleanJson = matrixToJson(clean).dump(1);

    // Every cache I/O seam failing at once — open, load, store write,
    // publish rename — must leave the emitted matrix byte-identical:
    // the cache may only ever amortize, never alter.
    installFaults(parseFaultSpec(
        "cache-open=1,cache-load-read=1,cache-store-write=1,"
        "cache-store-rename=1,seed=9"));
    std::string dir = freshDir("libra-fault-matrix");
    MatrixOptions options;
    options.cacheDir = dir;
    MatrixResult faulty =
        runScenarioMatrix({faultMiniScenarioName()}, options);
    EXPECT_EQ(matrixToJson(faulty).dump(1), cleanJson);

    // A partial 25% load-fault rate over a warm cache: some hits are
    // replaced by recomputation, the bytes still cannot change.
    clearFaults();
    MatrixResult warm =
        runScenarioMatrix({faultMiniScenarioName()}, options);
    EXPECT_EQ(matrixToJson(warm).dump(1), cleanJson);
    installFaults(parseFaultSpec("cache-load-read=0.25,seed=9"));
    MatrixResult flaky =
        runScenarioMatrix({faultMiniScenarioName()}, options);
    EXPECT_EQ(matrixToJson(flaky).dump(1), cleanJson);
    std::filesystem::remove_all(dir);
}

TEST(MatrixFaults, OldLayoutEntriesAreQuarantinedOnceThenHit)
{
    setInformEnabled(false);
    MatrixResult clean = runScenarioMatrix({faultMiniScenarioName()});
    const std::string cleanJson = matrixToJson(clean).dump(1);

    std::string dir = freshDir("libra-fault-old-layout");
    MatrixOptions options;
    options.cacheDir = dir;
    MatrixResult fill =
        runScenarioMatrix({faultMiniScenarioName()}, options);
    ASSERT_EQ(fill.computed, fill.unique);
    std::vector<std::string> entries;
    for (const auto& e : std::filesystem::directory_iterator(dir))
        entries.push_back(e.path().string());
    ASSERT_EQ(entries.size(), fill.unique);
    for (const auto& file : entries)
        rewriteInOldLayout(file);

    // Every old entry fails the envelope check once, is recomputed,
    // and the run's bytes cannot change.
    MatrixResult rerun =
        runScenarioMatrix({faultMiniScenarioName()}, options);
    EXPECT_EQ(matrixToJson(rerun).dump(1), cleanJson);
    EXPECT_EQ(rerun.fromCache, 0u);
    EXPECT_EQ(rerun.computed, rerun.unique);
    for (const auto& file : entries)
        EXPECT_TRUE(std::filesystem::exists(file + ".corrupt")) << file;

    // The recomputed entries are stored in the current layout: the
    // next run is served entirely from the cache, quarantining none.
    MatrixResult next =
        runScenarioMatrix({faultMiniScenarioName()}, options);
    EXPECT_EQ(matrixToJson(next).dump(1), cleanJson);
    EXPECT_EQ(next.fromCache, next.unique);
    EXPECT_EQ(next.computed, 0u);
    std::size_t files = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
        (void)e;
        ++files;
    }
    EXPECT_EQ(files, 2 * entries.size());
    std::filesystem::remove_all(dir);
}

TEST(MatrixCsv, FailureRowsCarryTheirOwnHeader)
{
    setInformEnabled(false);
    MatrixOptions isolate;
    isolate.failMode = FailMode::Isolate;
    MatrixResult mixed = runScenarioMatrix(
        {faultMiniScenarioName(), poisonScenarioName()}, isolate);
    ASSERT_EQ(mixed.failed, 1u);

    std::ostringstream os;
    emitMatrixCsv(mixed, os);
    const std::string csv = os.str();

    // Failure rows have index/label/error columns, which do not line
    // up with the scenario's label/metric row header — so they must
    // sit under their own header, and every failure row must carry
    // exactly its five columns.
    const std::string failureHeader = "scenario,kind,index,label,error";
    std::size_t at = csv.find(failureHeader);
    ASSERT_NE(at, std::string::npos);
    std::size_t rowStart = csv.find('\n', at) + 1;
    std::size_t rowEnd = csv.find('\n', rowStart);
    std::string row = csv.substr(rowStart, rowEnd - rowStart);
    EXPECT_EQ(row.rfind("test-poison,failure,1,SW(4)_RI(8),", 0), 0u)
        << row;

    // All-ok output has no failure section at all — byte-identical to
    // the pre-isolation emission.
    MatrixResult ok = runScenarioMatrix({faultMiniScenarioName()});
    std::ostringstream okOs;
    emitMatrixCsv(ok, okOs);
    EXPECT_EQ(okOs.str().find("failure"), std::string::npos);
}

} // namespace
} // namespace libra
