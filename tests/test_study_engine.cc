/**
 * @file
 * Tests for the scenario-matrix study engine: the JSON round-trip
 * layer, content-addressed cache keys, batch dedup, cache hit/miss
 * behavior, and the determinism contract that a cached re-run emits
 * byte-identical output.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/study_config.hh"
#include "study/cache.hh"
#include "study/matrix.hh"

namespace libra {
namespace {

// --- JSON --------------------------------------------------------------

TEST(StudyJson, DumpParseRoundTrip)
{
    Json j = Json::object();
    j["name"] = "fig13";
    j["count"] = 48;
    j["pi"] = 3.141592653589793;
    j["tiny"] = 4.9e-324; // Denormal min: worst case for formatting.
    j["flag"] = true;
    j["nothing"] = Json();
    Json arr = Json::array();
    arr.push(1.5);
    arr.push("two");
    j["list"] = std::move(arr);

    Json back = Json::parse(j.dump());
    EXPECT_EQ(back.at("name").asString(), "fig13");
    EXPECT_EQ(back.at("count").asNumber(), 48.0);
    EXPECT_EQ(back.at("pi").asNumber(), 3.141592653589793);
    EXPECT_EQ(back.at("tiny").asNumber(), 4.9e-324);
    EXPECT_TRUE(back.at("flag").asBool());
    EXPECT_TRUE(back.at("nothing").isNull());
    EXPECT_EQ(back.at("list").items()[0].asNumber(), 1.5);
    EXPECT_EQ(back.at("list").items()[1].asString(), "two");

    // Dumping preserves insertion order, so dump is idempotent.
    EXPECT_EQ(j.dump(), back.dump());
    EXPECT_EQ(j.dump(2), back.dump(2));
}

TEST(StudyJson, StringEscapes)
{
    Json j = Json::object();
    j["s"] = "quote \" backslash \\ newline \n tab \t";
    Json back = Json::parse(j.dump());
    EXPECT_EQ(back.at("s").asString(),
              "quote \" backslash \\ newline \n tab \t");
}

TEST(StudyJson, RejectsMalformedInput)
{
    EXPECT_THROW(Json::parse(""), FatalError);
    EXPECT_THROW(Json::parse("{"), FatalError);
    EXPECT_THROW(Json::parse("[1,]"), FatalError);
    EXPECT_THROW(Json::parse("{\"a\":1} trailing"), FatalError);
    EXPECT_THROW(Json::parse("nul"), FatalError);
}

TEST(StudyJson, RejectsUnterminatedStringsAndEscapes)
{
    EXPECT_THROW(Json::parse("\"abc"), FatalError);
    EXPECT_THROW(Json::parse("\"abc\\"), FatalError);
    EXPECT_THROW(Json::parse("[\"a\\\"]"), FatalError);
    EXPECT_EQ(Json::parse("\"a\\\"b\\\\c\"").asString(), "a\"b\\c");
}

TEST(StudyJson, NestingDeeperThanTheLimitThrows)
{
    // The request line that used to overflow the parser's stack.
    const std::string hostile = "{\"op\":" + std::string(200000, '[') +
                                std::string(200000, ']') + "}";
    EXPECT_THROW(Json::parse(hostile), FatalError);

    // Exactly kMaxJsonDepth levels parse; one more does not.
    auto nested = [](int depth) {
        return std::string(static_cast<std::size_t>(depth), '[') +
               std::string(static_cast<std::size_t>(depth), ']');
    };
    EXPECT_NO_THROW(Json::parse(nested(kMaxJsonDepth)));
    EXPECT_THROW(Json::parse(nested(kMaxJsonDepth + 1)), FatalError);
    // Depth is nesting, not count: many shallow siblings are fine.
    std::string wide = "[";
    for (int i = 0; i < 2 * kMaxJsonDepth; ++i)
        wide += i ? ",{\"a\":[]}" : "{\"a\":[]}";
    wide += "]";
    EXPECT_EQ(Json::parse(wide).items().size(),
              static_cast<std::size_t>(2 * kMaxJsonDepth));
}

TEST(StudyJson, NumberFormattingIsShortestRoundTrip)
{
    EXPECT_EQ(jsonNumberToString(48.0), "48");
    EXPECT_EQ(jsonNumberToString(-3.0), "-3");
    EXPECT_EQ(jsonNumberToString(0.1), "0.1");
    double v = 1.0 / 3.0;
    EXPECT_EQ(std::strtod(jsonNumberToString(v).c_str(), nullptr), v);
}

// --- Cache keys --------------------------------------------------------

LibraInputs
miniInputs(const char* extra = "")
{
    std::string text = "NETWORK SW(4)_RI(4)\nTOTAL_BW 200\n"
                       "STARTS 2\nWORKLOAD resnet50\n";
    text += extra;
    return parseStudyConfigString(text);
}

TEST(StudyCacheKey, IdenticalInputsHashEqual)
{
    EXPECT_EQ(studyCacheHash(miniInputs()), studyCacheHash(miniInputs()));
    EXPECT_EQ(canonicalStudyKey(miniInputs()),
              canonicalStudyKey(miniInputs()));
}

TEST(StudyCacheKey, ResultRelevantFieldsChangeTheHash)
{
    std::uint64_t base = studyCacheHash(miniInputs());
    EXPECT_NE(base, studyCacheHash(miniInputs("SEED 9\n")));
    EXPECT_NE(base, studyCacheHash(miniInputs("IN_NETWORK\n")));
    EXPECT_NE(base, studyCacheHash(miniInputs("CONSTRAINT B1 <= 20\n")));
    EXPECT_NE(base, studyCacheHash(miniInputs("COST Pod LINK 9.9\n")));
    EXPECT_NE(base, studyCacheHash(miniInputs("DOLLAR_CAP 1e6\n")));
    EXPECT_NE(base, studyCacheHash(miniInputs("LOOP TP_DP_OVERLAP\n")));
    EXPECT_NE(base,
              studyCacheHash(miniInputs("OBJECTIVE PERF_PER_COST\n")));

    LibraInputs bw = miniInputs();
    bw.config.totalBw = 300.0;
    EXPECT_NE(base, studyCacheHash(bw));

    LibraInputs weights = miniInputs();
    weights.targets[0].weight = 2.0;
    EXPECT_NE(base, studyCacheHash(weights));

    LibraInputs workload = miniInputs();
    workload.targets[0].workload.layers[0].fwdCompute += 1e-3;
    EXPECT_NE(base, studyCacheHash(workload));
}

TEST(StudyCacheKey, SolverPipelineIsPartOfThePointIdentity)
{
    // Different pipelines produce different reports, so they must
    // never share a cache slot; the same spec must keep hitting.
    std::uint64_t base = studyCacheHash(miniInputs());
    std::uint64_t cmaes = studyCacheHash(miniInputs("SOLVER cmaes\n"));
    std::uint64_t de = studyCacheHash(miniInputs("SOLVER de\n"));
    std::uint64_t chain = studyCacheHash(
        miniInputs("SOLVER cmaes,pattern-search\n"));
    EXPECT_NE(base, cmaes);
    EXPECT_NE(base, de);
    EXPECT_NE(cmaes, de);
    EXPECT_NE(cmaes, chain);
    EXPECT_EQ(cmaes, studyCacheHash(miniInputs("SOLVER cmaes\n")));
    EXPECT_EQ(canonicalStudyKey(miniInputs("SOLVER cmaes\n")),
              canonicalStudyKey(miniInputs("SOLVER cmaes\n")));

    // The default (empty) pipeline must keep the historical key text:
    // version-1 cache entries and goldens stay valid without a bump.
    EXPECT_EQ(canonicalStudyKey(miniInputs())
                  .find("solver("), std::string::npos);
}

TEST(StudyCacheKey, SolverSpecRoundTripsThroughStoreAndLoad)
{
    std::string dir = testing::TempDir() + "libra-cache-solver";
    std::filesystem::remove_all(dir);
    ResultCache cache(dir);

    LibraInputs inputs = miniInputs("SOLVER de\n");
    LibraReport report = runLibra(inputs);
    std::string canonical = canonicalStudyKey(inputs);
    std::uint64_t key = studyCacheHash(inputs);

    cache.store(key, canonical, report);
    LibraReport out;
    ASSERT_TRUE(cache.load(key, canonical, &out));
    EXPECT_EQ(report.optimized.bw, out.optimized.bw);

    // A different solver spec is a different canonical text: even a
    // forced key collision must be detected and treated as a miss.
    setInformEnabled(false);
    EXPECT_FALSE(cache.load(
        key, canonicalStudyKey(miniInputs("SOLVER cmaes\n")), &out));
    std::filesystem::remove_all(dir);
}

TEST(StudyCacheKey, ExploreSpecFoldedOnlyWhenNonDefault)
{
    // The default (and the explicit exhaustive default) must keep the
    // historical key text: version-1 cache entries and goldens stay
    // valid without a kStudyCacheVersion bump.
    std::uint64_t base = studyCacheHash(miniInputs());
    EXPECT_EQ(canonicalStudyKey(miniInputs()).find("explore("),
              std::string::npos);
    EXPECT_EQ(base,
              studyCacheHash(miniInputs("EXPLORE exhaustive\n")));

    // A non-default strategy — and each distinct parameterization —
    // is its own point identity; identical specs keep hitting.
    std::uint64_t prune = studyCacheHash(miniInputs("EXPLORE prune\n"));
    std::uint64_t tuned =
        studyCacheHash(miniInputs("EXPLORE prune,keep=0.25\n"));
    EXPECT_NE(base, prune);
    EXPECT_NE(prune, tuned);
    EXPECT_EQ(prune, studyCacheHash(miniInputs("EXPLORE prune\n")));
    EXPECT_NE(canonicalStudyKey(miniInputs("EXPLORE prune\n"))
                  .find("explore(prune)"),
              std::string::npos);
    // Explicit defaults canonicalize away inside the tag too.
    EXPECT_EQ(prune,
              studyCacheHash(miniInputs("EXPLORE prune,keep=0.5\n")));
}

TEST(StudyCacheKey, ThreadCountDoesNotChangeTheHash)
{
    // Results are bit-identical at any thread count, so parallelism is
    // not part of a point's identity.
    LibraInputs threads = miniInputs();
    threads.threads = 7;
    EXPECT_EQ(studyCacheHash(miniInputs()), studyCacheHash(threads));

    LibraInputs serial = miniInputs();
    serial.config.search.parallel = false;
    EXPECT_EQ(studyCacheHash(miniInputs()), studyCacheHash(serial));
}

TEST(StudyCacheKey, CustomTimingModelIsNotCacheable)
{
    LibraInputs fn = miniInputs();
    fn.config.estimator.commTimeFn =
        [](CollectiveType, Bytes, const std::vector<DimSpan>&,
           const BwConfig&, bool) { return CollectiveTiming{}; };
    EXPECT_FALSE(studyPointCacheable(fn));
    EXPECT_THROW(canonicalStudyKey(fn), FatalError);
}

// --- Report serialization ----------------------------------------------

TEST(StudyCache, ReportJsonRoundTripIsBitExact)
{
    LibraReport report = runLibra(miniInputs());
    LibraReport back = reportFromJson(
        Json::parse(reportToJson(report).dump()));
    EXPECT_EQ(report.optimized.bw, back.optimized.bw);
    EXPECT_EQ(report.optimized.weightedTime,
              back.optimized.weightedTime);
    EXPECT_EQ(report.optimized.cost, back.optimized.cost);
    EXPECT_EQ(report.optimized.objectiveValue,
              back.optimized.objectiveValue);
    EXPECT_EQ(report.optimized.perWorkloadTime,
              back.optimized.perWorkloadTime);
    EXPECT_EQ(report.equalBw.bw, back.equalBw.bw);
    EXPECT_EQ(report.equalBw.weightedTime, back.equalBw.weightedTime);
    EXPECT_EQ(report.speedup, back.speedup);
    EXPECT_EQ(report.perfPerCostGain, back.perfPerCostGain);
}

TEST(StudyCache, StoreAndLoad)
{
    std::string dir = testing::TempDir() + "libra-cache-store";
    std::filesystem::remove_all(dir);
    ResultCache cache(dir);

    LibraInputs inputs = miniInputs();
    LibraReport report = runLibra(inputs);
    std::string canonical = canonicalStudyKey(inputs);
    std::uint64_t key = studyCacheHash(inputs);
    EXPECT_EQ(key, studyCacheHashOfKey(canonical));

    LibraReport out;
    EXPECT_FALSE(cache.load(key, canonical, &out));
    cache.store(key, canonical, report);
    ASSERT_TRUE(cache.load(key, canonical, &out));
    EXPECT_EQ(report.optimized.bw, out.optimized.bw);
    EXPECT_EQ(report.speedup, out.speedup);

    // A hash collision (same key, different canonical inputs) must be
    // detected on load and treated as a miss, never served.
    setInformEnabled(false);
    EXPECT_FALSE(
        cache.load(key, canonicalStudyKey(miniInputs("SEED 9\n")),
                   &out));
    std::filesystem::remove_all(dir);
}

TEST(StudyCache, CorruptEntriesAreTreatedAsMisses)
{
    std::string dir = testing::TempDir() + "libra-cache-corrupt";
    std::filesystem::remove_all(dir);
    ResultCache cache(dir);

    LibraInputs inputs = miniInputs();
    std::uint64_t key = studyCacheHash(inputs);
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.json",
                  static_cast<unsigned long long>(key));
    {
        std::ofstream file(dir + "/" + name);
        file << "{ not json";
    }
    LibraReport out;
    setInformEnabled(false);
    EXPECT_FALSE(cache.load(key, canonicalStudyKey(inputs), &out));
    std::filesystem::remove_all(dir);
}

// --- Registry and matrix -----------------------------------------------

/** A tiny two-point scenario, registered once per process. */
const char*
miniScenarioName()
{
    static const char* name = [] {
        Scenario s;
        s.name = "test-mini";
        s.title = "engine-test scenario";
        s.build = [] {
            // Two distinct points plus one duplicate of the first:
            // the matrix runner must dedup it.
            std::vector<LibraInputs> points;
            points.push_back(miniInputs());
            points.push_back(miniInputs("SEED 5\n"));
            points.push_back(miniInputs());
            return points;
        };
        s.format = [](const std::vector<LibraInputs>& points,
                      const std::vector<LibraReport>& reports) {
            ScenarioOutput out;
            for (std::size_t i = 0; i < points.size(); ++i) {
                ScenarioRow row;
                row.label("point", std::to_string(i));
                row.metric("speedup", reports[i].speedup);
                row.metric("cost", reports[i].optimized.cost);
                out.rows.push_back(std::move(row));
            }
            out.summarize("points",
                          static_cast<double>(points.size()));
            return out;
        };
        ScenarioRegistry::global().add(std::move(s));
        return "test-mini";
    }();
    return name;
}

TEST(ScenarioRegistry, BuiltinScenariosAreRegistered)
{
    const ScenarioRegistry& registry = ScenarioRegistry::global();
    for (const char* name :
         {"tbl1", "tbl2", "tbl3", "fig09", "fig10", "fig13", "fig14",
          "fig15", "fig16", "fig17", "fig18", "fig21"}) {
        EXPECT_NE(registry.find(name), nullptr) << name;
    }
    for (const auto& name : goldenScenarioNames())
        EXPECT_NE(registry.find(name), nullptr) << name;
    EXPECT_EQ(registry.find("no-such-scenario"), nullptr);
}

TEST(ScenarioRegistry, RejectsDuplicatesAndUnknownNames)
{
    miniScenarioName();
    Scenario dup;
    dup.name = "test-mini";
    dup.format = [](const std::vector<LibraInputs>&,
                    const std::vector<LibraReport>&) {
        return ScenarioOutput{};
    };
    EXPECT_THROW(ScenarioRegistry::global().add(std::move(dup)),
                 FatalError);
    EXPECT_THROW(runScenarioMatrix({"no-such-scenario"}), FatalError);
}

TEST(ScenarioMatrix, DedupsIdenticalPointsWithinABatch)
{
    MatrixResult result = runScenarioMatrix({miniScenarioName()});
    EXPECT_EQ(result.points, 3u);
    EXPECT_EQ(result.unique, 2u);
    EXPECT_EQ(result.computed, 2u);
    EXPECT_EQ(result.fromCache, 0u);
    ASSERT_EQ(result.scenarios.size(), 1u);
    const auto& rows = result.scenarios[0].output.rows;
    ASSERT_EQ(rows.size(), 3u);
    // The duplicate point's report is the shared slot's report.
    EXPECT_EQ(rows[0].metrics, rows[2].metrics);
}

TEST(ScenarioMatrix, SecondRunIsServedFromCacheByteIdentically)
{
    std::string dir = testing::TempDir() + "libra-cache-matrix";
    std::filesystem::remove_all(dir);
    MatrixOptions options;
    options.cacheDir = dir;

    MatrixResult first = runScenarioMatrix({miniScenarioName()},
                                           options);
    EXPECT_EQ(first.fromCache, 0u);
    EXPECT_EQ(first.computed, 2u);

    MatrixResult second = runScenarioMatrix({miniScenarioName()},
                                            options);
    EXPECT_EQ(second.computed, 0u);
    EXPECT_EQ(second.fromCache, second.points);

    EXPECT_EQ(matrixToJson(first).dump(1), matrixToJson(second).dump(1));
    std::filesystem::remove_all(dir);
}

TEST(ScenarioMatrix, RunsMultipleScenariosAsOneBatch)
{
    // tbl1 contributes zero points; test-mini contributes the rest.
    MatrixResult result =
        runScenarioMatrix({"tbl1", miniScenarioName()});
    ASSERT_EQ(result.scenarios.size(), 2u);
    EXPECT_EQ(result.scenarios[0].name, "tbl1");
    EXPECT_EQ(result.scenarios[0].points, 0u);
    EXPECT_EQ(result.scenarios[1].points, 3u);
    EXPECT_EQ(result.points, 3u);

    // tbl1's analytic rows are present and correct (Fig. 12: $1,722).
    double total = 0.0;
    for (const auto& [k, v] : result.scenarios[0].output.summary) {
        if (k == "fig12_total")
            total = v;
    }
    EXPECT_NEAR(total, 1722.0, 1e-9);
}

} // namespace
} // namespace libra
