/**
 * @file
 * Round-trip property test for the study-file language: for a corpus
 * covering every directive in study_config.hh, serializing the parsed
 * LibraInputs back to text and reparsing must reproduce the inputs
 * exactly (parse ∘ serialize ∘ parse == parse), and the serializer
 * must be a fixpoint (serialize ∘ parse ∘ serialize == serialize).
 *
 * WORKLOAD_FILE is the one deliberately unserializable directive — a
 * file-loaded workload has no study-file name — and is pinned as such.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/logging.hh"
#include "core/study_config.hh"

namespace libra {
namespace {

/**
 * The directive corpus. Every keyword the parser understands appears
 * in at least one entry: NETWORK, TOTAL_BW, OBJECTIVE, LOOP,
 * CONSTRAINT, WORKLOAD (+WEIGHT), NORMALIZE_WEIGHTS, IN_NETWORK,
 * DOLLAR_CAP, THREADS, SEED, STARTS, MAX_EVALS, BACKEND, EXPLORE, and
 * COST.
 */
const char* kCorpus[] = {
    // Minimal study.
    "NETWORK RI(4)_SW(8)\nWORKLOAD resnet50\n",
    // Objectives and loops.
    "NETWORK RI(16)_FC(8)_SW(32)\n"
    "TOTAL_BW 400\n"
    "OBJECTIVE PERF_PER_COST\n"
    "LOOP TP_DP_OVERLAP\n"
    "WORKLOAD gpt3\n",
    "NETWORK SW(16)_SW(8)_SW(4)\n"
    "OBJECTIVE PERF\n"
    "LOOP NO_OVERLAP\n"
    "WORKLOAD msft1t\n",
    // Constraints (absolute, relational, odd spacing).
    "NETWORK RI(4)_FC(8)_RI(4)_SW(32)\n"
    "TOTAL_BW 500\n"
    "CONSTRAINT B4 <= 50\n"
    "CONSTRAINT   B1 >= B2\n"
    "CONSTRAINT B2  ==  2 * B3\n"
    "WORKLOAD turing-nlg\n",
    // Weights, normalization, multiple targets.
    "NETWORK RI(16)_FC(8)_SW(32)\n"
    "WORKLOAD gpt3 WEIGHT 2.5\n"
    "WORKLOAD msft1t WEIGHT 0.125\n"
    "WORKLOAD dlrm\n"
    "NORMALIZE_WEIGHTS\n",
    // In-network collectives plus search knobs.
    "NETWORK FC(8)_RI(16)_SW(8)\n"
    "IN_NETWORK\n"
    "SEED 7\n"
    "STARTS 5\n"
    "WORKLOAD msft1t\n",
    // Per-start eval budget (what prune's screening rounds set; the
    // wire form of a screened point depends on this round-tripping).
    "NETWORK RI(4)_SW(8)\n"
    "MAX_EVALS 240\n"
    "WORKLOAD resnet50\n",
    "NETWORK RI(4)_SW(8)\n"
    "STARTS 1\n"
    "MAX_EVALS 120\n"
    "EXPLORE prune\n"
    "WORKLOAD resnet50\n",
    // Dollar cap (implies a relaxed BW budget) and threads.
    "NETWORK RI(4)_SW(4)_SW(8)_SW(16)\n"
    "TOTAL_BW 800\n"
    "DOLLAR_CAP 1.5e7\n"
    "THREADS 8\n"
    "WORKLOAD msft1t WEIGHT 1.0\n",
    // Timing backends: the simulation backend and the (normalized-
    // away) explicit default.
    "NETWORK RI(4)_SW(8)\n"
    "BACKEND chunk-sim\n"
    "WORKLOAD resnet50\n",
    "NETWORK RI(4)_SW(8)\n"
    "BACKEND analytical\n"
    "WORKLOAD resnet50\n",
    // Exploration strategies: prune and the normalized-away explicit
    // default.
    "NETWORK RI(4)_SW(8)\n"
    "EXPLORE prune\n"
    "WORKLOAD resnet50\n",
    "NETWORK RI(4)_SW(8)\n"
    "EXPLORE exhaustive\n"
    "WORKLOAD resnet50\n",
    // Cost-model overrides at several levels, non-integral prices.
    "NETWORK RI(4)_FC(8)_RI(4)_SW(32)\n"
    "COST Pod LINK 9.9 SWITCH 21.5 NIC 40.0\n"
    "COST Package LINK 3.25\n"
    "COST Chiplet LINK 1.75\n"
    "WORKLOAD gpt3\n",
    // Everything at once.
    "NETWORK RI(16)_FC(8)_SW(32)\n"
    "TOTAL_BW 123.456\n"
    "OBJECTIVE PERF_PER_COST\n"
    "LOOP TP_DP_OVERLAP\n"
    "CONSTRAINT B3 <= 50\n"
    "CONSTRAINT B1 >= B2\n"
    "WORKLOAD gpt3 WEIGHT 0.3333333333333333\n"
    "WORKLOAD turing-nlg WEIGHT 3\n"
    "NORMALIZE_WEIGHTS\n"
    "IN_NETWORK\n"
    "DOLLAR_CAP 2.75e6\n"
    "THREADS 3\n"
    "SEED 42\n"
    "STARTS 4\n"
    "COST Node LINK 5.5 SWITCH 14.25\n",
};

TEST(StudyRoundTrip, ParseSerializeParseIsIdentity)
{
    for (const char* text : kCorpus) {
        SCOPED_TRACE(text);
        LibraInputs first = parseStudyConfigString(text);
        std::string serialized = studyConfigToString(first);
        LibraInputs second = parseStudyConfigString(serialized);
        EXPECT_TRUE(studyInputsEqual(first, second)) << serialized;
    }
}

TEST(StudyRoundTrip, SerializeIsAFixpoint)
{
    for (const char* text : kCorpus) {
        SCOPED_TRACE(text);
        std::string once =
            studyConfigToString(parseStudyConfigString(text));
        std::string twice =
            studyConfigToString(parseStudyConfigString(once));
        EXPECT_EQ(once, twice);
    }
}

TEST(StudyRoundTrip, EqualityIsDiscriminating)
{
    LibraInputs base = parseStudyConfigString(
        "NETWORK RI(4)_SW(8)\nTOTAL_BW 300\nWORKLOAD resnet50\n");
    EXPECT_TRUE(studyInputsEqual(base, base));

    auto variant = [](const char* text) {
        return parseStudyConfigString(text);
    };
    EXPECT_FALSE(studyInputsEqual(
        base,
        variant("NETWORK RI(4)_SW(8)\nTOTAL_BW 301\n"
                "WORKLOAD resnet50\n")));
    EXPECT_FALSE(studyInputsEqual(
        base, variant("NETWORK RI(4)_SW(8)\nTOTAL_BW 300\n"
                      "WORKLOAD dlrm\n")));
    EXPECT_FALSE(studyInputsEqual(
        base, variant("NETWORK RI(4)_SW(8)\nTOTAL_BW 300\n"
                      "WORKLOAD resnet50 WEIGHT 2\n")));
    EXPECT_FALSE(studyInputsEqual(
        base, variant("NETWORK RI(4)_SW(8)\nTOTAL_BW 300\n"
                      "WORKLOAD resnet50\nIN_NETWORK\n")));
    EXPECT_FALSE(studyInputsEqual(
        base, variant("NETWORK RI(4)_SW(8)\nTOTAL_BW 300\n"
                      "WORKLOAD resnet50\nCOST Pod LINK 9\n")));
    EXPECT_FALSE(studyInputsEqual(
        base, variant("NETWORK RI(4)_SW(8)\nTOTAL_BW 300\n"
                      "WORKLOAD resnet50\nMAX_EVALS 64\n")));
}

TEST(StudyRoundTrip, MaxEvalsDirectiveValidatesAndDefaults)
{
    // 0 is the in-memory default (unlimited) and is not emitted.
    LibraInputs zero = parseStudyConfigString(
        "NETWORK RI(4)_SW(8)\nMAX_EVALS 0\nWORKLOAD resnet50\n");
    EXPECT_EQ(zero.config.search.maxEvalsPerStart, 0);
    EXPECT_EQ(studyConfigToString(zero).find("MAX_EVALS"),
              std::string::npos);

    LibraInputs set = parseStudyConfigString(
        "NETWORK RI(4)_SW(8)\nMAX_EVALS 240\nWORKLOAD resnet50\n");
    EXPECT_EQ(set.config.search.maxEvalsPerStart, 240);
    EXPECT_NE(studyConfigToString(set).find("MAX_EVALS 240\n"),
              std::string::npos);

    EXPECT_THROW(parseStudyConfigString(
                     "NETWORK RI(4)_SW(8)\nMAX_EVALS -1\n"
                     "WORKLOAD resnet50\n"),
                 FatalError);
    EXPECT_THROW(parseStudyConfigString(
                     "NETWORK RI(4)_SW(8)\nMAX_EVALS 2.5\n"
                     "WORKLOAD resnet50\n"),
                 FatalError);
    EXPECT_THROW(parseStudyConfigString(
                     "NETWORK RI(4)_SW(8)\nMAX_EVALS nan\n"
                     "WORKLOAD resnet50\n"),
                 FatalError);
}

TEST(StudyRoundTrip, ExploreDirectiveCanonicalizesAndDiscriminates)
{
    // The parser stores the canonical spec, so an explicit default
    // vanishes before serialization.
    LibraInputs in = parseStudyConfigString(
        "NETWORK RI(4)_SW(8)\n"
        "EXPLORE prune\n"
        "WORKLOAD resnet50\n");
    EXPECT_EQ(in.explore, "prune");
    EXPECT_NE(studyConfigToString(in).find("EXPLORE prune\n"),
              std::string::npos);

    LibraInputs def = parseStudyConfigString(
        "NETWORK RI(4)_SW(8)\nEXPLORE exhaustive\n"
        "WORKLOAD resnet50\n");
    EXPECT_EQ(def.explore, "");
    EXPECT_EQ(studyConfigToString(def).find("EXPLORE"),
              std::string::npos);

    LibraInputs base = parseStudyConfigString(
        "NETWORK RI(4)_SW(8)\nWORKLOAD resnet50\n");
    EXPECT_TRUE(studyInputsEqual(base, def));
    EXPECT_FALSE(studyInputsEqual(base, in));
}

TEST(StudyRoundTrip, UnknownExplorerIsReportedWithItsLine)
{
    try {
        parseStudyConfigString("NETWORK RI(4)_SW(8)\n"
                               "WORKLOAD resnet50\n"
                               "EXPLORE warp-drive\n");
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("line 3"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("warp-drive"),
                  std::string::npos)
            << e.what();
    }
}

TEST(StudyRoundTrip, SolverLineIsAnUnknownKeywordWithItsLine)
{
    try {
        parseStudyConfigString("NETWORK RI(4)_SW(8)\n"
                               "SOLVER nelder-mead\n"
                               "WORKLOAD resnet50\n");
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "study line 2: unknown keyword 'SOLVER'"),
                  std::string::npos)
            << e.what();
    }
}

TEST(StudyRoundTrip, SerializedNumbersSurviveExactly)
{
    // Shortest round-trip formatting must reproduce awkward doubles
    // bit-exactly through serialize -> parse.
    LibraInputs in = parseStudyConfigString(
        "NETWORK RI(4)_SW(8)\nTOTAL_BW 0.30000000000000004\n"
        "WORKLOAD resnet50 WEIGHT 0.1\nDOLLAR_CAP 12345678.901234567\n");
    LibraInputs back =
        parseStudyConfigString(studyConfigToString(in));
    EXPECT_EQ(back.config.totalBw, 0.30000000000000004);
    EXPECT_EQ(back.targets[0].weight, 0.1);
    EXPECT_EQ(back.config.budgetCap, 12345678.901234567);

    // Seeds are integers parsed exactly; none passes through a double,
    // which would turn 2^53 + 1 into 2^53 and 2^64 - 1 into 0.
    for (std::uint64_t seed :
         {9007199254740993ull, 18446744073709551615ull}) {
        SCOPED_TRACE(seed);
        LibraInputs seeded = parseStudyConfigString(
            "NETWORK RI(4)_SW(8)\nSEED " + std::to_string(seed) +
            "\nWORKLOAD resnet50\n");
        EXPECT_EQ(seeded.config.search.seed, seed);
        EXPECT_EQ(parseStudyConfigString(studyConfigToString(seeded))
                      .config.search.seed,
                  seed);
    }
}

TEST(StudyRoundTrip, UnserializableInputsAreReported)
{
    // WORKLOAD_FILE / programmatic workloads have no study-file name.
    LibraInputs custom = parseStudyConfigString(
        "NETWORK RI(4)_SW(8)\nWORKLOAD resnet50\n");
    LayerList& edited = custom.targets[0].workload.layers;
    std::vector<Layer> layers(edited.begin(), edited.end());
    layers[0].fwdCompute += 1.0;
    edited = std::move(layers);
    EXPECT_THROW(studyConfigToString(custom), FatalError);

    LibraInputs relax = parseStudyConfigString(
        "NETWORK RI(4)_SW(8)\nWORKLOAD resnet50\n");
    relax.config.relaxTotalBw = true; // No DOLLAR_CAP to imply it.
    EXPECT_THROW(studyConfigToString(relax), FatalError);
}

} // namespace
} // namespace libra
