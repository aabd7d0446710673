/**
 * @file
 * The point wire codec (src/study/shard.hh): design points ship to
 * shard workers as serialized study files plus a canonical-key hash.
 * Two properties carry the whole scheme:
 *
 *  1. Round-trip key identity — for every serializable study,
 *     `LibraInputs -> studyConfigToString -> parseStudyConfigString`
 *     reproduces the exact canonicalStudyKey (and thus pointWireKey),
 *     so a worker's cache writes land under the master's keys and the
 *     skew check (reparse-key vs. frame-key) passes iff both sides
 *     agree on the study language.
 *
 *  2. Malformed frames are rejected loudly — parseEvalPayload fatals
 *     on every structural violation instead of guessing, because a
 *     silently mis-parsed point would poison the shared cache.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "core/study_config.hh"
#include "study/cache.hh"
#include "study/shard.hh"

namespace libra {
namespace {

/**
 * Directive corpus for the wire fuzz — mirrors the round-trip corpus
 * in test_study_roundtrip.cc, with emphasis on the knobs adaptive
 * exploration actually perturbs (SEED, STARTS, MAX_EVALS, EXPLORE)
 * since those are what cross the wire during prune's screening.
 */
const char* kWireCorpus[] = {
    "NETWORK RI(4)_SW(8)\nWORKLOAD resnet50\n",
    "NETWORK RI(16)_FC(8)_SW(32)\n"
    "TOTAL_BW 400\n"
    "OBJECTIVE PERF_PER_COST\n"
    "LOOP TP_DP_OVERLAP\n"
    "WORKLOAD gpt3\n",
    "NETWORK RI(4)_FC(8)_RI(4)_SW(32)\n"
    "TOTAL_BW 500\n"
    "CONSTRAINT B4 <= 50\n"
    "CONSTRAINT B1 >= B2\n"
    "WORKLOAD turing-nlg\n",
    "NETWORK RI(16)_FC(8)_SW(32)\n"
    "WORKLOAD gpt3 WEIGHT 2.5\n"
    "WORKLOAD msft1t WEIGHT 0.125\n"
    "WORKLOAD dlrm\n"
    "NORMALIZE_WEIGHTS\n",
    "NETWORK FC(8)_RI(16)_SW(8)\n"
    "IN_NETWORK\n"
    "SEED 7\n"
    "STARTS 5\n"
    "WORKLOAD msft1t\n",
    // The prune-screening shape: tightened budget, single start.
    "NETWORK RI(4)_SW(8)\n"
    "STARTS 1\n"
    "MAX_EVALS 120\n"
    "EXPLORE prune\n"
    "WORKLOAD resnet50\n",
    "NETWORK RI(4)_SW(8)\n"
    "MAX_EVALS 240\n"
    "EXPLORE prune\n"
    "WORKLOAD resnet50\n",
    "NETWORK RI(4)_SW(4)_SW(8)_SW(16)\n"
    "TOTAL_BW 800\n"
    "DOLLAR_CAP 1.5e7\n"
    "THREADS 8\n"
    "WORKLOAD msft1t WEIGHT 1.0\n",
    "NETWORK RI(4)_SW(8)\n"
    "BACKEND analytical\n"
    "SEED 1234567\n"
    "WORKLOAD dlrm\n",
};

WirePoint wireOf(const LibraInputs& inputs, std::size_t index)
{
    WirePoint wp;
    wp.index = index;
    wp.text = studyConfigToString(inputs);
    wp.key = pointWireKey(inputs);
    return wp;
}

/**
 * The property the shard layer's skew check and cache merging both
 * rest on: the wire text reparses to the identical canonical key.
 */
TEST(PointWire, RoundTripPreservesCanonicalKey)
{
    for (const char* text : kWireCorpus) {
        LibraInputs parsed = parseStudyConfigString(text);
        ASSERT_TRUE(studyConfigSerializable(parsed)) << text;

        WirePoint wp = wireOf(parsed, 0);
        LibraInputs reparsed = parseStudyConfigString(wp.text);

        EXPECT_EQ(canonicalStudyKey(parsed), canonicalStudyKey(reparsed))
            << text;
        EXPECT_EQ(pointWireKey(reparsed), wp.key) << text;
    }
}

TEST(PointWire, KeyIsSixteenLowercaseHexDigits)
{
    for (const char* text : kWireCorpus) {
        const std::string key =
            pointWireKey(parseStudyConfigString(text));
        ASSERT_EQ(key.size(), 16u) << text;
        for (char c : key)
            EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
                << text << " key " << key;
    }
}

TEST(PointWire, DistinctStudiesGetDistinctKeys)
{
    std::vector<std::string> keys;
    for (const char* text : kWireCorpus)
        keys.push_back(pointWireKey(parseStudyConfigString(text)));
    for (std::size_t i = 0; i < keys.size(); ++i)
        for (std::size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i], keys[j]) << i << " vs " << j;
}

TEST(PointWire, PayloadRoundTripsThroughJson)
{
    std::vector<WirePoint> points;
    std::size_t index = 3; // Sparse, unordered indices are legal:
    for (const char* text : kWireCorpus) {
        points.push_back(wireOf(parseStudyConfigString(text), index));
        index = index * 2 + 1;
    }

    // Through a dump/parse cycle, as the frame bytes actually travel.
    Json body = Json::parse(evalPayloadJson(points).dump());
    std::vector<WirePoint> back = parseEvalPayload(body);

    ASSERT_EQ(back.size(), points.size());
    for (std::size_t k = 0; k < points.size(); ++k) {
        EXPECT_EQ(back[k].index, points[k].index);
        EXPECT_EQ(back[k].text, points[k].text);
        EXPECT_EQ(back[k].key, points[k].key);
    }
}

TEST(PointWire, EmptyPayloadRoundTrips)
{
    EXPECT_TRUE(
        parseEvalPayload(evalPayloadJson({})).empty());
}

/** One syntactically valid entry, for corruption below. */
Json goodPayload()
{
    LibraInputs inputs = parseStudyConfigString(
        "NETWORK RI(4)_SW(8)\nMAX_EVALS 16\nWORKLOAD resnet50\n");
    return evalPayloadJson({wireOf(inputs, 2)});
}

TEST(PointWire, MalformedPayloadsAreRejected)
{
    // Not an object / missing or mistyped "points".
    EXPECT_THROW(parseEvalPayload(Json::parse("[]")), FatalError);
    EXPECT_THROW(parseEvalPayload(Json::parse("{}")), FatalError);
    EXPECT_THROW(parseEvalPayload(Json::parse("{\"points\": 3}")),
                 FatalError);
    EXPECT_THROW(parseEvalPayload(Json::parse("{\"points\": {}}")),
                 FatalError);

    // Entries that are not objects.
    EXPECT_THROW(parseEvalPayload(Json::parse("{\"points\": [1]}")),
                 FatalError);
    EXPECT_THROW(
        parseEvalPayload(Json::parse("{\"points\": [\"study\"]}")),
        FatalError);

    // Field-level corruption of an otherwise valid entry.
    auto corrupt = [](const char* field, const char* jsonValue) {
        Json body = goodPayload();
        std::string text = body.dump();
        // Splice the replacement value in by re-dumping with the field
        // swapped; simplest is to rebuild via parse of edited text.
        Json entry = Json::parse(text).at("points").items()[0];
        std::string out = "{\"points\":[{";
        bool first = true;
        for (const auto& member : entry.members()) {
            if (!first)
                out += ",";
            first = false;
            out += "\"" + member.first + "\":";
            out += (member.first == field) ? jsonValue
                                           : member.second.dump();
        }
        out += "}]}";
        return Json::parse(out);
    };

    EXPECT_THROW(parseEvalPayload(corrupt("index", "\"0\"")), FatalError);
    EXPECT_THROW(parseEvalPayload(corrupt("index", "-1")), FatalError);
    EXPECT_THROW(parseEvalPayload(corrupt("index", "2.5")), FatalError);
    EXPECT_THROW(parseEvalPayload(corrupt("index", "1e300")), FatalError);

    EXPECT_THROW(parseEvalPayload(corrupt("point", "17")), FatalError);
    EXPECT_THROW(parseEvalPayload(corrupt("point", "\"\"")), FatalError);

    EXPECT_THROW(parseEvalPayload(corrupt("key", "17")), FatalError);
    EXPECT_THROW(parseEvalPayload(corrupt("key", "\"abc\"")), FatalError);
    EXPECT_THROW(parseEvalPayload(corrupt("key", "\"XYZ4567890abcdef\"")),
                 FatalError);
    EXPECT_THROW(
        parseEvalPayload(corrupt("key", "\"0123456789abcdef0\"")),
        FatalError);

    // Missing fields entirely.
    EXPECT_THROW(
        parseEvalPayload(Json::parse(
            "{\"points\":[{\"point\":\"x\",\"key\":"
            "\"0123456789abcdef\"}]}")),
        FatalError);
    EXPECT_THROW(
        parseEvalPayload(Json::parse(
            "{\"points\":[{\"index\":0,\"key\":"
            "\"0123456789abcdef\"}]}")),
        FatalError);
    EXPECT_THROW(parseEvalPayload(Json::parse(
                     "{\"points\":[{\"index\":0,\"point\":\"x\"}]}")),
                 FatalError);

    // The unmodified payload stays accepted (the corrupters above
    // would otherwise pass vacuously).
    EXPECT_EQ(parseEvalPayload(goodPayload()).size(), 1u);
}

/** A key from a *different* study must not match — skew detection. */
TEST(PointWire, KeyMismatchIsDetectableAfterReparse)
{
    LibraInputs a = parseStudyConfigString(
        "NETWORK RI(4)_SW(8)\nMAX_EVALS 16\nWORKLOAD resnet50\n");
    LibraInputs b = parseStudyConfigString(
        "NETWORK RI(4)_SW(8)\nMAX_EVALS 17\nWORKLOAD resnet50\n");

    WirePoint skewed = wireOf(a, 0);
    skewed.key = pointWireKey(b); // What a stale worker would compute.

    LibraInputs reparsed = parseStudyConfigString(skewed.text);
    EXPECT_NE(pointWireKey(reparsed), skewed.key);
}

} // namespace
} // namespace libra
