/**
 * @file
 * Tests for the chunk-level pipeline simulator (Fig. 9): its tick
 * grid and FIFO tie order, model properties, and a corpus whose exact
 * output bits are pinned.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <tuple>

#include "common/logging.hh"
#include "sim/chunk_timeline.hh"

namespace libra {
namespace {

TEST(Ticks, Conversions)
{
    EXPECT_EQ(toTicks(1.0), static_cast<Tick>(1e12));
    EXPECT_EQ(toTicks(0.5e-12), 1u); // Rounds.
    EXPECT_DOUBLE_EQ(toSeconds(2'000'000'000'000ull), 2.0);
}

TEST(Ticks, OutOfRangeDurationsAreFatal)
{
    // The tick range ends at 2^63 ps = 9,223,372.036... s.
    EXPECT_EQ(toTicks(9'223'372.0), 9'223'372'000'000'000'000ull);
    EXPECT_THROW(toTicks(9'223'373.0), FatalError);
    EXPECT_THROW(toTicks(std::numeric_limits<double>::quiet_NaN()),
                 FatalError);
    EXPECT_THROW(toTicks(std::numeric_limits<double>::infinity()),
                 FatalError);
    EXPECT_THROW(toTicks(-1.0), FatalError);
}

CollectiveJob
arJob(Bytes size, std::vector<DimSpan> spans, int chunks,
      SchedulePolicy policy = SchedulePolicy::FixedAscending)
{
    CollectiveJob j;
    j.type = CollectiveType::AllReduce;
    j.size = size;
    j.spans = std::move(spans);
    j.numChunks = chunks;
    j.policy = policy;
    return j;
}

TEST(ChunkTimeline, SingleDimSingleChunkMatchesAnalytic)
{
    // AR on one dim of 4 at 10 GB/s: 2*1e9*(3/4)/10e9 = 0.15 s.
    ChunkTimeline tl(1, {10.0});
    Seconds t = tl.collectiveTime(arJob(1e9, {{0, 4}}, 1));
    EXPECT_NEAR(t, 0.15, 1e-9);
}

TEST(ChunkTimeline, ManyChunksApproachAnalyticBottleneck)
{
    // With balanced BW the pipelined time approaches the analytical
    // bottleneck time as chunk count grows.
    std::vector<DimSpan> spans{{0, 4}, {1, 4}, {2, 4}};
    auto traffic =
        multiRailTraffic(CollectiveType::AllReduce, 1e9, spans);
    BwConfig bw{traffic[0] / 1e9, traffic[1] / 1e9, traffic[2] / 1e9};
    Seconds analytic =
        multiRailTime(CollectiveType::AllReduce, 1e9, spans, bw).time;

    ChunkTimeline tl(3, bw);
    Seconds coarse = tl.collectiveTime(arJob(1e9, spans, 4));
    Seconds fine = tl.collectiveTime(arJob(1e9, spans, 256));

    EXPECT_GT(coarse, analytic);           // Pipeline fill overhead.
    EXPECT_LT(fine, coarse);               // More chunks pipeline better.
    EXPECT_NEAR(fine, analytic, 0.05 * analytic);
}

TEST(ChunkTimeline, UnderprovisionedDimBottlenecks)
{
    // Fig. 9(a): a starving dim 1 keeps other dims underutilized.
    std::vector<DimSpan> spans{{0, 4}, {1, 4}, {2, 4}};
    ChunkTimeline starved(3, {1.0, 100.0, 100.0});
    TimelineResult r = starved.run({arJob(1e9, spans, 8)});
    EXPECT_GT(r.dimBusy[0] / r.makespan, 0.95);
    EXPECT_LT(r.dimBusy[1] / r.makespan, 0.2);
    EXPECT_LT(r.dimBusy[2] / r.makespan, 0.2);
}

TEST(ChunkTimeline, BalancedBwMaximizesUtilization)
{
    std::vector<DimSpan> spans{{0, 4}, {1, 4}, {2, 4}};
    auto traffic =
        multiRailTraffic(CollectiveType::AllReduce, 1e9, spans);
    BwConfig balanced{traffic[0] / 1e9, traffic[1] / 1e9,
                      traffic[2] / 1e9};
    ChunkTimeline tlBal(3, balanced);
    ChunkTimeline tlEq(3, BwConfig(3, 1.0));
    double utilBal =
        tlBal.run({arJob(1e9, spans, 64)}).avgBwUtilization;
    double utilEq = tlEq.run({arJob(1e9, spans, 64)}).avgBwUtilization;
    EXPECT_GT(utilBal, utilEq);
    EXPECT_GT(utilBal, 0.8);
}

TEST(ChunkTimeline, RecordCountsAreExact)
{
    std::vector<DimSpan> spans{{0, 4}, {1, 4}};
    ChunkTimeline tl(2, {10.0, 10.0});
    TimelineResult r = tl.run({arJob(1e9, spans, 8)}, true);
    // AR on 2 dims = 4 stages per chunk (2 RS + 2 AG).
    EXPECT_EQ(r.records.size(), 8u * 4u);

    int rsCount = 0, agCount = 0;
    for (const auto& rec : r.records)
        (rec.allGather ? agCount : rsCount)++;
    EXPECT_EQ(rsCount, 16);
    EXPECT_EQ(agCount, 16);
}

TEST(ChunkTimeline, DimSerializesOps)
{
    // Records on the same dimension must not overlap in time.
    std::vector<DimSpan> spans{{0, 4}, {1, 4}};
    ChunkTimeline tl(2, {7.0, 3.0});
    TimelineResult r = tl.run({arJob(2e9, spans, 16)}, true);
    for (std::size_t a = 0; a < r.records.size(); ++a)
        for (std::size_t b = a + 1; b < r.records.size(); ++b) {
            if (r.records[a].dim != r.records[b].dim)
                continue;
            bool disjoint = r.records[a].end <= r.records[b].start + 1e-12
                            || r.records[b].end <=
                                   r.records[a].start + 1e-12;
            EXPECT_TRUE(disjoint);
        }
}

TEST(ChunkTimeline, ConservesVolumePerDim)
{
    // Busy time * BW per dim equals the analytical traffic.
    std::vector<DimSpan> spans{{0, 4}, {1, 8}};
    BwConfig bw{13.0, 7.0};
    ChunkTimeline tl(2, bw);
    TimelineResult r = tl.run({arJob(3e9, spans, 32)});
    auto traffic =
        multiRailTraffic(CollectiveType::AllReduce, 3e9, spans);
    EXPECT_NEAR(r.dimBusy[0] * bw[0] * 1e9, traffic[0], traffic[0] * 1e-9);
    EXPECT_NEAR(r.dimBusy[1] * bw[1] * 1e9, traffic[1], traffic[1] * 1e-9);
}

TEST(ChunkTimeline, StandaloneAllGatherVolumes)
{
    // AG alone: dim-i traffic m(g_i-1)/q_i with ascending prefixes.
    std::vector<DimSpan> spans{{0, 4}, {1, 8}};
    BwConfig bw{10.0, 10.0};
    ChunkTimeline tl(2, bw);
    CollectiveJob j;
    j.type = CollectiveType::AllGather;
    j.size = 1e9;
    j.spans = spans;
    j.numChunks = 16;
    TimelineResult r = tl.run({j});
    auto traffic =
        multiRailTraffic(CollectiveType::AllGather, 1e9, spans);
    EXPECT_NEAR(r.dimBusy[0] * bw[0] * 1e9, traffic[0],
                traffic[0] * 1e-9);
    EXPECT_NEAR(r.dimBusy[1] * bw[1] * 1e9, traffic[1],
                traffic[1] * 1e-9);
}

TEST(ChunkTimeline, AllToAllVolumes)
{
    std::vector<DimSpan> spans{{0, 4}, {1, 8}};
    BwConfig bw{10.0, 10.0};
    ChunkTimeline tl(2, bw);
    CollectiveJob j;
    j.type = CollectiveType::AllToAll;
    j.size = 1e9;
    j.spans = spans;
    j.numChunks = 8;
    TimelineResult r = tl.run({j});
    auto traffic =
        multiRailTraffic(CollectiveType::AllToAll, 1e9, spans);
    EXPECT_NEAR(r.dimBusy[0] * bw[0] * 1e9, traffic[0],
                traffic[0] * 1e-9);
    EXPECT_NEAR(r.dimBusy[1] * bw[1] * 1e9, traffic[1],
                traffic[1] * 1e-9);
}

TEST(ChunkTimeline, GreedyNoWorseOnImbalance)
{
    // On a BW split that is wrong for the fixed order, greedy
    // (Themis-style) must not be slower.
    std::vector<DimSpan> spans{{0, 4}, {1, 4}, {2, 4}};
    BwConfig bw{5.0, 30.0, 10.0};
    ChunkTimeline tl(3, bw);
    Seconds fixed = tl.collectiveTime(arJob(1e9, spans, 64));
    Seconds greedy = tl.collectiveTime(
        arJob(1e9, spans, 64, SchedulePolicy::Greedy));
    EXPECT_LE(greedy, fixed * 1.001);
}

TEST(ChunkTimeline, ReleaseTimeDelaysJob)
{
    std::vector<DimSpan> spans{{0, 4}};
    ChunkTimeline tl(1, {10.0});
    CollectiveJob j = arJob(1e9, spans, 4);
    j.releaseTime = 5.0;
    TimelineResult r = tl.run({j}, true);
    EXPECT_GE(r.records.front().start, 5.0);
    EXPECT_NEAR(r.makespan, 5.0 + 0.15, 1e-6);
}

TEST(ChunkTimeline, TwoJobsContendOnSharedDim)
{
    std::vector<DimSpan> spans{{0, 4}};
    ChunkTimeline tl(1, {10.0});
    CollectiveJob j = arJob(1e9, spans, 4);
    TimelineResult r = tl.run({j, j});
    // Two identical ARs on one dim take twice one AR.
    EXPECT_NEAR(r.makespan, 0.30, 1e-6);
}

TEST(ChunkTimeline, RenderProducesRows)
{
    std::vector<DimSpan> spans{{0, 4}, {1, 4}};
    ChunkTimeline tl(2, {10.0, 10.0});
    TimelineResult r = tl.run({arJob(1e9, spans, 4)}, true);
    std::string art = r.render(2, 40);
    EXPECT_NE(art.find("Dim1"), std::string::npos);
    EXPECT_NE(art.find("Dim2"), std::string::npos);
    EXPECT_NE(art.find("% busy"), std::string::npos);
}

/** Property: makespan decreases (weakly) as bottleneck BW increases. */
class TimelineMonotonicity : public ::testing::TestWithParam<double>
{};

TEST_P(TimelineMonotonicity, MoreBwNotSlower)
{
    std::vector<DimSpan> spans{{0, 4}, {1, 8}};
    ChunkTimeline slow(2, {GetParam(), 10.0});
    ChunkTimeline fast(2, {GetParam() * 2.0, 10.0});
    Seconds ts = slow.collectiveTime(arJob(1e9, spans, 16));
    Seconds tf = fast.collectiveTime(arJob(1e9, spans, 16));
    EXPECT_LE(tf, ts + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Bw, TimelineMonotonicity,
                         ::testing::Values(1.0, 5.0, 20.0, 100.0));

// --- FIFO tie order ------------------------------------------------------

TEST(ChunkTimeline, FifoOnTies)
{
    // Two 2-chunk ARs released together on one dimension: all four
    // releases share tick 0, so they run in insertion order (job by
    // job, chunk by chunk), and each completion queues the chunk's AG
    // stage behind the RS stages already waiting.
    ChunkTimeline tl(1, {10.0});
    CollectiveJob j = arJob(1e9, {{0, 4}}, 2);
    TimelineResult r = tl.run({j, j}, true);
    std::vector<std::tuple<int, int, bool>> order;
    for (const auto& rec : r.records)
        order.emplace_back(rec.job, rec.chunk, rec.allGather);
    std::vector<std::tuple<int, int, bool>> expected{
        {0, 0, false}, {0, 1, false}, {1, 0, false}, {1, 1, false},
        {0, 0, true},  {0, 1, true},  {1, 0, true},  {1, 1, true}};
    EXPECT_EQ(order, expected);
}

// --- Pinned corpus ---------------------------------------------------------

/** One pinned simulator input: a bandwidth vector and a job list. */
struct CorpusCase
{
    const char* name;
    BwConfig bw;
    std::vector<CollectiveJob> jobs;
};

CollectiveJob
corpusJob(CollectiveType type, Bytes size, std::vector<DimSpan> spans,
          int chunks, SchedulePolicy policy = SchedulePolicy::FixedAscending,
          Seconds release = 0.0)
{
    CollectiveJob j;
    j.type = type;
    j.size = size;
    j.spans = std::move(spans);
    j.numChunks = chunks;
    j.policy = policy;
    j.releaseTime = release;
    return j;
}

/**
 * Every collective type under both policies, partial-span
 * efficiencies, uneven group sizes, a multi-job list with staggered
 * and tied release times, and a late job whose stages start last but
 * end first (the makespan is the latest end, not the last one).
 */
std::vector<CorpusCase>
timelineCorpus()
{
    using CT = CollectiveType;
    const auto fixed = SchedulePolicy::FixedAscending;
    const auto greedy = SchedulePolicy::Greedy;
    const std::vector<DimSpan> three{{0, 4}, {1, 4}, {2, 4}};
    const std::vector<DimSpan> partial{{0, 4, 0.75}, {1, 8, 0.6},
                                       {2, 2}};
    const std::vector<DimSpan> four{{0, 2}, {1, 4}, {2, 8}, {3, 2}};
    return {
        {"ar-fixed", {30.0, 135.0, 135.0},
         {corpusJob(CT::AllReduce, 1e9, three, 16)}},
        {"ar-greedy", {5.0, 30.0, 10.0},
         {corpusJob(CT::AllReduce, 1e9, three, 16, greedy)}},
        {"ar-64-four-dims", {400.0, 120.0, 50.0, 30.0},
         {corpusJob(CT::AllReduce, 3.7e8, four, 64)}},
        {"rs-partial-fixed", {80.0, 40.0, 20.0},
         {corpusJob(CT::ReduceScatter, 2.5e9, partial, 12)}},
        {"rs-partial-greedy", {17.0, 90.0, 33.0},
         {corpusJob(CT::ReduceScatter, 2.5e9, partial, 12, greedy)}},
        {"ag-fixed", {50.0, 50.0, 50.0},
         {corpusJob(CT::AllGather, 7e8, partial, 9)}},
        {"ag-greedy", {12.0, 70.0, 41.0},
         {corpusJob(CT::AllGather, 7e8, three, 9, greedy)}},
        {"a2a-partial", {64.0, 16.0, 8.0},
         {corpusJob(CT::AllToAll, 1.3e9, partial, 8)}},
        {"p2p", {25.0, 5.0},
         {corpusJob(CT::PointToPoint, 4e8, {{0, 2}, {1, 4}}, 5)}},
        {"mixed-staggered-and-tied", {300.0, 90.0, 45.0, 20.0},
         {corpusJob(CT::AllReduce, 6e8, four, 8),
          corpusJob(CT::ReduceScatter, 2e8, {{1, 4}, {2, 8}}, 4, fixed),
          corpusJob(CT::AllGather, 3e8, {{0, 2}, {3, 2}}, 6, greedy,
                    1e-3),
          corpusJob(CT::AllToAll, 1e8, {{2, 8, 0.5}}, 3, fixed, 1e-3),
          corpusJob(CT::PointToPoint, 5e7, {{3, 2}}, 2, fixed, 2.5e-3),
          corpusJob(CT::AllReduce, 4e8, {{1, 4}, {2, 8}, {3, 2}}, 7,
                    greedy, 0.0),
          corpusJob(CT::AllReduce, 1e8, {}, 4)}},
        {"late-short-job-ends-first", {10.0, 10.0},
         {corpusJob(CT::AllReduce, 1e9, {{0, 4}}, 1),
          corpusJob(CT::ReduceScatter, 1e6, {{1, 2}}, 2, fixed, 0.1)}},
    };
}

/** FNV-1a over the exact bits of every record, in emission order. */
std::uint64_t
recordDigest(const std::vector<TimelineRecord>& records)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const void* data, std::size_t n) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 1099511628211ull;
        }
    };
    for (const auto& r : records) {
        std::int64_t fields[4] = {r.job, r.chunk,
                                  static_cast<std::int64_t>(r.dim),
                                  r.allGather ? 1 : 0};
        mix(fields, sizeof(fields));
        mix(&r.start, sizeof(r.start));
        mix(&r.end, sizeof(r.end));
    }
    return h;
}

/** Exact outputs of one corpus case. */
struct CorpusExpected
{
    const char* name;
    Seconds makespan;
    std::vector<Seconds> dimBusy;
    std::size_t records;
    std::uint64_t digest;
};

std::string
hex(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

/**
 * The simulator's output bits for the corpus, captured as hexfloats:
 * any change to the event order, the state machine or the FP
 * operations shows up here. A failure prints the actual values.
 */
TEST(ChunkTimelineCorpus, OutputsAreBitExact)
{
    const std::vector<CorpusExpected> expected{
        {"ar-fixed", 0x1.999999999999ap-5,
         {0x1.999999999999dp-5, 0x1.6c16c16c16c17p-9,
          0x1.6c16c16c16c17p-11},
         96, 0x4bdf434c9ce05e6eull},
        {"ar-greedy", 0x1.2333333333333p-4,
         {0x1.f333333333337p-5, 0x1.3999999999999p-5,
          0x1.a666666666667p-5},
         96, 0xcf44c70bb91d8c63ull},
        {"ar-64-four-dims", 0x1.30ff96df2f672p-9,
         {0x1.e4f765fd8ad9bp-11, 0x1.2f1a9fbe76c83p-9,
          0x1.a858793dd97fep-10, 0x1.94237fa89e603p-13},
         512, 0x90aff44f88e5e78aull},
        {"rs-partial-fixed", 0x1.10e38e39781cap-5,
         {0x1p-5, 0x1.7555555555554p-6, 0x1.0000000000001p-9},
         36, 0x9263cbcce666e77cull},
        {"rs-partial-greedy", 0x1.b737373821c74p-6,
         {0x1.b737373737376p-6, 0x1.aca4587e6b75p-6,
          0x1.5eb50295fad42p-6},
         36, 0x7a1b5eb786fdba7full},
        {"ag-fixed", 0x1.de21d4786d992p-7,
         {0x1.cac083126e977p-7, 0x1.4e81b4e81b4e7p-8,
          0x1.cac083126e977p-13},
         27, 0x5fe7124f99829844ull},
        {"ag-greedy", 0x1.2333333313ecdp-5,
         {0x1.2333333333333p-5, 0x1.1eb851eb851ecp-10,
          0x1.2935b2935b293p-8},
         27, 0x6981c8cf6be01646ull},
        {"a2a-partial", 0x1.0caaaaaac21f7p-3,
         {0x1.4cccccccccccdp-6, 0x1.e555555555556p-4,
          0x1.4cccccccccccdp-4},
         24, 0x9040ea6703c76b72ull},
        {"p2p", 0x1.0624dd2f1a9fcp-6, {0x1.0624dd2f1a9fcp-6, 0x0p+0}, 5,
         0x3ea9a127f6cbe21bull},
        {"mixed-staggered-and-tied", 0x1.657619f17080bp-6,
         {0x1.26e978d4fdf3dp-9, 0x1.5d229ef6bc38bp-7,
          0x1.d950c83fb72efp-7, 0x1.14d880bb3ee74p-6},
         131, 0x42ff66e2861f55d2ull},
        {"late-short-job-ends-first", 0x1.3333333333333p-3,
         {0x1.3333333333333p-3, 0x1.a36e2eb1c432dp-15}, 4,
         0x9e676df9204a8806ull},
    };
    std::vector<CorpusCase> corpus = timelineCorpus();
    ASSERT_EQ(corpus.size(), expected.size());
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        const CorpusCase& c = corpus[i];
        const CorpusExpected& e = expected[i];
        SCOPED_TRACE(c.name);
        ASSERT_STREQ(c.name, e.name);
        ChunkTimeline tl(c.bw.size(), c.bw);
        TimelineResult full = tl.run(c.jobs, true);
        std::string busy;
        for (Seconds b : full.dimBusy)
            busy += hex(b) + " ";
        EXPECT_EQ(full.makespan, e.makespan) << hex(full.makespan);
        EXPECT_EQ(full.dimBusy, e.dimBusy) << busy;
        EXPECT_EQ(full.records.size(), e.records);
        EXPECT_EQ(recordDigest(full.records), e.digest)
            << std::hex << recordDigest(full.records);

        // Skipping the records changes nothing else.
        TimelineResult lean = tl.run(c.jobs);
        EXPECT_TRUE(lean.records.empty());
        EXPECT_EQ(lean.makespan, full.makespan);
        EXPECT_EQ(lean.dimBusy, full.dimBusy);
        EXPECT_EQ(lean.avgBwUtilization, full.avgBwUtilization);
    }
}

} // namespace
} // namespace libra
