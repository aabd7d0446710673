/**
 * @file
 * Cross-validation of the analytical CollectiveTiming model
 * (multiRailTime) against the data-carrying CollectiveSim, across a
 * topology zoo x {Reduce-Scatter, All-Gather, All-Reduce} x in-network
 * on/off — plus a randomized property suite that fuzzes seeded
 * (topology x collective x size x parallelization x bandwidth) points
 * through the registered "analytical" and "chunk-sim" timing backends
 * and pins their agreement to the documented tolerance
 * (chunkSimRelTolerance: the pipeline fill/drain ramp, at most
 * sum_i t_i / numChunks on top of the bottleneck time).
 *
 * Agreement contract (the "latency-model tolerance" documented in
 * docs/STUDIES.md): CollectiveSim charges each per-dimension stage
 *
 *     t_stage = traffic_d / B_d + steps_d * link_latency
 *
 * while the analytical model is bandwidth-only (t_d = traffic_d / B_d).
 * The two therefore agree per stage to within exactly
 * steps_d * link_latency — bit-exactly at zero latency (tolerance
 * kRelTol covers floating-point summation order only), and within the
 * per-stage latency correction otherwise.
 *
 * In-network offload changes only the All-Reduce traffic (the sim has
 * no switch-reduction mode), so the ON axis is validated analytically:
 * RS/AG timings are unchanged by the flag, the offloaded AR traffic
 * matches its closed form m / q_{i-1} per dimension, it never exceeds
 * the (sim-validated) multi-rail AR traffic, and the two coincide
 * exactly on size-2 dimensions where 2m(g-1)/q_i == m*g/q_i.
 *
 * The crossval corpus pins the `crossval` scenario's backend times per
 * design point, under chunk-sim and themis, and holds its `max_rel_err`
 * inside chunkSimRelTolerance applied to each workload's collectives.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "collective/mapping.hh"
#include "collective/multi_rail.hh"
#include "core/framework.hh"
#include "core/timing_backend.hh"
#include "sim/collective_sim.hh"
#include "study/scenario.hh"
#include "topology/zoo.hh"

namespace libra {
namespace {

/** Uniform double in [lo, hi), one fresh distribution per draw. */
double
drawUniform(std::mt19937_64& rng, double lo, double hi)
{
    return std::uniform_real_distribution<double>(lo, hi)(rng);
}

/** Uniform integer in [lo, hi], one fresh distribution per draw. */
int
drawInt(std::mt19937_64& rng, int lo, int hi)
{
    return std::uniform_int_distribution<int>(lo, hi)(rng);
}

constexpr double kRelTol = 1e-12;

/** Networks the sim can execute in test time (full-dimension groups). */
std::vector<topo::NamedNetwork>
crossvalZoo()
{
    std::vector<topo::NamedNetwork> zoo{
        {"3D-Torus", topo::threeDTorus()},
        {"3D-512", topo::threeD512()},
        {"3D-mixed", Network::parse("SW(4)_FC(4)_RI(4)")},
        {"2D-mixed", Network::parse("FC(8)_RI(8)")},
    };
    for (auto& named : topo::realSystems())
        zoo.push_back(std::move(named));
    return zoo;
}

/** Deterministic non-uniform per-dimension bandwidth. */
BwConfig
bwFor(const Network& net)
{
    BwConfig bw;
    for (std::size_t d = 0; d < net.numDims(); ++d)
        bw.push_back(120.0 / static_cast<double>(d + 1) + 7.5);
    return bw;
}

void
initSim(CollectiveSim& sim, const Network& /*net*/, std::size_t elems)
{
    sim.init(elems, [](long npu, std::size_t i) {
        return static_cast<double>((npu * 31 + static_cast<long>(i) * 7) %
                                   97) /
               9.7;
    });
}

void
expectNear(Seconds actual, Seconds expected, const std::string& what)
{
    EXPECT_NEAR(actual, expected,
                std::abs(expected) * kRelTol + 1e-18)
        << what;
}

TEST(SimCrossval, ReduceScatterStageTimesMatchAnalyticalModel)
{
    for (const auto& [label, net] : crossvalZoo()) {
        SCOPED_TRACE(label);
        const std::size_t elems =
            static_cast<std::size_t>(net.npus()) * 8;
        const Bytes m = static_cast<double>(elems) * kFp32Bytes;
        auto spans = mapGroupToDims(net, 1, net.npus());
        BwConfig bw = bwFor(net);

        CollectiveSim sim(net, bw);
        initSim(sim, net, elems);
        sim.runReduceScatter();
        ASSERT_TRUE(sim.verifyReduceScatter());

        CollectiveTiming analytic = multiRailTime(
            CollectiveType::ReduceScatter, m, spans, bw);
        ASSERT_EQ(sim.stages().size(), net.numDims());
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const StageResult& stage = sim.stages()[i];
            EXPECT_EQ(stage.dim, spans[i].dim);
            expectNear(stage.bytesPerNpu, analytic.trafficPerDim[i],
                       label + " RS traffic dim " +
                           std::to_string(stage.dim));
            expectNear(stage.time, analytic.timePerDim[i],
                       label + " RS time dim " +
                           std::to_string(stage.dim));
        }
    }
}

TEST(SimCrossval, AllGatherStageTimesMatchAnalyticalModel)
{
    for (const auto& [label, net] : crossvalZoo()) {
        SCOPED_TRACE(label);
        const std::size_t elems =
            static_cast<std::size_t>(net.npus()) * 8;
        const Bytes m = static_cast<double>(elems) * kFp32Bytes;
        auto spans = mapGroupToDims(net, 1, net.npus());
        BwConfig bw = bwFor(net);

        // All-Gather redistributes the Reduce-Scatter partition, so it
        // runs on post-RS state; its stages are the allGather records.
        CollectiveSim sim(net, bw);
        initSim(sim, net, elems);
        sim.runReduceScatter();
        sim.runAllGather();
        ASSERT_TRUE(sim.verifyAllReduce());

        CollectiveTiming analytic =
            multiRailTime(CollectiveType::AllGather, m, spans, bw);
        std::size_t checked = 0;
        for (const StageResult& stage : sim.stages()) {
            if (!stage.allGather)
                continue;
            // AG visits dims descending; span index == dim index for
            // these whole-network groups.
            std::size_t i = stage.dim;
            expectNear(stage.bytesPerNpu, analytic.trafficPerDim[i],
                       label + " AG traffic dim " +
                           std::to_string(stage.dim));
            expectNear(stage.time, analytic.timePerDim[i],
                       label + " AG time dim " +
                           std::to_string(stage.dim));
            ++checked;
        }
        EXPECT_EQ(checked, net.numDims());
    }
}

TEST(SimCrossval, AllReducePerDimBusyMatchesAnalyticalModel)
{
    for (const auto& [label, net] : crossvalZoo()) {
        SCOPED_TRACE(label);
        const std::size_t elems =
            static_cast<std::size_t>(net.npus()) * 8;
        const Bytes m = static_cast<double>(elems) * kFp32Bytes;
        auto spans = mapGroupToDims(net, 1, net.npus());
        BwConfig bw = bwFor(net);

        CollectiveSim sim(net, bw);
        initSim(sim, net, elems);
        Seconds total = sim.runAllReduce();
        ASSERT_TRUE(sim.verifyAllReduce());

        CollectiveTiming analytic =
            multiRailTime(CollectiveType::AllReduce, m, spans, bw);

        // Per-dimension: RS + AG stage time == the analytical AR
        // bottleneck traffic for that dimension.
        std::vector<Seconds> dimTime(net.numDims(), 0.0);
        for (const StageResult& stage : sim.stages())
            dimTime[stage.dim] += stage.time;
        Seconds simSum = 0.0;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            expectNear(dimTime[i], analytic.timePerDim[i],
                       label + " AR busy dim " + std::to_string(i));
            simSum += dimTime[i];
        }

        // The sequential sim's makespan is the stage-time sum; the
        // pipelined analytical makespan is the bottleneck dim. The
        // analytical time can only be shorter.
        expectNear(total, simSum, label + " AR makespan");
        EXPECT_LE(analytic.time, total * (1.0 + kRelTol)) << label;
        EXPECT_GE(analytic.time,
                  *std::max_element(analytic.timePerDim.begin(),
                                    analytic.timePerDim.end()) *
                      (1.0 - kRelTol))
            << label;
    }
}

TEST(SimCrossval, LatencyTermIsExactlyStepsTimesLinkLatency)
{
    const Seconds latency = 2.5e-6;
    for (const auto& [label, net] : crossvalZoo()) {
        SCOPED_TRACE(label);
        const std::size_t elems =
            static_cast<std::size_t>(net.npus()) * 8;
        const Bytes m = static_cast<double>(elems) * kFp32Bytes;
        auto spans = mapGroupToDims(net, 1, net.npus());
        BwConfig bw = bwFor(net);

        CollectiveSim sim(net, bw, latency);
        initSim(sim, net, elems);
        sim.runAllReduce();

        CollectiveTiming analytic =
            multiRailTime(CollectiveType::AllReduce, m, spans, bw);
        std::vector<Seconds> dimTime(net.numDims(), 0.0);
        std::vector<int> dimSteps(net.numDims(), 0);
        for (const StageResult& stage : sim.stages()) {
            dimTime[stage.dim] += stage.time;
            dimSteps[stage.dim] += stage.steps;
        }
        // Documented tolerance: the analytical (bandwidth-only) model
        // differs from the sim by exactly steps * link_latency.
        for (std::size_t i = 0; i < spans.size(); ++i) {
            expectNear(dimTime[i],
                       analytic.timePerDim[i] +
                           dimSteps[i] * latency,
                       label + " latency-corrected dim " +
                           std::to_string(i));
        }
    }
}

TEST(SimCrossval, InNetworkOffloadInvariants)
{
    for (const auto& [label, net] : crossvalZoo()) {
        SCOPED_TRACE(label);
        const std::size_t elems =
            static_cast<std::size_t>(net.npus()) * 8;
        const Bytes m = static_cast<double>(elems) * kFp32Bytes;
        auto spans = mapGroupToDims(net, 1, net.npus());
        BwConfig bw = bwFor(net);

        // The flag only affects All-Reduce: RS/AG timings (validated
        // against the sim above) are identical with it on.
        for (CollectiveType type : {CollectiveType::ReduceScatter,
                                    CollectiveType::AllGather}) {
            CollectiveTiming off =
                multiRailTime(type, m, spans, bw, false);
            CollectiveTiming on =
                multiRailTime(type, m, spans, bw, true);
            EXPECT_EQ(off.trafficPerDim, on.trafficPerDim);
            EXPECT_EQ(off.timePerDim, on.timePerDim);
        }

        CollectiveTiming ring = multiRailTime(
            CollectiveType::AllReduce, m, spans, bw, false);
        CollectiveTiming offload = multiRailTime(
            CollectiveType::AllReduce, m, spans, bw, true);

        double prefix = 1.0;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            double g = static_cast<double>(spans[i].groupSize);
            // Closed form: dim i forwards the locally reduced payload
            // m / q_{i-1} once into the switch fabric.
            expectNear(offload.trafficPerDim[i], m / prefix,
                       label + " in-network traffic dim " +
                           std::to_string(i));
            // Offload can never move more bytes than multi-rail AR
            // (2(g-1) >= g for g >= 2) and coincides exactly at g=2.
            EXPECT_LE(offload.trafficPerDim[i],
                      ring.trafficPerDim[i] * (1.0 + kRelTol))
                << label;
            if (spans[i].groupSize == 2) {
                expectNear(offload.trafficPerDim[i],
                           ring.trafficPerDim[i],
                           label + " g=2 equivalence dim " +
                               std::to_string(i));
            }
            prefix *= g;
        }
    }
}

// --- Randomized estimator <-> sim backend property suite ---------------

/** One fuzzed cross-validation point, fully derived from its seed. */
struct FuzzPoint
{
    std::uint64_t seed = 0;
    Network net = Network::parse("RI(4)");
    CollectiveType type = CollectiveType::AllReduce;
    Bytes size = 0.0;
    long stride = 1;    ///< Communicator inner stride (TP-below size).
    long group = 1;     ///< Communicator group size.
    BwConfig bw;

    std::string
    describe() const
    {
        return "seed=" + std::to_string(seed) + " net=" + net.name() +
               " type=" + std::to_string(static_cast<int>(type)) +
               " size=" + std::to_string(size) +
               " stride=" + std::to_string(stride) +
               " group=" + std::to_string(group);
    }
};

/**
 * Draw a random point. The (stride, group) pair is a communicator
 * group of a random hybrid parallelization: stride = the product of
 * the dimensions occupied by inner parallelism, group spanning the
 * next dimensions fully plus (sometimes) one partial dimension — the
 * same layouts mapGroupToDims() produces for real TP/PP/DP scopes.
 */
FuzzPoint
drawPoint(std::uint64_t seed)
{
    static const char* kShapes[] = {
        "RI(4)_FC(4)_SW(4)", "FC(8)_RI(8)",      "RI(8)_SW(8)",
        "SW(4)_RI(4)_FC(2)_SW(2)", "FC(4)_SW(4)_RI(4)",
    };
    static const CollectiveType kTypes[] = {
        CollectiveType::AllReduce,     CollectiveType::ReduceScatter,
        CollectiveType::AllGather,     CollectiveType::AllToAll,
        CollectiveType::PointToPoint,
    };

    std::mt19937_64 rng(seed);
    FuzzPoint p;
    p.seed = seed;
    p.net = Network::parse(kShapes[drawInt(
        rng, 0, static_cast<int>(std::size(kShapes)) - 1)]);
    p.type = kTypes[drawInt(
        rng, 0, static_cast<int>(std::size(kTypes)) - 1)];
    p.size = drawUniform(rng, 1.0 * kMB, 2.0 * kGB);

    int dims = static_cast<int>(p.net.numDims());
    // Inner parallelism consumes dims [0, a); the group spans dims
    // [a, a+b) fully, optionally times a divisor of dim a+b.
    int a = drawInt(rng, 0, dims - 1);
    int b = drawInt(rng, 1, dims - a);
    p.stride = p.net.prefixProduct(static_cast<std::size_t>(a));
    p.group = 1;
    for (int d = a; d < a + b; ++d)
        p.group *= p.net.dim(static_cast<std::size_t>(d)).size;
    if (a + b < dims && drawInt(rng, 0, 1) == 1) {
        int next = p.net.dim(static_cast<std::size_t>(a + b)).size;
        std::vector<int> divisors;
        for (int d = 2; d < next; ++d)
            if (next % d == 0)
                divisors.push_back(d);
        if (!divisors.empty()) {
            p.group *= divisors[drawInt(
                rng, 0, static_cast<int>(divisors.size()) - 1)];
        }
    }
    for (std::size_t d = 0; d < p.net.numDims(); ++d)
        p.bw.push_back(drawUniform(rng, 5.0, 200.0));
    return p;
}

TEST(SimCrossval, RandomizedBackendAgreementWithinDocumentedTolerance)
{
    const TimingBackend* analytical =
        resolveTimingBackend(kAnalyticalTimingBackendName);
    const TimingBackend* sim =
        resolveTimingBackend(kChunkSimTimingBackendName);

    // Fixed base seed: every point is reproducible from the seed the
    // failure message prints (drawPoint(seed) rebuilds it exactly).
    const std::uint64_t kBaseSeed = 0xC805'511Bull;
    const int kPoints = 96;
    int checked = 0;
    for (int i = 0; i < kPoints; ++i) {
        FuzzPoint p = drawPoint(kBaseSeed + static_cast<std::uint64_t>(i));
        auto spans = mapGroupToDims(p.net, p.stride, p.group);
        if (spans.empty())
            continue; // Degenerate single-NPU group.
        ++checked;

        CollectiveTiming a =
            analytical->timing(p.type, p.size, spans, p.bw, false);
        CollectiveTiming s =
            sim->timing(p.type, p.size, spans, p.bw, false);

        // Traffic is structural — both backends must agree exactly.
        ASSERT_EQ(s.trafficPerDim, a.trafficPerDim) << p.describe();

        // Per-dimension busy time: the sim moves the same bytes over
        // the same bandwidth, so only FP summation and the simulator's
        // picosecond tick grid separate the two.
        ASSERT_EQ(s.timePerDim.size(), a.timePerDim.size())
            << p.describe();
        for (std::size_t d = 0; d < a.timePerDim.size(); ++d) {
            EXPECT_NEAR(s.timePerDim[d], a.timePerDim[d],
                        a.timePerDim[d] * 1e-9 + 1e-15)
                << p.describe() << " span " << d;
        }

        // Completion time: the pipelined sim can never beat the
        // bottleneck bound (up to the simulator's picosecond event
        // grid) and exceeds it by at most the documented fill/drain
        // ramp.
        double tol = chunkSimRelTolerance(a);
        EXPECT_GE(s.time, a.time * (1.0 - 1e-6)) << p.describe();
        EXPECT_LE(s.time, a.time * (1.0 + tol))
            << p.describe() << " (rel err "
            << (s.time - a.time) / a.time << " vs documented tol "
            << tol << ")";
    }
    // The generator must not silently degenerate.
    EXPECT_GE(checked, kPoints / 2);
}

TEST(SimCrossval, RandomizedPointsAreSeedReproducible)
{
    // The reproduction contract the failure message relies on: the
    // same seed rebuilds the same point, and backend timings are pure
    // functions of it.
    const std::uint64_t seed = 0xC805'511Bull + 17;
    FuzzPoint p1 = drawPoint(seed);
    FuzzPoint p2 = drawPoint(seed);
    EXPECT_EQ(p1.describe(), p2.describe());
    EXPECT_EQ(p1.bw, p2.bw);

    auto spans = mapGroupToDims(p1.net, p1.stride, p1.group);
    if (!spans.empty()) {
        const TimingBackend* sim =
            resolveTimingBackend(kChunkSimTimingBackendName);
        CollectiveTiming s1 =
            sim->timing(p1.type, p1.size, spans, p1.bw, false);
        CollectiveTiming s2 =
            sim->timing(p2.type, p2.size, spans, p2.bw, false);
        EXPECT_EQ(s1.time, s2.time);
        EXPECT_EQ(s1.timePerDim, s2.timePerDim);
    }
}

// --- Crossval corpus ---------------------------------------------------

/** One crossval design point's pinned backend times. */
struct CrossvalCorpusExpected
{
    const char* name;  ///< "<net>/<workload>/<total BW>".
    Seconds equalTime; ///< backend_equal_time_s.
    Seconds optTime;   ///< backend_opt_time_s.
};

std::string
hex(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

/** The crossval scenario's points and reports under @p backend. */
struct CrossvalRun
{
    std::vector<LibraInputs> points;
    std::vector<LibraReport> reports;
    ScenarioOutput output;
};

CrossvalRun
runCrossval(const std::string& backend)
{
    const Scenario& scenario = ScenarioRegistry::global().resolve("crossval");
    CrossvalRun run;
    run.points = scenario.build();
    for (auto& p : run.points)
        p.config.estimator.timingBackend = backend;
    run.reports = runLibraSweep(run.points);
    run.output = scenario.format(run.points, run.reports);
    return run;
}

std::string
pointName(const LibraInputs& p)
{
    return Network::parse(p.networkShape).name() + "/" +
           p.targets[0].workload.name + "/" +
           std::to_string(static_cast<int>(p.config.totalBw));
}

/**
 * Compare @p run against @p expected: EqualBW times bit-exact, and
 * optimized times within @p opt_rel_tol relative (0 = bit-exact). A
 * failure prints the actual corpus row.
 */
void
expectMatchesCorpus(const CrossvalRun& run,
                    const std::vector<CrossvalCorpusExpected>& expected,
                    double opt_rel_tol)
{
    EXPECT_EQ(run.points.size(), expected.size());
    for (std::size_t i = 0; i < run.points.size(); ++i) {
        const LibraReport& r = run.reports[i];
        const std::string actual =
            "{\"" + pointName(run.points[i]) + "\", " +
            hex(r.equalBw.weightedTime) + ", " +
            hex(r.optimized.weightedTime) + "},";
        if (i >= expected.size()) {
            ADD_FAILURE() << "missing corpus row " << actual;
            continue;
        }
        const CrossvalCorpusExpected& e = expected[i];
        EXPECT_EQ(pointName(run.points[i]), e.name) << actual;
        EXPECT_EQ(r.equalBw.weightedTime, e.equalTime) << actual;
        if (opt_rel_tol == 0.0) {
            EXPECT_EQ(r.optimized.weightedTime, e.optTime) << actual;
        } else {
            EXPECT_NEAR(r.optimized.weightedTime, e.optTime,
                        e.optTime * opt_rel_tol)
                << actual << " rel "
                << (r.optimized.weightedTime - e.optTime) / e.optTime;
        }
    }
}

/**
 * crossval's chunk-sim times, captured with every search evaluation
 * under the simulator. EqualBW designs are evaluated, never searched,
 * so their times stay bit-exact; an optimized time may move within
 * 1e-4 relative, the room a change of search route has.
 */
TEST(CrossvalCorpus, ChunkSimRowsTrackTheCorpus)
{
    const std::vector<CrossvalCorpusExpected> expected{
        {"RI(4)_FC(4)_SW(4)/ResNet-50/250", 0x1.55440a36941bbp-9,
         0x1.11a2140a98473p-9},
        {"RI(4)_FC(4)_SW(4)/ResNet-50/500", 0x1.18de285a6b915p-9,
         0x1.ee1a689e51beap-10},
        {"RI(4)_FC(4)_SW(4)/Turing-NLG/250", 0x1.0b2ca5a2e96c2p+2,
         0x1.eb17094d62bcbp+1},
        {"RI(4)_FC(4)_SW(4)/Turing-NLG/500", 0x1.ef186e39b8f82p+1,
         0x1.d9774d3d80e9ap+1},
        {"FC(8)_RI(8)/ResNet-50/250", 0x1.3a6c18b31e114p-9,
         0x1.116e9ddf03c71p-9},
        {"FC(8)_RI(8)/ResNet-50/500", 0x1.0b722df5c694dp-9,
         0x1.ede6e5160b033p-10},
        {"FC(8)_RI(8)/Turing-NLG/250", 0x1.025cc79af8827p+2,
         0x1.ea8e512ddfc4bp+1},
        {"FC(8)_RI(8)/Turing-NLG/500", 0x1.e6489031c80edp+1,
         0x1.d932f12dbf6e9p+1},
    };
    expectMatchesCorpus(runCrossval(kChunkSimTimingBackendName), expected,
                        1e-4);
}

/**
 * crossval's themis times, bit-exact: a change that moves a themis
 * optimum re-pins these rows together with the backend's cache tag.
 */
TEST(CrossvalCorpus, ThemisRowsAreBitExact)
{
    const std::vector<CrossvalCorpusExpected> expected{
        {"RI(4)_FC(4)_SW(4)/ResNet-50/250", 0x1.11a125ce27d43p-9,
         0x1.11516cb7f546ep-9},
        {"RI(4)_FC(4)_SW(4)/ResNet-50/500", 0x1.ee196c4c6adb5p-10,
         0x1.edc9b7ad7c335p-10},
        {"RI(4)_FC(4)_SW(4)/Turing-NLG/250", 0x1.ea5d7d229eb75p+1,
         0x1.ea5d7d229eb75p+1},
        {"RI(4)_FC(4)_SW(4)/Turing-NLG/500", 0x1.d91a87281ee5cp+1,
         0x1.d91a87281ee5cp+1},
        {"FC(8)_RI(8)/ResNet-50/250", 0x1.11516c1cb38cdp-9,
         0x1.11516c1cb38cdp-9},
        {"FC(8)_RI(8)/ResNet-50/500", 0x1.edc9b2a18f6d4p-10,
         0x1.edc9b2a18f6d4p-10},
        {"FC(8)_RI(8)/Turing-NLG/250", 0x1.ea05990e5ccf2p+1,
         0x1.ea05990e5ccf2p+1},
        {"FC(8)_RI(8)/Turing-NLG/500", 0x1.d8ee951dfdf1dp+1,
         0x1.d8ee951dfdf1dp+1},
    };
    expectMatchesCorpus(runCrossval(kThemisTimingBackendName), expected,
                        0.0);
}

/**
 * The analytical timing inflated by chunkSimRelTolerance: an upper
 * bound on every chunk-sim collective, so a workload timed under it
 * bounds the workload's chunk-sim time from above.
 */
class RampBoundTimingBackend final : public TimingBackend
{
  public:
    std::string name() const override { return "test-ramp-bound"; }
    std::string description() const override { return "test backend"; }

    CollectiveTiming
    timing(CollectiveType type, Bytes size,
           const std::vector<DimSpan>& spans, const BwConfig& bw,
           bool in_network) const override
    {
        CollectiveTiming t = multiRailTime(type, size, spans, bw, in_network);
        t.time *= 1.0 + chunkSimRelTolerance(t);
        return t;
    }
};

/**
 * The paper's §IV-C premise as crossval states it: each row's
 * analytical-vs-chunk-sim error stays within the documented ramp bound
 * summed over the workload's collectives, so `max_rel_err` does too.
 */
TEST(CrossvalCorpus, MaxRelErrIsWithinTheChunkSimTolerance)
{
    TimingBackendRegistry& registry = TimingBackendRegistry::global();
    if (!registry.find("test-ramp-bound"))
        registry.add(std::make_unique<RampBoundTimingBackend>());

    CrossvalRun run = runCrossval(kChunkSimTimingBackendName);
    ASSERT_EQ(run.output.rows.size(), run.points.size());
    auto metric = [](const auto& pairs, const std::string& key) {
        for (const auto& [k, v] : pairs) {
            if (k == key)
                return v;
        }
        ADD_FAILURE() << "no metric " << key;
        return 0.0;
    };
    double maxBound = 0.0;
    for (std::size_t i = 0; i < run.points.size(); ++i) {
        const LibraInputs& p = run.points[i];
        SCOPED_TRACE(pointName(p));
        Network net = Network::parse(p.networkShape);
        EstimatorOptions opt = p.config.estimator;
        opt.timingBackend.clear();
        TrainingEstimator analytical(net, opt);
        opt.timingBackend = "test-ramp-bound";
        TrainingEstimator bound(net, opt);
        auto relBound = [&](const BwConfig& bw) {
            Seconds a = weightedTime(analytical, p.targets, bw);
            Seconds b = weightedTime(bound, p.targets, bw);
            // The simulator's picosecond grid may land a hair under
            // the bottleneck bound (the per-collective suite's 1e-6).
            return std::max(b - a, 1e-6 * a) / a;
        };
        const ScenarioRow& row = run.output.rows[i];
        double eq = relBound(run.reports[i].equalBw.bw);
        double op = relBound(run.reports[i].optimized.bw);
        EXPECT_LE(metric(row.metrics, "rel_err_equal"), eq);
        EXPECT_LE(metric(row.metrics, "rel_err_opt"), op);
        maxBound = std::max({maxBound, eq, op});
    }
    EXPECT_LE(metric(run.output.summary, "max_rel_err"), maxBound);
}

} // namespace
} // namespace libra
