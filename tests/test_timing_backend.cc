/**
 * @file
 * Tests for the pluggable timing-backend layer: registry mechanics,
 * default-backend bit-identity with the seed analytical path, the
 * BACKEND study directive, and the study-cache-key folding rules.
 */

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/estimator.hh"
#include "core/study_config.hh"
#include "core/timing_backend.hh"
#include "runtime/themis.hh"
#include "study/cache.hh"
#include "topology/zoo.hh"
#include "workload/zoo.hh"

namespace libra {
namespace {

TEST(TimingBackendRegistry, BuiltinsAreRegistered)
{
    const TimingBackendRegistry& registry =
        TimingBackendRegistry::global();
    std::vector<std::string> names = registry.names();
    ASSERT_GE(names.size(), 3u);
    EXPECT_EQ(names[0], kAnalyticalTimingBackendName);
    EXPECT_EQ(names[1], kChunkSimTimingBackendName);
    EXPECT_EQ(names[2], kThemisTimingBackendName);
    for (const auto& name : names) {
        const TimingBackend* b = registry.find(name);
        ASSERT_NE(b, nullptr);
        EXPECT_EQ(b->name(), name);
        EXPECT_FALSE(b->description().empty());
    }
    EXPECT_EQ(registry.find("no-such-backend"), nullptr);
}

TEST(TimingBackendRegistry, ResolveDefaultsAndUnknowns)
{
    // "" resolves to the analytical default.
    EXPECT_EQ(resolveTimingBackend(""),
              resolveTimingBackend(kAnalyticalTimingBackendName));
    EXPECT_EQ(timingBackendOrDefault(""), kAnalyticalTimingBackendName);
    EXPECT_EQ(timingBackendOrDefault("chunk-sim"), "chunk-sim");
    EXPECT_THROW(resolveTimingBackend("no-such-backend"), FatalError);
}

/** Minimal backend for registry-mechanics tests. */
class NullBackend final : public TimingBackend
{
  public:
    std::string name() const override { return "null-test"; }
    std::string description() const override { return "test only"; }
    CollectiveTiming
    timing(CollectiveType, Bytes, const std::vector<DimSpan>& spans,
           const BwConfig&, bool) const override
    {
        CollectiveTiming t;
        t.trafficPerDim.assign(spans.size(), 0.0);
        t.timePerDim.assign(spans.size(), 0.0);
        return t;
    }
};

TEST(TimingBackendRegistry, DuplicateAndNullRegistrationsThrow)
{
    TimingBackendRegistry registry;
    registry.add(std::make_unique<NullBackend>());
    EXPECT_THROW(registry.add(std::make_unique<NullBackend>()),
                 FatalError);
    EXPECT_THROW(registry.add(nullptr), FatalError);
    EXPECT_EQ(registry.size(), 1u);
}

TEST(TimingBackend, AnalyticalBackendMatchesMultiRailBitForBit)
{
    Network net = topo::threeD512();
    auto spans = mapGroupToDims(net, 1, net.npus());
    BwConfig bw{120.0, 45.0, 12.5};
    const TimingBackend* analytical = resolveTimingBackend("");
    for (CollectiveType type :
         {CollectiveType::AllReduce, CollectiveType::ReduceScatter,
          CollectiveType::AllGather, CollectiveType::AllToAll}) {
        for (bool inNet : {false, true}) {
            CollectiveTiming a =
                analytical->timing(type, 5e9, spans, bw, inNet);
            CollectiveTiming m = multiRailTime(type, 5e9, spans, bw,
                                               inNet);
            EXPECT_EQ(a.time, m.time);
            EXPECT_EQ(a.trafficPerDim, m.trafficPerDim);
            EXPECT_EQ(a.timePerDim, m.timePerDim);
            EXPECT_EQ(a.bottleneckSpan, m.bottleneckSpan);
        }
    }
}

/**
 * Selecting the default backend by name must be bit-identical to the
 * seed path (no backend field at all): backend_ stays null in both
 * cases, so this pins the wiring rather than FP luck.
 */
TEST(TimingBackend, DefaultBackendIsBitIdenticalWithSeedPath)
{
    Network net = Network::parse("RI(4)_FC(4)_SW(4)");
    Workload w = wl::gpt3(net.npus());
    BwConfig bw = net.equalBw(300.0);

    TrainingEstimator seed(net); // Historical default construction.
    EstimatorOptions named;
    named.timingBackend = kAnalyticalTimingBackendName;
    TrainingEstimator explicitDefault(net, named);

    EXPECT_TRUE(seed.usesAnalyticalTiming());
    EXPECT_TRUE(explicitDefault.usesAnalyticalTiming());
    EXPECT_EQ(seed.estimate(w, bw), explicitDefault.estimate(w, bw));
    EXPECT_EQ(seed.detail(w, bw).total,
              explicitDefault.detail(w, bw).total);
}

TEST(TimingBackend, ChunkSimSingleDimensionMatchesAnalytical)
{
    // On a single-dimension span there is no pipeline to ramp: the
    // chunked sim serializes on the one dimension and reproduces the
    // analytical time (up to chunk-sum rounding and tick resolution).
    std::vector<DimSpan> spans{{0, 8, 1.0}};
    BwConfig bw{50.0};
    const TimingBackend* sim = resolveTimingBackend("chunk-sim");
    for (CollectiveType type :
         {CollectiveType::AllReduce, CollectiveType::ReduceScatter,
          CollectiveType::AllGather, CollectiveType::AllToAll}) {
        CollectiveTiming a = multiRailTime(type, 2e9, spans, bw);
        CollectiveTiming s = sim->timing(type, 2e9, spans, bw, false);
        EXPECT_NEAR(s.time, a.time, a.time * 1e-9)
            << "type " << static_cast<int>(type);
        EXPECT_EQ(s.trafficPerDim, a.trafficPerDim);
    }
}

/** One collective's timing, as a reference oracle computes it. */
using PerOpTiming = std::function<CollectiveTiming(
    CollectiveType, Bytes, const std::vector<DimSpan>&, const BwConfig&)>;

/**
 * estimate() and detail() under a non-default backend time each
 * distinct collective once per call and reuse it. That must be
 * invisible: both equal, bit for bit, the sums of one @p oracle call
 * per op in workload order.
 */
void
expectEstimatesEqualPerOpSums(const char* backend, const PerOpTiming& oracle)
{
    Network net = Network::parse("RI(4)_FC(4)_SW(4)");
    const BwConfig bw{140.0, 70.0, 40.0};
    for (const Workload& w :
         {wl::resnet50(net.npus()), wl::turingNlg(net.npus())}) {
        for (TrainingLoop loop :
             {TrainingLoop::NoOverlap, TrainingLoop::TpDpOverlap}) {
            SCOPED_TRACE(w.name + (loop == TrainingLoop::NoOverlap
                                       ? " NoOverlap"
                                       : " TpDpOverlap"));
            EstimatorOptions opt;
            opt.loop = loop;
            opt.timingBackend = backend;
            TrainingEstimator est(net, opt);

            std::vector<Seconds> dimBusy(net.numDims(), 0.0);
            std::vector<Bytes> dimTraffic(net.numDims(), 0.0);
            auto phase = [&](const std::vector<CommOp>& ops) {
                Seconds sum = 0.0;
                for (const auto& op : ops) {
                    auto spans = est.spansFor(w.strategy, op.scope);
                    if (spans.empty())
                        continue;
                    CollectiveTiming t = oracle(op.type, op.size, spans, bw);
                    sum += t.time;
                    for (std::size_t s = 0; s < spans.size(); ++s) {
                        dimBusy[spans[s].dim] += t.timePerDim[s];
                        dimTraffic[spans[s].dim] += t.trafficPerDim[s];
                    }
                }
                return sum;
            };
            Seconds total = 0.0;
            Seconds fwd = 0.0, ig = 0.0, wg = 0.0;
            for (const auto& layer : w.layers) {
                Seconds f = phase(layer.fwdComm);
                Seconds i = phase(layer.igComm);
                Seconds g = phase(layer.wgComm);
                fwd += f;
                ig += i;
                wg += g;
                total += layer.fwdCompute + f;
                if (loop == TrainingLoop::NoOverlap)
                    total += layer.igCompute + i + layer.wgCompute + g;
                else
                    total += layer.igCompute +
                             std::max(i, layer.wgCompute + g);
            }

            EXPECT_EQ(est.estimate(w, bw), total);
            EstimateDetail d = est.detail(w, bw);
            EXPECT_EQ(d.total, total);
            EXPECT_EQ(d.fwdComm, fwd);
            EXPECT_EQ(d.igComm, ig);
            EXPECT_EQ(d.wgComm, wg);
            EXPECT_EQ(d.dimBusy, dimBusy);
            EXPECT_EQ(d.dimTraffic, dimTraffic);
        }
    }
}

TEST(TimingBackend, ChunkSimEstimatesEqualPerOpBackendSums)
{
    const TimingBackend* sim = resolveTimingBackend("chunk-sim");
    expectEstimatesEqualPerOpSums(
        kChunkSimTimingBackendName,
        [sim](CollectiveType type, Bytes size,
              const std::vector<DimSpan>& spans, const BwConfig& bw) {
            return sim->timing(type, size, spans, bw, false);
        });
}

/**
 * The themis backend is exactly the Themis scheduler at 64 chunks:
 * estimates equal the per-op sums of themisCollectiveTiming itself.
 */
TEST(TimingBackend, ThemisEstimatesEqualPerOpThemisSums)
{
    expectEstimatesEqualPerOpSums(
        kThemisTimingBackendName,
        [](CollectiveType type, Bytes size,
           const std::vector<DimSpan>& spans, const BwConfig& bw) {
            return themisCollectiveTiming(bw.size(), type, size, spans, bw,
                                          64);
        });
}

TEST(TimingBackend, InNetworkAllReduceFallsBackToClosedForm)
{
    // The chunk simulator has no switch-reduction mode; the offloaded
    // All-Reduce must keep the analytical m / q_{i-1} form exactly.
    Network net = topo::threeDTorus();
    auto spans = mapGroupToDims(net, 1, net.npus());
    BwConfig bw{80.0, 40.0, 20.0};
    const TimingBackend* sim = resolveTimingBackend("chunk-sim");
    CollectiveTiming s =
        sim->timing(CollectiveType::AllReduce, 3e9, spans, bw, true);
    CollectiveTiming a =
        multiRailTime(CollectiveType::AllReduce, 3e9, spans, bw, true);
    EXPECT_EQ(s.time, a.time);
    EXPECT_EQ(s.trafficPerDim, a.trafficPerDim);
}

TEST(TimingBackend, EstimatorRejectsUnknownBackend)
{
    EstimatorOptions opt;
    opt.timingBackend = "no-such-backend";
    EXPECT_THROW(TrainingEstimator(Network::parse("RI(4)"), opt),
                 FatalError);
}

TEST(TimingBackend, CompileRejectedUnderNonDefaultBackend)
{
    Network net = Network::parse("RI(4)_FC(4)_SW(4)");
    EstimatorOptions opt;
    opt.timingBackend = kChunkSimTimingBackendName;
    TrainingEstimator est(net, opt);
    EXPECT_FALSE(est.usesAnalyticalTiming());
    EXPECT_THROW(est.compile(wl::resnet50(net.npus())), FatalError);
}

// --- BACKEND study directive -------------------------------------------

TEST(BackendDirective, ParseSerializeParseRoundTrips)
{
    const std::pair<std::string, std::string> tags[] = {
        {"chunk-sim", "chunk-sim/64/x1"}, {"themis", "themis/64"}};
    for (const auto& [backend, pinned] : tags) {
        SCOPED_TRACE(backend);
        LibraInputs first = parseStudyConfigString(
            "NETWORK RI(4)_FC(4)_SW(4)\nTOTAL_BW 300\nBACKEND " + backend +
            "\nWORKLOAD resnet50\n");
        EXPECT_EQ(first.config.estimator.timingBackend, backend);
        std::string serialized = studyConfigToString(first);
        EXPECT_NE(serialized.find("BACKEND " + backend + "\n"),
                  std::string::npos);
        LibraInputs second = parseStudyConfigString(serialized);
        EXPECT_TRUE(studyInputsEqual(first, second)) << serialized;
        // Fixpoint: serializing again reproduces the text byte-for-byte.
        EXPECT_EQ(serialized, studyConfigToString(second));
    }
}

TEST(BackendDirective, ExplicitAnalyticalEqualsOmittedDefault)
{
    LibraInputs named = parseStudyConfigString(
        "NETWORK RI(4)_SW(8)\nBACKEND analytical\nWORKLOAD resnet50\n");
    LibraInputs plain = parseStudyConfigString(
        "NETWORK RI(4)_SW(8)\nWORKLOAD resnet50\n");
    EXPECT_TRUE(studyInputsEqual(named, plain));
    // The serializer normalizes: the default backend emits no line.
    EXPECT_EQ(studyConfigToString(named).find("BACKEND"),
              std::string::npos);
}

TEST(BackendDirective, UnknownNameFailsWithLineNumber)
{
    try {
        parseStudyConfigString(
            "NETWORK RI(4)_SW(8)\nBACKEND warp-drive\n"
            "WORKLOAD resnet50\n");
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("warp-drive"),
                  std::string::npos)
            << e.what();
    }
}

// --- Study-cache key coverage ------------------------------------------

TEST(BackendCacheKey, DefaultBackendLeavesKeyUnchanged)
{
    LibraInputs plain = parseStudyConfigString(
        "NETWORK RI(4)_SW(8)\nWORKLOAD resnet50\n");
    LibraInputs named = plain;
    named.config.estimator.timingBackend = kAnalyticalTimingBackendName;
    // Pre-PR keys must stay byte-identical (no version bump).
    EXPECT_EQ(canonicalStudyKey(plain), canonicalStudyKey(named));
    EXPECT_EQ(canonicalStudyKey(plain).find("timing("),
              std::string::npos);
}

TEST(BackendCacheKey, NonDefaultBackendChangesKey)
{
    LibraInputs plain = parseStudyConfigString(
        "NETWORK RI(4)_SW(8)\nWORKLOAD resnet50\n");
    std::string plainKey = canonicalStudyKey(plain);
    std::vector<std::uint64_t> hashes{studyCacheHash(plain)};
    const std::pair<std::string, std::string> tags[] = {
        {"chunk-sim", "chunk-sim/64/x1"}, {"themis", "themis/64"}};
    for (const auto& [backend, pinned] : tags) {
        SCOPED_TRACE(backend);
        LibraInputs named = plain;
        named.config.estimator.timingBackend = backend;
        std::string key = canonicalStudyKey(named);
        EXPECT_NE(plainKey, key);
        // The folded content is the backend's cacheKeyTag — name plus
        // semantic parameters — so a chunk-count change invalidates
        // previously cached results of that backend. chunk-sim's "/x1"
        // marks its cross-fidelity search.
        std::string tag =
            "timing(" + resolveTimingBackend(backend)->cacheKeyTag() + ")";
        EXPECT_NE(key.find(tag), std::string::npos) << key;
        EXPECT_NE(key.find("timing(" + pinned + ") "),
                  std::string::npos)
            << key;
        hashes.push_back(studyCacheHash(named));
    }
    // Analytical, chunk-sim and themis points never share a cache entry.
    EXPECT_NE(hashes[0], hashes[1]);
    EXPECT_NE(hashes[0], hashes[2]);
    EXPECT_NE(hashes[1], hashes[2]);
}

} // namespace
} // namespace libra
