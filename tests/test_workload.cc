/**
 * @file
 * Tests for the workload IR and the analytical model builders.
 *
 * This binary replaces the global operator new with a counting one, so
 * a guard can pin that copying a workload allocates no per-layer
 * storage.
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "core/framework.hh"
#include "study/cache.hh"
#include "workload/dlrm.hh"
#include "workload/parser.hh"
#include "workload/resnet.hh"
#include "workload/transformer.hh"
#include "workload/zoo.hh"

namespace {

std::atomic<bool> gArmed{false};
std::atomic<long long> gAllocations{0};

} // namespace

// Out of line, so GCC's -Wmismatched-new-delete cannot see a free()
// inlined against an operator new result.
[[gnu::noinline]] void*
operator new(std::size_t size)
{
    if (gArmed.load(std::memory_order_relaxed))
        gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace libra {
namespace {

/** Global operator new calls made by @p body. */
long long
allocationsOf(const std::function<void()>& body)
{
    gAllocations = 0;
    gArmed = true;
    body();
    gArmed = false;
    return gAllocations;
}

TEST(Transformer, ParameterCountsMatchTableTwo)
{
    // Table II parameter counts within a few percent.
    EXPECT_NEAR(wl::turingNlg(1024).parameters, 17e9, 0.05 * 17e9);
    EXPECT_NEAR(wl::gpt3(1024).parameters, 175e9, 0.05 * 175e9);
    EXPECT_NEAR(wl::msft1T(4096).parameters, 1e12, 0.05 * 1e12);
}

TEST(Transformer, TableTwoTpSizes)
{
    EXPECT_EQ(wl::turingNlg(1024).strategy.tp, 1);
    EXPECT_EQ(wl::gpt3(1024).strategy.tp, 16);
    EXPECT_EQ(wl::msft1T(4096).strategy.tp, 128);
    EXPECT_EQ(wl::resnet50(1024).strategy.tp, 1);
}

TEST(Transformer, NoTpCommWhenTpIsOne)
{
    Workload w = wl::turingNlg(1024);
    for (const auto& layer : w.layers) {
        EXPECT_TRUE(layer.fwdComm.empty());
        EXPECT_TRUE(layer.igComm.empty());
        EXPECT_FALSE(layer.wgComm.empty());
    }
}

TEST(Transformer, MegatronCommStructure)
{
    Workload w = wl::gpt3(1024);
    ASSERT_EQ(w.layers.size(), 96u);
    const Layer& l = w.layers[0];
    // 2 activation ARs forward, 2 backward; ZeRO-2 RS+AG for grads.
    ASSERT_EQ(l.fwdComm.size(), 2u);
    EXPECT_EQ(l.fwdComm[0].type, CollectiveType::AllReduce);
    EXPECT_EQ(l.fwdComm[0].scope, CommScope::Tp);
    ASSERT_EQ(l.igComm.size(), 2u);
    ASSERT_EQ(l.wgComm.size(), 2u);
    EXPECT_EQ(l.wgComm[0].type, CollectiveType::ReduceScatter);
    EXPECT_EQ(l.wgComm[1].type, CollectiveType::AllGather);
    EXPECT_EQ(l.wgComm[0].scope, CommScope::Dp);
}

TEST(Transformer, ActivationBytesFormula)
{
    TransformerConfig c;
    c.numLayers = 1;
    c.hidden = 1000;
    c.seqLen = 100;
    c.batchPerGroup = 10;
    c.strategy = {2, 1};
    Workload w = buildTransformer(c);
    // b*s*h*2 bytes = 10*100*1000*2 = 2e6.
    EXPECT_NEAR(w.layers[0].fwdComm[0].size, 2e6, 1.0);
}

TEST(Transformer, GradientBytesShardedByTp)
{
    TransformerConfig c;
    c.numLayers = 1;
    c.hidden = 1000;
    c.strategy = {4, 2};
    Workload w = buildTransformer(c);
    // 12h^2/tp * 2B = 12e6/4*2 = 6e6.
    EXPECT_NEAR(w.layers[0].wgComm[0].size, 6e6, 1.0);
}

TEST(Transformer, ComputeScalesWithBatchAndTp)
{
    TransformerConfig c;
    c.numLayers = 2;
    c.hidden = 2048;
    c.batchPerGroup = 16;
    c.strategy = {1, 4};
    Seconds base = buildTransformer(c).totalCompute();

    c.batchPerGroup = 32;
    EXPECT_NEAR(buildTransformer(c).totalCompute(), 2.0 * base,
                1e-9 * base);

    c.batchPerGroup = 16;
    c.strategy = {4, 1};
    EXPECT_NEAR(buildTransformer(c).totalCompute(), base / 4.0,
                1e-9 * base);
}

TEST(Transformer, BackwardIsTwiceForward)
{
    Workload w = wl::gpt3(1024);
    for (const auto& l : w.layers)
        EXPECT_NEAR(l.igCompute + l.wgCompute, 2.0 * l.fwdCompute,
                    1e-12);
}

TEST(Transformer, InvalidStrategyThrows)
{
    TransformerConfig c;
    c.strategy = {0, 4};
    EXPECT_THROW(buildTransformer(c), FatalError);
}

TEST(Dlrm, EmbeddingAllToAllAcrossAllNpus)
{
    Workload w = wl::dlrm(4096);
    const Layer& emb = w.layers[0];
    ASSERT_EQ(emb.fwdComm.size(), 1u);
    EXPECT_EQ(emb.fwdComm[0].type, CollectiveType::AllToAll);
    EXPECT_EQ(emb.fwdComm[0].scope, CommScope::All);
    ASSERT_EQ(emb.igComm.size(), 1u);
    EXPECT_EQ(emb.igComm[0].type, CollectiveType::AllToAll);
}

TEST(Dlrm, MlpLayersAreDataParallel)
{
    DlrmConfig c;
    c.npus = 512;
    Workload w = buildDlrm(c);
    EXPECT_EQ(w.layers.size(),
              static_cast<std::size_t>(c.numMlpLayers) + 1);
    Bytes gradTotal = 0.0;
    for (std::size_t i = 1; i < w.layers.size(); ++i) {
        ASSERT_EQ(w.layers[i].wgComm.size(), 1u);
        gradTotal += w.layers[i].wgComm[0].size;
    }
    // All MLP grads together: 57M params * 2B.
    EXPECT_NEAR(gradTotal, 57e6 * 2.0, 1.0);
}

TEST(Dlrm, TooFewNpusThrows)
{
    DlrmConfig c;
    c.npus = 1;
    EXPECT_THROW(buildDlrm(c), FatalError);
}

TEST(Resnet, ParameterTotalPreserved)
{
    Workload w = wl::resnet50(1024);
    Bytes gradTotal = 0.0;
    for (const auto& l : w.layers)
        for (const auto& op : l.wgComm)
            gradTotal += op.size;
    EXPECT_NEAR(gradTotal, 25.6e6 * 2.0, 25.6e6 * 2.0 * 1e-6);
}

TEST(Resnet, EighteenBlocks)
{
    Workload w = wl::resnet50(1024);
    EXPECT_EQ(w.layers.size(), 18u); // 1+3+4+6+3+1 stage blocks.
    EXPECT_GT(w.totalCompute(), 0.0);
}

TEST(Zoo, TableTwoComplete)
{
    auto all = wl::tableTwo(4096);
    ASSERT_EQ(all.size(), 5u);
    EXPECT_EQ(all[0].name, "Turing-NLG");
    EXPECT_EQ(all[1].name, "GPT-3");
    EXPECT_EQ(all[2].name, "MSFT-1T");
    EXPECT_EQ(all[3].name, "DLRM");
    EXPECT_EQ(all[4].name, "ResNet-50");
    for (const auto& w : all)
        EXPECT_EQ(w.strategy.npus(), 4096);
}

TEST(Zoo, IndivisibleTpThrows)
{
    EXPECT_THROW(wl::msft1T(1000), FatalError);
}

TEST(Zoo, CommSizesOrderedBySize)
{
    // Fig. 1's trend: newer/larger models communicate more per step.
    long n = 4096;
    Bytes resnet = wl::resnet50(n).totalCommPayload();
    Bytes tnlg = wl::turingNlg(n).totalCommPayload();
    Bytes gpt3 = wl::gpt3(n).totalCommPayload();
    Bytes msft = wl::msft1T(n).totalCommPayload();
    EXPECT_LT(resnet, tnlg);
    EXPECT_LT(tnlg, gpt3);
    EXPECT_LT(gpt3, msft);
}

TEST(Workload, HelperAccessors)
{
    Workload w = wl::gpt3(1024);
    EXPECT_EQ(w.strategy.name(), "HP-(16, 64)");
    auto ops = Workload::allOps(w.layers[0]);
    EXPECT_EQ(ops.size(), 6u); // 2 fwd + 2 ig + 2 wg.
    EXPECT_GT(w.totalCommPayload(), 0.0);
}

// --- Canonical text ------------------------------------------------------

/** A small workload with ops in every comm list of every layer. */
Workload
textBase()
{
    Workload w;
    w.name = "text-base";
    w.parameters = 1.5e9;
    w.strategy = Parallelization(2, 2, 4);
    std::vector<Layer> layers;
    for (int i = 0; i < 2; ++i) {
        Layer l;
        l.name = "layer" + std::to_string(i);
        l.fwdCompute = 1e-3 * (i + 1);
        l.igCompute = 2e-3 * (i + 1);
        l.wgCompute = 3e-3 * (i + 1);
        l.fwdComm.push_back({CollectiveType::AllReduce, CommScope::Tp,
                             4096.0 * (i + 1)});
        l.igComm.push_back({CollectiveType::AllGather, CommScope::Pp,
                            8192.0});
        l.wgComm.push_back({CollectiveType::ReduceScatter, CommScope::Dp,
                            1.25e6});
        layers.push_back(std::move(l));
    }
    w.layers = std::move(layers);
    return w;
}

/** A mutable copy of @p w's layers, to edit and assign back. */
std::vector<Layer>
layersOf(const Workload& w)
{
    return {w.layers.begin(), w.layers.end()};
}

std::string
canonicalText(const Workload& w)
{
    std::string out;
    appendCanonicalText(out, w);
    return out;
}

TEST(WorkloadCanonicalText, EveryResultFieldMutationChangesTheText)
{
    // Each mutation edits the workload or a copy of its layers, which
    // is then assigned back.
    using Layers = std::vector<Layer>;
    const std::vector<
        std::pair<const char*, std::function<void(Workload&, Layers&)>>>
        mutations = {
            {"name", [](Workload& w, Layers&) { w.name = "text-other"; }},
            {"parameters",
             [](Workload& w, Layers&) { w.parameters *= 2.0; }},
            {"tp", [](Workload& w, Layers&) { w.strategy.tp = 4; }},
            {"pp", [](Workload& w, Layers&) { w.strategy.pp = 1; }},
            {"dp", [](Workload& w, Layers&) { w.strategy.dp = 8; }},
            {"fwdCompute",
             [](Workload&, Layers& l) { l[1].fwdCompute += 1e-9; }},
            {"igCompute",
             [](Workload&, Layers& l) { l[1].igCompute += 1e-9; }},
            {"wgCompute",
             [](Workload&, Layers& l) { l[1].wgCompute += 1e-9; }},
            {"op type",
             [](Workload&, Layers& l) {
                 l[1].wgComm[0].type = CollectiveType::AllReduce;
             }},
            {"op scope",
             [](Workload&, Layers& l) {
                 l[1].wgComm[0].scope = CommScope::All;
             }},
            {"op size",
             [](Workload&, Layers& l) { l[1].wgComm[0].size += 1.0; }},
            {"fwdComm append",
             [](Workload&, Layers& l) { l[0].fwdComm.push_back({}); }},
            {"igComm append",
             [](Workload&, Layers& l) { l[0].igComm.push_back({}); }},
            {"wgComm append",
             [](Workload&, Layers& l) { l[0].wgComm.push_back({}); }},
            {"layer append",
             [](Workload&, Layers& l) { l.push_back(l[0]); }},
        };
    const Workload base = textBase();
    const std::string baseText = canonicalText(base);
    std::vector<std::string> texts = {baseText};
    for (const auto& [what, mutate] : mutations) {
        Workload mutant = base;
        Layers layers = layersOf(base);
        mutate(mutant, layers);
        mutant.layers = std::move(layers);
        EXPECT_FALSE(mutant == base) << what;
        texts.push_back(canonicalText(mutant));
        EXPECT_NE(texts.back(), baseText) << what;
    }
    // No two mutants collide either.
    std::sort(texts.begin(), texts.end());
    EXPECT_EQ(std::adjacent_find(texts.begin(), texts.end()), texts.end());
}

// A layer name reaches no estimate and no report, so the key leaves it
// out: renaming a layer must not turn a warm cache cold.
TEST(WorkloadCanonicalText, LayerNamesDoNotChangeTheText)
{
    const Workload base = textBase();
    Workload renamed = base;
    std::vector<Layer> layers = layersOf(base);
    layers[1].name = "x";
    renamed.layers = std::move(layers);
    EXPECT_FALSE(renamed == base);
    EXPECT_EQ(canonicalText(renamed), canonicalText(base));
}

// Layers are written as runs of equal layers; a run's length is part
// of the text, so moving a run boundary always changes it.
TEST(WorkloadCanonicalText, RunBoundariesStayDistinct)
{
    const Workload base = textBase();
    const Layer a = base.layers[0];
    Layer b = base.layers[1];
    auto text = [&](std::vector<Layer> layers) {
        Workload w = base;
        w.layers = std::move(layers);
        return canonicalText(w);
    };
    EXPECT_NE(text({a, a, b}), text({a, b, b}));
    EXPECT_NE(text({a}), text({a, a}));
    EXPECT_NE(text({a, b, a}), text({a, a, b}));
    EXPECT_NE(text({a, a, a}), text({a, a}));
    // Names inside a run do not split it.
    Layer a2 = a;
    a2.name = "other";
    EXPECT_EQ(text({a, a2, b}), text({a, a, b}));
    // A run of n is written once: longer runs cost a few digits.
    EXPECT_LT(text({a, a, a, a, a, a, a, a, a, a}).size(),
              text({a, b}).size());
}

TEST(WorkloadCanonicalText, SignedZerosShareOneText)
{
    Workload pos = textBase();
    pos.parameters = 0.0;
    std::vector<Layer> posLayers = layersOf(pos);
    posLayers[0].fwdComm[0].size = 0.0;
    pos.layers = posLayers;
    Workload neg = pos;
    neg.parameters = -0.0;
    std::vector<Layer> negLayers = posLayers;
    negLayers[0].fwdComm[0].size = -0.0;
    neg.layers = negLayers;
    EXPECT_TRUE(pos == neg);
    EXPECT_EQ(canonicalText(pos), canonicalText(neg));
    // Across a run boundary too: +0 and -0 layers form one run.
    Workload mixed = pos;
    Layer negZero = posLayers[0];
    negZero.fwdComm[0].size = -0.0;
    mixed.layers = {posLayers[0], negZero};
    Workload same = pos;
    same.layers = {posLayers[0], posLayers[0]};
    EXPECT_EQ(canonicalText(mixed), canonicalText(same));
}

// Every cache key embeds this text, so its bytes are pinned here for
// each zoo workload at two NPU counts, a parsed workload and an empty
// one: a change in how the text is formed or where it is kept must not
// move a byte. Lengths and FNV-1a digests were captured when layers
// were still a plain vector re-walked on every call.
TEST(WorkloadCanonicalText, ZooParsedAndEmptyTextsArePinned)
{
    struct Pin
    {
        const char* what;
        Workload workload;
        std::size_t bytes;
        std::uint64_t fnv;
    };
    const std::vector<Pin> pins = {
        {"turing-nlg/1024", wl::turingNlg(1024), 151, 0xa9c54355a473e923ull},
        {"turing-nlg/4096", wl::turingNlg(4096), 151, 0xa08c7eaf3721ed47ull},
        {"gpt3/1024", wl::gpt3(1024), 202, 0x6028f6770c5e0111ull},
        {"gpt3/4096", wl::gpt3(4096), 203, 0x939c826a6d74a820ull},
        {"gpt3-pp/16,8,32", wl::gpt3WithStrategy(16, 8, 32), 395,
         0x1dcc0b2cbbb8183bull},
        {"msft1t/1024", wl::msft1T(1024), 207, 0x2c542e6011c33560ull},
        {"msft1t/4096", wl::msft1T(4096), 208, 0xb7471860a042176dull},
        {"msft1t-hp/64,64", wl::msft1TWithStrategy(64, 64), 207,
         0x72c7b4a0c5ce2489ull},
        {"dlrm/1024", wl::dlrm(1024), 168, 0x187fa1ce04d43e03ull},
        {"dlrm/4096", wl::dlrm(4096), 168, 0x8462dd61716fae8full},
        {"resnet50/1024", wl::resnet50(1024), 606, 0xb618f3d02220d173ull},
        {"resnet50/4096", wl::resnet50(4096), 606, 0xe916bb04d754c17full},
        {"parsed", parseWorkloadString(R"(
WORKLOAD parsed-demo
PARAMS 1e9
STRATEGY TP 4 PP 2 DP 8
LAYER a
  FWD_COMPUTE 0.5
  IG_COMPUTE 0.25
  WG_COMPUTE 0.125
  FWD_COMM ALLREDUCE TP 1e8
  WG_COMM REDUCESCATTER DP 2e7
  WG_COMM ALLGATHER DP 2e7
END
LAYER b
  FWD_COMPUTE 0.5
  IG_COMPUTE 0.25
  WG_COMPUTE 0.125
  FWD_COMM ALLREDUCE TP 1e8
  WG_COMM REDUCESCATTER DP 2e7
  WG_COMM ALLGATHER DP 2e7
END
LAYER c
  FWD_COMPUTE 0.75
  FWD_COMM P2P PP 3.5e6
  IG_COMM ALLTOALL ALL 5e6
END
)"),
         154, 0xbdaedd848f0e5cadull},
        {"empty", Workload{}, 23, 0x9af27f676d2a2959ull},
    };
    for (const Pin& pin : pins) {
        const std::string text = canonicalText(pin.workload);
        EXPECT_EQ(text.size(), pin.bytes) << pin.what;
        EXPECT_EQ(studyCacheHashOfKey(text), pin.fnv) << pin.what;
    }
}

// --- Shared layer arrays -------------------------------------------------

TEST(LayerList, CopiesShareOneArray)
{
    const Workload a = wl::gpt3(1024);
    const Workload b = a;
    ASSERT_EQ(b.layers.size(), 96u);
    EXPECT_EQ(&a.layers[0], &b.layers[0]);
    EXPECT_EQ(&a.layers.back(), &b.layers.back());
}

TEST(LayerList, EqualityComparesContent)
{
    // Two builds share no storage, yet compare equal layer by layer.
    const Workload a = wl::gpt3(1024);
    const Workload b = wl::gpt3(1024);
    EXPECT_NE(&a.layers[0], &b.layers[0]);
    EXPECT_TRUE(a == b);

    // Assigning an edited copy of the layers leaves the source alone.
    Workload edited = a;
    std::vector<Layer> layers = layersOf(a);
    layers.back().wgCompute += 1e-9;
    edited.layers = std::move(layers);
    EXPECT_FALSE(edited == a);
    EXPECT_EQ(a.layers.back(), b.layers.back());

    EXPECT_TRUE(LayerList() == LayerList(std::vector<Layer>{}));
    EXPECT_FALSE(LayerList() == LayerList({a.layers[0]}));
}

// A point, a candidate and a serve request's build each copy their
// workloads, so a copy must cost a reference count, not a layer walk.
TEST(LayerList, CopyingAllocatesNoPerLayerStorage)
{
    const Workload msft = wl::msft1T(4096);
    ASSERT_EQ(msft.layers.size(), 128u);
    std::vector<Workload> workloads;
    workloads.reserve(1);
    // "MSFT-1T" fits the short-string buffer: nothing to allocate.
    EXPECT_EQ(allocationsOf([&] { workloads.push_back(msft); }), 0);

    LibraInputs full;
    full.networkShape = "RI(4)_FC(8)_RI(4)_SW(32)";
    full.targets = {{msft, 1.0}};
    LibraInputs single = full;
    single.targets[0].workload.layers = {msft.layers[0]};
    std::vector<LibraInputs> copies;
    copies.reserve(2);
    const long long fullCount =
        allocationsOf([&] { copies.push_back(full); });
    const long long singleCount =
        allocationsOf([&] { copies.push_back(single); });
    EXPECT_EQ(fullCount, singleCount);
    EXPECT_LE(fullCount, 8);
}

// Pool threads copy, read and drop copies of one workload while the
// original lives on: the shared array's reference count is the only
// thing they write.
TEST(LayerList, PoolThreadsShareOneWorkload)
{
    const Workload original = wl::msft1T(4096);
    std::string originalText;
    appendCanonicalText(originalText, original);
    const Seconds compute = original.totalCompute();

    ThreadPool pool(4);
    std::vector<int> ok(64, 0);
    pool.parallelFor(ok.size(), [&](std::size_t i) {
        Workload copy = original;
        std::vector<Workload> more(i % 4 + 1, copy);
        std::string text;
        appendCanonicalText(text, more.back());
        ok[i] = more.front() == original && text == originalText &&
                copy.totalCompute() == compute;
    });
    EXPECT_EQ(std::count(ok.begin(), ok.end(), 1), 64);
}

TEST(CommScopeNames, Resolve)
{
    EXPECT_EQ(commScopeName(CommScope::Tp), "TP");
    EXPECT_EQ(commScopeName(CommScope::Dp), "DP");
    EXPECT_EQ(commScopeName(CommScope::All), "ALL");
}

} // namespace
} // namespace libra
