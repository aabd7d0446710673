/**
 * @file
 * Tests for the workload IR and the analytical model builders.
 */

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "workload/dlrm.hh"
#include "workload/resnet.hh"
#include "workload/transformer.hh"
#include "workload/zoo.hh"

namespace libra {
namespace {

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
        w.layers.push_back(std::move(l));
    }
    return w;
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
    const std::vector<std::pair<const char*, std::function<void(Workload&)>>>
        mutations = {
            {"name", [](Workload& w) { w.name = "text-other"; }},
            {"parameters", [](Workload& w) { w.parameters *= 2.0; }},
            {"tp", [](Workload& w) { w.strategy.tp = 4; }},
            {"pp", [](Workload& w) { w.strategy.pp = 1; }},
            {"dp", [](Workload& w) { w.strategy.dp = 8; }},
            {"fwdCompute",
             [](Workload& w) { w.layers[1].fwdCompute += 1e-9; }},
            {"igCompute",
             [](Workload& w) { w.layers[1].igCompute += 1e-9; }},
            {"wgCompute",
             [](Workload& w) { w.layers[1].wgCompute += 1e-9; }},
            {"op type",
             [](Workload& w) {
                 w.layers[1].wgComm[0].type = CollectiveType::AllReduce;
             }},
            {"op scope",
             [](Workload& w) {
                 w.layers[1].wgComm[0].scope = CommScope::All;
             }},
            {"op size",
             [](Workload& w) { w.layers[1].wgComm[0].size += 1.0; }},
            {"fwdComm append",
             [](Workload& w) { w.layers[0].fwdComm.push_back({}); }},
            {"igComm append",
             [](Workload& w) { w.layers[0].igComm.push_back({}); }},
            {"wgComm append",
             [](Workload& w) { w.layers[0].wgComm.push_back({}); }},
            {"layer append",
             [](Workload& w) { w.layers.push_back(w.layers[0]); }},
        };
    const Workload base = textBase();
    const std::string baseText = canonicalText(base);
    std::vector<std::string> texts = {baseText};
    for (const auto& [what, mutate] : mutations) {
        Workload mutant = base;
        mutate(mutant);
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
    renamed.layers[1].name = "x";
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
    pos.layers[0].fwdComm[0].size = 0.0;
    Workload neg = pos;
    neg.parameters = -0.0;
    neg.layers[0].fwdComm[0].size = -0.0;
    EXPECT_TRUE(pos == neg);
    EXPECT_EQ(canonicalText(pos), canonicalText(neg));
    // Across a run boundary too: +0 and -0 layers form one run.
    Workload mixed = pos;
    mixed.layers[1] = pos.layers[0];
    mixed.layers[1].fwdComm[0].size = -0.0;
    Workload same = pos;
    same.layers[1] = pos.layers[0];
    EXPECT_EQ(canonicalText(mixed), canonicalText(same));
}

TEST(CommScopeNames, Resolve)
{
    EXPECT_EQ(commScopeName(CommScope::Tp), "TP");
    EXPECT_EQ(commScopeName(CommScope::Dp), "DP");
    EXPECT_EQ(commScopeName(CommScope::All), "ALL");
}

} // namespace
} // namespace libra
