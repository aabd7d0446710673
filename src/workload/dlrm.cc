#include "workload/dlrm.hh"

#include "common/logging.hh"

namespace libra {

Workload
buildDlrm(const DlrmConfig& config)
{
    if (config.npus < 2)
        fatal("DLRM needs at least 2 NPUs, got ", config.npus);

    Workload w;
    w.name = config.name;
    w.parameters = config.mlpParameters;
    // MLPs are data-parallel across every NPU; embeddings are
    // model-parallel "across all NPUs" (Table II), exercised via the
    // All-scope All-to-All.
    w.strategy = {1, config.npus};

    // Embedding exchange: each NPU contributes one embedding vector per
    // table per sample, FP16.
    const Bytes a2aBytes = config.batchPerNpu * config.numTables *
                           config.embeddingDim * kFp16Bytes;

    Layer emb;
    emb.name = "embedding";
    // Lookup cost is memory-bound and tiny; model as zero compute.
    emb.fwdComm.push_back(
        {CollectiveType::AllToAll, CommScope::All, a2aBytes});
    emb.igComm.push_back(
        {CollectiveType::AllToAll, CommScope::All, a2aBytes});
    std::vector<Layer> layers;
    layers.push_back(std::move(emb));

    const double paramsPerLayer =
        config.mlpParameters / config.numMlpLayers;
    const Bytes gradBytes = paramsPerLayer * kFp16Bytes;
    const double fwdFlops = 2.0 * paramsPerLayer * config.batchPerNpu;
    const Seconds fwdT = computeTime(fwdFlops, config.effectiveTflops);

    for (int l = 0; l < config.numMlpLayers; ++l) {
        Layer layer;
        layer.name = "mlp-" + std::to_string(l);
        layer.fwdCompute = fwdT;
        layer.igCompute = fwdT;
        layer.wgCompute = fwdT;
        layer.wgComm.push_back(
            {CollectiveType::AllReduce, CommScope::Dp, gradBytes});
        layers.push_back(std::move(layer));
    }
    w.layers = std::move(layers);
    return w;
}

} // namespace libra
