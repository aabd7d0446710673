#include "workload/transformer.hh"

#include "common/logging.hh"

namespace libra {

Workload
buildTransformer(const TransformerConfig& config)
{
    const long tp = config.strategy.tp;
    const long pp = config.strategy.pp;
    const long dp = config.strategy.dp;
    if (tp < 1 || pp < 1 || dp < 1)
        fatal("invalid parallelization ", config.strategy.name());
    if (config.numLayers % pp != 0) {
        fatal(config.name, ": ", config.numLayers,
              " layers do not split into ", pp, " pipeline stages");
    }

    Workload w;
    w.name = config.name;
    w.parameters = config.parameters();
    w.strategy = config.strategy;

    const double h = config.hidden;
    const double paramsPerLayer = 12.0 * h * h;
    const double tokens = config.batchPerGroup * config.seqLen;

    // GPipe-style pipeline bubble: the exposed fraction of the pipeline
    // fill/drain, amortized over the microbatches.
    const double bubble =
        pp > 1 ? 1.0 + static_cast<double>(pp - 1) / config.microbatches
               : 1.0;

    // Forward matmul FLOPs per layer per NPU: 2 per param per token,
    // sharded tp-way; inflated by the pipeline bubble.
    const double fwdFlops =
        2.0 * paramsPerLayer * tokens / static_cast<double>(tp);
    const Seconds fwdT =
        computeTime(fwdFlops, config.effectiveTflops) * bubble;

    // Megatron activation All-Reduce payload: b*s*h elements, FP16.
    const Bytes actBytes = tokens * h * kFp16Bytes;

    // ZeRO-2 gradient RS / parameter AG payload per layer per DP rank.
    const Bytes gradBytes =
        paramsPerLayer / static_cast<double>(tp) * kFp16Bytes;

    // With PP, each NPU hosts one stage's worth of layers; the IR lists
    // the layers a single NPU executes per iteration.
    const int layersPerStage = config.numLayers / static_cast<int>(pp);

    std::vector<Layer> layers;
    for (int l = 0; l < layersPerStage; ++l) {
        Layer layer;
        layer.name = "decoder-" + std::to_string(l);
        layer.fwdCompute = fwdT;
        // Backward = 2x forward, split between input-grad and weight-grad.
        layer.igCompute = fwdT;
        layer.wgCompute = fwdT;

        if (tp > 1) {
            // Megatron f/g conjugate operators: 2 ARs forward, 2 backward.
            for (int i = 0; i < 2; ++i) {
                layer.fwdComm.push_back({CollectiveType::AllReduce,
                                         CommScope::Tp, actBytes});
                layer.igComm.push_back({CollectiveType::AllReduce,
                                        CommScope::Tp, actBytes});
            }
        }
        if (pp > 1 && l == layersPerStage - 1) {
            // Stage boundary: the whole batch's activations hop to the
            // next stage forward, gradients hop back in the backward.
            layer.fwdComm.push_back({CollectiveType::PointToPoint,
                                     CommScope::Pp, actBytes});
            layer.igComm.push_back({CollectiveType::PointToPoint,
                                    CommScope::Pp, actBytes});
        }
        if (dp > 1) {
            layer.wgComm.push_back({CollectiveType::ReduceScatter,
                                    CommScope::Dp, gradBytes});
            layer.wgComm.push_back({CollectiveType::AllGather,
                                    CommScope::Dp, gradBytes});
        }
        layers.push_back(std::move(layer));
    }
    w.layers = std::move(layers);
    return w;
}

} // namespace libra
