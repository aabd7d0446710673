#include "workload/resnet.hh"

#include "common/logging.hh"

namespace libra {

namespace {

/** One ResNet-50 stage: share of params, share of FLOPs, block count. */
struct StageShape
{
    const char* name;
    double paramShare;
    double flopShare;
    int blocks;
};

// Approximate ResNet-50 proportions: early stages are FLOP-heavy on
// large feature maps; late stages hold most of the parameters.
constexpr StageShape kStages[] = {
    {"stem", 0.01, 0.10, 1},  {"conv2", 0.05, 0.20, 3},
    {"conv3", 0.12, 0.25, 4}, {"conv4", 0.35, 0.30, 6},
    {"conv5", 0.39, 0.13, 3}, {"fc", 0.08, 0.02, 1},
};

} // namespace

Workload
buildResnet(const ResnetConfig& config)
{
    if (config.npus < 2)
        fatal("ResNet DP needs at least 2 NPUs, got ", config.npus);

    Workload w;
    w.name = config.name;
    w.parameters = config.parameters;
    w.strategy = {1, config.npus};

    std::vector<Layer> layers;
    for (const auto& stage : kStages) {
        const double stageParams = config.parameters * stage.paramShare;
        const double stageFwdFlops = config.flopsPerImage *
                                     stage.flopShare * config.batchPerNpu;
        for (int b = 0; b < stage.blocks; ++b) {
            Layer layer;
            layer.name =
                std::string(stage.name) + "-" + std::to_string(b);
            const Seconds fwdT = computeTime(stageFwdFlops / stage.blocks,
                                             config.effectiveTflops);
            layer.fwdCompute = fwdT;
            layer.igCompute = fwdT;
            layer.wgCompute = fwdT;
            layer.wgComm.push_back(
                {CollectiveType::AllReduce, CommScope::Dp,
                 stageParams / stage.blocks * kFp16Bytes});
            layers.push_back(std::move(layer));
        }
    }
    w.layers = std::move(layers);
    return w;
}

} // namespace libra
