#include "core/framework.hh"

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace libra {

namespace {

/** One study point, with the pool left alone (sweeps own the pool). */
LibraReport
runLibraPoint(const LibraInputs& inputs)
{
    Network net = Network::parse(inputs.networkShape);
    BwOptimizer optimizer(net, inputs.costModel);

    std::vector<TargetWorkload> targets = inputs.targets;
    if (inputs.normalizeTargetWeights) {
        TrainingEstimator estimator(net, inputs.config.estimator);
        targets = normalizeWeights(estimator, std::move(targets),
                                   inputs.config.totalBw);
    }

    LibraReport report;
    report.equalBw = optimizer.baseline(targets, inputs.config);
    report.optimized = optimizer.optimize(targets, inputs.config);

    if (report.optimized.weightedTime > 0.0) {
        report.speedup =
            report.equalBw.weightedTime / report.optimized.weightedTime;
    }
    double optRecip =
        report.optimized.weightedTime * report.optimized.cost;
    double eqRecip = report.equalBw.weightedTime * report.equalBw.cost;
    if (optRecip > 0.0)
        report.perfPerCostGain = eqRecip / optRecip;
    return report;
}

} // namespace

LibraReport
runLibra(const LibraInputs& inputs)
{
    if (inputs.threads > 0 && !ThreadPool::insidePool())
        ThreadPool::setGlobalThreads(
            static_cast<std::size_t>(inputs.threads));
    return runLibraPoint(inputs);
}

std::vector<LibraReport>
runLibraSweep(const std::vector<LibraInputs>& points)
{
    // Unwind-on-failure semantics, built on the isolated sweep so the
    // surfaced error is deterministic: always the lowest-index failing
    // point, independent of worker scheduling.
    SweepOutcome outcome = runLibraSweepIsolated(points);
    for (std::size_t i = 0; i < outcome.status.size(); ++i) {
        if (!outcome.status[i].ok)
            fatal(outcome.status[i].error);
    }
    return std::move(outcome.reports);
}

PointStatus
runLibraIsolated(const LibraInputs& inputs, LibraReport* report)
{
    PointStatus status;
    try {
        *report = runLibraPoint(inputs);
    } catch (const FatalError& e) {
        status.ok = false;
        status.error = fatalMessage(e);
    }
    return status;
}

SweepOutcome
runLibraSweepIsolated(const std::vector<LibraInputs>& points)
{
    SweepOutcome out;
    out.reports.resize(points.size());
    out.status.resize(points.size());

    parallelFor(points.size(), [&](std::size_t i) {
        out.status[i] = runLibraIsolated(points[i], &out.reports[i]);
    });
    for (const PointStatus& s : out.status)
        out.failed += s.ok ? 0 : 1;
    return out;
}

} // namespace libra
