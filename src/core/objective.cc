#include "core/objective.hh"

#include <algorithm>
#include <functional>
#include <memory>

#include "common/logging.hh"

namespace libra {

std::string
objectiveName(OptimizationObjective o)
{
    switch (o) {
      case OptimizationObjective::PerfOpt:
        return "PerfOptBW";
      case OptimizationObjective::PerfPerCostOpt:
        return "PerfPerCostOptBW";
    }
    panic("unknown objective");
}

Seconds
weightedTime(const TrainingEstimator& estimator,
             const std::vector<TargetWorkload>& targets,
             const BwConfig& bw)
{
    Seconds t = 0.0;
    for (const auto& target : targets)
        t += target.weight * estimator.estimate(target.workload, bw);
    return t;
}

CompiledObjective::CompiledObjective(
    OptimizationObjective objective, const TrainingEstimator& estimator,
    const CostModel& cost_model,
    const std::vector<TargetWorkload>& targets)
    : objective_(objective), estimator_(&estimator),
      npus_(static_cast<double>(estimator.network().npus()))
{
    compiled_.reserve(targets.size());
    for (const auto& target : targets) {
        compiled_.emplace_back(estimator.compile(target.workload),
                               target.weight);
    }
    for (std::size_t i = 0; i < estimator.network().numDims(); ++i)
        dollarPerGBps_.push_back(
            cost_model.dollarPerGBps(estimator.network().dim(i)));
}

double
CompiledObjective::applyCost(Seconds time, const Vec& x) const
{
    if (objective_ == OptimizationObjective::PerfOpt)
        return time;
    // CostModel::networkCost with the per-dimension rates hoisted: the
    // same adds and multiplies in the same order.
    double perNpu = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
        perNpu += dollarPerGBps_[i] * x[i];
    Dollars c = perNpu * npus_;
    return time * c;
}

void
CompiledObjective::checkRank(const Vec& x) const
{
    if (x.size() != estimator_->network().numDims()) {
        panic("point rank ", x.size(), " != compiled rank ",
              estimator_->network().numDims());
    }
}

double
CompiledObjective::evaluateOne(const Vec& x) const
{
    checkRank(x);
    Seconds t = 0.0;
    for (const auto& [cw, weight] : compiled_)
        t += weight * cw.estimate(x);
    return applyCost(t, x);
}

void
CompiledObjective::evaluateBatch(const Vec* xs, std::size_t n,
                                 double* out) const
{
    // Cache-blocked candidate-major evaluation: each workload's SoA
    // arrays stream once per block through the SIMD kernels, and the
    // weighted sum accumulates per candidate slot in workload order —
    // the same adds, in the same order, as evaluateOne. Callers are
    // already pool work (multistart and sweep lanes), so the blocks
    // run in order on the calling thread.
    for (std::size_t i = 0; i < n; ++i)
        checkRank(xs[i]);
    constexpr std::size_t kBlock = 32;
    for (std::size_t lo = 0; lo < n; lo += kBlock) {
        const std::size_t count = std::min(kBlock, n - lo);
        Seconds tmp[kBlock];
        Seconds acc[kBlock];
        for (std::size_t i = 0; i < count; ++i)
            acc[i] = 0.0;
        for (const auto& [cw, weight] : compiled_) {
            cw.estimateBatch(xs + lo, count, tmp);
            for (std::size_t i = 0; i < count; ++i)
                acc[i] += weight * tmp[i];
        }
        for (std::size_t i = 0; i < count; ++i)
            out[lo + i] = applyCost(acc[i], xs[lo + i]);
    }
}

ScalarObjective
makeObjective(OptimizationObjective objective,
              const TrainingEstimator& estimator,
              const CostModel& cost_model,
              const std::vector<TargetWorkload>& targets)
{
    // Non-default timing backends cannot be precompiled: fall back to
    // the direct estimator, one call at a time.
    if (!estimator.usesAnalyticalTiming()) {
        std::function<Seconds(const Vec&)> time =
            [&estimator, &targets](const Vec& bw) {
                return weightedTime(estimator, targets, bw);
            };
        switch (objective) {
          case OptimizationObjective::PerfOpt:
            return time;
          case OptimizationObjective::PerfPerCostOpt:
            return [time, &estimator, &cost_model](const Vec& bw) {
                Dollars c =
                    cost_model.networkCost(estimator.network(), bw);
                return time(bw) * c;
            };
        }
        panic("unknown objective");
    }

    // Precompiled path: the solver calls the objective tens of
    // thousands of times, so resolve every collective's per-dimension
    // traffic once up front. Wrapping the CompiledObjective in
    // BatchableObjective lets solvers recover the batched facet with
    // batchFacet().
    return BatchableObjective{std::make_shared<const CompiledObjective>(
        objective, estimator, cost_model, targets)};
}

std::vector<TargetWorkload>
normalizeWeights(const TrainingEstimator& estimator,
                 std::vector<TargetWorkload> targets, double total_bw)
{
    BwConfig equal = estimator.network().equalBw(total_bw);
    for (auto& target : targets) {
        Seconds t = estimator.estimate(target.workload, equal);
        if (t > 0.0)
            target.weight = 1.0 / t;
    }
    return targets;
}

} // namespace libra
