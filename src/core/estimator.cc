#include "core/estimator.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/logging.hh"
#include "core/timing_backend.hh"

namespace libra {

namespace {

/**
 * Contract check at the pluggable-timing seam: whatever a non-default
 * backend returns must be nonnegative and finite, with per-dimension
 * vectors aligned with the span list (the detail() accumulators index
 * them by span). The built-in analytical path skips this — it
 * constructs valid timings by definition.
 */
const CollectiveTiming&
checkedTiming(const CollectiveTiming& t,
              const std::vector<DimSpan>& spans, const char* source)
{
    if (!(std::isfinite(t.time) && t.time >= 0.0)) {
        fatal("timing model '", source, "' returned invalid collective "
              "time ", t.time, " (must be nonnegative and finite)");
    }
    if (t.timePerDim.size() != spans.size() ||
        t.trafficPerDim.size() != spans.size()) {
        fatal("timing model '", source, "' returned ",
              t.timePerDim.size(), " per-dim times / ",
              t.trafficPerDim.size(), " per-dim traffics for ",
              spans.size(), " spans");
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (!(std::isfinite(t.timePerDim[i]) && t.timePerDim[i] >= 0.0 &&
              std::isfinite(t.trafficPerDim[i]) &&
              t.trafficPerDim[i] >= 0.0)) {
            fatal("timing model '", source, "' returned invalid "
                  "time/traffic for span ", i, " (dim ",
                  spans[i].dim + 1, "): ", t.timePerDim[i], " s / ",
                  t.trafficPerDim[i], " bytes");
        }
    }
    return t;
}

} // namespace

/**
 * Within one estimate() or detail() call the bandwidth vector and each
 * scope's spans are fixed, and a registered backend's timing() is a
 * pure function of its arguments (core/timing_backend.hh). So every
 * op with the same (type, scope, size bits) gets the same timing:
 * time it once, then reuse it in the original op order. Layered
 * workloads repeat a handful of distinct collectives per call, so a
 * linear scan finds them; each miss costs a whole simulation.
 */
struct TrainingEstimator::CallTimings
{
    struct Entry
    {
        CollectiveType type;
        CommScope scope;
        Bytes size;
        CollectiveTiming timing;
    };
    std::vector<Entry> entries;

    /** The timing of @p op; valid until the next get(). */
    const CollectiveTiming&
    get(const TrainingEstimator& est, const CommOp& op,
        const std::vector<DimSpan>& spans, const BwConfig& bw)
    {
        for (const Entry& e : entries) {
            if (e.type == op.type && e.scope == op.scope &&
                std::memcmp(&e.size, &op.size, sizeof(Bytes)) == 0)
                return e.timing;
        }
        entries.push_back({op.type, op.scope, op.size,
                           est.timingOf(op.type, op.size, spans, bw)});
        return entries.back().timing;
    }
};

TrainingEstimator::TrainingEstimator(Network net, EstimatorOptions options)
    : net_(std::move(net)), options_(std::move(options))
{
    // Resolve (and validate) a non-default backend once up front;
    // the default keeps backend_ null so the analytical path is
    // bit-identical to the historical hard-wired one.
    if (timingBackendOrDefault(options_.timingBackend) !=
        kAnalyticalTimingBackendName) {
        backend_ = resolveTimingBackend(options_.timingBackend);
    }
}

std::vector<DimSpan>
TrainingEstimator::spansFor(const Parallelization& strategy,
                            CommScope scope) const
{
    bool eff = options_.modelPartialDimEfficiency;
    switch (scope) {
      case CommScope::Tp:
        return mapGroupToDims(net_, 1, strategy.tp, eff);
      case CommScope::Pp:
        return mapGroupToDims(net_, strategy.tp, strategy.pp, eff);
      case CommScope::Dp:
        return mapGroupToDims(net_, strategy.tp * strategy.pp,
                              strategy.dp, eff);
      case CommScope::All:
        return mapGroupToDims(net_, 1, net_.npus(), eff);
    }
    panic("unknown comm scope");
}

Seconds
TrainingEstimator::commTime(const CommOp& op,
                            const Parallelization& strategy,
                            const BwConfig& bw) const
{
    auto spans = spansFor(strategy, op.scope);
    if (spans.empty())
        return 0.0;
    return timingOf(op.type, op.size, spans, bw).time;
}

CollectiveTiming
TrainingEstimator::timingOf(CollectiveType type, Bytes size,
                            const std::vector<DimSpan>& spans,
                            const BwConfig& bw) const
{
    if (backend_) {
        return checkedTiming(
            backend_->timing(type, size, spans, bw,
                             options_.inNetworkCollectives),
            spans, backend_->name().c_str());
    }
    return multiRailTime(type, size, spans, bw,
                         options_.inNetworkCollectives);
}

TrainingEstimator::ScopeSpans
TrainingEstimator::spansForAll(const Parallelization& strategy) const
{
    ScopeSpans all;
    for (CommScope scope : {CommScope::Tp, CommScope::Pp, CommScope::Dp,
                            CommScope::All}) {
        all[static_cast<std::size_t>(scope)] = spansFor(strategy, scope);
    }
    return all;
}

Seconds
TrainingEstimator::commListTime(const std::vector<CommOp>& ops,
                                const ScopeSpans& scopeSpans,
                                const BwConfig& bw,
                                EstimateDetail* detail,
                                CallTimings* per_call) const
{
    Seconds total = 0.0;
    CollectiveTiming fresh;
    for (const auto& op : ops) {
        const auto& spans =
            scopeSpans[static_cast<std::size_t>(op.scope)];
        if (spans.empty())
            continue;
        if (!per_call)
            fresh = timingOf(op.type, op.size, spans, bw);
        const CollectiveTiming& timing =
            per_call ? per_call->get(*this, op, spans, bw) : fresh;
        total += timing.time;
        if (detail) {
            for (std::size_t s = 0; s < spans.size(); ++s) {
                detail->dimBusy[spans[s].dim] += timing.timePerDim[s];
                detail->dimTraffic[spans[s].dim] +=
                    timing.trafficPerDim[s];
            }
        }
    }
    return total;
}

Seconds
TrainingEstimator::walkLayers(const Workload& w, const BwConfig& bw,
                              EstimateDetail* detail) const
{
    if (bw.size() != net_.numDims())
        panic("bw rank ", bw.size(), " != network dims ", net_.numDims());
    if (w.strategy.npus() != net_.npus()) {
        fatal("workload ", w.name, " uses ", w.strategy.npus(),
              " NPUs but network ", net_.name(), " has ", net_.npus());
    }

    ScopeSpans spans = spansForAll(w.strategy);
    CallTimings perCall;
    CallTimings* table = backend_ ? &perCall : nullptr;
    Seconds total = 0.0;
    for (const auto& layer : w.layers) {
        Seconds fwdComm =
            commListTime(layer.fwdComm, spans, bw, detail, table);
        Seconds igComm =
            commListTime(layer.igComm, spans, bw, detail, table);
        Seconds wgComm =
            commListTime(layer.wgComm, spans, bw, detail, table);

        total += layer.fwdCompute + fwdComm;
        Seconds exposedComm = 0.0;
        switch (options_.loop) {
          case TrainingLoop::NoOverlap:
            total += layer.igCompute + igComm + layer.wgCompute + wgComm;
            exposedComm = fwdComm + igComm + wgComm;
            break;
          case TrainingLoop::TpDpOverlap: {
            Seconds bwdTail = std::max(igComm, layer.wgCompute + wgComm);
            total += layer.igCompute + bwdTail;
            exposedComm = fwdComm + bwdTail -
                          std::min(bwdTail, layer.wgCompute);
            break;
          }
        }
        if (detail) {
            detail->fwdCompute += layer.fwdCompute;
            detail->fwdComm += fwdComm;
            detail->igCompute += layer.igCompute;
            detail->igComm += igComm;
            detail->wgCompute += layer.wgCompute;
            detail->wgComm += wgComm;
            detail->exposedComm += exposedComm;
        }
    }
    return total;
}

Seconds
TrainingEstimator::estimate(const Workload& w, const BwConfig& bw) const
{
    return walkLayers(w, bw, nullptr);
}

void
CompiledWorkload::buildSoA(const std::vector<CompiledLayer>& layers)
{
    traffic_.clear();
    entryDim_.clear();
    opOffset_.clear();
    meta_.clear();
    maxRunOps_ = 0;
    singles_.clear();
    opOffset_.push_back(0);
    totalCompute_ = 0.0;
    allSingles_.assign(numDims_, 0.0);

    // Single-span ops need no bottleneck max: pre-sum their traffic
    // per dimension. Only genuinely multi-span ops keep per-op extents.
    auto flattenPhase = [&](const std::vector<Op>& ops,
                            Bytes* singlesRow) {
        PhaseRange r;
        r.begin = static_cast<std::uint32_t>(opOffset_.size() - 1);
        for (const auto& op : ops) {
            if (op.size() == 1) {
                singlesRow[op.front().first] += op.front().second;
                continue;
            }
            for (const auto& [dim, traffic] : op) {
                entryDim_.push_back(static_cast<std::uint32_t>(dim));
                traffic_.push_back(traffic);
            }
            opOffset_.push_back(
                static_cast<std::uint32_t>(traffic_.size()));
        }
        r.end = static_cast<std::uint32_t>(opOffset_.size() - 1);
        return r;
    };

    // Layers merge only when equal bit for bit (+0.0 never matches
    // -0.0), so a run's one set of times is every member's.
    auto same = [](double a, double b) {
        return std::bit_cast<std::uint64_t>(a) ==
               std::bit_cast<std::uint64_t>(b);
    };
    auto sameOps = [&](const std::vector<Op>& a, const std::vector<Op>& b) {
        return std::ranges::equal(a, b, [&](const Op& x, const Op& y) {
            return std::ranges::equal(x, y, [&](auto& p, auto& q) {
                return p.first == q.first && same(p.second, q.second);
            });
        });
    };
    auto sameLayer = [&](const CompiledLayer& a, const CompiledLayer& b) {
        return same(a.fwdCompute, b.fwdCompute) &&
               same(a.igCompute, b.igCompute) &&
               same(a.wgCompute, b.wgCompute) && sameOps(a.fwd, b.fwd) &&
               sameOps(a.ig, b.ig) && sameOps(a.wg, b.wg);
    };

    for (std::size_t i = 0; i < layers.size(); ++i) {
        const CompiledLayer& layer = layers[i];
        if (i > 0 && sameLayer(layers[i - 1], layer)) {
            ++meta_.back().repeat;
        } else {
            LayerMeta m;
            m.fwdCompute = layer.fwdCompute;
            m.igCompute = layer.igCompute;
            m.wgCompute = layer.wgCompute;
            m.singlesRow = static_cast<std::uint32_t>(singles_.size());
            singles_.resize(singles_.size() + 3 * numDims_, 0.0);
            Bytes* rows = singles_.data() + m.singlesRow;
            m.fwd = flattenPhase(layer.fwd, rows);
            m.ig = flattenPhase(layer.ig, rows + numDims_);
            m.wg = flattenPhase(layer.wg, rows + 2 * numDims_);
            meta_.push_back(m);
            maxRunOps_ = std::max(maxRunOps_, m.wg.end - m.fwd.begin);
        }

        // NoOverlap collapse, layer by layer in the original order:
        // all phase times add, so every layer's singles fold into one
        // per-dim vector.
        totalCompute_ +=
            layer.fwdCompute + layer.igCompute + layer.wgCompute;
        const Bytes* rows = singles_.data() + meta_.back().singlesRow;
        for (std::size_t row = 0; row < 3 * numDims_; ++row)
            allSingles_[row % numDims_] += rows[row];
    }
}

CompiledWorkload
TrainingEstimator::compile(const Workload& w) const
{
    if (backend_) {
        fatal("cannot compile a workload under the '",
              options_.timingBackend,
              "' timing backend (only the analytical model "
              "precompiles)");
    }
    if (w.strategy.npus() != net_.npus()) {
        fatal("workload ", w.name, " uses ", w.strategy.npus(),
              " NPUs but network ", net_.name(), " has ", net_.npus());
    }

    ScopeSpans scopeSpans = spansForAll(w.strategy);
    auto compileOps = [&](const std::vector<CommOp>& ops) {
        std::vector<CompiledWorkload::Op> out;
        for (const auto& op : ops) {
            const auto& spans =
                scopeSpans[static_cast<std::size_t>(op.scope)];
            if (spans.empty())
                continue;
            CollectiveTiming timing =
                multiRailTime(op.type, op.size, spans,
                              BwConfig(net_.numDims(), 1.0),
                              options_.inNetworkCollectives);
            CompiledWorkload::Op compiled;
            for (std::size_t s = 0; s < spans.size(); ++s) {
                // Fold the partial-span efficiency into the traffic so
                // evaluation stays a plain traffic/BW division.
                compiled.emplace_back(spans[s].dim,
                                      timing.trafficPerDim[s] /
                                          spans[s].efficiency);
            }
            out.push_back(std::move(compiled));
        }
        return out;
    };

    CompiledWorkload cw;
    cw.loop_ = options_.loop;
    cw.numDims_ = net_.numDims();
    std::vector<CompiledWorkload::CompiledLayer> layers;
    layers.reserve(w.layers.size());
    for (const auto& layer : w.layers) {
        CompiledWorkload::CompiledLayer cl;
        cl.fwdCompute = layer.fwdCompute;
        cl.igCompute = layer.igCompute;
        cl.wgCompute = layer.wgCompute;
        cl.fwd = compileOps(layer.fwdComm);
        cl.ig = compileOps(layer.igComm);
        cl.wg = compileOps(layer.wgComm);
        layers.push_back(std::move(cl));
    }
    cw.buildSoA(layers);
    return cw;
}

EstimateDetail
TrainingEstimator::detail(const Workload& w, const BwConfig& bw) const
{
    EstimateDetail d;
    d.dimBusy.assign(net_.numDims(), 0.0);
    d.dimTraffic.assign(net_.numDims(), 0.0);

    d.total = walkLayers(w, bw, &d);
    d.computeTotal = d.fwdCompute + d.igCompute + d.wgCompute;

    // Fig. 10 metric: bytes actually moved over the byte-capacity the
    // whole fabric offers while communication is in flight.
    double sumBw = 0.0;
    for (double b : bw)
        sumBw += b;
    Bytes moved = 0.0;
    for (Bytes t : d.dimTraffic)
        moved += t;
    Seconds commTime = d.fwdComm + d.igComm + d.wgComm;
    if (commTime > 0.0 && sumBw > 0.0) {
        d.avgBwUtilization =
            moved / (sumBw * kGiga * commTime);
    }
    return d;
}

} // namespace libra
