#include "core/estimator.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>

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

/**
 * Hash index from a collective's exact key (type, scope, size bits) to
 * a dense id; ids count up from 0 in first-seen order. Sizes compare
 * by their bits, so +0.0 never shares an id with -0.0. Open addressing
 * with linear probing, sized up front for the call's op count so it
 * never rehashes and stays at most half full: a lookup costs the same
 * whether a call holds three distinct collectives (a transformer
 * stack) or one per op (a parsed workload whose every size differs).
 */
class CollectiveIndex
{
  public:
    /** An index for at most @p max_keys distinct keys. */
    explicit CollectiveIndex(std::size_t max_keys)
    {
        slots_.assign(std::bit_ceil(2 * max_keys + 2), 0);
        keys_.reserve(max_keys);
    }

    /** @p op's id, and whether its key is new to this index. */
    std::pair<std::uint32_t, bool>
    insert(const CommOp& op)
    {
        const Key key{std::bit_cast<std::uint64_t>(op.size), op.type,
                      op.scope};
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = hashOf(key) & mask;; i = (i + 1) & mask) {
            if (slots_[i] == 0) {
                keys_.push_back(key);
                slots_[i] = static_cast<std::uint32_t>(keys_.size());
                return {slots_[i] - 1, true};
            }
            if (keys_[slots_[i] - 1] == key)
                return {slots_[i] - 1, false};
        }
    }

  private:
    struct Key
    {
        std::uint64_t bits = 0;
        CollectiveType type = CollectiveType::AllReduce;
        CommScope scope = CommScope::Tp;
        bool operator==(const Key&) const = default;
    };

    static std::size_t
    hashOf(const Key& key)
    {
        // MurmurHash3's 64-bit finalizer over the size bits offset by
        // the (type, scope) tag.
        std::uint64_t h =
            key.bits + (static_cast<std::uint64_t>(key.type) * 8 +
                        static_cast<std::uint64_t>(key.scope) + 1) *
                           0x9e3779b97f4a7c15ULL;
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdULL;
        h ^= h >> 33;
        h *= 0xc4ceb9fe1a85ec53ULL;
        h ^= h >> 33;
        return static_cast<std::size_t>(h);
    }

    std::vector<Key> keys_;            ///< Indexed by id.
    std::vector<std::uint32_t> slots_; ///< id + 1; 0 marks a free slot.
};

/** Collectives across all of @p w's phases: a bound on distinct keys. */
std::size_t
commOpCount(const Workload& w)
{
    std::size_t n = 0;
    for (const auto& layer : w.layers)
        n += layer.fwdComm.size() + layer.igComm.size() + layer.wgComm.size();
    return n;
}

} // namespace

/**
 * Within one estimate() or detail() call the bandwidth vector and each
 * scope's spans are fixed, and every timing model is a pure function
 * of its arguments (core/timing_backend.hh). So every op with the same
 * exact key gets the same timing: time it once, then reuse it in the
 * original op order. Entries live in flat arrays indexed by id and
 * reserved for the call's op count, so they never regrow; the per-span
 * times and traffic are kept only when the call fills a detail.
 */
struct TrainingEstimator::CallTimings
{
    CallTimings(std::size_t max_keys, std::size_t dims, bool keep_spans)
        : index(max_keys), keepSpans(keep_spans)
    {
        time.reserve(max_keys);
        if (keepSpans) {
            spanAt.reserve(max_keys);
            perSpan.reserve(2 * dims * max_keys);
        }
    }

    /** Store @p t as the next id's entry. */
    void
    add(const CollectiveTiming& t)
    {
        time.push_back(t.time);
        if (!keepSpans)
            return;
        spanAt.push_back(static_cast<std::uint32_t>(perSpan.size()));
        for (std::size_t s = 0; s < t.timePerDim.size(); ++s) {
            perSpan.push_back(t.timePerDim[s]);
            perSpan.push_back(t.trafficPerDim[s]);
        }
    }

    CollectiveIndex index;
    bool keepSpans;
    std::vector<Seconds> time;         ///< Collective time, per id.
    std::vector<std::uint32_t> spanAt; ///< Offset into perSpan, per id.
    /** Per span of each entry, its (timePerDim, trafficPerDim) pair. */
    std::vector<double> perSpan;
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
                                CallTimings& timings) const
{
    Seconds total = 0.0;
    for (const auto& op : ops) {
        const auto& spans =
            scopeSpans[static_cast<std::size_t>(op.scope)];
        if (spans.empty())
            continue;
        auto [id, fresh] = timings.index.insert(op);
        if (fresh)
            timings.add(timingOf(op.type, op.size, spans, bw));
        total += timings.time[id];
        if (detail) {
            const double* perSpan =
                timings.perSpan.data() + timings.spanAt[id];
            for (std::size_t s = 0; s < spans.size(); ++s) {
                detail->dimBusy[spans[s].dim] += perSpan[2 * s];
                detail->dimTraffic[spans[s].dim] += perSpan[2 * s + 1];
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
    CallTimings timings(commOpCount(w), net_.numDims(), detail != nullptr);
    Seconds total = 0.0;
    for (const auto& layer : w.layers) {
        Seconds fwdComm =
            commListTime(layer.fwdComm, spans, bw, detail, timings);
        Seconds igComm =
            commListTime(layer.igComm, spans, bw, detail, timings);
        Seconds wgComm =
            commListTime(layer.wgComm, spans, bw, detail, timings);

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
CompiledWorkload::buildSoA(const std::vector<CompiledLayer>& layers,
                           const std::vector<std::uint32_t>& op_ids,
                           const std::vector<Op>& ops)
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
    auto phaseIds = [&](PhaseRange r) {
        return std::span(op_ids).subspan(r.begin, r.end - r.begin);
    };
    auto flattenPhase = [&](PhaseRange ids, Bytes* singlesRow) {
        PhaseRange r;
        r.begin = static_cast<std::uint32_t>(opOffset_.size() - 1);
        for (std::uint32_t id : phaseIds(ids)) {
            const Op& op = ops[id];
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
    auto sameOps = [&](PhaseRange a, PhaseRange b) {
        return std::ranges::equal(
            phaseIds(a), phaseIds(b), [&](std::uint32_t x, std::uint32_t y) {
                return x == y ||
                       std::ranges::equal(ops[x], ops[y],
                                          [&](auto& p, auto& q) {
                                              return p.first == q.first &&
                                                     same(p.second,
                                                          q.second);
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
    const BwConfig unitBw(net_.numDims(), 1.0);
    CollectiveIndex index(commOpCount(w));
    std::vector<CompiledWorkload::Op> ops; // One per id.
    std::vector<std::uint32_t> opIds;
    auto compileOps = [&](const std::vector<CommOp>& list) {
        CompiledWorkload::PhaseRange r;
        r.begin = static_cast<std::uint32_t>(opIds.size());
        for (const auto& op : list) {
            const auto& spans =
                scopeSpans[static_cast<std::size_t>(op.scope)];
            if (spans.empty())
                continue;
            auto [id, fresh] = index.insert(op);
            if (fresh) {
                CollectiveTiming timing =
                    multiRailTime(op.type, op.size, spans, unitBw,
                                  options_.inNetworkCollectives);
                CompiledWorkload::Op& compiled = ops.emplace_back();
                for (std::size_t s = 0; s < spans.size(); ++s) {
                    // Fold the partial-span efficiency into the traffic
                    // so evaluation stays a plain traffic/BW division.
                    compiled.emplace_back(spans[s].dim,
                                          timing.trafficPerDim[s] /
                                              spans[s].efficiency);
                }
            }
            opIds.push_back(id);
        }
        r.end = static_cast<std::uint32_t>(opIds.size());
        return r;
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
    cw.buildSoA(layers, opIds, ops);
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
