#include "sim/training_sim.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <unordered_map>

#include "common/logging.hh"

namespace libra {

namespace {

template <typename T>
void
appendBits(std::string& key, const T& v)
{
    char raw[sizeof(T)];
    std::memcpy(raw, &v, sizeof(T));
    key.append(raw, sizeof(T));
}

/**
 * Exact bits of every CollectiveJob field ChunkTimeline::run reads.
 * Equal keys mean identical inputs to run() under one bandwidth
 * vector, hence bit-identical makespan and per-dimension busy times.
 */
std::string
timelineKey(const std::vector<CollectiveJob>& jobs)
{
    std::string key;
    for (const auto& job : jobs) {
        appendBits(key, static_cast<int>(job.type));
        appendBits(key, job.size);
        appendBits(key, job.numChunks);
        appendBits(key, job.releaseTime);
        appendBits(key, static_cast<int>(job.policy));
        appendBits(key, job.spans.size());
        for (const auto& span : job.spans) {
            appendBits(key, span.dim);
            appendBits(key, span.groupSize);
            appendBits(key, span.efficiency);
        }
    }
    return key;
}

/** The parts of a TimelineResult the training loop consumes. */
struct TimelineTotals
{
    Seconds makespan = 0.0;
    std::vector<Seconds> dimBusy;
};

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/** Equal types, scopes and size bits, op for op. */
bool
sameOps(const std::vector<CommOp>& a, const std::vector<CommOp>& b)
{
    return std::ranges::equal(a, b, [](const CommOp& x, const CommOp& y) {
        return x.type == y.type && x.scope == y.scope &&
               sameBits(x.size, y.size);
    });
}

/**
 * Whether @p b builds exactly @p a's timeline jobs: the same
 * collectives and the same weight-gradient compute, which is the DP
 * jobs' release time under TpDpOverlap. Compared by bits, as
 * timelineKey does, so a -0 size never stands in for a +0 one.
 */
bool
sameJobs(const Layer& a, const Layer& b)
{
    return sameBits(a.wgCompute, b.wgCompute) &&
           sameOps(a.fwdComm, b.fwdComm) && sameOps(a.igComm, b.igComm) &&
           sameOps(a.wgComm, b.wgComm);
}

} // namespace

TrainingSim::TrainingSim(Network net, TrainingSimOptions options)
    : net_(std::move(net)), options_(options)
{}

std::vector<CollectiveJob>
TrainingSim::jobsFor(const std::vector<CommOp>& ops,
                     const Parallelization& strategy,
                     Seconds release) const
{
    std::vector<CollectiveJob> jobs;
    for (const auto& op : ops) {
        std::vector<DimSpan> spans;
        bool eff = options_.modelPartialDimEfficiency;
        switch (op.scope) {
          case CommScope::Tp:
            spans = mapGroupToDims(net_, 1, strategy.tp, eff);
            break;
          case CommScope::Pp:
            spans = mapGroupToDims(net_, strategy.tp, strategy.pp, eff);
            break;
          case CommScope::Dp:
            spans = mapGroupToDims(net_, strategy.tp * strategy.pp,
                                   strategy.dp, eff);
            break;
          case CommScope::All:
            spans = mapGroupToDims(net_, 1, net_.npus(), eff);
            break;
        }
        if (spans.empty())
            continue;
        CollectiveJob job;
        job.type = op.type;
        job.size = op.size;
        job.spans = std::move(spans);
        job.numChunks = options_.chunksPerCollective;
        job.releaseTime = release;
        job.policy = options_.policy;
        jobs.push_back(std::move(job));
    }
    return jobs;
}

TrainingSimResult
TrainingSim::simulate(const Workload& w, const BwConfig& bw) const
{
    if (w.strategy.npus() != net_.npus()) {
        fatal("workload ", w.name, " uses ", w.strategy.npus(),
              " NPUs but network ", net_.name(), " has ", net_.npus());
    }
    ChunkTimeline timeline(net_.numDims(), bw);
    TrainingSimResult result;
    result.dimBusy.assign(net_.numDims(), 0.0);

    // Workloads repeat layers (MSFT-1T is 128 identical ones), so the
    // same job lists recur. run() is a pure function of its jobs and
    // the bandwidth vector, which is fixed for this call: replay a
    // repeated list from the memo instead of re-simulating its chunks.
    std::unordered_map<std::string, TimelineTotals> memo;
    auto run = [&](const std::vector<CollectiveJob>& jobs)
        -> const TimelineTotals& {
        std::string key = timelineKey(jobs);
        auto it = memo.find(key);
        if (it == memo.end()) {
            TimelineResult tl = timeline.run(jobs);
            it = memo.emplace(std::move(key),
                              TimelineTotals{tl.makespan,
                                             std::move(tl.dimBusy)})
                     .first;
        }
        return it->second;
    };

    auto accumulate = [&result](const TimelineTotals& tl) {
        for (std::size_t d = 0; d < tl.dimBusy.size(); ++d)
            result.dimBusy[d] += tl.dimBusy[d];
        result.commTime += tl.makespan;
        return tl.makespan;
    };

    // The memo entries one layer's runs read, in run order: one per
    // collective of a sequential phase, and the overlapped backward
    // run (null when it has no jobs).
    struct LayerRuns
    {
        std::vector<const TimelineTotals*> fwd, ig, wg;
        const TimelineTotals* overlap = nullptr;
    };
    auto runEach = [&](const std::vector<CollectiveJob>& jobs,
                       std::vector<const TimelineTotals*>& out) {
        out.clear();
        for (const auto& job : jobs)
            out.push_back(&run({job}));
    };
    auto sequential = [&](const std::vector<const TimelineTotals*>& runs) {
        Seconds t = 0.0;
        for (const TimelineTotals* tl : runs)
            t += accumulate(*tl);
        return t;
    };

    // Consecutive layers that build the same jobs (a transformer
    // stack) reuse the previous layer's memo entries in the same
    // order, without rebuilding job lists or keys; the adds below run
    // for every layer, so the sums are the same.
    LayerRuns runs;
    const Layer* prev = nullptr;
    for (const auto& layer : w.layers) {
        if (!prev || !sameJobs(*prev, layer)) {
            runEach(jobsFor(layer.fwdComm, w.strategy, 0.0), runs.fwd);
            if (options_.loop == TrainingLoop::NoOverlap) {
                runEach(jobsFor(layer.igComm, w.strategy, 0.0), runs.ig);
                runEach(jobsFor(layer.wgComm, w.strategy, 0.0), runs.wg);
            } else {
                // TP comm starts when input-grad compute retires; DP
                // comm waits for the weight-grad compute. Both share
                // the fabric.
                auto jobs = jobsFor(layer.igComm, w.strategy, 0.0);
                auto wgJobs =
                    jobsFor(layer.wgComm, w.strategy, layer.wgCompute);
                jobs.insert(jobs.end(), wgJobs.begin(), wgJobs.end());
                runs.overlap = jobs.empty() ? nullptr : &run(jobs);
            }
        }
        prev = &layer;

        // Forward: compute then communication, always exclusive.
        result.total += layer.fwdCompute;
        result.computeTotal += layer.fwdCompute;
        result.total += sequential(runs.fwd);

        switch (options_.loop) {
          case TrainingLoop::NoOverlap: {
            result.total += layer.igCompute;
            result.computeTotal += layer.igCompute;
            result.total += sequential(runs.ig);
            result.total += layer.wgCompute;
            result.computeTotal += layer.wgCompute;
            result.total += sequential(runs.wg);
            break;
          }
          case TrainingLoop::TpDpOverlap: {
            result.total += layer.igCompute;
            result.computeTotal +=
                layer.igCompute + layer.wgCompute;
            Seconds tail;
            if (!runs.overlap) {
                tail = layer.wgCompute;
            } else {
                tail = std::max(accumulate(*runs.overlap),
                                layer.wgCompute);
            }
            result.total += tail;
            break;
          }
        }
    }

    double sumBw = 0.0;
    double weighted = 0.0;
    for (std::size_t d = 0; d < net_.numDims(); ++d) {
        sumBw += bw[d];
        weighted += result.dimBusy[d] * bw[d];
    }
    if (result.commTime > 0.0 && sumBw > 0.0) {
        result.avgBwUtilization =
            weighted / (result.commTime * sumBw);
    }
    return result;
}

} // namespace libra
