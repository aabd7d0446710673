#include "sim/chunk_timeline.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "common/logging.hh"

namespace libra {

Tick
toTicks(Seconds s)
{
    // llround is undefined past 2^63; the negated test also catches nan.
    const double ticks = s * kTicksPerSecond;
    if (!(ticks >= 0.0 && ticks < 0x1p63))
        fatal("chunk-sim duration ", s,
              " s is outside the tick range [0, 2^63 ps)");
    return static_cast<Tick>(std::llround(ticks));
}

Seconds
toSeconds(Tick t)
{
    return static_cast<Seconds>(t) / kTicksPerSecond;
}

namespace {

/** Phase a chunk is in. */
enum class Phase : std::uint8_t { ReduceScatter, AllGatherMirror,
                                  AllGather, AllToAll, Done };

/**
 * Mutable per-chunk state while flowing through the pipeline. The
 * variable-length parts live in the run's flat row arrays: each chunk
 * owns one row of span-count entries starting at @c row.
 */
struct ChunkState
{
    std::uint32_t job = 0;
    std::uint32_t chunk = 0;
    Phase phase = Phase::ReduceScatter;
    double fraction = 1.0;       ///< Payload share left after reductions.
    double gatherProduct = 1.0;  ///< Product of groups not yet gathered.
    std::uint32_t row = 0;       ///< Offset of this chunk's rows.
    std::uint32_t remaining = 0; ///< Span indices not yet visited.
    std::uint32_t rsStages = 0;  ///< Visited RS stages, for the AG mirror.
    std::uint32_t a2aNext = 0;   ///< Next span index for All-to-All.
};

/** Event::dim of a chunk release (no dimension completes). */
constexpr std::uint32_t kRelease = UINT32_MAX;

/**
 * A release of @c chunk (dim == kRelease), or the completion of its
 * stage on @c dim. Ordered by (when, seq): FIFO on ties.
 */
struct Event
{
    Tick when;
    std::uint64_t seq;
    std::uint32_t chunk;
    std::uint32_t dim;
};

struct Later
{
    bool
    operator()(const Event& a, const Event& b) const
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }
};

/** One chunk-stage waiting for its dimension. */
struct PendingOp
{
    std::uint32_t chunk;
    bool allGather;
    Seconds duration;
};

/** A dimension: a serial resource with a FIFO of waiting stages. */
struct DimQueue
{
    std::vector<PendingOp> ops;
    std::size_t head = 0;  ///< ops[head..] still wait.
    bool busy = false;
    Seconds drainEnd = 0.0; ///< Estimated drain time, for greedy choice.
};

/** One ChunkTimeline::run: the event loop and the pipeline's rules. */
class Simulation
{
  public:
    Simulation(const std::vector<CollectiveJob>& jobs, const BwConfig& bw,
               bool keep_records, TimelineResult& result)
        : jobs_(jobs), bw_(bw), keepRecords_(keep_records),
          result_(result), dims_(bw.size())
    {
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            const CollectiveJob& job = jobs[j];
            if (job.spans.empty())
                continue;
            if (job.numChunks < 1)
                fatal("job ", j, " has ", job.numChunks, " chunks");
            auto n = static_cast<std::uint32_t>(job.spans.size());
            for (int ch = 0; ch < job.numChunks; ++ch) {
                ChunkState c;
                c.job = static_cast<std::uint32_t>(j);
                c.chunk = static_cast<std::uint32_t>(ch);
                c.row = static_cast<std::uint32_t>(remaining_.size());
                c.remaining = n;
                for (std::uint32_t s = 0; s < n; ++s) {
                    remaining_.push_back(s);
                    c.gatherProduct *=
                        static_cast<double>(job.spans[s].groupSize);
                }
                switch (job.type) {
                  case CollectiveType::AllReduce:
                  case CollectiveType::ReduceScatter:
                    c.phase = Phase::ReduceScatter;
                    break;
                  case CollectiveType::AllGather:
                    c.phase = Phase::AllGather;
                    // Canonical standalone AG visits dims descending.
                    std::reverse(remaining_.begin() + c.row,
                                 remaining_.end());
                    break;
                  case CollectiveType::AllToAll:
                  case CollectiveType::PointToPoint:
                    c.phase = Phase::AllToAll;
                    break;
                }
                schedule(toTicks(job.releaseTime),
                         static_cast<std::uint32_t>(chunks_.size()),
                         kRelease);
                chunks_.push_back(c);
            }
        }
        rsStages_.resize(remaining_.size());
    }

    /** Drain the event heap. */
    void
    run()
    {
        while (!heap_.empty()) {
            std::pop_heap(heap_.begin(), heap_.end(), Later{});
            Event ev = heap_.back();
            heap_.pop_back();
            now_ = ev.when;
            nowSeconds_ = toSeconds(now_);
            if (ev.dim != kRelease)
                startNext(ev.dim);
            advance(ev.chunk);
        }
    }

  private:
    void
    schedule(Tick when, std::uint32_t chunk, std::uint32_t dim)
    {
        if (when < now_)
            panic("scheduling event at ", when, " before now ", now_);
        heap_.push_back({when, nextSeq_++, chunk, dim});
        std::push_heap(heap_.begin(), heap_.end(), Later{});
    }

    Bytes
    chunkBytes(const ChunkState& c) const
    {
        return jobs_[c.job].size /
               static_cast<double>(jobs_[c.job].numChunks);
    }

    /**
     * Seconds this chunk's *next* stage takes over span @p s:
     *  RS       : share * fraction * (g-1)/g  (fraction = 1/q_visited)
     *  AG alone : share * (g-1) / gatherProduct
     *  A2A      : share * (g-1)/g             (order-independent)
     */
    Seconds
    stageDuration(const ChunkState& c, std::size_t s) const
    {
        const CollectiveJob& job = jobs_[c.job];
        double g = static_cast<double>(job.spans[s].groupSize);
        Bytes moved = 0.0;
        switch (c.phase) {
          case Phase::ReduceScatter:
            moved = chunkBytes(c) * c.fraction * (g - 1.0) / g;
            break;
          case Phase::AllGather:
            moved = chunkBytes(c) * (g - 1.0) / c.gatherProduct;
            break;
          case Phase::AllToAll:
            if (job.type == CollectiveType::PointToPoint)
                moved = chunkBytes(c); // One full hop per chunk.
            else
                moved = chunkBytes(c) * (g - 1.0) / g;
            break;
          default:
            panic("stageDuration in phase without volume rule");
        }
        return transferTime(moved, bw_[job.spans[s].dim] *
                                       job.spans[s].efficiency);
    }

    void
    enqueue(std::uint32_t chunk, std::size_t span, Seconds duration,
            bool all_gather)
    {
        auto dim = static_cast<std::uint32_t>(
            jobs_[chunks_[chunk].job].spans[span].dim);
        DimQueue& q = dims_[dim];
        q.ops.push_back({chunk, all_gather, duration});
        q.drainEnd = std::max(q.drainEnd, nowSeconds_) + duration;
        if (!q.busy)
            startNext(dim);
    }

    void
    startNext(std::uint32_t dim)
    {
        DimQueue& q = dims_[dim];
        if (q.head == q.ops.size()) {
            q.busy = false;
            q.ops.clear();
            q.head = 0;
            return;
        }
        q.busy = true;
        PendingOp op = q.ops[q.head++];
        Seconds start = nowSeconds_;
        Seconds end = start + op.duration;
        if (keepRecords_) {
            const ChunkState& c = chunks_[op.chunk];
            result_.records.push_back({static_cast<int>(c.job),
                                       static_cast<int>(c.chunk), dim,
                                       op.allGather, start, end});
        }
        result_.dimBusy[dim] += op.duration;
        result_.makespan = std::max(result_.makespan, end);
        schedule(toTicks(end), op.chunk, dim);
    }

    /** Position within @p c's remaining row of the next span. */
    std::uint32_t
    pickNext(const ChunkState& c) const
    {
        const CollectiveJob& job = jobs_[c.job];
        if (job.policy != SchedulePolicy::Greedy || c.remaining < 2)
            return 0;
        std::uint32_t pick = 0;
        Seconds bestEnd = 0.0;
        for (std::uint32_t i = 0; i < c.remaining; ++i) {
            std::size_t s = remaining_[c.row + i];
            Seconds dur = stageDuration(c, s);
            Seconds end = std::max(dims_[job.spans[s].dim].drainEnd,
                                   nowSeconds_) + dur;
            if (i == 0 || end < bestEnd) {
                bestEnd = end;
                pick = i;
            }
        }
        return pick;
    }

    /** Remove and return the span at position @p pick of the row. */
    std::uint32_t
    takeRemaining(ChunkState& c, std::uint32_t pick)
    {
        std::uint32_t* row = remaining_.data() + c.row;
        std::uint32_t s = row[pick];
        std::copy(row + pick + 1, row + c.remaining, row + pick);
        --c.remaining;
        return s;
    }

    void
    advance(std::uint32_t chunk)
    {
        ChunkState& c = chunks_[chunk];
        const CollectiveJob& job = jobs_[c.job];
        switch (c.phase) {
          case Phase::ReduceScatter: {
            if (c.remaining > 0) {
                std::uint32_t s = takeRemaining(c, pickNext(c));
                Seconds dur = stageDuration(c, s);
                rsStages_[c.row + c.rsStages++] = {s, dur};
                c.fraction /=
                    static_cast<double>(job.spans[s].groupSize);
                enqueue(chunk, s, dur, false);
                return;
            }
            if (job.type == CollectiveType::AllReduce) {
                c.phase = Phase::AllGatherMirror;
                advance(chunk);
                return;
            }
            c.phase = Phase::Done;
            return;
          }
          case Phase::AllGatherMirror: {
            if (c.rsStages > 0) {
                auto [s, dur] = rsStages_[c.row + --c.rsStages];
                enqueue(chunk, s, dur, true);
                return;
            }
            c.phase = Phase::Done;
            return;
          }
          case Phase::AllGather: {
            if (c.remaining > 0) {
                std::uint32_t s = takeRemaining(c, pickNext(c));
                Seconds dur = stageDuration(c, s);
                c.gatherProduct /=
                    static_cast<double>(job.spans[s].groupSize);
                enqueue(chunk, s, dur, true);
                return;
            }
            c.phase = Phase::Done;
            return;
          }
          case Phase::AllToAll: {
            // Point-to-point hops cross only the first spanned dim.
            std::size_t stage_limit =
                job.type == CollectiveType::PointToPoint
                    ? 1
                    : job.spans.size();
            if (c.a2aNext < stage_limit) {
                std::uint32_t s = c.a2aNext++;
                enqueue(chunk, s, stageDuration(c, s), false);
                return;
            }
            c.phase = Phase::Done;
            return;
          }
          case Phase::Done:
            return;
        }
    }

    const std::vector<CollectiveJob>& jobs_;
    const BwConfig& bw_;
    const bool keepRecords_;
    TimelineResult& result_;

    std::vector<ChunkState> chunks_;
    std::vector<std::uint32_t> remaining_; ///< Unvisited span indices.
    /** Visited RS stages (span index, duration) for the AG mirror. */
    std::vector<std::pair<std::uint32_t, Seconds>> rsStages_;
    std::vector<DimQueue> dims_;
    std::vector<Event> heap_;
    std::uint64_t nextSeq_ = 0;
    Tick now_ = 0;
    Seconds nowSeconds_ = 0.0;
};

} // namespace

ChunkTimeline::ChunkTimeline(std::size_t num_dims, BwConfig bw)
    : numDims_(num_dims), bw_(std::move(bw))
{
    if (bw_.size() != numDims_)
        panic("bw rank ", bw_.size(), " != dims ", numDims_);
}

TimelineResult
ChunkTimeline::run(const std::vector<CollectiveJob>& jobs,
                   bool keep_records) const
{
    TimelineResult result;
    result.dimBusy.assign(numDims_, 0.0);
    Simulation(jobs, bw_, keep_records, result).run();

    double sumBw = 0.0;
    double weighted = 0.0;
    for (std::size_t d = 0; d < numDims_; ++d) {
        sumBw += bw_[d];
        weighted += result.dimBusy[d] * bw_[d];
    }
    if (result.makespan > 0.0 && sumBw > 0.0)
        result.avgBwUtilization = weighted / (result.makespan * sumBw);
    return result;
}

Seconds
ChunkTimeline::collectiveTime(const CollectiveJob& job) const
{
    TimelineResult r = run({job});
    return r.makespan - job.releaseTime;
}

std::string
TimelineResult::render(std::size_t num_dims, int width) const
{
    if (makespan <= 0.0)
        return "(empty timeline)\n";
    std::vector<std::string> rows(num_dims, std::string(width, '.'));
    for (const auto& rec : records) {
        int from = static_cast<int>(rec.start / makespan * width);
        int to = static_cast<int>(rec.end / makespan * width);
        from = std::clamp(from, 0, width - 1);
        to = std::clamp(to, from + 1, width);
        char mark = rec.allGather
                        ? static_cast<char>('A' + rec.chunk % 26)
                        : static_cast<char>('1' + rec.chunk % 9);
        for (int x = from; x < to; ++x)
            rows[rec.dim][x] = mark;
    }
    std::ostringstream oss;
    for (std::size_t d = 0; d < num_dims; ++d) {
        double busyPct =
            d < dimBusy.size() ? dimBusy[d] / makespan * 100.0 : 0.0;
        oss << "Dim" << d + 1 << " |" << rows[d] << "| " << std::fixed
            << std::setprecision(1) << busyPct << "% busy\n";
    }
    return oss.str();
}

} // namespace libra
