/**
 * @file
 * The benchmark's own span recorder for traced runs.
 *
 * Spans are recorded by the benchmark around its calls into each layer
 * of the program (the program itself is not instrumented). They nest
 * per thread; a span's self time is its duration minus the time its
 * direct children cover. At the end of a traced run the recorder writes
 * Chrome trace-event JSON (chrome://tracing, Perfetto) and a per-layer
 * table of calls, total time and self time.
 *
 * Disabled (untraced runs), a Span costs one relaxed atomic load.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstddef>
#include <iosfwd>
#include <string>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Turn recording on (traced runs) or off. Off by default. */
void setTracing(bool on);

/** Write every recorded span as Chrome trace-event JSON. */
void writeChromeTrace(const std::string& path);

/** Print the per-layer table (calls, total ms, self ms) to @p os. */
void printLayerTable(std::ostream& os);

/** RAII span around one call into a layer. */
class Span
{
  public:
    explicit Span(const char* name);
    ~Span();

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /** Microseconds since the span opened (valid when disabled too). */
    double elapsedUs() const;

  private:
    const char* name_;
    Clock::time_point start_;
    long index_ = -1; ///< Recorded event slot; -1 when disabled.
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
