#include "trace.hh"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <thread>
#include <vector>

#include "common/json.hh"

namespace perfbench {

namespace {

struct Event
{
    const char* name = nullptr;
    double startUs = 0.0;
    double durUs = -1.0; ///< -1 while the span is open.
    long parent = -1;    ///< Enclosing span on the same thread.
    std::size_t tid = 0;
};

std::atomic<bool> gTracing{false};

const Clock::time_point gEpoch = Clock::now();

std::mutex gMutex;
std::vector<Event> gEvents; // Guarded by gMutex.

/** Innermost open span of the calling thread. */
thread_local long tOpen = -1;

double
usSinceEpoch(Clock::time_point t)
{
    return std::chrono::duration<double, std::micro>(t - gEpoch).count();
}

std::size_t
threadTag()
{
    return std::hash<std::thread::id>{}(std::this_thread::get_id()) %
           100000;
}

/** Per-layer aggregate of recorded spans. */
struct LayerTotals
{
    std::size_t calls = 0;
    double totalUs = 0.0;
    double selfUs = 0.0;
};

/** Aggregates by span name, self time computed from the nesting. */
std::map<std::string, LayerTotals>
layerTotals()
{
    std::lock_guard<std::mutex> lock(gMutex);
    std::vector<double> childUs(gEvents.size(), 0.0);
    for (const Event& e : gEvents) {
        if (e.parent >= 0 && e.durUs >= 0.0)
            childUs[static_cast<std::size_t>(e.parent)] += e.durUs;
    }
    std::map<std::string, LayerTotals> out;
    for (std::size_t i = 0; i < gEvents.size(); ++i) {
        const Event& e = gEvents[i];
        if (e.durUs < 0.0)
            continue;
        LayerTotals& t = out[e.name];
        t.calls += 1;
        t.totalUs += e.durUs;
        t.selfUs += e.durUs - childUs[i];
    }
    return out;
}

} // namespace

void
setTracing(bool on)
{
    gTracing.store(on, std::memory_order_relaxed);
}

Span::Span(const char* name) : name_(name), start_(Clock::now())
{
    if (!gTracing.load(std::memory_order_relaxed))
        return;
    std::lock_guard<std::mutex> lock(gMutex);
    index_ = static_cast<long>(gEvents.size());
    gEvents.push_back({name_, usSinceEpoch(start_), -1.0, tOpen,
                       threadTag()});
    tOpen = index_;
}

Span::~Span()
{
    if (index_ < 0)
        return;
    double end = usSinceEpoch(Clock::now());
    std::lock_guard<std::mutex> lock(gMutex);
    Event& e = gEvents[static_cast<std::size_t>(index_)];
    e.durUs = end - e.startUs;
    tOpen = e.parent;
}

double
Span::elapsedUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() - start_)
        .count();
}

void
writeChromeTrace(const std::string& path)
{
    libra::Json events = libra::Json::array();
    {
        std::lock_guard<std::mutex> lock(gMutex);
        for (const Event& e : gEvents) {
            if (e.durUs < 0.0)
                continue;
            libra::Json j = libra::Json::object();
            j["name"] = e.name;
            j["ph"] = "X";
            j["ts"] = e.startUs;
            j["dur"] = e.durUs;
            j["pid"] = 1;
            j["tid"] = e.tid;
            events.push(std::move(j));
        }
    }
    libra::Json doc = libra::Json::object();
    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = "ms";
    std::ofstream file(path);
    file << doc.dump() << "\n";
}

void
printLayerTable(std::ostream& os)
{
    char line[160];
    std::snprintf(line, sizeof line, "%-28s %8s %12s %12s\n", "layer",
                  "calls", "total ms", "self ms");
    os << line;
    for (const auto& [name, t] : layerTotals()) {
        std::snprintf(line, sizeof line, "%-28s %8zu %12.3f %12.3f\n",
                      name.c_str(), t.calls, t.totalUs / 1000.0,
                      t.selfUs / 1000.0);
        os << line;
    }
}

} // namespace perfbench
