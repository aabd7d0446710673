#include "probe.hh"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "trace.hh"

namespace perfbench {

namespace {

/** Keeps the probe's result observable so the compiler cannot drop it. */
std::atomic<double> gProbeSink{0.0};

/** Format 12,000 fixed doubles with "%.17g" and parse them back. */
double
formatParseMs()
{
    Clock::time_point t0 = Clock::now();
    std::uint64_t s = 13;
    char buf[64];
    double acc = 0.0;
    for (int i = 0; i < 12000; ++i) {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        double v = static_cast<double>(s >> 17) * 1e-7;
        int n = std::snprintf(buf, sizeof buf, "%.17g", v);
        acc += std::strtod(buf, nullptr) + n;
    }
    gProbeSink.store(acc, std::memory_order_relaxed);
    return secondsSince(t0) * 1000.0;
}

} // namespace

double
hostProbeMs(int threads)
{
    if (threads <= 1)
        return formatParseMs();
    // All threads start together, so the probe loads the host the way
    // the parallel work it stands beside does.
    std::atomic<int> ready{0};
    std::vector<double> ms(static_cast<std::size_t>(threads));
    auto run = [&](int t) {
        ready.fetch_add(1);
        while (ready.load() < threads) {
        }
        ms[static_cast<std::size_t>(t)] = formatParseMs();
    };
    std::vector<std::thread> pool;
    for (int t = 1; t < threads; ++t)
        pool.emplace_back(run, t);
    run(0);
    for (auto& th : pool)
        th.join();
    double sum = 0.0;
    for (double m : ms)
        sum += m;
    return sum / threads;
}

} // namespace perfbench
