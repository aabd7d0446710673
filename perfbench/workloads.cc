/**
 * @file
 * The four benchmark workloads (see README.md for why each exists).
 *
 * Every workload runs in this one process with no fork/exec per op and
 * calls the entry points users reach: runScenarioMatrix +
 * emitMatrixJson (what `libra_cli run-matrix` does) and Server +
 * serveRequest (what `libra_cli serve` does). Each op's output is
 * verified; a mismatch or an exception counts as a failed op and never
 * aborts the run. Verification time is kept out of the timed wall
 * clock, except in serve-mixed, where it is one string compare per
 * request inside each client.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "core/study_config.hh"
#include "explore/design_space.hh"
#include "generator.hh"
#include "probe.hh"
#include "serve/server.hh"
#include "study/cache.hh"
#include "study/scenario.hh"
#include "study/scenario_util.hh"
#include "trace.hh"

namespace perfbench {

using namespace libra;
namespace fs = std::filesystem;

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names{
        "cold-sweep", "warm-rerun", "serve-mixed", "explore-sharded"};
    return names;
}

std::string
emitJsonBytes(const MatrixResult& result)
{
    std::ostringstream os;
    emitMatrixJson(result, os);
    return os.str();
}

void
freshDir(const std::string& dir)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double rank = p * static_cast<double>(values.size() - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

/**
 * Set-ups per untraced run. setup_s is their median: one set-up is a
 * single sample of a noisy host, and later changes that move work into
 * set-up must show against a steady number.
 */
constexpr int kSetupReps = 3;

/** Cold-sweep batches per lap (each batch is one op). */
constexpr std::size_t kColdBatches = 8;

/** serve-mixed: at least this many requests, so >= 10 lie beyond p99. */
constexpr std::size_t kMinServeRequests = 1000;

/** serve-mixed: hard stop at this multiple of --seconds. */
constexpr double kServeMaxStretch = 6.0;

/** serve-mixed: seconds of requests between two host probes. */
constexpr double kServeSliceS = 0.25;

/** Points per traced compute probe. */
constexpr std::size_t kSamplePoints = 8;

std::string
emitCsvBytes(const MatrixResult& result)
{
    std::ostringstream os;
    emitMatrixCsv(result, os);
    return os.str();
}

/** The golden-file form of one scenario run. */
std::string
scenarioBytes(const ScenarioRun& run)
{
    return scenarioRunToJson(run).dump(1) + "\n";
}

bool
readFile(const std::string& path, std::string* out)
{
    std::ifstream file(path, std::ios::binary);
    if (!file)
        return false;
    std::ostringstream text;
    text << file.rdbuf();
    *out = text.str();
    return true;
}

/** The VmHWM line of /proc/<pid>/status in MB; 0 when unreadable. */
double
vmHwmMb(const std::string& pid)
{
    std::ifstream status("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

/**
 * Peak RSS over the timed phase only. Construction resets this
 * process's high-water mark (VmHWM) to its current RSS, so set-up
 * memory does not count. With @p children, a thread polls the
 * children's own VmHWM every few ms (a forked-and-exec'd worker starts
 * a fresh one; getrusage's maxrss would inherit the master's) and keeps
 * the largest sum over the children alive together.
 */
class PeakRss
{
  public:
    explicit PeakRss(bool children)
    {
        std::ofstream("/proc/self/clear_refs") << "5";
        if (children)
            poller_ = std::thread([this] { poll(); });
    }

    ~PeakRss() { stopPolling(); }

    PeakRss(const PeakRss&) = delete;
    PeakRss& operator=(const PeakRss&) = delete;

    /** Process peak plus the children's largest concurrent sum, in MB. */
    double
    mb()
    {
        stopPolling();
        return vmHwmMb("self") + childrenMb_;
    }

    /** The children's share of mb(). */
    double
    childrenMb()
    {
        stopPolling();
        return childrenMb_;
    }

  private:
    void
    poll()
    {
        while (!stop_.load()) {
            double sum = 0.0;
            std::error_code ec;
            for (const auto& task :
                 fs::directory_iterator("/proc/self/task", ec)) {
                std::ifstream list(task.path() / "children");
                std::string pid;
                while (list >> pid)
                    sum += vmHwmMb(pid);
            }
            childrenMb_ = std::max(childrenMb_, sum);
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    }

    void
    stopPolling()
    {
        stop_.store(true);
        if (poller_.joinable())
            poller_.join();
    }

    std::atomic<bool> stop_{false};
    double childrenMb_ = 0.0;
    std::thread poller_;
};

/**
 * Pins every thread of this process, and so the threads and processes
 * they start later, to the last @p n CPUs it may run on; the destructor
 * restores the old masks. The timed phase runs pinned, so the host
 * probes between its ops measure the very CPUs the ops ran on. Threads
 * started while pinned keep the pinned mask.
 */
class CpuPin
{
  public:
    explicit CpuPin(int n)
    {
        cpu_set_t allowed;
        CPU_ZERO(&allowed);
        if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
            return;
        cpu_set_t set;
        CPU_ZERO(&set);
        int taken = 0;
        for (int c = CPU_SETSIZE - 1; c >= 0 && taken < n; --c) {
            if (CPU_ISSET(c, &allowed)) {
                CPU_SET(c, &set);
                ++taken;
            }
        }
        std::error_code ec;
        for (const auto& task : fs::directory_iterator("/proc/self/task", ec)) {
            pid_t tid = static_cast<pid_t>(
                std::strtol(task.path().filename().c_str(), nullptr, 10));
            cpu_set_t old;
            CPU_ZERO(&old);
            if (sched_getaffinity(tid, sizeof old, &old) == 0 &&
                sched_setaffinity(tid, sizeof set, &set) == 0)
                saved_.emplace_back(tid, old);
        }
    }

    ~CpuPin()
    {
        for (auto& [tid, old] : saved_)
            sched_setaffinity(tid, sizeof old, &old);
    }

    CpuPin(const CpuPin&) = delete;
    CpuPin& operator=(const CpuPin&) = delete;

  private:
    std::vector<std::pair<pid_t, cpu_set_t>> saved_;
};

/** Each set-up's seconds, raw and scaled to the reference host. */
struct SetupTimes
{
    std::vector<double> rawS;
    std::vector<double> scaledS;
};

/**
 * Run kSetupReps set-ups. Each rebuilds the workload's files and inputs
 * from nothing, but only the first finds the scenario registry unbuilt
 * and the heap and page cache cold. They run pinned to @p probeThreads
 * CPUs (the set-up's parallelism), and the host probe runs on as many
 * threads before the first and after each; a set-up is scaled by the
 * mean of the two probes around it.
 */
SetupTimes
repeatedSetup(const std::function<void()>& setup, int probeThreads)
{
    CpuPin pin(probeThreads);
    SetupTimes out;
    double before = hostProbeMs(probeThreads);
    for (int i = 0; i < kSetupReps; ++i) {
        Clock::time_point t0 = Clock::now();
        setup();
        double s = secondsSince(t0);
        double after = hostProbeMs(probeThreads);
        out.rawS.push_back(s);
        out.scaledS.push_back(s * hostScale((before + after) / 2.0));
        before = after;
    }
    return out;
}

/** CPU seconds (user, system) and minor faults of this process so far. */
struct Usage
{
    double userS = 0.0;
    double sysS = 0.0;
    double minorFaults = 0.0;

    static Usage
    now()
    {
        struct rusage u {};
        getrusage(RUSAGE_SELF, &u);
        auto sec = [](const timeval& t) {
            return static_cast<double>(t.tv_sec) +
                   static_cast<double>(t.tv_usec) * 1e-6;
        };
        return {sec(u.ru_utime), sec(u.ru_stime),
                static_cast<double>(u.ru_minflt)};
    }
};

/** The closed-loop record of a timed phase. */
struct OpLog
{
    std::vector<double> latencyMs; ///< Raw, one per op.
    std::vector<double> scale;     ///< Host scale of each op (probe.hh).
    std::size_t attempted = 0;
    std::size_t failed = 0;
    double wallS = 0.0;       ///< Timed wall clock, raw.
    double scaledWallS = 0.0; ///< ... scaled to the reference host.
    double untimedS = 0.0; ///< Verification, probes and bookkeeping.
    Usage start;           ///< Process usage when the timed phase began.
    Usage end;             ///< ... and when it ended.
    std::vector<std::string> failures; ///< The first few reasons.

    void
    fail(const std::string& why)
    {
        ++failed;
        if (failures.size() < 5)
            failures.push_back(why);
    }

    std::vector<double>
    scaledLatencyMs() const
    {
        std::vector<double> out;
        for (std::size_t i = 0; i < latencyMs.size(); ++i)
            out.push_back(latencyMs[i] * scale[i]);
        return out;
    }
};

/**
 * One op: time @p call (the call into the program), then check its
 * result with @p verify off the clock. An exception is a failed op.
 */
template <typename Call, typename Verify>
void
timeOp(OpLog& log, Call call, Verify verify)
{
    ++log.attempted;
    Clock::time_point ts = Clock::now();
    try {
        auto result = call();
        log.latencyMs.push_back(secondsSince(ts) * 1000.0);
        Clock::time_point tv = Clock::now();
        std::string why = verify(result);
        if (!why.empty())
            log.fail(why);
        log.untimedS += secondsSince(tv);
    } catch (const std::exception& e) {
        log.latencyMs.push_back(secondsSince(ts) * 1000.0);
        log.fail(e.what());
    }
}

/**
 * The timed phase of a single-caller workload: @p op(i, log) (one
 * timeOp each) back to back until @p seconds of timed wall clock have
 * passed. One untimed warm-up op runs first, so lazy state (allocator,
 * page cache, pool resize) settles before timing; it must verify too.
 * The loop runs pinned to @p probeThreads CPUs (the op's parallelism),
 * and the host probe runs off the clock between ops on as many threads;
 * an op is scaled by the mean of the probes before and after it.
 */
OpLog
closedLoop(double seconds, int probeThreads,
           const std::function<void(std::size_t, OpLog&)>& op,
           RunResult* check)
{
    CpuPin pin(probeThreads);
    OpLog warmup;
    op(0, warmup);
    if (warmup.failed != 0) {
        check->correct = false;
        check->notes["warmup_failure"] = warmup.failures.front();
    }
    OpLog log;
    double before = hostProbeMs(probeThreads);
    log.start = Usage::now();
    Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; secondsSince(t0) - log.untimedS < seconds; ++i) {
        op(i, log);
        Clock::time_point tp = Clock::now();
        double after = hostProbeMs(probeThreads);
        log.untimedS += secondsSince(tp);
        log.scale.push_back(hostScale((before + after) / 2.0));
        before = after;
    }
    log.wallS = secondsSince(t0) - log.untimedS;
    log.end = Usage::now();
    // Scale the wall clock by the ops' time-weighted mean scale.
    double raw = 0.0;
    double scaled = 0.0;
    for (std::size_t i = 0; i < log.latencyMs.size(); ++i) {
        raw += log.latencyMs[i];
        scaled += log.latencyMs[i] * log.scale[i];
    }
    log.scaledWallS = raw > 0.0 ? log.wallS * scaled / raw : log.wallS;
    return log;
}

RunResult
endToEnd(const SetupTimes& setup, const OpLog& log, double rssMb,
         const RunResult& check)
{
    RunResult out = check;
    out.attempted = log.attempted;
    out.failed = log.failed;
    double attempted = static_cast<double>(log.attempted);
    std::vector<double> scaledMs = log.scaledLatencyMs();
    out.metrics = {
        {"setup_s", percentile(setup.scaledS, 0.5), "s"},
        {"ops_per_s", attempted / log.scaledWallS, "1/s"},
        {"op_ms_p50", percentile(scaledMs, 0.50), "ms"},
        {"peak_rss_mb", rssMb, "MB"},
        {"ok_frac",
         attempted > 0.0
             ? static_cast<double>(log.attempted - log.failed) / attempted
             : 0.0,
         "ratio"},
    };
    // The same figures unscaled, as the wall clock read them.
    out.notes["raw_setup_s"] = percentile(setup.rawS, 0.5);
    out.notes["raw_ops_per_s"] = attempted / log.wallS;
    out.notes["raw_op_ms_p50"] = percentile(log.latencyMs, 0.50);
    out.notes["op_ms_p99"] = percentile(scaledMs, 0.99);
    out.notes["raw_op_ms_p99"] = percentile(log.latencyMs, 0.99);
    out.notes["host_scale_p50"] = percentile(log.scale, 0.5);
    Json reps = Json::array();
    for (double s : setup.rawS)
        reps.push(s);
    out.notes["raw_setup_reps_s"] = std::move(reps);
    // Only the first rep builds the scenario registry and starts from a
    // cold heap and page cache; setup_s is the median, a warm re-set-up.
    out.notes["raw_setup_first_s"] = setup.rawS.front();
    out.notes["ops"] = log.attempted;
    out.notes["timed_wall_s"] = log.wallS;
    // CPU use of the whole process over the timed phase (verification
    // and probes included): CPU seconds that track the wall clock while
    // the op slows down point at a slower core, not at waiting.
    out.notes["timed_cpu_user_s"] = log.end.userS - log.start.userS;
    out.notes["timed_cpu_sys_s"] = log.end.sysS - log.start.sysS;
    out.notes["timed_minor_faults"] =
        log.end.minorFaults - log.start.minorFaults;
    Json ops = Json::array();
    Json scales = Json::array();
    for (std::size_t i = 0; i < log.latencyMs.size(); ++i) {
        ops.push(log.latencyMs[i]);
        scales.push(log.scale[i]);
    }
    out.notes["raw_op_ms"] = std::move(ops);
    out.notes["op_host_scale"] = std::move(scales);
    Json failures = Json::array();
    for (const auto& f : log.failures)
        failures.push(f);
    out.notes["first_failures"] = std::move(failures);
    return out;
}

/**
 * Expected per-scenario bytes: the checked-in golden file for golden
 * scenarios, the set-up emission @p ref for the rest. A golden that
 * disagrees with the set-up emission marks the run incorrect.
 */
std::map<std::string, std::string>
expectedScenarioBytes(const MatrixResult& ref, const std::string& goldenDir,
                      RunResult* out)
{
    const std::vector<std::string>& golden = goldenScenarioNames();
    std::map<std::string, std::string> expected;
    for (const ScenarioRun& run : ref.scenarios) {
        std::string bytes = scenarioBytes(run);
        if (std::find(golden.begin(), golden.end(), run.name) !=
            golden.end()) {
            std::string file;
            if (!readFile(goldenDir + "/" + run.name + ".json", &file)) {
                out->correct = false;
                out->notes["golden_missing"] = run.name;
            } else {
                if (file != bytes) {
                    out->correct = false;
                    out->notes["golden_mismatch"] = run.name;
                }
                bytes = std::move(file);
            }
        }
        expected[run.name] = std::move(bytes);
    }
    return expected;
}

/** Every design point the scenarios @p names run (exhaustive form). */
std::vector<LibraInputs>
scenarioPoints(const std::vector<std::string>& names)
{
    std::vector<LibraInputs> points;
    for (const auto& name : names) {
        const Scenario* s = ScenarioRegistry::global().find(name);
        if (!s)
            fatal("unknown scenario '", name, "'");
        if (s->space) {
            for (auto& c : expandDesignSpace(s->space()))
                points.push_back(std::move(c.inputs));
        } else if (s->build) {
            for (auto& p : s->build())
                points.push_back(std::move(p));
        }
    }
    return points;
}

/**
 * A seeded sample of distinct @p points for the traced compute probes:
 * only points with a wire form and the analytical timing model, so the
 * same sample feeds the solver, estimator, sweep and shard probes.
 */
std::vector<LibraInputs>
samplePoints(std::vector<LibraInputs> points, std::uint64_t seed)
{
    SeededStream s(mixSeed(seed, 3));
    s.shuffle(points);
    std::vector<LibraInputs> out;
    std::set<std::string> seen;
    for (auto& p : points) {
        if (out.size() == kSamplePoints)
            break;
        if (!p.config.estimator.timingBackend.empty() ||
            !studyConfigSerializable(p))
            continue;
        if (seen.insert(canonicalStudyKey(p)).second)
            out.push_back(std::move(p));
    }
    return out;
}

// --- cold-sweep ----------------------------------------------------------

/** The current run's cold-sweep batches, read by the registered scenarios. */
std::vector<std::vector<LibraInputs>>&
coldPoints()
{
    static std::vector<std::vector<LibraInputs>> points;
    return points;
}

std::string
coldScenarioName(std::size_t batch)
{
    return "perfbench-cold-" + std::to_string(batch);
}

/** A plain per-point formatter: the cold sweep measures the optimizer. */
ScenarioOutput
formatColdBatch(const std::vector<LibraInputs>& points,
                const std::vector<LibraReport>& reports)
{
    ScenarioOutput out;
    double speedupSum = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const LibraInputs& p = points[i];
        const LibraReport& r = reports[i];
        std::string workloads;
        for (const auto& t : p.targets)
            workloads += (workloads.empty() ? "" : "+") + t.workload.name;
        ScenarioRow row;
        row.label("net", p.networkShape);
        row.label("bw", bwLabel(p.config.totalBw));
        row.label("objective",
                  p.config.objective == OptimizationObjective::PerfOpt
                      ? "perf"
                      : "perf_per_cost");
        row.label("loop",
                  p.config.estimator.loop == TrainingLoop::NoOverlap
                      ? "no_overlap"
                      : "tp_dp_overlap");
        row.label("workloads", workloads);
        row.metric("speedup", r.speedup);
        row.metric("ppc_gain", r.perfPerCostGain);
        row.metric("time_s", r.optimized.weightedTime);
        row.metric("cost", r.optimized.cost);
        for (std::size_t d = 0; d < r.optimized.bw.size(); ++d)
            row.metric("bw_d" + std::to_string(d), r.optimized.bw[d]);
        out.rows.push_back(std::move(row));
        speedupSum += r.speedup;
    }
    out.summarize("mean_speedup",
                  speedupSum / static_cast<double>(points.size()));
    return out;
}

struct ColdState
{
    std::vector<std::string> names; ///< One scenario per batch.
    std::vector<std::string> refs;  ///< Reference emission per batch.
};

/** Generate, parse, register, and compute the reference emissions. */
void
coldSetup(const Options& o, ColdState& st)
{
    std::vector<std::vector<LibraInputs>> points;
    for (const auto& batch : coldSweepBatches(o.seed, kColdBatches)) {
        std::vector<LibraInputs> parsed;
        for (const auto& text : batch)
            parsed.push_back(parseStudyConfigString(text));
        points.push_back(std::move(parsed));
    }
    coldPoints() = std::move(points);

    ScenarioRegistry& registry = ScenarioRegistry::global();
    st.names.clear();
    for (std::size_t b = 0; b < kColdBatches; ++b) {
        st.names.push_back(coldScenarioName(b));
        if (registry.find(st.names.back()))
            continue;
        Scenario s;
        s.name = st.names.back();
        s.title = "benchmark cold-sweep batch " + std::to_string(b);
        s.build = [b] { return coldPoints()[b]; };
        s.format = formatColdBatch;
        registry.add(std::move(s));
    }

    // The reference: every batch in one uncached, 4-thread run.
    ThreadPool::setGlobalThreads(4);
    MatrixResult all = runScenarioMatrix(st.names);
    st.refs.clear();
    for (const ScenarioRun& run : all.scenarios) {
        MatrixResult one;
        one.scenarios.push_back(run);
        st.refs.push_back(emitJsonBytes(one));
    }
}

RunResult
runColdSweep(const Options& o)
{
    ColdState st;
    if (o.trace) {
        coldSetup(o, st);
        WorkloadState ws;
        ws.names = {st.names[0]};
        ws.cacheDir = "trace-cold-cache";
        ws.freshCacheEachOp = true;
        ws.refMatrixBytes = st.refs[0];
        ws.samplePoints = samplePoints(coldPoints()[0], o.seed);
        ws.serveLines.assign(4, "{\"scenario\": \"" + st.names[0] + "\"}");
        ws.canonicalOp = [name = st.names[0]] {
            freshDir("trace-cold-canonical");
            ThreadPool::setGlobalThreads(1);
            MatrixOptions mo;
            mo.cacheDir = "trace-cold-canonical";
            return runScenarioMatrix({name}, mo);
        };
        return traceWorkload(o, ws);
    }

    // The reference run in set-up uses 4 threads, the ops 1.
    SetupTimes setup = repeatedSetup([&] { coldSetup(o, st); }, 4);

    // Each lap replays the run's batches against a fresh disk cache, so
    // every op misses and stores all of its points.
    ThreadPool::setGlobalThreads(1);
    RunResult check;
    PeakRss rss(false);
    OpLog log = closedLoop(o.seconds, 1, [&](std::size_t i, OpLog& ops) {
        const std::size_t b = i % kColdBatches;
        const std::string lapDir =
            "cold-lap-" + std::to_string(i / kColdBatches);
        if (b == 0) {
            Clock::time_point tx = Clock::now();
            freshDir(lapDir);
            ops.untimedS += secondsSince(tx);
        }
        timeOp(
            ops,
            [&] {
                MatrixOptions mo;
                mo.cacheDir = lapDir;
                MatrixResult r = runScenarioMatrix({st.names[b]}, mo);
                std::string bytes = emitJsonBytes(r);
                return std::make_pair(std::move(r), std::move(bytes));
            },
            [&](const auto& out) -> std::string {
                const MatrixResult& r = out.first;
                if (out.second != st.refs[b])
                    return st.names[b] + ": bytes differ from the reference";
                if (r.computed != r.points || r.fromCache != 0 ||
                    r.failed != 0)
                    return st.names[b] + ": not a clean cold op";
                return "";
            });
    }, &check);

    RunResult out = endToEnd(setup, log, rss.mb(), check);
    out.notes["points_per_op"] = coldSweepBatchSize();
    return out;
}

// --- warm-rerun ----------------------------------------------------------

struct WarmState
{
    std::vector<std::string> names;
    std::map<std::string, std::string> expected;
};

const char* const kWarmCache = "warm-cache";

/** Fill the disk cache with a cold 4-thread `all`; keep its emission. */
void
warmSetup(const Options& o, WarmState& st, RunResult* check)
{
    st.names = expandScenarioGroups({"all"});
    freshDir(kWarmCache);
    ThreadPool::setGlobalThreads(4);
    MatrixOptions mo;
    mo.cacheDir = kWarmCache;
    MatrixResult fill = runScenarioMatrix(st.names, mo);
    st.expected = expectedScenarioBytes(fill, o.goldenDir, check);
}

RunResult
runWarmRerun(const Options& o)
{
    WarmState st;
    RunResult check;
    if (o.trace) {
        warmSetup(o, st, &check);
        WorkloadState ws;
        ws.names = warmRerunOrder(o.seed, 0, st.names);
        ws.cacheDir = kWarmCache;
        MatrixOptions mo;
        mo.cacheDir = kWarmCache;
        ws.refMatrixBytes = emitJsonBytes(runScenarioMatrix(ws.names, mo));
        ws.samplePoints = samplePoints(scenarioPoints(st.names), o.seed);
        ws.serveLines.assign(4, "{\"scenario\": \"all\"}");
        ws.canonicalOp = [names = ws.names] {
            ThreadPool::setGlobalThreads(1);
            MatrixOptions opts;
            opts.cacheDir = kWarmCache;
            return runScenarioMatrix(names, opts);
        };
        RunResult out = traceWorkload(o, ws);
        out.correct = out.correct && check.correct;
        return out;
    }

    SetupTimes setup = repeatedSetup([&] { warmSetup(o, st, &check); }, 4);

    ThreadPool::setGlobalThreads(1);
    PeakRss rss(false);
    OpLog log = closedLoop(o.seconds, 1, [&](std::size_t i, OpLog& ops) {
        // Generating the order is input preparation, not program work.
        Clock::time_point tx = Clock::now();
        std::vector<std::string> order = warmRerunOrder(o.seed, i, st.names);
        ops.untimedS += secondsSince(tx);
        timeOp(
            ops,
            [&] {
                MatrixOptions mo;
                mo.cacheDir = kWarmCache;
                MatrixResult r = runScenarioMatrix(order, mo);
                std::string bytes = emitJsonBytes(r);
                return std::make_pair(std::move(r), std::move(bytes));
            },
            [&](const auto& out) -> std::string {
                const MatrixResult& r = out.first;
                if (out.second.empty() || r.computed != 0 ||
                    r.failed != 0 || r.fromCache != r.points)
                    return "not a clean warm op";
                for (const ScenarioRun& run : r.scenarios) {
                    if (scenarioBytes(run) != st.expected.at(run.name))
                        return run.name + ": bytes differ from the expected";
                }
                return "";
            });
    }, &check);

    return endToEnd(setup, log, rss.mb(), check);
}

// --- serve-mixed ---------------------------------------------------------

const char* const kServeCache = "serve-cache";
const char* const kServeSocket = "serve.sock";

struct ServeState
{
    std::vector<std::string> names;
    std::map<std::string, std::string> json;
    std::map<std::string, std::string> csv;
    std::size_t lruCapacity = 0;
    std::unique_ptr<Server> server;
};

/**
 * Precompute every point the mix can touch into the disk cache, record
 * the one-shot bytes per (scenario, emit), and start the server with an
 * LRU smaller than the mix's unique working set.
 */
void
serveSetup(ServeState& st)
{
    if (st.server) {
        st.server->stop();
        st.server.reset();
    }
    st.names = serveScenarios();
    freshDir(kServeCache);
    ThreadPool::setGlobalThreads(4);
    MatrixOptions mo;
    mo.cacheDir = kServeCache;
    MatrixResult fill = runScenarioMatrix(st.names, mo);
    // Two thirds of the working set: fig13/fig14's 48 shared points fit,
    // the 80 unique points of the golden group do not.
    st.lruCapacity = std::max<std::size_t>(8, fill.unique * 2 / 3);
    for (const auto& name : st.names) {
        MatrixResult r = runScenarioMatrix({name}, mo);
        st.json[name] = emitJsonBytes(r);
        st.csv[name] = emitCsvBytes(r);
    }
    ServeOptions so;
    so.socketPath = kServeSocket;
    so.cacheDir = kServeCache;
    so.lruCapacity = st.lruCapacity;
    st.server = std::make_unique<Server>(std::move(so));
    st.server->start();
}

RunResult
runServeMixed(const Options& o)
{
    ServeState st;
    if (o.trace) {
        serveSetup(st);
        st.server->stop();
        WorkloadState ws;
        ws.names = st.names;
        ws.cacheDir = kServeCache;
        MatrixOptions mo;
        mo.cacheDir = kServeCache;
        ws.refMatrixBytes = emitJsonBytes(runScenarioMatrix(ws.names, mo));
        ws.samplePoints = samplePoints(scenarioPoints(st.names), o.seed);
        for (const auto& r : serveRequestSequence(o.seed, 200))
            ws.serveLines.push_back(serveRequestLine(r));
        ws.lruCapacity = st.lruCapacity;
        ws.canonicalOp = [names = st.names, cap = st.lruCapacity] {
            ThreadPool::setGlobalThreads(1);
            ServeStore store(kServeCache, cap);
            MatrixOptions opts;
            opts.store = &store;
            return runScenarioMatrix(names, opts);
        };
        return traceWorkload(o, ws);
    }

    SetupTimes setup = repeatedSetup([&] { serveSetup(st); }, 4);

    // Two closed-loop clients over one seeded sequence; the server
    // formats on its connection threads, the sweep pool has 1 thread.
    // The phase runs in slices of kServeSliceS with the host probe (2
    // threads, like the two busy connections) off the clock between
    // them; a request is scaled by the probes around its slice. It is
    // not pinned (CpuPin): with every client and connection thread on
    // two CPUs, glibc spread the heap over more arenas and peak RSS
    // varied by a fifth from run to run.
    ThreadPool::setGlobalThreads(1);
    const std::vector<ServeRequest> sequence =
        serveRequestSequence(o.seed, 40 * kMinServeRequests);
    std::atomic<std::size_t> next{0};
    std::atomic<bool> stop{false};
    std::mutex logMutex;
    OpLog log;
    PeakRss rss(false);
    auto client = [&](Clock::time_point sliceStart, double timedBefore) {
        for (;;) {
            double inSlice = secondsSince(sliceStart);
            double timed = timedBefore + inSlice;
            if ((timed >= o.seconds && next.load() >= kMinServeRequests) ||
                timed >= kServeMaxStretch * o.seconds) {
                stop.store(true);
                return;
            }
            if (inSlice >= kServeSliceS)
                return;
            std::size_t i = next.fetch_add(1);
            if (i >= sequence.size()) {
                stop.store(true);
                return;
            }
            const ServeRequest& req = sequence[i];
            std::string why;
            Clock::time_point ts = Clock::now();
            try {
                ServeReply reply =
                    serveRequest(kServeSocket, serveRequestLine(req));
                double ms = secondsSince(ts) * 1000.0;
                const std::string& want =
                    req.emit == "csv" ? st.csv.at(req.scenario)
                                      : st.json.at(req.scenario);
                if (!reply.status.at("ok").asBool())
                    why = req.scenario + ": request refused";
                else if (reply.status.at("computed").asNumber() != 0.0)
                    why = req.scenario + ": steady state computed points";
                else if (reply.payload != want)
                    why = req.scenario + "/" + req.emit +
                          ": payload differs from the one-shot bytes";
                std::lock_guard<std::mutex> lock(logMutex);
                ++log.attempted;
                log.latencyMs.push_back(ms);
                if (!why.empty())
                    log.fail(why);
            } catch (const std::exception& e) {
                std::lock_guard<std::mutex> lock(logMutex);
                ++log.attempted;
                log.latencyMs.push_back(secondsSince(ts) * 1000.0);
                log.fail(e.what());
            }
        }
    };
    double before = hostProbeMs(2);
    log.start = Usage::now();
    while (!stop.load()) {
        Clock::time_point sliceStart = Clock::now();
        std::thread a(client, sliceStart, log.wallS);
        std::thread b(client, sliceStart, log.wallS);
        a.join();
        b.join();
        double sliceS = secondsSince(sliceStart);
        double after = hostProbeMs(2);
        double scale = hostScale((before + after) / 2.0);
        before = after;
        log.wallS += sliceS;
        log.scaledWallS += sliceS * scale;
        log.scale.resize(log.latencyMs.size(), scale);
    }
    log.end = Usage::now();

    ServeStore::Stats stats = st.server->store().stats();
    st.server->stop();
    RunResult out = endToEnd(setup, log, rss.mb(), RunResult{});
    out.notes["lru_capacity"] = st.lruCapacity;
    out.notes["lru_hits"] = static_cast<double>(stats.lru.hits);
    out.notes["lru_evictions"] = static_cast<double>(stats.lru.evictions);
    out.notes["disk_hits"] = static_cast<double>(stats.diskHits);
    return out;
}

// --- explore-sharded -----------------------------------------------------

MatrixOptions
shardedPruneOptions(const std::string& workerExe)
{
    MatrixOptions mo;
    mo.exploreSpec = "prune";
    mo.workers = 2;
    mo.workerThreads = 1;
    mo.workerExe = workerExe;
    return mo;
}

/** The in-process (workers=0) reference the sharded bytes must equal. */
std::string
exploreSetup()
{
    ThreadPool::setGlobalThreads(2);
    MatrixOptions mo;
    mo.exploreSpec = "prune";
    return emitJsonBytes(runScenarioMatrix({"frontier-xl"}, mo));
}

RunResult
runExploreSharded(const Options& o)
{
    std::string ref;
    if (o.trace) {
        ref = exploreSetup();
        WorkloadState ws;
        ws.names = {"frontier-xl"};
        ws.exploreSpec = "prune";
        ws.cacheDir = "trace-explore-cache";
        ws.freshCacheEachOp = true;
        ws.refMatrixBytes = ref;
        ws.samplePoints = samplePoints(scenarioPoints(ws.names), o.seed);
        ws.serveLines.assign(
            4, "{\"scenario\": \"frontier-xl\", \"explore\": \"prune\"}");
        ws.canonicalOp = [exe = o.cliPath] {
            ThreadPool::setGlobalThreads(1);
            return runScenarioMatrix({"frontier-xl"},
                                     shardedPruneOptions(exe));
        };
        return traceWorkload(o, ws);
    }

    SetupTimes setup = repeatedSetup([&] { ref = exploreSetup(); }, 2);

    ThreadPool::setGlobalThreads(1);
    const MatrixOptions mo = shardedPruneOptions(o.cliPath);
    RunResult check;
    PeakRss rss(true);
    OpLog log = closedLoop(o.seconds, 2, [&](std::size_t, OpLog& ops) {
        timeOp(
            ops,
            [&] {
                MatrixResult r = runScenarioMatrix({"frontier-xl"}, mo);
                std::string bytes = emitJsonBytes(r);
                return std::make_pair(std::move(r), std::move(bytes));
            },
            [&](const auto& out) -> std::string {
                if (out.second != ref)
                    return "sharded bytes differ from the in-process run";
                if (out.first.failed != 0 || out.first.computed == 0)
                    return "not a clean cold sharded op";
                return "";
            });
    }, &check);
    RunResult out = endToEnd(setup, log, rss.mb(), check);
    out.notes["workers_peak_rss_mb"] = rss.childrenMb();
    return out;
}

} // namespace

RunResult
runWorkload(const Options& o)
{
    setInformEnabled(false);
    fs::create_directories(o.workDir);
    // Relative paths from here on: AF_UNIX socket paths are short.
    fs::current_path(o.workDir);
    if (o.workload == "cold-sweep")
        return runColdSweep(o);
    if (o.workload == "warm-rerun")
        return runWarmRerun(o);
    if (o.workload == "serve-mixed")
        return runServeMixed(o);
    if (o.workload == "explore-sharded")
        return runExploreSharded(o);
    fatal("unknown workload '", o.workload, "'");
}

} // namespace perfbench
