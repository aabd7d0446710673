/**
 * @file
 * perfbench: run one benchmark workload and print its result.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --work-dir DIR [--trace-out FILE]
 *
 * stdout ends with two JSON lines: run metadata ({"meta": ...}: machine
 * fingerprint, host-probe times, workload notes), then the result
 * {"correct", "attempted", "failed", "metrics"}. Normally driven by
 * perfbench/run.py, which builds this binary first.
 */

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "common/logging.hh"
#include "core/estimator.hh"
#include "probe.hh"
#include "trace.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

/**
 * The host probe (probe.hh) as the run's before/after marker: the
 * median of five single-thread probes, in ms. It touches no LIBRA code,
 * so a slow marker flags a run taken while the host itself was slow.
 */
double
hostMarkerMs()
{
    std::vector<double> ms;
    for (int i = 0; i < 5; ++i)
        ms.push_back(perfbench::hostProbeMs(1));
    return perfbench::percentile(ms, 0.5);
}

int
usage(const std::string& why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--trace-out FILE]\n";
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    namespace fs = std::filesystem;
    perfbench::Options o;
    o.cliPath = PERFBENCH_CLI_PATH;
    o.goldenDir = PERFBENCH_GOLDEN_DIR;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + arg);
        std::string value = argv[++i];
        try {
            if (arg == "--workload")
                o.workload = value;
            else if (arg == "--seed")
                o.seed = std::stoull(value);
            else if (arg == "--seconds")
                o.seconds = std::stod(value);
            else if (arg == "--trace")
                o.trace = value == "1";
            else if (arg == "--work-dir")
                o.workDir = value;
            else if (arg == "--trace-out")
                o.traceOut = value;
            else
                return usage("unknown flag " + arg);
        } catch (const std::exception&) {
            return usage("bad value for " + arg);
        }
    }
    const auto& names = perfbench::workloadNames();
    if (std::find(names.begin(), names.end(), o.workload) == names.end())
        return usage("unknown workload '" + o.workload + "'");
    if (o.workDir.empty() || !(o.seconds > 0.0))
        return usage("--work-dir and a positive --seconds are required");
    if (o.traceOut.empty())
        o.traceOut = o.workDir + "/trace.json";
    o.workDir = fs::absolute(o.workDir).string();
    o.traceOut = fs::absolute(o.traceOut).string();

    double probeBefore = hostMarkerMs();
    perfbench::RunResult r;
    try {
        r = perfbench::runWorkload(o);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
    double probeAfter = hostMarkerMs();

    libra::Json meta = libra::Json::object();
    meta["workload"] = o.workload;
    meta["seed"] = static_cast<double>(o.seed);
    meta["seconds"] = o.seconds;
    meta["trace"] = o.trace;
    meta["nproc"] = static_cast<double>(std::thread::hardware_concurrency());
    meta["simd_kernel"] = libra::activeSimdKernel();
#if defined(__clang__)
    meta["compiler"] = "clang " __clang_version__;
#elif defined(__GNUC__)
    meta["compiler"] = "gcc " __VERSION__;
#else
    meta["compiler"] = __VERSION__;
#endif
    meta["build_type"] = PERFBENCH_BUILD_TYPE;
    meta["host_probe_ms_before"] = probeBefore;
    meta["host_probe_ms_after"] = probeAfter;
    meta["host_probe_ref_ms"] = perfbench::kHostProbeRefMs;
    meta["notes"] = r.notes;
    libra::Json metaLine = libra::Json::object();
    metaLine["meta"] = std::move(meta);

    libra::Json metrics = libra::Json::object();
    for (const auto& m : r.metrics) {
        libra::Json v = libra::Json::object();
        v["value"] = m.value;
        v["unit"] = m.unit;
        metrics[m.name] = std::move(v);
    }
    libra::Json result = libra::Json::object();
    result["correct"] = r.correct && r.failed == 0 && r.attempted > 0;
    result["attempted"] = r.attempted;
    result["failed"] = r.failed;
    result["metrics"] = std::move(metrics);

    std::cout << metaLine.dump() << "\n" << result.dump() << std::endl;
    return 0;
}
