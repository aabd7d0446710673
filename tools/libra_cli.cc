/**
 * @file
 * libra_cli — run LIBRA design studies: single study files or whole
 * scenario matrices.
 *
 * Usage:
 *   libra_cli [--threads N] [--backend NAME] <study-file>
 *   libra_cli --example        # print a template study file and exit
 *   libra_cli list             # list registered paper scenarios
 *   libra_cli list-backends    # list registered timing backends
 *   libra_cli list-explorers   # list registered exploration strategies
 *   libra_cli run-matrix <names...|all|golden> [options]
 *   libra_cli serve --socket PATH [options]
 *   libra_cli serve-request --socket PATH <request-json>
 *
 * Every list command accepts `--emit json` for a byte-stable,
 * insertion-ordered registry dump external tooling can consume.
 *
 * run-matrix options:
 *   --cache-dir DIR    content-addressed result cache: re-running a
 *                      matrix recomputes only changed design points.
 *                      Each point is stored as it completes, so a
 *                      killed run resumes when rerun with the same DIR
 *   --emit json|csv    structured emission instead of tables (stats go
 *                      to stderr; stdout is byte-stable across runs)
 *   --out FILE         write the emission/tables to FILE
 *   --backend NAME     timing-backend override for every design point
 *                      (see `list-backends`), e.g. --backend chunk-sim
 *                      to re-run a whole matrix under simulation
 *   --explore NAME     exploration-strategy override for every
 *                      design-space scenario in the run (see
 *                      `list-explorers`), e.g. --explore prune to
 *                      screen-and-promote instead of exhausting the
 *                      space; scenarios without a design space are
 *                      unaffected
 *   --fail-mode MODE   abort (default): a failing design point unwinds
 *                      the run with the lowest-index point's error;
 *                      isolate: failures become per-scenario failure
 *                      rows and the rest of the matrix completes
 *                      (docs/ROBUSTNESS.md)
 *   --faults SPEC      arm the deterministic fault injector, e.g.
 *                      --faults cache-load-read=0.25,seed=7
 *   --workers N        shard the shared batch's owned computation
 *                      across N forked worker processes
 *                      (docs/SHARDING.md); emitted bytes are identical
 *                      at any worker count. 1 = classic in-process
 *   --worker-threads N solver threads per worker (default: hardware
 *                      concurrency / workers)
 *   --update-golden    rewrite the golden-figure files for the golden
 *                      scenarios included in this run
 *   --golden-dir DIR   golden file directory (default: tests/golden);
 *                      needs --update-golden
 *
 * serve options (docs/SERVE.md): a long-lived study service on a
 * Unix-domain socket, answering newline-delimited JSON requests with
 * the exact bytes run-matrix would emit — backed by an in-memory LRU
 * over the disk cache:
 *   --socket PATH      socket path (required; created on start)
 *   --cache-dir DIR    disk result cache under the LRU (optional)
 *   --lru N            in-memory LRU capacity in entries (default
 *                      1024; 0 disables the LRU)
 *   --threads N        size the shared evaluation pool
 *   --faults SPEC      arm the fault injector (tests, CI)
 *
 * serve-request sends one request line to a running server, writes the
 * payload to stdout and the status line to stderr (exit 0 ok, 1 error,
 * 3 ok-with-failed-points — mirroring run-matrix).
 *
 * Exit codes: 0 success; 1 user error (bad configuration, FatalError)
 * or output that could not be written (stdout, --out, golden files);
 * 2 internal error; 3 partial failure (an isolate-mode matrix run that
 * completed with failed design points).
 *
 * --backend on a single study file overrides its BACKEND line the same
 * way --threads overrides THREADS.
 *
 * --threads N (or the LIBRA_THREADS environment variable, or a THREADS
 * line in the study file; flag wins) sizes the parallel evaluation
 * engine. Results are bit-identical at any thread count, and matrix
 * JSON is byte-identical whether points were computed or cached.
 */

#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/parse_number.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "core/report.hh"
#include "core/study_config.hh"
#include "core/timing_backend.hh"
#include "explore/explore.hh"
#include "serve/server.hh"
#include "study/matrix.hh"
#include "study/shard.hh"

namespace {

const char* kTemplate = R"(# LIBRA design study
NETWORK RI(4)_FC(8)_RI(4)_SW(32)
TOTAL_BW 500
OBJECTIVE PERF            # PERF or PERF_PER_COST
LOOP NO_OVERLAP           # NO_OVERLAP or TP_DP_OVERLAP
CONSTRAINT B4 <= 50
WORKLOAD gpt3
WORKLOAD msft1t WEIGHT 1.0
NORMALIZE_WEIGHTS
# THREADS 8                # solver parallelism (deterministic)
# BACKEND chunk-sim        # timing backend (list-backends)
# EXPLORE prune            # exploration strategy (list-explorers)
# COST Pod LINK 7.8 SWITCH 18.0 NIC 31.6
# DOLLAR_CAP 1.5e7
# WORKLOAD_FILE my_profiled_model.wl
)";

int
runStudy(const std::string& path, int threads, const std::string& backend)
{
    using namespace libra;

    std::ifstream file(path);
    if (!file) {
        std::cerr << "libra_cli: cannot open '" << path << "'\n";
        return 1;
    }
    LibraInputs inputs = parseStudyConfig(file);
    if (threads > 0)
        inputs.threads = threads; // Flag wins over the THREADS line.
    if (!backend.empty()) {      // Flag wins over the BACKEND line.
        resolveTimingBackend(backend); // Validate.
        inputs.config.estimator.timingBackend = backend;
    }

    std::cout << "Study: " << inputs.networkShape << " @ "
              << inputs.config.totalBw << " GB/s per NPU, "
              << objectiveName(inputs.config.objective) << "\n";
    for (const auto& t : inputs.targets) {
        std::cout << "  target: " << t.workload.name << " "
                  << t.workload.strategy.name() << " (weight "
                  << t.weight << ")\n";
    }

    LibraReport report = runLibra(inputs);

    Table t("result");
    t.header({"Design", "BW config", "Weighted time", "Cost",
              "Speedup", "ppc x"});
    t.row({"EqualBW", bwConfigToString(report.equalBw.bw, 1),
           secondsToString(report.equalBw.weightedTime),
           dollarsToString(report.equalBw.cost), "1.00", "1.00"});
    t.row({"LIBRA", bwConfigToString(report.optimized.bw, 1),
           secondsToString(report.optimized.weightedTime),
           dollarsToString(report.optimized.cost),
           Table::num(report.speedup, 2),
           Table::num(report.perfPerCostGain, 2)});
    t.print(std::cout);

    std::cout << "\nPer-workload iteration times on the LIBRA design:\n";
    for (std::size_t i = 0; i < inputs.targets.size(); ++i) {
        std::cout << "  " << inputs.targets[i].workload.name << ": "
                  << secondsToString(
                         report.optimized.perWorkloadTime[i])
                  << " (EqualBW "
                  << secondsToString(report.equalBw.perWorkloadTime[i])
                  << ")\n";
    }
    return 0;
}

/**
 * Emit a registry listing as byte-stable JSON (insertion-ordered, the
 * registries' registration order) so external tooling can discover
 * scenarios/backends/explorers without scraping the tables.
 */
void
emitRegistryJson(const char* registryName,
                 const std::vector<libra::Json>& entries)
{
    libra::Json j = libra::Json::object();
    j["schema"] = "libra-registry-v1";
    j["registry"] = registryName;
    libra::Json arr = libra::Json::array();
    for (const auto& e : entries)
        arr.push(e);
    j["entries"] = std::move(arr);
    std::cout << j.dump(1) << "\n";
}

int
listScenarios(bool json)
{
    using namespace libra;
    const ScenarioRegistry& registry = ScenarioRegistry::global();
    std::vector<Json> entries;
    for (const auto& name : registry.names()) {
        const Scenario* s = registry.find(name);
        std::size_t points = s->space ? candidateCount(s->space())
                             : s->build ? s->build().size()
                                        : 0;
        Json e = Json::object();
        e["name"] = name;
        e["points"] = points;
        e["designSpace"] = static_cast<bool>(s->space);
        e["title"] = s->title;
        entries.push_back(std::move(e));
    }
    if (json) {
        emitRegistryJson("scenarios", entries);
        return 0;
    }
    Table t("registered scenarios");
    t.header({"Name", "Points", "Space", "Title"});
    for (const auto& e : entries) {
        t.row({e.at("name").asString(),
               Table::num(e.at("points").asNumber(), 0),
               e.at("designSpace").asBool() ? "yes" : "-",
               e.at("title").asString()});
    }
    t.print(std::cout);
    std::cout << "\nGroups: 'all' = every scenario; 'golden' = the "
                 "golden-figure set (";
    bool first = true;
    for (const auto& name : goldenScenarioNames()) {
        std::cout << (first ? "" : ", ") << name;
        first = false;
    }
    std::cout << ").\n";
    return 0;
}

int
listBackends(bool json)
{
    using namespace libra;
    const TimingBackendRegistry& registry =
        TimingBackendRegistry::global();
    std::vector<Json> entries;
    for (const auto& name : registry.names()) {
        const TimingBackend* b = registry.find(name);
        Json e = Json::object();
        e["name"] = name;
        e["cacheKeyTag"] = b->cacheKeyTag();
        e["description"] = b->description();
        entries.push_back(std::move(e));
    }
    if (json) {
        emitRegistryJson("backends", entries);
        return 0;
    }
    Table t("registered timing backends");
    t.header({"Name", "Description"});
    for (const auto& e : entries)
        t.row({e.at("name").asString(),
               e.at("description").asString()});
    t.print(std::cout);
    std::cout << "\nSelect with a study-file `BACKEND name` line or "
                 "`--backend name`;\nthe default is the analytical "
                 "model (see docs/BACKENDS.md).\n";
    return 0;
}

int
listExplorers(bool json)
{
    using namespace libra;
    const ExploreRegistry& registry = ExploreRegistry::global();
    std::vector<Json> entries;
    for (const auto& name : registry.names()) {
        Json e = Json::object();
        e["name"] = name;
        e["description"] = registry.find(name)->description();
        entries.push_back(std::move(e));
    }
    if (json) {
        emitRegistryJson("explorers", entries);
        return 0;
    }
    Table t("registered exploration strategies");
    t.header({"Name", "Description"});
    for (const auto& e : entries)
        t.row({e.at("name").asString(),
               e.at("description").asString()});
    t.print(std::cout);
    std::cout << "\nSelect with a study-file `EXPLORE name` line or "
                 "`--explore name`;\nthe default is exhaustive (see "
                 "docs/EXPLORE.md).\n";
    return 0;
}

struct MatrixCliOptions
{
    std::vector<std::string> names;
    std::string cacheDir;
    std::string emit;      // "", "json", or "csv".
    std::string outPath;
    std::string backend;    // "" = per-point scenario default.
    std::string explore;    // "" = per-scenario strategy default.
    bool updateGolden = false;
    std::optional<std::string> goldenDir; // unset = tests/golden.
    int threads = 0;
    libra::FailMode failMode = libra::FailMode::Abort;
    std::size_t workers = 0;    // 0/1 = classic in-process sweep.
    int workerThreads = 0;      // 0 = hardware concurrency / workers.
    std::string workerExe;      // Resolved self path (sharded runs).
};

/**
 * Close a written @p file; false (after naming @p path on stderr) when
 * any of its bytes could not be written — e.g. a full disk, which an
 * ofstream only reports once its buffer is flushed.
 */
bool
closeWritten(std::ofstream& file, const std::string& path)
{
    file.close();
    if (file)
        return true;
    std::cerr << "libra_cli: cannot write '" << path << "'\n";
    return false;
}

/**
 * The executable to exec as `... worker` for sharded runs: this very
 * binary, resolved through /proc/self/exe so it survives argv[0] being
 * a bare name or a PATH lookup. Falls back to argv[0].
 */
std::string
selfExecutable(const char* argv0)
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0;
}

int
runMatrixCommand(const MatrixCliOptions& cli)
{
    using namespace libra;

    // Expand the name groups against the registry (shared with the
    // serve protocol, so a served request resolves identically).
    std::vector<std::string> names = expandScenarioGroups(cli.names);
    if (names.empty()) {
        std::cerr << "libra_cli: run-matrix needs scenario names "
                     "('libra_cli list'), 'all', or 'golden'\n";
        return 1;
    }

    // Goldens pin the default timing model and exploration; rewriting
    // them under another backend or strategy would mask default-path
    // regressions.
    if (cli.updateGolden && !cli.backend.empty()) {
        std::cerr << "libra_cli: --update-golden cannot be combined "
                     "with --backend (golden figures pin the "
                     "analytical timing model)\n";
        return 1;
    }
    if (cli.updateGolden && !cli.explore.empty()) {
        std::cerr << "libra_cli: --update-golden cannot be combined "
                     "with --explore (golden figures pin the "
                     "exhaustive enumeration)\n";
        return 1;
    }
    if (!cli.updateGolden && cli.goldenDir) {
        std::cerr << "libra_cli: --golden-dir needs --update-golden "
                     "(only a golden update writes there)\n";
        return 1;
    }

    if (cli.threads > 0)
        ThreadPool::setGlobalThreads(
            static_cast<std::size_t>(cli.threads));

    MatrixOptions options;
    options.cacheDir = cli.cacheDir;
    options.timingBackend = cli.backend;
    options.exploreSpec = cli.explore;
    options.failMode = cli.failMode;
    options.workers = cli.workers;
    options.workerExe = cli.workerExe;
    options.workerThreads = cli.workerThreads;
    MatrixResult result = runScenarioMatrix(names, options);

    std::ofstream outFile;
    std::ostream* out = &std::cout;
    if (!cli.outPath.empty()) {
        outFile.open(cli.outPath);
        if (!outFile) {
            std::cerr << "libra_cli: cannot write '" << cli.outPath
                      << "'\n";
            return 1;
        }
        out = &outFile;
    }

    if (cli.emit == "json") {
        emitMatrixJson(result, *out);
    } else if (cli.emit == "csv") {
        emitMatrixCsv(result, *out);
    } else {
        printMatrixHuman(result, *out);
    }
    if (out == &outFile && !closeWritten(outFile, cli.outPath))
        return 1;

    // Structured emission keeps stdout byte-stable; provenance goes to
    // stderr (also when tables went to a file).
    if (!cli.emit.empty() || out != &std::cout) {
        std::cerr << "matrix: " << result.scenarios.size()
                  << " scenarios, " << result.points
                  << " design points (" << result.unique << " unique, "
                  << result.fromCache << " from cache, "
                  << result.computed << " computed)";
        if (result.failed > 0)
            std::cerr << " -- " << result.failed << " FAILED";
        std::cerr << "\n";
    }

    if (cli.updateGolden) {
        // A golden file must pin an all-ok run; a failure-only payload
        // would silently erase the figure's reference rows.
        if (result.failed > 0) {
            std::cerr << "libra_cli: refusing --update-golden: "
                      << result.failed
                      << " design points failed in this run\n";
            return 1;
        }
        std::size_t written = 0;
        for (const ScenarioRun& run : result.scenarios) {
            bool golden = false;
            for (const auto& g : goldenScenarioNames())
                golden |= g == run.name;
            if (!golden)
                continue;
            std::string path = cli.goldenDir.value_or("tests/golden") +
                               "/" + run.name + ".json";
            std::ofstream file(path);
            if (!file) {
                std::cerr << "libra_cli: cannot write golden file '"
                          << path << "'\n";
                return 1;
            }
            file << scenarioRunToJson(run).dump(1) << "\n";
            if (!closeWritten(file, path))
                return 1;
            ++written;
            std::cerr << "golden: wrote " << path << "\n";
        }
        if (written < goldenScenarioNames().size()) {
            std::cerr << "golden: warning: only " << written << " of "
                      << goldenScenarioNames().size()
                      << " golden scenarios were in this run (use "
                         "'run-matrix golden --update-golden')\n";
        }
    }
    // Partial failure (isolate mode): distinct exit code so CI and the
    // future serve mode can tell "some rows missing" from "all ok".
    return result.failed > 0 ? 3 : 0;
}

/** A thread-count flag: [1, 4096], like THREADS and LIBRA_THREADS. */
int
parseThreads(const std::string& text)
{
    return libra::parseNumber(text, 1, 4096, "thread count");
}

int
runServeCommand(const std::vector<std::string>& args)
{
    using namespace libra;

    constexpr auto kSizeMax = std::numeric_limits<std::size_t>::max();
    ServeOptions options;
    int threads = 0;
    for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string& arg = args[i];
        auto value = [&](const char* what) -> std::string {
            if (i + 1 >= args.size()) {
                std::cerr << "libra_cli: " << arg << " needs " << what
                          << "\n";
                std::exit(1);
            }
            return args[++i];
        };
        if (arg == "--socket") {
            options.socketPath = value("a path");
        } else if (arg == "--cache-dir") {
            options.cacheDir = value("a directory");
        } else if (arg == "--lru") {
            options.lruCapacity = parseNumber<std::size_t>(
                value("an entry count"), 0, kSizeMax, "--lru capacity");
        } else if (arg == "--threads") {
            threads = parseThreads(value("a count"));
        } else if (arg == "--faults") {
            installFaults(parseFaultSpec(value("a fault spec")));
        } else {
            std::cerr << "libra_cli: unknown serve flag '" << arg
                      << "'\n";
            return 1;
        }
    }
    if (options.socketPath.empty()) {
        std::cerr << "libra_cli: serve needs --socket PATH\n";
        return 1;
    }

    if (threads > 0)
        ThreadPool::setGlobalThreads(static_cast<std::size_t>(threads));

    const std::string socketPath = options.socketPath;
    Server server(std::move(options));
    server.start();
    inform("serving on ", socketPath,
           " (send {\"op\":\"shutdown\"} to stop)");
    server.waitUntilStopped();
    Server::Stats stats = server.stats();
    inform("served ", stats.requests, " requests (", stats.errors,
           " errors)");
    return 0;
}

int
runServeRequestCommand(const std::vector<std::string>& args)
{
    using namespace libra;

    std::string socketPath;
    std::string request;
    for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--socket") {
            if (i + 1 >= args.size()) {
                std::cerr << "libra_cli: --socket needs a path\n";
                return 1;
            }
            socketPath = args[++i];
        } else if (request.empty()) {
            request = args[i];
        } else {
            std::cerr << "libra_cli: serve-request takes one request "
                         "line\n";
            return 1;
        }
    }
    if (socketPath.empty() || request.empty()) {
        std::cerr << "libra_cli: serve-request needs --socket PATH and "
                     "a request JSON line\n";
        return 1;
    }

    ServeReply reply = serveRequest(socketPath, request);
    // Mirror run-matrix: payload on stdout (byte-stable), provenance
    // on stderr.
    std::cerr << reply.status.dump() << "\n";
    std::cout << reply.payload;
    if (!reply.status.at("ok").asBool())
        return 1;
    if (reply.status.has("failed") &&
        reply.status.at("failed").asNumber() > 0)
        return 3;
    return 0;
}

void
usage()
{
    std::cerr
        << "usage: libra_cli [--threads N] [--backend NAME] "
           "<study-file>\n"
        << "       libra_cli --example\n"
        << "       libra_cli list [--emit json]\n"
        << "       libra_cli list-backends [--emit json]\n"
        << "       libra_cli list-explorers [--emit json]\n"
        << "       libra_cli run-matrix <names...|all|golden> "
           "[--threads N]\n"
        << "                 [--cache-dir DIR] [--emit json|csv] "
           "[--out FILE]\n"
        << "                 [--backend NAME] [--explore NAME]\n"
        << "                 [--fail-mode abort|isolate] "
           "[--faults SPEC]\n"
        << "                 [--workers N] [--worker-threads N]\n"
        << "                 [--update-golden] [--golden-dir DIR]\n"
        << "       libra_cli serve --socket PATH [--cache-dir DIR] "
           "[--lru N]\n"
        << "                 [--threads N] [--faults SPEC]\n"
        << "       libra_cli serve-request --socket PATH "
           "<request-json>\n";
}

int
runCli(int argc, char** argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);

    // Hidden shard-worker mode (docs/SHARDING.md): speak the frame
    // protocol on stdin/stdout until exit/EOF. Workers are exec'd with
    // no flags, so they never arm the fault injector — the master
    // injects faults before dispatch, and content-keyed faults must
    // not fire twice.
    if (!args.empty() && args[0] == "worker")
        return libra::runShardWorker();

    if (!args.empty() && args[0] == "--example") {
        std::cout << kTemplate;
        return 0;
    }

    // Shared `--emit json` handling for the three list commands.
    auto listEmit = [&](std::size_t argIndex) -> int {
        // 0 = human tables, 1 = json, -1 = bad flag.
        if (argIndex >= args.size())
            return 0;
        if (args[argIndex] == "--emit" && argIndex + 1 < args.size() &&
            args[argIndex + 1] == "json" && argIndex + 2 == args.size())
            return 1;
        std::cerr << "libra_cli: list commands accept only "
                     "'--emit json'\n";
        return -1;
    };

    try {
        if (!args.empty() &&
            (args[0] == "list" || args[0] == "list-backends" ||
             args[0] == "list-explorers")) {
            int emit = listEmit(1);
            if (emit < 0)
                return 1;
            if (args[0] == "list")
                return listScenarios(emit == 1);
            if (args[0] == "list-backends")
                return listBackends(emit == 1);
            return listExplorers(emit == 1);
        }
        if (!args.empty() && args[0] == "run-matrix") {
            MatrixCliOptions cli;
            cli.workerExe = selfExecutable(argv[0]);
            for (std::size_t i = 1; i < args.size(); ++i) {
                const std::string& arg = args[i];
                auto value = [&](const char* what) -> std::string {
                    if (i + 1 >= args.size()) {
                        std::cerr << "libra_cli: " << arg << " needs "
                                  << what << "\n";
                        std::exit(1);
                    }
                    return args[++i];
                };
                if (arg == "--cache-dir") {
                    cli.cacheDir = value("a directory");
                } else if (arg == "--emit") {
                    cli.emit = value("json or csv");
                    if (cli.emit != "json" && cli.emit != "csv") {
                        std::cerr << "libra_cli: --emit expects json "
                                     "or csv\n";
                        return 1;
                    }
                } else if (arg == "--out") {
                    cli.outPath = value("a file path");
                } else if (arg == "--backend") {
                    cli.backend = value("a backend name");
                } else if (arg == "--explore") {
                    cli.explore = value("a strategy name");
                } else if (arg == "--fail-mode") {
                    std::string mode =
                        value("abort or isolate");
                    if (mode == "abort") {
                        cli.failMode = libra::FailMode::Abort;
                    } else if (mode == "isolate") {
                        cli.failMode = libra::FailMode::Isolate;
                    } else {
                        std::cerr << "libra_cli: --fail-mode expects "
                                     "abort or isolate\n";
                        return 1;
                    }
                } else if (arg == "--faults") {
                    libra::installFaults(
                        libra::parseFaultSpec(value("a fault spec")));
                } else if (arg == "--update-golden") {
                    cli.updateGolden = true;
                } else if (arg == "--golden-dir") {
                    cli.goldenDir = value("a directory");
                } else if (arg == "--threads") {
                    cli.threads = parseThreads(value("a count"));
                } else if (arg == "--workers") {
                    cli.workers = libra::parseNumber<std::size_t>(
                        value("a worker count"), 1, 256,
                        "--workers count");
                } else if (arg == "--worker-threads") {
                    cli.workerThreads = parseThreads(value("a count"));
                } else if (!arg.empty() && arg[0] == '-') {
                    std::cerr << "libra_cli: unknown run-matrix flag '"
                              << arg << "'\n";
                    return 1;
                } else {
                    cli.names.push_back(arg);
                }
            }
            return runMatrixCommand(cli);
        }
        if (!args.empty() && args[0] == "serve")
            return runServeCommand(args);
        if (!args.empty() && args[0] == "serve-request")
            return runServeRequestCommand(args);

        // Legacy single-study mode.
        int threads = 0;
        std::string studyPath;
        std::string backend;
        for (std::size_t i = 0; i < args.size(); ++i) {
            if (args[i] == "--threads") {
                if (i + 1 >= args.size()) {
                    std::cerr << "libra_cli: --threads needs a count\n";
                    return 1;
                }
                threads = parseThreads(args[++i]);
            } else if (args[i] == "--backend") {
                if (i + 1 >= args.size()) {
                    std::cerr << "libra_cli: --backend needs a name\n";
                    return 1;
                }
                backend = args[++i];
            } else if (!args[i].empty() && args[i][0] == '-') {
                std::cerr << "libra_cli: unknown flag '" << args[i]
                          << "'\n";
                return 1;
            } else if (studyPath.empty()) {
                studyPath = args[i];
            } else {
                usage();
                return 1;
            }
        }
        if (studyPath.empty()) {
            usage();
            return 1;
        }
        return runStudy(studyPath, threads, backend);
    } catch (const libra::FatalError& e) {
        // User error: bad configuration, infeasible constraints.
        std::cerr << "libra_cli: " << e.what() << "\n";
        return 1;
    } catch (const std::exception& e) {
        // Internal error: anything the engine did not classify.
        std::cerr << "libra_cli: internal error: " << e.what() << "\n";
        return 2;
    }
}

} // namespace

int
main(int argc, char** argv)
{
    int code = runCli(argc, argv);
    // Everything bound for stdout is buffered, so a write error (a
    // full disk, say) may only show here. Output that never arrived is
    // a failed run, whatever the command computed.
    if (!std::cout.flush()) {
        std::cerr << "libra_cli: cannot write stdout\n";
        return 1;
    }
    return code;
}
