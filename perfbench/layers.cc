/**
 * @file
 * The traced run: per-layer metrics from spans the benchmark records
 * around calls into each layer's public functions, replaying the
 * workload's own inputs.
 *
 * 1. Op replay (for --seconds): one op decomposed into the steps
 *    runScenarioMatrix takes — Scenario::build / design-space expansion
 *    (study.build), canonicalStudyKey + studyCacheHashOfKey
 *    (study.key), ResultCache::load / store, runLibraSweep on the
 *    misses (core.sweep), exploreCandidates for adaptive scenarios,
 *    Scenario::format / formatSpace (study.format), and matrixToJson
 *    emission (study.emit). The replay's bytes must equal the
 *    workload's reference emission.
 * 2. Probes on a seeded sample of the workload's design points: the
 *    sweep, BwOptimizer::optimize / baseline, TrainingEstimator::compile
 *    and CompiledWorkload::estimate / estimateBatch, a ResultCache
 *    store + read-back, Json::parse / dump, fig10's formatter and
 *    TrainingSim::simulate, Server::handleLine vs serveRequest, and the
 *    ShardPool constructor + evaluatePoints.
 * 3. The workload's real op, twice from the same start state: its
 *    MatrixResult counters must repeat exactly.
 *
 * Every probe runs on a 1-thread sweep pool (the shard probe on 2
 * worker processes x 1 thread), so per-call times are CPU times.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>

#include "bench.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "core/estimator.hh"
#include "core/optimizer.hh"
#include "core/study_config.hh"
#include "explore/explore.hh"
#include "generator.hh"
#include "serve/server.hh"
#include "sim/training_sim.hh"
#include "study/cache.hh"
#include "study/scenario.hh"
#include "study/scenario_util.hh"
#include "study/shard.hh"
#include "trace.hh"

namespace perfbench {

using namespace libra;
namespace fs = std::filesystem;

namespace {

/** Every per-layer metric a traced run must report (BENCHMARK.json). */
const std::vector<std::string>&
perLayerMetricNames()
{
    static const std::vector<std::string> names{
        "solver.optimize.ms_per_point",
        "solver.baseline.us",
        "core.compile.us",
        "core.estimate.ns_per_eval",
        "core.estimate_batch.ns_per_candidate",
        "core.sweep.ms_per_point",
        "study.build.ms",
        "study.key.us_per_point",
        "study.cache_load.us_per_hit",
        "study.cache_load.hit_ratio",
        "study.cache_store.us_per_point",
        "study.format.ms",
        "study.format_fig10.ms",
        "sim.training_sim.ms_per_call",
        "study.emit.ms",
        "common.json_dump.us_per_kb",
        "common.json_parse.us_per_kb",
        "serve.handle_line.ms",
        "serve.round_trip.ms",
        "serve.transport.ms",
        "serve.lru.hit_ratio",
        "serve.lru.evictions",
        "serve.disk_hits",
        "study.shard.spawn_ms",
        "study.shard.eval_ms_per_point",
        "study.shard.overhead_ratio",
        "study.matrix.points",
        "study.matrix.unique",
        "study.matrix.computed",
        "study.matrix.from_cache",
        "study.matrix.coalesced",
        "study.matrix.failed",
    };
    return names;
}

/** Keeps probe results observable so the compiler cannot drop them. */
volatile double gSink = 0.0;

/** Busy time and work counts behind the per-unit layer metrics. */
struct Tally
{
    double keyUs = 0.0;
    std::size_t keyed = 0;
    std::size_t loads = 0;
    std::size_t hits = 0;
    double hitUs = 0.0;
    double storeUs = 0.0;
    std::size_t stores = 0;
    double sweepUs = 0.0;
    std::size_t swept = 0;
    std::size_t ops = 0;
    double buildUs = 0.0;
    double formatUs = 0.0;
    double emitUs = 0.0;
    double fig10Us = 0.0;
    std::size_t fig10Calls = 0;
    double simUs = 0.0;
    std::size_t simCalls = 0;
    double optimizeUs = 0.0;
    double baselineUs = 0.0;
    std::size_t solved = 0;
    double compileUs = 0.0;
    std::size_t compiles = 0;
    double estimateUs = 0.0;
    std::size_t evals = 0;
    double batchUs = 0.0;
    std::size_t candidates = 0;
    double parseUs = 0.0;
    double parseKb = 0.0;
    double dumpUs = 0.0;
    double dumpKb = 0.0;
    std::vector<double> handleMs;
    std::vector<double> roundTripMs;
};

double
perUnit(double total, double units)
{
    return units > 0.0 ? total / units : 0.0;
}

/**
 * The matrix runner's cache-aware sweep, step by step: key every
 * point, dedup by key, load what the cache has, sweep the misses, and
 * store them.
 */
std::vector<LibraReport>
replaySweep(const std::vector<LibraInputs>& points, ResultCache* cache,
            Tally& t)
{
    const std::size_t n = points.size();
    std::vector<std::string> keys(n);
    std::vector<std::uint64_t> hashes(n);
    {
        Span s("study.key");
        for (std::size_t i = 0; i < n; ++i) {
            keys[i] = canonicalStudyKey(points[i]);
            hashes[i] = studyCacheHashOfKey(keys[i]);
        }
        t.keyUs += s.elapsedUs();
        t.keyed += n;
    }

    std::map<std::string, std::size_t> slotOfKey;
    std::vector<std::size_t> slotOf(n);
    std::vector<std::size_t> rep;
    for (std::size_t i = 0; i < n; ++i) {
        auto [it, fresh] = slotOfKey.emplace(keys[i], rep.size());
        if (fresh)
            rep.push_back(i);
        slotOf[i] = it->second;
    }

    std::vector<LibraReport> slotReport(rep.size());
    std::vector<std::size_t> missing;
    {
        Span s("study.cache_load");
        for (std::size_t k = 0; k < rep.size(); ++k) {
            bool hit = false;
            if (cache) {
                Clock::time_point t0 = Clock::now();
                hit = cache->load(hashes[rep[k]], keys[rep[k]],
                                  &slotReport[k]);
                ++t.loads;
                if (hit) {
                    ++t.hits;
                    t.hitUs += secondsSince(t0) * 1e6;
                }
            }
            if (!hit)
                missing.push_back(k);
        }
    }

    if (!missing.empty()) {
        std::vector<LibraInputs> batch;
        for (std::size_t k : missing)
            batch.push_back(points[rep[k]]);
        std::vector<LibraReport> reports;
        {
            Span s("core.sweep");
            reports = runLibraSweep(batch);
            t.sweepUs += s.elapsedUs();
            t.swept += batch.size();
        }
        for (std::size_t j = 0; j < missing.size(); ++j)
            slotReport[missing[j]] = reports[j];
        if (cache) {
            Span s("study.cache_store");
            for (std::size_t j = 0; j < missing.size(); ++j) {
                std::size_t i = rep[missing[j]];
                cache->store(hashes[i], keys[i], reports[j]);
            }
            t.storeUs += s.elapsedUs();
            t.stores += missing.size();
        }
    }

    std::vector<LibraReport> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = slotReport[slotOf[i]];
    return out;
}

/** One op of @p ws decomposed into its layers; returns emitted bytes. */
std::string
replayOp(const WorkloadState& ws, const std::string& cacheDir, Tally& t)
{
    Span op("op");
    std::optional<ResultCache> cache;
    if (!cacheDir.empty())
        cache.emplace(cacheDir);
    ResultCache* store = cache ? &*cache : nullptr;

    struct Slice
    {
        const Scenario* scenario = nullptr;
        std::vector<Candidate> candidates;
        std::vector<LibraInputs> points;
        std::string spec;
        std::size_t begin = 0;
        std::optional<ExploreResult> explored;
    };
    std::vector<Slice> slices;
    std::vector<LibraInputs> shared;
    {
        Span s("study.build");
        for (const auto& name : ws.names) {
            Slice sl;
            sl.scenario = ScenarioRegistry::global().find(name);
            if (!sl.scenario)
                fatal("unknown scenario '", name, "'");
            sl.begin = shared.size();
            if (sl.scenario->space) {
                sl.candidates = expandDesignSpace(sl.scenario->space());
                sl.spec = canonicalExploreSpec(ws.exploreSpec.empty()
                                                   ? sl.scenario->explore
                                                   : ws.exploreSpec);
                for (auto& c : sl.candidates) {
                    c.inputs.explore = sl.spec;
                    if (sl.spec.empty())
                        shared.push_back(c.inputs);
                }
            } else if (sl.scenario->build) {
                sl.points = sl.scenario->build();
                shared.insert(shared.end(), sl.points.begin(),
                              sl.points.end());
            }
            slices.push_back(std::move(sl));
        }
        t.buildUs += s.elapsedUs();
    }

    std::vector<LibraReport> reports = replaySweep(shared, store, t);
    for (Slice& sl : slices) {
        if (!sl.spec.empty()) {
            Span s("explore.rounds");
            sl.explored = exploreCandidates(
                sl.candidates, sl.spec,
                [&](const std::vector<LibraInputs>& batch) {
                    return replaySweep(batch, store, t);
                });
        }
    }

    MatrixResult result;
    {
        Span s("study.format");
        for (Slice& sl : slices) {
            ScenarioRun run;
            run.name = sl.scenario->name;
            run.title = sl.scenario->title;
            std::optional<Span> fig10;
            if (run.name == "fig10")
                fig10.emplace("study.format_fig10");
            auto slice = [&](std::size_t count) {
                auto first = reports.begin() +
                             static_cast<std::ptrdiff_t>(sl.begin);
                return std::vector<LibraReport>(
                    first, first + static_cast<std::ptrdiff_t>(count));
            };
            if (sl.explored) {
                run.output = sl.scenario->formatSpace(*sl.explored);
            } else if (sl.scenario->space) {
                std::vector<LibraReport> r = slice(sl.candidates.size());
                run.output = sl.scenario->formatSpace(
                    exhaustiveResultFromReports(sl.candidates, r));
            } else {
                run.output = sl.scenario->format(
                    sl.points, slice(sl.points.size()));
            }
            if (fig10) {
                t.fig10Us += fig10->elapsedUs();
                ++t.fig10Calls;
            }
            result.scenarios.push_back(std::move(run));
        }
        t.formatUs += s.elapsedUs();
    }

    std::string bytes;
    {
        Span s("study.emit");
        bytes = emitJsonBytes(result);
        t.emitUs += s.elapsedUs();
    }
    ++t.ops;
    return bytes;
}

std::string
reportBytes(const LibraReport& r)
{
    return reportToJson(r).dump();
}

/** Sweep, cache round-trip, solver and estimator probes. */
std::vector<LibraReport>
computeProbes(const Options& o, const WorkloadState& ws, Tally& t,
              double* sampleSweepUs, RunResult* out)
{
    std::vector<LibraReport> reports;
    {
        Span s("core.sweep");
        reports = runLibraSweep(ws.samplePoints);
        *sampleSweepUs = s.elapsedUs();
        t.sweepUs += *sampleSweepUs;
        t.swept += ws.samplePoints.size();
    }

    // Store the sample into an empty cache and read it back.
    freshDir("trace-store-probe");
    ResultCache probe("trace-store-probe");
    for (std::size_t i = 0; i < ws.samplePoints.size(); ++i) {
        std::string key = canonicalStudyKey(ws.samplePoints[i]);
        std::uint64_t hash = studyCacheHashOfKey(key);
        {
            Span s("study.cache_store");
            probe.store(hash, key, reports[i]);
            t.storeUs += s.elapsedUs();
            ++t.stores;
        }
        LibraReport back;
        bool hit = false;
        {
            Span s("study.cache_load");
            hit = probe.load(hash, key, &back);
            if (hit) {
                t.hitUs += s.elapsedUs();
                ++t.hits;
            }
        }
        if (!hit || reportBytes(back) != reportBytes(reports[i])) {
            out->correct = false;
            out->notes["cache_roundtrip_mismatch"] = i;
        }
    }

    for (std::size_t i = 0; i < ws.samplePoints.size(); ++i) {
        const LibraInputs& p = ws.samplePoints[i];
        Network net = Network::parse(p.networkShape);
        BwOptimizer optimizer(net, p.costModel);
        TrainingEstimator estimator(net, p.config.estimator);
        std::vector<TargetWorkload> targets = p.targets;
        if (p.normalizeTargetWeights)
            targets = normalizeWeights(estimator, std::move(targets),
                                       p.config.totalBw);
        {
            Span s("solver.baseline");
            gSink = gSink + optimizer.baseline(targets, p.config).weightedTime;
            t.baselineUs += s.elapsedUs();
        }
        {
            Span s("solver.optimize");
            gSink = gSink + optimizer.optimize(targets, p.config).weightedTime;
            t.optimizeUs += s.elapsedUs();
        }
        ++t.solved;

        // Seeded positive BW vectors on the budget simplex.
        SeededStream rng(mixSeed(o.seed, 100 + i));
        std::vector<BwConfig> bws(64);
        for (auto& bw : bws) {
            bw.resize(net.numDims());
            double sum = 0.0;
            for (auto& b : bw) {
                b = 0.05 + rng.unit();
                sum += b;
            }
            for (auto& b : bw)
                b *= p.config.totalBw / sum;
        }
        constexpr int kReps = 16;
        for (const auto& target : targets) {
            std::optional<CompiledWorkload> compiled;
            {
                Span s("core.compile");
                compiled.emplace(estimator.compile(target.workload));
                t.compileUs += s.elapsedUs();
                ++t.compiles;
            }
            double sink = 0.0;
            {
                Span s("core.estimate");
                for (int r = 0; r < kReps; ++r) {
                    for (const auto& bw : bws)
                        sink += compiled->estimate(bw);
                }
                t.estimateUs += s.elapsedUs();
                t.evals += kReps * bws.size();
            }
            std::vector<Seconds> times(bws.size(), 0.0);
            {
                Span s("core.estimate_batch");
                for (int r = 0; r < kReps; ++r) {
                    compiled->estimateBatch(bws.data(), bws.size(),
                                            times.data());
                    sink += times[0];
                }
                t.batchUs += s.elapsedUs();
                t.candidates += kReps * bws.size();
            }
            gSink = gSink + sink;
        }
    }
    return reports;
}

/** fig10's formatter and its TrainingSim calls on fig10's inputs. */
void
fig10Probe(const WorkloadState& ws, Tally& t)
{
    const Scenario* fig10 = ScenarioRegistry::global().find("fig10");
    std::vector<LibraInputs> points = fig10->build();
    std::optional<ResultCache> cache;
    if (!ws.freshCacheEachOp && !ws.cacheDir.empty())
        cache.emplace(ws.cacheDir);
    Tally untimed; // The inputs' own sweep is not what this probe times.
    std::vector<LibraReport> reports =
        replaySweep(points, cache ? &*cache : nullptr, untimed);

    for (int r = 0; r < 2; ++r) {
        Span s("study.format_fig10");
        ScenarioOutput formatted = fig10->format(points, reports);
        gSink = gSink + static_cast<double>(formatted.rows.size());
        t.fig10Us += s.elapsedUs();
        ++t.fig10Calls;
    }
    std::vector<topo::NamedNetwork> nets = fig10Nets();
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Network& net = nets[i].network;
        const Workload& w = points[i].targets[0].workload;
        TrainingSim sim(net, {});
        for (const BwConfig& bw :
             {net.equalBw(points[i].config.totalBw),
              reports[i].optimized.bw}) {
            Span s("sim.training_sim");
            gSink = gSink + sim.simulate(w, bw).total;
            t.simUs += s.elapsedUs();
            ++t.simCalls;
        }
    }
}

/** Json::parse / dump over cache entries and the op's payload. */
void
jsonProbe(const WorkloadState& ws, Tally& t)
{
    std::vector<std::string> texts{ws.refMatrixBytes};
    for (const char* dir : {ws.cacheDir.c_str(), "trace-store-probe"}) {
        if (!*dir || !fs::is_directory(dir))
            continue;
        for (const auto& entry : fs::directory_iterator(dir)) {
            if (texts.size() >= 64)
                break;
            if (entry.path().extension() != ".json")
                continue;
            std::ifstream file(entry.path());
            std::ostringstream text;
            text << file.rdbuf();
            texts.push_back(text.str());
        }
    }
    for (int r = 0; r < 4; ++r) {
        for (const auto& text : texts) {
            Json j;
            {
                Span s("common.json_parse");
                j = Json::parse(text);
                t.parseUs += s.elapsedUs();
                t.parseKb += static_cast<double>(text.size()) / 1024.0;
            }
            Span s("common.json_dump");
            std::string dumped = j.dump(1);
            t.dumpUs += s.elapsedUs();
            t.dumpKb += static_cast<double>(dumped.size()) / 1024.0;
        }
    }
}

/**
 * handleLine vs the socket round trip, then the store's counters. The
 * two paths replay the same lines in two passes, each on a fresh server
 * over the same disk cache, so request i finds the same LRU state on
 * both and round trip − handleLine is its transport alone.
 */
void
serveProbe(const WorkloadState& ws, Tally& t, RunResult* out)
{
    ServeOptions so;
    so.socketPath = "trace-serve.sock";
    so.cacheDir = ws.cacheDir;
    so.lruCapacity = ws.lruCapacity > 0 ? ws.lruCapacity : 1024;
    {
        Server direct(so);
        direct.start();
        for (const std::string& line : ws.serveLines) {
            bool shutdown = false;
            Span s("serve.handle_line");
            gSink = gSink + static_cast<double>(
                                direct.handleLine(line, &shutdown).size());
            t.handleMs.push_back(s.elapsedUs() / 1000.0);
        }
        direct.stop();
    }
    Server server(so);
    server.start();
    for (const std::string& line : ws.serveLines) {
        Span s("serve.round_trip");
        ServeReply reply = serveRequest(so.socketPath, line);
        t.roundTripMs.push_back(s.elapsedUs() / 1000.0);
        if (!reply.status.at("ok").asBool()) {
            out->correct = false;
            out->notes["serve_probe_refused"] = line;
        }
    }
    ServeStore::Stats stats = server.store().stats();
    server.stop();
    double lookups = static_cast<double>(stats.lru.hits + stats.lru.misses);
    out->metrics.push_back(
        {"serve.lru.hit_ratio",
         perUnit(static_cast<double>(stats.lru.hits), lookups), "ratio"});
    out->metrics.push_back({"serve.lru.evictions",
                            static_cast<double>(stats.lru.evictions),
                            "count"});
    out->metrics.push_back(
        {"serve.disk_hits", static_cast<double>(stats.diskHits), "count"});
}

/** ShardPool spawn + evaluatePoints on the sample; bytes must match. */
void
shardProbe(const Options& o, const WorkloadState& ws,
           const std::vector<LibraReport>& local,
           double sampleSweepUs, RunResult* out)
{
    ShardOptions so;
    so.workers = 2;
    so.workerThreads = 1;
    so.workerExe = o.cliPath;
    std::vector<WirePoint> wire;
    for (std::size_t i = 0; i < ws.samplePoints.size(); ++i) {
        wire.push_back({i, studyConfigToString(ws.samplePoints[i]),
                        pointWireKey(ws.samplePoints[i])});
    }
    std::vector<LibraReport> remote(wire.size());
    std::optional<ShardPool> pool;
    double spawnMs = 0.0;
    double evalUs = 0.0;
    {
        Span s("study.shard.spawn");
        pool.emplace(so, 0, slotMapFingerprint(buildSlotMap({})));
        spawnMs = s.elapsedUs() / 1000.0;
    }
    {
        Span s("study.shard.eval");
        pool->evaluatePoints(wire, [&](std::size_t index, PointStatus status,
                                       LibraReport report) {
            if (!status.ok) {
                out->correct = false;
                out->notes["shard_probe_error"] = status.error;
            }
            remote[index] = std::move(report);
        });
        evalUs = s.elapsedUs();
    }
    pool->shutdown();
    for (std::size_t i = 0; i < wire.size(); ++i) {
        if (reportBytes(remote[i]) != reportBytes(local[i])) {
            out->correct = false;
            out->notes["shard_probe_mismatch"] = i;
        }
    }
    double n = static_cast<double>(wire.size());
    double evalMs = perUnit(evalUs / 1000.0, n);
    out->metrics.push_back({"study.shard.spawn_ms", spawnMs, "ms"});
    out->metrics.push_back({"study.shard.eval_ms_per_point", evalMs, "ms"});
    out->metrics.push_back(
        {"study.shard.overhead_ratio",
         perUnit(evalMs, perUnit(sampleSweepUs / 1000.0, n)), "ratio"});
}

} // namespace

RunResult
traceWorkload(const Options& o, WorkloadState& ws)
{
    RunResult out;
    setTracing(true);
    ThreadPool::setGlobalThreads(1);
    Tally t;

    // 1. Op replays for --seconds (at least one).
    Clock::time_point t0 = Clock::now();
    do {
        if (ws.freshCacheEachOp)
            freshDir(ws.cacheDir);
        ++out.attempted;
        if (replayOp(ws, ws.cacheDir, t) != ws.refMatrixBytes) {
            ++out.failed;
            out.notes["replay_mismatch"] = true;
        }
    } while (secondsSince(t0) < o.seconds);
    const std::size_t replayLoads = t.loads;
    const std::size_t replayHits = t.hits;

    // 2. Probes.
    double sampleSweepUs = 0.0;
    std::vector<LibraReport> sample =
        computeProbes(o, ws, t, &sampleSweepUs, &out);
    fig10Probe(ws, t);
    jsonProbe(ws, t);

    auto ms = [](double us, double n) { return perUnit(us / 1000.0, n); };
    double ops = static_cast<double>(t.ops);
    out.metrics = {
        {"solver.optimize.ms_per_point",
         ms(t.optimizeUs, static_cast<double>(t.solved)), "ms"},
        {"solver.baseline.us",
         perUnit(t.baselineUs, static_cast<double>(t.solved)), "us"},
        {"core.compile.us",
         perUnit(t.compileUs, static_cast<double>(t.compiles)), "us"},
        {"core.estimate.ns_per_eval",
         perUnit(t.estimateUs * 1000.0, static_cast<double>(t.evals)), "ns"},
        {"core.estimate_batch.ns_per_candidate",
         perUnit(t.batchUs * 1000.0, static_cast<double>(t.candidates)),
         "ns"},
        {"core.sweep.ms_per_point",
         ms(t.sweepUs, static_cast<double>(t.swept)), "ms"},
        {"study.build.ms", ms(t.buildUs, ops), "ms"},
        {"study.key.us_per_point",
         perUnit(t.keyUs, static_cast<double>(t.keyed)), "us"},
        {"study.cache_load.us_per_hit",
         perUnit(t.hitUs, static_cast<double>(t.hits)), "us"},
        {"study.cache_load.hit_ratio",
         perUnit(static_cast<double>(replayHits),
                 static_cast<double>(replayLoads)),
         "ratio"},
        {"study.cache_store.us_per_point",
         perUnit(t.storeUs, static_cast<double>(t.stores)), "us"},
        {"study.format.ms", ms(t.formatUs, ops), "ms"},
        {"study.format_fig10.ms",
         ms(t.fig10Us, static_cast<double>(t.fig10Calls)), "ms"},
        {"sim.training_sim.ms_per_call",
         ms(t.simUs, static_cast<double>(t.simCalls)), "ms"},
        {"study.emit.ms", ms(t.emitUs, ops), "ms"},
        {"common.json_dump.us_per_kb", perUnit(t.dumpUs, t.dumpKb),
         "us/KB"},
        {"common.json_parse.us_per_kb", perUnit(t.parseUs, t.parseKb),
         "us/KB"},
    };

    serveProbe(ws, t, &out);
    std::vector<double> transport;
    for (std::size_t i = 0; i < t.handleMs.size(); ++i)
        transport.push_back(t.roundTripMs[i] - t.handleMs[i]);
    out.metrics.push_back(
        {"serve.handle_line.ms", percentile(t.handleMs, 0.5), "ms"});
    out.metrics.push_back(
        {"serve.round_trip.ms", percentile(t.roundTripMs, 0.5), "ms"});
    out.metrics.push_back(
        {"serve.transport.ms", percentile(transport, 0.5), "ms"});

    shardProbe(o, ws, sample, sampleSweepUs, &out);

    // 3. The real op twice: deterministic counters must repeat.
    setTracing(false);
    MatrixResult first = ws.canonicalOp();
    MatrixResult second = ws.canonicalOp();
    auto counts = [](const MatrixResult& r) {
        return std::vector<double>{
            static_cast<double>(r.points), static_cast<double>(r.unique),
            static_cast<double>(r.computed),
            static_cast<double>(r.fromCache),
            static_cast<double>(r.coalesced), static_cast<double>(r.failed)};
    };
    std::vector<double> a = counts(first);
    if (a != counts(second)) {
        out.correct = false;
        out.notes["matrix_counts_differ"] = true;
    }
    const char* countNames[] = {"points",    "unique",    "computed",
                                "from_cache", "coalesced", "failed"};
    for (std::size_t i = 0; i < a.size(); ++i) {
        out.metrics.push_back(
            {std::string("study.matrix.") + countNames[i], a[i], "count"});
    }

    // Exactly the named per-layer metrics, each once.
    std::vector<std::string> names;
    for (const Metric& m : out.metrics)
        names.push_back(m.name);
    std::vector<std::string> want = perLayerMetricNames();
    std::sort(names.begin(), names.end());
    std::sort(want.begin(), want.end());
    if (names != want) {
        out.correct = false;
        out.notes["metric_set_mismatch"] = true;
    }

    writeChromeTrace(o.traceOut);
    printLayerTable(std::cerr);
    out.notes["replays"] = t.ops;
    out.notes["trace_file"] = o.traceOut;
    return out;
}

} // namespace perfbench
