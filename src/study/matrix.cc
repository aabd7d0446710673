#include "study/matrix.hh"

#include <cstdio>
#include <iterator>
#include <optional>
#include <ostream>
#include <unordered_set>

#include "common/fault.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "core/study_config.hh"
#include "core/timing_backend.hh"
#include "explore/explore.hh"
#include "solver/strategy.hh"
#include "study/cache.hh"
#include "study/shard.hh"

namespace libra {

namespace {

/** Per-point outcome of one deduped, cache-aware sweep. */
struct SweepBatch
{
    std::vector<LibraReport> reports; ///< Aligned with the input points.
    std::vector<bool> fromCache;      ///< Per point: served from cache.
    std::vector<PointStatus> status;  ///< Per point: ok or failed.
    std::size_t unique = 0;           ///< Distinct points after dedup.
    std::size_t computed = 0;         ///< Points this sweep optimized.
    std::size_t failed = 0;           ///< Points whose evaluation failed.
};

/**
 * The warm worker pool for one run-matrix invocation. Workers are
 * forked and version-checked at most once — on the first sweep with a
 * point to ship — then reused by the shared batch and every adaptive
 * explore round, paying fork/exec/handshake once per run instead of
 * once per round (docs/SHARDING.md).
 */
struct ShardRuntime
{
    ShardOptions options;
    std::optional<ShardPool> pool;

    ShardPool& ensurePool()
    {
        if (!pool)
            pool.emplace(options);
        return *pool;
    }

    void shutdown()
    {
        if (pool)
            pool->shutdown();
    }
};

/**
 * Deduplicate @p points by content, serve what the store already has,
 * and compute the rest as one batch. Shared by the static
 * scenario batch and every round of an adaptive exploration, so both
 * paths get identical dedup/caching semantics.
 *
 * Identity is the full canonical key text — the hash only names the
 * cache file — so a 64-bit collision cannot merge distinct points.
 *
 * Failure semantics: points run through runLibraIsolated, and
 * the `point-eval` fault-injection site fires here, keyed by each
 * slot's content hash — a pure function of the point, so fault
 * assignment is identical at any thread count and unaffected by dedup
 * order. Under Isolate the per-point statuses come back in the batch;
 * under Abort the lowest-index failing point's error unwinds,
 * deterministically. Failed slots are never stored to the cache.
 *
 * Sharded execution (@p shard) changes only *where* missed slots are
 * evaluated, never what: fault injection runs here before dispatch,
 * results merge by slot index as they arrive, and the final assembly
 * below is index-ordered — so emitted bytes are identical at any
 * worker count.
 *
 * The compute phase has one shape: a wire leg ships every missed point
 * with a study-file form to the shard pool as an eval frame (only when
 * @p shard is set), and a local leg runs the rest on the thread pool.
 * Both legs merge each slot through the same finishSlot, which stores
 * it the moment it completes, so a killed run has already cached
 * every slot it finished, and a rerun with the same cache resumes from
 * there (docs/ROBUSTNESS.md). parallelFor runs every slot before it
 * rethrows, so an internal error unwinds only after every other
 * finished slot was stored.
 */
SweepBatch
cachedSweep(const std::vector<LibraInputs>& points, StudyStore* store,
            FailMode failMode, ShardRuntime* shard = nullptr)
{
    SlotMap map = buildSlotMap(points);
    const std::vector<std::size_t>& slotOf = map.slotOf;
    const std::vector<std::string>& slotKey = map.slotKey;
    const std::vector<std::uint64_t>& slotHash = map.slotHash;
    const std::vector<std::size_t>& slotRep = map.slotRep;

    const std::size_t slots = slotRep.size();
    std::vector<LibraReport> slotReport(slots);
    std::vector<PointStatus> slotStatus(slots);
    std::vector<bool> slotCached(slots, false);
    std::vector<std::size_t> missing;
    for (std::size_t s = 0; s < slots; ++s) {
        if (store && store->load(slotHash[s], slotKey[s], &slotReport[s])) {
            // A checksum signs bytes, not shape: a report that does not
            // fit its point is rejected and recomputed, like a corrupt
            // entry, before any formatter reads it.
            std::string why =
                reportShapeError(slotReport[s], points[slotRep[s]]);
            if (why.empty()) {
                slotCached[s] = true;
                continue;
            }
            store->reject(slotHash[s], slotKey[s], why);
            slotReport[s] = LibraReport{};
        }
        missing.push_back(s);
    }

    // Compute phase. Injected point-eval faults replace the
    // evaluation (keyed by content, so the same points fail fresh or
    // cached, at any thread count).
    std::vector<std::size_t> batchSlot;
    batchSlot.reserve(missing.size());
    for (std::size_t s : missing) {
        if (injectFault(FaultSite::PointEval, slotHash[s])) {
            slotStatus[s].ok = false;
            slotStatus[s].error = "injected point-eval fault";
            continue;
        }
        batchSlot.push_back(s);
    }
    auto finishSlot = [&](std::size_t k, PointStatus status,
                          LibraReport report) {
        const std::size_t s = batchSlot[k];
        slotStatus[s] = std::move(status);
        if (slotStatus[s].ok) {
            slotReport[s] = std::move(report);
            if (store)
                store->store(slotHash[s], slotKey[s], slotReport[s]);
        }
    };

    // Wire leg. Serializing is the wirability test, so each point is
    // serialized once; a point with no study-file form (a non-zoo
    // workload) throws and stays local.
    std::vector<WirePoint> wire;
    std::vector<std::size_t> local;
    for (std::size_t k = 0; k < batchSlot.size(); ++k) {
        if (shard) {
            const LibraInputs& p = points[slotRep[batchSlot[k]]];
            try {
                std::string text = studyConfigToString(p);
                wire.push_back({k, std::move(text), pointWireKey(p)});
                continue;
            } catch (const FatalError&) {
                // No wire form: falls through to the local leg.
            }
        }
        local.push_back(k);
    }
    if (!wire.empty())
        shard->ensurePool().evaluatePoints(wire, finishSlot);

    // Local leg: each pool thread finishes its own slots; the store is
    // safe from concurrent callers (StudyStore contract).
    parallelFor(local.size(), [&](std::size_t j) {
        const std::size_t k = local[j];
        LibraReport report;
        PointStatus status =
            runLibraIsolated(points[slotRep[batchSlot[k]]], &report);
        finishSlot(k, std::move(status), std::move(report));
    });

    if (failMode == FailMode::Abort) {
        // Re-raise the classic unwind: the lowest-index failing
        // *point* (not slot) wins, deterministically.
        for (std::size_t i = 0; i < points.size(); ++i) {
            if (!slotStatus[slotOf[i]].ok)
                fatal(slotStatus[slotOf[i]].error);
        }
    }

    SweepBatch out;
    out.unique = slots;
    out.computed = missing.size();
    out.reports.reserve(points.size());
    out.fromCache.reserve(points.size());
    out.status.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        out.reports.push_back(slotReport[slotOf[i]]);
        out.fromCache.push_back(slotCached[slotOf[i]]);
        out.status.push_back(slotStatus[slotOf[i]]);
        out.failed += slotStatus[slotOf[i]].ok ? 0 : 1;
    }
    return out;
}

/** One scenario's span of the shared batch (or its adaptive spec). */
struct Slice
{
    std::size_t begin = 0;
    std::size_t count = 0;
    std::vector<Candidate> candidates; ///< Space scenarios only.
    std::string exploreSpec; ///< Non-default strategy; "" = batch.
};

/** Resolved scenarios + the phase-1 shared batch and its slices. */
struct MatrixPlan
{
    std::vector<const Scenario*> scenarios;
    std::vector<LibraInputs> points;
    std::vector<Slice> slices;
};

/**
 * Phase 1: resolve @p names, validate overrides, and build every
 * scenario's design points into one batch.
 *
 * Design-space scenarios expand through the explore layer: under the
 * exhaustive default their candidates join the shared batch
 * (bit-identical to a hand-built point list in the same order); a
 * non-default strategy runs adaptively in phase 3, through the same
 * cache-aware sweep.
 */
MatrixPlan
buildMatrixPlan(const std::vector<std::string>& names,
                const MatrixOptions& options)
{
    MatrixPlan plan;
    plan.scenarios.reserve(names.size());
    for (const auto& name : names)
        plan.scenarios.push_back(&ScenarioRegistry::global().resolve(name));

    // Validate overrides once, up front.
    if (!options.solverPipeline.empty())
        resolveStrategyPipeline(options.solverPipeline);
    if (!options.timingBackend.empty())
        resolveTimingBackend(options.timingBackend);
    const std::string exploreOverride =
        canonicalExploreSpec(options.exploreSpec);

    // A solver or timing-backend override rewrites every point before
    // dedup/caching, so the cache keys (and therefore the stored
    // reports) are those of the overridden configuration.
    auto applyOverrides = [&](LibraInputs& p) {
        if (!options.solverPipeline.empty())
            p.config.search.pipeline = options.solverPipeline;
        if (!options.timingBackend.empty())
            p.config.estimator.timingBackend = options.timingBackend;
    };

    plan.slices.reserve(plan.scenarios.size());
    for (const Scenario* s : plan.scenarios) {
        Slice slice;
        slice.begin = plan.points.size();
        if (s->space) {
            slice.candidates = expandDesignSpace(s->space());
            std::string spec = canonicalExploreSpec(
                !options.exploreSpec.empty() ? exploreOverride
                                             : s->explore);
            for (auto& c : slice.candidates) {
                applyOverrides(c.inputs);
                // Stamp a non-default strategy onto every candidate:
                // screened results must never share cache slots with
                // exhaustive ones (see canonicalStudyKey).
                c.inputs.explore = spec;
            }
            if (spec.empty()) {
                // Lent to the shared batch; runScenarioMatrix moves
                // them back before formatting.
                slice.count = slice.candidates.size();
                for (auto& c : slice.candidates)
                    plan.points.push_back(std::move(c.inputs));
            } else {
                slice.exploreSpec = std::move(spec);
            }
        } else if (s->build) {
            std::vector<LibraInputs> built = s->build();
            slice.count = built.size();
            for (auto& p : built) {
                applyOverrides(p);
                plan.points.push_back(std::move(p));
            }
        }
        plan.slices.push_back(std::move(slice));
    }
    return plan;
}

} // namespace

MatrixResult
runScenarioMatrix(const std::vector<std::string>& names,
                  const MatrixOptions& options)
{
    MatrixPlan plan = buildMatrixPlan(names, options);
    std::vector<const Scenario*>& scenarios = plan.scenarios;
    std::vector<LibraInputs>& points = plan.points;
    std::vector<Slice>& slices = plan.slices;

    // An externally owned store (serve mode's shared LRU over the
    // disk cache) wins over a per-run disk cache.
    std::optional<ResultCache> localCache;
    StudyStore* store = options.store;
    if (!store && !options.cacheDir.empty()) {
        localCache.emplace(options.cacheDir);
        store = &*localCache;
    }

    ShardRuntime shardRuntime;
    const bool sharded = options.workers > 1;
    if (sharded) {
        if (options.workerExe.empty())
            fatal("sharded execution (--workers > 1) needs the worker "
                  "executable path");
        shardRuntime.options.workers = options.workers;
        shardRuntime.options.workerExe = options.workerExe;
        shardRuntime.options.workerThreads = options.workerThreads;
    }
    ShardRuntime* shard = sharded ? &shardRuntime : nullptr;

    // Phase 2: the shared batch — dedup, cache, one sharded sweep.
    SweepBatch main = cachedSweep(points, store, options.failMode, shard);

    MatrixResult result;
    result.points = points.size();
    result.unique = main.unique;
    result.computed = main.computed;
    result.failed = main.failed;
    // Cache hits are counted in point terms (what the user asked for).
    for (bool hit : main.fromCache)
        result.fromCache += hit ? 1 : 0;

    // Phase 3: hand every scenario its aligned reports and format.
    for (std::size_t si = 0; si < scenarios.size(); ++si) {
        Slice& slice = slices[si];
        ScenarioRun run;
        run.name = scenarios[si]->name;
        run.title = scenarios[si]->title;

        if (!slice.exploreSpec.empty()) {
            // Adaptive exploration: every optimization batch the
            // strategy requests goes through the same cache-aware
            // sweep; counters aggregate per evaluated point. An
            // adaptive strategy's later rounds depend on earlier
            // results, so isolation is per *scenario* here: any
            // failing point aborts this exploration (deterministic
            // lowest-index error), and under Isolate that error is
            // recorded instead of unwinding the matrix.
            // Adaptive rounds reuse the warm worker pool, and each
            // round's slots reach the cache as they complete.
            ExploreSweepFn sweep =
                [&](const std::vector<LibraInputs>& batch) {
                    SweepBatch b =
                        cachedSweep(batch, store, FailMode::Abort, shard);
                    run.points += batch.size();
                    result.points += batch.size();
                    result.unique += b.unique;
                    result.computed += b.computed;
                    for (bool hit : b.fromCache) {
                        run.fromCache += hit ? 1 : 0;
                        result.fromCache += hit ? 1 : 0;
                    }
                    return std::move(b.reports);
                };
            try {
                run.output = scenarios[si]->formatSpace(
                    exploreCandidates(slice.candidates,
                                      slice.exploreSpec, sweep));
            } catch (const FatalError& e) {
                if (options.failMode != FailMode::Isolate)
                    throw;
                run.output = ScenarioOutput{};
                run.failures.push_back(PointFailure{
                    0, "explore:" + slice.exploreSpec, fatalMessage(e)});
                result.failed += 1;
            }
        } else {
            // The scenario's candidates/points ran inside the shared
            // batch; reassemble their aligned reports.
            std::vector<LibraReport> sliceReports(
                main.reports.begin() +
                    static_cast<std::ptrdiff_t>(slice.begin),
                main.reports.begin() +
                    static_cast<std::ptrdiff_t>(slice.begin +
                                                slice.count));
            run.points = slice.count;
            for (std::size_t i = 0; i < slice.count; ++i)
                run.fromCache +=
                    main.fromCache[slice.begin + i] ? 1 : 0;
            // Isolation granularity is the scenario's output: any
            // failed point suppresses the formatter (a partial table
            // would silently misalign figure columns) and surfaces as
            // PointFailures; other scenarios are untouched.
            for (std::size_t i = 0; i < slice.count; ++i) {
                const PointStatus& st = main.status[slice.begin + i];
                if (st.ok)
                    continue;
                run.failures.push_back(PointFailure{
                    i, points[slice.begin + i].networkShape,
                    st.error});
            }
            if (!run.failures.empty()) {
                run.output = ScenarioOutput{};
            } else if (scenarios[si]->space) {
                // Exhaustive design space: hand the candidates back
                // the inputs buildMatrixPlan lent to the batch.
                for (std::size_t i = 0; i < slice.count; ++i)
                    slice.candidates[i].inputs =
                        std::move(points[slice.begin + i]);
                run.output = scenarios[si]->formatSpace(
                    exhaustiveResultFromReports(
                        std::move(slice.candidates), sliceReports));
            } else {
                // Classic scenario. Slices partition `points` and
                // nothing reads a point after its scenario is
                // formatted, so move the workload IR out instead of
                // deep-copying it (the exhaustive branch above relies
                // on the same argument).
                auto begin = points.begin() +
                             static_cast<std::ptrdiff_t>(slice.begin);
                std::vector<LibraInputs> slicePoints(
                    std::make_move_iterator(begin),
                    std::make_move_iterator(
                        begin +
                        static_cast<std::ptrdiff_t>(slice.count)));
                run.output =
                    scenarios[si]->format(slicePoints, sliceReports);
            }
        }
        result.scenarios.push_back(std::move(run));
    }
    shardRuntime.shutdown();
    return result;
}

namespace {

Json
pairsToJson(const std::vector<std::pair<std::string, double>>& pairs)
{
    Json j = Json::object();
    for (const auto& [k, v] : pairs)
        j[k] = v;
    return j;
}

} // namespace

Json
scenarioRunToJson(const ScenarioRun& run)
{
    Json j = Json::object();
    j["name"] = run.name;
    j["title"] = run.title;
    Json rows = Json::array();
    for (const ScenarioRow& row : run.output.rows) {
        Json r = Json::object();
        Json labels = Json::object();
        for (const auto& [k, v] : row.labels)
            labels[k] = v;
        r["labels"] = std::move(labels);
        r["metrics"] = pairsToJson(row.metrics);
        rows.push(std::move(r));
    }
    j["rows"] = std::move(rows);
    j["summary"] = pairsToJson(run.output.summary);
    Json notes = Json::array();
    for (const auto& note : run.output.notes)
        notes.push(note);
    j["notes"] = std::move(notes);
    // Only present when a point failed (FailMode::Isolate), so all-ok
    // runs — including every golden — emit byte-identical text to the
    // pre-isolation schema.
    if (!run.failures.empty()) {
        Json failures = Json::array();
        for (const PointFailure& f : run.failures) {
            Json e = Json::object();
            e["index"] = static_cast<double>(f.index);
            e["label"] = f.label;
            e["error"] = f.error;
            failures.push(std::move(e));
        }
        j["failures"] = std::move(failures);
    }
    return j;
}

Json
matrixToJson(const MatrixResult& result)
{
    Json j = Json::object();
    j["schema"] = "libra-study-matrix-v1";
    j["engineVersion"] = static_cast<double>(kStudyCacheVersion);
    Json scenarios = Json::array();
    for (const ScenarioRun& run : result.scenarios)
        scenarios.push(scenarioRunToJson(run));
    j["scenarios"] = std::move(scenarios);
    return j;
}

void
emitMatrixJson(const MatrixResult& result, std::ostream& os)
{
    os << matrixToJson(result).dump(1) << "\n";
}

namespace {

std::string
csvEscape(const std::string& s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

/**
 * Union of row keys in first-seen order. The auxiliary set keeps the
 * membership test O(1) — a linear rescan of `keys` per key is
 * O(rows·keys²) and measurably slow on frontier-sized scenarios.
 */
template <typename Value>
std::vector<std::string>
keyUnion(const std::vector<ScenarioRow>& rows,
         std::vector<std::pair<std::string, Value>> ScenarioRow::*field)
{
    std::vector<std::string> keys;
    std::unordered_set<std::string> seen;
    for (const ScenarioRow& row : rows) {
        for (const auto& [k, v] : row.*field) {
            if (seen.insert(k).second)
                keys.push_back(k);
        }
    }
    return keys;
}

template <typename Value>
const Value*
findKey(const std::vector<std::pair<std::string, Value>>& pairs,
        const std::string& key)
{
    for (const auto& [k, v] : pairs) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

/** Compact human form: fixed notation for a sane column width. */
std::string
formatMetric(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4g", v);
    return buf;
}

/** Paper-style human rendering of one scenario run. */
void
printScenarioRun(const ScenarioRun& run, std::ostream& os)
{
    os << "\n############################################\n"
       << "# " << run.name << ": " << run.title << "\n"
       << "############################################\n";

    if (!run.output.rows.empty()) {
        auto labelKeys = keyUnion(run.output.rows, &ScenarioRow::labels);
        auto metricKeys =
            keyUnion(run.output.rows, &ScenarioRow::metrics);
        Table t;
        std::vector<std::string> header = labelKeys;
        header.insert(header.end(), metricKeys.begin(),
                      metricKeys.end());
        t.header(header);
        for (const ScenarioRow& row : run.output.rows) {
            std::vector<std::string> cells;
            for (const auto& k : labelKeys) {
                const std::string* v = findKey(row.labels, k);
                cells.push_back(v ? *v : "-");
            }
            for (const auto& k : metricKeys) {
                const double* v = findKey(row.metrics, k);
                cells.push_back(v ? formatMetric(*v) : "-");
            }
            t.row(cells);
        }
        t.print(os);
    }
    for (const auto& [k, v] : run.output.summary)
        os << k << " = " << formatMetric(v) << "\n";
    for (const auto& note : run.output.notes)
        os << "\n" << note << "\n";
    for (const PointFailure& f : run.failures) {
        os << "FAILED point " << f.index << " [" << f.label
           << "]: " << f.error << "\n";
    }
}

} // namespace

void
printMatrixHuman(const MatrixResult& result, std::ostream& os)
{
    for (const ScenarioRun& run : result.scenarios)
        printScenarioRun(run, os);
    os << "\nmatrix: " << result.scenarios.size() << " scenarios, "
       << result.points << " design points (" << result.unique
       << " unique, " << result.fromCache << " from cache, "
       << result.computed << " computed)";
    if (result.failed > 0)
        os << " -- " << result.failed << " FAILED";
    os << "\n";
}

void
emitMatrixCsv(const MatrixResult& result, std::ostream& os)
{
    bool first = true;
    for (const ScenarioRun& run : result.scenarios) {
        if (!first)
            os << "\n";
        first = false;

        auto labelKeys = keyUnion(run.output.rows, &ScenarioRow::labels);
        auto metricKeys =
            keyUnion(run.output.rows, &ScenarioRow::metrics);

        os << "scenario,kind";
        for (const auto& k : labelKeys)
            os << ',' << csvEscape(k);
        for (const auto& k : metricKeys)
            os << ',' << csvEscape(k);
        os << "\n";

        for (const ScenarioRow& row : run.output.rows) {
            os << csvEscape(run.name) << ",row";
            for (const auto& k : labelKeys) {
                const std::string* v = findKey(row.labels, k);
                os << ',' << (v ? csvEscape(*v) : "");
            }
            for (const auto& k : metricKeys) {
                const double* v = findKey(row.metrics, k);
                os << ',' << (v ? jsonNumberToString(*v) : "");
            }
            os << "\n";
        }
        for (const auto& [k, v] : run.output.summary) {
            os << csvEscape(run.name) << ",summary," << csvEscape(k)
               << ',' << jsonNumberToString(v) << "\n";
        }
        // Failure rows carry their own columns (index/label/error), so
        // they get a dedicated header instead of riding under the row
        // header above — a strict CSV parser would see misaligned rows.
        // All-ok runs emit no failure section, byte-identical to the
        // pre-isolation output.
        if (!run.failures.empty()) {
            os << "\nscenario,kind,index,label,error\n";
            for (const PointFailure& f : run.failures) {
                os << csvEscape(run.name) << ",failure," << f.index
                   << ',' << csvEscape(f.label) << ','
                   << csvEscape(f.error) << "\n";
            }
        }
    }
}

} // namespace libra
