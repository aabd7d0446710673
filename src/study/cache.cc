#include "study/cache.hh"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "common/fault.hh"
#include "common/logging.hh"
#include "common/parse_number.hh"
#include "core/timing_backend.hh"
#include "explore/explore.hh"
#include "solver/strategy.hh"

namespace libra {

// Field encoding comes from common/json.hh (appendCanonicalNumber /
// appendCanonicalString) so it cannot diverge from the workload and
// cost-model canonical serializations.

std::string
canonicalStudyKey(const LibraInputs& inputs)
{
    std::string out;
    out.reserve(512);
    out += "libra-study-v";
    out += std::to_string(kStudyCacheVersion);
    out += ' ';
    // Parse-and-rename canonicalizes cosmetic shape differences.
    appendCanonicalString(out, Network::parse(inputs.networkShape).name());

    const OptimizerConfig& cfg = inputs.config;
    out += "obj";
    out += std::to_string(static_cast<int>(cfg.objective));
    out += ' ';
    appendCanonicalNumber(out, cfg.totalBw);
    appendCanonicalNumber(out, cfg.minDimBw);
    appendCanonicalNumber(out, cfg.budgetCap);
    out += cfg.relaxTotalBw ? "relax " : "pin ";
    out += std::to_string(cfg.constraints.size());
    out += "constraints ";
    for (const auto& c : cfg.constraints)
        appendCanonicalString(out, c);

    out += "loop";
    out += std::to_string(static_cast<int>(cfg.estimator.loop));
    out += cfg.estimator.inNetworkCollectives ? " innet " : " swdis ";
    out += cfg.estimator.modelPartialDimEfficiency ? "eff " : "blind ";

    out += "search(";
    out += std::to_string(cfg.search.starts);
    out += ',';
    out += std::to_string(cfg.search.seed);
    // The retired subgradient / Nelder-Mead toggles, always on: kept
    // as literals so every existing cache key stays valid.
    out += ",1,1) ";
    // The solver pipeline and eval budget are appended only when
    // non-default so every pre-existing cache key (and the golden
    // figures pinned against version 1) stays byte-identical.
    if (!cfg.search.pipeline.empty()) {
        out += "solver(";
        out += solverSpecToString(cfg.search.pipeline);
        out += ") ";
    }
    if (cfg.search.maxEvalsPerStart != 0) {
        out += "evals(";
        out += std::to_string(cfg.search.maxEvalsPerStart);
        out += ") ";
    }
    // Likewise the timing backend: folded only when non-default, so
    // every analytical cache key stays byte-identical and no
    // kStudyCacheVersion bump is needed. The backend's cacheKeyTag
    // (name + semantic parameters, e.g. "chunk-sim/64") is the
    // content, so parameter changes invalidate stale entries.
    if (timingBackendOrDefault(cfg.estimator.timingBackend) !=
        kAnalyticalTimingBackendName) {
        out += "timing(";
        out += resolveTimingBackend(cfg.estimator.timingBackend)
                   ->cacheKeyTag();
        out += ") ";
    }
    // And the exploration strategy, same only-when-non-default rule:
    // the canonical spec (name + non-default parameters) is the tag,
    // so prune-screened candidates can never be served to (or poison)
    // an exhaustive run, while default keys stay byte-identical.
    {
        std::string tag = canonicalExploreSpec(inputs.explore);
        if (!tag.empty()) {
            out += "explore(";
            out += tag;
            out += ") ";
        }
    }
    // inputs.threads is deliberately excluded: results are
    // bit-identical at any thread count (see docs/PERF.md).

    // Workload and cost-model content text comes from the single
    // canonical serialization next to each struct — new fields only
    // need adding there.
    appendCanonicalText(out, inputs.costModel);

    out += inputs.normalizeTargetWeights ? "norm " : "raw ";
    out += std::to_string(inputs.targets.size());
    out += "targets ";
    for (const auto& t : inputs.targets) {
        appendCanonicalNumber(out, t.weight);
        appendCanonicalText(out, t.workload);
    }
    return out;
}

std::uint64_t
studyCacheHashOfKey(std::string_view canonical)
{
    std::uint64_t h = 0xcbf29ce484222325ull; // FNV-1a offset basis.
    for (unsigned char c : canonical) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
studyCacheHash(const LibraInputs& inputs)
{
    return studyCacheHashOfKey(canonicalStudyKey(inputs));
}

namespace {

Json
resultToJson(const OptimizationResult& r)
{
    Json j = Json::object();
    Json bw = Json::array();
    for (double b : r.bw)
        bw.push(b);
    j["bw"] = std::move(bw);
    j["weightedTime"] = r.weightedTime;
    j["cost"] = r.cost;
    j["objectiveValue"] = r.objectiveValue;
    Json per = Json::array();
    for (double t : r.perWorkloadTime)
        per.push(t);
    j["perWorkloadTime"] = std::move(per);
    return j;
}

OptimizationResult
resultFromJson(const Json& j)
{
    OptimizationResult r;
    for (const Json& b : j.at("bw").items())
        r.bw.push_back(b.asNumber());
    r.weightedTime = j.at("weightedTime").asNumber();
    r.cost = j.at("cost").asNumber();
    r.objectiveValue = j.at("objectiveValue").asNumber();
    for (const Json& t : j.at("perWorkloadTime").items())
        r.perWorkloadTime.push_back(t.asNumber());
    return r;
}

} // namespace

Json
reportToJson(const LibraReport& report)
{
    Json j = Json::object();
    j["optimized"] = resultToJson(report.optimized);
    j["equalBw"] = resultToJson(report.equalBw);
    j["speedup"] = report.speedup;
    j["perfPerCostGain"] = report.perfPerCostGain;
    return j;
}

LibraReport
reportFromJson(const Json& json)
{
    LibraReport report;
    report.optimized = resultFromJson(json.at("optimized"));
    report.equalBw = resultFromJson(json.at("equalBw"));
    report.speedup = json.at("speedup").asNumber();
    report.perfPerCostGain = json.at("perfPerCostGain").asNumber();
    return report;
}

std::string
reportShapeError(const LibraReport& report, const LibraInputs& inputs)
{
    const std::size_t dims = Network::parse(inputs.networkShape).numDims();
    const std::pair<const char*, const OptimizationResult*> designs[] = {
        {"optimized", &report.optimized}, {"equalBw", &report.equalBw}};
    for (const auto& [name, r] : designs) {
        if (r->bw.size() != dims)
            return detail::concat(name, " bw has ", r->bw.size(),
                                  " entries for ", dims, " dimensions");
        for (double b : r->bw) {
            if (!(std::isfinite(b) && b > 0.0))
                return detail::concat(name, " bw entry ", b,
                                      " is not a positive bandwidth");
        }
        if (r->perWorkloadTime.size() != inputs.targets.size())
            return detail::concat(name, " perWorkloadTime has ",
                                  r->perWorkloadTime.size(),
                                  " entries for ", inputs.targets.size(),
                                  " targets");
        for (double t : r->perWorkloadTime) {
            if (!std::isfinite(t))
                return detail::concat(name, " perWorkloadTime ", t,
                                      " is not finite");
        }
        if (!(std::isfinite(r->weightedTime) && std::isfinite(r->cost) &&
              std::isfinite(r->objectiveValue)))
            return detail::concat(name, " has a non-finite time, cost "
                                        "or objective");
    }
    if (!(std::isfinite(report.speedup) &&
          std::isfinite(report.perfPerCostGain)))
        return "non-finite speedup or perf-per-cost gain";
    return {};
}

namespace {

/** Hex form of the FNV-1a checksum stored in the entry envelope. */
std::string
checksumHex(std::string_view text)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      studyCacheHashOfKey(text)));
    return buf;
}

/**
 * Fixed framing of a cache entry: kEnvelopeHead, 16 hex checksum
 * digits, kEnvelopeMid, the checksummed body text, kEnvelopeTail.
 */
constexpr std::string_view kEnvelopeHead = "{\"fnv\":\"";
constexpr std::string_view kEnvelopeMid = "\",\"body\":";
constexpr std::string_view kEnvelopeTail = "}\n";
constexpr std::size_t kChecksumDigits = 16;
constexpr std::size_t kBodyOffset =
    kEnvelopeHead.size() + kChecksumDigits + kEnvelopeMid.size();

/**
 * Bounded retry with backoff for a best-effort filesystem operation.
 * Each attempt first consults the fault injector (salted per attempt,
 * so an injected transient fault can be absorbed by the retries), then
 * runs @p op. Sleeps 1 ms / 4 ms between the three attempts — long
 * enough to ride out transient EAGAIN-class conditions, short enough
 * to be invisible next to an optimize() call.
 */
template <typename Op>
bool
retryIo(FaultSite site, std::uint64_t key, const Op& op)
{
    constexpr int kAttempts = 3;
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
        if (attempt > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1 << (2 * (attempt - 1))));
        }
        if (injectFault(site, faultRetryKey(key, attempt)))
            continue; // Simulated transient failure of this attempt.
        if (op())
            return true;
    }
    return false;
}

/**
 * True when the `.tmp.<pid>[.<seq>]` suffix of @p name belongs to a
 * process that no longer exists (or never parsed at all) — a tmp file
 * leaked by a crashed run, safe to reap. The optional `.<seq>` part is
 * the per-writer counter concurrent stores append so two threads of
 * one process can never share a tmp file; ownership is still decided
 * by the pid alone.
 */
bool
tmpFileIsStale(const std::string& name)
{
    const std::string marker = ".tmp.";
    std::size_t at = name.rfind(marker);
    if (at == std::string::npos)
        return false; // Not a tmp file.
    std::string_view suffix = std::string_view(name).substr(
        at + marker.size());
    std::size_t dot = std::min(suffix.find('.'), suffix.size());
    std::optional<int> pid = tryParseNumber(
        suffix.substr(0, dot), 1, std::numeric_limits<int>::max());
    bool seqOk = dot == suffix.size() ||
                 tryParseNumber(suffix.substr(dot + 1), std::uint64_t{0},
                                std::numeric_limits<std::uint64_t>::max());
    if (!pid || !seqOk)
        return true; // Garbage pid or sequence: nothing owns it.
    // Signal 0 probes existence. EPERM means the pid exists but is not
    // ours — leave its tmp file alone.
    return ::kill(*pid, 0) != 0 && errno == ESRCH;
}

} // namespace

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir))
{
    if (dir_.empty())
        fatal("result cache needs a directory");
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec || injectFault(FaultSite::CacheOpen,
                          studyCacheHashOfKey(dir_))) {
        warn("cannot create cache directory '", dir_, "'",
             ec ? ": " + ec.message() : std::string(),
             "; continuing without the cache");
        enabled_ = false;
        return;
    }
    reapStaleTmp();
}

void
ResultCache::reapStaleTmp()
{
    // Crashed runs leak `.tmp.<pid>` files forever (the rename that
    // would consume them never happened). Reap any whose owning
    // process is gone; a live process's in-flight tmp file is kept.
    std::error_code ec;
    std::filesystem::directory_iterator it(dir_, ec);
    if (ec)
        return;
    for (const auto& entry : it) {
        std::error_code fileEc;
        if (!entry.is_regular_file(fileEc) || fileEc)
            continue;
        std::string name = entry.path().filename().string();
        if (!tmpFileIsStale(name))
            continue;
        std::filesystem::remove(entry.path(), fileEc);
        if (!fileEc) {
            reapedTmp_.fetch_add(1, std::memory_order_relaxed);
            inform("reaped stale cache tmp file ", name);
        }
    }
}

ResultCache::Stats
ResultCache::stats() const
{
    Stats s;
    s.reapedTmp = reapedTmp_.load(std::memory_order_relaxed);
    s.quarantined = quarantined_.load(std::memory_order_relaxed);
    s.loadFailures = loadFailures_.load(std::memory_order_relaxed);
    s.storeFailures = storeFailures_.load(std::memory_order_relaxed);
    s.collisions = collisions_.load(std::memory_order_relaxed);
    return s;
}

std::string
ResultCache::path(std::uint64_t key) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.json",
                  static_cast<unsigned long long>(key));
    return dir_ + "/" + name;
}

void
ResultCache::quarantine(const std::string& file,
                        const std::string& why)
{
    // Move the damaged entry aside instead of deleting it: the
    // `.corrupt` file is diagnostic evidence, and the rename frees the
    // key so the recomputed result can be stored cleanly.
    quarantined_.fetch_add(1, std::memory_order_relaxed);
    warn("quarantining cache entry ", file, " (", why,
         "); recomputing the point");
    std::error_code ec;
    std::filesystem::rename(file, file + ".corrupt", ec);
    if (ec) {
        std::filesystem::remove(file, ec);
        if (ec)
            warn("cannot quarantine or remove ", file, ": ",
                 ec.message());
    }
}

bool
ResultCache::load(std::uint64_t key, const std::string& canonical,
                  LibraReport* out)
{
    if (!enabled_)
        return false;
    // Serialize same-key I/O against concurrent stores of this
    // process: a reader can then never observe the quarantine-and-
    // recompute window of a writer it races with.
    std::lock_guard<std::mutex> lock(shard(key));
    const std::string file = path(key);
    if (injectFault(FaultSite::CacheLoadRead, key)) {
        loadFailures_.fetch_add(1, std::memory_order_relaxed);
        warn("cannot read cache entry ", file,
             " (injected fault); recomputing the point");
        return false;
    }
    std::ifstream in(file);
    if (!in) {
        std::error_code ec;
        if (!std::filesystem::exists(file, ec))
            return false; // Clean miss: never cached.
        loadFailures_.fetch_add(1, std::memory_order_relaxed);
        warn("cannot read cache entry ", file,
             "; recomputing the point");
        return false;
    }
    std::ostringstream read;
    read << in.rdbuf();
    if (in.bad()) {
        loadFailures_.fetch_add(1, std::memory_order_relaxed);
        warn("read error on cache entry ", file,
             "; recomputing the point");
        return false;
    }
    const std::string text = std::move(read).str();
    // Check the fixed framing first; only then is the body range known.
    // Entries in any other layout (truncated, hand-edited, written by
    // an older engine) fail here and are recomputed.
    if (text.size() < kBodyOffset + kEnvelopeTail.size() ||
        text.compare(0, kEnvelopeHead.size(), kEnvelopeHead) != 0 ||
        text.compare(kEnvelopeHead.size() + kChecksumDigits,
                     kEnvelopeMid.size(), kEnvelopeMid) != 0 ||
        text.compare(text.size() - kEnvelopeTail.size(),
                     kEnvelopeTail.size(), kEnvelopeTail) != 0) {
        quarantine(file, "malformed envelope");
        return false;
    }
    const std::string_view bodyText(
        text.data() + kBodyOffset,
        text.size() - kBodyOffset - kEnvelopeTail.size());
    if (text.compare(kEnvelopeHead.size(), kChecksumDigits,
                     checksumHex(bodyText)) != 0) {
        quarantine(file, "checksum mismatch");
        return false;
    }
    try {
        Json body = Json::parse(bodyText);
        if (body.at("version").asNumber() !=
            static_cast<double>(kStudyCacheVersion)) {
            quarantine(file, "engine version skew");
            return false;
        }
        if (body.at("inputs").asString() != canonical) {
            // 64-bit hash collision between distinct inputs: treat as
            // a miss (the colliding entry stays; last writer wins).
            collisions_.fetch_add(1, std::memory_order_relaxed);
            warn("cache key collision on ", file,
                 "; recomputing the point");
            return false;
        }
        *out = reportFromJson(body.at("report"));
        return true;
    } catch (const FatalError& e) {
        // Checksummed but structurally wrong (the checksum signs bytes,
        // not schema): quarantine and recompute.
        quarantine(file, e.what());
        return false;
    }
}

void
ResultCache::reject(std::uint64_t key, const std::string& canonical,
                    const std::string& why)
{
    (void)canonical;
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(shard(key));
    quarantine(path(key), "report does not fit its point: " + why);
}

bool
ResultCache::store(std::uint64_t key, const std::string& canonical,
                   const LibraReport& report)
{
    if (!enabled_)
        return false;

    Json body = Json::object();
    body["version"] = static_cast<double>(kStudyCacheVersion);
    body["inputs"] = canonical;
    body["report"] = reportToJson(report);
    const std::string bodyText = body.dump();

    std::string payload;
    payload.reserve(kBodyOffset + bodyText.size() + kEnvelopeTail.size());
    payload += kEnvelopeHead;
    payload += checksumHex(bodyText);
    payload += kEnvelopeMid;
    payload += bodyText;
    payload += kEnvelopeTail;

    // Write-then-rename so concurrent runs never observe a torn file;
    // the tmp name is per-writer — pid for cross-process uniqueness
    // plus a process-wide store sequence for cross-thread uniqueness —
    // so two stores of the same key can never interleave writes into
    // one tmp file (tmpFileIsStale understands the extended suffix).
    // The cache may only ever amortize work, never break a run: a
    // read-only or full cache directory degrades to a warning and the
    // batch simply recomputes the point next time.
    static std::atomic<std::uint64_t> storeSeq{0};
    const std::string finalPath = path(key);
    const std::string tmpPath =
        finalPath + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(storeSeq.fetch_add(1, std::memory_order_relaxed));

    std::lock_guard<std::mutex> lock(shard(key));
    bool ok = retryIo(FaultSite::CacheStoreWrite, key, [&] {
        std::ofstream file(tmpPath);
        if (!file)
            return false;
        file << payload;
        file.flush();
        return static_cast<bool>(file);
    });
    if (ok) {
        ok = retryIo(FaultSite::CacheStoreRename, key, [&] {
            std::error_code ec;
            std::filesystem::rename(tmpPath, finalPath, ec);
            return !ec;
        });
    }
    if (!ok) {
        storeFailures_.fetch_add(1, std::memory_order_relaxed);
        warn("cannot store cache entry '", finalPath,
             "'; continuing without the cache");
        std::error_code ec;
        std::filesystem::remove(tmpPath, ec);
        return false;
    }
    return true;
}

} // namespace libra
