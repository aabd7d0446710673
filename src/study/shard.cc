#include "study/shard.hh"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <thread>
#include <unordered_map>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "core/study_config.hh"
#include "study/cache.hh"

namespace libra {

// ---------------------------------------------------------------------
// Slot map
// ---------------------------------------------------------------------

SlotMap
buildSlotMap(const std::vector<LibraInputs>& points)
{
    SlotMap map;
    map.slotOf.resize(points.size());
    std::unordered_map<std::string, std::size_t> slotByKey;
    for (std::size_t i = 0; i < points.size(); ++i) {
        std::string key = canonicalStudyKey(points[i]);
        auto [it, inserted] =
            slotByKey.try_emplace(std::move(key), map.slotRep.size());
        if (inserted) {
            map.slotKey.push_back(it->first);
            map.slotHash.push_back(studyCacheHashOfKey(it->first));
            map.slotRep.push_back(i);
        }
        map.slotOf[i] = it->second;
    }
    return map;
}

namespace {

std::string
hashHex16(std::uint64_t h)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace

std::string
slotMapFingerprint(const SlotMap& map)
{
    // Length-prefixed keys and representative point indices in slot
    // order: equal fingerprints mean equal key sequences.
    std::string text;
    text += std::to_string(map.slotOf.size());
    text += '/';
    for (std::size_t s = 0; s < map.slots(); ++s) {
        appendCanonicalString(text, map.slotKey[s]);
        text += std::to_string(map.slotRep[s]);
        text += ' ';
    }
    return hashHex16(studyCacheHashOfKey(text));
}

// ---------------------------------------------------------------------
// Point wire codec
// ---------------------------------------------------------------------

std::string
pointWireKey(const LibraInputs& inputs)
{
    return hashHex16(studyCacheHashOfKey(canonicalStudyKey(inputs)));
}

Json
evalPayloadJson(const std::vector<WirePoint>& points)
{
    Json body = Json::object();
    Json list = Json::array();
    for (const WirePoint& wp : points) {
        Json entry = Json::object();
        entry["index"] = wp.index;
        entry["point"] = wp.text;
        entry["key"] = wp.key;
        list.push(std::move(entry));
    }
    body["points"] = std::move(list);
    return body;
}

std::vector<WirePoint>
parseEvalPayload(const Json& body)
{
    if (!body.isObject() || !body.has("points"))
        fatal("eval frame: payload has no points array");
    const Json& list = body.at("points");
    if (!list.isArray())
        fatal("eval frame: points is not an array");
    std::vector<WirePoint> out;
    for (const Json& entry : list.items()) {
        if (!entry.isObject() || !entry.has("index") ||
            !entry.has("point") || !entry.has("key")) {
            fatal("eval frame: point entry needs index/point/key: ",
                  entry.dump());
        }
        const Json& idx = entry.at("index");
        if (!idx.isNumber())
            fatal("eval frame: point index is not a number");
        double v = idx.asNumber();
        if (!(v >= 0.0 && v <= 1e15) || v != std::floor(v))
            fatal("eval frame: bad point index ", idx.dump());
        WirePoint wp;
        wp.index = static_cast<std::size_t>(v);
        if (!entry.at("point").isString() ||
            !entry.at("key").isString())
            fatal("eval frame: point/key must be strings");
        wp.text = entry.at("point").asString();
        wp.key = entry.at("key").asString();
        if (wp.text.empty())
            fatal("eval frame: empty point text");
        if (wp.key.size() != 16 ||
            wp.key.find_first_not_of("0123456789abcdef") !=
                std::string::npos) {
            fatal("eval frame: bad point key '", wp.key,
                  "' (want 16 hex digits)");
        }
        out.push_back(std::move(wp));
    }
    return out;
}

// ---------------------------------------------------------------------
// Protocol helpers
// ---------------------------------------------------------------------

namespace {

Json
okStatus(const char* op)
{
    Json status = Json::object();
    status["ok"] = true;
    status["op"] = op;
    return status;
}

/** Frame status sanity shared by both sides of the protocol. */
std::string
frameOp(const Frame& frame, const char* who)
{
    if (!frame.status.isObject() || !frame.status.has("ok"))
        fatal(who, ": malformed frame status: ", frame.status.dump());
    if (!frame.status.at("ok").asBool()) {
        fatal(who, ": peer reported an error: ",
              frame.status.has("error")
                  ? frame.status.at("error").asString()
                  : std::string("(no message)"));
    }
    if (!frame.status.has("op"))
        fatal(who, ": frame status has no op: ", frame.status.dump());
    return frame.status.at("op").asString();
}

} // namespace

// ---------------------------------------------------------------------
// ShardPool (master side)
// ---------------------------------------------------------------------

ShardPool::ShardPool(const ShardOptions& options) : options_(options)
{
    if (options_.workers < 2)
        fatal("shard: need at least 2 workers to shard (got ",
              options_.workers, ")");
    if (options_.workerExe.empty())
        fatal("shard: no worker executable configured");

    int threads = options_.workerThreads;
    if (threads <= 0) {
        const std::size_t hw =
            std::max<std::size_t>(std::thread::hardware_concurrency(),
                                  1);
        threads = static_cast<int>(
            std::max<std::size_t>(hw / options_.workers, 1));
    }
    Json body = Json::object();
    body["threads"] = threads;
    const std::string init =
        frameMessage(okStatus("init"), body.dump());

    // A constructor that throws never runs the destructor: kill what
    // was already spawned so a rejected pool leaves no workers behind.
    try {
        workers_.resize(options_.workers);
        for (Worker& w : workers_) {
            spawnWorker(&w);
            if (!sendAllFd(w.fd, init))
                fatal("shard: cannot send init to worker ", w.pid);
        }
        // Version check: every point is re-verified by its key hash
        // anyway (pointWireKey), but a worker from another build is
        // better rejected before any work is dispatched.
        for (Worker& w : workers_) {
            Frame ready = readFrameFd(w.fd, w.buffer, "shard");
            if (frameOp(ready, "shard") != "ready")
                fatal("shard: worker sent ", ready.status.dump(),
                      " instead of ready");
            const Json info = Json::parse(ready.payload);
            if (!info.isObject() || !info.has("engineVersion") ||
                !info.at("engineVersion").isNumber() ||
                info.at("engineVersion").asNumber() !=
                    kStudyCacheVersion) {
                fatal("shard: worker ", w.pid, " is not engine version ",
                      kStudyCacheVersion,
                      " — worker executable out of sync?");
            }
        }
    } catch (...) {
        killWorkers();
        throw;
    }
}

ShardPool::~ShardPool()
{
    killWorkers();
}

void
ShardPool::killWorkers()
{
    // Abnormal teardown (shutdown() was not reached): don't wait for
    // a worker mid-batch, kill and reap.
    for (Worker& w : workers_) {
        if (!w.alive)
            continue;
        if (w.fd >= 0)
            ::close(w.fd);
        w.fd = -1;
        ::kill(w.pid, SIGKILL);
        reap(&w);
        w.alive = false;
    }
}

void
ShardPool::spawnWorker(Worker* w)
{
    // CLOEXEC on both ends: a later worker's fork must not inherit an
    // earlier worker's channel (dup2 below clears the flag on the fds
    // the child actually uses).
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0)
        fatal("shard: socketpair failed: ", std::strerror(errno));
    pid_t pid = ::fork();
    if (pid < 0) {
        int err = errno;
        ::close(sv[0]);
        ::close(sv[1]);
        fatal("shard: fork failed: ", std::strerror(err));
    }
    if (pid == 0) {
        ::dup2(sv[1], 0);
        ::dup2(sv[1], 1);
        ::execl(options_.workerExe.c_str(), options_.workerExe.c_str(),
                "worker", static_cast<char*>(nullptr));
        // Still the child: exec failed. stderr is inherited; stdout is
        // the protocol channel, so the master sees EOF and reacts.
        std::fprintf(stderr, "shard worker: cannot exec %s: %s\n",
                     options_.workerExe.c_str(), std::strerror(errno));
        ::_exit(127);
    }
    ::close(sv[1]);
    w->pid = pid;
    w->fd = sv[0];
    w->alive = true;
    w->batch = -1;
}

void
ShardPool::reap(Worker* w)
{
    int status = 0;
    while (::waitpid(w->pid, &status, 0) < 0 && errno == EINTR) {
    }
}

std::size_t
ShardPool::liveWorkers() const
{
    std::size_t n = 0;
    for (const Worker& w : workers_)
        n += w.alive ? 1 : 0;
    return n;
}

std::vector<pid_t>
ShardPool::workerPids() const
{
    std::vector<pid_t> pids;
    for (const Worker& w : workers_)
        if (w.alive)
            pids.push_back(w.pid);
    return pids;
}

void
ShardPool::workerFailed(Worker* w, std::vector<int>* requeue,
                        std::vector<int>* attempts)
{
    if (w->batch >= 0)
        warn("shard: worker ", w->pid,
             " died mid-batch; requeueing its batch");
    else
        warn("shard: worker ", w->pid, " died");
    if (w->fd >= 0)
        ::close(w->fd);
    w->fd = -1;
    reap(w);
    w->alive = false;
    if (w->batch >= 0) {
        const int id = w->batch;
        w->batch = -1;
        if (++(*attempts)[static_cast<std::size_t>(id)] >= 3)
            fatal("shard: batch ", id,
                  " failed on every worker that tried it");
        requeue->push_back(id);
    }
}

std::vector<std::vector<std::size_t>>
ShardPool::splitIndices(std::size_t count) const
{
    // Deterministic index-ordered batches, sized for dynamic balance
    // (~4 batches per worker, so a slow batch doesn't serialize the
    // tail). Assignment to workers is load-driven and nondeterministic
    // — merge-by-index keeps the emitted bytes independent of it.
    const std::size_t batchSize = std::max<std::size_t>(
        1,
        (count + options_.workers * 4 - 1) / (options_.workers * 4));
    std::vector<std::vector<std::size_t>> spans;
    for (std::size_t i = 0; i < count; i += batchSize) {
        std::vector<std::size_t> span;
        for (std::size_t k = i; k < std::min(i + batchSize, count);
             ++k)
            span.push_back(k);
        spans.push_back(std::move(span));
    }
    return spans;
}

void
ShardPool::evaluatePoints(const std::vector<WirePoint>& points,
                          const ResultFn& onResult)
{
    // One dispatchable request: the expected result indices (in
    // payload order) plus the precomputed frame — requeues resend the
    // same bytes.
    struct PendingBatch
    {
        std::vector<std::size_t> items;
        std::string frame;
    };
    std::vector<PendingBatch> batches;
    for (const std::vector<std::size_t>& span :
         splitIndices(points.size())) {
        PendingBatch b;
        Json status = okStatus("eval");
        status["id"] = batches.size();
        std::vector<WirePoint> chunk;
        for (std::size_t k : span) {
            b.items.push_back(points[k].index);
            chunk.push_back(points[k]);
        }
        b.frame = frameMessage(std::move(status),
                               evalPayloadJson(chunk).dump());
        batches.push_back(std::move(b));
    }

    std::deque<int> queue;
    for (std::size_t i = 0; i < batches.size(); ++i)
        queue.push_back(static_cast<int>(i));
    std::vector<int> attempts(batches.size(), 0);
    std::vector<int> requeue;
    std::size_t doneBatches = 0;

    // Worker frames cross a trust boundary: every number is compared
    // as a double against the value it must equal before any integer
    // cast, so NaN, negative or huge values are fatal, never UB.
    auto handleResult = [&](Worker& w, const Frame& frame) {
        if (frameOp(frame, "shard") != "result")
            fatal("shard: unexpected frame ", frame.status.dump());
        const Json& idField = frame.status.at("id");
        if (w.batch < 0 ||
            idField.asNumber() != static_cast<double>(w.batch))
            fatal("shard: result for batch ", idField.dump(),
                  " from a worker on ", w.batch);
        const int id = w.batch;
        PendingBatch& batch = batches[static_cast<std::size_t>(id)];
        const Json body = Json::parse(frame.payload);
        const Json::Array& results = body.at("results").items();
        if (results.size() != batch.items.size())
            fatal("shard: batch ", id, " returned ", results.size(),
                  " results for ", batch.items.size(), " items");
        for (std::size_t k = 0; k < results.size(); ++k) {
            const Json& entry = results[k];
            const Json& indexField = entry.at("index");
            if (indexField.asNumber() !=
                static_cast<double>(batch.items[k]))
                fatal("shard: batch ", id, " result ", k,
                      " is for item ", indexField.dump(), ", expected ",
                      batch.items[k]);
            const std::size_t index = batch.items[k];
            PointStatus status;
            LibraReport report;
            if (entry.at("ok").asBool()) {
                status.ok = true;
                report = reportFromJson(entry.at("report"));
            } else {
                status.ok = false;
                status.error = entry.at("error").asString();
            }
            onResult(index, std::move(status), std::move(report));
        }
        ++doneBatches;
        w.batch = -1;
    };

    while (doneBatches < batches.size()) {
        // Requeued batches jump the line: they were dispatched first,
        // and downstream progress may be waiting on them.
        for (int id : requeue)
            queue.push_front(id);
        requeue.clear();

        // Dispatch to every idle live worker.
        for (Worker& w : workers_) {
            if (!w.alive || w.batch >= 0 || queue.empty())
                continue;
            const int id = queue.front();
            if (!sendAllFd(
                    w.fd,
                    batches[static_cast<std::size_t>(id)].frame)) {
                workerFailed(&w, &requeue, &attempts);
                continue;
            }
            queue.pop_front();
            w.batch = id;
        }
        if (!requeue.empty())
            continue; // A send failed; re-dispatch before polling.

        std::vector<pollfd> fds;
        std::vector<std::size_t> fdWorker;
        for (std::size_t i = 0; i < workers_.size(); ++i) {
            if (workers_[i].alive && workers_[i].batch >= 0) {
                fds.push_back(pollfd{workers_[i].fd, POLLIN, 0});
                fdWorker.push_back(i);
            }
        }
        if (fds.empty()) {
            if (doneBatches < batches.size())
                fatal("shard: every worker died with ",
                      batches.size() - doneBatches,
                      " batches outstanding");
            break;
        }
        if (::poll(fds.data(), fds.size(), -1) < 0) {
            if (errno == EINTR)
                continue;
            fatal("shard: poll failed: ", std::strerror(errno));
        }
        for (std::size_t j = 0; j < fds.size(); ++j) {
            if (fds[j].revents == 0)
                continue;
            Worker& w = workers_[fdWorker[j]];
            char buf[65536];
            ssize_t n = ::recv(w.fd, buf, sizeof(buf), 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0) {
                workerFailed(&w, &requeue, &attempts);
                continue;
            }
            w.buffer.append(buf, static_cast<std::size_t>(n));
            // A worker that breaks the protocol leaves the pool
            // untrusted: kill every worker before the error unwinds.
            try {
                while (std::optional<Frame> frame = w.buffer.next())
                    handleResult(w, *frame);
            } catch (...) {
                killWorkers();
                throw;
            }
        }
    }
}

void
ShardPool::shutdown()
{
    for (Worker& w : workers_) {
        if (!w.alive)
            continue;
        // Best-effort exit op; EOF from the close() is what actually
        // guarantees the worker leaves.
        sendAllFd(w.fd, frameMessage(okStatus("exit"), ""));
        ::close(w.fd);
        w.fd = -1;
        reap(&w);
        w.alive = false;
    }
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

namespace {

/**
 * Blocking read of one frame from fd 0.
 * @return false on clean EOF at a frame boundary (master gone or done
 * — either way the worker's job is over). A reset counts as EOF: a
 * master killed with a result frame unread makes recv fail with
 * ECONNRESET instead of returning 0.
 */
bool
readWorkerFrame(FrameBuffer& buffer, Frame* out)
{
    for (;;) {
        if (std::optional<Frame> frame = buffer.next()) {
            *out = std::move(*frame);
            return true;
        }
        char buf[4096];
        ssize_t n = ::recv(0, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n == 0 || (n < 0 && errno == ECONNRESET)) {
            if (buffer.pending() != 0)
                fatal("worker: master closed mid-frame");
            return false;
        }
        if (n < 0)
            fatal("worker: recv failed: ", std::strerror(errno));
        buffer.append(buf, static_cast<std::size_t>(n));
    }
}

} // namespace

int
runShardWorker()
{
    // stdout is the protocol channel; keep chatty status off it and
    // make a vanished master an error return, not a SIGPIPE death.
    ::signal(SIGPIPE, SIG_IGN);
    setInformEnabled(false);

    FrameBuffer buffer("worker");
    try {
        Frame init;
        if (!readWorkerFrame(buffer, &init))
            return 0;
        if (frameOp(init, "worker") != "init")
            fatal("worker: expected init, got ", init.status.dump());
        // The thread count sizes the worker's pool: accept exactly the
        // CLI's --threads range, never a raw cast of a peer's number.
        const Json config = Json::parse(init.payload);
        const double threads = config.at("threads").asNumber();
        if (!(threads >= 1 && threads <= 4096) ||
            threads != std::floor(threads))
            fatal("worker: init threads must be an integer in 1..4096, "
                  "got ", config.at("threads").dump());
        ThreadPool::setGlobalThreads(static_cast<std::size_t>(threads));

        Json ready = Json::object();
        ready["engineVersion"] =
            static_cast<std::size_t>(kStudyCacheVersion);
        if (!sendAllFd(1, frameMessage(okStatus("ready"),
                                       ready.dump())))
            return 1;

        Frame frame;
        while (readWorkerFrame(buffer, &frame)) {
            const std::string op = frameOp(frame, "worker");
            if (op == "exit")
                return 0;
            if (op != "eval")
                fatal("worker: unexpected op '", op, "'");

            // Reparse each serialized point and verify its canonical-
            // key hash, so a version-skewed build is rejected before
            // it can return a result for the wrong design point.
            std::vector<std::size_t> items;
            std::vector<LibraInputs> batch;
            for (const WirePoint& wp :
                 parseEvalPayload(Json::parse(frame.payload))) {
                LibraInputs p = parseStudyConfigString(wp.text);
                const std::string key = pointWireKey(p);
                if (key != wp.key)
                    fatal("worker: eval point ", wp.index,
                          " key mismatch (reparse ", key, ", frame ",
                          wp.key, ") — worker executable out of sync?");
                items.push_back(wp.index);
                batch.push_back(std::move(p));
            }
            // Per-point isolation mirrors the in-process sweep: a
            // failing point becomes a status, never a dead worker.
            SweepOutcome outcome = runLibraSweepIsolated(batch);

            Json results = Json::array();
            for (std::size_t k = 0; k < items.size(); ++k) {
                Json entry = Json::object();
                entry["index"] = items[k];
                entry["ok"] = outcome.status[k].ok;
                if (outcome.status[k].ok)
                    entry["report"] = reportToJson(outcome.reports[k]);
                else
                    entry["error"] = outcome.status[k].error;
                results.push(std::move(entry));
            }
            Json body = Json::object();
            body["results"] = std::move(results);
            Json status = okStatus("result");
            status["id"] = frame.status.at("id");
            if (!sendAllFd(1, frameMessage(std::move(status),
                                           body.dump())))
                return 1; // Master gone; nothing left to do.
        }
        return 0;
    } catch (const FatalError& e) {
        // Tell the master why (best effort), then die loudly enough
        // for its requeue/abort logic to see.
        sendAllFd(1, frameErrorMessage(fatalMessage(e)));
        std::fprintf(stderr, "shard worker: %s\n", e.what());
        return 1;
    }
}

} // namespace libra
