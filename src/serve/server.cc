#include "serve/server.hh"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/logging.hh"
#include "core/timing_backend.hh"
#include "serve/framing.hh"
#include "explore/explore.hh"
#include "solver/strategy.hh"
#include "study/scenario.hh"

namespace libra {

// ---------------------------------------------------------------------
// ServeStore
// ---------------------------------------------------------------------

ServeStore::ServeStore(const std::string& cacheDir,
                       std::size_t lruCapacity)
    : lru_(lruCapacity)
{
    if (!cacheDir.empty())
        disk_.emplace(cacheDir);
}

bool
ServeStore::load(std::uint64_t key, const std::string& canonical,
                 LibraReport* out)
{
    if (lru_.get(canonical, out))
        return true;
    if (disk_ && disk_->load(key, canonical, out)) {
        // Promote: the point is hot now; the next identical request
        // must not pay disk I/O again.
        lru_.put(canonical, *out);
        diskHits_.fetch_add(1, std::memory_order_relaxed);
        return true;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
}

bool
ServeStore::store(std::uint64_t key, const std::string& canonical,
                  const LibraReport& report)
{
    lru_.put(canonical, report);
    if (disk_)
        return disk_->store(key, canonical, report);
    return true;
}

void
ServeStore::reject(std::uint64_t key, const std::string& canonical,
                   const std::string& why)
{
    lru_.erase(canonical);
    if (disk_)
        disk_->reject(key, canonical, why);
}

ServeStore::Stats
ServeStore::stats() const
{
    Stats s;
    s.lru = lru_.stats();
    s.diskHits = diskHits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    return s;
}

// ---------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------

namespace {

/** A request's scenario field: one name or an array of names. */
std::vector<std::string>
scenarioNames(const Json& field)
{
    std::vector<std::string> names;
    if (field.isString()) {
        names.push_back(field.asString());
    } else if (field.isArray()) {
        for (const Json& n : field.items())
            names.push_back(n.asString());
    } else {
        fatal("'scenario' must be a name or an array of names");
    }
    return names;
}

} // namespace

std::string
Server::handleLine(const std::string& line, bool* shutdown)
{
    requests_.fetch_add(1, std::memory_order_relaxed);
    try {
        Json req = Json::parse(line);
        if (!req.isObject())
            fatal("request must be a JSON object");
        // Reject unknown fields: a typo'd field name silently falling
        // back to a default would serve the wrong matrix.
        for (const auto& [key, value] : req.members()) {
            (void)value;
            if (key != "op" && key != "scenario" && key != "solver" &&
                key != "backend" && key != "explore" && key != "emit" &&
                key != "failMode") {
                fatal("unknown request field '", key, "'");
            }
        }

        const std::string op =
            req.has("op") ? req.at("op").asString() : "run";
        if (op == "ping") {
            Json status = Json::object();
            status["ok"] = true;
            status["op"] = "ping";
            return frameMessage(std::move(status), "");
        }
        if (op == "shutdown") {
            *shutdown = true;
            Json status = Json::object();
            status["ok"] = true;
            status["op"] = "shutdown";
            return frameMessage(std::move(status), "");
        }
        if (op == "stats") {
            ServeStore::Stats s = store_.stats();
            Json j = Json::object();
            j["schema"] = "libra-serve-stats-v3";
            j["requests"] = requests_.load(std::memory_order_relaxed);
            j["errors"] = errors_.load(std::memory_order_relaxed);
            j["lruHits"] = s.lru.hits;
            j["lruEntries"] = s.lru.entries;
            j["lruCapacity"] = s.lru.capacity;
            j["lruEvictions"] = s.lru.evictions;
            j["diskHits"] = s.diskHits;
            j["misses"] = s.misses;
            Json status = Json::object();
            status["ok"] = true;
            status["op"] = "stats";
            return frameMessage(std::move(status), j.dump(1) + "\n");
        }
        if (op != "run")
            fatal("unknown op '", op, "'");

        if (!req.has("scenario"))
            fatal("request needs a 'scenario' field");
        std::vector<std::string> names =
            expandScenarioGroups(scenarioNames(req.at("scenario")));

        const std::string emit =
            req.has("emit") ? req.at("emit").asString() : "json";
        if (emit != "json" && emit != "csv")
            fatal("'emit' must be json or csv");

        MatrixOptions options;
        options.store = &store_;
        if (req.has("solver"))
            options.solverPipeline =
                parseSolverSpec(req.at("solver").asString());
        if (req.has("backend"))
            options.timingBackend = req.at("backend").asString();
        if (req.has("explore"))
            options.exploreSpec = req.at("explore").asString();
        if (req.has("failMode")) {
            const std::string& mode = req.at("failMode").asString();
            if (mode == "isolate")
                options.failMode = FailMode::Isolate;
            else if (mode != "abort")
                fatal("'failMode' must be abort or isolate");
        }

        MatrixResult result = runScenarioMatrix(names, options);

        // Exactly the bytes run-matrix would write to stdout.
        std::ostringstream payload;
        if (emit == "csv")
            emitMatrixCsv(result, payload);
        else
            emitMatrixJson(result, payload);

        Json status = Json::object();
        status["ok"] = true;
        status["points"] = result.points;
        status["unique"] = result.unique;
        status["fromCache"] = result.fromCache;
        status["computed"] = result.computed;
        status["failed"] = result.failed;
        return frameMessage(std::move(status), payload.str());
    } catch (const FatalError& e) {
        // A request error (bad JSON, unknown scenario, a failing
        // design point under abort mode) is this request's problem;
        // the server keeps serving.
        errors_.fetch_add(1, std::memory_order_relaxed);
        return frameErrorMessage(fatalMessage(e));
    } catch (const std::exception& e) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        return frameErrorMessage(std::string("internal error: ") + e.what());
    }
}

// ---------------------------------------------------------------------
// Socket plumbing
// ---------------------------------------------------------------------

namespace {

void
fillSocketAddress(const std::string& path, sockaddr_un* addr)
{
    if (path.empty())
        fatal("serve: empty socket path");
    if (path.size() >= sizeof(addr->sun_path))
        fatal("serve: socket path too long (", path.size(), " >= ",
              sizeof(addr->sun_path), "): ", path);
    std::memset(addr, 0, sizeof(*addr));
    addr->sun_family = AF_UNIX;
    std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
}

} // namespace

Server::Server(ServeOptions options)
    : options_(std::move(options)),
      store_(options_.cacheDir, options_.lruCapacity)
{}

Server::~Server()
{
    stop();
}

void
Server::start()
{
    if (running_.load())
        panic("serve: start() on a running server");

    // Warm every registry before the first connection: magic statics
    // make concurrent first use safe, but eager construction keeps
    // first-request latency flat and failures (a broken registration)
    // at startup where they belong.
    ScenarioRegistry::global();
    StrategyRegistry::global();
    TimingBackendRegistry::global();
    ExploreRegistry::global();

    sockaddr_un addr;
    fillSocketAddress(options_.socketPath, &addr);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        fatal("serve: cannot create socket: ", std::strerror(errno));
    // A previous server instance may have left its socket file behind;
    // binding over it needs the unlink (stale files never answer).
    ::unlink(options_.socketPath.c_str());
    if (::bind(listenFd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
        int err = errno;
        ::close(listenFd_);
        listenFd_ = -1;
        fatal("serve: cannot bind '", options_.socketPath,
              "': ", std::strerror(err));
    }
    if (::listen(listenFd_, 64) != 0) {
        int err = errno;
        ::close(listenFd_);
        listenFd_ = -1;
        ::unlink(options_.socketPath.c_str());
        fatal("serve: cannot listen on '", options_.socketPath,
              "': ", std::strerror(err));
    }

    stopping_.store(false);
    running_.store(true);
    acceptThread_ = std::thread(&Server::acceptLoop, this);
}

void
Server::acceptLoop()
{
    for (;;) {
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (stopping_.load())
                break;
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            warn("serve: accept failed: ", std::strerror(errno));
            break;
        }
        bool busy = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (stopping_.load()) {
                ::close(fd);
                break;
            }
            busy = connections_.size() >= kMaxServeConnections;
            if (!busy)
                connections_.insert(fd);
        }
        if (busy) {
            // One thread per connection: past the cap, refuse instead
            // of spawning. The short line fits the fresh socket's
            // send buffer, so answering cannot stall the accept loop.
            errors_.fetch_add(1, std::memory_order_relaxed);
            sendAllFd(fd, frameErrorMessage(detail::concat(
                              "server busy (", kMaxServeConnections,
                              " connections open)")));
            ::close(fd);
            continue;
        }
        // Plain detached threads, NOT pool workers: a handler runs
        // whole matrix sweeps, and parallelFor degrades to serial
        // inside a pool thread. stop() joins via the connection set.
        std::thread(&Server::handleConnection, this, fd).detach();
    }
}

void
Server::handleConnection(int fd)
{
    std::string pending;
    char buf[4096];
    bool open = true;
    while (open) {
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        pending.append(buf, static_cast<std::size_t>(n));
        std::size_t eol;
        while (open && (eol = pending.find('\n')) != std::string::npos) {
            std::string line = pending.substr(0, eol);
            pending.erase(0, eol + 1);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (line.empty())
                continue;
            bool shutdown = false;
            std::string response = handleLine(line, &shutdown);
            if (!sendAllFd(fd, response))
                open = false;
            if (shutdown) {
                // stop() waits for this very connection to drain, so
                // it must run elsewhere; the handler just exits.
                std::thread([this] { stop(); }).detach();
                open = false;
            }
        }
        // Every complete line has been consumed above, so leftover
        // bytes are one partial request line. A peer streaming more
        // than kMaxFrameLine without a newline would otherwise grow
        // `pending` without bound — answer an error and hang up.
        if (open && pending.size() > kMaxFrameLine) {
            errors_.fetch_add(1, std::memory_order_relaxed);
            sendAllFd(fd, frameErrorMessage(detail::concat(
                              "request line exceeds ", kMaxFrameLine,
                              " bytes")));
            open = false;
        }
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        connections_.erase(fd);
        idle_.notify_all();
    }
    ::close(fd);
}

void
Server::stop()
{
    std::lock_guard<std::mutex> stopGuard(stopMutex_);
    if (!running_.load())
        return;
    stopping_.store(true);

    // Wake the accept loop, then every in-flight connection.
    ::shutdown(listenFd_, SHUT_RDWR);
    if (acceptThread_.joinable())
        acceptThread_.join();
    ::close(listenFd_);
    listenFd_ = -1;

    {
        std::unique_lock<std::mutex> lock(mutex_);
        for (int fd : connections_)
            ::shutdown(fd, SHUT_RDWR);
        idle_.wait(lock, [&] { return connections_.empty(); });
        running_.store(false);
        idle_.notify_all(); // waitUntilStopped watches running_.
    }
    ::unlink(options_.socketPath.c_str());
}

void
Server::waitUntilStopped()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [&] { return !running_.load(); });
}

Server::Stats
Server::stats() const
{
    Stats s;
    s.requests = requests_.load(std::memory_order_relaxed);
    s.errors = errors_.load(std::memory_order_relaxed);
    return s;
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

ServeReply
serveRequest(const std::string& socketPath,
             const std::string& requestLine)
{
    sockaddr_un addr;
    fillSocketAddress(socketPath, &addr);

    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        fatal("serve: cannot create socket: ", std::strerror(errno));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        int err = errno;
        ::close(fd);
        fatal("serve: cannot connect to '", socketPath,
              "': ", std::strerror(err));
    }
    if (!sendAllFd(fd, requestLine + "\n")) {
        int err = errno;
        ::close(fd);
        fatal("serve: send failed: ", std::strerror(err));
    }

    // Read one framed reply. The FrameBuffer validates the status
    // line's `bytes` field (nonnegative integer under the payload
    // cap), so a corrupt server can never drive a giant allocation or
    // a truncating size_t cast here.
    FrameBuffer buffer("serve");
    Frame frame;
    try {
        frame = readFrameFd(fd, buffer, "serve");
    } catch (const FatalError&) {
        ::close(fd);
        throw;
    }
    ::close(fd);
    if (buffer.pending() != 0)
        fatal("serve: payload overrun (", buffer.pending(),
              " bytes past the framed reply)");
    return ServeReply{std::move(frame.status),
                      std::move(frame.payload)};
}

} // namespace libra
