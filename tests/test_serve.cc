/**
 * @file
 * Serve-subsystem tests: the bounded LRU, the layered ServeStore, and
 * the Unix-domain-socket server end to end — byte-identity with
 * one-shot run-matrix emission, also under concurrent identical
 * requests, and per-request error isolation. See docs/SERVE.md.
 */

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "core/study_config.hh"
#include "serve/framing.hh"
#include "serve/lru.hh"
#include "serve/server.hh"
#include "study/cache.hh"
#include "study/matrix.hh"

namespace libra {
namespace {

LibraInputs
miniInputs(const char* extra = "")
{
    std::string text = "NETWORK SW(4)_RI(4)\nTOTAL_BW 200\n"
                       "STARTS 2\nWORKLOAD resnet50\n";
    text += extra;
    return parseStudyConfigString(text);
}

/** A tiny scenario (2 unique points + 1 dup), registered once. */
const char*
serveScenarioName()
{
    static const char* name = [] {
        Scenario s;
        s.name = "test-serve-mini";
        s.title = "serve-test scenario";
        s.build = [] {
            std::vector<LibraInputs> points;
            points.push_back(miniInputs());
            points.push_back(miniInputs("SEED 5\n"));
            points.push_back(miniInputs()); // Dup of the first.
            return points;
        };
        s.format = [](const std::vector<LibraInputs>& points,
                      const std::vector<LibraReport>& reports) {
            ScenarioOutput out;
            for (std::size_t i = 0; i < points.size(); ++i) {
                ScenarioRow row;
                row.label("point", std::to_string(i));
                row.metric("speedup", reports[i].speedup);
                out.rows.push_back(std::move(row));
            }
            return out;
        };
        ScenarioRegistry::global().add(std::move(s));
        return "test-serve-mini";
    }();
    return name;
}

/**
 * A scenario whose second point throws FatalError when evaluated: its
 * resnet50 targets were sliced for the 16-NPU parse-time network, and
 * swapping the shape afterwards makes the estimator reject them.
 */
const char*
servePoisonScenarioName()
{
    static const char* name = [] {
        Scenario s;
        s.name = "test-serve-poison";
        s.title = "serve-test scenario with one poisoned point";
        s.build = [] {
            std::vector<LibraInputs> points;
            points.push_back(miniInputs("SEED 13\n"));
            points.push_back(miniInputs());
            points.back().networkShape = "SW(4)_RI(8)";
            return points;
        };
        s.format = [](const std::vector<LibraInputs>& points,
                      const std::vector<LibraReport>& reports) {
            ScenarioOutput out;
            for (std::size_t i = 0; i < points.size(); ++i) {
                ScenarioRow row;
                row.label("point", std::to_string(i));
                row.metric("speedup", reports[i].speedup);
                out.rows.push_back(std::move(row));
            }
            return out;
        };
        ScenarioRegistry::global().add(std::move(s));
        return "test-serve-poison";
    }();
    return name;
}

std::string
freshDir(const char* name)
{
    std::string dir = testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    return dir;
}

/** The exact bytes `run-matrix <scenario> --emit json` prints. */
std::string
oneShotJson(const std::string& scenario)
{
    MatrixResult result = runScenarioMatrix({scenario});
    std::ostringstream os;
    emitMatrixJson(result, os);
    return os.str();
}

std::string
oneShotCsv(const std::string& scenario)
{
    MatrixResult result = runScenarioMatrix({scenario});
    std::ostringstream os;
    emitMatrixCsv(result, os);
    return os.str();
}

// --- LRU ---------------------------------------------------------------

TEST(ServeLru, HitsPromoteAndColdEndEvicts)
{
    LruCache lru(2);
    LibraReport a, b, c;
    a.speedup = 1.0;
    b.speedup = 2.0;
    c.speedup = 3.0;
    lru.put("a", a);
    lru.put("b", b);

    LibraReport out;
    ASSERT_TRUE(lru.get("a", &out)); // Promotes "a"; "b" is coldest.
    EXPECT_EQ(out.speedup, 1.0);

    lru.put("c", c); // Evicts "b", not the just-promoted "a".
    EXPECT_FALSE(lru.get("b", &out));
    EXPECT_TRUE(lru.get("a", &out));
    EXPECT_TRUE(lru.get("c", &out));

    LruCache::Stats stats = lru.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.capacity, 2u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 3u);
}

TEST(ServeLru, RefreshingAKeyOverwritesInPlace)
{
    LruCache lru(4);
    LibraReport v1, v2;
    v1.speedup = 1.0;
    v2.speedup = 2.0;
    lru.put("k", v1);
    lru.put("k", v2);
    LibraReport out;
    ASSERT_TRUE(lru.get("k", &out));
    EXPECT_EQ(out.speedup, 2.0);
    EXPECT_EQ(lru.stats().entries, 1u);
}

TEST(ServeLru, ZeroCapacityDisablesTheCache)
{
    LruCache lru(0);
    LibraReport r;
    lru.put("k", r);
    EXPECT_FALSE(lru.get("k", &r));
    EXPECT_EQ(lru.stats().entries, 0u);
}

// --- ServeStore --------------------------------------------------------

TEST(ServeStore, LayersTheLruOverTheDiskCache)
{
    std::string dir = freshDir("libra-serve-store");
    LibraInputs inputs = miniInputs();
    std::string canonical = canonicalStudyKey(inputs);
    std::uint64_t key = studyCacheHashOfKey(canonical);
    LibraReport report = runLibra(inputs);

    {
        ServeStore store(dir, 8);
        EXPECT_TRUE(store.store(key, canonical, report));
    }

    // A fresh store (cold LRU) first loads from disk and promotes...
    ServeStore store(dir, 8);
    LibraReport out;
    ASSERT_TRUE(store.load(key, canonical, &out));
    EXPECT_EQ(reportToJson(out).dump(), reportToJson(report).dump());
    EXPECT_EQ(store.stats().diskHits, 1u);
    // ...so the second load is pure memory.
    ASSERT_TRUE(store.load(key, canonical, &out));
    EXPECT_EQ(store.stats().diskHits, 1u);
    EXPECT_EQ(store.stats().lru.hits, 1u);

    std::filesystem::remove_all(dir);
}

TEST(ServeStore, MemoryOnlyStoreServesFromTheLruAlone)
{
    LibraInputs inputs = miniInputs();
    std::string canonical = canonicalStudyKey(inputs);
    std::uint64_t key = studyCacheHashOfKey(canonical);

    ServeStore store("", 8);
    EXPECT_EQ(store.disk(), nullptr);
    LibraReport out;
    EXPECT_FALSE(store.load(key, canonical, &out));

    LibraReport report;
    report.speedup = 2.0;
    EXPECT_TRUE(store.store(key, canonical, report));
    ASSERT_TRUE(store.load(key, canonical, &out));
    EXPECT_EQ(out.speedup, 2.0);
}

// --- Server end to end -------------------------------------------------

TEST(Serve, ResponsesAreByteIdenticalToOneShotEmission)
{
    const std::string scenario = serveScenarioName();
    const std::string expectedJson = oneShotJson(scenario);
    const std::string expectedCsv = oneShotCsv(scenario);

    ServeOptions options;
    options.socketPath = testing::TempDir() + "libra-serve-a.sock";
    Server server(std::move(options));
    server.start();

    const std::string request =
        "{\"scenario\": \"" + scenario + "\", \"emit\": \"json\"}";

    // Fresh, then LRU-served, across pool resizes: all byte-identical.
    for (std::size_t threads : {1u, 2u, 8u}) {
        ThreadPool::setGlobalThreads(threads);
        ServeReply reply =
            serveRequest(server.socketPath(), request);
        ASSERT_TRUE(reply.status.at("ok").asBool());
        EXPECT_EQ(reply.payload, expectedJson);
    }
    ThreadPool::setGlobalThreads(1);

    // The second identical request is served entirely from the store.
    ServeReply cached =
        serveRequest(server.socketPath(), request);
    EXPECT_EQ(cached.status.at("computed").asNumber(), 0.0);
    EXPECT_EQ(cached.status.at("fromCache").asNumber(), 3.0);
    EXPECT_EQ(cached.payload, expectedJson);

    ServeReply csv = serveRequest(
        server.socketPath(),
        "{\"scenario\": \"" + scenario + "\", \"emit\": \"csv\"}");
    ASSERT_TRUE(csv.status.at("ok").asBool());
    EXPECT_EQ(csv.payload, expectedCsv);

    server.stop();
}

TEST(Serve, ConcurrentIdenticalRequestsAnswerTheOneShotBytes)
{
    const std::string scenario = serveScenarioName();
    const std::string expected = oneShotJson(scenario);

    ServeOptions options;
    options.socketPath = testing::TempDir() + "libra-serve-b.sock";
    Server server(std::move(options));
    server.start();

    const std::string request =
        "{\"scenario\": \"" + scenario + "\"}";
    constexpr int kClients = 6;
    auto wave = [&] {
        std::vector<ServeReply> replies(kClients);
        std::vector<std::thread> clients;
        clients.reserve(kClients);
        for (int c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
                replies[c] =
                    serveRequest(server.socketPath(), request);
            });
        }
        for (auto& t : clients)
            t.join();
        return replies;
    };

    // Cold concurrent identical requests may each compute a point
    // (evaluation is deterministic), but every reply carries the
    // one-shot bytes however the requests interleaved.
    for (const ServeReply& reply : wave()) {
        ASSERT_TRUE(reply.status.at("ok").asBool());
        EXPECT_EQ(reply.payload, expected);
    }

    // A second concurrent wave finds every point warm: each reply is
    // served from the LRU and byte-identical to the one-shot run.
    for (const ServeReply& reply : wave()) {
        ASSERT_TRUE(reply.status.at("ok").asBool());
        EXPECT_EQ(reply.status.at("computed").asNumber(), 0.0);
        EXPECT_EQ(reply.payload, expected);
    }

    server.stop();
}

TEST(Serve, RequestErrorsAreIsolatedFromTheServer)
{
    ServeOptions options;
    options.socketPath = testing::TempDir() + "libra-serve-c.sock";
    Server server(std::move(options));
    server.start();
    const std::string socket = server.socketPath();

    ServeReply bad = serveRequest(socket, "{ not json");
    EXPECT_FALSE(bad.status.at("ok").asBool());

    ServeReply unknown = serveRequest(
        socket, "{\"scenario\": \"no-such-scenario\"}");
    EXPECT_FALSE(unknown.status.at("ok").asBool());
    EXPECT_NE(unknown.status.at("error").asString().find(
                  "unknown scenario"),
              std::string::npos);

    // A typo'd field, "workers" (serve never shards) and "solver" (the
    // search chain is fixed): refused by name, never silently ignored.
    for (const char* field : {"\"emitt\": \"json\"", "\"workers\": 2",
                              "\"solver\": \"nelder-mead\""}) {
        ServeReply unknownField = serveRequest(
            socket, std::string("{\"scenario\": \"tbl1\", ") + field + "}");
        EXPECT_FALSE(unknownField.status.at("ok").asBool()) << field;
        EXPECT_NE(unknownField.status.at("error").asString().find(
                      "unknown request field"),
                  std::string::npos)
            << field;
    }

    // A name listed twice once the groups expand: each copy would be
    // built and emitted again, so it is refused by name.
    const std::pair<const char*, const char*> repeats[] = {
        {"[\"all\", \"all\"]", "scenario 'tbl1' is listed more than once"},
        {"[\"golden\", \"fig10\"]",
         "scenario 'fig10' is listed more than once"},
    };
    for (const auto& [names, needle] : repeats) {
        ServeReply dup = serveRequest(
            socket, std::string("{\"scenario\": ") + names + "}");
        EXPECT_FALSE(dup.status.at("ok").asBool()) << names;
        EXPECT_NE(dup.status.at("error").asString().find(needle),
                  std::string::npos)
            << dup.status.at("error").asString();
    }

    // The server survived all seven and still answers correctly.
    ServeReply ok = serveRequest(socket, "{\"scenario\": \"tbl1\"}");
    EXPECT_TRUE(ok.status.at("ok").asBool());
    EXPECT_EQ(ok.payload, oneShotJson("tbl1"));
    EXPECT_EQ(server.stats().errors, 7u);

    server.stop();
}

// --- Serve hardening ---------------------------------------------------

/** Raw client socket to a Unix-domain server; -1 on failure. */
int
rawConnect(const std::string& path)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

TEST(Serve, OversizedRequestLineIsAnsweredAndTheConnectionClosed)
{
    ServeOptions options;
    options.socketPath = testing::TempDir() + "libra-serve-e.sock";
    Server server(std::move(options));
    server.start();

    int fd = rawConnect(server.socketPath());
    ASSERT_GE(fd, 0);

    // One byte past the request-line cap, never a newline: the server
    // must refuse instead of buffering the "line" forever.
    std::string junk(kMaxFrameLine + 1, 'x');
    ASSERT_TRUE(sendAllFd(fd, junk));

    std::string reply;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        reply.append(buf, static_cast<std::size_t>(n));
    EXPECT_EQ(n, 0); // Server closed the connection after answering.
    ::close(fd);

    EXPECT_NE(reply.find("\"ok\":false"), std::string::npos);
    EXPECT_NE(reply.find("request line exceeds"), std::string::npos);
    EXPECT_EQ(server.stats().errors, 1u);

    // The refusal is per-connection: the server still answers.
    ServeReply ok =
        serveRequest(server.socketPath(), "{\"op\": \"ping\"}");
    EXPECT_TRUE(ok.status.at("ok").asBool());

    server.stop();
}

/** Send a ping on an open connection and read its framed reply. */
bool
pingOn(int fd)
{
    if (!sendAllFd(fd, "{\"op\": \"ping\"}\n"))
        return false;
    FrameBuffer buffer("test");
    return readFrameFd(fd, buffer, "test").status.at("ok").asBool();
}

TEST(Serve, ConnectionsPastTheCapAreRefusedAndTheServerServesOn)
{
    ServeOptions options;
    options.socketPath = testing::TempDir() + "libra-serve-cap.sock";
    Server server(std::move(options));
    server.start();
    const std::string socket = server.socketPath();

    // Fill the cap with idle connections, each proven live by a ping.
    std::vector<int> held;
    for (std::size_t i = 0; i < kMaxServeConnections; ++i) {
        int fd = rawConnect(socket);
        ASSERT_GE(fd, 0);
        held.push_back(fd);
        ASSERT_TRUE(pingOn(fd)) << "connection " << i;
    }

    // One more is answered "busy" and closed.
    int extra = rawConnect(socket);
    ASSERT_GE(extra, 0);
    std::string reply;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(extra, buf, sizeof(buf), 0)) > 0)
        reply.append(buf, static_cast<std::size_t>(n));
    EXPECT_EQ(n, 0);
    ::close(extra);
    EXPECT_NE(reply.find("\"ok\":false"), std::string::npos) << reply;
    EXPECT_NE(reply.find("server busy"), std::string::npos) << reply;

    // The held connections still answer, and once they close new
    // connections are served again (a handler notices its peer's
    // close asynchronously, hence the bounded retry).
    EXPECT_TRUE(pingOn(held.front()));
    for (int fd : held)
        ::close(fd);
    bool served = false;
    for (int attempt = 0; attempt < 500 && !served; ++attempt) {
        try {
            served = serveRequest(socket, "{\"op\": \"ping\"}")
                         .status.at("ok")
                         .asBool();
        } catch (const FatalError&) {
        }
        if (!served)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(served);

    server.stop();
}

/**
 * A fake "server" that accepts one connection, drains the request
 * line, answers with @p response verbatim, and closes.
 */
void
answerOnce(int listenFd, const std::string& response)
{
    int fd = ::accept(listenFd, nullptr, nullptr);
    ASSERT_GE(fd, 0);
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
        if (std::memchr(buf, '\n', static_cast<std::size_t>(n)))
            break;
    }
    ASSERT_TRUE(sendAllFd(fd, response));
    ::close(fd);
}

TEST(Serve, GarbageStatusLinesFromAPeerAreFatalNotCrashes)
{
    const std::string path =
        testing::TempDir() + "libra-serve-f.sock";
    std::filesystem::remove(path);
    int listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(listenFd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::bind(listenFd, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(listenFd, 4), 0);

    // A negative, a non-integer, an absurdly large, and a non-numeric
    // `bytes` — each must surface as a clean FatalError in the client
    // (historically the value was cast straight to size_t, turning -1
    // into an 18-exabyte read).
    const std::string bads[] = {
        "{\"ok\":true,\"bytes\":-1}\n",
        "{\"ok\":true,\"bytes\":1.5}\n",
        "{\"ok\":true,\"bytes\":1e18}\n",
        "{\"ok\":true,\"bytes\":\"nope\"}\n",
    };
    for (const std::string& bad : bads) {
        std::thread peer([&] { answerOnce(listenFd, bad); });
        EXPECT_THROW(serveRequest(path, "{\"op\": \"ping\"}"),
                     FatalError)
            << "status line: " << bad;
        peer.join();
    }

    // A truncated frame (fewer payload bytes than promised, then EOF)
    // is fatal too, not a hang or a short read passed to the caller.
    std::thread peer([&] {
        answerOnce(listenFd, "{\"ok\":true,\"bytes\":64}\nshort");
    });
    EXPECT_THROW(serveRequest(path, "{\"op\": \"ping\"}"),
                 FatalError);
    peer.join();

    ::close(listenFd);
    std::filesystem::remove(path);
}

/** Split a framed handleLine response into (status, payload). */
ServeReply
splitResponse(const std::string& response)
{
    const auto nl = response.find('\n');
    ServeReply reply;
    reply.status = Json::parse(response.substr(0, nl));
    reply.payload = response.substr(nl + 1);
    return reply;
}

TEST(Serve, DeeplyNestedRequestIsAnErrorAndTheServerServesOn)
{
    const std::string scenario = serveScenarioName();
    ServeOptions options;
    options.socketPath = testing::TempDir() + "libra-serve-j.sock";
    Server server(std::move(options)); // handleLine needs no socket.
    bool shutdown = false;

    // ~400 KB, under kMaxFrameLine, so it reaches the JSON parser.
    const std::string hostile = "{\"op\":" + std::string(200000, '[') +
                                std::string(200000, ']') + "}";
    ServeReply bad = splitResponse(server.handleLine(hostile, &shutdown));
    EXPECT_FALSE(bad.status.at("ok").asBool());
    EXPECT_FALSE(shutdown);

    ServeReply next = splitResponse(server.handleLine(
        "{\"scenario\": \"" + scenario + "\"}", &shutdown));
    ASSERT_TRUE(next.status.at("ok").asBool()) << next.status.dump();
    EXPECT_EQ(next.payload, oneShotJson(scenario));
    EXPECT_EQ(server.stats().errors, 1u);
}

/**
 * A disk entry whose checksum is valid but whose report does not fit
 * its point is quarantined and recomputed; the request is answered
 * with the one-shot bytes and the server serves on. fig10's formatter
 * re-times each design under the training simulator, so a served
 * wrong-rank design would abort the process.
 */
TEST(Serve, MalformedCachedReportIsRecomputedAndTheServerServesOn)
{
    setInformEnabled(false);
    const std::string expected = oneShotJson("fig10");
    std::string dir = freshDir("libra-serve-forged");
    MatrixOptions fill;
    fill.cacheDir = dir;
    runScenarioMatrix({"fig10"}, fill);
    std::vector<std::string> files;
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
        // Drop one optimized bandwidth and re-sign the body, as a
        // hand-edited or foreign entry would arrive.
        const std::string file = e.path().string();
        std::ifstream in(file);
        std::ostringstream text;
        text << in.rdbuf();
        Json body = Json::parse(text.str()).at("body");
        LibraReport report = reportFromJson(body.at("report"));
        report.optimized.bw.pop_back();
        body["report"] = reportToJson(report);
        const std::string bodyText = body.dump();
        char fnv[24];
        std::snprintf(fnv, sizeof(fnv), "%016llx",
                      static_cast<unsigned long long>(
                          studyCacheHashOfKey(bodyText)));
        std::ofstream out(file, std::ios::trunc);
        out << "{\"fnv\":\"" << fnv << "\",\"body\":" << bodyText << "}\n";
        files.push_back(file);
    }
    ASSERT_FALSE(files.empty());

    ServeOptions options;
    options.socketPath = testing::TempDir() + "libra-serve-l.sock";
    options.cacheDir = dir;
    Server server(std::move(options)); // handleLine needs no socket.
    bool shutdown = false;
    const std::string request = "{\"scenario\": \"fig10\"}";
    ServeReply first = splitResponse(server.handleLine(request, &shutdown));
    ASSERT_TRUE(first.status.at("ok").asBool()) << first.status.dump();
    EXPECT_EQ(first.status.at("fromCache").asNumber(), 0.0);
    EXPECT_EQ(first.payload, expected);
    for (const auto& file : files)
        EXPECT_TRUE(std::filesystem::exists(file + ".corrupt")) << file;

    // Served on, now from the healed store.
    ServeReply next = splitResponse(server.handleLine(request, &shutdown));
    ASSERT_TRUE(next.status.at("ok").asBool()) << next.status.dump();
    EXPECT_EQ(next.status.at("computed").asNumber(), 0.0);
    EXPECT_EQ(next.payload, expected);
    EXPECT_EQ(server.stats().errors, 0u);
    std::filesystem::remove_all(dir);
}

TEST(Serve, FailModeFieldIsolatesOrAbortsAFailingPoint)
{
    const std::string scenario = servePoisonScenarioName();
    ServeOptions options;
    options.socketPath = testing::TempDir() + "libra-serve-k.sock";
    Server server(std::move(options)); // handleLine needs no socket.
    bool shutdown = false;
    const std::string base = "\"scenario\": \"" + scenario + "\"";

    // isolate: the failing point becomes a failure record, and the
    // payload is exactly what an isolate-mode run-matrix emits.
    ServeReply isolated = splitResponse(server.handleLine(
        "{" + base + ", \"failMode\": \"isolate\"}", &shutdown));
    ASSERT_TRUE(isolated.status.at("ok").asBool())
        << isolated.status.dump();
    EXPECT_EQ(isolated.status.at("failed").asNumber(), 1.0);
    MatrixOptions isolate;
    isolate.failMode = FailMode::Isolate;
    std::ostringstream expected;
    emitMatrixJson(runScenarioMatrix({scenario}, isolate), expected);
    EXPECT_EQ(isolated.payload, expected.str());

    // The default is abort, as in run-matrix: the request fails.
    ServeReply aborted = splitResponse(
        server.handleLine("{" + base + "}", &shutdown));
    EXPECT_FALSE(aborted.status.at("ok").asBool());

    // Any other mode is refused, naming the field.
    ServeReply bad = splitResponse(server.handleLine(
        "{" + base + ", \"failMode\": \"maybe\"}", &shutdown));
    EXPECT_FALSE(bad.status.at("ok").asBool());
    EXPECT_NE(bad.status.at("error").asString().find("failMode"),
              std::string::npos)
        << bad.status.dump();
    EXPECT_EQ(server.stats().errors, 2u);
}

TEST(Serve, ProtocolOpsWorkWithoutASocket)
{
    ServeOptions options;
    options.socketPath = testing::TempDir() + "libra-serve-d.sock";
    Server server(std::move(options)); // Never started: handleLine
                                       // needs no socket.
    bool shutdown = false;
    std::string ping = server.handleLine("{\"op\": \"ping\"}",
                                         &shutdown);
    EXPECT_FALSE(shutdown);
    EXPECT_EQ(ping, "{\"ok\":true,\"op\":\"ping\",\"bytes\":0}\n");

    std::string bye = server.handleLine("{\"op\": \"shutdown\"}",
                                        &shutdown);
    EXPECT_TRUE(shutdown);
    EXPECT_EQ(bye, "{\"ok\":true,\"op\":\"shutdown\",\"bytes\":0}\n");

    std::string stats = server.handleLine("{\"op\": \"stats\"}",
                                          &shutdown);
    EXPECT_NE(stats.find("libra-serve-stats-v3"), std::string::npos);
    EXPECT_NE(stats.find("\"misses\""), std::string::npos);
    EXPECT_EQ(stats.find("coalesced"), std::string::npos);
    EXPECT_EQ(stats.find("inFlight"), std::string::npos);
}

} // namespace
} // namespace libra
