/**
 * @file
 * Serve-subsystem tests: the bounded LRU, the single-flight dedup
 * protocol, the layered ServeStore, and the Unix-domain-socket server
 * end to end — byte-identity with one-shot run-matrix emission,
 * exactly-once computation under concurrent identical requests, and
 * per-request error isolation. See docs/SERVE.md.
 */

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
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
#include "serve/single_flight.hh"
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

/** A report whose entryBytes is deterministic and non-trivial. */
LibraReport
sizedReport(std::size_t dims, double speedup = 1.0)
{
    LibraReport r;
    r.speedup = speedup;
    r.optimized.bw.assign(dims, 1.0);
    r.equalBw.bw.assign(dims, 1.0);
    return r;
}

TEST(ServeLru, ByteBudgetEvictsFromTheColdEndUntilUnderBudget)
{
    LibraReport r = sizedReport(4);
    const std::size_t per = LruCache::entryBytes("a", r);
    ASSERT_GT(per, 0u);

    // Room for exactly two same-sized entries, unbounded entry count.
    LruCache lru(0, 2 * per);
    lru.put("a", sizedReport(4, 1.0));
    lru.put("b", sizedReport(4, 2.0));
    EXPECT_EQ(lru.stats().entries, 2u);
    EXPECT_EQ(lru.stats().bytes, 2 * per);
    EXPECT_EQ(lru.stats().maxBytes, 2 * per);

    LibraReport out;
    ASSERT_TRUE(lru.get("a", &out)); // Promote "a"; "b" is coldest.

    lru.put("c", sizedReport(4, 3.0)); // Over budget: "b" must go.
    EXPECT_FALSE(lru.get("b", &out));
    EXPECT_TRUE(lru.get("a", &out));
    EXPECT_TRUE(lru.get("c", &out));
    EXPECT_EQ(lru.stats().entries, 2u);
    EXPECT_EQ(lru.stats().evictions, 1u);
    EXPECT_LE(lru.stats().bytes, lru.stats().maxBytes);
}

TEST(ServeLru, RefreshingAKeyReaccountsItsBytes)
{
    LruCache lru(0, 1 << 20);
    lru.put("k", sizedReport(4));
    EXPECT_EQ(lru.stats().bytes,
              LruCache::entryBytes("k", sizedReport(4)));
    lru.put("k", sizedReport(64)); // Bigger value, same key.
    EXPECT_EQ(lru.stats().entries, 1u);
    EXPECT_EQ(lru.stats().bytes,
              LruCache::entryBytes("k", sizedReport(64)));
}

TEST(ServeLru, AnEntryLargerThanTheWholeBudgetIsNotRetained)
{
    LibraReport big = sizedReport(1024);
    LruCache lru(0, LruCache::entryBytes("k", big) - 1);
    lru.put("k", big);
    LibraReport out;
    EXPECT_FALSE(lru.get("k", &out));
    EXPECT_EQ(lru.stats().entries, 0u);
    EXPECT_EQ(lru.stats().bytes, 0u);
    EXPECT_EQ(lru.stats().evictions, 1u);
}

TEST(ServeLru, ByteBudgetAloneEnablesTheCache)
{
    // capacity == 0 disables only when the byte budget is 0 too.
    LruCache lru(0, 1 << 20);
    lru.put("k", sizedReport(2, 5.0));
    LibraReport out;
    ASSERT_TRUE(lru.get("k", &out));
    EXPECT_EQ(out.speedup, 5.0);
}

// --- Single flight -----------------------------------------------------

TEST(SingleFlight, SecondClaimWaitsForTheOwnersResult)
{
    SingleFlight flight;
    ASSERT_EQ(flight.claim("k"), SingleFlight::Role::Owner);

    std::atomic<bool> waiterClaimed{false};
    std::atomic<bool> waiterDone{false};
    PointStatus waiterStatus;
    LibraReport waiterReport;
    std::thread waiter([&] {
        ASSERT_EQ(flight.claim("k"), SingleFlight::Role::Waiter);
        waiterClaimed = true;
        flight.await("k", &waiterStatus, &waiterReport);
        waiterDone = true;
    });

    // Publish only after the waiter holds its claim — publishing into
    // an unclaimed slot would (correctly) end the flight early.
    while (!waiterClaimed.load())
        std::this_thread::yield();
    PointStatus status;
    LibraReport report;
    report.speedup = 7.5;
    flight.publish("k", status, report);
    waiter.join();

    EXPECT_TRUE(waiterDone.load());
    EXPECT_TRUE(waiterStatus.ok);
    EXPECT_EQ(waiterReport.speedup, 7.5);
    EXPECT_EQ(flight.inFlight(), 0u);
}

TEST(SingleFlight, ManyConcurrentClaimsYieldExactlyOneOwner)
{
    SingleFlight flight;
    constexpr int kThreads = 8;
    std::atomic<int> owners{0};
    std::atomic<int> claimed{0};
    std::atomic<int> sharedFailures{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            SingleFlight::Role role = flight.claim("k");
            ++claimed;
            if (role == SingleFlight::Role::Owner) {
                ++owners;
                // Keep the flight open until every thread has claimed
                // — an instant publish would end it with no waiters and
                // let a later claim start a fresh (sequential) flight,
                // which is correct but not what this test probes.
                while (claimed.load() < kThreads)
                    std::this_thread::yield();
                // Failures are shared verbatim, like any outcome.
                PointStatus failed;
                failed.ok = false;
                failed.error = "boom";
                flight.publish("k", failed, LibraReport{});
            } else {
                PointStatus status;
                LibraReport report;
                flight.await("k", &status, &report);
                if (!status.ok && status.error == "boom")
                    ++sharedFailures;
            }
        });
    }
    for (auto& t : threads)
        t.join();
    EXPECT_EQ(owners.load(), 1);
    EXPECT_EQ(sharedFailures.load(), kThreads - 1);
    EXPECT_EQ(flight.inFlight(), 0u);
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

TEST(ServeStore, ClaimReprobesTheLruAfterWinningTheFlight)
{
    ServeStore store("", 8);
    LibraReport report;
    report.speedup = 3.0;

    // Key published by "another request" after our load miss: the
    // claim must come back Cached, not recompute.
    store.store(1, "k1", report);
    PointStatus status;
    LibraReport out;
    EXPECT_EQ(store.claimCompute("k1", &status, &out),
              StudyStore::Claim::Cached);
    EXPECT_TRUE(status.ok);
    EXPECT_EQ(out.speedup, 3.0);
    EXPECT_EQ(store.stats().inFlight, 0u);

    // A genuinely unseen key is Owned; after its publish cycle a new
    // claim is served from the LRU again.
    EXPECT_EQ(store.claimCompute("k2", &status, &out),
              StudyStore::Claim::Owned);
    store.store(2, "k2", report);
    status = PointStatus{};
    store.publishCompute("k2", status, report);
    EXPECT_EQ(store.claimCompute("k2", &status, &out),
              StudyStore::Claim::Cached);
    EXPECT_EQ(store.stats().inFlight, 0u);
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

TEST(Serve, ConcurrentIdenticalRequestsComputeEachPointOnce)
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

    // The single-flight invariant: across all concurrent identical
    // requests, each unique design point is optimized exactly once —
    // however the claims interleaved. Everything else was served from
    // the LRU or coalesced onto the owner's in-flight computation.
    double computed = 0.0;
    for (const ServeReply& reply : replies) {
        ASSERT_TRUE(reply.status.at("ok").asBool());
        computed += reply.status.at("computed").asNumber();
        EXPECT_EQ(reply.payload, expected);
    }
    EXPECT_EQ(computed, 2.0); // The scenario has 2 unique points.
    EXPECT_EQ(server.store().stats().inFlight, 0u);

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

    ServeReply typo = serveRequest(
        socket, "{\"scenario\": \"tbl1\", \"emitt\": \"json\"}");
    EXPECT_FALSE(typo.status.at("ok").asBool());
    EXPECT_NE(typo.status.at("error").asString().find(
                  "unknown request field"),
              std::string::npos);

    // The server survived all three and still answers correctly.
    ServeReply ok = serveRequest(socket, "{\"scenario\": \"tbl1\"}");
    EXPECT_TRUE(ok.status.at("ok").asBool());
    EXPECT_EQ(ok.payload, oneShotJson("tbl1"));
    EXPECT_EQ(server.stats().errors, 3u);

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

TEST(Serve, StatsExposeTheLruByteBudget)
{
    ServeOptions options;
    options.socketPath = testing::TempDir() + "libra-serve-g.sock";
    options.lruBytes = 123456;
    Server server(std::move(options));
    bool shutdown = false;
    std::string stats =
        server.handleLine("{\"op\": \"stats\"}", &shutdown);
    EXPECT_NE(stats.find("\"lruMaxBytes\": 123456"),
              std::string::npos);
    EXPECT_NE(stats.find("\"lruBytes\": "), std::string::npos);
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

TEST(Serve, WorkersFieldIsValidatedAndClampedByMaxWorkers)
{
    const std::string scenario = serveScenarioName();
    const std::string expected = oneShotJson(scenario);

    // maxWorkers defaults to 1: any requested count clamps to the
    // classic in-process path, so no worker executable is needed and
    // the payload cannot change.
    ServeOptions options;
    options.socketPath = testing::TempDir() + "libra-serve-h.sock";
    Server server(std::move(options)); // handleLine needs no socket.
    bool shutdown = false;

    const std::string base =
        "\"scenario\": \"" + scenario + "\", \"emit\": \"json\"";
    ServeReply clamped = splitResponse(server.handleLine(
        "{" + base + ", \"workers\": 64}", &shutdown));
    ASSERT_TRUE(clamped.status.at("ok").asBool())
        << clamped.status.dump();
    EXPECT_EQ(clamped.payload, expected);

    // Malformed counts are per-request errors, never server deaths.
    for (const char* bad :
         {"0", "-2", "2.5", "257", "\"2\"", "true"}) {
        ServeReply reply = splitResponse(server.handleLine(
            "{" + base + ", \"workers\": " + bad + "}", &shutdown));
        EXPECT_FALSE(reply.status.at("ok").asBool()) << bad;
    }
    ServeReply after = splitResponse(
        server.handleLine("{" + base + "}", &shutdown));
    ASSERT_TRUE(after.status.at("ok").asBool());
    EXPECT_EQ(after.payload, expected);

    // A cap above 1 without a configured worker executable surfaces
    // as a request error the moment sharding is actually asked for.
    ServeOptions uncfg;
    uncfg.socketPath = testing::TempDir() + "libra-serve-i.sock";
    uncfg.maxWorkers = 4;
    Server unconfigured(std::move(uncfg));
    ServeReply reply = splitResponse(unconfigured.handleLine(
        "{" + base + ", \"workers\": 2}", &shutdown));
    EXPECT_FALSE(reply.status.at("ok").asBool());
    EXPECT_NE(reply.status.at("error").asString().find("worker"),
              std::string::npos)
        << reply.status.dump();
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

#ifdef LIBRA_CLI_PATH

TEST(Serve, ShardedRequestsStayByteIdenticalToOneShot)
{
    // A registry scenario (not the locally registered test scenario —
    // forked workers rebuild the batch from the registry by name).
    const std::string scenario = "explore-frontier";
    const std::string expected = oneShotJson(scenario);

    ServeOptions options;
    options.socketPath = testing::TempDir() + "libra-serve-j.sock";
    options.maxWorkers = 2;
    options.workerExe = LIBRA_CLI_PATH;
    Server server(std::move(options));
    bool shutdown = false;

    const std::string base =
        "\"scenario\": \"" + scenario + "\", \"emit\": \"json\"";
    ServeReply sharded = splitResponse(server.handleLine(
        "{" + base + ", \"workers\": 2}", &shutdown));
    ASSERT_TRUE(sharded.status.at("ok").asBool())
        << sharded.status.dump();
    EXPECT_EQ(sharded.payload, expected);

    // The second sharded request is served from the store: the pool
    // never spawns when nothing needs computing.
    ServeReply cached = splitResponse(server.handleLine(
        "{" + base + ", \"workers\": 2}", &shutdown));
    ASSERT_TRUE(cached.status.at("ok").asBool());
    EXPECT_EQ(cached.status.at("computed").asNumber(), 0.0);
    EXPECT_EQ(cached.payload, expected);
}

#endif // LIBRA_CLI_PATH

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
    EXPECT_NE(stats.find("libra-serve-stats-v1"), std::string::npos);
}

} // namespace
} // namespace libra
