/**
 * @file
 * Sharded-execution and resume tests (docs/SHARDING.md,
 * docs/ROBUSTNESS.md).
 *
 * The slot map is tested in-process; the worker protocol is tested end
 * to end by spawning the real libra_cli binary (LIBRA_CLI_PATH,
 * injected by CMake) and comparing its matrix JSON byte for byte
 * across worker counts, cache states, and a kill-mid-run resume from
 * the cache.
 */

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/logging.hh"
#include "core/estimator.hh"
#include "core/study_config.hh"
#include "serve/framing.hh"
#include "study/cache.hh"
#include "study/shard.hh"

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

std::string
freshDir(const char* name)
{
    std::string dir = testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

// --- Slot map ----------------------------------------------------------

TEST(SlotMap, DedupsByContent)
{
    std::vector<LibraInputs> points;
    points.push_back(miniInputs());
    points.push_back(miniInputs("SEED 5\n"));
    points.push_back(miniInputs()); // Content-equal to points[0].

    SlotMap map = buildSlotMap(points);
    ASSERT_EQ(map.slotOf.size(), 3u);
    EXPECT_EQ(map.slots(), 2u);
    EXPECT_EQ(map.slotOf[0], map.slotOf[2]);
    EXPECT_NE(map.slotOf[0], map.slotOf[1]);
    EXPECT_EQ(map.slotKey[map.slotOf[0]],
              canonicalStudyKey(points[0]));
    EXPECT_EQ(map.slotHash[map.slotOf[0]],
              studyCacheHashOfKey(map.slotKey[map.slotOf[0]]));
    EXPECT_EQ(map.slotRep[map.slotOf[2]], 0u);
}

TEST(SlotMap, FingerprintIsStableAndOrderSensitive)
{
    std::vector<LibraInputs> points;
    points.push_back(miniInputs());
    points.push_back(miniInputs("SEED 5\n"));

    std::string fp = slotMapFingerprint(buildSlotMap(points));
    EXPECT_EQ(fp.size(), 16u);
    EXPECT_EQ(fp, slotMapFingerprint(buildSlotMap(points)));

    std::swap(points[0], points[1]); // Same content, new order.
    EXPECT_NE(fp, slotMapFingerprint(buildSlotMap(points)));
}

// --- End to end through libra_cli --------------------------------------

#ifdef LIBRA_CLI_PATH

/** Run `libra_cli run-matrix <args>`; returns the exit code. */
int
runCli(const std::string& args, const std::string& stderrPath = "")
{
    std::string cmd = std::string(LIBRA_CLI_PATH) + " run-matrix " +
                      args + " 2>" +
                      (stderrPath.empty() ? "/dev/null" : stderrPath);
    int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string
slurp(const std::string& path)
{
    std::ifstream f(path);
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

/**
 * Finished entries in cache @p dir (0 while it does not exist). A
 * store in progress is a `<entry>.json.tmp.<pid>.<seq>` file until its
 * rename, so only names ending in `.json` count.
 */
std::size_t
cacheEntries(const std::string& dir)
{
    std::error_code ec;
    std::size_t n = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir, ec))
        n += e.path().filename().string().ends_with(".json") ? 1 : 0;
    return n;
}

/** Unfinished stores (`.tmp.` files) in cache @p dir. */
std::size_t
tmpFiles(const std::string& dir)
{
    std::size_t n = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
        if (e.path().filename().string().find(".tmp.") !=
            std::string::npos)
            ++n;
    }
    return n;
}

/**
 * Exec `libra_cli run-matrix <args>` and SIGKILL it once @p cache
 * holds at least 8 finished entries — no cooperation from the victim.
 * Returns the finished entries the killed run left behind.
 */
std::size_t
killOnceCached(const std::vector<std::string>& args,
               const std::string& cache)
{
    // Built before the fork: the child of a threaded process may only
    // exec, not allocate.
    std::vector<char*> argv{const_cast<char*>(LIBRA_CLI_PATH),
                            const_cast<char*>("run-matrix")};
    for (const std::string& a : args)
        argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    pid_t pid = ::fork();
    if (pid < 0)
        return 0;
    if (pid == 0) {
        ::execv(LIBRA_CLI_PATH, argv.data());
        _exit(127);
    }
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < deadline) {
        if (cacheEntries(cache) >= 8)
            break;
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid) {
            pid = -1; // Finished before we could kill it (slow FS
                      // poll): resume still must be byte-identical.
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (pid > 0) {
        ::kill(pid, SIGKILL);
        int status = 0;
        ::waitpid(pid, &status, 0);
    }
    return cacheEntries(cache);
}

/** N of the "(U unique, N from cache, ...)" provenance line. */
std::size_t
fromCacheCount(const std::string& provenance)
{
    const std::string tag = " unique, ";
    auto pos = provenance.find(tag);
    if (pos == std::string::npos)
        return 0;
    return std::strtoull(provenance.c_str() + pos + tag.size(), nullptr,
                         10);
}

// The scenario the e2e tests shard: big enough for several batches
// per worker, small enough for smoke-test wall clock.
constexpr const char* kScenario = "explore-frontier";

TEST(ShardCli, WorkerCountsEmitByteIdenticalMatrixJson)
{
    // explore-frontier's points all ship as eval frames; fig21 adds
    // points with no study-file form, which stay in the master — one
    // static batch exercises both legs of the sweep.
    const std::string scenarios = std::string(kScenario) + " fig21";
    std::string dir = freshDir("libra-shard-e2e");
    std::string ref = dir + "/ref.json";
    ASSERT_EQ(runCli(scenarios + " --emit json --out " + ref), 0);
    const std::string expected = slurp(ref);
    ASSERT_FALSE(expected.empty());

    // Fresh sharded runs at several worker counts (1 = classic path).
    for (const char* workers : {"1", "2", "4"}) {
        std::string out = dir + "/w" + workers + ".json";
        ASSERT_EQ(runCli(scenarios + " --workers " + workers +
                         " --emit json --out " + out),
                  0)
            << "workers=" << workers;
        EXPECT_EQ(slurp(out), expected) << "workers=" << workers;
    }

    // Sharded against a cold then a warm cache: still the same bytes.
    std::string cache = dir + "/cache";
    for (const char* label : {"cold", "warm"}) {
        std::string out = dir + "/cache-" + label + ".json";
        ASSERT_EQ(runCli(scenarios + " --workers 2 --cache-dir " + cache +
                         " --emit json --out " + out),
                  0)
            << label;
        EXPECT_EQ(slurp(out), expected) << label;
    }

    std::filesystem::remove_all(dir);
}

TEST(ShardCli, KilledRunResumesFromTheCache)
{
    std::string dir = freshDir("libra-shard-kill");
    std::string ref = dir + "/ref.json";
    ASSERT_EQ(runCli(std::string(kScenario) + " --emit json --out " +
                     ref),
              0);
    const std::string expected = slurp(ref);

    // A plain in-process run stores each slot as it completes, so the
    // cache holds real progress when the kill lands.
    std::string cache = dir + "/cache";
    const std::size_t stored = killOnceCached(
        {kScenario, "--cache-dir", cache, "--emit", "json", "--out",
         dir + "/killed.json"},
        cache);
    ASSERT_GE(stored, 8u);

    // Resume is a rerun with the same cache: every stored slot comes
    // from the cache, the killed run's stray tmp file (if any) is
    // reaped, and the output is byte-identical to the uninterrupted
    // reference.
    std::string out = dir + "/resumed.json";
    std::string err = dir + "/resumed.err";
    ASSERT_EQ(runCli(std::string(kScenario) + " --cache-dir " + cache +
                     " --emit json --out " + out,
                     err),
              0);
    EXPECT_EQ(slurp(out), expected);
    EXPECT_GE(fromCacheCount(slurp(err)), stored) << slurp(err);
    EXPECT_EQ(tmpFiles(cache), 0u);

    std::filesystem::remove_all(dir);
}

TEST(ShardCli, ShardedRunFillsTheCacheForAnInProcessRerun)
{
    // A sharded run stores every slot its workers computed: an
    // in-process rerun serves all 80 from the cache, and both emit the
    // uncached single-process bytes.
    std::string dir = freshDir("libra-shard-fill");
    std::string cache = dir + "/cache";
    std::string ref = dir + "/ref.json";
    std::string out1 = dir + "/one.json";
    std::string out2 = dir + "/two.json";
    std::string err = dir + "/two.err";

    ASSERT_EQ(runCli(std::string(kScenario) + " --emit json --out " +
                     ref),
              0);
    ASSERT_EQ(runCli(std::string(kScenario) +
                     " --workers 2 --cache-dir " + cache +
                     " --emit json --out " + out1),
              0);
    EXPECT_EQ(cacheEntries(cache), 80u);

    ASSERT_EQ(runCli(std::string(kScenario) + " --cache-dir " + cache +
                     " --emit json --out " + out2,
                     err),
              0);
    EXPECT_EQ(slurp(out1), slurp(ref));
    EXPECT_EQ(slurp(out2), slurp(ref));
    EXPECT_NE(slurp(err).find("80 from cache"), std::string::npos);

    std::filesystem::remove_all(dir);
}

// --- Sharded adaptive exploration (eval frames) -------------------------

TEST(ShardCli, AdaptivePruneByteIdenticalAcrossWorkerCounts)
{
    std::string dir = freshDir("libra-shard-prune");
    std::string ref = dir + "/ref.json";
    ASSERT_EQ(runCli(std::string(kScenario) +
                     " --explore prune --emit json --out " + ref),
              0);
    const std::string expected = slurp(ref);
    ASSERT_FALSE(expected.empty());

    // Fresh sharded prune at several worker counts: the adaptive
    // rounds cross the wire as eval frames, the emitted bytes must
    // not notice.
    for (const char* workers : {"1", "2", "4"}) {
        std::string out = dir + "/w" + workers + ".json";
        ASSERT_EQ(runCli(std::string(kScenario) +
                         " --explore prune --workers " + workers +
                         " --emit json --out " + out),
                  0)
            << "workers=" << workers;
        EXPECT_EQ(slurp(out), expected) << "workers=" << workers;
    }

    // Cold cache (workers store through the master), then warm cache
    // (every adaptive round served without touching the pool).
    std::string cache = dir + "/cache";
    for (const char* label : {"cold", "warm"}) {
        std::string out = dir + "/cache-" + label + ".json";
        std::string err = dir + "/cache-" + label + ".err";
        ASSERT_EQ(runCli(std::string(kScenario) +
                         " --explore prune --workers 2 --cache-dir " +
                         cache + " --emit json --out " + out,
                         err),
                  0)
            << label;
        EXPECT_EQ(slurp(out), expected) << label;
        if (std::string(label) == "warm") {
            EXPECT_NE(slurp(err).find(" 0 computed"),
                      std::string::npos)
                << slurp(err);
        }
    }

    std::filesystem::remove_all(dir);
}

TEST(ShardCli, KilledShardedAdaptivePruneResumes)
{
    std::string dir = freshDir("libra-shard-prune-kill");
    std::string ref = dir + "/ref.json";
    ASSERT_EQ(runCli(std::string(kScenario) +
                     " --explore prune --emit json --out " + ref),
              0);
    const std::string expected = slurp(ref);

    // SIGKILL a sharded prune run mid-flight — slots completed by
    // eval frames, mid-round included, are already in the cache.
    std::string cache = dir + "/cache";
    const std::size_t stored = killOnceCached(
        {kScenario, "--explore", "prune", "--workers", "2",
         "--cache-dir", cache, "--emit", "json", "--out",
         dir + "/killed.json"},
        cache);
    ASSERT_GE(stored, 8u);

    // Resume sharded: stored slots come from the cache, and the
    // completed output is byte-identical to the uninterrupted
    // single-process reference.
    std::string out = dir + "/resumed.json";
    std::string err = dir + "/resumed.err";
    ASSERT_EQ(runCli(std::string(kScenario) +
                     " --explore prune --workers 2 --cache-dir " +
                     cache + " --emit json --out " + out,
                     err),
              0);
    EXPECT_EQ(slurp(out), expected);
    EXPECT_GE(fromCacheCount(slurp(err)), stored) << slurp(err);
    EXPECT_EQ(tmpFiles(cache), 0u);

    std::filesystem::remove_all(dir);
}

TEST(ShardPoolEval, WarmPoolServesEvalFramesAndRequeuesOnWorkerDeath)
{
    ShardOptions options;
    options.workers = 2;
    options.workerExe = LIBRA_CLI_PATH;
    ShardPool pool(options);
    ASSERT_EQ(pool.liveWorkers(), 2u);

    auto makeRound = [](int seedBase, std::size_t count) {
        std::vector<LibraInputs> round;
        for (std::size_t k = 0; k < count; ++k)
            round.push_back(miniInputs(
                ("SEED " + std::to_string(seedBase + int(k)) + "\n")
                    .c_str()));
        return round;
    };
    auto runRound = [&pool](const std::vector<LibraInputs>& round) {
        // Sparse, caller-chosen indices, as the adaptive sweep uses.
        std::vector<WirePoint> wire;
        for (std::size_t k = 0; k < round.size(); ++k) {
            WirePoint wp;
            wp.index = 2 * k + 1;
            wp.text = studyConfigToString(round[k]);
            wp.key = pointWireKey(round[k]);
            wire.push_back(std::move(wp));
        }
        std::map<std::size_t, std::string> got;
        pool.evaluatePoints(
            wire, [&](std::size_t slot, PointStatus status,
                      LibraReport report) {
                EXPECT_TRUE(status.ok) << status.error;
                EXPECT_TRUE(
                    got.emplace(slot, reportToJson(report).dump())
                        .second)
                    << "item " << slot << " delivered twice";
            });
        return got;
    };
    auto expectMatchesInProcess =
        [](const std::map<std::size_t, std::string>& got,
           const std::vector<LibraInputs>& round) {
            SweepOutcome ref = runLibraSweepIsolated(round);
            ASSERT_EQ(got.size(), round.size());
            for (std::size_t k = 0; k < round.size(); ++k)
                EXPECT_EQ(got.at(2 * k + 1),
                          reportToJson(ref.reports[k]).dump())
                    << "point " << k;
        };

    // Round 1: eval frames come back bit-identical to in-process.
    std::vector<LibraInputs> round1 = makeRound(100, 6);
    expectMatchesInProcess(runRound(round1), round1);

    // Kill one worker between rounds; the next round's batches that
    // land on the corpse get requeued to the survivor, and the warm
    // pool still delivers every result.
    std::vector<pid_t> pids = pool.workerPids();
    ASSERT_EQ(pids.size(), 2u);
    ::kill(pids.front(), SIGKILL);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    std::vector<LibraInputs> round2 = makeRound(200, 6);
    expectMatchesInProcess(runRound(round2), round2);
    EXPECT_EQ(pool.liveWorkers(), 1u);

    pool.shutdown();
}

// --- Handshake and init-frame validation --------------------------------

/** Frame status `{"ok":true,"op":<op>}`. */
Json
opStatus(const char* op)
{
    Json status = Json::object();
    status["ok"] = true;
    status["op"] = op;
    return status;
}

TEST(ShardPoolHandshake, WorkerWithAnotherEngineVersionIsRejected)
{
    // A stand-in worker that reads the init status line and answers
    // ready with an engine version this build does not run.
    Json ready = Json::object();
    ready["engineVersion"] =
        static_cast<std::size_t>(kStudyCacheVersion + 1);
    const std::string frame =
        frameMessage(opStatus("ready"), ready.dump());
    std::string dir = freshDir("libra-shard-skew");
    std::string script = dir + "/skewed-worker";
    {
        std::ofstream f(script);
        f << "#!/bin/sh\nread -r status\nprintf '%s' '" << frame
          << "'\nexec cat > /dev/null\n";
    }
    ASSERT_EQ(::chmod(script.c_str(), 0755), 0);

    ShardOptions options;
    options.workers = 2;
    options.workerExe = script;
    try {
        ShardPool pool(options);
        ADD_FAILURE() << "a skewed worker passed the handshake";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("out of sync"),
                  std::string::npos)
            << e.what();
    }
    std::filesystem::remove_all(dir);
}

TEST(ShardPoolEval, ResultFramesForAnotherBatchOrItemAreFatal)
{
    Json ready = Json::object();
    ready["engineVersion"] = static_cast<std::size_t>(kStudyCacheVersion);
    const std::string readyFrame =
        frameMessage(opStatus("ready"), ready.dump());

    // Batch 0 holds the one point, item 0. Each stand-in worker
    // answers the handshake, waits for the eval frame's status line,
    // then answers with a result whose id or index cannot be cast to
    // an integer safely.
    Json badId = opStatus("result");
    badId["id"] = 1e300;
    Json okId = opStatus("result");
    okId["id"] = 0;
    const std::pair<const char*, std::string> cases[] = {
        {"id 1e300",
         frameMessage(std::move(badId),
                      "{\"results\":[{\"index\":0,\"ok\":false,"
                      "\"error\":\"x\"}]}")},
        {"index -1",
         frameMessage(std::move(okId),
                      "{\"results\":[{\"index\":-1,\"ok\":false,"
                      "\"error\":\"x\"}]}")},
    };
    const LibraInputs point = miniInputs();
    const std::vector<WirePoint> wire = {
        {0, studyConfigToString(point), pointWireKey(point)}};

    std::string dir = freshDir("libra-shard-badresult");
    for (const auto& [what, result] : cases) {
        std::string script = dir + "/bad-worker";
        {
            std::ofstream f(script);
            f << "#!/bin/sh\nread -r init\nprintf '%s' '" << readyFrame
              << "'\nread -r eval\nprintf '%s' '" << result
              << "'\nexec cat > /dev/null\n";
        }
        ASSERT_EQ(::chmod(script.c_str(), 0755), 0);

        ShardOptions options;
        options.workers = 2;
        options.workerExe = script;
        ShardPool pool(options);
        const std::vector<pid_t> pids = pool.workerPids();
        ASSERT_EQ(pids.size(), 2u);
        EXPECT_THROW(pool.evaluatePoints(
                         wire,
                         [&](std::size_t, PointStatus, LibraReport) {
                             ADD_FAILURE() << what << " was delivered";
                         }),
                     FatalError)
            << what;
        // Killed and reaped: no worker process is left running.
        EXPECT_EQ(pool.liveWorkers(), 0u) << what;
        for (pid_t pid : pids)
            EXPECT_NE(::kill(pid, 0), 0) << what << " pid " << pid;
    }
    std::filesystem::remove_all(dir);
}

/**
 * Spawn `libra_cli worker` on a socketpair (stderr to /dev/null) and
 * return its pid, or -1; @p fd receives the master's end.
 */
pid_t
spawnWorker(int* fd)
{
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
        return -1;
    pid_t pid = ::fork();
    if (pid == 0) {
        ::dup2(sv[1], 0);
        ::dup2(sv[1], 1);
        int devnull = ::open("/dev/null", O_WRONLY);
        ::dup2(devnull, 2);
        ::close(sv[0]);
        ::close(sv[1]);
        ::execl(LIBRA_CLI_PATH, LIBRA_CLI_PATH, "worker",
                static_cast<char*>(nullptr));
        _exit(127);
    }
    ::close(sv[1]);
    *fd = sv[0];
    return pid;
}

/**
 * Spawn a worker, send one init frame with @p payload, and return the
 * worker's reply status and exit code (closing the channel right
 * after the reply, so a healthy worker sees EOF and exits 0).
 */
std::pair<Json, int>
workerInitReply(const std::string& payload)
{
    int fd = -1;
    pid_t pid = spawnWorker(&fd);
    if (pid < 0)
        return {Json(), -1};
    Json status;
    if (sendAllFd(fd, frameMessage(opStatus("init"), payload))) {
        FrameBuffer buffer("test");
        status = readFrameFd(fd, buffer, "test").status;
    }
    ::close(fd);
    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);
    return {status, WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1};
}

TEST(ShardWorker, InitThreadsOutsideTheCliRangeAreAnsweredNotFatal)
{
    // In range: the worker answers ready and leaves cleanly on EOF.
    auto [ok, okCode] = workerInitReply("{\"threads\": 1}");
    ASSERT_TRUE(ok.isObject());
    EXPECT_TRUE(ok.at("ok").asBool()) << ok.dump();
    EXPECT_EQ(ok.at("op").asString(), "ready");
    EXPECT_EQ(okCode, 0);

    // Out of range: an error frame and exit code 1, never an abort
    // from sizing a thread pool with a raw cast.
    for (const char* payload :
         {"{\"threads\": -1}", "{\"threads\": 1e9}",
          "{\"threads\": 0}", "{\"threads\": 2.5}"}) {
        auto [status, code] = workerInitReply(payload);
        ASSERT_TRUE(status.isObject()) << payload;
        EXPECT_FALSE(status.at("ok").asBool()) << payload;
        EXPECT_NE(status.at("error").asString().find("1..4096"),
                  std::string::npos)
            << status.dump();
        EXPECT_EQ(code, 1) << payload;
    }
}

TEST(ShardWorker, MasterResetWithAResultUnreadIsACleanExit)
{
    // A master killed while a result frame sits unread in its socket
    // makes the worker's next recv fail with ECONNRESET instead of
    // returning 0. The master is gone either way, so the worker must
    // take the clean-EOF exit (0), not the fatal one.
    int fd = -1;
    const pid_t pid = spawnWorker(&fd);
    ASSERT_GT(pid, 0);
    ASSERT_TRUE(sendAllFd(
        fd, frameMessage(opStatus("init"), "{\"threads\": 1}")));
    FrameBuffer buffer("test");
    EXPECT_EQ(readFrameFd(fd, buffer, "test").status.at("op").asString(),
              "ready");

    const LibraInputs point = miniInputs();
    Json eval = opStatus("eval");
    eval["id"] = 0;
    ASSERT_TRUE(sendAllFd(
        fd,
        frameMessage(std::move(eval),
                     evalPayloadJson({{0, studyConfigToString(point),
                                       pointWireKey(point)}})
                         .dump())));

    // Wait until the whole result frame is queued (peeked, not read),
    // then close with it unread.
    std::vector<char> peek(1 << 20);
    bool queued = false;
    while (!queued) {
        pollfd pfd{fd, POLLIN, 0};
        ASSERT_EQ(::poll(&pfd, 1, 60000), 1) << "no result frame";
        ssize_t n = ::recv(fd, peek.data(), peek.size(), MSG_PEEK);
        ASSERT_GT(n, 0);
        FrameBuffer probe("test");
        probe.append(peek.data(), static_cast<std::size_t>(n));
        queued = probe.next().has_value();
        if (!queued)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ::close(fd);

    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus));
    EXPECT_EQ(WEXITSTATUS(wstatus), 0);
}

#endif // LIBRA_CLI_PATH

} // namespace
} // namespace libra
