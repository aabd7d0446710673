/**
 * @file
 * Tests for the design-study configuration parser.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "core/study_config.hh"

namespace libra {
namespace {

TEST(StudyConfig, ParsesFullStudy)
{
    LibraInputs in = parseStudyConfigString(R"(
# full study
NETWORK RI(16)_FC(8)_SW(32)
TOTAL_BW 400
OBJECTIVE PERF_PER_COST
LOOP TP_DP_OVERLAP
CONSTRAINT B3 <= 50
CONSTRAINT B1 >= B2
WORKLOAD gpt3
WORKLOAD msft1t WEIGHT 2.5
NORMALIZE_WEIGHTS
IN_NETWORK
STARTS 5
SEED 7
)");
    EXPECT_EQ(in.networkShape, "RI(16)_FC(8)_SW(32)");
    EXPECT_DOUBLE_EQ(in.config.totalBw, 400.0);
    EXPECT_EQ(in.config.objective,
              OptimizationObjective::PerfPerCostOpt);
    EXPECT_EQ(in.config.estimator.loop, TrainingLoop::TpDpOverlap);
    EXPECT_TRUE(in.config.estimator.inNetworkCollectives);
    EXPECT_EQ(in.config.constraints.size(), 2u);
    ASSERT_EQ(in.targets.size(), 2u);
    EXPECT_EQ(in.targets[0].workload.name, "GPT-3");
    EXPECT_EQ(in.targets[0].workload.strategy.npus(), 4096);
    EXPECT_DOUBLE_EQ(in.targets[1].weight, 2.5);
    EXPECT_TRUE(in.normalizeTargetWeights);
    EXPECT_EQ(in.config.search.starts, 5);
    EXPECT_EQ(in.config.search.seed, 7u);
}

TEST(StudyConfig, ZooNamesSizedToNetwork)
{
    LibraInputs in = parseStudyConfigString(
        "NETWORK SW(16)_SW(8)_SW(4)\nWORKLOAD resnet50\n");
    EXPECT_EQ(in.targets[0].workload.strategy.npus(), 512);
}

TEST(StudyConfig, CostOverride)
{
    LibraInputs in = parseStudyConfigString(
        "NETWORK RI(4)_SW(2)\nWORKLOAD resnet50\n"
        "COST Pod LINK 9.9 NIC 40.0\n");
    ComponentCost c = in.costModel.levelCost(PhysicalLevel::Pod);
    EXPECT_DOUBLE_EQ(c.link, 9.9);
    EXPECT_DOUBLE_EQ(c.nic, 40.0);
    // Unmentioned components keep the defaults.
    EXPECT_DOUBLE_EQ(c.switch_, 18.0);
}

TEST(StudyConfig, DollarCapRelaxesBudget)
{
    LibraInputs in = parseStudyConfigString(
        "NETWORK RI(4)_SW(2)\nWORKLOAD resnet50\nDOLLAR_CAP 1e6\n");
    EXPECT_DOUBLE_EQ(in.config.budgetCap, 1e6);
    EXPECT_TRUE(in.config.relaxTotalBw);
}

TEST(StudyConfig, ZooNameResolution)
{
    EXPECT_EQ(zooWorkloadByName("Turing-NLG", 1024).name, "Turing-NLG");
    EXPECT_EQ(zooWorkloadByName("GPT-3", 1024).name, "GPT-3");
    EXPECT_EQ(zooWorkloadByName("msft-1t", 4096).name, "MSFT-1T");
    EXPECT_THROW(zooWorkloadByName("nope", 64), FatalError);
}

TEST(StudyConfig, Errors)
{
    auto expectError = [](const char* text, const char* needle) {
        try {
            parseStudyConfigString(text);
            FAIL() << "expected FatalError for: " << text;
        } catch (const FatalError& e) {
            EXPECT_NE(std::string(e.what()).find(needle),
                      std::string::npos)
                << e.what();
        }
    };
    expectError("WORKLOAD gpt3\n", "no NETWORK");
    expectError("NETWORK RI(4)\n", "no WORKLOAD");
    expectError("NETWORK RI(4)\nWORKLOAD bogus\n", "unknown zoo");
    expectError("NETWORK RI(4)\nOBJECTIVE FASTEST\nWORKLOAD dlrm\n",
                "unknown objective");
    expectError("NETWORK RI(4)\nLOOP YOLO\nWORKLOAD dlrm\n",
                "unknown loop");
    expectError("NETWORK RI(4)\nCONSTRAINT\nWORKLOAD dlrm\n",
                "empty constraint");
    expectError("NETWORK RI(4)\nBOGUS 1\nWORKLOAD dlrm\n",
                "unknown keyword");
    expectError("NETWORK RI(4)\nWORKLOAD dlrm WAIT 2\n",
                "expected WEIGHT");
    expectError("NETWORK RI(4)\nWORKLOAD_FILE /no/such/file.wl\n",
                "cannot open");
    expectError("NETWORK RI(4)\nCOST Podd LINK 1\nWORKLOAD dlrm\n",
                "unknown physical level");
}

TEST(StudyConfig, NonFiniteNumbersAreRejectedWithTheirLine)
{
    for (const char* bad : {"nan", "NaN", "inf", "-inf", "infinity"}) {
        SCOPED_TRACE(bad);
        const std::string b = bad;
        for (const std::string& text :
             {"NETWORK RI(4)\nTOTAL_BW " + b + "\nWORKLOAD dlrm\n",
              "NETWORK RI(4)\nDOLLAR_CAP " + b + "\nWORKLOAD dlrm\n",
              "NETWORK RI(4)\nWORKLOAD dlrm WEIGHT " + b + "\n",
              "NETWORK RI(4)\nCOST Pod LINK " + b + "\nWORKLOAD dlrm\n"}) {
            try {
                parseStudyConfigString(text);
                ADD_FAILURE() << "accepted: " << text;
            } catch (const FatalError& e) {
                EXPECT_NE(std::string(e.what()).find("study line 2: bad "),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

// Each numeric directive declares its range; a value outside it, or a
// non-integer where an integer is due, is an error naming the line. So
// is a token after the last one a directive takes (every directive but
// CONSTRAINT and COST takes a fixed number).
TEST(StudyConfig, OutOfRangeNumbersAreRejectedWithTheirLine)
{
    const std::pair<const char*, const char*> cases[] = {
        {"TOTAL_BW 0", "bad total BW '0'"},
        {"TOTAL_BW 1e7", "bad total BW '1e7'"},
        {"DOLLAR_CAP 0", "bad dollar cap '0'"},
        {"DOLLAR_CAP -1", "bad dollar cap '-1'"},
        {"DOLLAR_CAP 1e16", "bad dollar cap '1e16'"},
        {"COST Pod LINK -7", "bad cost value '-7'"},
        {"COST Pod NIC 1e308", "bad cost value '1e308'"},
        {"STARTS -3", "bad start count '-3'"},
        {"STARTS 1e30", "bad start count '1e30'"},
        {"STARTS 4097", "bad start count '4097'"},
        {"STARTS 3.0", "bad start count '3.0'"},
        {"THREADS 0", "bad thread count '0'"},
        {"THREADS 2.5", "bad thread count '2.5'"},
        {"MAX_EVALS -1", "bad eval budget '-1'"},
        {"MAX_EVALS 1e3", "bad eval budget '1e3'"},
        {"SEED -1", "bad seed '-1'"},
        {"SEED 18446744073709551616", "bad seed '18446744073709551616'"},
        {"SEED 1e3", "bad seed '1e3'"},
        {"NETWORK RI(4) FC(8)", "unexpected 'FC(8)'"},
        {"TOTAL_BW 500 900", "unexpected '900'"},
        {"OBJECTIVE PERF PERF_PER_COST", "unexpected 'PERF_PER_COST'"},
        {"LOOP NO_OVERLAP TP_DP_OVERLAP", "unexpected 'TP_DP_OVERLAP'"},
        {"DOLLAR_CAP 1e7 2e7", "unexpected '2e7'"},
        {"THREADS 2 4", "unexpected '4'"},
        {"BACKEND analytical chunk-sim", "unexpected 'chunk-sim'"},
        {"EXPLORE prune exhaustive", "unexpected 'exhaustive'"},
        {"SEED 1 2", "unexpected '2'"},
        {"STARTS 3 4", "unexpected '4'"},
        {"MAX_EVALS 240 480", "unexpected '480'"},
        {"NORMALIZE_WEIGHTS yes", "unexpected 'yes'"},
        {"IN_NETWORK yes", "unexpected 'yes'"},
        {"WORKLOAD dlrm WEIGHT 2 3", "unexpected '3'"},
        {"WORKLOAD_FILE a.wl WEIGHT 2 3", "unexpected '3'"},
    };
    for (const auto& [line, error] : cases) {
        SCOPED_TRACE(line);
        try {
            parseStudyConfigString("NETWORK RI(4)\n" + std::string(line) +
                                   "\nWORKLOAD dlrm\n");
            ADD_FAILURE() << "accepted";
        } catch (const FatalError& e) {
            EXPECT_NE(std::string(e.what()).find(
                          "study line 2: " + std::string(error)),
                      std::string::npos)
                << e.what();
        }
    }
    for (const char* weight : {"-1", "0"}) {
        SCOPED_TRACE(weight);
        EXPECT_THROW(parseStudyConfigString(
                         "NETWORK RI(4)\nWORKLOAD dlrm WEIGHT " +
                         std::string(weight) + "\n"),
                     FatalError);
    }
    // The range ends themselves are values.
    LibraInputs edge = parseStudyConfigString(
        "NETWORK RI(4)\nTOTAL_BW 1e6\nDOLLAR_CAP 1e15\nSTARTS 0\n"
        "COST Pod LINK 0 SWITCH 1e6\nSEED 18446744073709551615\n"
        "WORKLOAD dlrm WEIGHT 1e6\n");
    EXPECT_EQ(edge.config.totalBw, 1e6);
    EXPECT_EQ(edge.config.budgetCap, 1e15);
    EXPECT_EQ(edge.config.search.starts, 0);
    EXPECT_EQ(edge.config.search.seed, 18446744073709551615ull);
    EXPECT_EQ(edge.targets[0].weight, 1e6);
}

TEST(StudyConfig, EndToEndThroughFramework)
{
    LibraInputs in = parseStudyConfigString(R"(
NETWORK FC(8)_RI(8)_SW(8)
TOTAL_BW 300
OBJECTIVE PERF
WORKLOAD gpt3
STARTS 2
)");
    LibraReport r = runLibra(in);
    EXPECT_GE(r.speedup, 1.0 - 1e-6);
}

#ifdef LIBRA_CLI_PATH

/** Outcome of one `libra_cli <study>` run. */
struct CliRun
{
    bool exited = false; ///< False when a signal ended the process.
    int status = -1;     ///< Exit status, when exited.
    std::string err;     ///< Everything written to stderr.
};

/** Everything `libra_cli <args>` writes to stdout. */
std::string
cliOutput(const std::string& args)
{
    std::string text;
    FILE* pipe = ::popen((LIBRA_CLI_PATH " " + args).c_str(), "r");
    char buf[512];
    std::size_t n;
    while (pipe && (n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
        text.append(buf, n);
    if (pipe)
        ::pclose(pipe);
    return text;
}

/** Run `libra_cli <args>` with stdout sent to @p outPath. */
CliRun
runCli(const std::string& args, const std::string& outPath = "/dev/null")
{
    std::string errPath = ::testing::TempDir() + "libra_cli.err";
    std::string cmd = std::string(LIBRA_CLI_PATH) + " " + args + " >" +
                      outPath + " 2>" + errPath;
    int raw = std::system(cmd.c_str());
    CliRun run;
    // The shell reports a child killed by signal N as exit 128 + N.
    run.exited = WIFEXITED(raw) && WEXITSTATUS(raw) < 128;
    run.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
    std::ostringstream err;
    err << std::ifstream(errPath).rdbuf();
    run.err = err.str();
    return run;
}

/**
 * `libra_cli --example` with each (from, to) of @p edits applied to
 * its first occurrence, run as a study file.
 */
CliRun
runMutatedExample(const std::vector<std::pair<std::string, std::string>>&
                      edits)
{
    std::string study = ::testing::TempDir() + "libra_nonfinite.study";
    std::string text = cliOutput("--example");
    for (const auto& [from, to] : edits) {
        auto at = text.find(from);
        if (at == std::string::npos) {
            ADD_FAILURE() << "example study has no '" << from << "'";
            return {};
        }
        text.replace(at, from.size(), to);
    }
    std::ofstream(study) << text;
    return runCli(study);
}

/** @p run ended with exit 1, not a signal, and @p needle on stderr. */
void
expectFatalExit(const CliRun& run, const std::string& needle)
{
    EXPECT_TRUE(run.exited) << "status " << run.status;
    EXPECT_EQ(run.status, 1);
    EXPECT_NE(run.err.find(needle), std::string::npos) << run.err;
}

// Each of these one-line edits to the example study used to end the
// CLI in SIGSEGV; non-finite numbers are now study errors.

TEST(StudyConfigCli, NanTotalBwExitsOneNamingTheLine)
{
    expectFatalExit(
        runMutatedExample({{"\nTOTAL_BW 500\n", "\nTOTAL_BW nan\n"}}),
        "study line 3: bad total BW 'nan'");
}

TEST(StudyConfigCli, InfTotalBwExitsOneNamingTheLine)
{
    expectFatalExit(
        runMutatedExample({{"\nTOTAL_BW 500\n", "\nTOTAL_BW inf\n"}}),
        "study line 3: bad total BW 'inf'");
}

TEST(StudyConfigCli, NanWeightExitsOneNamingTheLine)
{
    expectFatalExit(
        runMutatedExample({{"\nWORKLOAD gpt3\n",
                            "\nWORKLOAD gpt3 WEIGHT nan\n"}}),
        "study line 7: bad weight 'nan'");
}

TEST(StudyConfigCli, NanLinkCostUnderPerfPerCostExitsOneNamingTheLine)
{
    expectFatalExit(
        runMutatedExample({{"OBJECTIVE PERF ", "OBJECTIVE PERF_PER_COST "},
                           {"# COST Pod LINK 7.8", "COST Pod LINK nan"}}),
        "study line 13: bad cost value 'nan'");
}

// A finite 1e308 price under a DOLLAR_CAP used to crash the final
// polish (SIGSEGV), then fail late with "no search start reached a
// feasible point". Prices are in [0, 1e6], so each of the three now
// fails at parse time, naming its COST line.
TEST(StudyConfigCli, HugeCostUnderDollarCapExitsOne)
{
    for (const char* cost : {"COST Pod LINK 1e308 SWITCH 18.0 NIC 31.6",
                             "COST Pod LINK 7.8 SWITCH 1e308 NIC 31.6",
                             "COST Pod LINK 7.8 SWITCH 18.0 NIC 1e308"}) {
        SCOPED_TRACE(cost);
        expectFatalExit(
            runMutatedExample(
                {{"OBJECTIVE PERF ", "OBJECTIVE PERF_PER_COST "},
                 {"# COST Pod LINK 7.8 SWITCH 18.0 NIC 31.6", cost},
                 {"# DOLLAR_CAP", "DOLLAR_CAP"}}),
            "fatal: study line 13: bad cost value '1e308'");
    }
}

// These edits used to exit 0 with a wrong answer (a negative weight
// or price, a second TOTAL_BW or OBJECTIVE value), reach a study that
// cannot be serialized (a DOLLAR_CAP of 0 or -1), or cast an
// out-of-range double to int (STARTS). Each is now outside its
// directive's range or arity.
TEST(StudyConfigCli, OutOfRangeStudyNumbersExitOneNamingTheLine)
{
    using Edits = std::vector<std::pair<std::string, std::string>>;
    const std::pair<Edits, std::string> cases[] = {
        {{{"\nWORKLOAD gpt3\n", "\nWORKLOAD gpt3 WEIGHT -1\n"}},
         "study line 7: bad weight '-1'"},
        {{{"OBJECTIVE PERF ", "OBJECTIVE PERF_PER_COST "},
          {"# COST Pod LINK 7.8", "COST Pod LINK -7"}},
         "study line 13: bad cost value '-7'"},
        {{{"# DOLLAR_CAP 1.5e7", "DOLLAR_CAP 0"}},
         "study line 14: bad dollar cap '0'"},
        {{{"# DOLLAR_CAP 1.5e7", "DOLLAR_CAP -1"}},
         "study line 14: bad dollar cap '-1'"},
        {{{"NORMALIZE_WEIGHTS\n", "NORMALIZE_WEIGHTS\nSTARTS -3\n"}},
         "study line 10: bad start count '-3'"},
        {{{"NORMALIZE_WEIGHTS\n", "NORMALIZE_WEIGHTS\nSTARTS 1e30\n"}},
         "study line 10: bad start count '1e30'"},
        {{{"\nTOTAL_BW 500\n", "\nTOTAL_BW 500 900\n"}},
         "study line 3: unexpected '900'"},
        {{{"OBJECTIVE PERF ", "OBJECTIVE PERF PERF_PER_COST "}},
         "study line 4: unexpected 'PERF_PER_COST'"},
    };
    for (const auto& [edits, error] : cases) {
        SCOPED_TRACE(error);
        expectFatalExit(runMutatedExample(edits), "fatal: " + error);
    }
}

// The constraint grammar's index and number scans used to leak
// std::stoul's and std::stod's range errors: exit 2 with "internal
// error". Both are constraint errors now.
TEST(StudyConfigCli, OutOfRangeConstraintTokensExitOneNamingTheConstraint)
{
    for (const std::string constraint :
         {"B99999999999999999999999 <= 50", "B3 <= 1e-320"}) {
        SCOPED_TRACE(constraint);
        expectFatalExit(
            runMutatedExample({{"CONSTRAINT B4 <= 50",
                                "CONSTRAINT " + constraint}}),
            "fatal: constraint ' " + constraint + "'");
    }
}

// NETWORK group sizes and hierarchy depths past int range leaked
// std::stoi's range error (exit 2, "internal error: stoi"), and four
// 65536-wide switches overflowed the NPU product into a misleading
// parallelization error. Each now names the shape and exits 1.
TEST(StudyConfigCli, OutOfRangeNetworkNumbersExitOneNamingTheShape)
{
    const std::pair<std::string, std::string> cases[] = {
        {"RI(99999999999999999999999)_FC(8)",
         "group size 99999999999999999999999 is not in [2, 1073741824]"},
        {"RI(4294967297)_FC(8)",
         "group size 4294967297 is not in [2, 1073741824]"},
        {"RI(4:99999999999)_FC(8)",
         "hierarchy depth 99999999999 is not in [1, 64]"},
        {"SW(65536)_SW(65536)_SW(65536)_SW(65536)",
         "more than 1073741824 NPUs"},
    };
    for (const auto& [shape, error] : cases) {
        SCOPED_TRACE(shape);
        expectFatalExit(
            runMutatedExample({{"NETWORK RI(4)_FC(8)_RI(4)_SW(32)",
                                "NETWORK " + shape}}),
            "fatal: network '" + shape + "': " + error);
    }
}

/**
 * A one-layer workload file for the example's 4096-NPU network, with
 * @p from replaced by @p to, added as a WORKLOAD_FILE to the example
 * study with @p studyEdits applied.
 */
CliRun
runExampleWithWorkloadFile(
    const std::string& from, const std::string& to,
    std::vector<std::pair<std::string, std::string>> studyEdits = {})
{
    std::string text = "WORKLOAD hostile\n"
                       "STRATEGY TP 4 PP 1 DP 1024\n"
                       "LAYER only\n"
                       "  FWD_COMPUTE 0.01\n"
                       "  FWD_COMM ALLREDUCE TP 1e8\n"
                       "  WG_COMM ALLREDUCE DP 1e8\n"
                       "END\n";
    auto at = text.find(from);
    if (at == std::string::npos) {
        ADD_FAILURE() << "workload file has no '" << from << "'";
        return {};
    }
    text.replace(at, from.size(), to);
    std::string path = ::testing::TempDir() + "libra_hostile.wl";
    std::ofstream(path) << text;
    studyEdits.push_back(
        {"# WORKLOAD_FILE my_profiled_model.wl", "WORKLOAD_FILE " + path});
    return runMutatedExample(studyEdits);
}

// The workload parser accepted what the study parser rejects: a
// non-finite size or compute time failed later as "no search start
// reached a feasible point", and a negative compute time ran to a
// negative iteration time with exit 0.
TEST(StudyConfigCli, WorkloadFileNumbersExitOneNamingTheLine)
{
    EXPECT_EQ(runExampleWithWorkloadFile("", "").status, 0);
    for (const char* bad : {"inf", "nan", "-1e8"}) {
        SCOPED_TRACE(bad);
        expectFatalExit(runExampleWithWorkloadFile("TP 1e8", "TP " +
                                                                std::string(bad)),
                        "workload line 5: bad collective size '" +
                            std::string(bad) + "'");
    }
    for (const char* bad : {"inf", "nan", "-1"}) {
        SCOPED_TRACE(bad);
        expectFatalExit(runExampleWithWorkloadFile(
                            "FWD_COMPUTE 0.01",
                            "FWD_COMPUTE " + std::string(bad)),
                        "workload line 4: bad compute time '" +
                            std::string(bad) + "'");
    }
}

// Finite but absurd workload numbers used to pass: a fractional or
// huge parallelization size was truncated or misreported, a 1e308
// compute time printed a 300-digit time, and a 1e18-byte collective
// overflowed chunk-sim's picosecond ticks into a wrong answer with
// exit 0.
TEST(StudyConfigCli, WorkloadFileOutOfRangeNumbersExitOneNamingTheLine)
{
    const std::pair<std::pair<std::string, std::string>, std::string>
        cases[] = {
            {{"TP 4 ", "TP 16.5 "},
             "workload line 2: bad strategy size '16.5'"},
            {{"TP 4 ", "TP 1e30 "},
             "workload line 2: bad strategy size '1e30'"},
            {{"FWD_COMPUTE 0.01", "FWD_COMPUTE 1e308"},
             "workload line 4: bad compute time '1e308'"},
            {{"TP 1e8", "TP 1e308"},
             "workload line 5: bad collective size '1e308'"},
        };
    for (const auto& [edit, error] : cases) {
        SCOPED_TRACE(error);
        expectFatalExit(runExampleWithWorkloadFile(edit.first, edit.second),
                        "fatal: " + error);
    }
    expectFatalExit(
        runExampleWithWorkloadFile(
            "TP 1e8", "TP 1e18",
            {{"# BACKEND chunk-sim", "BACKEND chunk-sim"}}),
        "workload line 5: bad collective size '1e18'");
}

// The four `list* --emit json` commands iterate the registries; pin
// their schema and registration order through the real CLI.

/** `libra_cli <command> --emit json`, envelope checked. */
Json
listJson(const std::string& command, const std::string& registry)
{
    Json j = Json::parse(cliOutput(command + " --emit json"));
    EXPECT_EQ(j.at("schema").asString(), "libra-registry-v1");
    EXPECT_EQ(j.at("registry").asString(), registry);
    return j;
}

/** The @p field of every entry, in emission order. */
std::vector<std::string>
entryStrings(const Json& list, const std::string& field)
{
    std::vector<std::string> out;
    for (const Json& e : list.at("entries").items())
        out.push_back(e.at(field).asString());
    return out;
}

using Names = std::vector<std::string>;

TEST(RegistryCli, ListEmitsScenariosInRegistrationOrder)
{
    Json j = listJson("list", "scenarios");
    EXPECT_EQ(entryStrings(j, "name"),
              (Names{"tbl1", "tbl2", "tbl3", "fig09", "fig10", "fig13",
                     "fig14", "fig15", "fig16", "fig17", "fig18",
                     "fig21", "explore-frontier", "frontier-xl",
                     "crossval"}));
    for (const Json& e : j.at("entries").items()) {
        const std::string& name = e.at("name").asString();
        EXPECT_FALSE(e.at("title").asString().empty()) << name;
        if (name == "fig13") {
            EXPECT_EQ(e.at("points").asNumber(), 48.0);
            EXPECT_FALSE(e.at("designSpace").asBool());
        } else if (name == "frontier-xl") {
            EXPECT_EQ(e.at("points").asNumber(), 120.0);
            EXPECT_TRUE(e.at("designSpace").asBool());
        }
    }
}

TEST(RegistryCli, ListBackendsEmitsNamesAndCacheTags)
{
    Json j = listJson("list-backends", "backends");
    EXPECT_EQ(entryStrings(j, "name"),
              (Names{"analytical", "chunk-sim", "themis"}));
    EXPECT_EQ(entryStrings(j, "cacheKeyTag"),
              (Names{"analytical", "chunk-sim/64/x1", "themis/64"}));
}

TEST(RegistryCli, ListExplorersEmitsNamesAndDescriptions)
{
    Json j = listJson("list-explorers", "explorers");
    EXPECT_EQ(entryStrings(j, "name"), (Names{"exhaustive", "prune"}));
    for (const std::string& d : entryStrings(j, "description"))
        EXPECT_FALSE(d.empty());
    for (const Json& e : j.at("entries").items())
        EXPECT_FALSE(e.has("params"));
}

// --- Unknown flags -----------------------------------------------------

// Flags the CLI does not take are refused by name, never silently
// ignored, and so are the retired search-chain selection (--solver,
// list-solvers, a SOLVER line) and prune's retired parameters. None of
// these reaches a server or a sweep: each command stops at its flag or
// study parse.
TEST(UnknownFlagCli, EachFlagExitsOneNamingIt)
{
    std::string study = ::testing::TempDir() + "libra_flags.study";
    std::ofstream(study) << cliOutput("--example");
    // The example study has 15 lines; each appended line is line 16.
    std::string solverLine = ::testing::TempDir() + "libra_solver.study";
    std::ofstream(solverLine) << cliOutput("--example")
                              << "SOLVER nelder-mead\n";
    std::string keepLine = ::testing::TempDir() + "libra_keep.study";
    std::ofstream(keepLine) << cliOutput("--example")
                            << "EXPLORE prune,keep=0.25\n";
    const std::pair<std::string, std::string> cases[] = {
        {"run-matrix tbl1 --checkpoint-chunk 4",
         "unknown run-matrix flag '--checkpoint-chunk'"},
        {"run-matrix tbl1 --checkpoint x",
         "unknown run-matrix flag '--checkpoint'"},
        {"serve --lru-bytes 1", "unknown serve flag '--lru-bytes'"},
        {"serve --max-workers 2", "unknown serve flag '--max-workers'"},
        {"serve --fail-mode isolate", "unknown serve flag '--fail-mode'"},
        {study + " --explore prune", "unknown flag '--explore'"},
        {"run-matrix tbl1 --solver nelder-mead",
         "unknown run-matrix flag '--solver'"},
        {"--solver nelder-mead " + study, "unknown flag '--solver'"},
        {"list-solvers", "cannot open 'list-solvers'"},
        {solverLine, "study line 16: unknown keyword 'SOLVER'"},
        {keepLine, "study line 16: unknown exploration strategy "
                   "'prune,keep=0.25'"},
        {"run-matrix explore-frontier --explore prune,rounds=2",
         "unknown exploration strategy 'prune,rounds=2'"},
    };
    for (const auto& [args, needle] : cases)
        expectFatalExit(runCli(args), needle);
}

TEST(ScenarioListCli, RepeatedScenarioExitsOneNamingIt)
{
    expectFatalExit(runCli("run-matrix tbl1 tbl1"),
                    "scenario 'tbl1' is listed more than once");
}

// --- Unwritable output -------------------------------------------------

// Every write to /dev/full fails with ENOSPC once it reaches the
// device: output that never arrived must fail the run, naming where it
// was going, whether it went to --out or to stdout.
TEST(UnwritableOutputCli, FullDeviceExitsOneNamingTheTarget)
{
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this system";
    std::string study = ::testing::TempDir() + "libra_full.study";
    std::ofstream(study) << cliOutput("--example");

    for (const char* emit : {"json", "csv"}) {
        expectFatalExit(runCli(std::string("run-matrix tbl1 --emit ") +
                               emit + " --out /dev/full"),
                        "cannot write '/dev/full'");
    }
    for (const std::string& args :
         {std::string("run-matrix tbl1 --emit json"), study,
          std::string("list"), std::string("--example")})
        expectFatalExit(runCli(args, "/dev/full"), "cannot write stdout");

    // A golden file that cannot take its bytes fails the update too.
    std::string goldenDir = ::testing::TempDir() + "libra_full_golden";
    std::filesystem::remove_all(goldenDir);
    std::filesystem::create_directories(goldenDir);
    std::filesystem::create_symlink("/dev/full", goldenDir + "/tbl1.json");
    expectFatalExit(runCli("run-matrix tbl1 --update-golden --golden-dir " +
                           goldenDir),
                    "cannot write '" + goldenDir + "/tbl1.json'");
    std::filesystem::remove_all(goldenDir);
}

// --golden-dir only says where a golden update writes; without
// --update-golden it would do nothing, so it is refused by name.
TEST(GoldenDirCli, WithoutUpdateGoldenExitsOneNamingIt)
{
    expectFatalExit(runCli("run-matrix tbl1 --golden-dir " +
                           ::testing::TempDir()),
                    "--golden-dir needs --update-golden");
}

#endif // LIBRA_CLI_PATH

} // namespace
} // namespace libra
