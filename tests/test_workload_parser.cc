/**
 * @file
 * Tests for the workload text parser/serializer.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "workload/parser.hh"
#include "workload/zoo.hh"

namespace libra {
namespace {

const char* kSample = R"(
# A miniature two-layer workload.
WORKLOAD demo
PARAMS 1e9
STRATEGY TP 4 PP 1 DP 8

LAYER first
  FWD_COMPUTE 0.5
  IG_COMPUTE 0.25
  WG_COMPUTE 0.125
  FWD_COMM ALLREDUCE TP 1e8
  IG_COMM ALLREDUCE TP 1e8
  WG_COMM REDUCESCATTER DP 2e7
  WG_COMM ALLGATHER DP 2e7
END

LAYER second
  FWD_COMPUTE 0.5
  FWD_COMM ALLTOALL ALL 5e6
END
)";

TEST(WorkloadParser, ParsesSample)
{
    Workload w = parseWorkloadString(kSample);
    EXPECT_EQ(w.name, "demo");
    EXPECT_DOUBLE_EQ(w.parameters, 1e9);
    EXPECT_EQ(w.strategy.tp, 4);
    EXPECT_EQ(w.strategy.pp, 1);
    EXPECT_EQ(w.strategy.dp, 8);
    ASSERT_EQ(w.layers.size(), 2u);

    const Layer& l0 = w.layers[0];
    EXPECT_EQ(l0.name, "first");
    EXPECT_DOUBLE_EQ(l0.fwdCompute, 0.5);
    EXPECT_DOUBLE_EQ(l0.igCompute, 0.25);
    EXPECT_DOUBLE_EQ(l0.wgCompute, 0.125);
    ASSERT_EQ(l0.fwdComm.size(), 1u);
    EXPECT_EQ(l0.fwdComm[0].type, CollectiveType::AllReduce);
    EXPECT_EQ(l0.fwdComm[0].scope, CommScope::Tp);
    ASSERT_EQ(l0.wgComm.size(), 2u);
    EXPECT_EQ(l0.wgComm[1].type, CollectiveType::AllGather);

    const Layer& l1 = w.layers[1];
    ASSERT_EQ(l1.fwdComm.size(), 1u);
    EXPECT_EQ(l1.fwdComm[0].type, CollectiveType::AllToAll);
    EXPECT_EQ(l1.fwdComm[0].scope, CommScope::All);
}

TEST(WorkloadParser, RoundTripsBuiltWorkloads)
{
    for (const auto& w :
         {wl::gpt3(1024), wl::dlrm(512), wl::resnet50(256),
          wl::gpt3WithStrategy(16, 8, 32)}) {
        Workload back = parseWorkloadString(serializeWorkload(w));
        EXPECT_EQ(back.name, w.name);
        EXPECT_DOUBLE_EQ(back.parameters, w.parameters);
        EXPECT_EQ(back.strategy.tp, w.strategy.tp);
        EXPECT_EQ(back.strategy.pp, w.strategy.pp);
        EXPECT_EQ(back.strategy.dp, w.strategy.dp);
        ASSERT_EQ(back.layers.size(), w.layers.size());
        for (std::size_t i = 0; i < w.layers.size(); ++i) {
            EXPECT_EQ(back.layers[i].name, w.layers[i].name);
            EXPECT_DOUBLE_EQ(back.layers[i].fwdCompute,
                             w.layers[i].fwdCompute);
            auto a = Workload::allOps(back.layers[i]);
            auto b = Workload::allOps(w.layers[i]);
            ASSERT_EQ(a.size(), b.size());
            for (std::size_t k = 0; k < a.size(); ++k) {
                EXPECT_EQ(a[k].type, b[k].type);
                EXPECT_EQ(a[k].scope, b[k].scope);
                EXPECT_DOUBLE_EQ(a[k].size, b[k].size);
            }
        }
    }
}

TEST(WorkloadParser, P2pToken)
{
    Workload w = parseWorkloadString(R"(
WORKLOAD pp-demo
STRATEGY TP 2 PP 4 DP 1
LAYER boundary
  FWD_COMM P2P PP 1e6
END
)");
    EXPECT_EQ(w.layers[0].fwdComm[0].type,
              CollectiveType::PointToPoint);
    EXPECT_EQ(w.layers[0].fwdComm[0].scope, CommScope::Pp);
}

TEST(WorkloadParser, ErrorsCarryLineNumbers)
{
    auto expectError = [](const char* text, const char* needle) {
        try {
            parseWorkloadString(text);
            FAIL() << "expected FatalError for: " << text;
        } catch (const FatalError& e) {
            EXPECT_NE(std::string(e.what()).find(needle),
                      std::string::npos)
                << e.what();
        }
    };
    expectError("WORKLOAD x\nLAYER a\nEND\nEND\n", "END without LAYER");
    expectError("WORKLOAD x\nLAYER a\nLAYER b\n", "LAYER inside LAYER");
    expectError("WORKLOAD x\nLAYER a\nFWD_COMM NOPE TP 1\nEND\n",
                "unknown collective");
    expectError("WORKLOAD x\nLAYER a\nFWD_COMM ALLREDUCE XX 1\nEND\n",
                "unknown scope");
    expectError("WORKLOAD x\nLAYER a\nFWD_COMPUTE abc\nEND\n",
                "bad compute time");
    expectError("LAYER a\nEND\n", "no WORKLOAD header");
    expectError("WORKLOAD x\n", "no layers");
    expectError("WORKLOAD x\nLAYER a\n", "ended inside LAYER");
    expectError("WORKLOAD x\nBOGUS 1\n", "unknown keyword");
    expectError("WORKLOAD x\nLAYER a\nFWD_COMPUTE 1 \nSTRATEGY QQ 1\n"
                "END\n",
                "unknown strategy key");
}

TEST(WorkloadParser, RejectsNonFiniteAndNegativeNumbers)
{
    auto expectError = [](const std::string& text,
                          const std::string& needle) {
        try {
            parseWorkloadString(text);
            FAIL() << "expected FatalError for: " << text;
        } catch (const FatalError& e) {
            EXPECT_NE(std::string(e.what()).find(needle),
                      std::string::npos)
                << e.what();
        }
    };
    for (const char* bad : {"nan", "inf", "-inf"}) {
        SCOPED_TRACE(bad);
        const std::string b = bad;
        expectError("WORKLOAD x\nPARAMS " + b + "\nLAYER a\nEND\n",
                    "workload line 2: bad parameter count '" + b + "'");
        expectError("WORKLOAD x\nSTRATEGY TP " + b + "\nLAYER a\nEND\n",
                    "workload line 2: bad strategy size '" + b + "'");
        expectError("WORKLOAD x\nLAYER a\nIG_COMPUTE " + b + "\nEND\n",
                    "workload line 3: bad compute time '" + b + "'");
        expectError("WORKLOAD x\nLAYER a\nWG_COMM ALLGATHER DP " + b +
                        "\nEND\n",
                    "workload line 3: bad collective size '" + b + "'");
    }
    expectError("WORKLOAD x\nLAYER a\nWG_COMPUTE -0.5\nEND\n",
                "workload line 3: bad compute time '-0.5'");
    expectError("WORKLOAD x\nLAYER a\nFWD_COMM ALLREDUCE TP -1\nEND\n",
                "workload line 3: bad collective size '-1'");
    // Zero is a valid compute time and size.
    Workload w = parseWorkloadString(
        "WORKLOAD x\nLAYER a\nFWD_COMPUTE 0\nFWD_COMM ALLREDUCE TP 0\n"
        "END\n");
    EXPECT_EQ(w.layers[0].fwdCompute, 0.0);
    EXPECT_EQ(w.layers[0].fwdComm[0].size, 0.0);
}

// Every workload number has a range: parameter counts [0, 1e18],
// parallelization sizes integers in [1, 2^30], compute times [0, 1e6]
// s and collective sizes [0, 1e12] B.
TEST(WorkloadParser, RejectsOutOfRangeNumbers)
{
    const std::pair<std::string, std::string> cases[] = {
        {"PARAMS 1e19\nLAYER a\nEND\n", "line 2: bad parameter count '1e19'"},
        {"STRATEGY TP 16.5\nLAYER a\nEND\n",
         "line 2: bad strategy size '16.5'"},
        {"STRATEGY PP 1e30\nLAYER a\nEND\n",
         "line 2: bad strategy size '1e30'"},
        {"STRATEGY DP 0\nLAYER a\nEND\n", "line 2: bad strategy size '0'"},
        {"STRATEGY TP 1073741825\nLAYER a\nEND\n",
         "line 2: bad strategy size '1073741825'"},
        {"LAYER a\nFWD_COMPUTE 1e308\nEND\n",
         "line 3: bad compute time '1e308'"},
        {"LAYER a\nWG_COMM ALLREDUCE DP 1e18\nEND\n",
         "line 3: bad collective size '1e18'"},
        {"LAYER a\nIG_COMM ALLGATHER TP 1e308\nEND\n",
         "line 3: bad collective size '1e308'"},
    };
    for (const auto& [body, error] : cases) {
        SCOPED_TRACE(body);
        try {
            parseWorkloadString("WORKLOAD x\n" + body);
            ADD_FAILURE() << "accepted";
        } catch (const FatalError& e) {
            EXPECT_NE(std::string(e.what()).find("workload " + error),
                      std::string::npos)
                << e.what();
        }
    }
    // The range ends themselves are values.
    Workload w = parseWorkloadString(
        "WORKLOAD x\nPARAMS 1e18\nSTRATEGY TP 1073741824 PP 1 DP 1\n"
        "LAYER a\nFWD_COMPUTE 1e6\nFWD_COMM ALLREDUCE TP 1e12\nEND\n");
    EXPECT_EQ(w.parameters, 1e18);
    EXPECT_EQ(w.strategy.tp, 1L << 30);
    EXPECT_EQ(w.layers[0].fwdCompute, 1e6);
    EXPECT_EQ(w.layers[0].fwdComm[0].size, 1e12);
}

TEST(WorkloadParser, CommentsAndWhitespaceIgnored)
{
    Workload w = parseWorkloadString(
        "WORKLOAD c # trailing comment\n\n   \n"
        "LAYER only # another\n  FWD_COMPUTE 1.0\nEND\n");
    EXPECT_EQ(w.name, "c");
    EXPECT_EQ(w.layers.size(), 1u);
}

} // namespace
} // namespace libra
