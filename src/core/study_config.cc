#include "core/study_config.hh"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <istream>
#include <limits>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/parse_number.hh"
#include "core/timing_backend.hh"
#include "explore/explore.hh"
#include "workload/parser.hh"
#include "workload/zoo.hh"

namespace libra {

namespace {

std::string
lowered(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

PhysicalLevel
parseLevel(const std::string& token, int line)
{
    std::string t = lowered(token);
    if (t == "chiplet")
        return PhysicalLevel::Chiplet;
    if (t == "package")
        return PhysicalLevel::Package;
    if (t == "node")
        return PhysicalLevel::Node;
    if (t == "pod")
        return PhysicalLevel::Pod;
    fatal("study line ", line, ": unknown physical level '", token, "'");
}

/**
 * Re-throw a nested validation FatalError with the study line number,
 * dropping the inner "fatal: " prefix fatal() would otherwise nest.
 */
[[noreturn]] void
refatalWithLine(int line, const FatalError& e)
{
    fatal("study line ", line, ": ", fatalMessage(e));
}

} // namespace

Workload
zooWorkloadByName(const std::string& name, long npus)
{
    std::string n = lowered(name);
    if (n == "turing-nlg" || n == "turingnlg" || n == "tnlg")
        return wl::turingNlg(npus);
    if (n == "gpt3" || n == "gpt-3")
        return wl::gpt3(npus);
    if (n == "msft1t" || n == "msft-1t")
        return wl::msft1T(npus);
    if (n == "dlrm")
        return wl::dlrm(npus);
    if (n == "resnet50" || n == "resnet-50")
        return wl::resnet50(npus);
    fatal("unknown zoo workload '", name,
          "' (expected turing-nlg, gpt3, msft1t, dlrm, or resnet50)");
}

LibraInputs
parseStudyConfig(std::istream& in)
{
    LibraInputs inputs;
    // Workloads are resolved after the network is known (zoo builders
    // need the NPU count), so stash directives first.
    struct PendingWorkload
    {
        bool fromFile = false;
        std::string nameOrPath;
        double weight = 1.0;
        int line = 0;
    };
    std::vector<PendingWorkload> pending;
    bool sawNetwork = false;

    std::string rawLine;
    int lineNo = 0;
    while (std::getline(in, rawLine)) {
        ++lineNo;
        auto hash = rawLine.find('#');
        if (hash != std::string::npos)
            rawLine.erase(hash);
        std::istringstream line(rawLine);
        std::string keyword;
        if (!(line >> keyword))
            continue;

        auto wantToken = [&](const char* what) {
            std::string t;
            if (!(line >> t))
                fatal("study line ", lineNo, ": expected ", what);
            return t;
        };
        // The next token as a number in [lo, hi] (common/parse_number.hh).
        auto number = [&](auto lo, decltype(lo) hi, const char* what) {
            std::string token = wantToken(what);
            try {
                return parseNumber(token, lo, hi, what);
            } catch (const FatalError& e) {
                refatalWithLine(lineNo, e);
            }
        };

        if (keyword == "NETWORK") {
            inputs.networkShape = wantToken("network shape");
            sawNetwork = true;
        } else if (keyword == "TOTAL_BW") {
            inputs.config.totalBw = number(kPositive, 1e6, "total BW");
        } else if (keyword == "OBJECTIVE") {
            std::string obj = wantToken("objective");
            if (obj == "PERF")
                inputs.config.objective = OptimizationObjective::PerfOpt;
            else if (obj == "PERF_PER_COST")
                inputs.config.objective =
                    OptimizationObjective::PerfPerCostOpt;
            else
                fatal("study line ", lineNo, ": unknown objective '",
                      obj, "' (PERF or PERF_PER_COST)");
        } else if (keyword == "LOOP") {
            std::string loop = wantToken("loop");
            if (loop == "NO_OVERLAP")
                inputs.config.estimator.loop = TrainingLoop::NoOverlap;
            else if (loop == "TP_DP_OVERLAP")
                inputs.config.estimator.loop =
                    TrainingLoop::TpDpOverlap;
            else
                fatal("study line ", lineNo, ": unknown loop '", loop,
                      "' (NO_OVERLAP or TP_DP_OVERLAP)");
        } else if (keyword == "CONSTRAINT") {
            std::string rest;
            std::getline(line, rest);
            if (rest.find_first_not_of(" \t") == std::string::npos)
                fatal("study line ", lineNo, ": empty constraint");
            inputs.config.constraints.push_back(rest);
        } else if (keyword == "WORKLOAD") {
            PendingWorkload p;
            p.nameOrPath = wantToken("workload name");
            p.line = lineNo;
            std::string extra;
            if (line >> extra) {
                if (extra != "WEIGHT")
                    fatal("study line ", lineNo,
                          ": expected WEIGHT, got '", extra, "'");
                p.weight = number(kPositive, 1e6, "weight");
            }
            pending.push_back(std::move(p));
        } else if (keyword == "WORKLOAD_FILE") {
            PendingWorkload p;
            p.fromFile = true;
            p.nameOrPath = wantToken("workload file path");
            p.line = lineNo;
            std::string extra;
            if (line >> extra) {
                if (extra != "WEIGHT")
                    fatal("study line ", lineNo,
                          ": expected WEIGHT, got '", extra, "'");
                p.weight = number(kPositive, 1e6, "weight");
            }
            pending.push_back(std::move(p));
        } else if (keyword == "NORMALIZE_WEIGHTS") {
            inputs.normalizeTargetWeights = true;
        } else if (keyword == "IN_NETWORK") {
            inputs.config.estimator.inNetworkCollectives = true;
        } else if (keyword == "DOLLAR_CAP") {
            inputs.config.budgetCap = number(kPositive, 1e15, "dollar cap");
            inputs.config.relaxTotalBw = true;
        } else if (keyword == "THREADS") {
            inputs.threads = number(1, 4096, "thread count");
        } else if (keyword == "BACKEND") {
            std::string name = wantToken("timing backend name");
            try {
                resolveTimingBackend(name); // Validate.
            } catch (const FatalError& e) {
                refatalWithLine(lineNo, e);
            }
            inputs.config.estimator.timingBackend = name;
        } else if (keyword == "EXPLORE") {
            std::string name = wantToken("exploration strategy");
            try {
                // Canonicalize at parse time ("exhaustive" normalizes
                // to the "" default).
                inputs.explore = canonicalExploreSpec(name);
            } catch (const FatalError& e) {
                refatalWithLine(lineNo, e);
            }
        } else if (keyword == "SEED") {
            inputs.config.search.seed =
                number(std::uint64_t{0},
                       std::numeric_limits<std::uint64_t>::max(), "seed");
        } else if (keyword == "STARTS") {
            inputs.config.search.starts = number(0, 4096, "start count");
        } else if (keyword == "MAX_EVALS") {
            // 0 means unlimited, matching the in-memory default.
            inputs.config.search.maxEvalsPerStart =
                number(0LL, 1'000'000'000'000'000LL, "eval budget");
        } else if (keyword == "COST") {
            PhysicalLevel level =
                parseLevel(wantToken("physical level"), lineNo);
            ComponentCost cost =
                inputs.costModel.levelCost(level);
            std::string key;
            while (line >> key) {
                double v = number(0.0, 1e6, "cost value");
                if (key == "LINK")
                    cost.link = v;
                else if (key == "SWITCH")
                    cost.switch_ = v;
                else if (key == "NIC")
                    cost.nic = v;
                else
                    fatal("study line ", lineNo,
                          ": unknown cost component '", key, "'");
            }
            inputs.costModel.setLevelCost(level, cost);
        } else {
            fatal("study line ", lineNo, ": unknown keyword '", keyword,
                  "'");
        }
        // Every directive has read all it takes (CONSTRAINT and COST
        // read to the end of the line), so a token left over is an
        // error rather than a value silently ignored.
        std::string extra;
        if (line >> extra)
            fatal("study line ", lineNo, ": unexpected '", extra, "'");
    }

    if (!sawNetwork)
        fatal("study config has no NETWORK line");
    if (pending.empty())
        fatal("study config has no WORKLOAD lines");

    long npus = Network::parse(inputs.networkShape).npus();
    for (const auto& p : pending) {
        Workload w;
        if (p.fromFile) {
            std::ifstream file(p.nameOrPath);
            if (!file)
                fatal("study line ", p.line, ": cannot open workload "
                      "file '", p.nameOrPath, "'");
            w = parseWorkload(file);
        } else {
            w = zooWorkloadByName(p.nameOrPath, npus);
        }
        inputs.targets.push_back({std::move(w), p.weight});
    }
    return inputs;
}

LibraInputs
parseStudyConfigString(const std::string& text)
{
    std::istringstream in(text);
    return parseStudyConfig(in);
}

namespace {

/** The study-file token of a zoo workload, or "" when not a zoo match. */
std::string
zooNameOf(const Workload& w, long npus)
{
    for (const char* token :
         {"turing-nlg", "gpt3", "msft1t", "dlrm", "resnet50"}) {
        try {
            if (w == zooWorkloadByName(token, npus))
                return token;
        } catch (const FatalError&) {
            // Candidate cannot even be built at this NPU count (e.g.
            // MSFT-1T's TP-128 on a small network) — not a match.
        }
    }
    return "";
}

std::string
trimmed(const std::string& s)
{
    auto begin = s.find_first_not_of(" \t");
    if (begin == std::string::npos)
        return "";
    auto end = s.find_last_not_of(" \t");
    return s.substr(begin, end - begin + 1);
}

} // namespace

bool
studyInputsEqual(const LibraInputs& a, const LibraInputs& b)
{
    if (a.networkShape != b.networkShape ||
        a.normalizeTargetWeights != b.normalizeTargetWeights ||
        a.threads != b.threads || !costModelsEqual(a.costModel,
                                                   b.costModel)) {
        return false;
    }
    const OptimizerConfig& ca = a.config;
    const OptimizerConfig& cb = b.config;
    std::vector<std::string> consA, consB;
    for (const auto& c : ca.constraints)
        consA.push_back(trimmed(c));
    for (const auto& c : cb.constraints)
        consB.push_back(trimmed(c));
    if (ca.objective != cb.objective || ca.totalBw != cb.totalBw ||
        ca.minDimBw != cb.minDimBw || consA != consB ||
        ca.budgetCap != cb.budgetCap ||
        ca.relaxTotalBw != cb.relaxTotalBw ||
        ca.estimator.loop != cb.estimator.loop ||
        ca.estimator.inNetworkCollectives !=
            cb.estimator.inNetworkCollectives ||
        ca.estimator.modelPartialDimEfficiency !=
            cb.estimator.modelPartialDimEfficiency ||
        timingBackendOrDefault(ca.estimator.timingBackend) !=
            timingBackendOrDefault(cb.estimator.timingBackend) ||
        canonicalExploreSpec(a.explore) !=
            canonicalExploreSpec(b.explore) ||
        ca.search.starts != cb.search.starts ||
        ca.search.seed != cb.search.seed ||
        ca.search.maxEvalsPerStart != cb.search.maxEvalsPerStart) {
        return false;
    }
    if (a.targets.size() != b.targets.size())
        return false;
    for (std::size_t i = 0; i < a.targets.size(); ++i) {
        if (a.targets[i].weight != b.targets[i].weight ||
            a.targets[i].workload != b.targets[i].workload) {
            return false;
        }
    }
    return true;
}

std::string
studyConfigToString(const LibraInputs& inputs)
{
    const OptimizerConfig& cfg = inputs.config;
    const LibraInputs defaults;
    if (!cfg.estimator.modelPartialDimEfficiency)
        fatal("cannot serialize a study with partial-dim efficiency "
              "modeling disabled (no study-file directive)");
    if (cfg.minDimBw != defaults.config.minDimBw)
        fatal("cannot serialize a non-default minDimBw (no study-file "
              "directive)");
    if (cfg.relaxTotalBw && cfg.budgetCap <= 0.0)
        fatal("cannot serialize relaxTotalBw without a DOLLAR_CAP "
              "(only DOLLAR_CAP implies it in the study language)");
    if (!cfg.relaxTotalBw && cfg.budgetCap > 0.0)
        fatal("cannot serialize a DOLLAR_CAP with relaxTotalBw unset "
              "(DOLLAR_CAP always relaxes the budget on parse)");

    // Doubles print in shortest round-trip form, so reparsing with
    // from_chars reproduces every value bit-exactly.
    std::ostringstream out;
    out << "# LIBRA design study (generated by studyConfigToString)\n";
    out << "NETWORK " << inputs.networkShape << "\n";
    out << "TOTAL_BW " << jsonNumberToString(cfg.totalBw) << "\n";
    out << "OBJECTIVE "
        << (cfg.objective == OptimizationObjective::PerfOpt
                ? "PERF"
                : "PERF_PER_COST")
        << "\n";
    out << "LOOP "
        << (cfg.estimator.loop == TrainingLoop::NoOverlap
                ? "NO_OVERLAP"
                : "TP_DP_OVERLAP")
        << "\n";
    if (cfg.estimator.inNetworkCollectives)
        out << "IN_NETWORK\n";
    if (inputs.normalizeTargetWeights)
        out << "NORMALIZE_WEIGHTS\n";
    if (cfg.budgetCap > 0.0)
        out << "DOLLAR_CAP " << jsonNumberToString(cfg.budgetCap)
            << "\n";
    if (inputs.threads > 0)
        out << "THREADS " << inputs.threads << "\n";
    out << "SEED " << cfg.search.seed << "\n";
    out << "STARTS " << cfg.search.starts << "\n";
    if (cfg.search.maxEvalsPerStart != 0)
        out << "MAX_EVALS " << cfg.search.maxEvalsPerStart << "\n";
    if (timingBackendOrDefault(cfg.estimator.timingBackend) !=
        kAnalyticalTimingBackendName) {
        out << "BACKEND " << cfg.estimator.timingBackend << "\n";
    }
    {
        // Canonicalization validates the spec (FatalError on garbage)
        // and drops the exhaustive-with-defaults case entirely.
        std::string explore = canonicalExploreSpec(inputs.explore);
        if (!explore.empty())
            out << "EXPLORE " << explore << "\n";
    }
    for (const auto& constraint : cfg.constraints)
        out << "CONSTRAINT " << trimmed(constraint) << "\n";
    for (PhysicalLevel level :
         {PhysicalLevel::Chiplet, PhysicalLevel::Package,
          PhysicalLevel::Node, PhysicalLevel::Pod}) {
        ComponentCost c = inputs.costModel.levelCost(level);
        out << "COST " << physicalLevelName(level) << " LINK "
            << jsonNumberToString(c.link) << " SWITCH "
            << jsonNumberToString(c.switch_) << " NIC "
            << jsonNumberToString(c.nic) << "\n";
    }

    long npus = Network::parse(inputs.networkShape).npus();
    for (const auto& target : inputs.targets) {
        std::string token = zooNameOf(target.workload, npus);
        if (token.empty())
            fatal("cannot serialize workload '", target.workload.name,
                  "': not a zoo workload at ", npus,
                  " NPUs (WORKLOAD_FILE inputs and programmatic "
                  "strategies have no study-file name)");
        out << "WORKLOAD " << token << " WEIGHT "
            << jsonNumberToString(target.weight) << "\n";
    }
    return out.str();
}

bool
studyConfigSerializable(const LibraInputs& inputs)
{
    try {
        studyConfigToString(inputs);
        return true;
    } catch (const FatalError&) {
        return false;
    }
}

} // namespace libra
