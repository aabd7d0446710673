/**
 * @file
 * The benchmark's own test of its seeded generator:
 *
 *  - the same seed gives the same study text, scenario orders and
 *    request sequence; another seed gives different ones;
 *  - every generated point parses, and round-trips through
 *    studyConfigToString with studyInputsEqual;
 *  - cold-sweep points are distinct within a run (drawn without
 *    replacement), every batch holds one point per stratum;
 *  - warm-rerun orders are permutations; the serve mix is the golden
 *    group, with exactly one fig10 request per block.
 *
 * Run with `python3 perfbench/run.py --selftest`. Exit code 0 = pass.
 */

#include <algorithm>
#include <iostream>
#include <set>
#include <string>

#include "common/logging.hh"
#include "core/study_config.hh"
#include "generator.hh"
#include "study/cache.hh"
#include "study/scenario.hh"

namespace {

int gFailures = 0;

void
check(bool ok, const std::string& what)
{
    if (!ok) {
        ++gFailures;
        std::cerr << "FAIL: " << what << "\n";
    }
}

void
coldSweepChecks()
{
    using perfbench::coldSweepBatches;
    constexpr std::size_t kBatches = 8;
    auto a = coldSweepBatches(7, kBatches);
    check(a == coldSweepBatches(7, kBatches),
          "cold-sweep text is deterministic per seed");
    check(a != coldSweepBatches(8, kBatches),
          "another seed gives other cold-sweep text");
    check(a.size() == kBatches, "cold-sweep batch count");

    std::set<std::string> keys;
    std::size_t points = 0;
    for (const auto& batch : a) {
        check(batch.size() == perfbench::coldSweepBatchSize(),
              "one point per stratum in every batch");
        std::set<std::string> shapes;
        for (const auto& text : batch) {
            libra::LibraInputs in = libra::parseStudyConfigString(text);
            libra::LibraInputs back = libra::parseStudyConfigString(
                libra::studyConfigToString(in));
            check(libra::studyInputsEqual(in, back),
                  "round trip through studyConfigToString:\n" + text);
            keys.insert(libra::canonicalStudyKey(in));
            shapes.insert(in.networkShape);
            ++points;
        }
        check(shapes.size() == 4, "every batch spans the four shapes");
    }
    check(keys.size() == points, "cold-sweep points are distinct");
}

void
warmRerunChecks()
{
    std::vector<std::string> names =
        libra::expandScenarioGroups({"all"});
    auto order = perfbench::warmRerunOrder(3, 5, names);
    check(order == perfbench::warmRerunOrder(3, 5, names),
          "warm-rerun order is deterministic");
    check(order != perfbench::warmRerunOrder(3, 6, names),
          "each op gets its own order");
    std::vector<std::string> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    std::sort(names.begin(), names.end());
    check(sorted == names, "warm-rerun order is a permutation of all");
}

void
serveChecks()
{
    const std::size_t block = 5 * perfbench::kServeHotRepeats + 1;
    const std::size_t n = 200 * block;
    auto a = perfbench::serveRequestSequence(11, n);
    auto b = perfbench::serveRequestSequence(11, n);
    auto c = perfbench::serveRequestSequence(12, n);
    check(a.size() == n, "serve request sequence length");
    std::size_t same = 0;
    std::size_t fig10 = 0;
    std::size_t csv = 0;
    bool equal = a.size() == b.size();
    for (std::size_t i = 0; i < a.size(); ++i) {
        equal = equal && a[i].scenario == b[i].scenario &&
                a[i].emit == b[i].emit &&
                perfbench::serveRequestLine(a[i]) ==
                    perfbench::serveRequestLine(b[i]);
        same += a[i].scenario == c[i].scenario ? 1 : 0;
        fig10 += a[i].scenario == "fig10" ? 1 : 0;
        csv += a[i].emit == "csv" ? 1 : 0;
        if ((i + 1) % block == 0) {
            check(fig10 == (i + 1) / block,
                  "every serve block holds exactly one fig10 request");
        }
    }
    check(equal, "serve request sequence is deterministic per seed");
    check(same < a.size(), "another seed gives another sequence");
    check(csv > 0 && csv * 3 < a.size(), "serve mix is mostly json");
    check(perfbench::serveScenarios().size() == 6 &&
              std::count(perfbench::serveScenarios().begin(),
                         perfbench::serveScenarios().end(), "fig10") == 1,
          "the serve mix is the six golden scenarios, fig10 among them");
    for (const auto& name : perfbench::serveScenarios()) {
        check(libra::ScenarioRegistry::global().find(name) != nullptr,
              "serve mix scenario registered: " + name);
    }
}

} // namespace

int
main()
{
    libra::setInformEnabled(false);
    try {
        coldSweepChecks();
        warmRerunChecks();
        serveChecks();
    } catch (const std::exception& e) {
        std::cerr << "FAIL: " << e.what() << "\n";
        return 1;
    }
    if (gFailures > 0) {
        std::cerr << gFailures << " check(s) failed\n";
        return 1;
    }
    std::cout << "perfbench selftest: all checks passed\n";
    return 0;
}
