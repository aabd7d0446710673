#include "generator.hh"

#include <sstream>

#include "common/json.hh"
#include "study/scenario.hh"
#include "topology/zoo.hh"

namespace perfbench {

std::uint64_t
SeededStream::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::size_t
SeededStream::below(std::size_t n)
{
    return static_cast<std::size_t>(next() % n);
}

double
SeededStream::unit()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    SeededStream s(seed ^ (salt * 0xd1b54a32d192ed03ULL));
    return s.next();
}

namespace {

/** Topology-zoo shapes of the cold sweep (Table III, >= 512 NPUs). */
std::vector<std::string>
coldShapes()
{
    return {libra::topo::fourD4K().name(), libra::topo::threeD1K().name(),
            libra::topo::fourD2K().name(), libra::topo::threeD512().name()};
}

/** Workload-zoo mixes: study-file WORKLOAD lines (+ NORMALIZE_WEIGHTS). */
const std::vector<std::string>&
coldMixes()
{
    static const std::vector<std::string> mixes{
        "WORKLOAD gpt3\n",
        "WORKLOAD msft1t\n",
        "WORKLOAD dlrm\n",
        "WORKLOAD turing-nlg\nWORKLOAD resnet50 WEIGHT 2\n"
        "NORMALIZE_WEIGHTS\n",
    };
    return mixes;
}

std::string
numberText(double v)
{
    return libra::jsonNumberToString(v);
}

} // namespace

std::size_t
coldSweepBatchSize()
{
    return coldShapes().size() * coldMixes().size();
}

std::vector<std::vector<std::string>>
coldSweepBatches(std::uint64_t seed, std::size_t batches)
{
    const std::vector<std::string> shapes = coldShapes();
    const std::vector<double>& budgets = libra::paperBwSweep();
    static const char* objectives[] = {"PERF", "PERF_PER_COST"};
    static const char* loops[] = {"NO_OVERLAP", "TP_DP_OVERLAP"};
    constexpr std::size_t kCells = 4; // objective x loop

    // The (objective, loop) cell rotates with the batch, so every batch
    // holds each cell equally often and every stratum visits each cell
    // equally often; only the budgets are drawn, without replacement
    // per (stratum, cell). Run-to-run work then depends little on the
    // seed, which keeps the run's throughput comparable across seeds.
    std::vector<std::vector<std::string>> out(batches);
    SeededStream order(mixSeed(seed, 1));
    std::size_t stratum = 0;
    for (std::size_t sh = 0; sh < shapes.size(); ++sh) {
        for (std::size_t mi = 0; mi < coldMixes().size(); ++mi) {
            std::vector<std::vector<std::size_t>> draw(kCells);
            for (auto& perm : draw) {
                for (std::size_t i = 0; i < budgets.size(); ++i)
                    perm.push_back(i);
                order.shuffle(perm);
            }
            for (std::size_t b = 0; b < batches; ++b) {
                std::size_t cell = (stratum + b) % kCells;
                std::size_t bi = draw[cell][(b / kCells) % budgets.size()];
                std::ostringstream text;
                text << "NETWORK " << shapes[sh] << "\n"
                     << "TOTAL_BW " << numberText(budgets[bi]) << "\n"
                     << "OBJECTIVE " << objectives[cell / 2] << "\n"
                     << "LOOP " << loops[cell % 2] << "\n"
                     << coldMixes()[mi] << "STARTS 3\n";
                out[b].push_back(text.str());
            }
            ++stratum;
        }
    }
    for (auto& batch : out)
        order.shuffle(batch);
    return out;
}

std::vector<std::string>
warmRerunOrder(std::uint64_t seed, std::size_t op,
               std::vector<std::string> names)
{
    SeededStream s(mixSeed(seed, 1000 + op));
    s.shuffle(names);
    return names;
}

const std::vector<std::string>&
serveScenarios()
{
    return libra::goldenScenarioNames();
}

std::vector<ServeRequest>
serveRequestSequence(std::uint64_t seed, std::size_t n)
{
    // Fixed block composition, seeded order: the share of fig10 (whose
    // formatter simulates training and costs ~20x a cached golden
    // request) must not vary with the seed, or the run's throughput
    // would.
    SeededStream s(mixSeed(seed, 2));
    std::vector<ServeRequest> out;
    out.reserve(n);
    for (std::size_t block = 0; out.size() < n; ++block) {
        std::vector<ServeRequest> requests;
        for (const auto& name : serveScenarios()) {
            if (name == "fig10") {
                requests.push_back({name, block % 4 == 3 ? "csv" : "json"});
                continue;
            }
            for (std::size_t k = 0; k < kServeHotRepeats; ++k)
                requests.push_back({name, k == 0 ? "csv" : "json"});
        }
        s.shuffle(requests);
        out.insert(out.end(), requests.begin(), requests.end());
    }
    out.resize(n);
    return out;
}

std::string
serveRequestLine(const ServeRequest& r)
{
    libra::Json j = libra::Json::object();
    j["scenario"] = r.scenario;
    j["emit"] = r.emit;
    return j.dump();
}

} // namespace perfbench
