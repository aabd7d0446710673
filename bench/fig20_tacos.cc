/**
 * @file
 * Fig. 20: LIBRA composed with the TACOS collective synthesizer.
 * A 1 GB All-Reduce with 8 chunks on the 3D-Torus (RI(4)_RI(4)_RI(4))
 * at 1,000 GB/s per NPU. Three systems, normalized to EqualBW+TACOS:
 *
 *  - EqualBW + TACOS  (runtime optimization only)
 *  - LIBRA-only       (design-time optimization, multi-rail collective)
 *  - LIBRA + TACOS    (both)
 *
 * Reproduced claims: LIBRA+TACOS beats LIBRA-only on performance
 * (paper: 1.25x) and wins perf-per-cost over TACOS-only thanks to the
 * cheaper LIBRA allocation (paper: 1.36x).
 */

#include "bench_util.hh"
#include "core/optimizer.hh"
#include "runtime/tacos.hh"
#include "sim/chunk_timeline.hh"
#include "topology/zoo.hh"

namespace libra {
namespace {

void
run()
{
    bench::banner("Fig. 20", "LIBRA + TACOS (1 GB All-Reduce, 8 chunks, "
                             "3D-Torus @ 1,000 GB/s)");

    Network net = topo::threeDTorus();
    CostModel cm = CostModel::defaultModel();
    const Bytes m = 1e9;
    const int chunks = 8;
    auto spans = mapGroupToDims(net, 1, net.npus());

    // LIBRA PerfOpt allocation for the All-Reduce.
    Workload arWorkload;
    arWorkload.name = "AllReduce-1GB";
    arWorkload.strategy = {1, net.npus()};
    Layer l;
    l.wgComm.push_back({CollectiveType::AllReduce, CommScope::Dp, m});
    arWorkload.layers = {l};

    BwOptimizer opt(net, cm);
    OptimizerConfig cfg;
    cfg.objective = OptimizationObjective::PerfOpt;
    cfg.totalBw = 1000.0;
    cfg.search = bench::benchSearch();
    BwConfig libraBw =
        opt.optimize({{arWorkload, 1.0}}, cfg).bw;
    BwConfig equalBw = net.equalBw(1000.0);

    auto railTime = [&](const BwConfig& bw) {
        ChunkTimeline tl(net.numDims(), bw);
        CollectiveJob j;
        j.type = CollectiveType::AllReduce;
        j.size = m;
        j.spans = spans;
        j.numChunks = chunks;
        return tl.collectiveTime(j);
    };
    auto tacosTime = [&](const BwConfig& bw) {
        return TacosSynthesizer(net, bw)
            .synthesizeAllReduce(m, chunks)
            .time;
    };

    struct Row
    {
        const char* name;
        Seconds time;
        Dollars cost;
    };
    std::vector<Row> rows{
        {"EqualBW+TACOS", tacosTime(equalBw),
         cm.networkCost(net, equalBw)},
        {"LIBRA-only", railTime(libraBw), cm.networkCost(net, libraBw)},
        {"LIBRA+TACOS", tacosTime(libraBw),
         cm.networkCost(net, libraBw)},
    };

    const Row& base = rows[0];
    Table t;
    t.header({"System", "AR time", "Cost", "Perf (norm)", "ppc (norm)"});
    for (const auto& r : rows) {
        t.row({r.name, secondsToString(r.time), dollarsToString(r.cost),
               Table::num(base.time / r.time, 2),
               Table::num((base.time * base.cost) / (r.time * r.cost),
                          2)});
    }
    t.print(std::cout);

    std::cout << "\nLIBRA+TACOS vs LIBRA-only speedup: "
              << Table::num(rows[1].time / rows[2].time, 2)
              << "x (paper: 1.25x)\n"
              << "LIBRA+TACOS vs TACOS-only perf-per-cost: "
              << Table::num((rows[0].time * rows[0].cost) /
                                (rows[2].time * rows[2].cost),
                            2)
              << "x (paper: 1.36x)\n"
              << "LIBRA BW config: " << bwConfigToString(libraBw, 0)
              << "\n";
}

} // namespace
} // namespace libra

int
main()
{
    libra::setInformEnabled(false);
    libra::run();
    return 0;
}
