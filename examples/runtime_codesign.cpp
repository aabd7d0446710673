/**
 * @file
 * Design-time x runtime co-optimization demo (paper §VI-D): compose
 * LIBRA's bandwidth allocation with the Themis greedy chunk scheduler
 * and the TACOS collective synthesizer on a 64-NPU 3D torus, and show
 * that runtime optimizers work best on a well-designed network.
 */

#include <iostream>

#include "core/optimizer.hh"
#include "core/report.hh"
#include "runtime/tacos.hh"
#include "runtime/themis.hh"
#include "sim/chunk_timeline.hh"
#include "topology/zoo.hh"

int
main()
{
    using namespace libra;

    Network net = topo::threeDTorus();
    CostModel cm = CostModel::defaultModel();
    const Bytes m = 1e9;
    const int chunks = 8;
    auto spans = mapGroupToDims(net, 1, net.npus());

    // A 1 GB All-Reduce "workload" for the optimizer.
    Workload ar;
    ar.strategy = {1, net.npus()};
    Layer l;
    l.wgComm.push_back({CollectiveType::AllReduce, CommScope::Dp, m});
    ar.layers = {l};

    BwOptimizer opt(net, cm);
    OptimizerConfig cfg;
    cfg.totalBw = 1000.0;
    BwConfig libraBw = opt.optimize({{ar, 1.0}}, cfg).bw;
    BwConfig equalBw = net.equalBw(1000.0);

    std::cout << "3D torus " << net.name() << ", 1 GB All-Reduce, "
              << chunks << " chunks\n"
              << "EqualBW: " << bwConfigToString(equalBw) << " ("
              << dollarsToString(cm.networkCost(net, equalBw)) << ")\n"
              << "LIBRA  : " << bwConfigToString(libraBw) << " ("
              << dollarsToString(cm.networkCost(net, libraBw))
              << ")\n\n";

    auto timeline = [&](const BwConfig& bw, SchedulePolicy policy) {
        ChunkTimeline tl(net.numDims(), bw);
        CollectiveJob j;
        j.type = CollectiveType::AllReduce;
        j.size = m;
        j.spans = spans;
        j.numChunks = chunks;
        j.policy = policy;
        return tl.collectiveTime(j);
    };

    std::cout << "Collective time by design x runtime combination:\n";
    for (auto [name, bw] :
         {std::pair<const char*, BwConfig>{"EqualBW", equalBw},
          std::pair<const char*, BwConfig>{"LIBRA  ", libraBw}}) {
        Seconds rail = timeline(bw, SchedulePolicy::FixedAscending);
        Seconds themis =
            themisCollectiveTiming(net.numDims(),
                                   CollectiveType::AllReduce, m, spans,
                                   bw, chunks)
                .time;
        Seconds tacos =
            TacosSynthesizer(net, bw).synthesizeAllReduce(m, chunks)
                .time;
        std::cout << "  " << name
                  << "  multi-rail: " << secondsToString(rail)
                  << "  +Themis: " << secondsToString(themis)
                  << "  +TACOS: " << secondsToString(tacos) << "\n";
    }

    std::cout << "\nTakeaway: runtime schedulers (Themis, TACOS) raise "
                 "utilization on any network, but the LIBRA-designed "
                 "fabric is also several-x cheaper — design-time and "
                 "runtime optimization compose.\n";
    return 0;
}
