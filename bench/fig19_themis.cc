/**
 * @file
 * Fig. 19: LIBRA composed with the Themis runtime collective scheduler.
 * GPT-3 on 4D-4K; Themis (greedy chunk scheduling) is enabled on BOTH
 * the EqualBW and the LIBRA-designed network:
 *
 *  - iso-cost: both networks cost $15M.
 *  - iso-resource: both networks have 1,000 GB/s per NPU.
 *
 * Reproduced claims: iso-cost, the LIBRA network affords several-x more
 * BW per NPU (paper: 5.05x) and trains faster even with Themis on both
 * (paper: 2.24x); iso-resource, LIBRA is slightly faster (paper: 1.04x)
 * while being several-x cheaper (paper: 4.58x), for a large
 * perf-per-cost win (paper: 4.77x).
 */

#include "bench_util.hh"
#include "core/optimizer.hh"
#include "core/timing_backend.hh"
#include "topology/zoo.hh"
#include "workload/zoo.hh"

namespace libra {
namespace {

void
run()
{
    bench::banner("Fig. 19", "LIBRA + Themis (GPT-3, 4D-4K)");

    Network net = topo::fourD4K();
    CostModel cm = CostModel::defaultModel();
    Workload w = wl::gpt3(net.npus());

    // Themis-enabled end-to-end estimator.
    EstimatorOptions themisOpt;
    themisOpt.timingBackend = kThemisTimingBackendName;
    TrainingEstimator themis(net, themisOpt);

    BwOptimizer opt(net, cm);
    std::vector<TargetWorkload> targets{{w, 1.0}};

    Table t;
    t.header({"Setup", "Config", "BW/NPU", "Cost", "Time(Themis)",
              "Speedup", "ppc x"});

    // --- iso-resource: 1,000 GB/s per NPU each. ---
    {
        OptimizerConfig cfg;
        cfg.objective = OptimizationObjective::PerfOpt;
        cfg.totalBw = 1000.0;
        cfg.search = bench::benchSearch();
        OptimizationResult libra = opt.optimize(targets, cfg);
        BwConfig equal = net.equalBw(1000.0);

        Seconds tEq = themis.estimate(w, equal);
        Seconds tLb = themis.estimate(w, libra.bw);
        Dollars cEq = cm.networkCost(net, equal);
        Dollars cLb = cm.networkCost(net, libra.bw);

        t.row({"iso-resource", "EqualBW+Themis", "1000",
               dollarsToString(cEq), secondsToString(tEq), "1.00",
               "1.00"});
        t.row({"iso-resource", "LIBRA+Themis", "1000",
               dollarsToString(cLb), secondsToString(tLb),
               Table::num(tEq / tLb, 2),
               Table::num((tEq * cEq) / (tLb * cLb), 2)});
        std::cout << "iso-resource: LIBRA cost reduction "
                  << Table::num(cEq / cLb, 2)
                  << "x (paper: 4.58x)\n";
    }

    // --- iso-cost: $15M each. ---
    {
        const Dollars budget = 15e6;
        // EqualBW at $15M: solve bw from the linear cost model.
        double ratePerNpu = 0.0;
        for (std::size_t d = 0; d < net.numDims(); ++d)
            ratePerNpu += cm.dollarPerGBps(net.dim(d));
        ratePerNpu /= static_cast<double>(net.numDims());
        double eqBw = budget / (ratePerNpu *
                                static_cast<double>(net.npus()));
        BwConfig equal = net.equalBw(eqBw);

        OptimizerConfig cfg;
        cfg.objective = OptimizationObjective::PerfOpt;
        cfg.totalBw = 6000.0; // Generous ceiling; dollars bind.
        cfg.relaxTotalBw = true;
        cfg.budgetCap = budget;
        cfg.search = bench::benchSearch();
        OptimizationResult libra = opt.optimize(targets, cfg);

        double libraBwTotal = 0.0;
        for (double b : libra.bw)
            libraBwTotal += b;

        Seconds tEq = themis.estimate(w, equal);
        Seconds tLb = themis.estimate(w, libra.bw);
        Dollars cEq = cm.networkCost(net, equal);
        Dollars cLb = libra.cost;

        t.row({"iso-cost", "EqualBW+Themis", Table::num(eqBw, 0),
               dollarsToString(cEq), secondsToString(tEq), "1.00",
               "1.00"});
        t.row({"iso-cost", "LIBRA+Themis", Table::num(libraBwTotal, 0),
               dollarsToString(cLb), secondsToString(tLb),
               Table::num(tEq / tLb, 2),
               Table::num((tEq * cEq) / (tLb * cLb), 2)});
        std::cout << "iso-cost: LIBRA affords "
                  << Table::num(libraBwTotal / eqBw, 2)
                  << "x more BW per NPU (paper: 5.05x)\n";
    }

    t.print(std::cout);
    std::cout << "\nClaim check: with Themis enabled on both networks, "
                 "the LIBRA design still wins — large speedup iso-cost, "
                 "large perf-per-cost gain iso-resource.\n";
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
