/**
 * @file
 * Allocation guard for the solver inner loops.
 *
 * This binary replaces the global operator new with a counting one.
 * While a guard is armed, every call is counted. A projection into a
 * correctly sized buffer must allocate nothing, and each iterative
 * stage must allocate the same number of times at two iteration caps:
 * its buffers are sized once, so the iterations add no allocations.
 * The test pins "allocation-free per iteration" without pinning a
 * constant.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>

#include "core/estimator.hh"
#include "core/objective.hh"
#include "cost/cost_model.hh"
#include "solver/feasible.hh"
#include "solver/nelder_mead.hh"
#include "solver/pattern_search.hh"
#include "solver/qp.hh"
#include "solver/subgradient.hh"
#include "workload/zoo.hh"

namespace {

std::atomic<bool> gArmed{false};
std::atomic<long long> gAllocations{0};

} // namespace

// Out of line, so GCC's -Wmismatched-new-delete cannot see a free()
// inlined against an operator new result.
[[gnu::noinline]] void*
operator new(std::size_t size)
{
    if (gArmed.load(std::memory_order_relaxed))
        gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace libra {
namespace {

/** Global operator new calls made by @p body. */
long long
allocationsOf(const std::function<void()>& body)
{
    gAllocations = 0;
    gArmed = true;
    body();
    gArmed = false;
    return gAllocations;
}

/** The optimizer's shape of problem on a 4D network, with a cap row. */
struct Problem
{
    Network net = Network::parse("RI(4)_FC(8)_RI(4)_SW(32)");
    TrainingEstimator est{net};
    CostModel cost = CostModel::defaultModel();
    std::vector<TargetWorkload> targets{{wl::resnet50(net.npus()), 0.75},
                                        {wl::gpt3(net.npus()), 0.25}};
    ConstraintSet cs{net.numDims()};
    Vec x0;

    Problem()
    {
        cs.addTotalBw(700.0);
        cs.addLowerBounds(1.0);
        cs.addParsed("B2 + B3 <= 150");
        x0 = projectOntoConstraints(cs, Vec{300.0, 200.0, 150.0, 50.0});
    }

    ScalarObjective
    objective(OptimizationObjective o) const
    {
        return makeObjective(o, est, cost, targets);
    }
};

/**
 * Projects each of @p points into a sized buffer and in place (the
 * buffer aliasing the point) and expects no allocation and the output
 * of the allocating overload.
 */
void
expectAllocationFreeProjections(const ConstraintSet& cs,
                                const std::vector<Vec>& points)
{
    Vec out(cs.numVars());
    for (const Vec& point : points) {
        Vec want = projectOntoConstraints(cs, point);
        EXPECT_EQ(allocationsOf([&] {
                      projectOntoConstraints(cs, point, &out);
                  }),
                  0);
        EXPECT_EQ(out, want);
        out = point;
        EXPECT_EQ(allocationsOf([&] {
                      projectOntoConstraints(cs, out, &out);
                  }),
                  0);
        EXPECT_EQ(out, want);
    }
}

TEST(SolverAllocations, ProjectionIntoASizedBufferAllocatesNothing)
{
    Problem p;
    expectAllocationFreeProjections(
        p.cs, {
                  {300.0, 200.0, 150.0, 50.0}, // Breaks the B2 + B3 cap.
                  p.x0,                        // Already feasible.
                  {-5.0, 900.0, 0.0, 1.0},     // Far outside, several rows.
              });
}

/**
 * Both projection routes allocate nothing: a pattern-search poll whose
 * phase-1 point has no active inequality, which the projection returns
 * without an active-set solve, and a point whose phase-1 point sits on
 * B1's lower bound, from which the active set runs.
 */
TEST(SolverAllocations, StationaryAndActiveSetProjectionsAllocateNothing)
{
    ConstraintSet cs(4);
    cs.addTotalBw(700.0);
    cs.addLowerBounds(1.0);
    const Vec poll{310.0, 200.0, 150.0, 50.0};
    const Vec belowBound{-5.0, 300.0, 200.0, 200.0};

    Vec phase1 = poll;
    findFeasiblePoint(cs, &phase1);
    EXPECT_EQ(projectOntoConstraints(cs, poll), phase1);
    phase1 = belowBound;
    findFeasiblePoint(cs, &phase1);
    EXPECT_NEAR(phase1[0], 1.0, 1e-8);

    expectAllocationFreeProjections(cs, {poll, belowBound});
}

/**
 * Runs @p stage at a small and a large iteration cap and expects the
 * same allocation count while the iteration counts differ.
 */
void
expectFlatAllocations(
    const std::function<SearchResult(int cap)>& stage)
{
    SearchResult small, large;
    const long long a = allocationsOf([&] { small = stage(50); });
    const long long b = allocationsOf([&] { large = stage(500); });
    EXPECT_LT(small.iterations, large.iterations);
    EXPECT_EQ(a, b) << small.iterations << " vs " << large.iterations
                    << " iterations";
}

TEST(SolverAllocations, StagesDoNotAllocatePerIteration)
{
    Problem p;
    for (OptimizationObjective o : {OptimizationObjective::PerfOpt,
                                    OptimizationObjective::PerfPerCostOpt}) {
        SCOPED_TRACE(objectiveName(o));
        const ScalarObjective f = p.objective(o);
        {
            SCOPED_TRACE("subgradient");
            expectFlatAllocations([&](int cap) {
                SubgradientOptions opt;
                opt.maxIterations = cap;
                opt.patience = cap;
                return projectedSubgradient(f, p.cs, p.x0, opt);
            });
        }
        {
            SCOPED_TRACE("pattern-search");
            expectFlatAllocations([&](int cap) {
                PatternSearchOptions opt;
                opt.maxIterations = cap;
                opt.minStep = 0.0;
                return patternSearch(f, p.cs, p.x0, opt);
            });
        }
        {
            SCOPED_TRACE("nelder-mead");
            expectFlatAllocations([&](int cap) {
                NelderMeadOptions opt;
                opt.maxIterations = cap;
                opt.tol = 0.0;
                return nelderMead(f, p.cs, p.x0, opt);
            });
        }
    }
}

} // namespace
} // namespace libra
