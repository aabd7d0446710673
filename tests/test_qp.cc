/**
 * @file
 * Tests for the feasibility sweeps and the Euclidean projection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "solver/feasible.hh"
#include "solver/qp.hh"

namespace libra {
namespace {

TEST(FindFeasible, HitsSimplex)
{
    ConstraintSet cs(3);
    cs.addTotalBw(30.0);
    cs.addLowerBounds(1.0);
    Vec x{100.0, -5.0, 2.0};
    const double residual = findFeasiblePoint(cs, &x);
    EXPECT_EQ(residual, cs.maxViolation(x));
    EXPECT_LE(residual, 1e-8);
}

TEST(FindFeasible, EqualityChain)
{
    ConstraintSet cs(4);
    cs.addTotalBw(100.0);
    cs.addParsed("B2 + B3 = B4");
    cs.addLowerBounds(0.5);
    Vec x{25, 25, 25, 25};
    const double residual = findFeasiblePoint(cs, &x);
    EXPECT_EQ(residual, cs.maxViolation(x));
    EXPECT_LE(residual, 1e-8);
}

TEST(Projection, InteriorPointUnchanged)
{
    ConstraintSet cs(2);
    cs.addParsed("B1 + B2 <= 10");
    cs.addLowerBounds(0.0);
    Vec p = projectOntoConstraints(cs, {2.0, 3.0});
    EXPECT_NEAR(p[0], 2.0, 1e-7);
    EXPECT_NEAR(p[1], 3.0, 1e-7);
}

TEST(Projection, OntoSimplexKnownAnswer)
{
    // Project (2, 0) onto {x >= 0, x0+x1 = 1}: answer (1, 0)... actually
    // the Euclidean projection of (2,0) onto the segment is (1, 0)? The
    // unconstrained hyperplane projection is (1.5, -0.5); clipping to
    // x1 >= 0 gives the vertex (1, 0).
    ConstraintSet cs(2);
    cs.addTotalBw(1.0);
    cs.addLowerBounds(0.0);
    Vec p = projectOntoConstraints(cs, {2.0, 0.0});
    EXPECT_NEAR(p[0], 1.0, 1e-6);
    EXPECT_NEAR(p[1], 0.0, 1e-6);
}

TEST(Projection, EqualityRowKnownAnswer)
{
    // min ||x||^2 s.t. x0 + x1 = 2 -> x = (1, 1).
    ConstraintSet cs(2);
    cs.add({1.0, 1.0}, Relation::Eq, 2.0, "sum");
    Vec p = projectOntoConstraints(cs, {0.0, 0.0});
    EXPECT_NEAR(p[0], 1.0, 1e-8);
    EXPECT_NEAR(p[1], 1.0, 1e-8);
}

TEST(Projection, ActiveInequalityKnownAnswer)
{
    // min ||x - (3, 0)||^2 s.t. x0 <= 1 -> x = (1, 0).
    ConstraintSet cs(2);
    cs.add({1.0, 0.0}, Relation::Le, 1.0, "cap");
    Vec p = projectOntoConstraints(cs, {3.0, 0.0});
    EXPECT_NEAR(p[0], 1.0, 1e-7);
    EXPECT_NEAR(p[1], 0.0, 1e-7);
}

TEST(Projection, EqualityWithActiveInequalityKnownAnswer)
{
    // On the line x0 + x1 = 2 the nearest point to (3, 0) is (2.5,
    // -0.5); the cap x0 <= 1 binds and moves it to the vertex (1, 1).
    ConstraintSet cs(2);
    cs.add({1.0, 1.0}, Relation::Eq, 2.0, "sum");
    cs.add({1.0, 0.0}, Relation::Le, 1.0, "cap");
    Vec p = projectOntoConstraints(cs, {3.0, 0.0});
    EXPECT_NEAR(p[0], 1.0, 1e-7);
    EXPECT_NEAR(p[1], 1.0, 1e-7);
}

TEST(Projection, Idempotent)
{
    ConstraintSet cs(3);
    cs.addTotalBw(9.0);
    cs.addLowerBounds(0.5);
    Vec once = projectOntoConstraints(cs, {10.0, -4.0, 1.0});
    Vec twice = projectOntoConstraints(cs, once);
    for (int i = 0; i < 3; ++i)
        EXPECT_NEAR(once[static_cast<std::size_t>(i)],
                    twice[static_cast<std::size_t>(i)], 1e-6);
}

TEST(Projection, InfeasibleSetThrows)
{
    ConstraintSet cs(2);
    cs.addParsed("B1 + B2 = 10");
    cs.addParsed("B1 + B2 = 20");
    EXPECT_THROW(projectOntoConstraints(cs, {5.0, 5.0}), FatalError);
}

/** Uniform double in [lo, hi), one fresh distribution per draw. */
double
drawUniform(std::mt19937_64& rng, double lo, double hi)
{
    return std::uniform_real_distribution<double>(lo, hi)(rng);
}

/** Rng::simplexPoint's draw, taken from @p rng's stream. */
std::vector<double>
drawSimplexPoint(std::mt19937_64& rng, std::size_t n, double total)
{
    std::exponential_distribution<double> dist(1.0);
    std::vector<double> v(n);
    double sum = 0.0;
    for (double& x : v) {
        x = dist(rng);
        sum += x;
    }
    for (double& x : v)
        x *= total / sum;
    return v;
}

/** Euclidean distance between @p a and @p b. */
double
euclidean(const Vec& a, const Vec& b)
{
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        s += (a[i] - b[i]) * (a[i] - b[i]);
    return std::sqrt(s);
}

/**
 * Property: the projection is no farther from the query point than any
 * random feasible point (definition of Euclidean projection).
 */
class ProjectionProperty : public ::testing::TestWithParam<int>
{};

TEST_P(ProjectionProperty, ClosestAmongSamples)
{
    std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 977 + 5);
    ConstraintSet cs(4);
    cs.addTotalBw(100.0);
    cs.addLowerBounds(0.1);
    cs.add({1.0, 0.0, 0.0, 0.0}, Relation::Le, 60.0, "ub-B1");

    Vec q(4);
    for (double& v : q)
        v = drawUniform(rng, -50.0, 150.0);
    Vec p = projectOntoConstraints(cs, q);
    ASSERT_LE(cs.maxViolation(p), 1e-5);
    double dp = euclidean(p, q);

    for (int s = 0; s < 50; ++s) {
        Vec cand = drawSimplexPoint(rng, 4, 100.0);
        if (!cs.feasible(cand, 1e-9))
            continue;
        EXPECT_LE(dp, euclidean(cand, q) + 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProjectionProperty,
                         ::testing::Range(0, 10));

// --- Bit-exact corpus ----------------------------------------------------

std::string
hex(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

std::string
hexVec(const Vec& v)
{
    std::string s;
    for (double x : v)
        s += hex(x) + " ";
    return s;
}

/** One projection problem of the corpus. */
struct ProjectionCase
{
    const char* name;
    ConstraintSet constraints;
    Vec point;
};

/**
 * Projection problems covering every constraint shape the optimizer
 * builds: equality and relaxed (Le) budgets, Ge orderings, a dollar-cap
 * row, an equality chain, an active lower bound, a duplicated equality
 * whose KKT system is singular (the least-squares fallback), and a
 * 16-dimensional problem larger than the projection's inline workspace.
 */
std::vector<ProjectionCase>
projectionCorpus()
{
    std::vector<ProjectionCase> corpus;
    {
        ConstraintSet cs(4);
        cs.addTotalBw(400.0);
        cs.addLowerBounds(1.0);
        corpus.push_back({"eq-simplex", cs, {250.5, -30.25, 90.0, 120.125}});
    }
    {
        ConstraintSet cs(3);
        cs.addTotalBw(300.0, Relation::Le);
        cs.addLowerBounds(1.0);
        corpus.push_back({"le-budget", cs, {200.0, 150.0, -5.0}});
    }
    {
        ConstraintSet cs(3);
        cs.addTotalBw(300.0);
        cs.addParsed("B1 >= B2 >= B3");
        cs.addLowerBounds(1.0);
        corpus.push_back({"ge-ordering", cs, {20.0, 200.0, 80.0}});
    }
    {
        ConstraintSet cs(4);
        cs.addTotalBw(500.0, Relation::Le);
        cs.addLowerBounds(1.0);
        cs.add({18.3 * 64, 7.8 * 64, 31.6 * 64, 12.0 * 64}, Relation::Le,
               2.0e6, "dollar-cap");
        corpus.push_back({"dollar-cap", cs, {300.0, 100.0, 200.0, 50.0}});
    }
    {
        ConstraintSet cs(4);
        cs.addTotalBw(100.0);
        cs.addParsed("B2 + B3 = B4");
        cs.addLowerBounds(0.5);
        corpus.push_back({"eq-chain", cs, {70.0, 5.0, 40.0, 3.0}});
    }
    {
        ConstraintSet cs(3);
        cs.addTotalBw(60.0);
        cs.addLowerBounds(2.0);
        corpus.push_back({"active-lower-bound", cs, {80.0, -40.0, 10.0}});
    }
    {
        ConstraintSet cs(3);
        cs.addTotalBw(30.0);
        cs.addTotalBw(30.0);
        cs.addLowerBounds(0.5);
        corpus.push_back({"singular-kkt", cs, {40.0, -3.0, 1.0}});
    }
    {
        ConstraintSet cs(16);
        cs.addTotalBw(1600.0);
        cs.addLowerBounds(1.0);
        for (std::size_t i = 0; i < 16; i += 3) {
            Vec row(16, 0.0);
            row[i] = 1.0;
            cs.add(row, Relation::Le, 80.0 + static_cast<double>(i), "ub");
        }
        Vec point(16);
        for (std::size_t i = 0; i < 16; ++i)
            point[i] = 100.0 * static_cast<double>((i * 7) % 5) - 50.5;
        corpus.push_back({"large-16d", cs, point});
    }
    return corpus;
}

/** splitmix64: a portable stream for the randomized digest. */
std::uint64_t
splitmix(std::uint64_t* state)
{
    std::uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
uniform(std::uint64_t* state, double lo, double hi)
{
    return lo + (hi - lo) * static_cast<double>(splitmix(state) >> 11) *
                    0x1p-53;
}

/** Fold @p v's bits into the FNV-1a digest @p h. */
void
foldBits(std::uint64_t* h, const Vec& v)
{
    for (double x : v) {
        std::uint64_t b;
        std::memcpy(&b, &x, sizeof(b));
        for (int byte = 0; byte < 8; ++byte) {
            *h ^= (b >> (8 * byte)) & 0xffu;
            *h *= 1099511628211ull;
        }
    }
}

/**
 * A mantissa in [1, 2) times 2^e for e in @p lo..@p hi: a roughly
 * log-uniform draw from 2^lo to 2^(hi + 1) that needs no libm call.
 */
double
logUniform(std::uint64_t* state, int lo, int hi)
{
    const int e = lo + static_cast<int>(
                           splitmix(state) %
                           static_cast<std::uint64_t>(hi - lo + 1));
    return std::ldexp(uniform(state, 1.0, 2.0), e);
}

/**
 * The projection's output bits for the corpus, captured as hexfloats:
 * any change to the phase-1 sweeps, the KKT assembly, the LU pivot and
 * elimination order or the active-set rule shows up here. A failure
 * prints the actual values.
 */
TEST(ProjectionCorpus, OutputsAreBitExact)
{
    const std::vector<Vec> expected{
        {0x1.cbeaaaaaaac49p+7, 0x1p+0, 0x1.15d5555555892p+6,
         0x1.8e55555555892p+6},
        {0x1.5d0000000051cp+7, 0x1.f200000000a3ap+6, 0x1p+0},
        {0x1.b8p+6, 0x1.b8p+6, 0x1.4p+6},
        {0x1.068p+8, 0x1.f4p+5, 0x1.45p+7, 0x1.9p+3},
        {0x1.06p+6, 0x1p-1, 0x1.0c00000001855p+4, 0x1.13fffffffe7abp+4},
        {0x1.c000000002aa9p+5, 0x1p+1, 0x1p+1},
        {0x1.d0000000049d6p+4, 0x1p-1, 0x1p-1},
        {0x1p+0, 0x1.c955555555425p+6, 0x1.3a55555555509p+8,
         0x1.caaaaaaaaa128p+3, 0x1.acaaaaaaaaa12p+7, 0x1p+0, 0x1.58p+6,
         0x1.3a55555555509p+8, 0x1.caaaaaaaaa128p+3, 0x1.64p+6, 0x1p+0,
         0x1.c955555555425p+6, 0x1.7p+6, 0x1.caaaaaaaaa128p+3,
         0x1.acaaaaaaaaa12p+7, 0x1p+0},
    };
    std::vector<ProjectionCase> corpus = projectionCorpus();
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        const ProjectionCase& c = corpus[i];
        SCOPED_TRACE(c.name);
        Vec p = projectOntoConstraints(c.constraints, c.point);
        EXPECT_LE(c.constraints.maxViolation(p), 1e-6);
        ASSERT_LT(i, expected.size()) << hexVec(p);
        EXPECT_EQ(p, expected[i]) << hexVec(p);
    }
}

/**
 * 2,000 random projections (n = 2..6; Eq or Le budgets, lower bounds,
 * and an optional extra Le or Ge row), digested over their output bits.
 */
TEST(ProjectionCorpus, RandomSweepDigestIsBitExact)
{
    std::uint64_t state = 0x5eed;
    std::uint64_t h = 1469598103934665603ull;
    for (int k = 0; k < 2000; ++k) {
        const std::size_t n = 2 + splitmix(&state) % 5;
        ConstraintSet cs(n);
        const double total = uniform(&state, 10.0, 1000.0);
        cs.addTotalBw(total, splitmix(&state) % 2 ? Relation::Eq
                                                  : Relation::Le);
        cs.addLowerBounds(uniform(&state, 0.0, total / (4.0 * n)));
        switch (splitmix(&state) % 3) {
          case 0:
            break;
          case 1: {
            // Feasible (the lower bounds hold at most a quarter of the
            // budget) and active for budget splits that favor costly
            // dimensions.
            Vec row(n);
            for (double& v : row)
                v = uniform(&state, 0.5, 40.0);
            const double lo = *std::min_element(row.begin(), row.end());
            const double hi = *std::max_element(row.begin(), row.end());
            cs.add(row, Relation::Le, (lo + 0.5 * hi) * total, "cap");
            break;
          }
          case 2:
            cs.addParsed("B1 >= B2");
            break;
        }
        Vec q(n);
        for (double& v : q)
            v = uniform(&state, -0.5 * total, 1.5 * total);
        foldBits(&h, projectOntoConstraints(cs, q));
    }
    EXPECT_EQ(h, 0xf64fd208c2a40ff6ull) << std::hex << h;
}

/**
 * One problem of the poll corpus: an Eq or Le budget of 2^-10..2^20
 * (TOTAL_BW's 1e-3..1e6 range) over n = 2..6 or 16 dimensions, lower
 * bounds, and one of: nothing, a cost-weighted Le cap, a Ge ordering,
 * an all-zero equality row, or the budget again as an equality (the
 * last two make the KKT system singular).
 */
ConstraintSet
pollProblem(std::uint64_t* state, double* total)
{
    static const std::size_t kSizes[] = {2, 3, 4, 5, 6, 16};
    const std::size_t n = kSizes[splitmix(state) % 6];
    ConstraintSet cs(n);
    *total = logUniform(state, -10, 19);
    cs.addTotalBw(*total, splitmix(state) % 2 ? Relation::Eq : Relation::Le);
    cs.addLowerBounds(uniform(state, 0.0, *total / (4.0 * n)));
    switch (splitmix(state) % 5) {
      case 0:
        break;
      case 1: {
        Vec row(n);
        for (double& v : row)
            v = uniform(state, 0.5, 40.0);
        const double lo = *std::min_element(row.begin(), row.end());
        const double hi = *std::max_element(row.begin(), row.end());
        cs.add(row, Relation::Le, (lo + 0.5 * hi) * *total, "cap");
        break;
      }
      case 2:
        cs.addParsed("B1 >= B2");
        break;
      case 3:
        cs.add(Vec(n, 0.0), Relation::Eq, 0.0, "zero");
        break;
      case 4:
        cs.addTotalBw(*total);
        break;
    }
    return cs;
}

/**
 * A solver-shaped query around a feasible point @p y: a pattern-search
 * poll (y plus or minus a step along one axis) or a subgradient step (y
 * minus a step along a random direction), with the step 2^-40..2^10
 * (about 1e-12..1e3) times @p total.
 */
Vec
pollQuery(std::uint64_t* state, const Vec& y, double total)
{
    const double step = total * logUniform(state, -40, 9);
    Vec q = y;
    if (splitmix(state) % 2) {
        const std::size_t i = splitmix(state) % q.size();
        q[i] += splitmix(state) % 2 ? step : -step;
    } else {
        for (double& v : q)
            v -= step * uniform(state, -1.0, 1.0);
    }
    return q;
}

/**
 * Projections shaped like the solvers' own inputs, digested over their
 * output bits. Each problem projects a random start (as multistart
 * does), then a query around that feasible point, in place as pattern
 * search does.
 */
TEST(ProjectionCorpus, PollDigestIsBitExact)
{
    std::uint64_t state = 0x9011;
    std::uint64_t h = 1469598103934665603ull;
    for (int k = 0; k < 2000; ++k) {
        double total = 0.0;
        ConstraintSet cs = pollProblem(&state, &total);
        Vec start(cs.numVars());
        for (double& v : start)
            v = uniform(&state, -0.5 * total, 1.5 * total);
        const Vec y = projectOntoConstraints(cs, start);
        foldBits(&h, y);
        Vec q = pollQuery(&state, y, total);
        projectOntoConstraints(cs, q, &q);
        foldBits(&h, q);
    }
    EXPECT_EQ(h, 0x654e5127c085315eull) << std::hex << h;
}

/**
 * Queries built so the first active-set step lands within 0.1x..10x of
 * its 1e-9 stationarity tolerance: an Eq budget over lower bounds, an
 * interior point y, and a query y + t (1, ..., 1) + e for a shift t of
 * 2^14..2^28 along the budget row's normal and a nudge e of at most
 * 2^-30 of the budget. Phase 1 lands near y + e with no bound active, so
 * the step orthogonal to the budget row is phase 1's rounding, about
 * 2^-53 |t|. Only queries whose step, computed from phase 1's point,
 * falls in that window are kept: there a shortcut that decided on too
 * loose an error bound would change the output first.
 */
TEST(ProjectionCorpus, BoundaryDigestIsBitExact)
{
    constexpr double kTol = 1e-9;
    std::uint64_t state = 0xb0d4;
    std::uint64_t h = 1469598103934665603ull;
    int kept = 0;
    for (int k = 0; k < 4000; ++k) {
        static const std::size_t kSizes[] = {2, 3, 4, 5, 6, 16};
        const std::size_t n = kSizes[splitmix(&state) % 6];
        const double total = logUniform(&state, -10, 19);
        const double lo = uniform(&state, 0.0, total / (4.0 * n));
        ConstraintSet cs(n);
        cs.addTotalBw(total);
        cs.addLowerBounds(lo);
        Vec w(n);
        double sum = 0.0;
        for (double& v : w)
            sum += v = uniform(&state, 1.0, 2.0);
        const double t = (splitmix(&state) % 2 ? 1.0 : -1.0) *
                         logUniform(&state, 14, 27);
        Vec q(n);
        for (std::size_t i = 0; i < n; ++i)
            q[i] = lo + (total - n * lo) * w[i] / sum + t +
                   total * 0x1p-30 * uniform(&state, -1.0, 1.0);

        Vec x = q;
        findFeasiblePoint(cs, &x);
        double mean = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            mean += (q[i] - x[i]) / static_cast<double>(n);
        double step = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            step = std::max(step, std::abs(q[i] - x[i] - mean));
        if (step < 0.1 * kTol || step > 10.0 * kTol)
            continue;
        ++kept;
        foldBits(&h, projectOntoConstraints(cs, q));
    }
    EXPECT_EQ(kept, 448);
    EXPECT_EQ(h, 0x8fbe37e1ad349813ull) << std::hex << h;
}

} // namespace
} // namespace libra
