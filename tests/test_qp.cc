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
        Vec p = projectOntoConstraints(cs, q);
        for (double v : p) {
            std::uint64_t b;
            std::memcpy(&b, &v, sizeof(b));
            for (int byte = 0; byte < 8; ++byte) {
                h ^= (b >> (8 * byte)) & 0xffu;
                h *= 1099511628211ull;
            }
        }
    }
    EXPECT_EQ(h, 0xf64fd208c2a40ff6ull) << std::hex << h;
}

} // namespace
} // namespace libra
