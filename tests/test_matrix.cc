/**
 * @file
 * Tests for the dense linear-algebra kernel.
 */

#include <gtest/gtest.h>

#include <random>

#include "solver/matrix.hh"

namespace libra {
namespace {

/** Identity of size @p n. */
Matrix
identity(std::size_t n)
{
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        m.at(i, i) = 1.0;
    return m;
}

/** Uniform double in [lo, hi), one fresh distribution per draw. */
double
drawUniform(std::mt19937_64& rng, double lo, double hi)
{
    return std::uniform_real_distribution<double>(lo, hi)(rng);
}

TEST(VecOps, DotNorm)
{
    Vec a{1.0, 2.0, 3.0};
    Vec b{4.0, 5.0, 6.0};
    EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
    EXPECT_DOUBLE_EQ(norm(Vec{3.0, 4.0}), 5.0);
}

TEST(Matrix, IdentitySolve)
{
    Matrix i = identity(3);
    Vec b{1.0, -2.0, 5.0};
    bool ok = false;
    Vec x = i.solve(b, &ok);
    EXPECT_TRUE(ok);
    for (int k = 0; k < 3; ++k)
        EXPECT_DOUBLE_EQ(x[static_cast<std::size_t>(k)],
                         b[static_cast<std::size_t>(k)]);
}

TEST(Matrix, KnownSolve)
{
    // [2 1; 1 3] x = [3; 5] -> x = [4/5, 7/5]
    Matrix a(2, 2);
    a.at(0, 0) = 2;
    a.at(0, 1) = 1;
    a.at(1, 0) = 1;
    a.at(1, 1) = 3;
    bool ok = false;
    Vec x = a.solve({3.0, 5.0}, &ok);
    ASSERT_TRUE(ok);
    EXPECT_NEAR(x[0], 0.8, 1e-12);
    EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Matrix, SolveNeedsPivoting)
{
    // Leading zero forces a row swap.
    Matrix a(2, 2);
    a.at(0, 0) = 0;
    a.at(0, 1) = 1;
    a.at(1, 0) = 1;
    a.at(1, 1) = 0;
    bool ok = false;
    Vec x = a.solve({2.0, 3.0}, &ok);
    ASSERT_TRUE(ok);
    EXPECT_NEAR(x[0], 3.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Matrix, SingularDetected)
{
    Matrix a(2, 2);
    a.at(0, 0) = 1;
    a.at(0, 1) = 2;
    a.at(1, 0) = 2;
    a.at(1, 1) = 4;
    bool ok = true;
    a.solve({1.0, 2.0}, &ok);
    EXPECT_FALSE(ok);
}

TEST(Matrix, LeastSquaresConsistentSystem)
{
    // For a nonsingular system least squares matches the exact solve.
    Matrix a(2, 2);
    a.at(0, 0) = 3;
    a.at(0, 1) = 1;
    a.at(1, 0) = 1;
    a.at(1, 1) = 2;
    Vec b{5.0, 5.0};
    Vec exact = a.solve(b);
    Vec ls = a.solveLeastSquares(b);
    EXPECT_NEAR(ls[0], exact[0], 1e-5);
    EXPECT_NEAR(ls[1], exact[1], 1e-5);
}

TEST(Matrix, LeastSquaresSingularStillFinite)
{
    Matrix a(2, 2);
    a.at(0, 0) = 1;
    a.at(0, 1) = 1;
    a.at(1, 0) = 1;
    a.at(1, 1) = 1;
    Vec x = a.solveLeastSquares({2.0, 2.0});
    // x0 + x1 should be ~2 (the consistent constraint), values finite.
    EXPECT_NEAR(x[0] + x[1], 2.0, 1e-3);
}

TEST(Matrix, MulAndTranspose)
{
    Matrix a(2, 3);
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            a.at(r, c) = static_cast<double>(r * 3 + c + 1);
    Vec x{1.0, 0.0, -1.0};
    Vec y = a.mul(x);
    EXPECT_DOUBLE_EQ(y[0], 1.0 - 3.0);
    EXPECT_DOUBLE_EQ(y[1], 4.0 - 6.0);

    Matrix at = a.transposed();
    EXPECT_EQ(at.rows(), 3u);
    EXPECT_EQ(at.cols(), 2u);
    EXPECT_DOUBLE_EQ(at.at(2, 1), a.at(1, 2));
}

TEST(Matrix, MatrixMatrixProduct)
{
    Matrix a(2, 2);
    a.at(0, 0) = 1;
    a.at(0, 1) = 2;
    a.at(1, 0) = 3;
    a.at(1, 1) = 4;
    Matrix b = identity(2);
    Matrix c = a.mul(b);
    EXPECT_DOUBLE_EQ(c.at(0, 1), 2.0);
    EXPECT_DOUBLE_EQ(c.at(1, 1), 4.0);
}

/** Property: solve() inverts random well-conditioned SPD systems. */
class MatrixRandomSolve : public ::testing::TestWithParam<int>
{};

TEST_P(MatrixRandomSolve, SolvesRandomSpdSystem)
{
    const int n = 5;
    std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
    // A = R'R + n*I is SPD and well conditioned.
    Matrix r(n, n);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
            r.at(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
                drawUniform(rng, -1, 1);
    Matrix a = r.transposed().mul(r);
    for (int i = 0; i < n; ++i)
        a.at(static_cast<std::size_t>(i), static_cast<std::size_t>(i)) +=
            n;

    Vec want(n);
    for (double& v : want)
        v = drawUniform(rng, -10, 10);
    Vec b = a.mul(want);
    bool ok = false;
    Vec got = a.solve(b, &ok);
    ASSERT_TRUE(ok);
    for (int i = 0; i < n; ++i)
        EXPECT_NEAR(got[static_cast<std::size_t>(i)],
                    want[static_cast<std::size_t>(i)], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatrixRandomSolve,
                         ::testing::Range(0, 20));

} // namespace
} // namespace libra
