/**
 * @file
 * Tests for the linear constraint set and its text parser.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "solver/constraint_set.hh"

namespace libra {
namespace {

TEST(ConstraintSet, TotalBwAndBounds)
{
    ConstraintSet cs(3);
    cs.addTotalBw(300.0);
    cs.addLowerBounds(1.0);
    EXPECT_EQ(cs.constraints().size(), 4u);

    EXPECT_TRUE(cs.feasible({100.0, 100.0, 100.0}));
    EXPECT_FALSE(cs.feasible({100.0, 100.0, 50.0}));  // Sum != 300.
    EXPECT_FALSE(cs.feasible({299.0, 0.5, 0.5}));     // Below floor.
}

TEST(ConstraintSet, ViolationMagnitude)
{
    ConstraintSet cs(2);
    cs.addTotalBw(10.0);
    EXPECT_NEAR(cs.maxViolation({6.0, 6.0}), 2.0, 1e-12);
    EXPECT_NEAR(cs.maxViolation({4.0, 6.0}), 0.0, 1e-12);
}

TEST(ConstraintSet, UpperBound)
{
    ConstraintSet cs(4);
    cs.add({0.0, 0.0, 0.0, 1.0}, Relation::Le, 50.0, "ub-B4");
    EXPECT_TRUE(cs.feasible({0, 0, 0, 50.0}));
    EXPECT_FALSE(cs.feasible({0, 0, 0, 50.1}));
}

TEST(ConstraintParser, SimpleLe)
{
    ConstraintSet cs(4);
    cs.addParsed("B1 + B2 <= 500");
    EXPECT_TRUE(cs.feasible({250, 250, 999, 999}));
    EXPECT_FALSE(cs.feasible({251, 250, 0, 0}));
}

TEST(ConstraintParser, EqualityAcrossSides)
{
    // Paper example: B2 + B3 = B4.
    ConstraintSet cs(4);
    cs.addParsed("B2 + B3 = B4");
    EXPECT_TRUE(cs.feasible({7, 10, 20, 30}));
    EXPECT_FALSE(cs.feasible({7, 10, 20, 31}));
}

TEST(ConstraintParser, Coefficients)
{
    ConstraintSet cs(2);
    cs.addParsed("2*B1 + 3 B2 <= 12");
    EXPECT_TRUE(cs.feasible({3, 2}));
    EXPECT_FALSE(cs.feasible({3.1, 2}));
}

TEST(ConstraintParser, ChainedOrdering)
{
    // Paper example: B1 >= B2 >= B3 expands to two constraints.
    ConstraintSet cs(3);
    cs.addParsed("B1 >= B2 >= B3");
    EXPECT_EQ(cs.constraints().size(), 2u);
    EXPECT_TRUE(cs.feasible({3, 2, 1}));
    EXPECT_FALSE(cs.feasible({3, 2, 2.5}));
    EXPECT_FALSE(cs.feasible({1, 2, 0}));
}

TEST(ConstraintParser, ChainedRangeWithConstants)
{
    // Paper example: 25 <= B3 <= 150.
    ConstraintSet cs(3);
    cs.addParsed("25 <= B3 <= 150");
    EXPECT_TRUE(cs.feasible({0, 0, 100}));
    EXPECT_FALSE(cs.feasible({0, 0, 20}));
    EXPECT_FALSE(cs.feasible({0, 0, 200}));
}

TEST(ConstraintParser, NegativeAndConstantTerms)
{
    ConstraintSet cs(2);
    cs.addParsed("B1 - B2 + 5 = 10");
    EXPECT_TRUE(cs.feasible({8, 3}));
    EXPECT_FALSE(cs.feasible({8, 4}));
}

TEST(ConstraintParser, DoubleEqualsAccepted)
{
    ConstraintSet cs(1);
    cs.addParsed("B1 == 42");
    EXPECT_TRUE(cs.feasible({42}));
}

TEST(ConstraintParser, Errors)
{
    ConstraintSet cs(2);
    EXPECT_THROW(cs.addParsed("B1 + B2"), FatalError);     // No relation.
    EXPECT_THROW(cs.addParsed("B9 <= 5"), FatalError);     // Bad index.
    EXPECT_THROW(cs.addParsed("B <= 5"), FatalError);      // No index.
    EXPECT_THROW(cs.addParsed("B1 <= + "), FatalError);    // Bad term.
    EXPECT_THROW(cs.addParsed("B1 ~ 5"), FatalError);      // Bad relation.
    // Past the index and double ranges, and malformed number tokens.
    EXPECT_THROW(cs.addParsed("B99999999999999999999999 <= 5"),
                 FatalError);
    EXPECT_THROW(cs.addParsed("B1 <= 1e-320"), FatalError);
    EXPECT_THROW(cs.addParsed("B1 <= 1e999"), FatalError);
    EXPECT_THROW(cs.addParsed("B1 <= 1e"), FatalError);
    EXPECT_THROW(cs.addParsed("B1 <= 1.2.3"), FatalError);
    EXPECT_THROW(cs.addParsed(". B1 <= 5"), FatalError);
    EXPECT_TRUE(cs.constraints().empty());
}

TEST(ConstraintSet, LabelsPreserved)
{
    ConstraintSet cs(2);
    cs.addParsed("B1 <= 5");
    EXPECT_EQ(cs.constraints()[0].label, "B1 <= 5");
}

} // namespace
} // namespace libra
