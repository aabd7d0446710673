/**
 * @file
 * Linear design constraints over the per-dimension bandwidth vector.
 *
 * This is LIBRA's constraint language (paper §IV-F): the system designer
 * expresses restrictions such as a fixed total bandwidth per NPU
 * ("B1 + B2 + B3 + B4 = 1000"), per-dimension caps ("B4 <= 50"), or
 * orderings ("B1 >= B2 >= B3"). Constraints can be built programmatically
 * or parsed from text.
 */

#ifndef LIBRA_SOLVER_CONSTRAINT_SET_HH
#define LIBRA_SOLVER_CONSTRAINT_SET_HH

#include <cstddef>
#include <string>
#include <vector>

#include "solver/matrix.hh"

namespace libra {

/** Relation of a linear constraint. */
enum class Relation { Eq, Le, Ge };

/** One linear constraint: coeffs . x (rel) rhs. */
struct LinearConstraint
{
    Vec coeffs;
    Relation rel = Relation::Eq;
    double rhs = 0.0;
    std::string label;
    double normSq = 0.0; ///< coeffs . coeffs, set by ConstraintSet::add.

    /** Signed violation: positive means the constraint is violated. */
    double violation(const Vec& x) const;
};

/**
 * A conjunction of linear constraints over n bandwidth variables
 * B1..Bn (1-based in the text syntax, 0-based in code).
 */
class ConstraintSet
{
  public:
    explicit ConstraintSet(std::size_t num_vars);

    std::size_t numVars() const { return numVars_; }

    /** Add a fully formed constraint (its normSq is recomputed). */
    void add(LinearConstraint c);

    /** Add coeffs . x (rel) rhs. */
    void add(const Vec& coeffs, Relation rel, double rhs,
             std::string label = "");

    /**
     * Parse and add constraints from text, e.g.
     *   "B1 + 2*B2 <= 500"
     *   "B2 + B3 = B4"
     *   "25 <= B3 <= 150"      (chained relations expand pairwise)
     *   "B1 >= B2 >= B3"
     *
     * Variables are B1..Bn; bare numbers are constants; terms may carry
     * multiplicative coefficients ("2*B1" or "2 B1").
     *
     * @throws FatalError on syntax errors or out-of-range variables.
     */
    void addParsed(const std::string& text);

    /** Sum of all variables (rel) total — the per-NPU BW budget. */
    void addTotalBw(double total, Relation rel = Relation::Eq);

    /** Every variable >= lo (BW cannot be negative or zero). */
    void addLowerBounds(double lo);

    const std::vector<LinearConstraint>& constraints() const
    {
        return constraints_;
    }

    /** Largest violation across constraints (0 when feasible). */
    double maxViolation(const Vec& x) const;

    /** True when all constraints hold within @p tol. */
    bool feasible(const Vec& x, double tol = 1e-7) const;

  private:
    std::size_t numVars_;
    std::vector<LinearConstraint> constraints_;
};

} // namespace libra

#endif // LIBRA_SOLVER_CONSTRAINT_SET_HH
