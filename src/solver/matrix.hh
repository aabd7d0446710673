/**
 * @file
 * Small dense linear-algebra kernel backing the projection.
 *
 * LIBRA's optimization problems are tiny (a handful of network dimensions
 * plus a handful of constraints), so a straightforward row-major matrix
 * with partial-pivot LU and a ridge-regularized least-squares fallback is
 * both sufficient and dependency-free.
 */

#ifndef LIBRA_SOLVER_MATRIX_HH
#define LIBRA_SOLVER_MATRIX_HH

#include <cstddef>
#include <vector>

namespace libra {

/** Dense column vector. */
using Vec = std::vector<double>;

/** Dot product of equally sized vectors. */
double dot(const Vec& a, const Vec& b);

/** Euclidean norm. */
double norm(const Vec& a);

/** Dense row-major matrix. */
class Matrix
{
  public:
    Matrix() = default;

    /** rows x cols zero matrix. */
    Matrix(std::size_t rows, std::size_t cols);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
    double at(std::size_t r, std::size_t c) const
    {
        return data_[r * cols_ + c];
    }

    /** Row-major storage, rows() * cols() entries. */
    double* data() { return data_.data(); }
    const double* data() const { return data_.data(); }

    /** Matrix-vector product. */
    Vec mul(const Vec& x) const;

    /** Matrix-matrix product. */
    Matrix mul(const Matrix& other) const;

    Matrix transposed() const;

    /**
     * Solve A x = b via LU with partial pivoting.
     *
     * @param b Right-hand side, length rows() (matrix must be square).
     * @param ok Set to false when the matrix is numerically singular.
     * @return Solution vector (garbage when !ok).
     */
    Vec solve(const Vec& b, bool* ok = nullptr) const;

    /**
     * Minimum-norm-biased least-squares solve via ridge-regularized
     * normal equations: (AtA + ridge*I) x = At b. Used as a fallback when
     * the KKT system of a degenerate working set is singular.
     */
    Vec solveLeastSquares(const Vec& b, double ridge = 1e-10) const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/**
 * Solve the row-major n x n system a x = b in place by LU with partial
 * pivoting: @p a is overwritten by its factors and @p b by the solution.
 * Matrix::solve runs this on copies; the projection on its workspace.
 *
 * @return false when the matrix is numerically singular (both arrays
 *         then hold a partial elimination).
 */
bool luSolveInPlace(double* a, double* b, std::size_t n);

} // namespace libra

#endif // LIBRA_SOLVER_MATRIX_HH
