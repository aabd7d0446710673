#include "solver/matrix.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace libra {

double
dot(const Vec& a, const Vec& b)
{
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        s += a[i] * b[i];
    return s;
}

double
norm(const Vec& a)
{
    return std::sqrt(dot(a, a));
}

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0)
{}

Vec
Matrix::mul(const Vec& x) const
{
    Vec r(rows_, 0.0);
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = 0; j < cols_; ++j)
            r[i] += at(i, j) * x[j];
    return r;
}

Matrix
Matrix::mul(const Matrix& other) const
{
    Matrix r(rows_, other.cols_);
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t k = 0; k < cols_; ++k) {
            double aik = at(i, k);
            if (aik == 0.0)
                continue;
            for (std::size_t j = 0; j < other.cols_; ++j)
                r.at(i, j) += aik * other.at(k, j);
        }
    return r;
}

Matrix
Matrix::transposed() const
{
    Matrix r(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = 0; j < cols_; ++j)
            r.at(j, i) = at(i, j);
    return r;
}

bool
luSolveInPlace(double* a, double* b, std::size_t n)
{
    for (std::size_t col = 0; col < n; ++col) {
        // Partial pivot.
        std::size_t pivot = col;
        double best = std::abs(a[col * n + col]);
        for (std::size_t r = col + 1; r < n; ++r) {
            double v = std::abs(a[r * n + col]);
            if (v > best) {
                best = v;
                pivot = r;
            }
        }
        if (best < 1e-300)
            return false;
        if (pivot != col) {
            for (std::size_t j = 0; j < n; ++j)
                std::swap(a[col * n + j], a[pivot * n + j]);
            std::swap(b[col], b[pivot]);
        }
        for (std::size_t r = col + 1; r < n; ++r) {
            double f = a[r * n + col] / a[col * n + col];
            if (f == 0.0)
                continue;
            for (std::size_t j = col; j < n; ++j)
                a[r * n + j] -= f * a[col * n + j];
            b[r] -= f * b[col];
        }
    }
    for (std::size_t ri = n; ri-- > 0;) {
        double s = b[ri];
        for (std::size_t j = ri + 1; j < n; ++j)
            s -= a[ri * n + j] * b[j];
        b[ri] = s / a[ri * n + ri];
    }
    return true;
}

Vec
Matrix::solve(const Vec& b, bool* ok) const
{
    if (rows_ != cols_)
        panic("solve on non-square matrix ", rows_, "x", cols_);
    Matrix a = *this;
    Vec x = b;
    const bool solved = luSolveInPlace(a.data(), x.data(), rows_);
    if (ok)
        *ok = solved;
    if (!solved)
        return Vec(rows_, 0.0);
    return x;
}

Vec
Matrix::solveLeastSquares(const Vec& b, double ridge) const
{
    Matrix at = transposed();
    Matrix ata = at.mul(*this);
    // Scale the ridge with the matrix magnitude for numerical robustness.
    double diagMax = 0.0;
    for (std::size_t i = 0; i < ata.rows(); ++i)
        diagMax = std::max(diagMax, std::abs(ata.at(i, i)));
    double eps = ridge * std::max(1.0, diagMax);
    for (std::size_t i = 0; i < ata.rows(); ++i)
        ata.at(i, i) += eps;
    Vec atb = at.mul(b);
    bool ok = false;
    Vec x = ata.solve(atb, &ok);
    if (!ok) {
        // Extremely degenerate; fall back to a heavier ridge.
        for (std::size_t i = 0; i < ata.rows(); ++i)
            ata.at(i, i) += 1e-6 * std::max(1.0, diagMax);
        x = ata.solve(atb, &ok);
    }
    return x;
}

} // namespace libra
