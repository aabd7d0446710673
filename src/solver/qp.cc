#include "solver/qp.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/logging.hh"
#include "solver/feasible.hh"

namespace libra {

namespace {

/** Working-set tolerance and iteration cap of the active-set method. */
constexpr double kTol = 1e-9;
constexpr int kMaxIterations = 200;

/**
 * Row-major views of min 1/2 x'Qx + c'x s.t. A x = b, G x <= h. The
 * iterations start feasible and keep A x fixed, so b is never read.
 */
struct QpView
{
    std::size_t n = 0;  ///< Variables.
    std::size_t me = 0; ///< Equality rows.
    std::size_t mi = 0; ///< Inequality rows.
    const double* q = nullptr; ///< n x n.
    const double* c = nullptr; ///< n.
    const double* a = nullptr; ///< me x n.
    const double* g = nullptr; ///< mi x n.
    const double* h = nullptr; ///< mi.
};

/**
 * Scratch for one QP solve: doubles and working-set row indices in
 * inline buffers, with a heap fallback past their capacity (the recipe
 * the estimator kernels' ScratchBuffer uses for its reciprocals). The inline
 * sizes hold every problem LIBRA builds — a handful of dimensions, the
 * budget row, one lower bound per dimension and a few extra rows — so
 * those solve without touching the heap. One workspace per call:
 * concurrent solves share nothing.
 */
class QpWorkspace
{
  public:
    QpWorkspace(std::size_t doubles, std::size_t rows)
    {
        if (doubles > kInlineDoubles) {
            heapDoubles_.resize(doubles);
            doubles_ = heapDoubles_.data();
        }
        if (rows > kInlineRows) {
            heapRows_.resize(rows);
            rows_ = heapRows_.data();
        }
    }

    QpWorkspace(const QpWorkspace&) = delete;
    QpWorkspace& operator=(const QpWorkspace&) = delete;

    /** The next @p count doubles of the buffer (uninitialized). */
    double*
    take(std::size_t count)
    {
        double* p = doubles_ + used_;
        used_ += count;
        return p;
    }

    /** Room for one index per inequality row. */
    std::size_t* rows() { return rows_; }

  private:
    static constexpr std::size_t kInlineDoubles = 1024;
    static constexpr std::size_t kInlineRows = 64;

    double inlineDoubles_[kInlineDoubles];
    std::size_t inlineRows_[kInlineRows];
    std::vector<double> heapDoubles_;
    std::vector<std::size_t> heapRows_;
    double* doubles_ = inlineDoubles_;
    std::size_t* rows_ = inlineRows_;
    std::size_t used_ = 0;
};

/** Doubles runActiveSet() takes from the workspace. */
std::size_t
activeSetDoubles(const QpView& qp)
{
    const std::size_t dim = qp.n + qp.me + qp.mi;
    return dim * dim + dim;
}

/** row . x over n entries, accumulated like dot(). */
double
rowDot(const double* row, const double* x, std::size_t n)
{
    double s = 0.0;
    for (std::size_t j = 0; j < n; ++j)
        s += row[j] * x[j];
    return s;
}

/**
 * Write the KKT system of the working set at x into @p k (dim x dim,
 * row-major) and @p rhs:
 *
 *   [ Q   A'  Gw' ] [ p   ]   [ -(Qx + c) ]
 *   [ A   0   0   ] [ lam ] = [ 0         ]
 *   [ Gw  0   0   ] [ mu  ]   [ 0         ]
 */
void
assembleKkt(const QpView& qp, const double* x, const std::size_t* working,
            std::size_t mw, double* k, double* rhs)
{
    const std::size_t n = qp.n;
    const std::size_t me = qp.me;
    const std::size_t dim = n + me + mw;
    std::fill(k, k + dim * dim, 0.0);
    std::fill(rhs, rhs + dim, 0.0);

    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            k[i * dim + j] = qp.q[i * n + j];
    for (std::size_t r = 0; r < me; ++r)
        for (std::size_t j = 0; j < n; ++j) {
            k[(n + r) * dim + j] = qp.a[r * n + j];
            k[j * dim + n + r] = qp.a[r * n + j];
        }
    for (std::size_t wi = 0; wi < mw; ++wi) {
        const double* row = qp.g + working[wi] * n;
        for (std::size_t j = 0; j < n; ++j) {
            k[(n + me + wi) * dim + j] = row[j];
            k[j * dim + n + me + wi] = row[j];
        }
    }
    for (std::size_t i = 0; i < n; ++i)
        rhs[i] = -(rowDot(qp.q + i * n, x, n) + qp.c[i]);
}

/**
 * True when the active set's first iteration from the phase-1 point @p x
 * of a projection (Q = I, c = -point), with no working row, provably
 * stops without moving x. Its step p solves K [p; lam] = [r; 0] with
 * r = -(x + c), as assembleKkt() builds it. No equality row: K = I, the
 * LU returns r bit for bit, and the test is exact. One row a with
 * |a_j| <= 1: K = [I a; a' 0] keeps its diagonal pivots and first n
 * rows, so the LU computes lam = a'r / a'a from two recursive sums and
 * p_i = r_i - a_i lam, as done here. With u = eps / 2, each sum errs by
 * at most nu / (1 - nu) times its magnitude sum, fused or not (Higham,
 * Accuracy and Stability of Numerical Algorithms, 2nd ed., §3.1), so
 * either evaluation's lam is within 3(n + 1)u ||a||_1 R / a'a of the
 * exact one, R = ||r||_inf. The LU's |p_i| is then at most
 * (1 + 4u)|p~_i| + (6n + 11)u ||a||_inf ||a||_1 R / a'a for the p~
 * computed here: slack covers the second term and testing against
 * kTol / 2 the rest, with this test's own rounding and underflow
 * (a'a >= 1e-200). Any other case runs the active set.
 */
bool
firstStepCannotMove(const QpView& qp, const double* x)
{
    const std::size_t n = qp.n;
    const double* a = qp.me == 1 ? qp.a : nullptr;
    double rInf = 0.0;
    double aInf = 0.0;
    double a1 = 0.0;
    double aa = 0.0;
    double ar = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
        const double r = -(x[j] + qp.c[j]);
        if (!std::isfinite(r))
            return false;
        rInf = std::max(rInf, std::abs(r));
        if (a) {
            aInf = std::max(aInf, std::abs(a[j]));
            a1 += std::abs(a[j]);
            aa += a[j] * a[j];
            ar += a[j] * r;
        }
    }
    if (qp.me == 0)
        return rInf <= kTol;
    if (!a || aInf > 1.0 || !(aa >= 1e-200))
        return false;
    const double lam = ar / aa;
    double pInf = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        pInf = std::max(pInf, std::abs(x[i] + qp.c[i] + a[i] * lam));
    const double slack = 16.0 * static_cast<double>(n + 1) *
                         std::numeric_limits<double>::epsilon() * aInf *
                         a1 / aa * rInf;
    return pInf + slack <= kTol / 2;
}

/**
 * Primal active-set iterations from the feasible point @p x, updated in
 * place, whose working set starts as the first @p mw rows of
 * ws.rows(): the inequality rows active at x.
 *
 * @return true when an iteration stepped x (even by alpha = 0); false
 *         means x was never written.
 */
bool
runActiveSet(const QpView& qp, double* x, std::size_t mw, QpWorkspace& ws)
{
    const std::size_t n = qp.n;
    const std::size_t me = qp.me;
    const std::size_t dimMax = n + me + qp.mi;
    double* k = ws.take(dimMax * dimMax);
    double* z = ws.take(dimMax);
    const double* p = z;
    std::size_t* working = ws.rows();
    bool moved = false;

    for (int iter = 0; iter < kMaxIterations; ++iter) {
        // Step p and the working rows' multipliers mu.
        assembleKkt(qp, x, working, mw, k, z);
        const std::size_t dim = n + me + mw;
        if (!luSolveInPlace(k, z, dim)) {
            // Degenerate working set (linearly dependent rows):
            // regularized least squares still yields a usable step
            // direction. The factorization clobbered the system, so
            // rebuild it for the fallback.
            Matrix kk(dim, dim);
            Vec rhs(dim);
            assembleKkt(qp, x, working, mw, kk.data(), rhs.data());
            Vec sol = kk.solveLeastSquares(rhs);
            std::copy(sol.begin(), sol.end(), z);
        }
        const double* mu = z + n + me;

        double pInf = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            pInf = std::max(pInf, std::abs(p[i]));
        if (pInf <= kTol) {
            // Stationary on the working set; check dual feasibility.
            double muMin = 0.0;
            std::size_t drop = 0;
            bool found = false;
            for (std::size_t wi = 0; wi < mw; ++wi) {
                if (mu[wi] < muMin - kTol) {
                    muMin = mu[wi];
                    drop = wi;
                    found = true;
                }
            }
            if (!found)
                break;
            std::copy(working + drop + 1, working + mw, working + drop);
            --mw;
            continue;
        }

        // Line search to the nearest blocking inequality.
        double alpha = 1.0;
        std::size_t blocking = std::numeric_limits<std::size_t>::max();
        for (std::size_t r = 0; r < qp.mi; ++r) {
            if (std::find(working, working + mw, r) != working + mw)
                continue;
            const double* row = qp.g + r * n;
            double gp = rowDot(row, p, n);
            if (gp > kTol) {
                double slack = qp.h[r] - rowDot(row, x, n);
                double a = slack / gp;
                if (a < alpha) {
                    alpha = std::max(0.0, a);
                    blocking = r;
                }
            }
        }

        for (std::size_t i = 0; i < n; ++i)
            x[i] = x[i] + alpha * p[i];
        moved = true;
        if (blocking != std::numeric_limits<std::size_t>::max())
            working[mw++] = blocking;
    }
    return moved;
}

} // namespace

void
projectOntoConstraints(const ConstraintSet& constraints, const Vec& point,
                       Vec* out)
{
    const std::size_t n = constraints.numVars();
    if (point.size() != n)
        panic("projecting a ", point.size(), "-vector onto ", n,
              " variables");

    // Phase 2's problem, min 1/2||x||^2 - point'x, over the canonical
    // rows: equalities A x = b, inequalities G x <= h with Ge rows
    // negated into Le form, each kept in constraint order. c is read
    // from point before phase 1 writes *out, so out may alias point.
    QpView qp;
    qp.n = n;
    for (const auto& c : constraints.constraints())
        ++(c.rel == Relation::Eq ? qp.me : qp.mi);
    QpWorkspace ws(n * n + n + qp.me * n + qp.mi * (n + 1) + n +
                       activeSetDoubles(qp),
                   qp.mi);
    double* c = ws.take(n);
    for (std::size_t i = 0; i < n; ++i)
        c[i] = -1.0 * point[i];

    // Phase 1: alternating projections reach a feasible neighbourhood.
    // Their output is then the QP iterate.
    Vec& x = *out;
    x = point;
    const double residual = findFeasiblePoint(constraints, &x);
    if (!(residual <= 1e-5))
        fatal("constraint set is infeasible (residual ", residual, ")");

    double* a = ws.take(qp.me * n);
    double* g = ws.take(qp.mi * n);
    double* h = ws.take(qp.mi);
    std::size_t ei = 0;
    std::size_t ii = 0;
    for (const auto& con : constraints.constraints()) {
        switch (con.rel) {
          case Relation::Eq:
            std::copy(con.coeffs.begin(), con.coeffs.end(), a + ei++ * n);
            break;
          case Relation::Le:
            std::copy(con.coeffs.begin(), con.coeffs.end(), g + ii * n);
            h[ii++] = con.rhs;
            break;
          case Relation::Ge:
            for (std::size_t j = 0; j < n; ++j)
                g[ii * n + j] = -1.0 * con.coeffs[j];
            h[ii++] = -con.rhs;
            break;
        }
    }
    qp.c = c;
    qp.a = a;
    qp.g = g;
    qp.h = h;

    // The working set starts with the inequality rows active at x. With
    // none, a first step that cannot move x leaves the projection at x.
    std::size_t mw = 0;
    for (std::size_t r = 0; r < qp.mi; ++r) {
        if (std::abs(rowDot(g + r * n, x.data(), n) - h[r]) <= 1e-8)
            ws.rows()[mw++] = r;
    }
    if (mw == 0 && firstStepCannotMove(qp, x.data()))
        return;

    // Q = I stays an explicit matrix: assembleKkt's Q x sums run over
    // every entry, zero terms included, and the pinned outputs rely on
    // exactly those sums.
    double* q = ws.take(n * n);
    std::fill(q, q + n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        q[i * n + i] = 1.0;
    qp.q = q;

    // Fall back to the phase-1 point if the active set stepped out of
    // the polyhedron. Without a step x still equals that point bit for
    // bit, so the check could not change it.
    double* start = ws.take(n);
    std::copy(x.begin(), x.end(), start);
    if (runActiveSet(qp, x.data(), mw, ws) &&
        !constraints.feasible(x, 1e-6))
        std::copy(start, start + n, x.begin());
}

Vec
projectOntoConstraints(const ConstraintSet& constraints, const Vec& point)
{
    Vec x;
    projectOntoConstraints(constraints, point, &x);
    return x;
}

} // namespace libra
