/**
 * @file
 * Small dense matrices of runtime dimension (N <= 8) for higher-order
 * supply-network models.
 *
 * The paper abstracts the supply as a second-order system; real
 * power-delivery networks are a hierarchy (VRM → bulk capacitors →
 * package inductance → die capacitance) whose mid-frequency resonance
 * is damped only by the *loop* resistances, not the full DC path. The
 * three-state model built on MatN captures that while keeping the DC
 * resistance at the paper's 0.5 mΩ.
 */

#ifndef VGUARD_LINSYS_MATN_HPP
#define VGUARD_LINSYS_MATN_HPP

#include <cstddef>
#include <vector>

namespace vguard::linsys {

/** Row-major dense square matrix with runtime size. */
class MatN
{
  public:
    explicit MatN(unsigned n);

    static MatN identity(unsigned n);

    unsigned size() const { return n_; }

    double &at(unsigned i, unsigned j) { return v_[i * n_ + j]; }
    double at(unsigned i, unsigned j) const { return v_[i * n_ + j]; }

    MatN operator+(const MatN &o) const;
    MatN operator-(const MatN &o) const;
    MatN operator*(const MatN &o) const;
    MatN operator*(double s) const;

    /** Matrix-vector product. */
    std::vector<double> apply(const std::vector<double> &x) const;

    /**
     * Matrix-vector product into a caller-provided vector (resized on
     * first use, then allocation-free). @p y must not alias @p x.
     */
    void applyInto(const std::vector<double> &x,
                   std::vector<double> &y) const;

    /** Largest absolute entry. */
    double maxAbs() const;

    /** Inverse via Gauss-Jordan with partial pivoting; panics if
     * singular. */
    MatN inverse() const;

    /**
     * Spectral-radius estimate via ||A^(2^k)||_max^(1/2^k) (k = 6);
     * adequate for stability checks.
     */
    double spectralRadiusEstimate() const;

  private:
    unsigned n_;
    std::vector<double> v_;
};

/** Matrix exponential via scaling-and-squaring Taylor series. */
MatN expm(const MatN &m);

/**
 * Continuous LTI system of order N with M inputs and one output:
 * x' = A x + B u,  y = cᵀ x + dᵀ u.
 */
struct StateSpaceN
{
    MatN a;
    std::vector<double> b;  ///< N x M, row-major
    std::vector<double> c;  ///< length N
    std::vector<double> d;  ///< length M
    unsigned inputs = 0;

    StateSpaceN(unsigned n, unsigned m)
        : a(n), b(n * m, 0.0), c(n, 0.0), d(m, 0.0), inputs(m)
    {
    }
};

/** ZOH discretisation of StateSpaceN. */
class DiscreteStateSpaceN
{
  public:
    static DiscreteStateSpaceN zoh(const StateSpaceN &sys, double dt);

    /** x[k+1] = Ad x + Bd u (in place on @p x). */
    void next(std::vector<double> &x, const std::vector<double> &u) const;

    /** y = cᵀ x + dᵀ u. */
    double output(const std::vector<double> &x,
                  const std::vector<double> &u) const;

    /**
     * Block step for two-input systems with the first input held
     * constant (the PDN case: u = [Vdd, I(t)]). For each k:
     * y[k] = output(x, {u0, u1[k]}) then x advances via next() — the
     * arithmetic is bit-identical to the per-cycle pair, only the loop
     * overhead and the u-vector stores are hoisted. Allocation-free
     * after the first call (preallocated scratch).
     *
     * This loop is also the project's canonical FP summation order
     * ("state-major, then inputs in index order", every accumulator
     * starting from +0.0): output(), next(), and the lane-batched
     * pdn::BatchedPdnBackend kernel all follow it term for term, which
     * is what makes batched replay bit-identical to scalar replay
     * (asserted by tests/test_backend_diff.cpp; contraction is
     * disabled globally so no target refuses a*b+c into an FMA).
     */
    void stepBlock2(std::vector<double> &x, double u0, const double *u1,
                    size_t n, double *y) const;

    double spectralRadiusEstimate() const
    {
        return ad_.spectralRadiusEstimate();
    }

    unsigned states() const { return ad_.size(); }
    unsigned inputs() const { return inputs_; }
    double dt() const { return dt_; }

    /**
     * Read-only access to the discretised matrices, for batched PDN
     * back-ends that replicate stepBlock2's exact summation order
     * lane-wise from their own structure-of-arrays copies.
     */
    const MatN &ad() const { return ad_; }
    const std::vector<double> &bd() const { return bd_; }
    const std::vector<double> &c() const { return c_; }
    const std::vector<double> &d() const { return d_; }

  private:
    DiscreteStateSpaceN() : ad_(1), bd_(0) {}

    MatN ad_;
    std::vector<double> bd_;  ///< N x M
    std::vector<double> c_;
    std::vector<double> d_;
    unsigned inputs_ = 0;
    double dt_ = 0.0;
    mutable std::vector<double> scratch_;
};

} // namespace vguard::linsys

#endif // VGUARD_LINSYS_MATN_HPP
