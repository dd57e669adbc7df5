#include "pdn/pdn_backend.hpp"

#include <algorithm>
#include <cmath>

#include "pdn/pdn_sim.hpp"
#include "util/logging.hpp"
#include "util/simd.hpp"

namespace vguard::pdn {

namespace {

/** MatN caps runtime dimension at 8; kernels size stack arrays to it. */
constexpr unsigned kMaxStates = 8;

/**
 * Entry-point validation shared by both factories: at least one lane,
 * and finite trim currents (a non-finite one propagates NaN through
 * the DC trim solve). Package parameters are checked by the
 * PackageModel each engine builds per lane, the one PackageParams
 * check every rail goes through.
 */
void
validateLanes(const std::vector<LaneConfig> &lanes)
{
    VGUARD_CHECK(!lanes.empty());
    for (const LaneConfig &lc : lanes)
        VGUARD_CHECK(std::isfinite(lc.iTrim));
}

// ------------------------------------------------------------- scalar

/**
 * Golden reference: one PdnSim per lane, stepped lane-major. Every
 * voltage it emits comes out of PdnSim::stepMany, i.e. the exact
 * arithmetic the rest of the project already trusts.
 */
class ScalarPdnBackend final : public PdnBackend
{
  public:
    explicit ScalarPdnBackend(const std::vector<LaneConfig> &lanes)
    {
        sims_.reserve(lanes.size());
        for (const LaneConfig &lc : lanes) {
            sims_.emplace_back(PackageModel(lc.package));
            sims_.back().trimToCurrent(lc.iTrim);
        }
    }

    std::string name() const override { return "scalar"; }

    size_t lanes() const override { return sims_.size(); }

    double vddSetPoint(size_t lane) const override
    {
        return sims_[lane].vddSetPoint();
    }

    void reset() override
    {
        for (PdnSim &sim : sims_)
            sim.reset();
    }

    void stepShared(const double *amps, size_t n, double *volts) override
    {
        step(amps, n, volts, false);
    }

    void stepPerLane(const double *amps, size_t n,
                     double *volts) override
    {
        step(amps, n, volts, true);
    }

  private:
    /**
     * One PdnSim::stepMany per lane over the block; per-lane input
     * first gathers the lane's current column out of the cycle-major
     * block.
     */
    void step(const double *amps, size_t n, double *volts, bool perLane)
    {
        const size_t k = sims_.size();
        if (rowBuf_.size() < n) {
            rowBuf_.resize(n);
            colBuf_.resize(n);
        }
        for (size_t lane = 0; lane < k; ++lane) {
            const double *in = amps;
            if (perLane) {
                for (size_t cyc = 0; cyc < n; ++cyc)
                    colBuf_[cyc] = amps[cyc * k + lane];
                in = colBuf_.data();
            }
            sims_[lane].stepMany(in, n, rowBuf_.data());
            for (size_t cyc = 0; cyc < n; ++cyc)
                volts[cyc * k + lane] = rowBuf_[cyc];
        }
    }

    std::vector<PdnSim> sims_;
    std::vector<double> rowBuf_;  ///< one lane's voltage row
    std::vector<double> colBuf_;  ///< one lane's current column
};

// ------------------------------------------------------------ batched

/**
 * Structure-of-arrays engine over packs of W = simd::kPackWidth lanes.
 * Lanes are padded to stride_, a multiple of W, so every pack load is
 * in-bounds; padding lanes take the last real lane's scenario, so they
 * compute real (discarded) values, never NaNs that could trap. Storage
 * is pack-major: each pack owns one block of slots, each slot holding
 * W lane values of one coefficient (or state), so every coefficient of
 * a pack sits at a fixed offset from one pointer and a one-cycle step
 * needs no per-array address set-up.
 *
 * The kernel follows DiscreteStateSpaceN::stepBlock2's canonical
 * summation order term for term (state-major, then inputs in index
 * order, accumulators from +0.0), with DoublePack's elementwise IEEE
 * add/mul standing in for the scalar ops — which makes every lane
 * bit-identical to a scalar PdnSim stepping the same scenario.
 */
class BatchedPdnBackend final : public PdnBackend
{
  public:
    explicit BatchedPdnBackend(const std::vector<LaneConfig> &lanes)
        : k_(lanes.size())
    {
        stride_ = (k_ + W - 1) / W * W;
        ns_ = PackageModel(lanes[0].package).discrete().states();
        VGUARD_CHECK(ns_ >= 1 && ns_ <= kMaxStates);

        coef_.assign(stride_ * slots(ns_), 0.0);
        xTrim_.assign(stride_ * ns_, 0.0);
        for (size_t lane = 0; lane < stride_; ++lane)
            fillLane(lane, lanes[std::min(lane, k_ - 1)]);
        x_ = xTrim_;
    }

    std::string name() const override { return "batched"; }

    size_t lanes() const override { return k_; }

    double vddSetPoint(size_t lane) const override
    {
        return coef_[at(lane, slots(ns_), vddSlot(ns_))];
    }

    void reset() override { x_ = xTrim_; }

    // vlint: hot
    void stepShared(const double *amps, size_t n, double *volts) override
    {
        if (ns_ == 3)
            kernel<3, false>(amps, n, volts);
        else
            kernel<0, false>(amps, n, volts);
    }

    // vlint: hot
    void stepPerLane(const double *amps, size_t n,
                     double *volts) override
    {
        // Full packs load straight from the caller's cycle-major
        // buffer (DoublePack::load is unaligned on every target), so
        // only the tail pack — the one containing padding lanes —
        // needs a repack. Padding lanes clone the last real lane's
        // draw so they keep computing real, discarded values.
        if (stride_ != k_) {
            const size_t base = stride_ - W;
            const size_t live = k_ - base;
            if (tailBlk_.size() < n * W)
                // vlint: allow(alloc-hot) grow-once scratch, first block only
                tailBlk_.resize(n * W);
            for (size_t cyc = 0; cyc < n; ++cyc) {
                double *dst = tailBlk_.data() + cyc * W;
                const double *src = amps + cyc * k_;
                for (size_t lane = 0; lane < live; ++lane)
                    dst[lane] = src[base + lane];
                for (size_t lane = live; lane < W; ++lane)
                    dst[lane] = src[k_ - 1];
            }
        }
        if (ns_ == 3)
            kernel<3, true>(amps, n, volts);
        else
            kernel<0, true>(amps, n, volts);
    }

  private:
    static constexpr size_t W = simd::kPackWidth;

    // A pack's coefficient block: Ad row-major, the Bd columns for
    // u0 = Vdd and u1 = I_cpu, c, then d0, d1 and the set point Vdd.
    static constexpr size_t bd0Slot(unsigned ns) { return size_t{ns} * ns; }
    static constexpr size_t bd1Slot(unsigned ns) { return bd0Slot(ns) + ns; }
    static constexpr size_t cSlot(unsigned ns) { return bd1Slot(ns) + ns; }
    static constexpr size_t d0Slot(unsigned ns) { return cSlot(ns) + ns; }
    static constexpr size_t vddSlot(unsigned ns) { return d0Slot(ns) + 2; }
    static constexpr size_t slots(unsigned ns) { return vddSlot(ns) + 1; }

    /** Index of @p lane's value in @p slot of a per-pack block of
        @p perPack slots. */
    static size_t at(size_t lane, size_t perPack, size_t slot)
    {
        return (lane / W * perPack + slot) * W + lane % W;
    }

    void fillLane(size_t lane, const LaneConfig &lc)
    {
        PackageModel model(lc.package);
        PdnSim sim(model);
        sim.trimToCurrent(lc.iTrim);

        const linsys::DiscreteStateSpaceN dss = model.discrete();
        VGUARD_CHECK(dss.states() == ns_);
        VGUARD_CHECK(dss.inputs() == 2);

        const unsigned ns = ns_;
        auto coef = [&](size_t slot) -> double & {
            return coef_[at(lane, slots(ns), slot)];
        };
        for (unsigned i = 0; i < ns; ++i) {
            for (unsigned j = 0; j < ns; ++j)
                coef(size_t{i} * ns + j) = dss.ad().at(i, j);
            coef(bd0Slot(ns) + i) = dss.bd()[i * 2 + 0];
            coef(bd1Slot(ns) + i) = dss.bd()[i * 2 + 1];
            coef(cSlot(ns) + i) = dss.c()[i];
            xTrim_[at(lane, ns, i)] = sim.state()[i];
        }
        coef(d0Slot(ns)) = dss.d()[0];
        coef(d0Slot(ns) + 1) = dss.d()[1];
        coef(vddSlot(ns)) = sim.vddSetPoint();
    }

    /**
     * The one stepping body, pack-outer / cycle-inner: each pack's
     * state stays in registers across the block, while coefficients
     * are loaded every cycle, each at a fixed offset from the pack's
     * block (hoisting them into stack arrays buys no block throughput
     * and makes a one-cycle step several times slower). NS_HINT =
     * compile-time state count (3 is the PDN fast path; 0 falls back
     * to the runtime dimension). PER_LANE selects u1: a broadcast of
     * the shared amps[cyc], or a per-lane load — straight from the
     * caller's cycle-major buffer for full packs, from the padded
     * tailBlk_ for the one pack that straddles k_.
     */
    template <unsigned NS_HINT, bool PER_LANE>
    // vlint: hot
    void kernel(const double *amps, size_t n, double *volts)
    {
        using simd::DoublePack;
        const unsigned ns = NS_HINT ? NS_HINT : ns_;
        for (size_t base = 0; base < stride_; base += W) {
            const double *q = coef_.data() + base * slots(ns);
            auto co = [q](size_t slot) {
                return DoublePack::load(q + slot * W);
            };
            double *xs = x_.data() + base * ns;
            DoublePack x[kMaxStates], nx[kMaxStates];
            for (unsigned i = 0; i < ns; ++i)
                x[i] = DoublePack::load(xs + i * W);

            const bool full = base + W <= k_;
            const size_t live = full ? W : k_ - base;
            double tail[W];

            // Loop-invariant per-lane input addressing: (pointer,
            // stride) selected per pack keeps the cycle loop
            // branch-free. Unused for a shared trace.
            const double *uSrc =
                PER_LANE && full ? amps + base : tailBlk_.data();
            const size_t uStride = full ? k_ : W;

            for (size_t cyc = 0; cyc < n; ++cyc) {
                const DoublePack u0 = co(vddSlot(ns));
                const DoublePack u1 =
                    PER_LANE ? DoublePack::load(uSrc + cyc * uStride)
                             : DoublePack::broadcast(amps[cyc]);

                DoublePack out = DoublePack::zero();
                for (unsigned i = 0; i < ns; ++i)
                    out = out + co(cSlot(ns) + i) * x[i];
                out = out + co(d0Slot(ns)) * u0;
                out = out + co(d0Slot(ns) + 1) * u1;

                double *dst = volts + cyc * k_ + base;
                if (full) {
                    out.store(dst);
                } else {
                    // A fixed trip count keeps this from becoming a
                    // memcpy call, which would spill every live pack.
                    out.store(tail);
                    for (size_t l = 0; l < W; ++l)
                        if (l < live)
                            dst[l] = tail[l];
                }

                for (unsigned i = 0; i < ns; ++i) {
                    DoublePack acc = DoublePack::zero();
                    for (unsigned j = 0; j < ns; ++j)
                        acc = acc + co(size_t{i} * ns + j) * x[j];
                    acc = acc + co(bd0Slot(ns) + i) * u0;
                    acc = acc + co(bd1Slot(ns) + i) * u1;
                    nx[i] = acc;
                }
                for (unsigned i = 0; i < ns; ++i)
                    x[i] = nx[i];
            }

            for (unsigned i = 0; i < ns; ++i)
                x[i].store(xs + i * W);
        }
    }

    size_t k_;          ///< real scenario lanes
    size_t stride_ = 0; ///< k_ rounded up to W
    unsigned ns_ = 0;   ///< state count (3 for the PDN model)

    std::vector<double> coef_;     ///< per pack, slots(ns_) slots
    std::vector<double> x_;        ///< live state, per pack ns_ slots
    std::vector<double> xTrim_;    ///< DC trim state, same layout
    std::vector<double> tailBlk_;  ///< stepPerLane tail-pack scratch
};

} // namespace

std::unique_ptr<PdnBackend>
makeScalarBackend(const std::vector<LaneConfig> &lanes)
{
    validateLanes(lanes);
    return std::make_unique<ScalarPdnBackend>(lanes);
}

std::unique_ptr<PdnBackend>
makeBatchedBackend(const std::vector<LaneConfig> &lanes)
{
    validateLanes(lanes);
    return std::make_unique<BatchedPdnBackend>(lanes);
}

std::unique_ptr<PdnBackend>
makeBackend(BackendKind kind, const std::vector<LaneConfig> &lanes)
{
    return kind == BackendKind::Scalar ? makeScalarBackend(lanes)
                                       : makeBatchedBackend(lanes);
}

} // namespace vguard::pdn
