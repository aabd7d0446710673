/**
 * @file
 * Workload intermediate representation.
 *
 * A workload is a list of layers; each layer carries three phases in the
 * style of the paper's training loop (Fig. 5): forward (compute + comm),
 * input-gradient / TP backward (compute + comm), and weight-gradient / DP
 * backward (compute + comm). Communication is a list of collectives with
 * a *scope* — the communicator group they run over — resolved against a
 * concrete network and parallelization at estimation time.
 */

#ifndef LIBRA_WORKLOAD_WORKLOAD_HH
#define LIBRA_WORKLOAD_WORKLOAD_HH

#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "collective/multi_rail.hh"
#include "common/units.hh"

namespace libra {

/** Communicator group a collective runs over. */
enum class CommScope
{
    Tp,  ///< The tensor-parallel group (innermost ranks).
    Pp,  ///< The pipeline-parallel group (stride = TP size).
    Dp,  ///< The data-parallel group (stride = TP*PP size).
    All, ///< Every NPU in the system (e.g. DLRM embedding All-to-All).
};

/** Human-readable scope name. */
std::string commScopeName(CommScope scope);

/** One collective issued by a layer phase. */
struct CommOp
{
    CollectiveType type = CollectiveType::AllReduce;
    CommScope scope = CommScope::Dp;
    Bytes size = 0.0;

    bool operator==(const CommOp&) const = default;
};

/** One model layer with per-phase compute times and collectives. */
struct Layer
{
    std::string name; ///< A label: no estimate, report or cache key reads it.

    Seconds fwdCompute = 0.0; ///< Forward pass compute.
    Seconds igCompute = 0.0;  ///< Input-gradient (TP backward) compute.
    Seconds wgCompute = 0.0;  ///< Weight-gradient (DP backward) compute.

    std::vector<CommOp> fwdComm; ///< Forward-pass collectives.
    std::vector<CommOp> igComm;  ///< TP backward collectives.
    std::vector<CommOp> wgComm;  ///< DP gradient-sync collectives.

    bool operator==(const Layer&) const = default;
};

/**
 * An immutable layer array shared by every copy: copying a workload, and
 * so a design point, bumps one reference count instead of copying each
 * layer's collectives. There is no in-place edit; build a vector and
 * assign it. The shared body also keeps the layers' run-length canonical
 * text (see appendCanonicalText), formatted once when the array is built.
 */
class LayerList
{
  public:
    LayerList() = default;
    LayerList(std::vector<Layer> layers);
    LayerList(std::initializer_list<Layer> layers)
        : LayerList(std::vector<Layer>(layers))
    {}

    std::size_t size() const { return body_ ? body_->layers.size() : 0; }
    bool empty() const { return size() == 0; }
    const Layer* begin() const
    {
        return body_ ? body_->layers.data() : nullptr;
    }
    const Layer* end() const { return begin() + size(); }
    const Layer& operator[](std::size_t i) const { return begin()[i]; }
    const Layer& front() const { return body_->layers.front(); }
    const Layer& back() const { return body_->layers.back(); }

    /** appendCanonicalText's layer runs; valid while a copy lives. */
    std::string_view runText() const
    {
        return body_ ? std::string_view(body_->runText) : std::string_view();
    }

    /** Layer-wise content equality; one shared array is equal to itself. */
    bool operator==(const LayerList& other) const;

  private:
    struct Body
    {
        std::vector<Layer> layers;
        std::string runText;
    };
    std::shared_ptr<const Body> body_;
};

/**
 * Hybrid parallelization strategy HP-(tp, pp, dp): the model is sharded
 * tp-way (consecutive ranks), cut into pp pipeline stages above that,
 * and the dataset is split dp-way at the top. Plain HP-(tp, dp) is the
 * pp == 1 special case.
 */
struct Parallelization
{
    long tp = 1;
    long pp = 1;
    long dp = 1;

    Parallelization() = default;
    Parallelization(long tp_size, long dp_size)
        : tp(tp_size), dp(dp_size)
    {}
    Parallelization(long tp_size, long pp_size, long dp_size)
        : tp(tp_size), pp(pp_size), dp(dp_size)
    {}

    long npus() const { return tp * pp * dp; }
    std::string name() const;

    bool operator==(const Parallelization&) const = default;
};

/** A full training workload. */
struct Workload
{
    std::string name;
    double parameters = 0.0; ///< Total model parameter count.
    Parallelization strategy;
    LayerList layers;

    /** Sum of compute seconds over all layers and phases. */
    Seconds totalCompute() const;

    /** Sum of collective payload bytes over all layers and phases. */
    Bytes totalCommPayload() const;

    /** All comm ops of a layer across the three phases. */
    static std::vector<CommOp> allOps(const Layer& layer);

    /** Deep member-wise content equality. */
    bool operator==(const Workload&) const = default;
};

/**
 * Append a canonical, collision-safe text form of @p w to @p out: the
 * name, parameters, strategy and layer count, then the layers as
 * maximal runs of consecutive layers equal in every field but the
 * name, each run written once as `<count>x` + its compute times and
 * collectives. Strings are length-prefixed and doubles shortest
 * round-trip. The study result cache keys on it, so every
 * Workload/Layer/CommOp field that affects results must be listed
 * here. Layer names are left out: no estimate or report reads them.
 * Equal workloads (Workload::operator==) therefore always have equal
 * text, and so do workloads that differ only in layer names; the only
 * distinct finite doubles with equal text are +0 and -0, which also
 * compare equal.
 */
void appendCanonicalText(std::string& out, const Workload& w);

} // namespace libra

#endif // LIBRA_WORKLOAD_WORKLOAD_HH
