#include "workload/workload.hh"

#include <algorithm>

#include "common/json.hh"
#include "common/logging.hh"

namespace libra {

std::string
commScopeName(CommScope scope)
{
    switch (scope) {
      case CommScope::Tp:
        return "TP";
      case CommScope::Pp:
        return "PP";
      case CommScope::Dp:
        return "DP";
      case CommScope::All:
        return "ALL";
    }
    panic("unknown comm scope");
}

std::string
Parallelization::name() const
{
    if (pp == 1) {
        return "HP-(" + std::to_string(tp) + ", " + std::to_string(dp) +
               ")";
    }
    return "HP-(" + std::to_string(tp) + ", " + std::to_string(pp) +
           ", " + std::to_string(dp) + ")";
}

Seconds
Workload::totalCompute() const
{
    Seconds t = 0.0;
    for (const auto& l : layers)
        t += l.fwdCompute + l.igCompute + l.wgCompute;
    return t;
}

Bytes
Workload::totalCommPayload() const
{
    Bytes b = 0.0;
    for (const auto& l : layers)
        for (const auto& op : allOps(l))
            b += op.size;
    return b;
}

std::vector<CommOp>
Workload::allOps(const Layer& layer)
{
    std::vector<CommOp> ops;
    ops.insert(ops.end(), layer.fwdComm.begin(), layer.fwdComm.end());
    ops.insert(ops.end(), layer.igComm.begin(), layer.igComm.end());
    ops.insert(ops.end(), layer.wgComm.begin(), layer.wgComm.end());
    return ops;
}

namespace {

void
appendOps(std::string& out, const std::vector<CommOp>& ops)
{
    out += std::to_string(ops.size());
    out += '[';
    for (const auto& op : ops) {
        out += std::to_string(static_cast<int>(op.type));
        out += ',';
        out += std::to_string(static_cast<int>(op.scope));
        out += ',';
        appendCanonicalNumber(out, op.size);
    }
    out += ']';
}

/** Equal in every field but the name, which reaches no result. */
bool
sameContent(const Layer& a, const Layer& b)
{
    return a.fwdCompute == b.fwdCompute && a.igCompute == b.igCompute &&
           a.wgCompute == b.wgCompute && a.fwdComm == b.fwdComm &&
           a.igComm == b.igComm && a.wgComm == b.wgComm;
}

/** The layers as maximal runs of equal layers (see appendCanonicalText). */
std::string
runTextOf(const std::vector<Layer>& layers)
{
    std::string out;
    // Transformer stacks repeat one layer tens of times: each run of
    // equal layers is written once, behind its length.
    for (std::size_t i = 0; i < layers.size();) {
        const Layer& layer = layers[i];
        std::size_t run = 1;
        while (i + run < layers.size() && sameContent(layers[i + run], layer))
            ++run;
        out += std::to_string(run);
        out += 'x';
        appendCanonicalNumber(out, layer.fwdCompute);
        appendCanonicalNumber(out, layer.igCompute);
        appendCanonicalNumber(out, layer.wgCompute);
        appendOps(out, layer.fwdComm);
        appendOps(out, layer.igComm);
        appendOps(out, layer.wgComm);
        i += run;
    }
    return out;
}

} // namespace

LayerList::LayerList(std::vector<Layer> layers)
{
    std::string text = runTextOf(layers);
    body_ = std::make_shared<const Body>(
        Body{std::move(layers), std::move(text)});
}

bool
LayerList::operator==(const LayerList& other) const
{
    return body_ == other.body_ ||
           std::equal(begin(), end(), other.begin(), other.end());
}

void
appendCanonicalText(std::string& out, const Workload& w)
{
    appendCanonicalString(out, w.name);
    appendCanonicalNumber(out, w.parameters);
    out += "hp(";
    out += std::to_string(w.strategy.tp);
    out += ',';
    out += std::to_string(w.strategy.pp);
    out += ',';
    out += std::to_string(w.strategy.dp);
    out += ") ";
    out += std::to_string(w.layers.size());
    out += "layers ";
    out += w.layers.runText();
}

} // namespace libra
