#include "cost/cost_model.hh"

#include <cmath>

#include "common/json.hh"
#include "common/logging.hh"

namespace libra {

namespace {

/** The components a dimension buys beyond its links. */
struct BoughtParts
{
    bool switches = false; ///< switchLevels layers of switch ports.
    bool nic = false;
};

BoughtParts
boughtParts(const NetworkDim& dim)
{
    // Chiplets are always connected peer-to-peer (paper §IV-D), so a
    // switch never appears at Chiplet level even for SW-notation dims.
    // A hierarchy within the dimension (Fig. 4b) buys one layer of
    // switch ports per level without adding parallel connectivity.
    // Only Pod-level dimensions leave the node through a NIC.
    return {needsSwitch(dim.type) && dim.level != PhysicalLevel::Chiplet,
            dim.level == PhysicalLevel::Pod};
}

} // namespace

CostModel
CostModel::defaultModel()
{
    CostModel m;
    m.setLevelCost(PhysicalLevel::Chiplet, {2.0, 0.0, 0.0});
    m.setLevelCost(PhysicalLevel::Package, {4.0, 13.0, 0.0});
    m.setLevelCost(PhysicalLevel::Node, {4.0, 13.0, 0.0});
    m.setLevelCost(PhysicalLevel::Pod, {7.8, 18.0, 31.6});
    return m;
}

void
CostModel::setLevelCost(PhysicalLevel level, ComponentCost cost)
{
    if (!(std::isfinite(cost.link) && std::isfinite(cost.switch_) &&
          std::isfinite(cost.nic))) {
        fatal(physicalLevelName(level), " prices must be finite, got "
              "LINK ", cost.link, " SWITCH ", cost.switch_, " NIC ",
              cost.nic);
    }
    levels_[level] = cost;
}

ComponentCost
CostModel::levelCost(PhysicalLevel level) const
{
    auto it = levels_.find(level);
    return it == levels_.end() ? ComponentCost{} : it->second;
}

double
CostModel::dollarPerGBps(const NetworkDim& dim) const
{
    ComponentCost c = levelCost(dim.level);
    BoughtParts parts = boughtParts(dim);
    double rate = c.link;
    if (parts.switches)
        rate += c.switch_ * dim.switchLevels;
    if (parts.nic)
        rate += c.nic;
    return rate;
}

Dollars
CostModel::networkCost(const Network& net, const BwConfig& bw) const
{
    if (bw.size() != net.numDims()) {
        panic("bw config rank ", bw.size(), " != network dims ",
              net.numDims());
    }
    double perNpu = 0.0;
    for (std::size_t i = 0; i < net.numDims(); ++i)
        perNpu += dollarPerGBps(net.dim(i)) * bw[i];
    return perNpu * static_cast<double>(net.npus());
}

std::vector<DimCostBreakdown>
CostModel::breakdown(const Network& net, const BwConfig& bw) const
{
    std::vector<DimCostBreakdown> out;
    double npus = static_cast<double>(net.npus());
    for (std::size_t i = 0; i < net.numDims(); ++i) {
        const NetworkDim& d = net.dim(i);
        ComponentCost c = levelCost(d.level);
        BoughtParts parts = boughtParts(d);
        DimCostBreakdown b;
        b.dim = i;
        b.level = d.level;
        b.linkCost = c.link * bw[i] * npus;
        if (parts.switches)
            b.switchCost = c.switch_ * d.switchLevels * bw[i] * npus;
        if (parts.nic)
            b.nicCost = c.nic * bw[i] * npus;
        out.push_back(b);
    }
    return out;
}

void
appendCanonicalText(std::string& out, const CostModel& model)
{
    for (PhysicalLevel level :
         {PhysicalLevel::Chiplet, PhysicalLevel::Package,
          PhysicalLevel::Node, PhysicalLevel::Pod}) {
        ComponentCost c = model.levelCost(level);
        appendCanonicalNumber(out, c.link);
        appendCanonicalNumber(out, c.switch_);
        appendCanonicalNumber(out, c.nic);
    }
}

bool
costModelsEqual(const CostModel& a, const CostModel& b)
{
    std::string ta, tb;
    appendCanonicalText(ta, a);
    appendCanonicalText(tb, b);
    return ta == tb;
}

} // namespace libra
