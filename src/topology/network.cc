#include "topology/network.hh"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "common/logging.hh"

namespace libra {

namespace {

/** Most NPUs a network may have: sizes and products stay in range. */
constexpr long kMaxNpus = 1L << 30;

/**
 * The decimal number at @p pos in shape @p text, advanced past; a
 * `fatal` naming the shape unless it is in [@p lo, @p hi]. The scan
 * saturates past @p hi, so no digit string can overflow.
 */
int
scanNumber(const std::string& text, std::size_t& pos, const char* what,
           long lo, long hi)
{
    std::size_t start = pos;
    long v = 0;
    while (pos < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[pos]))) {
        v = std::min(v * 10 + (text[pos] - '0'), hi + 1);
        ++pos;
    }
    if (pos == start)
        fatal("network '", text, "': expected ", what, " at ", start);
    if (v < lo || v > hi) {
        fatal("network '", text, "': ", what, " ",
              text.substr(start, pos - start), " is not in [", lo, ", ",
              hi, "]");
    }
    return static_cast<int>(v);
}

} // namespace

std::string
physicalLevelName(PhysicalLevel level)
{
    switch (level) {
      case PhysicalLevel::Chiplet:
        return "Chiplet";
      case PhysicalLevel::Package:
        return "Package";
      case PhysicalLevel::Node:
        return "Node";
      case PhysicalLevel::Pod:
        return "Pod";
    }
    panic("unknown physical level");
}

Network::Network(std::vector<NetworkDim> dims) : dims_(std::move(dims))
{
    if (dims_.empty())
        fatal("network must have at least one dimension");
    long npus = 1;
    for (const auto& d : dims_) {
        if (d.size < 2)
            fatal("network dimension size must be >= 2, got ", d.size);
        npus *= d.size;
        if (npus > kMaxNpus)
            fatal("network '", name(), "': more than ", kMaxNpus,
                  " NPUs");
    }
    assignLevels();
}

void
Network::assignLevels()
{
    // Outside-in: Pod, Node, Package, then Chiplet for the rest (Fig. 2b).
    const PhysicalLevel outer[3] = {PhysicalLevel::Pod, PhysicalLevel::Node,
                                    PhysicalLevel::Package};
    std::size_t n = dims_.size();
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t fromOuter = n - 1 - i;
        dims_[i].level = fromOuter < 3 ? outer[fromOuter]
                                       : PhysicalLevel::Chiplet;
    }
}

Network
Network::parse(const std::string& text)
{
    std::vector<NetworkDim> dims;
    std::size_t pos = 0;
    while (pos < text.size()) {
        // Token: two letters.
        std::size_t tokStart = pos;
        while (pos < text.size() &&
               std::isalpha(static_cast<unsigned char>(text[pos])))
            ++pos;
        std::string token = text.substr(tokStart, pos - tokStart);
        if (pos >= text.size() || text[pos] != '(')
            fatal("network '", text, "': expected '(' after '", token, "'");
        ++pos;
        int size = scanNumber(text, pos, "group size", 2, kMaxNpus);
        int levels = 1;
        if (pos < text.size() && text[pos] == ':') {
            ++pos;
            // 64 levels is past any switch tree of at most 2^30 NPUs.
            levels = scanNumber(text, pos, "hierarchy depth", 1, 64);
        }
        if (pos >= text.size() || text[pos] != ')')
            fatal("network '", text, "': expected ')'");
        ++pos;
        UnitTopology type = parseUnitTopology(token);
        if (levels > 1 && type != UnitTopology::Switch) {
            fatal("network '", text, "': hierarchy depth only applies "
                  "to SW dimensions (Fig. 4)");
        }
        dims.push_back({type, size, PhysicalLevel::Pod, levels});
        if (pos < text.size()) {
            if (text[pos] != '_')
                fatal("network '", text, "': expected '_' between dims");
            ++pos;
        }
    }
    if (dims.empty())
        fatal("network '", text, "': no dimensions found");
    return Network(std::move(dims));
}

std::string
Network::name() const
{
    std::ostringstream oss;
    for (std::size_t i = 0; i < dims_.size(); ++i) {
        if (i)
            oss << '_';
        oss << unitTopologyToken(dims_[i].type) << '(' << dims_[i].size;
        if (dims_[i].switchLevels > 1)
            oss << ':' << dims_[i].switchLevels;
        oss << ')';
    }
    return oss.str();
}

long
Network::npus() const
{
    long n = 1;
    for (const auto& d : dims_)
        n *= d.size;
    return n;
}

long
Network::prefixProduct(std::size_t i) const
{
    long p = 1;
    for (std::size_t k = 0; k < i && k < dims_.size(); ++k)
        p *= dims_[k].size;
    return p;
}

std::vector<int>
Network::coordsOf(long npu) const
{
    if (npu < 0 || npu >= npus())
        panic("npu id ", npu, " out of range (", npus(), " NPUs)");
    std::vector<int> coords(dims_.size());
    for (std::size_t i = 0; i < dims_.size(); ++i) {
        coords[i] = static_cast<int>(npu % dims_[i].size);
        npu /= dims_[i].size;
    }
    return coords;
}

BwConfig
Network::equalBw(double total) const
{
    return BwConfig(dims_.size(),
                    total / static_cast<double>(dims_.size()));
}

} // namespace libra
