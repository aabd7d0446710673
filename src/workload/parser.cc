#include "workload/parser.hh"

#include <iomanip>
#include <istream>
#include <sstream>
#include <vector>

#include "common/logging.hh"
#include "common/parse_number.hh"

namespace libra {

namespace {

std::string
collectiveToken(CollectiveType t)
{
    switch (t) {
      case CollectiveType::AllReduce:
        return "ALLREDUCE";
      case CollectiveType::ReduceScatter:
        return "REDUCESCATTER";
      case CollectiveType::AllGather:
        return "ALLGATHER";
      case CollectiveType::AllToAll:
        return "ALLTOALL";
      case CollectiveType::PointToPoint:
        return "P2P";
    }
    panic("unknown collective type");
}

CollectiveType
parseCollective(const std::string& token, int line)
{
    if (token == "ALLREDUCE")
        return CollectiveType::AllReduce;
    if (token == "REDUCESCATTER")
        return CollectiveType::ReduceScatter;
    if (token == "ALLGATHER")
        return CollectiveType::AllGather;
    if (token == "ALLTOALL")
        return CollectiveType::AllToAll;
    if (token == "P2P")
        return CollectiveType::PointToPoint;
    fatal("workload line ", line, ": unknown collective '", token, "'");
}

CommScope
parseScope(const std::string& token, int line)
{
    if (token == "TP")
        return CommScope::Tp;
    if (token == "PP")
        return CommScope::Pp;
    if (token == "DP")
        return CommScope::Dp;
    if (token == "ALL")
        return CommScope::All;
    fatal("workload line ", line, ": unknown scope '", token, "'");
}

} // namespace

Workload
parseWorkload(std::istream& in)
{
    Workload w;
    std::vector<Layer> layers;
    Layer* layer = nullptr;
    Layer current;
    bool sawWorkload = false;

    std::string rawLine;
    int lineNo = 0;
    while (std::getline(in, rawLine)) {
        ++lineNo;
        // Strip comments.
        auto hash = rawLine.find('#');
        if (hash != std::string::npos)
            rawLine.erase(hash);
        std::istringstream line(rawLine);
        std::string keyword;
        if (!(line >> keyword))
            continue; // Blank line.

        auto wantToken = [&](const char* what) {
            std::string t;
            if (!(line >> t))
                fatal("workload line ", lineNo, ": expected ", what);
            return t;
        };
        // The next token as a number in [lo, hi] (common/parse_number.hh).
        auto number = [&](auto lo, decltype(lo) hi, const char* what) {
            std::string token = wantToken(what);
            try {
                return parseNumber(token, lo, hi, what);
            } catch (const FatalError& e) {
                fatal("workload line ", lineNo, ": ", fatalMessage(e));
            }
        };

        if (keyword == "WORKLOAD") {
            w.name = wantToken("workload name");
            sawWorkload = true;
        } else if (keyword == "PARAMS") {
            w.parameters = number(0.0, 1e18, "parameter count");
        } else if (keyword == "STRATEGY") {
            std::string key;
            while (line >> key) {
                long v = number(1L, 1L << 30, "strategy size");
                if (key == "TP")
                    w.strategy.tp = v;
                else if (key == "PP")
                    w.strategy.pp = v;
                else if (key == "DP")
                    w.strategy.dp = v;
                else
                    fatal("workload line ", lineNo,
                          ": unknown strategy key '", key, "'");
            }
        } else if (keyword == "LAYER") {
            if (layer)
                fatal("workload line ", lineNo,
                      ": LAYER inside LAYER (missing END?)");
            current = Layer{};
            current.name = wantToken("layer name");
            layer = &current;
        } else if (keyword == "END") {
            if (!layer)
                fatal("workload line ", lineNo, ": END without LAYER");
            layers.push_back(std::move(current));
            layer = nullptr;
        } else if (keyword == "FWD_COMPUTE" || keyword == "IG_COMPUTE" ||
                   keyword == "WG_COMPUTE") {
            if (!layer)
                fatal("workload line ", lineNo, ": ", keyword,
                      " outside LAYER");
            // Seconds.
            double v = number(0.0, 1e6, "compute time");
            if (keyword == "FWD_COMPUTE")
                layer->fwdCompute = v;
            else if (keyword == "IG_COMPUTE")
                layer->igCompute = v;
            else
                layer->wgCompute = v;
        } else if (keyword == "FWD_COMM" || keyword == "IG_COMM" ||
                   keyword == "WG_COMM") {
            if (!layer)
                fatal("workload line ", lineNo, ": ", keyword,
                      " outside LAYER");
            CommOp op;
            op.type =
                parseCollective(wantToken("collective type"), lineNo);
            op.scope = parseScope(wantToken("comm scope"), lineNo);
            // Bytes; one 1e12 B transfer at the 0.1 GB/s minimum
            // dimension BW stays far inside chunk-sim's tick range.
            op.size = number(0.0, 1e12, "collective size");
            if (keyword == "FWD_COMM")
                layer->fwdComm.push_back(op);
            else if (keyword == "IG_COMM")
                layer->igComm.push_back(op);
            else
                layer->wgComm.push_back(op);
        } else {
            fatal("workload line ", lineNo, ": unknown keyword '",
                  keyword, "'");
        }
    }
    if (layer)
        fatal("workload ended inside LAYER '", current.name, "'");
    if (!sawWorkload)
        fatal("workload text has no WORKLOAD header");
    if (layers.empty())
        fatal("workload '", w.name, "' has no layers");
    w.layers = std::move(layers);
    return w;
}

Workload
parseWorkloadString(const std::string& text)
{
    std::istringstream in(text);
    return parseWorkload(in);
}

std::string
serializeWorkload(const Workload& w)
{
    std::ostringstream out;
    out << std::setprecision(17);
    out << "WORKLOAD " << w.name << "\n";
    out << "PARAMS " << w.parameters << "\n";
    out << "STRATEGY TP " << w.strategy.tp << " PP " << w.strategy.pp
        << " DP " << w.strategy.dp << "\n";
    for (const auto& layer : w.layers) {
        out << "LAYER " << layer.name << "\n";
        out << "  FWD_COMPUTE " << layer.fwdCompute << "\n";
        out << "  IG_COMPUTE " << layer.igCompute << "\n";
        out << "  WG_COMPUTE " << layer.wgCompute << "\n";
        auto emit = [&out](const char* phase,
                           const std::vector<CommOp>& ops) {
            for (const auto& op : ops) {
                out << "  " << phase << " " << collectiveToken(op.type)
                    << " " << commScopeName(op.scope) << " " << op.size
                    << "\n";
            }
        };
        emit("FWD_COMM", layer.fwdComm);
        emit("IG_COMM", layer.igComm);
        emit("WG_COMM", layer.wgComm);
        out << "END\n";
    }
    return out.str();
}

} // namespace libra
