/**
 * @file
 * Shared helpers for the bench binaries: the figure and ablation
 * studies that are not registered scenarios yet, and the micro
 * benches. A registered scenario runs as `libra_cli run-matrix <name>`.
 */

#ifndef LIBRA_BENCH_BENCH_UTIL_HH
#define LIBRA_BENCH_BENCH_UTIL_HH

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/framework.hh"
#include "core/report.hh"
#include "study/matrix.hh"

namespace libra {
namespace bench {

/** Search options sized for the harness (deterministic, fast). */
inline MultistartOptions
benchSearch()
{
    return paperSearchOptions();
}

/** Print a standard figure banner. */
inline void
banner(const std::string& fig, const std::string& what)
{
    std::cout << "\n############################################\n"
              << "# " << fig << ": " << what << "\n"
              << "############################################\n";
}

/**
 * Write a BENCH_*.json metrics file through the deterministic Json
 * writer: insertion-ordered members and shortest-round-trip number
 * formatting, so the same metrics always serialize to the same bytes
 * (and every emitter renders numbers identically — no hand-rolled
 * operator<< streams with locale/precision drift).
 */
inline void
writeBenchJson(const std::string& path, const Json& metrics)
{
    std::ofstream out(path);
    out << metrics.dump(1) << "\n";
}

} // namespace bench
} // namespace libra

#endif // LIBRA_BENCH_BENCH_UTIL_HH
