/**
 * @file
 * Scalar unit aliases and conversion helpers used throughout LIBRA.
 *
 * LIBRA's analytical models operate on continuous quantities (bytes,
 * seconds, GB/s, dollars), so all units are plain doubles with descriptive
 * aliases. The discrete-event simulator uses integer picosecond ticks
 * (see sim/chunk_timeline.hh).
 */

#ifndef LIBRA_COMMON_UNITS_HH
#define LIBRA_COMMON_UNITS_HH

#include <cstdint>

namespace libra {

/** Payload size in bytes. Double so multi-TB sizes divide cleanly. */
using Bytes = double;

/** Wall-clock duration in seconds. */
using Seconds = double;

/** Bandwidth in gigabytes per second (1 GB/s = 1e9 bytes/s). */
using GBps = double;

/** Dollar cost. */
using Dollars = double;

/** Floating-point operations. */
using Flops = double;

constexpr double kKilo = 1e3;
constexpr double kMega = 1e6;
constexpr double kGiga = 1e9;
constexpr double kTera = 1e12;

constexpr Bytes kKB = 1e3;
constexpr Bytes kMB = 1e6;
constexpr Bytes kGB = 1e9;
constexpr Bytes kTB = 1e12;

/** Bytes per FP16 element, the datatype assumed across the paper. */
constexpr Bytes kFp16Bytes = 2.0;

/** Bytes per FP32 element (optimizer states in ZeRO). */
constexpr Bytes kFp32Bytes = 4.0;

/**
 * Serialization time of @p size bytes over a @p bw GB/s channel.
 *
 * @param size Payload size in bytes.
 * @param bw   Channel bandwidth in GB/s; must be positive.
 * @return Transfer time in seconds.
 */
inline Seconds
transferTime(Bytes size, GBps bw)
{
    return size / (bw * kGiga);
}

/**
 * Execution time of @p flops floating-point operations at @p tflops
 * effective teraflops.
 */
inline Seconds
computeTime(Flops flops, double tflops)
{
    return flops / (tflops * kTera);
}

} // namespace libra

#endif // LIBRA_COMMON_UNITS_HH
