/**
 * @file
 * The host-speed probe: fixed work that touches no LIBRA code.
 *
 * A small shared VM does not run at one speed. Its clock moves, and a
 * core slows by up to ~1.7x while another tenant's thread shares it
 * (the same instructions take longer, so CPU time grows as much as wall
 * time). The probe formats and parses doubles, high-IPC libc code that
 * slows with the host as the program's own JSON, string and solver code
 * does (a dependent floating-point chain, by contrast, barely notices a
 * busy sibling thread). The workloads run it between ops and scale each
 * op's time by kHostProbeRefMs / probe, so the end-to-end times read as
 * on the reference host and a slow stretch of the host does not read as
 * a slow program. The raw times stay in the run's metadata.
 */

#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

namespace perfbench {

/**
 * hostProbeMs(1) on an idle core of the reference host: a 4-vCPU
 * AVX-512 VM, gcc 12, Release. A constant, so that normalized times of
 * different runs compare.
 */
constexpr double kHostProbeRefMs = 7.5;

/**
 * Run the probe on @p threads threads at once (the parallelism of the
 * work it stands beside) and return the mean milliseconds per thread.
 */
double hostProbeMs(int threads);

/** kHostProbeRefMs / @p probeMs: multiply a raw time by it. */
inline double
hostScale(double probeMs)
{
    return kHostProbeRefMs / probeMs;
}

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
