/**
 * @file
 * The paper's microbenchmark, runnable two ways:
 *
 *  1. on the real host runtime (fibers + engines) — wall-clock
 *     measurements of the mechanisms on this machine;
 *  2. on the timing model — regenerating the paper's figures with
 *     the modelled Xeon/PCIe/FPGA platform.
 *
 * The loop per user-level thread is: read `batch` independent fresh
 * cache lines, then execute `workCount` dependent arithmetic
 * instructions per read. Every access targets a distinct line, so
 * there is no temporal or spatial locality across accesses.
 */

#ifndef KMU_UBENCH_MICROBENCHMARK_HH
#define KMU_UBENCH_MICROBENCHMARK_HH

#include <chrono>
#include <cstdint>

#include "access/runtime.hh"

namespace kmu
{

/** Configuration of a real-host microbenchmark run. */
struct HostBenchConfig
{
    Mechanism mechanism = Mechanism::Prefetch;
    std::uint32_t threads = 8;
    std::uint64_t iterationsPerThread = 20000;
    std::uint32_t workCount = 250;   //!< work instrs per access
    std::uint32_t batch = 1;         //!< reads per iteration (MLP)
    std::chrono::nanoseconds deviceLatency{1000}; //!< SwQueue only
    std::size_t regionBytes = 64 << 20; //!< mapped device image size
};

/** Results of a real-host microbenchmark run. */
struct HostBenchResult
{
    double seconds = 0.0;
    std::uint64_t iterations = 0;
    std::uint64_t accesses = 0;
    double accessesPerUs = 0.0;
    double workInstrsPerUs = 0.0;
    /** Watchdog re-issues: the engine's recovery().timeouts. */
    std::uint64_t timeouts = 0;
};

/**
 * Run the microbenchmark on the real host runtime.
 *
 * Each thread walks its own slice of the region with a stride of one
 * line per access; the checksum of all loaded words is verified
 * against a host-side computation to catch data corruption.
 */
HostBenchResult runHostMicrobenchmark(const HostBenchConfig &cfg);

/**
 * Normalized performance of @p result against @p baseline
 * (work throughput ratio, the host analogue of normalized work IPC).
 */
double hostNormalized(const HostBenchResult &result,
                      const HostBenchResult &baseline);

} // namespace kmu

#endif // KMU_UBENCH_MICROBENCHMARK_HH
