/**
 * @file
 * Shared types of the kmu benchmark binary (kmu_perfbench).
 *
 * Every workload runs as a sequence of repetitions ("reps"). One rep
 * is a fixed amount of work taken from set-up to verified results;
 * kmu_perfbench repeats reps until the time budget is spent and reports
 * the fastest rep or the median (see main.cc), so one slow rep on a
 * shared host moves nothing.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "spans.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One rep's phase times, work and outcome. */
struct RepResult
{
    double setupS = 0.0;
    double runS = 0.0;
    double wallS = 0.0; //!< set-up through teardown

    std::uint64_t accesses = 0;  //!< accesses the rep completed
    std::uint64_t attempted = 0; //!< operations checked
    std::uint64_t failed = 0;    //!< operations that failed a check

    /** Why the rep's output is wrong; empty when it is correct. */
    std::string error;

    /** Digest of the rep's simulated outputs (sim workloads). */
    std::string digest;

    /** Per-layer counts of this rep (name -> value). */
    std::map<std::string, double> layer;
};

/**
 * One workload: runRep() performs one rep. With @p rec non-null the
 * rep is traced: phases get spans under @p parent and the heap
 * counter is armed around the timed phase.
 */
class Workload
{
  public:
    virtual ~Workload() = default;
    virtual RepResult runRep(std::uint64_t seed, SpanRecorder *rec,
                             std::uint32_t parent) = 0;

    /** OS threads a rep runs on; decides the run's statistic. */
    virtual std::uint32_t
    threads() const
    {
        return 1;
    }

    /**
     * Checks made once per run, outside the timed reps: the sims
     * re-run every seed stored in @p oraclePath other than @p seed.
     * Returns an error string, empty when everything matched.
     */
    virtual std::string
    checkOnce(std::uint64_t, const std::string &)
    {
        return {};
    }
};

/**
 * Workload factories; nullptr for an unknown name. @p chipQueue != 0
 * overrides the chip PCIe queue depth (the oracle self-test's
 * deliberately perturbed model).
 */
std::unique_ptr<Workload> makeSimWorkload(const std::string &name,
                                          std::uint32_t chipQueue = 0);
std::unique_ptr<Workload> makeHostWorkload(const std::string &name);

/** Print oracle entries for @p name at @p seeds (fields to stderr). */
void recordSimOracle(const std::string &name,
                     const std::vector<std::uint64_t> &seeds,
                     std::ostream &os);

/** @{ Probes of single layers, each bounded to ~@p seconds. */
double probeKernelOnlyEventsPerS(double seconds);
double probeSpscNsPerItem(double seconds);
double probeYieldRoundtripNs(double seconds);
/** @} */

/** Median of @p v (0 for an empty vector). */
double median(std::vector<double> v);

/** Value at quantile @p q of @p v by linear interpolation. */
double quantile(std::vector<double> v, double q);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
