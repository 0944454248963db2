/**
 * @file
 * SimChecker: periodic whole-model invariant sweeps.
 *
 * The KMU_INVARIANT/KMU_MODEL_CHECK call sites in the components
 * validate each state *transition*; the SimChecker validates global
 * conservation laws that no single transition can see (e.g. the sum
 * of per-core LFB occupancy against chip-queue occupancy, or stat
 * counters reconciling with live structure sizes). Components — or
 * the SimSystem that assembles them — register named check functions;
 * the checker sweeps them at a fixed simulated-time interval.
 *
 * Each sweep is a one-shot event that books the next one, and only
 * while other events remain, so attaching a checker never keeps an
 * otherwise-drained event queue alive (queue-drain termination still
 * works). An `armed` flag keeps at most one sweep booked. A sweep
 * still pending when the checker dies is disposed unrun at queue
 * teardown, so the checker needs no destructor; it must only outlive
 * every run of its queue.
 *
 * Header-only: SimChecker sits above kmu_sim in the layering, while
 * the invariant core (check/invariant.hh) sits below it — keeping
 * this class inline avoids a dependency cycle between the two
 * libraries.
 */

#ifndef KMU_CHECK_SIM_CHECKER_HH
#define KMU_CHECK_SIM_CHECKER_HH

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "check/invariant.hh"
#include "sim/sim_object.hh"

namespace kmu
{

class SimChecker : public SimObject
{
  public:
    /** A registered check: calls KMU_INVARIANT/KMU_MODEL_CHECK. */
    using CheckFn = std::function<void()>;

    SimChecker(std::string name, EventQueue &queue, Tick interval,
               StatGroup *stat_parent)
        : SimObject(std::move(name), queue, stat_parent),
          sweepsRun(stats(), "sweeps", "invariant sweeps executed"),
          checksRun(stats(), "checks", "individual checks executed"),
          sweepName(this->name() + ".sweep"), sweepInterval(interval)
    {
        kmuAssert(interval > 0, "checker interval must be positive");
    }

    /** Register a named invariant-sweep function. */
    void
    addCheck(std::string label, CheckFn fn)
    {
        kmuAssert(fn != nullptr, "null check function");
        checks.emplace_back(std::move(label), std::move(fn));
    }

    /** Run every registered check once, immediately. */
    void
    runChecks()
    {
        for (auto &check : checks) {
            check.second();
            ++checksRun;
        }
    }

    /** Begin periodic sweeps every interval ticks from now (no-op
     *  while a sweep is already booked). */
    void
    start()
    {
        if (!armed)
            arm();
    }

    std::size_t checkCount() const { return checks.size(); }

    Counter sweepsRun;
    Counter checksRun;

  private:
    void
    arm()
    {
        armed = true;
        eventQueue().scheduleLambda(
            curTick() + sweepInterval, [this] { sweep(); },
            EventPriority::Stats, sweepName);
    }

    void
    sweep()
    {
        armed = false;
        runChecks();
        ++sweepsRun;
        // Re-arm only while other work remains: a lone checker
        // event must not keep a drained queue spinning forever.
        if (eventQueue().size() > 0)
            arm();
    }

    std::vector<std::pair<std::string, CheckFn>> checks;
    std::string sweepName; //!< labels the sweep event
    Tick sweepInterval;
    bool armed = false;
};

} // namespace kmu

#endif // KMU_CHECK_SIM_CHECKER_HH
