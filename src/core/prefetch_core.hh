/**
 * @file
 * Prefetch + user-level-context-switch core model (the paper's main
 * proposal, Section V-B).
 *
 * T user-level threads run round robin on the core. Each visit:
 *
 *   resume -> demand-load the lines prefetched last visit
 *             (L1 hit if filled; stall on the MSHR if still in
 *              flight)
 *          -> execute the dependent work block
 *          -> issue the next iteration's prefetches (batch = MLP)
 *          -> user-level context switch to the next thread.
 *
 * A software prefetch that finds all 10 LFB entries busy is not
 * dropped outright: it sits in the core's load buffers and allocates
 * an entry as soon as one frees (FIFO). In-flight lines per core are
 * therefore hard-capped at the LFB size, which produces the paper's
 * plateaus: at 10 threads for MLP 1 (Fig. 3), ~5 threads for MLP 2
 * and ~3 for MLP 4 (Fig. 6); the 14-entry chip-level queue caps all
 * cores combined (Fig. 5).
 */

#ifndef KMU_CORE_PREFETCH_CORE_HH
#define KMU_CORE_PREFETCH_CORE_HH

#include <vector>

#include "core/core_base.hh"

namespace kmu
{

class PrefetchCore : public CoreBase
{
  public:
    PrefetchCore(std::string name, EventQueue &queue, CoreId id,
                 const SystemConfig &cfg, ReadPath *reads,
                 StatGroup *stat_parent);

    void start() override;

    /** @{ Mechanism statistics. */
    Counter prefetchesIssued;
    Counter prefetchesQueued;
    Counter prefetchesMerged;
    Counter loadStalls;
    /** @} */

  private:
    /** Cached "<name>.serve_wake": per-admission wakeup. */
    const std::string serveWakeName = name() + ".serve_wake";

    enum class SlotState
    {
        Filled, //!< prefetch completed; load will hit in the L1
        Pending //!< in the LFB (or queued for one); load must wait
    };

    /** Sentinel: the core is not blocked on any slot. */
    static constexpr std::uint32_t noWait = ~0u;

    struct UThread
    {
        bool firstVisit = true;
        bool parked = false; //!< serving mode: awaiting an arrival
        std::uint64_t iter = 0;
        IterationPlan plan{1, 0}; //!< plan of iteration `iter`
        std::vector<SlotState> slots;
        std::vector<bool> writeSlots; //!< posted-write positions
        std::uint32_t waitingSlot = noWait;
    };

    /** Begin the current thread's visit. */
    void runCurrent();

    /**
     * Serving mode: consult the admission gate for the current
     * thread's next iteration. On failure the thread parks (its
     * next visit re-enters the prefetch-issue path), the scheduler
     * skips to a runnable thread, and false is returned — the
     * caller must not touch the thread further.
     */
    bool admitCurrent();

    /** Wake hook: the parked thread's request arrived. */
    void unpark(std::uint32_t thread_id);

    /** Consume the loads of the current thread from @p slot on. */
    void consumeLoads(std::uint32_t slot);

    /** Work block, then next iteration's prefetches, then switch. */
    void finishVisit();

    /** Issue prefetches for the current thread's next iteration. */
    void issuePrefetches();

    /** Allocate an LFB entry for (thread, slot), waiting FIFO in the
     *  load buffers if the LFB is currently full. */
    void allocatePrefetch(std::uint32_t thread_id, std::uint32_t slot);

    /** The prefetch of (thread, slot) filled. */
    void lineFilled(const Lfb::Requester &who) override;

    /** The LFB has room for the prefetch queued at (thread, slot). */
    void entryFreed(const Lfb::Requester &who) override;

    /** Context switch to the next thread (round robin), after
     *  charging for the @p issued prefetch instructions. */
    void switchAway(std::uint32_t issued);

    std::vector<UThread> threads;
    std::uint32_t current = 0;
    std::uint32_t parkedCount = 0; //!< serving mode: parked threads
    bool coreIdle = false;         //!< every thread is parked
};

} // namespace kmu

#endif // KMU_CORE_PREFETCH_CORE_HH
