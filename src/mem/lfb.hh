/**
 * @file
 * Line Fill Buffer (MSHR) model.
 *
 * Intel cores track outstanding L1 misses — demand loads and software
 * prefetches alike — in a small set of Line Fill Buffers (10 per core
 * on the Xeon E5 v3 parts the paper measures). The LFB is the first
 * hardware queue a prefetch-based device access meets, and its size is
 * the paper's headline single-core bottleneck (Fig. 3/4/6).
 *
 * Semantics modelled here:
 *  - an entry is allocated per in-flight line and freed on fill;
 *  - requests to an already-pending line merge into that entry
 *    (secondary misses coalesce, consuming no extra entry);
 *  - a software prefetch that finds all entries busy is *dropped*
 *    (x86 prefetch hints are non-binding), so the eventual demand
 *    load takes the full miss path;
 *  - a demand load that finds the LFB full must wait for a free
 *    entry before it can even issue.
 *
 * The entries are a flat capacity-sized array searched linearly (ten
 * entries by default). Each holds the in-flight read record of the
 * one downstream read its allocation issues (mem/read_record.hh), so
 * the LFB is also the pool those records come from.
 */

#ifndef KMU_MEM_LFB_HH
#define KMU_MEM_LFB_HH

#include <vector>

#include "common/fifo_ring.hh"
#include "mem/read_record.hh"
#include "sim/sim_object.hh"

namespace kmu
{

class Lfb : public SimObject
{
  public:
    /**
     * Who asked for a line: a context/thread id, a batch slot and an
     * iteration. Opaque to the LFB; its owner interprets it.
     */
    struct Requester
    {
        std::uint32_t ctx = 0;
        std::uint32_t slot = 0;
        std::uint64_t iter = 0;
    };

    /** The core that owns the LFB and is told about its requesters. */
    class Owner
    {
      public:
        /** The line @p who requested (or merged into) arrived. */
        virtual void lineFilled(const Requester &who) = 0;

        /** An entry is free for @p who, parked by waitForFree(). */
        virtual void entryFreed(const Requester &who) = 0;

      protected:
        ~Owner() = default;
    };

    /** Outcome of an allocation attempt. */
    enum class AllocResult
    {
        NewEntry,  //!< entry allocated; caller must issue downstream
        Merged,    //!< line already in flight; requester attached
        NoEntry    //!< all entries busy (prefetch: drop; load: wait)
    };

    Lfb(std::string name, EventQueue &queue, std::uint32_t capacity,
        Owner &owner, StatGroup *stat_parent);

    std::uint32_t capacity() const { return cap; }
    std::uint32_t inUse() const { return live; }
    bool full() const { return inUse() >= cap; }

    /** True iff a miss to @p line is currently outstanding. */
    bool pending(Addr line) const;

    /**
     * Try to allocate (or merge into) an entry for @p line.
     *
     * On NewEntry the caller is responsible for issuing allocated()
     * downstream and eventually calling fill(line). On Merged or
     * NewEntry, the owner's lineFilled(@p who) runs when the line's
     * data arrives. On NoEntry nothing is recorded.
     */
    AllocResult request(Addr line, const Requester &who);

    /**
     * Read record of the entry the latest NewEntry request
     * allocated; its `line` is set, the rest is the issuer's to fill
     * in. Valid until that entry is filled.
     */
    ReadRecord &allocated() { return slots[lastAlloc].read; }

    /**
     * Park @p who until any entry is free, then call the owner's
     * entryFreed(@p who). Used by demand misses that must stall on a
     * full LFB. Parked requesters are admitted in FIFO order, one
     * per freed entry.
     */
    void waitForFree(const Requester &who);

    /** Data for @p line arrived; wake waiters and free the entry. */
    void fill(Addr line);

    /** @{ Occupancy statistics. */
    Counter allocs;
    Counter merges;
    Counter rejections;
    Counter fills;
    Average occupancyAtAlloc;
    /** @} */

  private:
    /** Cached event names: the fill path runs per access. */
    const std::string freeNowName = name() + ".freeNow";
    const std::string stalledFillName = name() + ".stalledFill";

    static constexpr std::uint32_t none = ~0u;

    /** One fill buffer; `read.line` is its key while live. */
    struct Slot
    {
        ReadRecord read;
        std::uint32_t firstWaiter = none; //!< requester list head
        std::uint32_t lastWaiter = none;  //!< ... and tail
        std::uint32_t waiters = 0;
        bool live = false;
    };

    /** A requester attached to a live slot, linked in arrival order. */
    struct WaiterNode
    {
        Requester who;
        std::uint32_t next = none;
    };

    /** Index of the live slot holding @p line, or none. */
    std::uint32_t find(Addr line) const;

    /** Append @p who to @p slot's requester list. */
    void attach(Slot &slot, const Requester &who);

    Owner &owner;
    std::uint32_t cap;
    std::uint32_t live = 0;
    std::uint32_t lastAlloc = 0;
    std::vector<Slot> slots;
    /** Requester nodes: grow on demand, recycled through freeNode. */
    std::vector<WaiterNode> nodes;
    std::uint32_t freeNode = none;
    FifoRing<Requester> freeWaiters;
};

} // namespace kmu

#endif // KMU_MEM_LFB_HH
