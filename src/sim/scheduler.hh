/**
 * @file
 * Pending-event scheduler for the discrete-event kernel.
 *
 * The EventQueue's service order is the total key (when, priority,
 * insertion sequence) — seq is unique, so the order is a strict total
 * order and ANY structure that yields the minimum remaining key
 * services events in exactly the same sequence. The stress suite
 * checks the ladder below against a min-scan reference model, and
 * the golden / determinism gates hold the end-to-end proof.
 *
 * LadderScheduler is a three-rung hierarchical calendar ("ladder")
 * tuned for the near-monotone tick distribution the core models
 * produce. Insertion is O(1): an event lands in a bucket of the
 * finest rung whose window covers its tick (1.024 ns buckets, then
 * 262 ns, then 67 us; events beyond ~17 ms go to an overflow list
 * that is re-bucketed when reached). Service pulls one finest-rung
 * bucket at a time into a sorted "active" run; same-window
 * insertions (the dominant schedule-at-curTick case) binary-insert
 * into that run. Every comparison that decides order happens on the
 * full (when, prio, seq) key inside one bucket's sort, so the
 * service order is provably the global key order: buckets partition
 * time, rungs cascade in time order, and no event can enter a bucket
 * that has already been drained (EventQueue guarantees when >= now).
 *
 * The (prio, seq) tie-break is packed into one 64-bit order key:
 * the priority biased by 2^15 in the top 16 bits, the insertion
 * sequence in the low 48. Unsigned key order is then exactly
 * (prio, seq) order, so an Entry is 24 bytes and entryLess is two
 * compares. EventQueue::scheduleLambda() guards both ranges.
 *
 * Entries are only ever inserted and popped in order: nothing is
 * cancelled, so every stored entry is live and every occupied bucket
 * is non-empty.
 */

#ifndef KMU_SIM_SCHEDULER_HH
#define KMU_SIM_SCHEDULER_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace kmu
{

class Event;

namespace sched
{

/** @{ Order-key layout: biased priority above a 48-bit sequence. */
constexpr unsigned seqBits = 48;
constexpr std::uint64_t maxSeq = (std::uint64_t(1) << seqBits) - 1;
constexpr std::int32_t minPrio = -(1 << 15);
constexpr std::int32_t maxPrio = (1 << 15) - 1;
/** @} */

/** True when @p prio fits the key's 16-bit priority field. */
constexpr bool
prioFits(std::int32_t prio)
{
    return prio >= minPrio && prio <= maxPrio;
}

/** Pack (prio, seq) so that unsigned key order is (prio, seq)
 *  order. Requires prioFits(prio) and seq <= maxSeq. */
constexpr std::uint64_t
orderKey(std::int32_t prio, std::uint64_t seq)
{
    return (std::uint64_t(std::uint32_t(prio - minPrio)) << seqBits) |
           seq;
}

/** One pending-event record; the scheduler never touches `event`. */
struct Entry
{
    Tick when;
    std::uint64_t key; //!< orderKey(prio, seq); unique per entry
    Event *event;
};
static_assert(sizeof(Entry) == 24, "Entry is three words");

/** Strict total service order: (when, key), key unique. */
inline bool
entryLess(const Entry &a, const Entry &b)
{
    return a.when < b.when || (a.when == b.when && a.key < b.key);
}

/**
 * Three-rung ladder/calendar scheduler. See the file comment for the
 * structure; the invariants that make it exact are:
 *
 *  (I1) every stored entry is in exactly one place: the active run,
 *       one rung bucket whose window covers its tick, or overflow;
 *  (I2) `frontEnd` is the exclusive end of the region fully
 *       transferred to the active run — an insert below it joins the
 *       run via sorted insert, so the run always holds every pending
 *       entry with when < frontEnd in exact key order; the run also
 *       owns the uncovered gap an overflow rebase can open between
 *       frontEnd and the coarsest rung's window start (see insert());
 *  (I3) rung windows only advance, and a rung's scan position sits
 *       at the bucket boundary `frontEnd` maps to, so an insert with
 *       when >= frontEnd always lands in a bucket that is still
 *       ahead of the scan.
 */
class LadderScheduler
{
  public:
    LadderScheduler()
    {
        rung[0].shift = shift0;
        rung[1].shift = shift1;
        rung[2].shift = shift2;
    }

    void
    insert(const Entry &e)
    {
        ++count;
        // (I2): the active run owns everything below frontEnd. Once
        // the bucket containing maxTick has been pulled, frontEnd
        // saturates and every insert joins the run directly.
        if (e.when < frontEnd || frontSaturated) {
            sortedInsertActive(e);
            return;
        }
        for (Rung &r : rung) {
            // Window test via subtraction: immune to the end
            // overflowing past maxTick. when >= winStart holds by
            // (I3) whenever the window can match at all.
            if (e.when >= r.winStart &&
                e.when - r.winStart < (Tick(bucketCount) << r.shift)) {
                const std::size_t idx =
                    std::size_t((e.when - r.winStart) >> r.shift);
                r.bucket[idx].push_back(e);
                setBit(r.occ, idx);
                return;
            }
        }
        // An overflow rebase parks the coarsest window at the
        // aligned-down overflow minimum, which can lie well past the
        // current service point — leaving the gap
        // [frontEnd, rung2.winStart) covered by no rung. An entry
        // landing there must NOT join the overflow list: overflow is
        // only consulted once every rung drains, i.e. after the
        // window's (later!) entries have been serviced. The active
        // run is the one structure consulted before the rungs, so
        // the gap belongs to it; sorted insertion keeps it exact.
        if (e.when < rung[2].winStart) {
            sortedInsertActive(e);
            return;
        }
        over.push_back(e);
    }

    /** Copy the minimum entry to @p out; false when none is stored. */
    bool
    peek(Entry &out)
    {
        if (head == active.size() && !refill())
            return false;
        out = active[head];
        return true;
    }

    void
    popFront()
    {
        ++head;
        --count;
    }

    std::size_t size() const { return count; }

  private:
    static constexpr unsigned shift0 = 10; //!< 1.024 ns buckets
    static constexpr unsigned shift1 = 18; //!< 262 ns buckets
    static constexpr unsigned shift2 = 26; //!< 67 us buckets
    static constexpr std::size_t bucketCount = 256;
    static constexpr std::size_t bitmapWords = bucketCount / 64;
    /** Buckets at or below this size promote straight into the
     *  active run instead of cascading a rung finer. */
    static constexpr std::size_t promoteMax = 16;

    struct Rung
    {
        Tick winStart = 0;   //!< aligned to bucketCount << shift
        std::size_t pos = 0; //!< next bucket index to scan
        unsigned shift = 0;
        std::uint64_t occ[bitmapWords] = {};
        std::vector<Entry> bucket[bucketCount];
    };

    static void
    setBit(std::uint64_t *occ, std::size_t i)
    {
        occ[i >> 6] |= std::uint64_t(1) << (i & 63);
    }

    static void
    clearBit(std::uint64_t *occ, std::size_t i)
    {
        occ[i >> 6] &= ~(std::uint64_t(1) << (i & 63));
    }

    /** Lowest set bit index >= from, or bucketCount if none. */
    static std::size_t
    findFrom(const std::uint64_t *occ, std::size_t from)
    {
        if (from >= bucketCount)
            return bucketCount;
        std::size_t word = from >> 6;
        std::uint64_t bits = occ[word] &
                             (~std::uint64_t(0) << (from & 63));
        while (true) {
            if (bits)
                return (word << 6) +
                       std::size_t(__builtin_ctzll(bits));
            if (++word >= bitmapWords)
                return bucketCount;
            bits = occ[word];
        }
    }

    void
    sortedInsertActive(const Entry &e)
    {
        // Only [head, end) is pending; anything before head already
        // ran, and by EventQueue's when >= now guard the new entry
        // belongs at or after the current service point.
        auto it = std::upper_bound(active.begin() +
                                       std::ptrdiff_t(head),
                                   active.end(), e, entryLess);
        active.insert(it, e);
    }

    /**
     * Move @p r's bucket @p j into the active run, sorted. The
     * bucket is a complete time slice, so the run then holds every
     * pending entry below the bucket's end, which becomes frontEnd
     * (invariant I2).
     */
    void
    promote(Rung &r, std::size_t j)
    {
        auto &vec = r.bucket[j];
        head = 0;
        active.assign(vec.begin(), vec.end());
        vec.clear();
        clearBit(r.occ, j);
        r.pos = j + 1;
        const Tick end = r.winStart + (Tick(j + 1) << r.shift);
        if (end < r.winStart + (Tick(j) << r.shift))
            frontSaturated = true; // wrapped past maxTick
        else
            frontEnd = end;
        std::sort(active.begin(), active.end(), entryLess);
    }

    /**
     * Pull the next non-empty finest-rung bucket into the active
     * run, cascading coarser rungs / overflow as needed. Returns
     * false only when nothing is stored at all.
     */
    bool
    refill()
    {
        while (true) {
            // Finest rung: next bucket becomes the active run.
            const std::size_t b = findFrom(rung[0].occ, rung[0].pos);
            if (b < bucketCount) {
                promote(rung[0], b);
                return true;
            }
            switch (cascade(rung[0], rung[1])) {
              case Spill::Promoted:
                return true;
              case Spill::Cascaded:
                continue;
              case Spill::None:
                break;
            }
            switch (cascade(rung[1], rung[2])) {
              case Spill::Promoted:
                return true;
              case Spill::Cascaded:
                continue;
              case Spill::None:
                break;
            }
            if (!rebaseOverflow())
                return false;
        }
    }

    /** What advancing a coarser rung produced. */
    enum class Spill
    {
        None,    //!< rung empty; fall through to the next source
        Cascaded,//!< bucket re-distributed one rung finer; rescan
        Promoted //!< sparse bucket sorted straight into the run
    };

    /**
     * Spill @p from's next bucket across @p to (one rung finer) — or,
     * when the bucket is sparse, promote it directly into the active
     * run. Promotion skips the finer-rung round trip that dominates
     * on µs-spaced event streams (each event would be copied through
     * every rung just to land alone in its own bucket); it is exact
     * because the bucket is a complete time slice (see promote()),
     * and the finer windows left stale lie entirely below frontEnd
     * so no insert can land there (the frontEnd test comes first).
     */
    Spill
    cascade(Rung &to, Rung &from)
    {
        const std::size_t j = findFrom(from.occ, from.pos);
        if (j >= bucketCount)
            return Spill::None;
        auto &vec = from.bucket[j];
        if (vec.size() <= promoteMax) {
            promote(from, j);
            return Spill::Promoted;
        }
        to.winStart = from.winStart + (Tick(j) << from.shift);
        to.pos = 0;
        frontEnd = to.winStart;
        for (const Entry &e : vec) {
            const std::size_t idx =
                std::size_t((e.when - to.winStart) >> to.shift);
            to.bucket[idx].push_back(e);
            setBit(to.occ, idx);
        }
        vec.clear();
        clearBit(from.occ, j);
        from.pos = j + 1;
        return Spill::Cascaded;
    }

    /** Re-window the coarsest rung at the overflow minimum. */
    bool
    rebaseOverflow()
    {
        if (over.empty())
            return false;
        Tick min_when = maxTick;
        for (const Entry &e : over)
            min_when = std::min(min_when, e.when);
        const Tick span = Tick(bucketCount) << shift2;
        Rung &r = rung[2];
        r.winStart = min_when & ~(span - 1);
        r.pos = 0;
        std::vector<Entry> keep;
        for (const Entry &e : over) {
            if (e.when - r.winStart < span) {
                const std::size_t idx =
                    std::size_t((e.when - r.winStart) >> shift2);
                r.bucket[idx].push_back(e);
                setBit(r.occ, idx);
            } else {
                keep.push_back(e);
            }
        }
        over = std::move(keep);
        // The minimum entry is in-window by construction (the
        // window starts at min_when aligned down), so the rung now
        // holds at least one entry.
        return true;
    }

    Rung rung[3];
    std::vector<Entry> active; //!< sorted pending run, [head, end)
    std::size_t head = 0;
    Tick frontEnd = 0;         //!< exclusive end of the active region
    bool frontSaturated = false;
    std::vector<Entry> over;   //!< beyond the coarsest window
    std::size_t count = 0;     //!< stored entries
};

} // namespace sched
} // namespace kmu

#endif // KMU_SIM_SCHEDULER_HH
