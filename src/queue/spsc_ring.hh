/**
 * @file
 * Bounded single-producer / single-consumer ring buffer.
 *
 * This is the in-host-memory structure backing both the Request Queue
 * (host produces, device consumes) and the Completion Queue (device
 * produces, host consumes). It is lock-free with acquire/release
 * atomics so the real runtime can run the device emulator on another
 * OS thread; used single-threadedly by the timing model, the atomics
 * compile down to plain loads/stores.
 *
 * Capacity must be a power of two. A ring of depth d holds at most
 * d - 1 items.
 *
 * `head` and `tail` are monotonic 64-bit counters: head counts pushes,
 * tail counts pops, a slot is `index & mask`, and the occupancy is
 * `head - tail` with no wrap arithmetic. They never overflow in
 * practice (2^64 items), so they double as the cumulative push/pop
 * totals.
 *
 * Each side keeps a private copy of the *peer's* index (`tailCache`
 * on the producer's line, `headCache` on the consumer's) and re-reads
 * the shared one only when its copy says the ring is full (producer)
 * or empty (consumer). In steady state neither side reads the other's
 * index line: a push or pop is one slot access plus one release store
 * to the index the side owns.
 *
 * Memory-ordering audit (the two synchronization edges):
 *
 *  1. producer publishes a slot:   slots[h & mask] = v;
 *                                  head.store(h + 1, release)
 *     consumer observes it:        headCache = head.load(acquire);
 *                                  read slots[t & mask] for t < headCache
 *     The release/acquire pair on `head` guarantees every slot write
 *     below the published head is visible before the consumer can
 *     see that head, so the consumer never reads a half-written
 *     slot. A stale `headCache` only under-reports what is
 *     available: the consumer never reads past a head it acquired.
 *
 *  2. consumer retires slots:      out = slots[t & mask] ...;
 *                                  tail.store(t + n, release)
 *     producer observes it:        tailCache = tail.load(acquire);
 *                                  write slots[h & mask] for
 *                                  h - tailCache < capacity
 *     The release/acquire pair on `tail` guarantees the consumer has
 *     fully read a slot before the producer can see the advanced tail
 *     and overwrite it. A stale `tailCache` only under-reports free
 *     space: the producer never writes a slot whose retirement it has
 *     not acquired.
 *
 *  Each side loads its *own* index relaxed (single writer: the value
 *  is always its own last store, so no synchronization is needed),
 *  and its peer cache is a plain field only that side touches.
 *  popBurst() acquires `head` at most once and publishes `tail` once
 *  per burst, so a burst of n pops costs one release store, not n.
 *
 *  The model checks test each side's own view: head - tailCache never
 *  exceeds capacity (producer), tail never passes headCache
 *  (consumer). Because both caches only lag, these views are exact
 *  bounds of the true occupancy, never false positives.
 *
 *  size() loads `tail` before `head`, so under concurrency it sees
 *  tail <= head (both monotonic, and tail never passes head), and it
 *  clamps to capacity: between the two loads the consumer may pop
 *  and the producer refill, so head - tail alone could overshoot.
 *  It is a snapshot: exact when single-threaded, approximate (within
 *  [0, capacity]) under concurrency.
 */

#ifndef KMU_QUEUE_SPSC_RING_HH
#define KMU_QUEUE_SPSC_RING_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "check/invariant.hh"
#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/thread_annotations.hh"

namespace kmu
{

template <typename T>
class SpscRing
{
  public:
    explicit SpscRing(std::size_t capacity)
        : slots(capacity), mask(capacity - 1)
    {
        kmuAssert(isPowerOf2(capacity),
                  "SPSC ring capacity must be a power of two");
        kmuAssert(capacity >= 2, "SPSC ring needs at least two slots");
    }

    /** Usable capacity (one slot is reserved). */
    std::size_t capacity() const { return mask; }

    /** @{
     * Role capabilities: exactly one context may act as producer and
     * one as consumer at any time. Callers of the gated functions
     * below assert the role with a RoleGuard; clang's thread-safety
     * analysis rejects call paths that reach them role-less.
     */
    ThreadRole producerRole;
    ThreadRole consumerRole;
    /** @} */

    /** Producer: true on success, false when full. */
    bool
    tryPush(const T &value) KMU_REQUIRES(producerRole)
    {
        const std::uint64_t h = head.load(std::memory_order_relaxed);
        if (h - tailCache >= capacity()) {
            tailCache = tail.load(std::memory_order_acquire);
            if (h - tailCache >= capacity()) {
                rejects.store(rejects.load(std::memory_order_relaxed) + 1,
                              std::memory_order_relaxed);
                return false;
            }
        }
        slots[h & mask] = value;
        head.store(h + 1, std::memory_order_release);
        KMU_MODEL_CHECK(h + 1 - tailCache <= capacity(),
                        "ring occupancy exceeds capacity %zu", capacity());
        return true;
    }

    /** Consumer: true on success, false when empty. */
    bool
    tryPop(T &out) KMU_REQUIRES(consumerRole)
    {
        const std::uint64_t t = tail.load(std::memory_order_relaxed);
        if (t == headCache) {
            headCache = head.load(std::memory_order_acquire);
            if (t == headCache)
                return false;
        }
        out = slots[t & mask];
        tail.store(t + 1, std::memory_order_release);
        KMU_MODEL_CHECK(t < headCache,
                        "ring popped more items than were pushed");
        return true;
    }

    /**
     * Consumer: pop up to @p max items into @p out (appended).
     * Models the device's burst descriptor read: `head` is acquired
     * at most once and `tail` published once for the whole burst.
     * @return number of items popped.
     */
    std::size_t
    popBurst(std::vector<T> &out, std::size_t max) KMU_REQUIRES(consumerRole)
    {
        const std::uint64_t t = tail.load(std::memory_order_relaxed);
        if (headCache - t < max)
            headCache = head.load(std::memory_order_acquire);
        const std::size_t n =
            std::size_t(std::min<std::uint64_t>(headCache - t, max));
        if (n == 0)
            return 0;
        for (std::size_t i = 0; i < n; ++i)
            out.push_back(slots[(t + i) & mask]);
        tail.store(t + n, std::memory_order_release);
        KMU_MODEL_CHECK(t + n <= headCache,
                        "ring popped more items than were pushed");
        return n;
    }

    /** Snapshot of the queued item count (approximate under
     *  concurrency, never above capacity(); exact single-threaded). */
    std::size_t
    size() const
    {
        const std::uint64_t t = tail.load(std::memory_order_acquire);
        const std::uint64_t h = head.load(std::memory_order_acquire);
        return std::size_t(std::min<std::uint64_t>(h - t, capacity()));
    }

    bool empty() const { return size() == 0; }

    /** @{ Cumulative (never-wrapping) accounting, for invariants and
     *  tests: pops <= pushes and pushes - pops <= capacity always. */
    std::uint64_t
    totalPushes() const
    {
        return head.load(std::memory_order_relaxed);
    }
    std::uint64_t
    totalPops() const
    {
        return tail.load(std::memory_order_relaxed);
    }
    /** Full-ring push rejections (producer-side backpressure). With
     *  totalPushes this conserves attempts: every tryPush either
     *  pushed or rejected. */
    std::uint64_t
    totalRejects() const
    {
        return rejects.load(std::memory_order_relaxed);
    }
    /** @} */

  private:
    std::vector<T> slots;
    std::size_t mask;
    // Shared indices, one line each: pushes / pops so far.
    alignas(64) std::atomic<std::uint64_t> head
        KMU_ATOMIC_ROLE(producer_writes, both_read){0};
    alignas(64) std::atomic<std::uint64_t> tail
        KMU_ATOMIC_ROLE(consumer_writes, both_read){0};
    // Producer-private line: its last acquired tail, and the reject
    // count (single writer, so a relaxed load + store, not an RMW;
    // observers only read it at quiesce or as a monotonic statistic).
    alignas(64) std::uint64_t tailCache KMU_GUARDED_BY(producerRole) = 0;
    std::atomic<std::uint64_t> rejects
        KMU_ATOMIC_ROLE(producer_writes, observers_read){0};
    // Consumer-private line: its last acquired head.
    alignas(64) std::uint64_t headCache KMU_GUARDED_BY(consumerRole) = 0;
};

} // namespace kmu

#endif // KMU_QUEUE_SPSC_RING_HH
