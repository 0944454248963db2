/**
 * @file
 * Request/completion queue pair with the doorbell-request protocol.
 *
 * The paper's best software-managed interface pairs two in-memory
 * rings with two optimizations that it found strictly necessary:
 *
 *  1. a *doorbell-request flag*: the device keeps fetching requests
 *     on its own until a burst read returns nothing new; it then sets
 *     the flag and stops. The host only performs the (costly) MMIO
 *     doorbell when it observes the flag set, and clears it after.
 *  2. *burst reads*: descriptors are fetched eight at a time to
 *     amortize per-transaction costs.
 *
 * This class is the host-memory state shared by both sides; the
 * timing model and the real runtime layer their costs on top of it.
 */

#ifndef KMU_QUEUE_SW_QUEUE_PAIR_HH
#define KMU_QUEUE_SW_QUEUE_PAIR_HH

#include <atomic>
#include <cstdint>

#include "common/sanitizer.hh"
#include "common/thread_annotations.hh"
#include "queue/descriptor.hh"
#include "queue/spsc_ring.hh"

namespace kmu
{

class SwQueuePair
{
  public:
    /** @param depth ring capacity (power of two). */
    explicit SwQueuePair(std::size_t depth = 256)
        : requests(depth), completions(depth)
    {
    }

    /** @{
     * Role capabilities: the queue pair is shared by exactly two
     * contexts — the host (request producer / completion consumer)
     * and the device (request consumer / completion producer). The
     * protocol functions below are gated on these roles; each maps
     * onto the proper ring-side role internally, so the SPSC
     * single-owner discipline is enforced end to end at compile time
     * on clang (-Wthread-safety).
     */
    ThreadRole hostRole;
    ThreadRole deviceRole;
    /** @} */

    /** Host side: enqueue one request descriptor.
     *  @return false when the request ring is full. */
    bool
    submit(const RequestDescriptor &desc) KMU_REQUIRES(hostRole)
    {
        RoleGuard producer(requests.producerRole);
        return requests.tryPush(desc);
    }

    /**
     * Host side: check-and-clear the doorbell-request flag. Call
     * after submit(); a true return means the host must ring the
     * MMIO doorbell to restart the fetcher. This is the host half of
     * the handshake described at requestDoorbell(): the read must
     * stay a locked read-modify-write, ordered after the submit's
     * head store.
     */
    bool
    consumeDoorbellRequest() KMU_REQUIRES(hostRole)
    {
        bool expected = true;
        return doorbellNeeded.compare_exchange_strong(
            expected, false, std::memory_order_acq_rel);
    }

    /** Host side: poll one completion. */
    bool
    reapCompletion(CompletionDescriptor &out) KMU_REQUIRES(hostRole)
    {
        RoleGuard consumer(completions.consumerRole);
        return completions.tryPop(out);
    }

    /** Device side: burst-fetch up to @p max requests (default: the
     *  paper's burst of eight). */
    std::size_t
    fetchBurst(std::vector<RequestDescriptor> &out,
               std::size_t max = descriptorBurst) KMU_REQUIRES(deviceRole)
    {
        RoleGuard consumer(requests.consumerRole);
        return requests.popBurst(out, max);
    }

    /** Device side: post a completion (after the data write). */
    bool
    postCompletion(const CompletionDescriptor &desc) KMU_REQUIRES(deviceRole)
    {
        RoleGuard producer(completions.producerRole);
        return completions.tryPush(desc);
    }

    /**
     * Device side: no new descriptors seen — request a doorbell. The
     * caller must fetch once more afterwards before it parks.
     *
     * This is one half of a store→load handshake (Dekker): the
     * device stores the flag then loads `head` (the re-check); the
     * host stores `head` (submit) then reads the flag
     * (consumeDoorbellRequest). At least one side must see the
     * other's store, or a request submitted in the window strands
     * with the fetcher parked. A release store followed by an
     * acquire load may be reordered (x86 store buffers do exactly
     * that), so the device side is a seq_cst store plus a seq_cst
     * fence, which orders the flag store before the re-check's load.
     * The host side's flag read is a locked compare-exchange, a full
     * barrier after its head store.
     *
     * gcc rejects bare fences under -fsanitize=thread (-Wtsan); the
     * TSan runtime issues a full barrier after every seq_cst store,
     * so the store alone keeps the order there.
     */
    void
    requestDoorbell() KMU_REQUIRES(deviceRole)
    {
        doorbellNeeded.store(true, std::memory_order_seq_cst);
#if !KMU_TSAN_ENABLED
        std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
    }

    /** True when the fetcher is parked waiting for a doorbell. */
    bool
    doorbellRequested() const
    {
        return doorbellNeeded.load(std::memory_order_acquire);
    }

    std::size_t pendingRequests() const { return requests.size(); }
    std::size_t pendingCompletions() const { return completions.size(); }

    /** @{ Ring access for invariant sweeps and tests. */
    const SpscRing<RequestDescriptor> &
    requestRing() const
    {
        return requests;
    }
    const SpscRing<CompletionDescriptor> &
    completionRing() const
    {
        return completions;
    }
    /** @} */

  private:
    SpscRing<RequestDescriptor> requests;
    SpscRing<CompletionDescriptor> completions;
    std::atomic<bool> doorbellNeeded //!< starts parked
        KMU_ATOMIC_ROLE(device_sets, host_clears, both_read){true};
};

} // namespace kmu

#endif // KMU_QUEUE_SW_QUEUE_PAIR_HH
