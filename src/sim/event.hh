/**
 * @file
 * Event and EventQueue: the discrete-event simulation kernel.
 *
 * The kernel is deliberately small and deterministic. It has one
 * event shape: a queue-owned one-shot callable, booked with
 * EventQueue::scheduleLambda and run once when its tick arrives.
 * Events are ordered by (tick, priority, insertion sequence), so two
 * runs of the same configuration produce identical schedules. A
 * component that needs periodic work re-books itself from inside its
 * callable; nothing is ever cancelled.
 *
 * The hot path is allocation-free after warmup: events live in a
 * slab-recycled arena, callables up to 48 bytes are stored inline
 * without a std::function, and dispatch is one indirect call.
 * Pending events sit in a ladder (hierarchical calendar) scheduler —
 * see sim/scheduler.hh for the structure and the service-order proof.
 */

#ifndef KMU_SIM_EVENT_HH
#define KMU_SIM_EVENT_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "sim/scheduler.hh"

namespace kmu
{

class EventQueue;

/** Scheduling priority; lower values service first within a tick.
 *  Any value in [-32768, 32767] is valid (the scheduler packs it
 *  into 16 bits of the order key, see sim/scheduler.hh). */
enum class EventPriority : std::int32_t
{
    DeviceResponse = -20, //!< deliver data before consumers run
    Default = 0,
    CpuTick = 10,         //!< core progress after deliveries
    Stats = 100           //!< end-of-tick accounting
};

/**
 * One arena slot holding a scheduled one-shot callable.
 *
 * The callable is stored inline (no std::function, no heap) when it
 * fits `inlineBytes`; larger captures fall back to a single heap
 * allocation. Slots are recycled through a freelist, so a
 * steady-state schedule/service cycle performs no allocation. Only
 * EventQueue creates these; user code never sees the pointer.
 */
class Event final
{
  public:
    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    ~Event() { dispose(); }

  private:
    friend class EventQueue;

    Event() = default;

    static constexpr std::size_t inlineBytes = 48;

    template <typename F>
    void
    bind(F &&fn)
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= inlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            // Placement-new into the inline slot; destroyed via
            // disposePtr, never deleted.
            // kmu-analyze: allow(raw-new)
            ::new (static_cast<void *>(store))
                Fn(std::forward<F>(fn));
            invokePtr = [](Event &e) {
                (*std::launder(reinterpret_cast<Fn *>(e.store)))();
            };
            disposePtr = [](Event &e) {
                std::launder(reinterpret_cast<Fn *>(e.store))->~Fn();
            };
        } else {
            // Type-erased spill slot; paired with the delete in
            // disposePtr below.
            // kmu-analyze: allow(raw-new)
            heapObj = new Fn(std::forward<F>(fn));
            invokePtr = [](Event &e) {
                (*static_cast<Fn *>(e.heapObj))();
            };
            disposePtr = [](Event &e) {
                // kmu-analyze: allow(raw-new)
                delete static_cast<Fn *>(e.heapObj);
                e.heapObj = nullptr;
            };
        }
    }

    void invoke() { invokePtr(*this); }

    /** Destroy the bound callable (idempotent). */
    void
    dispose()
    {
        if (disposePtr) {
            disposePtr(*this);
            disposePtr = nullptr;
            invokePtr = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char store[inlineBytes];
    void *heapObj = nullptr;
    void (*invokePtr)(Event &) = nullptr;
    void (*disposePtr)(Event &) = nullptr;
    Event *nextFree = nullptr; //!< arena freelist link
};

/**
 * Deterministic time-ordered event queue.
 *
 * Nothing is cancelled: an event runs when its tick is serviced, or
 * never if the queue is destroyed first — the arena then disposes
 * the callable without calling it. A callable may therefore capture
 * pointers to components that die before the queue, as long as no
 * run() or serviceOne() reaches it after they die.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return now; }

    /**
     * Schedule the one-shot callable @p fn at absolute tick @p when
     * (>= curTick()). The tick and priority are checked before an
     * arena slot is taken, so a trapped violation leaves the queue
     * as it was. @p name labels the event in those checks' failure
     * messages only.
     */
    template <typename F>
    void
    scheduleLambda(Tick when, F &&fn,
                   EventPriority prio = EventPriority::Default,
                   std::string_view name = "lambda")
    {
        const std::uint64_t key = bookKey(when, prio, name);
        Event *ev = acquire();
        ev->bind(std::forward<F>(fn));
        ladder.insert({when, key, ev});
    }

    /** True when no runnable events remain. */
    bool empty() const { return ladder.size() == 0; }

    /** Number of currently scheduled events. */
    std::uint64_t size() const { return ladder.size(); }

    /** Service the single next event; returns false if none remain. */
    bool serviceOne();

    /**
     * Run until the queue drains or curTick() would exceed @p limit.
     * @return the tick of the last serviced event.
     */
    Tick run(Tick limit = maxTick);

    /** Total events serviced since construction. */
    std::uint64_t serviced() const { return servicedCount; }

  private:
    /** Check @p when and @p prio, then return the next order key. */
    std::uint64_t bookKey(Tick when, EventPriority prio,
                          std::string_view name);

    /** Take a recycled (or fresh) arena slot. */
    Event *acquire();

    /** Pop and run the entry a successful peek exposed, then
     *  recycle its slot. */
    void service(const sched::Entry &entry);

    Tick now = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t servicedCount = 0;

    sched::LadderScheduler ladder;

    /** @{ Event arena: fixed slabs + freelist. A slab's destructor
     *  disposes the callables of events never reached. */
    static constexpr std::size_t slabSize = 64;
    struct Slab
    {
        Event events[slabSize];
    };
    std::vector<std::unique_ptr<Slab>> slabs;
    Event *freeEvents = nullptr;
    /** @} */
};

} // namespace kmu

#endif // KMU_SIM_EVENT_HH
