#include "sim/event.hh"

#include "check/invariant.hh"
#include "common/logging.hh"

namespace kmu
{

namespace
{

/** NUL-terminated copy of @p ev's name, for failure messages. */
std::string
nameOf(const Event *ev)
{
    return std::string(ev->name());
}

} // anonymous namespace

Event::Event(std::string name, EventPriority priority)
    : ownedName(std::move(name)), eventName(ownedName), prio(priority)
{
}

Event::~Event()
{
    // Owners must deschedule before destroying; we cannot reach the
    // queue from here, so just flag misuse.
    if (isScheduled)
        panic("event '%.*s' destroyed while scheduled",
              int(eventName.size()), eventName.data());
}

EventQueue::~EventQueue()
{
    // Disarm events still scheduled at teardown so their destructors
    // don't flag queue misuse, and drop owned lambda callables (the
    // arena slabs below free the slots themselves). Cancelled entries
    // may point at events that were since destroyed, so those are
    // skipped by key without ever touching the pointer.
    auto disarm = [this](const sched::Entry &entry) {
        if (cancelledKeys.erase(entry.key))
            return;
        entry.event->isScheduled = false;
        if (entry.event->ownedByQueue)
            static_cast<LambdaEvent *>(entry.event)->dispose();
    };
    ladder.forEachEntry(disarm);
}

void
EventQueue::schedule(Event *event, Tick when)
{
    KMU_INVARIANT(!event->isScheduled, "event '%s' scheduled twice",
                  nameOf(event).c_str());
    KMU_INVARIANT(when >= now,
                  "event '%s' scheduled in the past (%llu < %llu)",
                  nameOf(event).c_str(), (unsigned long long)when,
                  (unsigned long long)now);
    const auto prio = std::int32_t(event->prio);
    // The order key packs the priority into 16 bits and the seq into
    // 48: outside those ranges the service order would be wrong.
    KMU_INVARIANT(sched::prioFits(prio) && nextSeq <= sched::maxSeq,
                  "event '%s' priority %d or seq %llu exceeds the "
                  "order key's packed range", nameOf(event).c_str(), prio,
                  (unsigned long long)nextSeq);
    const std::uint64_t key = sched::orderKey(prio, nextSeq++);
    event->isScheduled = true;
    event->scheduledAt = when;
    event->schedKey = key;
    ladder.insert({when, key, event});
    liveEvents++;
    if (event->ownedByQueue)
        ownedLive++;
}

void
EventQueue::deschedule(Event *event)
{
    KMU_INVARIANT(event->isScheduled, "descheduling idle event '%s'",
                  nameOf(event).c_str());
    KMU_INVARIANT(liveEvents > 0,
                  "live event count underflow descheduling '%s'",
                  nameOf(event).c_str());
    event->isScheduled = false;
    cancelledKeys.insert(event->schedKey); // invalidates the entry
    liveEvents--;

    // A descheduled one-shot lambda can never run; recycle its slot
    // now instead of parking it until queue destruction (the old
    // behaviour leaked a slot per cancelled timeout guard). The dead
    // scheduler entry is recognised by its key alone, so reuse is
    // safe.
    if (event->ownedByQueue) {
        KMU_INVARIANT(ownedLive > 0,
                      "owned event count underflow descheduling "
                      "'%s'", nameOf(event).c_str());
        ownedLive--;
        releaseLambda(static_cast<LambdaEvent *>(event));
    }

    // Keep the dead fraction of the scheduler bounded. Without this,
    // a workload that schedules far-future events and cancels them
    // before they pop (timeout guards, speculative wakeups) grows the
    // scheduler and cancelledKeys without bound even though
    // liveEvents stays flat. The floor of 64 keeps small churny
    // queues on the cheap lazy path.
    if (cancelledKeys.size() > 64 && cancelledKeys.size() > liveEvents)
        compact();
}

void
EventQueue::compact()
{
    ladder.compact(cancelledKeys);
    KMU_MODEL_CHECK(cancelledKeys.empty(),
                    "%zu cancelled keys match no scheduler entry",
                    cancelledKeys.size());
    KMU_MODEL_CHECK(ladder.size() == liveEvents,
                    "compaction kept %zu entries for %llu live events",
                    ladder.size(), (unsigned long long)liveEvents);
    // Swap in a fresh set: clear() keeps the grown bucket array.
    sched::CancelSet().swap(cancelledKeys);
}

void
EventQueue::reschedule(Event *event, Tick when)
{
    if (event->isScheduled)
        deschedule(event);
    schedule(event, when);
}

LambdaEvent *
EventQueue::acquireLambda()
{
    if (!freeLambdas) {
        slabs.push_back(std::make_unique<LambdaEvent[]>(slabSize));
        LambdaEvent *slab = slabs.back().get();
        for (std::size_t i = slabSize; i-- > 0;) {
            slab[i].nextFree = freeLambdas;
            freeLambdas = &slab[i];
        }
    }
    LambdaEvent *ev = freeLambdas;
    freeLambdas = ev->nextFree;
    ev->nextFree = nullptr;
    return ev;
}

void
EventQueue::releaseLambda(LambdaEvent *ev)
{
    ev->dispose();
    ev->ownedByQueue = false;
    ev->nextFree = freeLambdas;
    freeLambdas = ev;
}

bool
EventQueue::peek(sched::Entry &out)
{
    return ladder.peek(out, cancelledKeys);
}

void
EventQueue::servicePeeked(const sched::Entry &entry)
{
    Event *ev = entry.event;

    // Every scheduler entry is exactly one of: live (its event
    // scheduled, schedKey matching) or cancelled (key parked in
    // cancelledKeys).
    KMU_MODEL_CHECK(ladder.size() == liveEvents + cancelledKeys.size(),
                    "scheduler holds %zu entries but %llu live + %zu "
                    "cancelled events are booked", ladder.size(),
                    (unsigned long long)liveEvents,
                    cancelledKeys.size());

    KMU_INVARIANT(entry.when >= now,
                  "event queue time went backwards (%llu < %llu)",
                  (unsigned long long)entry.when,
                  (unsigned long long)now);
    KMU_MODEL_CHECK(ev->scheduledAt == entry.when,
                    "event '%s' services at %llu but was booked "
                    "for %llu", nameOf(ev).c_str(),
                    (unsigned long long)entry.when,
                    (unsigned long long)ev->scheduledAt);
    ladder.popFront();
    now = entry.when;
    ev->isScheduled = false;
    liveEvents--;
    servicedCount++;

    // Tag dispatch: the two hot event shapes (one-shot lambdas and
    // component CallbackEvents) are invoked directly; everything else
    // takes the virtual process() path.
    switch (ev->kind) {
      case Event::Kind::Lambda: {
        auto *le = static_cast<LambdaEvent *>(ev);
        KMU_INVARIANT(ownedLive > 0,
                      "owned event count underflow servicing '%s'",
                      nameOf(le).c_str());
        ownedLive--;
        le->invoke();
        // One-shot lambdas are recycled once they have run; a
        // LambdaEvent never reschedules itself (user code has no
        // pointer to it).
        releaseLambda(le);
        break;
      }
      case Event::Kind::Callback:
        static_cast<CallbackEvent *>(ev)->invokeCallback();
        break;
      case Event::Kind::Virtual:
        ev->process();
        break;
    }
}

bool
EventQueue::serviceOne()
{
    sched::Entry entry;
    if (!peek(entry))
        return false;
    servicePeeked(entry);
    return true;
}

Tick
EventQueue::run(Tick limit)
{
    sched::Entry entry;
    while (peek(entry)) {
        if (entry.when > limit)
            break;
        servicePeeked(entry);
    }
    return now;
}

} // namespace kmu
