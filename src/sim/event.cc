#include "sim/event.hh"

#include "check/invariant.hh"

namespace kmu
{

std::uint64_t
EventQueue::bookKey(Tick when, EventPriority prio, std::string_view name)
{
    KMU_INVARIANT(when >= now,
                  "event '%.*s' scheduled in the past (%llu < %llu)",
                  int(name.size()), name.data(),
                  (unsigned long long)when, (unsigned long long)now);
    const auto p = std::int32_t(prio);
    // The order key packs the priority into 16 bits and the seq into
    // 48: outside those ranges the service order would be wrong.
    KMU_INVARIANT(sched::prioFits(p) && nextSeq <= sched::maxSeq,
                  "event '%.*s' priority %d or seq %llu exceeds the "
                  "order key's packed range", int(name.size()),
                  name.data(), p, (unsigned long long)nextSeq);
    return sched::orderKey(p, nextSeq++);
}

Event *
EventQueue::acquire()
{
    if (!freeEvents) {
        slabs.push_back(std::make_unique<Slab>());
        Event *slab = slabs.back()->events;
        for (std::size_t i = slabSize; i-- > 0;) {
            slab[i].nextFree = freeEvents;
            freeEvents = &slab[i];
        }
    }
    Event *ev = freeEvents;
    freeEvents = ev->nextFree;
    ev->nextFree = nullptr;
    return ev;
}

void
EventQueue::service(const sched::Entry &entry)
{
    KMU_INVARIANT(entry.when >= now,
                  "event queue time went backwards (%llu < %llu)",
                  (unsigned long long)entry.when,
                  (unsigned long long)now);
    ladder.popFront();
    now = entry.when;
    servicedCount++;

    Event *ev = entry.event;
    ev->invoke();
    // The slot returns to the freelist only after its callable has
    // run: anything the callable schedules takes a different slot.
    ev->dispose();
    ev->nextFree = freeEvents;
    freeEvents = ev;
}

bool
EventQueue::serviceOne()
{
    sched::Entry entry;
    if (!ladder.peek(entry))
        return false;
    service(entry);
    return true;
}

Tick
EventQueue::run(Tick limit)
{
    sched::Entry entry;
    while (ladder.peek(entry)) {
        if (entry.when > limit)
            break;
        service(entry);
    }
    return now;
}

} // namespace kmu
