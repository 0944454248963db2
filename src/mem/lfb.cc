#include "mem/lfb.hh"

#include "check/invariant.hh"
#include "common/units.hh"
#include "fault/fault_plan.hh"
#include "trace/trace.hh"

namespace kmu
{

Lfb::Lfb(std::string name, EventQueue &queue, std::uint32_t capacity,
         Owner &lfb_owner, StatGroup *stat_parent)
    : SimObject(std::move(name), queue, stat_parent),
      allocs(stats(), "allocs", "LFB entries allocated"),
      merges(stats(), "merges", "requests merged into pending entries"),
      rejections(stats(), "rejections", "requests that found LFB full"),
      fills(stats(), "fills", "entries filled and freed"),
      occupancyAtAlloc(stats(), "occupancy_at_alloc",
                       "entries in use when a new entry was allocated"),
      owner(lfb_owner), cap(capacity), slots(capacity)
{
    kmuAssert(capacity > 0, "LFB capacity must be positive");
}

std::uint32_t
Lfb::find(Addr line) const
{
    for (std::uint32_t i = 0; i < cap; ++i) {
        if (slots[i].live && slots[i].read.line == line)
            return i;
    }
    return none;
}

bool
Lfb::pending(Addr line) const
{
    return find(line) != none;
}

void
Lfb::attach(Slot &slot, const Requester &who)
{
    std::uint32_t n = freeNode;
    if (n != none) {
        freeNode = nodes[n].next;
        nodes[n] = WaiterNode{who, none};
    } else {
        n = std::uint32_t(nodes.size());
        nodes.push_back(WaiterNode{who, none});
    }
    if (slot.lastWaiter == none)
        slot.firstWaiter = n;
    else
        nodes[slot.lastWaiter].next = n;
    slot.lastWaiter = n;
    slot.waiters++;
}

Lfb::AllocResult
Lfb::request(Addr line, const Requester &who)
{
    const std::uint32_t hit = find(line);
    if (hit != none) {
        attach(slots[hit], who);
        ++merges;
        trace::instant(trace::Kind::LfbMerge, line, traceTrack());
        return AllocResult::Merged;
    }
    if (full()) {
        ++rejections;
        trace::instant(trace::Kind::LfbReject, line, traceTrack(),
                       inUse());
        return AllocResult::NoEntry;
    }
    // Transient full: report NoEntry although a slot is free. Only
    // injected while at least one entry is live so callers that park
    // on waitForFree() are guaranteed a future fill() to admit them.
    if (inUse() > 0 &&
        fault::fire(fault::FaultSite::LfbTransientFull)) {
        ++rejections;
        trace::instant(trace::Kind::LfbReject, line, traceTrack(),
                       inUse());
        return AllocResult::NoEntry;
    }
    occupancyAtAlloc.sample(double(inUse()));
    trace::begin(trace::Kind::LfbResident, line, traceTrack(),
                 inUse());
    std::uint32_t free = 0;
    while (slots[free].live)
        ++free;
    Slot &slot = slots[free];
    slot.live = true;
    slot.read = ReadRecord{};
    slot.read.line = line;
    attach(slot, who);
    lastAlloc = free;
    ++live;
    ++allocs;
    KMU_INVARIANT(inUse() <= cap,
                  "LFB occupancy %u exceeds capacity %u", inUse(), cap);
    // Conservation: every live entry was allocated and not yet filled.
    KMU_MODEL_CHECK(allocs.value() - fills.value() == inUse(),
                    "LFB in-flight count %u != allocated %llu - "
                    "filled %llu", inUse(),
                    (unsigned long long)allocs.value(),
                    (unsigned long long)fills.value());
    return AllocResult::NewEntry;
}

void
Lfb::waitForFree(const Requester &who)
{
    if (!full()) {
        // An entry is already free; wake the requester this tick but
        // off the current call stack for re-entrancy safety.
        eventQueue().scheduleLambda(
            curTick(), [this, who] { owner.entryFreed(who); },
            EventPriority::Default, freeNowName);
        return;
    }
    freeWaiters.push(who);
}

void
Lfb::fill(Addr line)
{
    // Fill stall: the fill data is held back for a while. The entry
    // stays live, so new requests for the line keep merging into it;
    // the deferred call performs the one real fill.
    if (fault::fire(fault::FaultSite::LfbFillStall)) {
        const Tick stall = fault::magnitude(
            fault::FaultSite::LfbFillStall, 200 * tickPerNs);
        eventQueue().scheduleLambda(
            curTick() + fault::draw(fault::FaultSite::LfbFillStall,
                                    stall),
            [this, line] { fill(line); },
            EventPriority::Default, stalledFillName);
        return;
    }

    const std::uint32_t idx = find(line);
    KMU_INVARIANT(idx != none, "fill for line %#llx with no LFB entry",
                  (unsigned long long)line);

    // Free the slot before waking anyone: a requester may re-request
    // and reuse it. The detached list is walked with each node read
    // before it is recycled, so re-requests cannot disturb the walk.
    Slot &slot = slots[idx];
    std::uint32_t n = slot.firstWaiter;
    const std::uint32_t woken = slot.waiters;
    slot = Slot{};
    --live;
    ++fills;
    trace::end(trace::Kind::LfbResident, line, traceTrack(), woken);

    while (n != none) {
        const Requester who = nodes[n].who;
        const std::uint32_t next = nodes[n].next;
        nodes[n].next = freeNode;
        freeNode = n;
        n = next;
        owner.lineFilled(who);
    }

    // One freed entry admits one waiting demand miss.
    if (!freeWaiters.empty() && !full())
        owner.entryFreed(freeWaiters.pop());
    KMU_MODEL_CHECK(allocs.value() - fills.value() == inUse(),
                    "LFB in-flight count %u != allocated %llu - "
                    "filled %llu", inUse(),
                    (unsigned long long)allocs.value(),
                    (unsigned long long)fills.value());
}

} // namespace kmu
