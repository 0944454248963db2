/**
 * @file
 * Property and stress tests for the event kernel.
 *
 * A naive reference model — a flat vector served by min-scan over
 * (tick, priority, insertion sequence) — defines the one true service
 * order. Randomized schedule/service interleavings are replayed
 * against the production EventQueue (its ladder calendar scheduler),
 * and every serviced event must match the reference pop exactly.
 *
 * The tick deltas are drawn across all ladder rungs (sub-ns buckets
 * through the >17 ms overflow list), so the sweeps cross bucket
 * boundaries, trigger cascades, hit the sparse-bucket promotion path,
 * and force overflow rebasing. Targeted tests pin each of those edges
 * individually.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "sim/event.hh"

namespace kmu
{
namespace
{

/** Book a one-shot that appends @p id to @p log when it runs. */
void
post(EventQueue &eq, Tick when, int id, std::vector<int> &log,
     EventPriority prio = EventPriority::Default)
{
    eq.scheduleLambda(when, [&log, id] { log.push_back(id); }, prio,
                      "id");
}

/** A capture that counts its live copies, so a test can see the
 *  queue dispose every callable it holds. */
class Counted
{
  public:
    explicit Counted(int &live_copies) : live(&live_copies) { ++*live; }
    Counted(const Counted &other) : live(other.live) { ++*live; }
    Counted &operator=(const Counted &) = delete;
    ~Counted() { --*live; }

  private:
    int *live;
};

/**
 * The executable specification: every entry carries the same
 * (when, prio, seq) key the production schedulers order by, and
 * service is a linear min-scan. Correct by inspection.
 */
class ReferenceQueue
{
  public:
    struct RefEntry
    {
        Tick when;
        std::int32_t prio;
        std::uint64_t seq;
        int id;
    };

    struct RefEntryPop
    {
        Tick when;
        int id;
    };

    void
    insert(Tick when, EventPriority prio, std::uint64_t seq, int id)
    {
        entries.push_back(
            {when, static_cast<std::int32_t>(prio), seq, id});
    }

    /** Pop the strict (when, prio, seq) minimum. */
    RefEntryPop
    pop()
    {
        auto it = std::min_element(
            entries.begin(), entries.end(),
            [](const RefEntry &a, const RefEntry &b) {
                if (a.when != b.when)
                    return a.when < b.when;
                if (a.prio != b.prio)
                    return a.prio < b.prio;
                return a.seq < b.seq;
            });
        RefEntryPop out{it->when, it->id};
        entries.erase(it);
        return out;
    }

    std::size_t size() const { return entries.size(); }

  private:
    std::vector<RefEntry> entries;
};

/**
 * The pending-event scheduler under test. The ladder is the only
 * one; the suite stays parameterized so its test names are stable.
 */
enum class Kernel
{
    Ladder
};

class EventQueueStressTest : public ::testing::TestWithParam<Kernel>
{
};

const char *
kernelName(const ::testing::TestParamInfo<Kernel> &)
{
    return "Ladder";
}

/** Tick deltas spanning every ladder rung plus the overflow list. */
Tick
drawDelta(std::mt19937_64 &rng)
{
    switch (rng() % 6) {
    case 0:
        return 0; // same-tick (priority/seq tie-breaks)
    case 1:
        return 1 + rng() % 1'000; // rung 0 (1 ns buckets)
    case 2:
        return 1'000 + rng() % 261'144; // rung 0 span edge
    case 3:
        return 262'144 + rng() % 66'846'720; // rung 1 (262 ns)
    case 4:
        return Tick(67'108'864) +
               rng() % Tick(17'112'760'320); // rung 2 (67 us)
    default:
        return Tick(17'179'869'184) +
               rng() % Tick(1'000'000'000'000); // overflow (>17 ms)
    }
}

EventPriority
drawPriority(std::mt19937_64 &rng)
{
    static constexpr std::array<EventPriority, 4> prios = {
        EventPriority::DeviceResponse, EventPriority::Default,
        EventPriority::CpuTick, EventPriority::Stats};
    return prios[rng() % prios.size()];
}

/** The named priorities plus both ends of the order key's 16-bit
 *  priority field. */
EventPriority
drawPackedPriority(std::mt19937_64 &rng)
{
    static constexpr std::array<EventPriority, 6> prios = {
        EventPriority(-32768),         EventPriority::DeviceResponse,
        EventPriority::Default,        EventPriority::CpuTick,
        EventPriority::Stats,          EventPriority(32767)};
    return prios[rng() % prios.size()];
}

// Random interleavings of schedule and service, validated op-by-op
// against the reference model. Seeded, so failures replay exactly.
TEST_P(EventQueueStressTest, RandomOpsMatchReferenceModel)
{
    EventQueue eq;
    ReferenceQueue ref;
    std::mt19937_64 rng(0x5eed'0001);

    std::vector<int> log;
    constexpr std::size_t maxPending = 64;
    // The reference mirrors the queue's insertion-sequence counter:
    // one seq per scheduleLambda() call.
    std::uint64_t nextSeq = 0;
    int nextId = 0;
    Tick lastWhen = 0; // reused sometimes to force exact ties

    auto drawWhen = [&]() -> Tick {
        if (rng() % 4 == 0 && lastWhen >= eq.curTick())
            return lastWhen; // exact (when) collision
        lastWhen = eq.curTick() + drawDelta(rng);
        return lastWhen;
    };

    for (int op = 0; op < 30'000; ++op) {
        if (rng() % 100 < 60 && ref.size() < maxPending) {
            // Schedule at a random tick and packed priority.
            const Tick when = drawWhen();
            const EventPriority prio = drawPackedPriority(rng);
            post(eq, when, nextId, log, prio);
            ref.insert(when, prio, nextSeq++, nextId++);
        } else {
            // Service a small burst, checking each pop against the
            // reference minimum.
            const int burst = 1 + int(rng() % 4);
            for (int k = 0; k < burst && ref.size() > 0; ++k) {
                const auto expect = ref.pop();
                ASSERT_TRUE(eq.serviceOne());
                ASSERT_FALSE(log.empty());
                ASSERT_EQ(log.back(), expect.id)
                    << "service order diverged at op " << op;
                ASSERT_EQ(eq.curTick(), expect.when);
            }
        }
        ASSERT_EQ(eq.size(), ref.size());
    }

    // Drain: the tail must come out in exact reference order too.
    while (ref.size() > 0) {
        const auto expect = ref.pop();
        ASSERT_TRUE(eq.serviceOne());
        ASSERT_EQ(log.back(), expect.id);
        ASSERT_EQ(eq.curTick(), expect.when);
    }
    EXPECT_FALSE(eq.serviceOne());
    EXPECT_TRUE(eq.empty());
}

// One-shot lambda churn: every callable must be disposed once it
// has run (arena slots recycled, never accumulated) across
// schedule/run cycles, including heap-spilled captures larger than
// the inline slot.
TEST_P(EventQueueStressTest, LambdaChurnKeepsArenaBounded)
{
    EventQueue eq;
    std::mt19937_64 rng(0x5eed'0002);
    std::uint64_t hits = 0;
    std::uint64_t expected = 0;
    int live = 0; // callables the queue still holds

    for (int round = 0; round < 200; ++round) {
        const int n = 1 + int(rng() % 100);
        for (int i = 0; i < n; ++i) {
            ++expected;
            if (rng() % 8 == 0) {
                // Capture bigger than an Event slot's inline storage:
                // exercises the heap-spill bind/dispose pair.
                std::array<std::uint64_t, 16> big{};
                big[0] = 1;
                eq.scheduleLambda(
                    eq.curTick() + drawDelta(rng),
                    [&hits, big, c = Counted(live)]() {
                        hits += big[0];
                    },
                    drawPriority(rng), "spill");
            } else {
                eq.scheduleLambda(
                    eq.curTick() + 1 + rng() % 1000,
                    [&hits, c = Counted(live)]() { ++hits; },
                    drawPriority(rng), "inline");
            }
        }
        ASSERT_EQ(std::uint64_t(live), eq.size());
        eq.run();
        ASSERT_EQ(live, 0);
        ASSERT_TRUE(eq.empty());
    }
    EXPECT_EQ(hits, expected);
}

// Lambdas still pending when the queue dies must be disposed by the
// destructor (ASan leak checking on the CI legs pins the "must free"
// half; the explicit counter pins "exactly the unserviced ones").
TEST_P(EventQueueStressTest, UnservicedLambdasFreedAtDestruction)
{
    auto alive = std::make_shared<int>(42);
    std::weak_ptr<int> watch = alive;
    {
        EventQueue eq;
        for (int i = 0; i < 100; ++i)
            eq.scheduleLambda(Tick(1'000'000) + Tick(i),
                              [keep = alive]() { (void)*keep; });
        alive.reset();
        EXPECT_FALSE(watch.expired()); // captures hold it
        EXPECT_EQ(eq.size(), 100u);
    }
    EXPECT_TRUE(watch.expired()); // every capture disposed
}

// Ladder bucket-boundary edges: ticks straddling every rung's bucket
// and window boundaries, with priority ties on the boundary ticks.
TEST_P(EventQueueStressTest, BucketBoundaryOrdering)
{
    EventQueue eq;
    std::vector<int> log;

    // Rung widths: 1<<10, 1<<18, 1<<26; window spans: 256 buckets.
    const std::vector<Tick> ticks = {
        1023,          1024,          1025,          // bucket edge r0
        262'143,       262'144,       262'145,       // window edge r0
        67'108'863,    67'108'864,    67'108'865,    // window edge r1
        17'179'869'183, 17'179'869'184,              // overflow edge
    };

    std::vector<int> expect;
    int id = 0;
    // Two events per tick — same tick, different priority — inserted
    // in reverse-priority order so the scheduler must reorder them.
    for (const Tick t : ticks) {
        post(eq, t, id, log, EventPriority::CpuTick);
        post(eq, t, id + 1, log, EventPriority::DeviceResponse);
        expect.push_back(id + 1); // DeviceResponse first
        expect.push_back(id);
        id += 2;
    }
    eq.run();
    EXPECT_EQ(log, expect);
}

// maxTick saturation: the "never" guard tick must be schedulable and
// service last, without the ladder's window arithmetic wrapping.
TEST_P(EventQueueStressTest, MaxTickSaturation)
{
    EventQueue eq;
    std::vector<int> log;
    post(eq, maxTick, 2, log);
    post(eq, maxTick, 3, log); // same tick: seq tie-break at saturation
    post(eq, maxTick - 3, 1, log);
    post(eq, 10, 0, log);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(eq.curTick(), maxTick);
}

// Overflow rebase: events parked beyond the top rung's span must
// migrate into the rungs once time advances, preserving order across
// multiple rebase generations.
TEST_P(EventQueueStressTest, OverflowRebasePreservesOrder)
{
    EventQueue eq;
    std::vector<int> log;
    std::vector<int> expect;

    // Five generations, each ~20 ms apart (beyond the 17 ms rung-2
    // span, so each lands in the overflow list relative to the
    // previous generation's service time).
    const Tick gen = 20'000'000'000; // 20 ms in ps
    int id = 0;
    for (int g = 1; g <= 5; ++g) {
        for (int i = 0; i < 3; ++i) {
            post(eq, Tick(g) * gen + Tick(i) * 1'000, id, log);
            expect.push_back(id++);
        }
    }
    eq.run();
    EXPECT_EQ(log, expect);
}

// Sparse-bucket promotion: µs-spaced events leave coarse-rung buckets
// at or below the promotion threshold, so cascading promotes them
// straight into the active run. Inserting new events *below* the
// promoted window's end must still service in exact order.
TEST_P(EventQueueStressTest, SparseBucketPromotionOrdering)
{
    EventQueue eq;
    std::vector<int> log;

    // A sparse µs-spaced stream (the device-completion shape).
    for (int i = 0; i < 64; ++i)
        post(eq, Tick(i + 1) * 1'000'000, i, log); // every 1 µs

    // Service half, injecting a near event after each pop — each
    // injection lands inside whatever window the promotion exposed.
    std::vector<int> expect;
    int nextId = 64;
    for (int i = 0; i < 32; ++i) {
        expect.push_back(i);
        ASSERT_TRUE(eq.serviceOne());
        post(eq, eq.curTick() + 100, nextId, log);
        expect.push_back(nextId++);
        ASSERT_TRUE(eq.serviceOne());
    }
    for (int i = 32; i < 64; ++i)
        expect.push_back(i);
    eq.run();
    EXPECT_EQ(log, expect);
}

// A second seeded workload with an unbounded event pool: the ladder
// kernel and the min-scan reference model are fed one identical op
// stream and must service it in the same order.
TEST(EventQueueStressCrossTest, KernelsAgreeOnRandomWorkload)
{
    EventQueue eq;
    ReferenceQueue ref;
    std::vector<int> log, refLog;
    std::mt19937_64 rng(0x5eed'0003);
    std::uint64_t nextSeq = 0; // mirrors the queue's counter
    int nextId = 0;

    auto serviceBoth = [&]() {
        const auto expect = ref.pop();
        refLog.push_back(expect.id);
        ASSERT_TRUE(eq.serviceOne());
        ASSERT_EQ(eq.curTick(), expect.when);
    };

    for (int op = 0; op < 20'000; ++op) {
        if (rng() % 100 < 60) {
            const EventPriority prio = drawPriority(rng);
            const Tick when = eq.curTick() + drawDelta(rng);
            post(eq, when, nextId, log, prio);
            ref.insert(when, prio, nextSeq++, nextId++);
        } else {
            for (int n = 0; n < 4 && ref.size() > 0; ++n)
                serviceBoth();
        }
        ASSERT_EQ(eq.size(), ref.size()) << "at op " << op;
    }
    while (ref.size() > 0)
        serviceBoth();
    EXPECT_FALSE(eq.serviceOne());
    EXPECT_EQ(log, refLog);
    EXPECT_FALSE(log.empty());
}

INSTANTIATE_TEST_SUITE_P(Kernels, EventQueueStressTest,
                         ::testing::Values(Kernel::Ladder), kernelName);

} // anonymous namespace
} // namespace kmu
