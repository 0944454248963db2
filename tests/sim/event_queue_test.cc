/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/event.hh"

namespace kmu
{
namespace
{

/** Book a one-shot that appends @p name to @p log when it runs. */
void
record(EventQueue &eq, Tick when, const char *name,
       std::vector<std::string> &log,
       EventPriority prio = EventPriority::Default)
{
    eq.scheduleLambda(when, [&log, name] { log.emplace_back(name); },
                      prio, name);
}

/**
 * The pending-event scheduler under test. The ladder is the only
 * one; the suites stay parameterized so their test names are stable.
 */
enum class Kernel
{
    Ladder
};

class EventQueueTest : public ::testing::TestWithParam<Kernel>
{
};

const char *
kernelName(const ::testing::TestParamInfo<Kernel> &)
{
    return "Ladder";
}

TEST_P(EventQueueTest, OrdersByTick)
{
    EventQueue eq;
    std::vector<std::string> log;
    record(eq, 20, "b", log);
    record(eq, 10, "a", log);
    record(eq, 30, "c", log);
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST_P(EventQueueTest, SameTickFifoWithinPriority)
{
    EventQueue eq;
    std::vector<std::string> log;
    record(eq, 5, "first", log);
    record(eq, 5, "second", log);
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"first", "second"}));
}

TEST_P(EventQueueTest, PriorityBreaksTickTies)
{
    EventQueue eq;
    std::vector<std::string> log;
    record(eq, 5, "cpu", log, EventPriority::CpuTick);
    record(eq, 5, "resp", log, EventPriority::DeviceResponse);
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"resp", "cpu"}));
}

TEST_P(EventQueueTest, RunHonorsLimit)
{
    EventQueue eq;
    std::vector<std::string> log;
    record(eq, 10, "a", log);
    record(eq, 100, "b", log);
    eq.run(50);
    EXPECT_EQ(log, (std::vector<std::string>{"a"}));
    EXPECT_EQ(eq.size(), 1u);
    eq.run();
    EXPECT_EQ(log.size(), 2u);
}

TEST_P(EventQueueTest, ServiceOneStepsExactlyOne)
{
    EventQueue eq;
    std::vector<std::string> log;
    record(eq, 1, "a", log);
    record(eq, 2, "b", log);
    EXPECT_TRUE(eq.serviceOne());
    EXPECT_EQ(log.size(), 1u);
    EXPECT_TRUE(eq.serviceOne());
    EXPECT_FALSE(eq.serviceOne());
    EXPECT_EQ(eq.serviced(), 2u);
}

TEST_P(EventQueueTest, LambdaEventsRunAndFree)
{
    EventQueue eq;
    int hits = 0;
    for (int i = 0; i < 100; ++i)
        eq.scheduleLambda(Tick(i), [&hits]() { hits++; });
    eq.run();
    EXPECT_EQ(hits, 100);
    EXPECT_TRUE(eq.empty());
}

TEST_P(EventQueueTest, EventsScheduledDuringProcessing)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&]() {
        if (++depth < 5)
            eq.scheduleLambda(eq.curTick() + 10, chain);
    };
    eq.scheduleLambda(0, chain);
    eq.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.curTick(), 40u);
}

TEST_P(EventQueueTest, SizeTracksLiveEvents)
{
    EventQueue eq;
    std::vector<std::string> log;
    record(eq, 10, "a", log);
    record(eq, 20, "b", log);
    EXPECT_EQ(eq.size(), 2u);
    EXPECT_TRUE(eq.serviceOne());
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_TRUE(eq.serviceOne());
    EXPECT_EQ(eq.size(), 0u);
    EXPECT_TRUE(eq.empty());
}

// The order key packs the priority into 16 bits above the seq: both
// ends of that range and the four named priorities, scheduled at one
// tick in scrambled order, must service in (prio, seq) order.
TEST_P(EventQueueTest, PackedPriorityExtremesServiceInKeyOrder)
{
    EventQueue eq;
    std::vector<std::string> log;
    const EventPriority lowest = EventPriority(-32768);
    const EventPriority highest = EventPriority(32767);
    const std::vector<std::pair<const char *, EventPriority>> spec = {
        {"stats", EventPriority::Stats},
        {"highest", highest},
        {"cpu", EventPriority::CpuTick},
        {"lowest", lowest},
        {"default", EventPriority::Default},
        {"resp", EventPriority::DeviceResponse},
        {"highest2", highest},
        {"lowest2", lowest},
        {"default2", EventPriority::Default},
    };
    for (const auto &[name, prio] : spec)
        record(eq, 1000, name, log, prio);
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{
                       "lowest", "lowest2", "resp", "default",
                       "default2", "cpu", "stats", "highest",
                       "highest2"}));
    EXPECT_EQ(eq.curTick(), 1000u);
}

INSTANTIATE_TEST_SUITE_P(Kernels, EventQueueTest,
                         ::testing::Values(Kernel::Ladder), kernelName);

class EventQueueDeathTest : public EventQueueTest
{
};

TEST_P(EventQueueDeathTest, PastSchedulingPanics)
{
    EventQueue eq;
    std::vector<std::string> log;
    eq.scheduleLambda(100, []() {});
    eq.run();
    EXPECT_DEATH(record(eq, 50, "a", log), "past");
}

// A priority outside the 16 bits the order key gives it would alias
// another priority's keys and break the service order: scheduling
// one must trip the packing invariant.
TEST_P(EventQueueDeathTest, PriorityOutsidePackedRangePanics)
{
    EventQueue eq;
    std::vector<std::string> log;
    EXPECT_DEATH(record(eq, 10, "above", log, EventPriority(32768)),
                 "packed range");
    EXPECT_DEATH(record(eq, 10, "below", log, EventPriority(-32769)),
                 "packed range");
}

INSTANTIATE_TEST_SUITE_P(Kernels, EventQueueDeathTest,
                         ::testing::Values(Kernel::Ladder), kernelName);

} // anonymous namespace
} // namespace kmu
