/**
 * @file
 * Unit tests for the DRAM path model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/units.hh"
#include "mem/dram_model.hh"
#include "tests/mem/read_test_util.hh"

namespace kmu
{
namespace
{

TEST(DramModelTest, FixedLatency)
{
    EventQueue eq;
    StatGroup root("root");
    DramParams p;
    p.latency = nanoseconds(60);
    DramModel dram("dram", eq, p, &root);

    test::TestReads reads;
    Tick done = 0;
    dram.access(reads.make(0, 0, [&]() { done = eq.curTick(); }));
    eq.run();
    EXPECT_EQ(done, nanoseconds(60));
    EXPECT_EQ(dram.reads.value(), 1u);
}

TEST(DramModelTest, DeepQueueAllowsManyOutstanding)
{
    EventQueue eq;
    StatGroup root("root");
    DramParams p;
    p.latency = nanoseconds(60);
    p.queueDepth = 48;
    DramModel dram("dram", eq, p, &root);

    test::TestReads reads;
    std::vector<Tick> arrivals;
    for (int i = 0; i < 48; ++i)
        dram.access(reads.make(0, Addr(i) * 64, [&]() {
            arrivals.push_back(eq.curTick());
        }));
    eq.run();
    ASSERT_EQ(arrivals.size(), 48u);
    // All 48 fit the queue, so all complete at the same latency.
    for (Tick t : arrivals)
        EXPECT_EQ(t, nanoseconds(60));
    EXPECT_EQ(dram.queue().peakOccupancy(), 48u);
}

TEST(DramModelTest, QueueDepthLimitsParallelism)
{
    EventQueue eq;
    StatGroup root("root");
    DramParams p;
    p.latency = nanoseconds(60);
    p.queueDepth = 2;
    DramModel dram("dram", eq, p, &root);

    test::TestReads reads;
    std::vector<Tick> arrivals;
    for (int i = 0; i < 4; ++i)
        dram.access(reads.make(0, Addr(i) * 64, [&]() {
            arrivals.push_back(eq.curTick());
        }));
    eq.run();
    ASSERT_EQ(arrivals.size(), 4u);
    EXPECT_EQ(arrivals[0], nanoseconds(60));
    EXPECT_EQ(arrivals[1], nanoseconds(60));
    EXPECT_EQ(arrivals[2], nanoseconds(120)); // waited for a slot
    EXPECT_EQ(arrivals[3], nanoseconds(120));
    EXPECT_EQ(dram.queue().peakOccupancy(), 2u);
}

} // anonymous namespace
} // namespace kmu
