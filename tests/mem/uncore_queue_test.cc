/**
 * @file
 * Unit tests for the chip-level shared queue.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/uncore_queue.hh"
#include "tests/mem/read_test_util.hh"

namespace kmu
{
namespace
{

struct UncoreFixture : public ::testing::Test
{
    EventQueue eq;
    StatGroup root{"root"};
    UncoreQueue q{"q", eq, 3, &root};
    test::ToFill grants; //!< a granted read runs its callback
    test::TestReads reads;

    UncoreFixture() { q.setSink(grants); }

    /** Acquire a slot for a read that runs @p granted on grant. */
    ReadRecord &
    acquire(std::function<void()> granted = {})
    {
        ReadRecord &r = reads.make(0, 0, std::move(granted));
        q.acquire(r);
        return r;
    }
};

TEST_F(UncoreFixture, GrantsUpToCapacity)
{
    int granted = 0;
    for (int i = 0; i < 3; ++i)
        acquire([&]() { granted++; });
    eq.run();
    EXPECT_EQ(granted, 3);
    EXPECT_TRUE(q.full());
    EXPECT_EQ(q.inUse(), 3u);
}

TEST_F(UncoreFixture, WaitersAdmittedFifoOnRelease)
{
    for (int i = 0; i < 3; ++i)
        acquire();
    std::vector<int> order;
    acquire([&]() { order.push_back(1); });
    acquire([&]() { order.push_back(2); });
    eq.run();
    EXPECT_TRUE(order.empty());
    EXPECT_EQ(q.waiting(), 2u);

    q.release();
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1}));
    q.release();
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.fullStalls.value(), 2u);
}

TEST_F(UncoreFixture, OccupancyNeverExceedsCapacity)
{
    int in_flight = 0;
    int peak = 0;
    for (int i = 0; i < 20; ++i) {
        acquire([&]() {
            in_flight++;
            peak = std::max(peak, in_flight);
            // Release after 10 ticks.
            eq.scheduleLambda(eq.curTick() + 10, [&]() {
                in_flight--;
                q.release();
            });
        });
    }
    eq.run();
    EXPECT_EQ(peak, 3);
    EXPECT_EQ(q.peakOccupancy(), 3u);
    EXPECT_EQ(q.entries.value(), 20u);
    EXPECT_EQ(q.inUse(), 0u);
}

TEST_F(UncoreFixture, GrantHandsTheWaitingRecordOn)
{
    struct Log final : ReadSink
    {
        std::vector<ReadRecord *> got;
        void accept(ReadRecord &r) override { got.push_back(&r); }
    } log;
    q.setSink(log);
    std::vector<ReadRecord *> sent;
    for (int i = 0; i < 5; ++i)
        sent.push_back(&acquire());
    eq.run();
    EXPECT_EQ(log.got, (std::vector<ReadRecord *>(sent.begin(),
                                                  sent.begin() + 3)));
    // Each release admits the oldest parked record, by reference.
    q.release();
    q.release();
    eq.run();
    EXPECT_EQ(log.got, sent);
    EXPECT_EQ(q.waiting(), 0u);
}

TEST_F(UncoreFixture, WaiterRingKeepsFifoAcrossGrowth)
{
    // More parked waiters than the ring's first buffer holds, with
    // grants interleaved so the live span wraps before it grows.
    std::vector<int> order;
    for (int i = 0; i < 3; ++i)
        acquire();
    int next = 0;
    auto park = [&](int n) {
        for (int i = 0; i < n; ++i) {
            const int id = next++;
            acquire([&order, id]() { order.push_back(id); });
        }
    };
    park(6);
    for (int i = 0; i < 4; ++i)
        q.release();
    eq.run();
    park(20);
    while (q.waiting() > 0) {
        q.release();
        eq.run();
    }
    ASSERT_EQ(order.size(), 26u);
    for (int i = 0; i < 26; ++i)
        EXPECT_EQ(order[std::size_t(i)], i);
}

TEST_F(UncoreFixture, ReleaseOnEmptyPanics)
{
    EXPECT_DEATH(q.release(), "empty");
}

} // anonymous namespace
} // namespace kmu
