/**
 * @file
 * Unit tests for the Line Fill Buffer (MSHR) model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "fault/fault_plan.hh"
#include "mem/lfb.hh"
#include "tests/mem/read_test_util.hh"

namespace kmu
{
namespace
{

using test::who;

struct LfbFixture : public ::testing::Test
{
    EventQueue eq;
    StatGroup root{"root"};
    test::RecordingOwner owner;
    Lfb lfb{"lfb", eq, 4, owner, &root};

    /** Occupy every entry with lines 0, 64, 128, 192. */
    void
    fillUp()
    {
        for (Addr line = 0; line < 4 * 64; line += 64)
            lfb.request(line, who(0));
    }
};

TEST_F(LfbFixture, AllocateUntilFull)
{
    for (Addr line = 0; line < 4 * 64; line += 64) {
        EXPECT_EQ(lfb.request(line, who(1)),
                  Lfb::AllocResult::NewEntry);
        EXPECT_EQ(lfb.allocated().line, line);
    }
    EXPECT_TRUE(lfb.full());
    EXPECT_EQ(lfb.request(1024, who(2)), Lfb::AllocResult::NoEntry);
    EXPECT_EQ(lfb.rejections.value(), 1u);
    EXPECT_TRUE(owner.filled.empty());
}

TEST_F(LfbFixture, SecondaryMissMerges)
{
    EXPECT_EQ(lfb.request(0, who(1)), Lfb::AllocResult::NewEntry);
    EXPECT_EQ(lfb.request(0, who(2)), Lfb::AllocResult::Merged);
    EXPECT_EQ(lfb.inUse(), 1u);
    lfb.fill(0);
    EXPECT_EQ(owner.filled, (std::vector<std::uint32_t>{1, 2}));
    EXPECT_EQ(lfb.inUse(), 0u);
}

TEST_F(LfbFixture, FillFreesEntryForReuse)
{
    lfb.request(0, who(0));
    lfb.fill(0);
    EXPECT_FALSE(lfb.pending(0));
    EXPECT_EQ(lfb.request(0, who(0)), Lfb::AllocResult::NewEntry);
}

TEST_F(LfbFixture, WaitForFreeFifoOrder)
{
    fillUp();
    lfb.waitForFree(who(1));
    lfb.waitForFree(who(2));

    lfb.fill(0);
    EXPECT_EQ(owner.freed, (std::vector<std::uint32_t>{1}));
    lfb.fill(64);
    EXPECT_EQ(owner.freed, (std::vector<std::uint32_t>{1, 2}));
}

TEST_F(LfbFixture, WaitForFreeImmediateWhenNotFull)
{
    lfb.waitForFree(who(1));
    EXPECT_TRUE(owner.freed.empty()); // deferred off-stack
    eq.run();
    EXPECT_EQ(owner.freed, (std::vector<std::uint32_t>{1}));
}

TEST_F(LfbFixture, PendingReportsInFlightLines)
{
    EXPECT_FALSE(lfb.pending(64));
    lfb.request(64, who(0));
    EXPECT_TRUE(lfb.pending(64));
    EXPECT_FALSE(lfb.pending(128));
}

TEST_F(LfbFixture, StatsCountAllocationKinds)
{
    lfb.request(0, who(0));
    lfb.request(0, who(0));
    lfb.request(64, who(0));
    lfb.fill(0);
    EXPECT_EQ(lfb.allocs.value(), 2u);
    EXPECT_EQ(lfb.merges.value(), 1u);
    EXPECT_EQ(lfb.fills.value(), 1u);
}

TEST_F(LfbFixture, WaiterCanReallocateFreedEntry)
{
    fillUp();
    bool reissued = false;
    owner.onFreed = [&](const Lfb::Requester &) {
        EXPECT_EQ(lfb.request(4096, who(2)),
                  Lfb::AllocResult::NewEntry);
        reissued = true;
    };
    lfb.waitForFree(who(1));
    lfb.fill(0);
    EXPECT_TRUE(reissued);
    EXPECT_TRUE(lfb.full()); // 3 old + the reissued one
}

TEST_F(LfbFixture, FillUnknownLinePanics)
{
    EXPECT_DEATH(lfb.fill(0xdead00), "no LFB entry");
}

TEST_F(LfbFixture, FillCallbackReusesJustFreedSlot)
{
    ASSERT_EQ(lfb.request(0, who(0)), Lfb::AllocResult::NewEntry);
    ReadRecord *slot0 = &lfb.allocated();
    for (Addr line = 64; line < 4 * 64; line += 64)
        lfb.request(line, who(0));
    lfb.request(0, who(1)); // merged: two requesters on line 0

    ReadRecord *reused = nullptr;
    owner.onFilled = [&](const Lfb::Requester &w) {
        // The entry is already free while its requesters run: the
        // first re-requests a new line and gets the just-freed slot;
        // the merged second requester still runs afterwards.
        if (w.ctx == 0) {
            EXPECT_FALSE(lfb.pending(0));
            EXPECT_EQ(lfb.request(4096, who(5)),
                      Lfb::AllocResult::NewEntry);
            reused = &lfb.allocated();
        }
    };
    lfb.fill(0);
    EXPECT_EQ(owner.filled, (std::vector<std::uint32_t>{0, 1}));
    EXPECT_EQ(reused, slot0);
    EXPECT_EQ(slot0->line, 4096u);
    EXPECT_TRUE(lfb.full());

    // The new line owns the slot now; its fill reaches only its own
    // requester.
    owner.onFilled = nullptr;
    lfb.fill(4096);
    EXPECT_EQ(owner.filled, (std::vector<std::uint32_t>{0, 1, 5}));
    EXPECT_EQ(lfb.inUse(), 3u);
}

TEST_F(LfbFixture, ParkedWaitersAdmittedOnePerFreedEntry)
{
    fillUp();
    for (std::uint32_t ctx = 1; ctx <= 3; ++ctx)
        lfb.waitForFree(who(ctx));
    // Like a core, each admitted waiter takes the freed entry.
    owner.onFreed = [&](const Lfb::Requester &w) {
        EXPECT_EQ(lfb.request(8192 + 64 * w.ctx, w),
                  Lfb::AllocResult::NewEntry);
    };

    lfb.fill(0);
    EXPECT_EQ(owner.freed, (std::vector<std::uint32_t>{1}));
    EXPECT_TRUE(lfb.full());
    lfb.fill(64);
    EXPECT_EQ(owner.freed, (std::vector<std::uint32_t>{1, 2}));
    lfb.fill(8192 + 64); // waiter 1's own line frees the next entry
    EXPECT_EQ(owner.freed, (std::vector<std::uint32_t>{1, 2, 3}));
    EXPECT_TRUE(lfb.full());
    EXPECT_EQ(eq.size(), 0u); // admissions are direct, not deferred
}

TEST_F(LfbFixture, MergeIntoLiveEntryKeepsItsRecord)
{
    ASSERT_EQ(lfb.request(640, who(1)), Lfb::AllocResult::NewEntry);
    ReadRecord &read = lfb.allocated();
    read.issued = 77;
    ASSERT_EQ(lfb.request(0, who(9)), Lfb::AllocResult::NewEntry);
    EXPECT_EQ(lfb.request(640, who(2)), Lfb::AllocResult::Merged);
    EXPECT_EQ(lfb.request(640, who(3)), Lfb::AllocResult::Merged);
    EXPECT_EQ(lfb.inUse(), 2u);
    EXPECT_EQ(lfb.allocs.value(), 2u);
    EXPECT_EQ(lfb.merges.value(), 2u);
    // Merges attach to the live entry without touching its read.
    EXPECT_EQ(read.line, 640u);
    EXPECT_EQ(read.issued, 77u);

    lfb.fill(640);
    EXPECT_EQ(owner.filled, (std::vector<std::uint32_t>{1, 2, 3}));
    EXPECT_FALSE(lfb.pending(640));
    EXPECT_TRUE(lfb.pending(0));
}

TEST_F(LfbFixture, FillStallDeferralKeepsEntryLive)
{
    lfb.request(0, who(1));
    {
        fault::FaultPlan plan(1);
        plan.set(fault::FaultSite::LfbFillStall,
                 {.rate = 1.0, .magnitude = 1000});
        fault::ScopedPlan scoped(plan);
        lfb.fill(0);
    }
    // The data is held back: the entry is still live and merges.
    EXPECT_TRUE(owner.filled.empty());
    EXPECT_TRUE(lfb.pending(0));
    EXPECT_EQ(lfb.inUse(), 1u);
    EXPECT_EQ(lfb.request(0, who(2)), Lfb::AllocResult::Merged);
    EXPECT_EQ(lfb.fills.value(), 0u);

    eq.run(); // the deferred fill is the one real fill
    EXPECT_EQ(owner.filled, (std::vector<std::uint32_t>{1, 2}));
    EXPECT_FALSE(lfb.pending(0));
    EXPECT_EQ(lfb.fills.value(), 1u);
}

} // anonymous namespace
} // namespace kmu
