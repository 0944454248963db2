/**
 * @file
 * Tests for the invariant-checker subsystem: the KMU_INVARIANT /
 * KMU_MODEL_CHECK machinery itself, and deliberately broken model
 * states that each wired-in conservation law must catch.
 */

#include <gtest/gtest.h>

#include <memory>

#include "check/invariant.hh"
#include "check/sim_checker.hh"
#include "common/types.hh"
#include "common/units.hh"
#include "core/sim_system.hh"
#include "device/replay_window.hh"
#include "mem/lfb.hh"
#include "mem/pcie_link.hh"
#include "mem/uncore_queue.hh"
#include "queue/spsc_ring.hh"
#include "tests/mem/read_test_util.hh"

namespace kmu
{
namespace
{

TEST(InvariantTest, PassingCheckIsSilent)
{
    const std::uint64_t before = check::violationCount();
    KMU_INVARIANT(1 + 1 == 2, "arithmetic broke");
    KMU_MODEL_CHECK(true, "truth broke");
    EXPECT_EQ(check::violationCount(), before);
}

TEST(InvariantTest, TrapCapturesViolation)
{
    check::ViolationTrap trap;
    EXPECT_THROW(KMU_INVARIANT(false, "forced failure %d", 42),
                 check::ViolationError);
    EXPECT_EQ(trap.caught(), 1u);
    EXPECT_NE(trap.lastMessage().find("forced failure 42"),
              std::string::npos);
}

TEST(InvariantTest, UntrappedViolationPanics)
{
    EXPECT_DEATH(KMU_INVARIANT(false, "fatal by default"),
                 "fatal by default");
}

TEST(InvariantTest, ModelCheckTogglesAtRuntime)
{
#ifdef KMU_NO_MODEL_CHECKS
    GTEST_SKIP() << "model checks compiled out";
#else
    check::ViolationTrap trap;
    check::setModelChecks(false);
    KMU_MODEL_CHECK(false, "must be skipped while disabled");
    EXPECT_EQ(trap.caught(), 0u);
    check::setModelChecks(true);
    EXPECT_THROW(KMU_MODEL_CHECK(false, "armed again"),
                 check::ViolationError);
    EXPECT_EQ(trap.caught(), 1u);
#endif
}

TEST(InvariantTest, ModelCheckDoesNotEvaluateWhenDisabled)
{
#ifdef KMU_NO_MODEL_CHECKS
    GTEST_SKIP() << "model checks compiled out";
#else
    check::setModelChecks(false);
    int evaluations = 0;
    KMU_MODEL_CHECK((++evaluations, true), "unused");
    EXPECT_EQ(evaluations, 0);
    check::setModelChecks(true);
    KMU_MODEL_CHECK((++evaluations, true), "unused");
    EXPECT_EQ(evaluations, 1);
#endif
}

// --- Deliberately broken model states ------------------------------

TEST(BrokenModelTest, LfbFillWithoutEntry)
{
    EventQueue eq;
    StatGroup root("root");
    test::RecordingOwner owner;
    Lfb lfb("lfb", eq, 4, owner, &root);
    check::ViolationTrap trap;
    EXPECT_THROW(lfb.fill(0x1000), check::ViolationError);
    EXPECT_NE(trap.lastMessage().find("no LFB entry"),
              std::string::npos);
}

TEST(BrokenModelTest, UncoreReleaseUnderflow)
{
    EventQueue eq;
    StatGroup root("root");
    UncoreQueue q("uncore", eq, 2, &root);
    check::ViolationTrap trap;
    EXPECT_THROW(q.release(), check::ViolationError);
    EXPECT_NE(trap.lastMessage().find("empty"), std::string::npos);
}

TEST(BrokenModelTest, EventScheduledInThePast)
{
    EventQueue eq;
    eq.scheduleLambda(1000, [] {});
    eq.run(2000);
    check::ViolationTrap trap;
    EXPECT_THROW(eq.scheduleLambda(500, [] {}, EventPriority::Default,
                                   "late"),
                 check::ViolationError);
    EXPECT_NE(trap.lastMessage().find("'late' scheduled in the past"),
              std::string::npos);
    // The check runs before an arena slot is taken: the trapped
    // violation booked nothing, and the queue keeps working.
    EXPECT_EQ(eq.size(), 0u);
    bool ran = false;
    eq.scheduleLambda(3000, [&ran] { ran = true; });
    eq.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(eq.curTick(), 3000u);
}

TEST(BrokenModelTest, PcieUsefulBytesExceedPayload)
{
    EventQueue eq;
    StatGroup root("root");
    PcieLink link("pcie", eq, PcieLinkParams{}, &root);
    check::ViolationTrap trap;
    EXPECT_THROW(link.send(LinkDir::ToHost, 64, 128, [] {}),
                 check::ViolationError);
    EXPECT_NE(trap.lastMessage().find("useful bytes exceed payload"),
              std::string::npos);
}

TEST(BrokenModelTest, ReplayWindowFrontierStaysConsistent)
{
    // The stale-epoch invariant (no match below the aged-out
    // frontier) cannot be tripped through the public API — aged-out
    // entries leave the window — so this exercises every legal path
    // around the frontier: in-window reordering, deep skips that age
    // entries out, and spurious misses, asserting the frontier
    // accounting the invariant relies on.
    std::uint64_t next = 0;
    ReplayWindow win(
        [&](Addr &out) {
            out = Addr(next++ * cacheLineSize);
            return true;
        },
        4);

    // Match seq 3 -> entries 0..2 linger (all within a window of the
    // match), nothing aged out yet.
    std::uint64_t seq = 0;
    EXPECT_EQ(win.lookup(3 * cacheLineSize, &seq),
              ReplayWindow::Result::Matched);
    EXPECT_EQ(seq, 3u);
    EXPECT_EQ(win.agedOut(), 0u);

    // Matching the still-buffered oldest entry is legal (reordered
    // request), not stale.
    EXPECT_EQ(win.lookup(0, &seq), ReplayWindow::Result::Matched);
    EXPECT_EQ(seq, 0u);
    EXPECT_GE(win.outOfOrderMatches(), 1u);

    // Window now holds seqs {1,2,4,5}. Matching seq 5 leaves seq 1
    // exactly a window behind (not yet stale), but matching seq 6
    // slides the front a full window past it: it ages out for good.
    EXPECT_EQ(win.lookup(5 * cacheLineSize, &seq),
              ReplayWindow::Result::Matched);
    EXPECT_EQ(seq, 5u);
    EXPECT_EQ(win.agedOut(), 0u);
    EXPECT_EQ(win.lookup(6 * cacheLineSize, &seq),
              ReplayWindow::Result::Matched);
    EXPECT_EQ(seq, 6u);
    EXPECT_EQ(win.agedOut(), 1u);

    // Seq 2 survived the slide and remains legally matchable.
    EXPECT_EQ(win.lookup(2 * cacheLineSize, &seq),
              ReplayWindow::Result::Matched);
    EXPECT_EQ(seq, 2u);

    // An address the stream never recorded is a spurious miss.
    EXPECT_EQ(win.lookup(Addr(1) << 40), ReplayWindow::Result::Miss);
    EXPECT_GE(win.misses(), 1u);
}

TEST(BrokenModelTest, SimCheckerCatchesFailingCheck)
{
    EventQueue eq;
    StatGroup root("root");
    SimChecker checker("checker", eq, tickPerUs, &root);

    bool healthy = true;
    checker.addCheck("toy_conservation", [&]() {
        KMU_INVARIANT(healthy, "toy model went inconsistent");
    });

    checker.runChecks(); // healthy: no violation

    healthy = false;
    check::ViolationTrap trap;
    EXPECT_THROW(checker.runChecks(), check::ViolationError);
    EXPECT_NE(trap.lastMessage().find("toy model went inconsistent"),
              std::string::npos);
    EXPECT_EQ(checker.checkCount(), 1u);
}

TEST(BrokenModelTest, SimCheckerSweepsPeriodically)
{
    EventQueue eq;
    StatGroup root("root");
    SimChecker checker("checker", eq, tickPerUs, &root);
    std::uint64_t runs = 0;
    checker.addCheck("count_sweeps", [&]() { ++runs; });
    checker.start();

    // Keep the queue busy for 10 us of simulated time; the checker
    // must sweep roughly once per microsecond and then let the queue
    // drain (it never keeps an empty queue alive).
    for (int i = 1; i <= 10; ++i)
        eq.scheduleLambda(Tick(i) * tickPerUs, [] {});
    eq.run();
    EXPECT_GE(runs, 5u);
    EXPECT_EQ(eq.size(), 0u);
    EXPECT_EQ(checker.sweepsRun.value(), runs);
}

// start() while a sweep is booked must not book a second one: the
// double start below still sweeps exactly once per busy interval.
TEST(SimCheckerTest, StartTwiceBooksOneSweepPerInterval)
{
    EventQueue eq;
    StatGroup root("root");
    SimChecker checker("checker", eq, tickPerUs, &root);
    checker.start();
    checker.start();
    EXPECT_EQ(eq.size(), 1u);

    // Busy until 10 us. Each sweep services after the same-tick
    // lambda (Stats priority), so the tenth one sees a drained queue.
    for (int i = 1; i <= 10; ++i)
        eq.scheduleLambda(Tick(i) * tickPerUs, [] {});
    eq.run();
    EXPECT_EQ(checker.sweepsRun.value(), 10u);
    EXPECT_EQ(eq.curTick(), 10 * tickPerUs);
}

// A sweep that finds nothing else queued books no successor, so the
// queue drains; a later start() arms the checker again.
TEST(SimCheckerTest, SweepStopsOnceQueueDrains)
{
    EventQueue eq;
    StatGroup root("root");
    SimChecker checker("checker", eq, tickPerUs, &root);
    checker.start();
    eq.run();
    EXPECT_EQ(checker.sweepsRun.value(), 1u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.curTick(), tickPerUs);

    checker.start();
    EXPECT_EQ(eq.size(), 1u);
    eq.run();
    EXPECT_EQ(checker.sweepsRun.value(), 2u);
    EXPECT_TRUE(eq.empty());
}

// SimSystem destroys its checker before its queue, with a sweep still
// booked. The queue's teardown must dispose that sweep without
// running it (ASan/UBSan legs catch a use after free or a leak).
TEST(SimCheckerTest, DestroyedBeforeQueueTearsDownCleanly)
{
    auto eq = std::make_unique<EventQueue>();
    StatGroup root("root");
    {
        SimChecker checker("checker", *eq, tickPerUs, &root);
        checker.addCheck("never_runs", [] { FAIL(); });
        checker.start();
        eq->scheduleLambda(5 * tickPerUs, [] {});
    }
    EXPECT_EQ(eq->size(), 2u);
    eq.reset();
}

TEST(SimSystemCheckerTest, HealthySystemSweepsClean)
{
    SystemConfig cfg;
    cfg.mechanism = Mechanism::Prefetch;
    cfg.backing = Backing::Device;
    cfg.numCores = 2;
    cfg.warmup = microseconds(5);
    cfg.measure = microseconds(20);

    const std::uint64_t before = check::violationCount();
    SimSystem sys(cfg);
    EXPECT_GE(sys.invariantChecker().checkCount(), 3u);
    sys.run();
    // The periodic sweeps ran and found a consistent model.
    EXPECT_GT(sys.invariantChecker().sweepsRun.value(), 0u);
    EXPECT_EQ(check::violationCount(), before);
}

} // anonymous namespace
} // namespace kmu
