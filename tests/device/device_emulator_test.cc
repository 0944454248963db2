/**
 * @file
 * Timing tests for the memory-mapped device emulator.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/units.hh"
#include "core/read_path.hh"
#include "device/device_emulator.hh"
#include "tests/mem/read_test_util.hh"

namespace kmu
{
namespace
{

PcieLinkParams
linkParams()
{
    PcieLinkParams p;
    p.propagation = nanoseconds(386);
    return p;
}

DeviceParams
deviceParams(Tick latency)
{
    DeviceParams p;
    p.latency = latency;
    p.rttAllowance = nanoseconds(800);
    return p;
}

struct EmulatorFixture : public ::testing::Test
{
    EventQueue eq;
    StatGroup root{"root"};
    PcieLink link{"pcie", eq, linkParams(), &root};
    test::TestReads reads;
};

TEST_F(EmulatorFixture, EndToEndLatencyMatchesConfig)
{
    DeviceEmulator dev("dev", eq, deviceParams(microseconds(1)), link,
                       1, &root);
    Tick done = 0;
    dev.hostRead(reads.make(0, 0, [&]() { done = eq.curTick(); }));
    eq.run();
    // Request TLP: 6 ns wire + 386 ns; hold 200 ns; response TLP:
    // 22 ns wire + 386 ns  => ~1000 ns end to end.
    EXPECT_NEAR(double(done), double(microseconds(1)),
                double(nanoseconds(30)));
    EXPECT_EQ(dev.requests.value(), 1u);
    EXPECT_EQ(dev.responsesSent.value(), 1u);
}

TEST_F(EmulatorFixture, HoldTimeClampedForFastDevices)
{
    // A 500 ns device cannot beat the PCIe round trip.
    DeviceEmulator dev("dev", eq, deviceParams(nanoseconds(500)), link,
                       1, &root);
    Tick done = 0;
    dev.hostRead(reads.make(0, 0, [&]() { done = eq.curTick(); }));
    eq.run();
    EXPECT_GE(done, nanoseconds(386 + 386)); // at least the RTT
    EXPECT_LT(done, nanoseconds(900));
}

TEST_F(EmulatorFixture, LiveModeCountsAllAsMatches)
{
    DeviceEmulator dev("dev", eq, deviceParams(microseconds(1)), link,
                       2, &root);
    int done = 0;
    for (int i = 0; i < 5; ++i)
        dev.hostRead(reads.make(i % 2, Addr(i) * 64, [&]() { done++; }));
    eq.run();
    EXPECT_EQ(done, 5);
    EXPECT_EQ(dev.replayMatches.value(), 5u);
    EXPECT_EQ(dev.replayMisses.value(), 0u);
}

TEST_F(EmulatorFixture, ReplaySourcePenalizesSpurious)
{
    DeviceParams params = deviceParams(microseconds(1));
    params.onDemandLatency = nanoseconds(300);
    DeviceEmulator dev("dev", eq, params, link, 1, &root);

    // Recorded stream: lines 0..9.
    auto cursor = std::make_shared<Addr>(0);
    dev.setReplaySource(0, [cursor](Addr &next) {
        if (*cursor >= 10 * 64)
            return false;
        next = *cursor;
        *cursor += 64;
        return true;
    });

    Tick expected_done = 0;
    Tick spurious_done = 0;
    dev.hostRead(
        reads.make(0, 0, [&]() { expected_done = eq.curTick(); }));
    dev.hostRead(reads.make(
        0, 0xbeef00, [&]() { spurious_done = eq.curTick(); }));
    eq.run();

    EXPECT_EQ(dev.replayMatches.value(), 1u);
    EXPECT_EQ(dev.replayMisses.value(), 1u);
    // Spurious requests pay the on-demand on-board DRAM penalty.
    EXPECT_GE(spurious_done, expected_done + nanoseconds(300));
}

TEST_F(EmulatorFixture, PerCoreReplayModulesAreIndependent)
{
    DeviceEmulator dev("dev", eq, deviceParams(microseconds(1)), link,
                       2, &root);
    auto make_source = [](std::shared_ptr<Addr> cursor) {
        return [cursor](Addr &next) {
            next = *cursor;
            *cursor += 64;
            return *cursor <= 64 * 8;
        };
    };
    dev.setReplaySource(0, make_source(std::make_shared<Addr>(0)));
    dev.setReplaySource(1, make_source(std::make_shared<Addr>(0)));

    int done = 0;
    // Each core consumes its own stream from the beginning.
    dev.hostRead(reads.make(0, 0, [&]() { done++; }));
    dev.hostRead(reads.make(1, 0, [&]() { done++; }));
    eq.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(dev.replayMisses.value(), 0u);
}

TEST_F(EmulatorFixture, ResponsesSerializeOnTheLink)
{
    DeviceEmulator dev("dev", eq, deviceParams(microseconds(1)), link,
                       1, &root);
    std::vector<Tick> arrivals;
    for (int i = 0; i < 4; ++i) {
        dev.hostRead(reads.make(0, Addr(i) * 64, [&]() {
            arrivals.push_back(eq.curTick());
        }));
    }
    eq.run();
    ASSERT_EQ(arrivals.size(), 4u);
    // 88-byte completions serialize at 22 ns on a 4 GB/s wire; the
    // requests themselves were spaced by the 6 ns request TLPs.
    for (std::size_t i = 1; i < arrivals.size(); ++i)
        EXPECT_GE(arrivals[i], arrivals[i - 1] + nanoseconds(6));
}

TEST_F(EmulatorFixture, HostQueueSlotHeldForTheRoundTrip)
{
    DeviceEmulator dev("dev", eq, deviceParams(microseconds(1)), link,
                       1, &root);
    UncoreQueue chipq("chipq", eq, 1, &root);
    dev.setHostQueue(chipq);
    std::vector<Tick> arrivals;
    for (int i = 0; i < 2; ++i) {
        dev.hostRead(reads.make(0, Addr(i) * 64, [&]() {
            // The slot is free again by the time the line is back.
            EXPECT_EQ(chipq.totalReleases(), arrivals.size() + 1);
            arrivals.push_back(eq.curTick());
        }));
    }
    EXPECT_EQ(chipq.waiting(), 1u);
    eq.run();
    ASSERT_EQ(arrivals.size(), 2u);
    // One slot: the second read enters only after the first returns.
    EXPECT_GE(arrivals[1], 2 * arrivals[0]);
    EXPECT_EQ(chipq.entries.value(), 2u);
    EXPECT_EQ(chipq.fullStalls.value(), 1u);
    EXPECT_EQ(chipq.inUse(), 0u);
}

TEST_F(EmulatorFixture, ReroutedReadReleasesItsRoutedShardQueue)
{
    // Two shards, each a link + chip queue + device, cache-line
    // interleaved: line 0 belongs to shard 0. The health controller
    // has quarantined shard 0, so the read fails over to shard 1.
    PcieLink link1{"pcie1", eq, linkParams(), &root};
    UncoreQueue q0("chipq0", eq, 4, &root);
    UncoreQueue q1("chipq1", eq, 4, &root);
    DeviceEmulator dev0("dev0", eq, deviceParams(microseconds(1)), link,
                        1, &root);
    DeviceEmulator dev1("dev1", eq, deviceParams(microseconds(1)),
                        link1, 1, &root);
    dev0.setHostQueue(q0);
    dev1.setHostQueue(q1);

    topo::TopologyConfig topo;
    topo.shards = 2;
    ASSERT_EQ(topo::shardOf(0, topo), 0u);
    health::Config hcfg;
    hcfg.mode = health::Mode::Full;
    hcfg.alpha = 1.0;
    health::RecoveryController ctrl(hcfg, 2);
    health::ShardSignals stuck;
    stuck.queueDepth = 3; // in flight, nothing completing
    while (!ctrl.quarantined(0)) {
        ASSERT_LT(ctrl.epoch(), 8u);
        ctrl.sampleEpoch(0, stuck);
        ctrl.endEpoch();
    }
    ctrl.route(0, 0); // this period's canary still goes to shard 0
    ReadPath path({&dev0, &dev1}, topo, &ctrl);

    bool done = false;
    ReadRecord &r = reads.make(0, 0, [&]() {
        done = true;
        EXPECT_EQ(q1.inUse(), 0u); // released before the fill
    });
    path.issue(r);
    EXPECT_EQ(r.shard, 1u);
    EXPECT_EQ(ctrl.counters().failovers, 1u);
    eq.run(eq.curTick()); // the grant, same tick
    EXPECT_EQ(q1.inUse(), 1u);
    EXPECT_EQ(q0.inUse(), 0u);
    eq.run();

    EXPECT_TRUE(done);
    EXPECT_EQ(q1.entries.value(), 1u);
    EXPECT_EQ(q1.totalReleases(), 1u);
    EXPECT_EQ(q0.entries.value(), 0u);
    EXPECT_EQ(q0.totalReleases(), 0u);
    EXPECT_EQ(dev1.requests.value(), 1u);
    EXPECT_EQ(dev0.requests.value(), 0u);
}

} // anonymous namespace
} // namespace kmu
