/**
 * @file
 * Threaded stress of the doorbell-request handshake between the host
 * engine and the emulated device thread.
 *
 * One fiber issuing one read at a time leaves the fetcher idle after
 * every completion, so every read runs the whole park/unpark cycle:
 * the device finds the ring empty, parks and publishes the
 * doorbell-request flag, re-checks the ring; the host submits, then
 * consumes the flag and rings the doorbell. A request submitted in
 * the window between the device's flag store and its re-check, or a
 * doorbell that lands between the re-check and the park, strands
 * until the watchdog re-issues it. The watchdog is set far above any
 * honest wait, so a single stranded request shows up as a timeout.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "access/runtime.hh"
#include "access/sw_queue_engine.hh"
#include "common/random.hh"

namespace kmu
{
namespace
{

TEST(DoorbellStressTest, EveryReadParksAndNoneStrands)
{
    constexpr std::uint64_t lines = 1024;
    constexpr std::uint64_t reads = 200000;
    std::vector<std::uint8_t> image(lines * cacheLineSize);
    for (std::size_t off = 0; off < image.size(); off += 8) {
        const std::uint64_t v = mix64(off);
        std::memcpy(image.data() + off, &v, sizeof v);
    }

    Runtime::Config cfg;
    cfg.mechanism = Mechanism::SwQueue;
    cfg.deviceLatency = std::chrono::nanoseconds(0);
    cfg.retry.timeoutPolls = std::uint64_t(1) << 20;
    Runtime rt(std::move(image), cfg);
    std::uint64_t mismatches = 0;
    rt.spawnWorker([&](AccessEngine &dev) {
        for (std::uint64_t i = 0; i < reads; ++i) {
            const Addr a = (mix64(i) % lines) * cacheLineSize;
            if (dev.read64(a) != mix64(a))
                mismatches++;
        }
    });
    rt.run();

    auto &engine = static_cast<SwQueueEngine &>(rt.engine());
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(engine.accesses(), reads);
    EXPECT_EQ(engine.recovery().timeouts, 0u);
    EXPECT_EQ(engine.recovery().retries, 0u);
    // The fetcher really did park between reads: most reads needed a
    // doorbell.
    EXPECT_GT(engine.doorbellsRung(), reads / 2);
}

} // anonymous namespace
} // namespace kmu
