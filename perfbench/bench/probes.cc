/**
 * @file
 * Single-layer probes, each driven only through its public API:
 * the event kernel (a default-constructed EventQueue), the SPSC ring,
 * and the fiber scheduler's yield. Each repeats a fixed batch until
 * ~@p seconds have passed and reports the median batch rate.
 */

#include <algorithm>

#include "bench.hh"
#include "common/thread_annotations.hh"
#include "queue/spsc_ring.hh"
#include "sim/event.hh"
#include "ubench/work_loop.hh"
#include "ult/scheduler.hh"

namespace perfbench
{

namespace
{

/** Run @p batch (which returns its item count) until @p seconds are
 *  spent, at least three times; median seconds per item. */
template <typename F>
double
medianSecondsPerItem(double seconds, F &&batch)
{
    std::vector<double> perItem;
    const auto start = Clock::now();
    while (perItem.size() < 3 || secondsSince(start) < seconds) {
        const auto t0 = Clock::now();
        const std::uint64_t items = batch();
        perItem.push_back(secondsSince(t0) / double(items));
    }
    return median(perItem);
}

/** Self-rescheduling event chains, the shape of a model's periodic
 *  components: each event schedules its successor a few ticks out. */
struct Chains
{
    kmu::EventQueue eq;
    std::uint64_t remaining = 0;

    void
    step(std::uint32_t chain)
    {
        if (remaining == 0)
            return;
        remaining--;
        const kmu::Tick delay = 100 + (chain * 37 + remaining) % 900;
        eq.scheduleLambda(eq.curTick() + delay,
                          [this, chain] { step(chain); },
                          kmu::EventPriority::Default, "probe.chain");
    }
};

} // anonymous namespace

double
probeKernelOnlyEventsPerS(double seconds)
{
    constexpr std::uint64_t events = 200000;
    constexpr std::uint32_t chains = 64;
    const double s = medianSecondsPerItem(seconds, [] {
        Chains c;
        c.remaining = events;
        for (std::uint32_t i = 0; i < chains; ++i)
            c.step(i);
        c.eq.run();
        return c.eq.serviced();
    });
    return 1.0 / s;
}

double
probeSpscNsPerItem(double seconds)
{
    kmu::SpscRing<std::uint64_t> ring(1024);
    kmu::RoleGuard producer(ring.producerRole);
    kmu::RoleGuard consumer(ring.consumerRole);
    std::uint64_t sink = 0;
    const double s = medianSecondsPerItem(seconds, [&] {
        constexpr std::uint64_t rounds = 2000, burst = 512;
        for (std::uint64_t r = 0; r < rounds; ++r) {
            for (std::uint64_t i = 0; i < burst; ++i)
                ring.tryPush(r + i);
            std::uint64_t v = 0;
            while (ring.tryPop(v))
                sink += v;
        }
        return rounds * burst;
    });
    kmu::consume(sink);
    return s * 1e9;
}

double
probeYieldRoundtripNs(double seconds)
{
    const double s = medianSecondsPerItem(seconds, [] {
        constexpr std::uint64_t yields = 100000;
        kmu::Scheduler sched;
        for (int f = 0; f < 2; ++f) {
            sched.spawn([] {
                for (std::uint64_t i = 0; i < yields; ++i)
                    kmu::thisFiber::yield();
            });
        }
        sched.run();
        // Each round trip is one yield by each fiber: A -> B -> A.
        return yields;
    });
    return s * 1e9;
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

} // namespace perfbench
