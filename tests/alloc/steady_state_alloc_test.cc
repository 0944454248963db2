/**
 * @file
 * Steady-state allocation gate for the timing model's read path.
 *
 * This executable replaces the global operator new with a counting
 * one. Each shape runs twice, with a 100 us and a 3 ms measured
 * window. Set-up and warm-up allocations are common to both runs and
 * cancel; containers that grow to a high-water mark and then stay
 * (waiter rings, event-kernel buckets) add a bounded amount that the
 * long window dilutes. What is left is what each extra steady-state
 * access allocates. The read path hands pooled in-flight read
 * records from component to component, so that must stay near zero.
 * The software-queue serving shape holds the queue, fetcher and serve
 * layers to the same bound, and a manual-pump EmulatedDevice (the
 * real runtime's device) is held to it per serviced request.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <ostream>
#include <string>
#include <vector>

#include "common/thread_annotations.hh"
#include "common/units.hh"
#include "core/sim_system.hh"
#include "device/emulated_device.hh"

namespace
{

std::atomic<bool> gCounting{false};
std::atomic<std::uint64_t> gAllocs{0};

void *
countedAlloc(std::size_t bytes, std::size_t align)
{
    if (gCounting.load(std::memory_order_relaxed))
        gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (bytes == 0)
        bytes = 1;
    void *p = align <= alignof(std::max_align_t)
                  ? std::malloc(bytes)
                  : std::aligned_alloc(
                        align, (bytes + align - 1) / align * align);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // anonymous namespace

void *operator new(std::size_t n) { return countedAlloc(n, 0); }
void *operator new[](std::size_t n) { return countedAlloc(n, 0); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, std::size_t(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, std::size_t(a));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace kmu
{
namespace
{

/** Largest tolerated steady-state allocations per access. */
constexpr double maxAllocsPerAccess = 0.05;

struct Shape
{
    const char *name;
    SystemConfig cfg;
};

/** Name the shape in gtest output instead of dumping its bytes. */
void
PrintTo(const Shape &shape, std::ostream *os)
{
    *os << shape.name;
}

/** Allocations and accesses of one run() of @p cfg. */
struct Counted
{
    std::uint64_t allocs;
    std::uint64_t accesses;
};

Counted
countRun(SystemConfig cfg, Tick measure)
{
    cfg.measure = measure;
    SimSystem sys(cfg);
    gAllocs.store(0);
    gCounting.store(true);
    const RunResult r = sys.run();
    gCounting.store(false);
    return Counted{gAllocs.load(), r.accesses};
}

Shape
prefetchShards()
{
    // The benchmark's sim_prefetch shape: 8 cores x 8 fibers, batch
    // 4, four shards with cache-line interleave, 1 us device.
    SystemConfig cfg;
    cfg.mechanism = Mechanism::Prefetch;
    cfg.numCores = 8;
    cfg.threadsPerCore = 8;
    cfg.batch = 4;
    cfg.topo.shards = 4;
    cfg.device.latency = microseconds(1);
    return {"PrefetchShards4", cfg};
}

Shape
onDemand()
{
    SystemConfig cfg;
    cfg.mechanism = Mechanism::OnDemand;
    cfg.numCores = 4;
    cfg.smtContexts = 2;
    cfg.batch = 4;
    return {"OnDemand", cfg};
}

Shape
dramBaseline()
{
    SystemConfig cfg;
    cfg.mechanism = Mechanism::Prefetch;
    cfg.backing = Backing::Dram;
    cfg.numCores = 4;
    cfg.threadsPerCore = 8;
    cfg.batch = 4;
    return {"DramBaseline", cfg};
}

Shape
memoryBus()
{
    SystemConfig cfg;
    cfg.mechanism = Mechanism::Prefetch;
    cfg.attach = DeviceAttach::MemoryBus;
    cfg.numCores = 4;
    cfg.threadsPerCore = 8;
    cfg.batch = 4;
    return {"MemoryBus", cfg};
}

Shape
simServe()
{
    // The benchmark's sim_serve shape: open-loop Poisson serving at
    // 3.6 requests/us, Zipf 0.99 keys, 4-line values, over software
    // queues; 4 cores x 16 threads, 4 us device.
    SystemConfig cfg;
    cfg.mechanism = Mechanism::SwQueue;
    cfg.numCores = 4;
    cfg.threadsPerCore = 16;
    cfg.device.latency = microseconds(4);
    cfg.serve.arrival = serve::ArrivalKind::Poisson;
    cfg.serve.lambdaPerUs = 3.6;
    cfg.serve.zipfTheta = 0.99;
    cfg.serve.valueLines = 4;
    return {"SimServe", cfg};
}

class SteadyStateAllocTest : public ::testing::TestWithParam<Shape>
{
};

TEST_P(SteadyStateAllocTest, ReadPathAllocatesNothingPerAccess)
{
    const SystemConfig &cfg = GetParam().cfg;
    const Counted shortRun = countRun(cfg, microseconds(100));
    const Counted longRun = countRun(cfg, microseconds(3000));
    ASSERT_GT(longRun.accesses, shortRun.accesses + 1000);
    const double extraAllocs =
        double(longRun.allocs) - double(shortRun.allocs);
    const double perAccess =
        extraAllocs / double(longRun.accesses - shortRun.accesses);
    RecordProperty("allocs_per_access", std::to_string(perAccess));
    EXPECT_LE(perAccess, maxAllocsPerAccess)
        << shortRun.allocs << " allocs / " << shortRun.accesses
        << " accesses (short) vs " << longRun.allocs << " / "
        << longRun.accesses << " (long)";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SteadyStateAllocTest,
    ::testing::Values(prefetchShards(), onDemand(), dramBaseline(),
                      memoryBus(), simServe()),
    [](const ::testing::TestParamInfo<Shape> &info) {
        return std::string(info.param.name);
    });

/**
 * Serve @p requests reads on a manual-pump EmulatedDevice, keeping
 * eight in flight, and count the allocations made while serving.
 */
Counted
pumpReads(std::uint64_t requests)
{
    constexpr std::size_t window = 8;
    EmulatedDevice::Config cfg;
    cfg.manual = true;
    cfg.queueDepth = 64;
    EmulatedDevice dev(std::vector<std::uint8_t>(64 * 1024), cfg);
    const std::size_t pair = dev.addQueuePair();
    SwQueuePair &qp = dev.queuePair(pair);
    dev.start();

    alignas(64) std::uint8_t bufs[window][64];
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::size_t nextBuf = 0;
    gAllocs.store(0);
    gCounting.store(true);
    while (completed < requests) {
        {
            RoleGuard host(qp.hostRole);
            while (submitted < requests &&
                   submitted - completed < window) {
                RequestDescriptor desc;
                desc.deviceAddr = (submitted % 1024) * 64;
                desc.hostAddr =
                    reinterpret_cast<std::uintptr_t>(bufs[nextBuf]);
                nextBuf = (nextBuf + 1) % window;
                if (!qp.submit(desc))
                    break;
                ++submitted;
            }
            if (qp.consumeDoorbellRequest())
                dev.doorbell(pair);
        }
        dev.pump();
        RoleGuard host(qp.hostRole);
        CompletionDescriptor comp;
        while (qp.reapCompletion(comp))
            ++completed;
    }
    gCounting.store(false);
    dev.stop();
    return Counted{gAllocs.load(), completed};
}

// The real runtime's device: once its in-flight ring has seen its
// peak depth, a steady read stream allocates nothing per request.
TEST(EmulatedDeviceAllocTest, ManualPumpServesReadsWithoutAllocating)
{
    const Counted shortRun = pumpReads(1'000);
    const Counted longRun = pumpReads(20'000);
    const double perRequest =
        (double(longRun.allocs) - double(shortRun.allocs)) /
        double(longRun.accesses - shortRun.accesses);
    RecordProperty("allocs_per_request", std::to_string(perRequest));
    EXPECT_LE(perRequest, maxAllocsPerAccess)
        << shortRun.allocs << " allocs / " << shortRun.accesses
        << " requests (short) vs " << longRun.allocs << " / "
        << longRun.accesses << " (long)";
}

} // anonymous namespace
} // namespace kmu
