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
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <ostream>
#include <string>

#include "common/units.hh"
#include "core/sim_system.hh"

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
                      memoryBus()),
    [](const ::testing::TestParamInfo<Shape> &info) {
        return std::string(info.param.name);
    });

} // anonymous namespace
} // namespace kmu
