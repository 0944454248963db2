/**
 * @file
 * Counting allocator: this binary's replacement of the global
 * operator new/delete family. Counts are taken only while armed.
 */

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "spans.hh"

namespace
{

std::atomic<bool> armed{false};
std::atomic<std::uint64_t> callCount{0};
std::atomic<std::uint64_t> byteCount{0};

void *
countedAlloc(std::size_t n, std::size_t align)
{
    if (armed.load(std::memory_order_relaxed)) {
        callCount.fetch_add(1, std::memory_order_relaxed);
        byteCount.fetch_add(n, std::memory_order_relaxed);
    }
    if (n == 0)
        n = 1;
    void *p = nullptr;
    if (align <= alignof(std::max_align_t)) {
        p = std::malloc(n);
    } else {
        const std::size_t rounded = (n + align - 1) / align * align;
        p = std::aligned_alloc(align, rounded);
    }
    return p;
}

void *
countedAllocOrThrow(std::size_t n, std::size_t align)
{
    void *p = countedAlloc(n, align);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // anonymous namespace

void *operator new(std::size_t n) { return countedAllocOrThrow(n, 0); }
void *operator new[](std::size_t n) { return countedAllocOrThrow(n, 0); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAllocOrThrow(n, std::size_t(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAllocOrThrow(n, std::size_t(a));
}
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n, 0);
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n, 0);
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

namespace perfbench
{
namespace heap
{

void arm() { armed.store(true, std::memory_order_relaxed); }
void disarm() { armed.store(false, std::memory_order_relaxed); }

void
reset()
{
    callCount.store(0, std::memory_order_relaxed);
    byteCount.store(0, std::memory_order_relaxed);
}

std::uint64_t calls() { return callCount.load(std::memory_order_relaxed); }
std::uint64_t bytes() { return byteCount.load(std::memory_order_relaxed); }

std::string
selfTest()
{
    constexpr int n = 100;
    void *blocks[n];
    std::uint64_t expectBytes = 0;

    // Allocations while disarmed are not charged.
    void *before = ::operator new(1000);

    reset();
    arm();
    for (int i = 0; i < n; ++i) {
        blocks[i] = ::operator new(std::size_t(24 + i));
        expectBytes += std::uint64_t(24 + i);
    }
    auto *arr = new std::uint64_t[32];
    expectBytes += 32 * sizeof(std::uint64_t);
    asm volatile("" : : "r"(arr), "r"(blocks) : "memory");
    disarm();

    void *after = ::operator new(1000);
    const std::uint64_t gotCalls = calls();
    const std::uint64_t gotBytes = bytes();
    for (int i = 0; i < n; ++i)
        ::operator delete(blocks[i]);
    delete[] arr;
    ::operator delete(before);
    ::operator delete(after);
    reset();

    if (gotCalls != n + 1 || gotBytes != expectBytes) {
        char msg[160];
        std::snprintf(msg, sizeof msg,
                      "counting allocator saw %llu calls / %llu bytes, "
                      "expected %d / %llu",
                      (unsigned long long)gotCalls,
                      (unsigned long long)gotBytes, n + 1,
                      (unsigned long long)expectBytes);
        return msg;
    }
    return {};
}

} // namespace heap
} // namespace perfbench
