/**
 * @file
 * Unit and concurrency tests for the SPSC ring buffer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/random.hh"
#include "common/thread_annotations.hh"
#include "queue/spsc_ring.hh"

namespace kmu
{
namespace
{

TEST(SpscRingTest, PushPopRoundTrip)
{
    SpscRing<int> ring(8);
    // Single-threaded driver: embodies both ring roles.
    RoleGuard producer(ring.producerRole);
    RoleGuard consumer(ring.consumerRole);
    EXPECT_TRUE(ring.empty());
    EXPECT_TRUE(ring.tryPush(42));
    EXPECT_EQ(ring.size(), 1u);
    int out = 0;
    EXPECT_TRUE(ring.tryPop(out));
    EXPECT_EQ(out, 42);
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRingTest, CapacityIsDepthMinusOne)
{
    SpscRing<int> ring(8);
    // Single-threaded driver: embodies both ring roles.
    RoleGuard producer(ring.producerRole);
    RoleGuard consumer(ring.consumerRole);
    EXPECT_EQ(ring.capacity(), 7u);
    for (int i = 0; i < 7; ++i)
        EXPECT_TRUE(ring.tryPush(i));
    EXPECT_FALSE(ring.tryPush(7)); // full
    int out;
    EXPECT_TRUE(ring.tryPop(out));
    EXPECT_TRUE(ring.tryPush(7)); // room again
}

TEST(SpscRingTest, PopOnEmptyFails)
{
    SpscRing<int> ring(4);
    // Single-threaded driver: embodies both ring roles.
    RoleGuard producer(ring.producerRole);
    RoleGuard consumer(ring.consumerRole);
    int out = -1;
    EXPECT_FALSE(ring.tryPop(out));
    EXPECT_EQ(out, -1);
}

TEST(SpscRingTest, FifoOrderAcrossWraparound)
{
    SpscRing<int> ring(4);
    // Single-threaded driver: embodies both ring roles.
    RoleGuard producer(ring.producerRole);
    RoleGuard consumer(ring.consumerRole);
    int expect = 0;
    int produced = 0;
    for (int round = 0; round < 10; ++round) {
        while (ring.tryPush(produced))
            produced++;
        int out;
        while (ring.tryPop(out))
            EXPECT_EQ(out, expect++);
    }
    EXPECT_EQ(expect, produced);
    EXPECT_GT(produced, 20);
}

TEST(SpscRingTest, PopBurstHonorsMax)
{
    SpscRing<int> ring(16);
    // Single-threaded driver: embodies both ring roles.
    RoleGuard producer(ring.producerRole);
    RoleGuard consumer(ring.consumerRole);
    for (int i = 0; i < 10; ++i)
        ring.tryPush(i);
    std::vector<int> out;
    EXPECT_EQ(ring.popBurst(out, 8), 8u);
    EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
    EXPECT_EQ(ring.popBurst(out, 8), 2u);
    EXPECT_EQ(out.size(), 10u);
    EXPECT_EQ(ring.popBurst(out, 8), 0u);
}

TEST(SpscRingTest, NonPowerOfTwoRejected)
{
    EXPECT_DEATH(SpscRing<int>(6), "power of two");
}

TEST(SpscRingTest, ThreadedProducerConsumer)
{
    SpscRing<std::uint64_t> ring(64);
    constexpr std::uint64_t total = 200000;

    std::thread producer([&]() {
        RoleGuard produce(ring.producerRole); // this thread: producer
        for (std::uint64_t i = 0; i < total;) {
            if (ring.tryPush(i))
                i++;
        }
    });

    RoleGuard consume(ring.consumerRole); // main thread: consumer
    std::uint64_t expect = 0;
    std::uint64_t sum = 0;
    while (expect < total) {
        std::uint64_t v;
        if (ring.tryPop(v)) {
            ASSERT_EQ(v, expect);
            sum += v;
            expect++;
        }
    }
    producer.join();
    EXPECT_EQ(sum, total * (total - 1) / 2);
}

TEST(SpscRingTest, ThreadedStressMultiWordPayload)
{
    // Heavier cross-thread exercise of the release/acquire edges
    // documented in spsc_ring.hh: a multi-word payload would tear if
    // a slot were visible before fully written (edge 1) or recycled
    // before fully read (edge 2). Bursty pacing (derived from mix64,
    // so deterministic) forces frequent full/empty transitions, the
    // regime where stale-index bugs surface. Run under
    // KMU_SANITIZE=thread this doubles as the TSan proof for the
    // ring.
    struct Payload
    {
        std::uint64_t seq;
        std::uint64_t a, b, c;
    };
    SpscRing<Payload> ring(8); // tiny: maximizes wraparound pressure
    constexpr std::uint64_t total = 100000;

    std::uint64_t attempts = 0; // producer-side push-call count
    std::thread producer([&]() {
        RoleGuard produce(ring.producerRole); // this thread: producer
        std::uint64_t i = 0;
        while (i < total) {
            // Bursts of 1..8 pushes, then give the consumer a window.
            const std::uint64_t burst = 1 + (mix64(i) & 7);
            for (std::uint64_t k = 0; k < burst && i < total;) {
                const Payload p{i, mix64(i), mix64(i ^ 0xabcdef),
                                ~i};
                ++attempts;
                if (ring.tryPush(p)) {
                    ++i;
                    ++k;
                }
            }
            std::this_thread::yield();
        }
    });

    RoleGuard consume(ring.consumerRole); // main thread: consumer
    std::uint64_t expect = 0;
    while (expect < total) {
        Payload v;
        if (!ring.tryPop(v)) {
            std::this_thread::yield();
            continue;
        }
        ASSERT_EQ(v.seq, expect);
        ASSERT_EQ(v.a, mix64(expect));
        ASSERT_EQ(v.b, mix64(expect ^ 0xabcdef));
        ASSERT_EQ(v.c, ~expect);
        ++expect;
    }
    producer.join();

    // Cumulative accounting reconciles exactly once both sides
    // quiesce. Conservation laws: every push call either entered the
    // ring or was rejected (attempts = pushes + rejects), and with
    // the ring drained every accepted element left it (pops = pushes).
    EXPECT_EQ(ring.totalPushes(), total);
    EXPECT_EQ(ring.totalPops(), total);
    EXPECT_EQ(ring.totalPushes() + ring.totalRejects(), attempts);
    EXPECT_EQ(ring.totalPops(), ring.totalPushes());
    // Tiny ring + bursty producer: backpressure must actually have
    // been exercised, otherwise this test proves nothing about the
    // full path.
    EXPECT_GT(ring.totalRejects(), 0u);
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRingTest, SizeNeverExceedsCapacityUnderRace)
{
    // size() is read by observers on any thread while both sides
    // move. Between its two index loads the consumer may pop and the
    // producer refill. Loading head first can then see tail past
    // head (a masked difference reads a bogus count up to the mask,
    // an unmasked one wraps to ~2^64); loading tail first can see
    // more than capacity() items between the two loads. Here a
    // producer and a consumer race on a tiny ring while this thread
    // and both sides sample size().
    SpscRing<std::uint64_t> ring(8);
    constexpr std::uint64_t total = 200000;
    // Largest size() each thread saw; each written by its own thread
    // only and read after the joins.
    std::uint64_t worstProducer = 0, worstConsumer = 0, worstObserver = 0;

    std::thread producer([&]() {
        RoleGuard produce(ring.producerRole); // this thread: producer
        for (std::uint64_t i = 0; i < total;) {
            if (ring.tryPush(i))
                i++;
            worstProducer = std::max<std::uint64_t>(worstProducer,
                                                    ring.size());
        }
    });
    std::atomic<bool> done{false};
    std::thread consumer([&]() {
        RoleGuard consume(ring.consumerRole); // this thread: consumer
        std::uint64_t expect = 0;
        std::uint64_t v;
        while (expect < total) {
            if (ring.tryPop(v)) {
                EXPECT_EQ(v, expect);
                expect++;
            }
            worstConsumer = std::max<std::uint64_t>(worstConsumer,
                                                    ring.size());
        }
        done.store(true, std::memory_order_release);
    });

    while (!done.load(std::memory_order_acquire))
        worstObserver = std::max<std::uint64_t>(worstObserver, ring.size());
    producer.join();
    consumer.join();
    EXPECT_LE(worstProducer, ring.capacity());
    EXPECT_LE(worstConsumer, ring.capacity());
    EXPECT_LE(worstObserver, ring.capacity());
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.totalPops(), total);
}

TEST(SpscRingTest, PopBurstPublishesWholeBurst)
{
    SpscRing<int> ring(8);
    // Single-threaded driver: embodies both ring roles.
    RoleGuard producer(ring.producerRole);
    RoleGuard consumer(ring.consumerRole);
    // Wrap the indices first so the burst straddles the slot array's
    // end.
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(ring.tryPush(i));
    std::vector<int> out;
    ASSERT_EQ(ring.popBurst(out, 8), 6u);
    for (int i = 6; i < 13; ++i)
        ASSERT_TRUE(ring.tryPush(i));
    EXPECT_FALSE(ring.tryPush(13)); // capacity 7 reached
    out.clear();
    EXPECT_EQ(ring.popBurst(out, 5), 5u);
    EXPECT_EQ(out, (std::vector<int>{6, 7, 8, 9, 10}));
    EXPECT_EQ(ring.size(), 2u);
    EXPECT_EQ(ring.totalPops(), 11u);
    // The freed slots are reusable at once.
    for (int i = 13; i < 18; ++i)
        EXPECT_TRUE(ring.tryPush(i));
    EXPECT_FALSE(ring.tryPush(18));
    out.clear();
    EXPECT_EQ(ring.popBurst(out, 16), 7u);
    EXPECT_EQ(out, (std::vector<int>{11, 12, 13, 14, 15, 16, 17}));
    EXPECT_EQ(ring.totalPushes(), ring.totalPops());
    EXPECT_EQ(ring.totalRejects(), 2u);
}

TEST(SpscRingTest, RejectCounterCountsFullPushes)
{
    SpscRing<int> ring(4); // capacity 3
    // Single-threaded driver: embodies both ring roles.
    RoleGuard producer(ring.producerRole);
    RoleGuard consumer(ring.consumerRole);
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(ring.tryPush(i));
    EXPECT_EQ(ring.totalRejects(), 0u);
    EXPECT_FALSE(ring.tryPush(3));
    EXPECT_FALSE(ring.tryPush(4));
    EXPECT_EQ(ring.totalRejects(), 2u);
    // A rejected push leaves the ring contents untouched.
    int out;
    ASSERT_TRUE(ring.tryPop(out));
    EXPECT_EQ(out, 0);
    EXPECT_TRUE(ring.tryPush(3)); // room again: accepted, no reject
    EXPECT_EQ(ring.totalRejects(), 2u);
    EXPECT_EQ(ring.totalPushes(), 4u);
}

} // anonymous namespace
} // namespace kmu
