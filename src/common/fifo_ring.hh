/**
 * @file
 * Growable single-threaded FIFO of small trivially-copyable records.
 *
 * The timing model's per-access queues (requests parked on a full LFB
 * or chip queue, a core's window of in-flight iterations, ready
 * threads, serving requests) and the emulated device's in-flight list
 * hold one small record per entry. A std::deque allocates and frees a
 * chunk every few hundred bytes of traffic as such a queue breathes;
 * this ring doubles its power-of-two buffer when full and never
 * shrinks, so once it has seen its peak depth a push/pop cycle
 * allocates nothing. Growth moves the elements: references into the
 * ring do not survive a push.
 */

#ifndef KMU_COMMON_FIFO_RING_HH
#define KMU_COMMON_FIFO_RING_HH

#include <cstddef>
#include <type_traits>
#include <vector>

#include "common/logging.hh"

namespace kmu
{

template <typename T>
class FifoRing
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "FifoRing holds plain records");

  public:
    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }

    void
    push(const T &value)
    {
        if (count == slots.size())
            grow();
        slots[(head + count) & (slots.size() - 1)] = value;
        ++count;
    }

    /** @{ Oldest, newest and @p i-th oldest element (non-empty). */
    T &front() { return slots[head]; }
    T &back() { return (*this)[count - 1]; }
    T &operator[](std::size_t i)
    {
        return slots[(head + i) & (slots.size() - 1)];
    }
    const T &operator[](std::size_t i) const
    {
        return slots[(head + i) & (slots.size() - 1)];
    }
    /** @} */

    /** Remove and return the oldest element. */
    T
    pop()
    {
        kmuAssert(count > 0, "pop from an empty FifoRing");
        const T value = slots[head];
        head = (head + 1) & (slots.size() - 1);
        --count;
        return value;
    }

  private:
    /** Double the buffer, unwrapping the live span to index 0. */
    void
    grow()
    {
        std::vector<T> bigger(slots.empty() ? 8 : 2 * slots.size());
        for (std::size_t i = 0; i < count; ++i)
            bigger[i] = slots[(head + i) & (slots.size() - 1)];
        slots.swap(bigger);
        head = 0;
    }

    std::vector<T> slots;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace kmu

#endif // KMU_COMMON_FIFO_RING_HH
