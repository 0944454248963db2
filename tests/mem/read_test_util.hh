/**
 * @file
 * Test doubles for the read-record hand-off: an LFB owner that logs
 * its wakeups, and read records that are their own fill targets.
 */

#ifndef KMU_TESTS_MEM_READ_TEST_UTIL_HH
#define KMU_TESTS_MEM_READ_TEST_UTIL_HH

#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "mem/lfb.hh"
#include "mem/read_record.hh"

namespace kmu
{
namespace test
{

/** Lfb owner that logs each requester it is told about and can run
 *  a hook on each. */
struct RecordingOwner final : Lfb::Owner
{
    std::vector<std::uint32_t> filled; //!< ctx of each lineFilled
    std::vector<std::uint32_t> freed;  //!< ctx of each entryFreed
    std::function<void(const Lfb::Requester &)> onFilled;
    std::function<void(const Lfb::Requester &)> onFreed;

    void
    lineFilled(const Lfb::Requester &who) override
    {
        filled.push_back(who.ctx);
        if (onFilled)
            onFilled(who);
    }

    void
    entryFreed(const Lfb::Requester &who) override
    {
        freed.push_back(who.ctx);
        if (onFreed)
            onFreed(who);
    }
};

/** Requester tagged @p ctx (the other fields are unused here). */
inline Lfb::Requester
who(std::uint32_t ctx)
{
    return Lfb::Requester{ctx, 0, 0};
}

/** A read record that is its own fill target. */
struct TestRead final : ReadSink
{
    ReadRecord rec;
    std::function<void()> done;

    void
    accept(ReadRecord &) override
    {
        if (done)
            done();
    }
};

/** Address-stable pool of test reads. */
class TestReads
{
  public:
    /** New record for (@p core, @p line); @p done runs when it is
     *  handed back to its fill target. */
    ReadRecord &
    make(CoreId core, Addr line, std::function<void()> done = {})
    {
        TestRead &t = reads.emplace_back();
        t.rec.core = core;
        t.rec.line = line;
        t.rec.fill = &t;
        t.done = std::move(done);
        return t.rec;
    }

  private:
    std::deque<TestRead> reads;
};

/** Stage that passes each record straight to its fill target. */
struct ToFill final : ReadSink
{
    void accept(ReadRecord &r) override { r.fill->accept(r); }
};

} // namespace test
} // namespace kmu

#endif // KMU_TESTS_MEM_READ_TEST_UTIL_HH
