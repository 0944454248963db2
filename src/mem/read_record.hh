/**
 * @file
 * In-flight read record: the one object a cache-line read carries
 * from the LFB to the backing store and back.
 *
 * A core's LFB allocates an entry per missing line, and each new
 * entry issues exactly one downstream read. The entry's ReadRecord
 * is that read: the LFB entry array is the record pool (so records
 * are bounded by LFB capacity and never allocated), and every
 * component on the way (chip queue, PCIe link, device emulator, DRAM
 * model) passes the record on by reference. Every deferred step
 * therefore captures a pointer or two and fits the event queue's
 * inline callable store, so a read allocates nothing.
 *
 * A record stays valid until its fill target has been handed it:
 * filling the LFB entry frees the slot, and a waiter woken by that
 * fill may reuse it at once, so no component touches a record after
 * passing it to `fill`.
 */

#ifndef KMU_MEM_READ_RECORD_HH
#define KMU_MEM_READ_RECORD_HH

#include <cstdint>

#include "common/types.hh"

namespace kmu
{

struct ReadRecord;

/** A read-path stage that takes over records handed to it. */
class ReadSink
{
  public:
    /** The previous stage is done with @p r; continue it here. */
    virtual void accept(ReadRecord &r) = 0;

  protected:
    ~ReadSink() = default;
};

struct ReadRecord
{
    Addr line = 0;              //!< line-aligned address read
    Tick issued = 0;            //!< tick the read left the LFB
    ReadSink *fill = nullptr;   //!< takes the record once data is on chip
    CoreId core = 0;            //!< issuing core (device replay module)
    std::uint32_t shard = 0;    //!< device shard, after health re-routing
    std::uint64_t serviceSpan = 0; //!< DevService / DramRead trace span
};

} // namespace kmu

#endif // KMU_MEM_READ_RECORD_HH
