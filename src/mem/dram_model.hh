/**
 * @file
 * Host DRAM model.
 *
 * The DRAM baseline in the paper is an ordinary DDR4 channel behind
 * the on-chip memory controller. Its distinguishing property for this
 * study is that the chip-level queue on the DRAM path is deep (the
 * paper verified at least 48 simultaneous outstanding accesses), so
 * DRAM never exhibits the 14-entry plateau that the PCIe path does.
 *
 * The model is a fixed loaded latency gated by a deep UncoreQueue;
 * bank-level detail is irrelevant to the paper's experiments, which
 * touch each line exactly once with no locality.
 */

#ifndef KMU_MEM_DRAM_MODEL_HH
#define KMU_MEM_DRAM_MODEL_HH

#include "mem/read_record.hh"
#include "mem/uncore_queue.hh"
#include "sim/sim_object.hh"

namespace kmu
{

/** Static parameters of the DRAM path. */
struct DramParams
{
    Tick latency = 60'000;       //!< ps: loaded access latency
    std::uint32_t queueDepth = 48; //!< chip-level DRAM-path queue
};

class DramModel : public SimObject, private ReadSink
{
  public:
    DramModel(std::string name, EventQueue &queue, DramParams params,
              StatGroup *stat_parent);

    const DramParams &params() const { return cfg; }

    /**
     * Read one cache line for @p r; `r.fill` takes the record when
     * the data is on-chip. Queueing behind the 48-entry path is
     * modelled; the address does not affect timing.
     */
    void access(ReadRecord &r);

    /** Chip-level queue for the DRAM path (exposed for tests). */
    UncoreQueue &queue() { return pathQueue; }

    Counter reads;

  private:
    /** Path-queue slot granted: the data returns after the latency. */
    void accept(ReadRecord &r) override;

    /** Cached "<name>.fill": scheduled once per read. */
    const std::string fillName = name() + ".fill";

    DramParams cfg;
    UncoreQueue pathQueue;
};

} // namespace kmu

#endif // KMU_MEM_DRAM_MODEL_HH
