/**
 * @file
 * The read path below the LFBs of the on-demand and prefetch cores.
 *
 * A core whose LFB allocates a new entry hands the entry's read
 * record to its ReadPath, which sends it to the system's backing
 * store:
 *  - PCIe device shards: the record is routed to a shard (its
 *    interleave-natural one, or the health controller's failover
 *    choice) and enters that shard's device, which holds a slot in
 *    the shard's chip queue for the whole round trip;
 *  - memory-bus attach: the record holds a slot in the deep
 *    DRAM-path queue and returns after the device latency;
 *  - DRAM baseline: the record goes to the DRAM model.
 * Each backing returns the record to its fill target, the core.
 */

#ifndef KMU_CORE_READ_PATH_HH
#define KMU_CORE_READ_PATH_HH

#include <vector>

#include "device/device_emulator.hh"
#include "health/health.hh"
#include "mem/dram_model.hh"
#include "mem/read_record.hh"
#include "mem/uncore_queue.hh"
#include "topo/topology.hh"

namespace kmu
{

class ReadPath final : private ReadSink
{
  public:
    /** DRAM baseline. */
    explicit ReadPath(DramModel &dram);

    /** Memory-bus attach: @p bus is the chip's DRAM-path queue. */
    ReadPath(UncoreQueue &bus, Tick latency);

    /**
     * PCIe-attached device shards, indexed by shard id, interleaved
     * by @p topo. With a @p health controller, each read is routed
     * through it (once per read), which fails reads away from
     * quarantined shards.
     */
    ReadPath(std::vector<DeviceEmulator *> devices,
             const topo::TopologyConfig &topo,
             health::RecoveryController *health);

    ReadPath(const ReadPath &) = delete;
    ReadPath &operator=(const ReadPath &) = delete;

    /** Send @p r, a new LFB entry's read, to the backing store. */
    void issue(ReadRecord &r);

  private:
    /** Memory bus: slot granted; the line returns after latency. */
    void accept(ReadRecord &r) override;

    DramModel *dram = nullptr;
    UncoreQueue *bus = nullptr;
    Tick busLatency = 0;
    std::vector<DeviceEmulator *> devices;
    topo::TopologyConfig topoCfg;
    health::RecoveryController *healthCtrl = nullptr;
};

} // namespace kmu

#endif // KMU_CORE_READ_PATH_HH
