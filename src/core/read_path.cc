#include "core/read_path.hh"

namespace kmu
{

ReadPath::ReadPath(DramModel &dram_model) : dram(&dram_model) {}

ReadPath::ReadPath(UncoreQueue &bus_queue, Tick latency)
    : bus(&bus_queue), busLatency(latency)
{
    bus->setSink(*this);
}

ReadPath::ReadPath(std::vector<DeviceEmulator *> shard_devices,
                   const topo::TopologyConfig &topo,
                   health::RecoveryController *health)
    : devices(std::move(shard_devices)), topoCfg(topo),
      healthCtrl(health)
{
    kmuAssert(devices.size() == topoCfg.shards,
              "%zu devices for %u shards", devices.size(),
              topoCfg.shards);
}

void
ReadPath::issue(ReadRecord &r)
{
    if (dram) {
        dram->access(r);
    } else if (bus) {
        bus->acquire(r);
    } else {
        const std::uint32_t natural = topo::shardOf(r.line, topoCfg);
        r.shard = healthCtrl ? healthCtrl->route(natural,
                                                 r.line / cacheLineSize)
                             : natural;
        devices[r.shard]->hostRead(r);
    }
}

void
ReadPath::accept(ReadRecord &r)
{
    bus->eventQueue().scheduleLambda(
        bus->eventQueue().curTick() + busLatency,
        [this, &r] {
            bus->release();
            r.fill->accept(r);
        },
        EventPriority::DeviceResponse, "membus.fill");
}

} // namespace kmu
