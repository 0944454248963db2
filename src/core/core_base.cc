#include "core/core_base.hh"

#include "common/units.hh"
#include "core/read_path.hh"

namespace kmu
{

CoreBase::CoreBase(std::string name, EventQueue &queue, CoreId id,
                   const SystemConfig &config, ReadPath *reads,
                   StatGroup *stat_parent)
    : SimObject(std::move(name), queue, stat_parent),
      cfg(config), stepName(this->name() + ".step"),
      readPath(reads),
      lineFillBuffers(this->name() + ".lfb", queue, config.lfbPerCore,
                      *this, &stats()),
      l1Cache(this->name() + ".l1", queue, config.l1, &stats()),
      coreId(id)
{
}

void
CoreBase::issueRead()
{
    ReadRecord &r = lineFillBuffers.allocated();
    r.issued = curTick();
    r.fill = this;
    r.core = coreId;
    readPath->issue(r);
}

void
CoreBase::accept(ReadRecord &r)
{
    // Read everything needed first: filling the entry frees the
    // record for reuse.
    const Addr line = r.line;
    sampleLatency(ticksToNs(curTick() - r.issued));
    l1Install(line);
    lineFillBuffers.fill(line);
}

void
CoreBase::lineFilled(const Lfb::Requester &)
{
    panic("%s: LFB fill for a core without LFB traffic",
             name().c_str());
}

void
CoreBase::entryFreed(const Lfb::Requester &)
{
    panic("%s: LFB wakeup for a core without LFB traffic",
             name().c_str());
}

} // namespace kmu
