#include "mem/dram_model.hh"

#include "trace/trace.hh"

namespace kmu
{

DramModel::DramModel(std::string name, EventQueue &queue, DramParams params,
                     StatGroup *stat_parent)
    : SimObject(std::move(name), queue, stat_parent),
      reads(stats(), "reads", "cache-line reads serviced"),
      cfg(params),
      pathQueue(this->name() + ".queue", queue, params.queueDepth, &stats())
{
    pathQueue.setSink(*this);
}

void
DramModel::access(ReadRecord &r)
{
    ++reads;
    r.serviceSpan = reads.value();
    trace::begin(trace::Kind::DramRead, r.serviceSpan, traceTrack());
    pathQueue.acquire(r);
}

void
DramModel::accept(ReadRecord &r)
{
    eventQueue().scheduleLambda(
        curTick() + cfg.latency,
        [this, &r] {
            pathQueue.release();
            trace::end(trace::Kind::DramRead, r.serviceSpan,
                       traceTrack());
            r.fill->accept(r);
        },
        EventPriority::DeviceResponse, fillName);
}

} // namespace kmu
