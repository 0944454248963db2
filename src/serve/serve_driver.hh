/**
 * @file
 * Open-loop request driver for the timing model.
 *
 * A ServeDriver turns the closed-loop microbenchmark cores into an
 * RPC-style service: a seeded arrival process (ArrivalGen) emits
 * requests whose keys a ZipfSampler draws, and cores only begin an
 * iteration once a request has been bound to them. Each request is
 * timestamped at arrival and at retirement, so the recorded latency
 * includes the time it queued waiting for a free execution lane —
 * the quantity a closed loop structurally cannot observe, and the
 * one that produces the latency knee as offered load approaches
 * capacity.
 *
 * Execution lanes: every independent iteration stream in the system
 * is one lane — an SMT context for the on-demand model, a ULT thread
 * for prefetch and SW-queue — numbered core * lanesPerCore + thread.
 * Dispatch is globally FIFO two ways at once: an arriving request
 * binds to the longest-parked lane if one is idle, and a lane that
 * finds no request parks in arrival order behind its wake callback.
 * Within a lane, requests bind and retire strictly in order, which
 * is what lets addressFor() index in-flight requests by iteration
 * number.
 *
 * The three core hooks (installed into SystemConfig by SimSystem):
 *
 *   admit(lane, iter, wake)  gate called before an iteration starts;
 *                            false parks the lane until an arrival
 *   addressFor(lane, iter, slot)  line address of one value read
 *   retire(lane, iter)       completion timestamp + latency sample
 *
 * Measurement windowing: arrivals and retirements before
 * setMeasureStart()'s tick are driven normally but not counted, so
 * offered/completed/latency cover exactly the measurement window.
 * A request in flight across the boundary counts toward the window
 * it retires in, queueing delay included — steady-state accounting,
 * not a cold start.
 */

#ifndef KMU_SERVE_SERVE_DRIVER_HH
#define KMU_SERVE_SERVE_DRIVER_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/fifo_ring.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "serve/arrival.hh"
#include "serve/popularity.hh"
#include "serve/serve_config.hh"
#include "sim/sim_object.hh"

namespace kmu
{
namespace serve
{

class ServeDriver : public SimObject
{
  public:
    /** Buckets of the request-latency log histogram (ns, log2). */
    static constexpr std::size_t latencyBuckets = 32;

    /**
     * @param cfg        serving knobs (must be enabled()).
     * @param eq         the system event queue.
     * @param parent     stat parent (the system root group).
     * @param num_lanes  independent iteration streams in the system.
     */
    ServeDriver(const ServeConfig &cfg, EventQueue &queue,
                StatGroup *parent, std::uint32_t num_lanes);

    /** Schedule the first arrival (call once, before run()). */
    void start();

    /**
     * Admission gate for iteration @p iter of lane @p lane. True
     * binds a request to the lane (idempotent for an already-bound
     * iteration); false parks the lane and stores @p wake to be
     * invoked when a request arrives for it.
     */
    bool admit(std::uint32_t lane, std::uint64_t iter,
               std::function<void()> wake);

    /** Line address of read @p slot of the request bound at @p iter. */
    Addr addressFor(std::uint32_t lane, std::uint64_t iter,
                    std::uint32_t slot) const;

    /** Retire the oldest bound request of @p lane (= @p iter). */
    void retire(std::uint32_t lane, std::uint64_t iter);

    /** Trace lane request spans are recorded on. */
    void setTraceLane(std::uint16_t lane) { traceLane = lane; }

    /** Arrivals/retires before @p tick go uncounted (warmup). */
    void setMeasureStart(Tick tick) { measureStart = tick; }

    /** @{ Results, scoped to the measurement window. */
    std::uint64_t offered() const { return arrived.value(); }
    std::uint64_t completed() const { return retired.value(); }
    std::uint64_t sloMet() const { return underSlo.value(); }
    std::uint64_t inFlightPeak() const { return peakInFlight; }
    const LogHistogram &latencyLog() const { return latencyNs; }
    /** @} */

  private:
    struct Request
    {
        Tick arrivalTick;
        std::uint64_t key;
        std::uint64_t seq;
    };

    struct Lane
    {
        /** Bound, not yet retired; front is the oldest. */
        FifoRing<Request> bound;
        std::uint64_t boundCount = 0;   //!< iterations ever bound
        std::uint64_t retiredCount = 0; //!< iterations ever retired
        bool waiting = false;           //!< queued in waiters
        std::function<void()> wake;
    };

    void onArrival();
    void scheduleNext();
    void bindTo(Lane &lane, const Request &req);

    ServeConfig cfg;
    ArrivalGen gen;
    ZipfSampler zipf;
    Rng keyRng; //!< popularity draws (separate from arrival stream)

    std::vector<Lane> lanes;
    FifoRing<Request> pendingRequests; //!< arrived, no free lane
    FifoRing<std::uint32_t> waiters;   //!< parked lanes, FIFO

    std::uint64_t nextSeq = 0;
    std::uint32_t inFlight = 0;
    std::uint32_t peakInFlight = 0;
    bool paused = false;   //!< client cap reached; clock withheld
    Tick pausedAt = 0;     //!< pending next-arrival tick while paused
    Tick measureStart = 0; //!< stats ignore events before this tick
    Tick sloTicks;
    std::uint16_t traceLane = 0;

    Counter arrived;
    Counter retired;
    Counter underSlo;
    LogHistogram latencyNs;
};

} // namespace serve
} // namespace kmu

#endif // KMU_SERVE_SERVE_DRIVER_HH
