/**
 * @file
 * Real-runtime workloads: rt_ondemand, rt_prefetch and rt_swqueue.
 *
 * One rep builds a fresh device image, constructs a Runtime, spawns
 * the worker fibers, runs them (the timed phase), and verifies every
 * loaded word against the image. It is the paper's microbenchmark
 * loop on this host: each access reads a line no access of the rep
 * read before, then runs the model's work loop on the value.
 */

#include <algorithm>
#include <cstring>
#include <memory>

#include "access/runtime.hh"
#include "access/sw_queue_engine.hh"
#include "bench.hh"
#include "common/random.hh"
#include "ubench/work_loop.hh"

namespace perfbench
{

namespace
{

using namespace kmu;

/** Work instructions per access (the paper's and SystemConfig's
 *  default microbenchmark shape). */
constexpr std::uint32_t workPerAccess = 250;

/** Engine-call spans kept in the trace file per lane; later calls
 *  still feed the latency quantiles. */
constexpr std::size_t keptSpansPerLane = 32;

/**
 * Watchdog timeout in poll passes. The runtime's default (256) is
 * sized for fault campaigns; on a shared host an idle poll pass
 * yields the CPU, so 256 passes can elapse while the device thread is
 * merely descheduled. The default then re-issues about 0.5 % of
 * sw-queue requests here and can abort a run when one request is
 * re-issued more than RetryPolicy::maxRetries times. No fault is
 * injected in this benchmark, so the watchdog is set well above any
 * scheduling delay; access.retries and access.timeouts report what
 * it still does.
 */
constexpr std::uint64_t watchdogPolls = 1u << 14;

struct Leg
{
    Mechanism mech;
    std::uint32_t fibers;
    std::uint32_t batch;
    std::uint64_t accessesPerRep;
};

/** Word the benchmark stores at device byte address @p addr. */
std::uint64_t
wordAt(std::uint64_t addr, std::uint64_t salt)
{
    return mix64(addr ^ salt);
}

/** Address of the word loaded from line @p line: the seed picks
 *  which of the line's eight words. */
Addr
addrOf(std::uint64_t line, std::uint64_t salt)
{
    return line * cacheLineSize + ((line ^ salt) & 7) * 8;
}

class HostWorkload : public Workload
{
  public:
    explicit HostWorkload(Leg l) : leg(l) {}

    RepResult
    runRep(std::uint64_t seed, SpanRecorder *rec,
           std::uint32_t parent) override
    {
        RepResult rep;
        const std::uint64_t salt = mix64(seed);
        const std::uint64_t perFiber = leg.accessesPerRep / leg.fibers;
        const std::uint64_t lines = perFiber * leg.fibers;

        std::vector<FiberOut> out(leg.fibers);
        const bool traced = rec != nullptr;

        const auto t0 = Clock::now();
        std::unique_ptr<Runtime> rt;
        {
            ScopedSpan span(rec, "setup", parent);
            std::vector<std::uint8_t> image(lines * cacheLineSize);
            for (std::uint64_t off = 0; off < image.size(); off += 8) {
                const std::uint64_t w = wordAt(off, salt);
                std::memcpy(image.data() + off, &w, sizeof w);
            }
            Runtime::Config cfg;
            cfg.mechanism = leg.mech;
            cfg.deviceLatency = std::chrono::microseconds(1);
            cfg.retry.timeoutPolls = watchdogPolls;
            rt = std::make_unique<Runtime>(std::move(image), cfg);
            for (std::uint32_t f = 0; f < leg.fibers; ++f) {
                FiberOut &fo = out[f];
                fo.words.resize(perFiber);
                if (traced)
                    fo.callNs.reserve(2 * (perFiber / leg.batch + 1));
                rt->spawnWorker([this, f, perFiber, salt, traced,
                                 &fo](AccessEngine &dev) {
                    body(dev, f * perFiber, perFiber, salt, traced, fo);
                });
            }
        }
        rep.setupS = secondsSince(t0);

        std::uint32_t runSpan = 0;
        {
            ScopedSpan span(rec, "run", parent);
            runSpan = span.id();
            const auto t1 = Clock::now();
            if (traced) {
                heap::reset();
                heap::arm();
            }
            rt->run();
            if (traced)
                heap::disarm();
            rep.runS = secondsSince(t1);
        }

        AccessEngine &engine = rt->engine();
        {
            ScopedSpan span(rec, "verify", parent);
            for (std::uint32_t f = 0; f < leg.fibers; ++f) {
                const std::uint64_t base = f * perFiber;
                for (std::uint64_t i = 0; i < perFiber; ++i) {
                    const Addr a = addrOf(base + i, salt);
                    if (out[f].words[i] != wordAt(a, salt))
                        rep.failed++;
                }
                rep.failed += out[f].statusErrors;
            }
        }
        rep.accesses = engine.accesses();
        rep.attempted = lines;
        if (rep.accesses != lines)
            rep.error = "engine counted a different number of accesses";
        auto &L = rep.layer;
        if (leg.mech == Mechanism::SwQueue) {
            // Coverage: the device thread served every request. A
            // watchdog re-issue adds a twin that is served too, unless
            // the original completed first and the run ended before
            // the device fetched the twin.
            const std::uint64_t served =
                rt->emulatedDevice()->requestsServiced();
            const std::uint64_t retries = engine.recovery().retries;
            if (served < rep.accesses || served > rep.accesses + retries)
                rep.error = "emulated device served " +
                            std::to_string(served) + " requests for " +
                            std::to_string(rep.accesses) +
                            " accesses and " + std::to_string(retries) +
                            " re-issues";
            auto &sq = static_cast<SwQueueEngine &>(engine);
            L["access.swqueue.doorbells_per_access"] =
                double(sq.doorbellsRung()) / double(rep.accesses);
            L["access.swqueue.polls_per_access"] =
                double(sq.pollCalls()) / double(rep.accesses);
        }
        L["access.retries"] = double(engine.recovery().retries);
        L["access.timeouts"] = double(engine.recovery().timeouts);
        L["ult.switches_per_access"] =
            double(rt->scheduler().switches()) / double(rep.accesses);
        if (traced) {
            L["heap.allocs_per_access"] =
                double(heap::calls()) / double(rep.accesses);
            L["heap.bytes_per_access"] =
                double(heap::bytes()) / double(rep.accesses);
            recordEngineSpans(*rec, runSpan, out, L);
        }

        {
            ScopedSpan span(rec, "teardown", parent);
            rt.reset();
        }
        rep.wallS = secondsSince(t0);
        if (!rep.error.empty())
            rep.failed = rep.attempted;
        return rep;
    }

    /** The software-queue leg adds the emulated device thread. */
    std::uint32_t
    threads() const override
    {
        return leg.mech == Mechanism::SwQueue ? 2 : 1;
    }

  private:
    /** One fiber's loaded words, failed tryRead64 calls and (traced)
     *  engine-call times. */
    struct FiberOut
    {
        std::vector<std::uint64_t> words;
        std::uint64_t statusErrors = 0;
        std::vector<std::int64_t> callNs; //!< start,end pairs
        std::int64_t bodyStart = 0;
        std::int64_t bodyEnd = 0;
    };

    /** One worker fiber: read lines [first, first + n) in batches. */
    void
    body(AccessEngine &dev, std::uint64_t first, std::uint64_t n,
         std::uint64_t salt, bool traced, FiberOut &fo)
    {
        if (traced)
            fo.bodyStart = SpanRecorder::nowNs();
        Addr addrs[AccessEngine::maxBatch];
        std::uint64_t *words = fo.words.data();
        for (std::uint64_t i = 0; i < n; i += leg.batch) {
            const std::uint32_t b =
                std::uint32_t(std::min<std::uint64_t>(leg.batch, n - i));
            for (std::uint32_t k = 0; k < b; ++k)
                addrs[k] = addrOf(first + i + k, salt);
            const std::int64_t start =
                traced ? SpanRecorder::nowNs() : 0;
            if (b == 1) {
                if (dev.tryRead64(addrs[0], words[i]) !=
                    AccessStatus::Ok)
                    fo.statusErrors++;
            } else {
                dev.readBatch(addrs, b, words + i);
            }
            if (traced) {
                fo.callNs.push_back(start);
                fo.callNs.push_back(SpanRecorder::nowNs());
            }
            for (std::uint32_t k = 0; k < b; ++k)
                consume(workLoop(words[i + k], workPerAccess));
        }
        if (traced)
            fo.bodyEnd = SpanRecorder::nowNs();
    }

    /** Add fiber and engine-call spans under the run span, and the
     *  engine-call latency quantiles. */
    void
    recordEngineSpans(SpanRecorder &rec, std::uint32_t runSpan,
                      const std::vector<FiberOut> &out,
                      std::map<std::string, double> &L)
    {
        std::vector<double> lat;
        for (std::uint32_t f = 0; f < leg.fibers; ++f) {
            const FiberOut &fo = out[f];
            const std::uint32_t lane = f + 1;
            const std::uint32_t fiberSpan =
                rec.add("fiber", runSpan, lane, fo.bodyStart, fo.bodyEnd);
            const std::size_t calls = fo.callNs.size() / 2;
            for (std::size_t c = 0; c < calls; ++c) {
                const std::int64_t s = fo.callNs[2 * c];
                const std::int64_t e = fo.callNs[2 * c + 1];
                lat.push_back(double(e - s));
                if (c < keptSpansPerLane)
                    rec.add(callName(), fiberSpan, lane, s, e);
            }
            if (calls > keptSpansPerLane)
                rec.noteDropped(calls - keptSpansPerLane);
        }
        L["access.latency_p50_ns"] = quantile(lat, 0.50);
        L["access.latency_p99_ns"] = quantile(lat, 0.99);
    }

    const char *
    callName() const
    {
        return leg.batch == 1 ? "engine.tryRead64" : "engine.readBatch";
    }

    Leg leg;
};

} // anonymous namespace

std::unique_ptr<Workload>
makeHostWorkload(const std::string &name)
{
    // Accesses per rep are sized so one run() takes ~0.1-0.2 s here.
    if (name == "rt_ondemand")
        return std::make_unique<HostWorkload>(
            Leg{Mechanism::OnDemand, 1, 1, 1u << 20});
    if (name == "rt_prefetch")
        return std::make_unique<HostWorkload>(
            Leg{Mechanism::Prefetch, 10, 4, 1u << 20});
    if (name == "rt_swqueue")
        return std::make_unique<HostWorkload>(
            Leg{Mechanism::SwQueue, 10, 4, 1u << 18});
    return nullptr;
}

} // namespace perfbench
