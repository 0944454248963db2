/**
 * @file
 * Event-kernel microbench: events/sec of the scheduler itself.
 *
 * Drives a fig07-shaped synthetic event pattern — per-core poll-tick
 * chains (~50 ns), device round trips (~1 µs, DeviceResponse
 * priority), same-tick continuation steps, and timeout-guard
 * reschedule churn — through two kernels:
 *
 *  - legacy: a faithful replica of the pre-arena kernel (binary
 *    heap, one heap-allocated CallbackEvent + ownedLambdas map entry
 *    per one-shot, per-schedule name concatenation, virtual
 *    dispatch), kept here as the committed baseline;
 *  - ladder: today's EventQueue (arena lambdas, ladder scheduler).
 *
 * The measured loop is the schedule -> dispatch round trip exactly as
 * the model's call sites drive it, so the legacy column prices in the
 * allocation idiom its call sites used. Every kernel services the
 * same deterministic event sequence; only wall time may differ.
 *
 * The two kernels are measured in five alternating rounds (the
 * first kernel flips every round), and the reported rates and ratio
 * are per-round medians. A co-tenant burst on a
 * shared host then skews one round, not the result.
 *
 * With bench_json=FILE, appends a record with events/sec per kernel
 * and the new-vs-legacy ratio to the BENCH_sweep.json trajectory;
 * the perf-smoke ctest gate compares that ratio against the
 * committed baseline (tests/artifacts/event_kernel_baseline.json).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/event.hh"
#include "sweep/bench_log.hh"
#include "tools/tool_args.hh"

using namespace kmu;

namespace
{

// ---------------------------------------------------------------
// Legacy kernel replica (the pre-arena EventQueue, verbatim logic).
// ---------------------------------------------------------------

class LegacyEvent
{
  public:
    explicit LegacyEvent(std::string name,
                         EventPriority prio = EventPriority::Default)
        : eventName(std::move(name)), prio(prio)
    {
    }
    virtual ~LegacyEvent() = default;
    virtual void process() = 0;

    bool scheduled() const { return isScheduled; }

    std::string eventName;
    EventPriority prio;
    bool isScheduled = false;
    bool ownedByQueue = false;
    Tick scheduledAt = 0;
    std::uint64_t heapSeq = 0;
};

class LegacyCallbackEvent : public LegacyEvent
{
  public:
    LegacyCallbackEvent(std::string name, std::function<void()> fn,
                        EventPriority prio = EventPriority::Default)
        : LegacyEvent(std::move(name), prio), callback(std::move(fn))
    {
    }
    void process() override { callback(); }

  private:
    std::function<void()> callback;
};

class LegacyQueue
{
  public:
    Tick curTick() const { return now; }

    void
    schedule(LegacyEvent *event, Tick when)
    {
        event->isScheduled = true;
        event->scheduledAt = when;
        event->heapSeq = nextSeq;
        heap.push(HeapEntry{when, std::int32_t(event->prio),
                            nextSeq++, event});
        liveEvents++;
    }

    void
    deschedule(LegacyEvent *event)
    {
        event->isScheduled = false;
        cancelledSeqs.insert(event->heapSeq);
        liveEvents--;
        if (cancelledSeqs.size() > 64 &&
            cancelledSeqs.size() > liveEvents)
            compact();
    }

    void
    reschedule(LegacyEvent *event, Tick when)
    {
        if (event->isScheduled)
            deschedule(event);
        schedule(event, when);
    }

    void
    scheduleLambda(Tick when, std::function<void()> fn,
                   EventPriority prio, std::string name)
    {
        auto ev = std::make_unique<LegacyCallbackEvent>(
            std::move(name), std::move(fn), prio);
        ev->ownedByQueue = true;
        LegacyCallbackEvent *raw = ev.get();
        ownedLambdas.emplace(raw, std::move(ev));
        schedule(raw, when);
    }

    bool
    serviceOne()
    {
        while (!heap.empty() && cancelledSeqs.erase(heap.top().seq))
            heap.pop();
        if (heap.empty())
            return false;
        HeapEntry entry = heap.top();
        heap.pop();
        LegacyEvent *ev = entry.event;
        now = entry.when;
        ev->isScheduled = false;
        liveEvents--;
        servicedCount++;
        ev->process();
        if (ev->ownedByQueue && !ev->isScheduled)
            ownedLambdas.erase(ev);
        return true;
    }

    std::uint64_t serviced() const { return servicedCount; }

  private:
    struct HeapEntry
    {
        Tick when;
        std::int32_t prio;
        std::uint64_t seq;
        LegacyEvent *event;
    };
    struct HeapCompare
    {
        bool
        operator()(const HeapEntry &a, const HeapEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.prio != b.prio)
                return a.prio > b.prio;
            return a.seq > b.seq;
        }
    };

    void
    compact()
    {
        std::vector<HeapEntry> survivors;
        survivors.reserve(liveEvents);
        while (!heap.empty()) {
            const HeapEntry &entry = heap.top();
            if (!cancelledSeqs.erase(entry.seq))
                survivors.push_back(entry);
            heap.pop();
        }
        std::unordered_set<std::uint64_t>().swap(cancelledSeqs);
        heap = decltype(heap)(HeapCompare{}, std::move(survivors));
    }

    Tick now = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t liveEvents = 0;
    std::uint64_t servicedCount = 0;
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        HeapCompare> heap;
    std::unordered_set<std::uint64_t> cancelledSeqs;
    std::unordered_map<LegacyEvent *,
                       std::unique_ptr<LegacyEvent>> ownedLambdas;
};

// ---------------------------------------------------------------
// The fig07-shaped workload, templated over the queue under test.
// ---------------------------------------------------------------

/**
 * One measured run. `legacyNames` reproduces the pre-arena call-site
 * idiom of building "<component>.<suffix>" per schedule; the modern
 * kernels get the cached names today's call sites pass.
 */
template <typename Queue, bool legacyNames>
class Driver
{
  public:
    explicit Driver(Queue &queue) : q(queue)
    {
        for (unsigned c = 0; c < cores; ++c) {
            coreName[c] = "core" + std::to_string(c);
            wakeName[c] = coreName[c] + ".wake";
            stepName[c] = coreName[c] + ".step";
            deliverName[c] = coreName[c] + ".deliver";
            guards.push_back(std::make_unique<Guard>(
                coreName[c] + ".guard", [] {},
                EventPriority::Default));
        }
    }

    ~Driver()
    {
        for (auto &g : guards) {
            if (g->scheduled())
                q.deschedule(g.get());
        }
    }

    /** Seed every core's poll chain (once per driver). */
    void
    start()
    {
        for (unsigned c = 0; c < cores; ++c)
            schedulePoll(c, q.curTick() + pollPeriod);
    }

    /** Service up to @p target_events; returns how many ran. */
    std::uint64_t
    run(std::uint64_t target_events)
    {
        std::uint64_t serviced = 0;
        while (serviced < target_events && q.serviceOne())
            ++serviced;
        return serviced;
    }

  private:
    /** Timeout guard: a member-style CallbackEvent the driver keeps
     *  rescheduling, as the model's watchdog/sampler events do. */
    using Guard = std::conditional_t<
        std::is_same_v<Queue, LegacyQueue>, LegacyCallbackEvent,
        CallbackEvent>;

    static constexpr unsigned cores = 4;
    static constexpr Tick pollPeriod = 50 * tickPerNs;
    static constexpr Tick deviceLatency = 1000 * tickPerNs;
    static constexpr Tick guardTimeout = 100'000 * tickPerNs;

    /**
     * Schedule @p fn as core @p c's one-shot: the legacy idiom builds
     * "<core><suffix>" per call, the modern one passes the cached
     * @p cached (the kernel borrows it, so it must outlive the event).
     */
    template <typename F>
    void
    post(Tick when, F &&fn, EventPriority prio, unsigned c,
         const char *suffix, const std::string &cached)
    {
        if constexpr (legacyNames)
            q.scheduleLambda(when, std::forward<F>(fn), prio,
                             coreName[c] + suffix);
        else
            q.scheduleLambda(when, std::forward<F>(fn), prio, cached);
    }

    void
    schedulePoll(unsigned c, Tick when)
    {
        post(when, [this, c] { pollTick(c); }, EventPriority::CpuTick,
             c, ".wake", wakeName[c]);
    }

    void
    pollTick(unsigned c)
    {
        // Every 4th poll issues a device read; in-flight round trips
        // mimic the 10-LFB pipelining of the queue-based mechanism.
        if (++pollCount[c] % 4 == 0 && inFlight[c] < 10)
            issueRead(c);
        schedulePoll(c, q.curTick() + pollPeriod);
    }

    void
    issueRead(unsigned c)
    {
        ++inFlight[c];
        // Watchdog churn: re-arming the guard deschedules the
        // previous instance, feeding the lazy-cancel path.
        q.reschedule(guards[c].get(), q.curTick() + guardTimeout);
        post(
            q.curTick() + deviceLatency,
            [this, c] {
                --inFlight[c];
                // Same-tick continuation, as the core's completion
                // callback charges its work block.
                post(q.curTick(), [this, c] { ++stepsDone[c]; },
                     EventPriority::CpuTick, c, ".step", stepName[c]);
            },
            EventPriority::DeviceResponse, c, ".deliver",
            deliverName[c]);
    }

    Queue &q;
    std::string coreName[cores];
    std::string wakeName[cores];
    std::string stepName[cores];
    std::string deliverName[cores];
    std::vector<std::unique_ptr<Guard>> guards;
    std::uint64_t pollCount[cores] = {};
    std::uint64_t stepsDone[cores] = {};
    unsigned inFlight[cores] = {};
};

struct Measurement
{
    std::uint64_t events;
    double seconds;
    double
    eventsPerSec() const
    {
        return seconds > 0.0 ? double(events) / seconds : 0.0;
    }
};

/**
 * One measurement on a fresh queue: @p warm events first, so slab and
 * bucket allocation settle outside the timed window as they do in a
 * real sweep, then @p target_events timed. One driver spans both, so
 * no event outlives the driver it calls back into.
 */
template <typename Queue, bool legacyNames>
Measurement
measure(std::uint64_t warm, std::uint64_t target_events)
{
    Queue queue;
    Driver<Queue, legacyNames> driver(queue);
    driver.start();
    driver.run(warm);
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t serviced = driver.run(target_events);
    const double secs =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0).count();
    return Measurement{serviced, secs};
}

/** Alternating measurement rounds per kernel. */
constexpr std::uint64_t rounds = 5;

/** Median of @p values (mean of the middle two for even counts). */
double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::uint64_t events = 1'000'000;
    std::string bench_json;
    for (int i = 1; i < argc; ++i) {
        std::string key, value;
        if (!toolargs::parseKv(argv[i], key, value)) {
            toolargs::reportBadArg("ubench_event_kernel", argv[i]);
            return 1;
        }
        bool ok = true;
        if (key == "events")
            ok = toolargs::parseU64(value, events) && events > 0;
        else if (key == "bench_json")
            bench_json = value;
        else {
            toolargs::reportUnknownKey("ubench_event_kernel", key);
            return 1;
        }
        if (!ok) {
            toolargs::reportBadValue("ubench_event_kernel", key,
                                     value);
            return 1;
        }
    }

    const std::uint64_t warm = std::min<std::uint64_t>(events / 10,
                                                       50'000);

    // Alternate the kernels round by round, flipping which goes
    // first, so slow host stretches hit both sides alike.
    std::vector<double> legacy_rates, ladder_rates, ratios;
    for (std::uint64_t r = 0; r < rounds; ++r) {
        Measurement legacy{}, ladder{};
        if (r % 2 == 0) {
            legacy = measure<LegacyQueue, true>(warm, events);
            ladder = measure<EventQueue, false>(warm, events);
        } else {
            ladder = measure<EventQueue, false>(warm, events);
            legacy = measure<LegacyQueue, true>(warm, events);
        }
        legacy_rates.push_back(legacy.eventsPerSec());
        ladder_rates.push_back(ladder.eventsPerSec());
        ratios.push_back(legacy.eventsPerSec() > 0.0
                             ? ladder.eventsPerSec() /
                                   legacy.eventsPerSec()
                             : 0.0);
    }
    const double legacy_rate = median(legacy_rates);
    const double ladder_rate = median(ladder_rates);
    const double ratio = median(ratios);

    std::printf("event-kernel microbench (%llu events/kernel x %llu "
                "alternating rounds, fig07-shaped pattern; medians)\n",
                (unsigned long long)events, (unsigned long long)rounds);
    std::printf("  %-22s %12.3f Mevents/s\n", "legacy (pre-arena)",
                legacy_rate / 1e6);
    std::printf("  %-22s %12.3f Mevents/s\n", "ladder",
                ladder_rate / 1e6);
    std::printf("  ladder vs legacy: %.2fx (rounds %.2fx .. %.2fx)\n",
                ratio, *std::min_element(ratios.begin(), ratios.end()),
                *std::max_element(ratios.begin(), ratios.end()));

    if (!bench_json.empty()) {
        const std::string record = csprintf(
            "{\"figure\": \"ubench_event_kernel\", "
            "\"events\": %llu, "
            "\"rounds\": %llu, "
            "\"legacy_events_per_s\": %.6g, "
            "\"events_per_s\": %.6g, "
            "\"ratio_vs_legacy\": %.4g}",
            (unsigned long long)events, (unsigned long long)rounds,
            legacy_rate, ladder_rate, ratio);
        if (!sweep::appendBenchJson(bench_json, record)) {
            std::fprintf(stderr,
                         "ubench_event_kernel: cannot write %s\n",
                         bench_json.c_str());
            return 1;
        }
    }
    return 0;
}
