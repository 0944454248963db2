/**
 * @file
 * Timing-model workloads: sim_prefetch and sim_serve.
 *
 * Each rep builds a SystemConfig, constructs a SimSystem, runs it,
 * reads its RunResult and stat dump, and tears it down. Simulated
 * results are outputs to check: every rep's named field set must
 * equal the stored digest of its seed (oracle.json); main.cc also
 * requires every rep of one run to produce the same digest.
 */

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "bench.hh"
#include "core/sim_system.hh"

namespace perfbench
{

namespace
{

using namespace kmu;

/** One parsed line of a StatGroup dump: value and sample count. */
struct StatValue
{
    double value = 0.0;
    double samples = 0.0; //!< n= of an Average, else 0
};

std::map<std::string, StatValue>
parseStats(StatGroup &root)
{
    std::ostringstream os;
    root.dump(os);
    std::istringstream is(os.str());
    std::map<std::string, StatValue> out;
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::string path, value;
        if (!(ls >> path >> value))
            continue;
        char *end = nullptr;
        const double v = std::strtod(value.c_str(), &end);
        if (end == value.c_str() || *end != '\0')
            continue; // histograms and other non-scalar renders
        StatValue sv;
        sv.value = v;
        const auto n = line.find("(n=");
        if (n != std::string::npos)
            sv.samples = std::strtod(line.c_str() + n + 3, nullptr);
        out[path] = sv;
    }
    return out;
}

bool
matches(const std::string &path, const std::string &prefix,
        const std::string &suffix)
{
    return path.size() >= prefix.size() + suffix.size() &&
           path.compare(0, prefix.size(), prefix) == 0 &&
           path.compare(path.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

double
sumOf(const std::map<std::string, StatValue> &stats,
      const std::string &prefix, const std::string &suffix)
{
    double sum = 0.0;
    for (const auto &[path, sv] : stats)
        if (matches(path, prefix, suffix))
            sum += sv.value;
    return sum;
}

/** Sample-weighted mean of every matching Average. */
double
meanOf(const std::map<std::string, StatValue> &stats,
       const std::string &prefix, const std::string &suffix)
{
    double sum = 0.0, n = 0.0;
    for (const auto &[path, sv] : stats) {
        if (matches(path, prefix, suffix)) {
            sum += sv.value * sv.samples;
            n += sv.samples;
        }
    }
    return n > 0.0 ? sum / n : 0.0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/**
 * The named field set the oracle digests: model outputs only. Host
 * timings, the event count and the checker's sweep count describe
 * how the simulator ran, not what it computed, so they stay out.
 */
struct ModelOutputs
{
    std::vector<std::pair<std::string, std::string>> fields;

    void
    add(const char *name, std::uint64_t v)
    {
        fields.emplace_back(name, std::to_string(v));
    }
    void
    add(const char *name, double v)
    {
        char buf[48];
        std::snprintf(buf, sizeof buf, "%.10g", v);
        fields.emplace_back(name, buf);
    }
    std::string
    text() const
    {
        std::string out;
        for (const auto &[k, v] : fields)
            out += k + "=" + v + "\n";
        return out;
    }
};

ModelOutputs
modelOutputs(const RunResult &r, const std::map<std::string, StatValue> &st)
{
    ModelOutputs m;
    m.add("elapsed", std::uint64_t(r.elapsed));
    m.add("iterations", r.iterations);
    m.add("work_instrs", r.workInstrs);
    m.add("accesses", r.accesses);
    m.add("writes", r.writes);
    m.add("mean_read_latency_ns", r.meanReadLatencyNs);
    m.add("to_host_wire_gbs", r.toHostWireGBs);
    m.add("to_host_useful_gbs", r.toHostUsefulGBs);
    m.add("to_device_wire_gbs", r.toDeviceWireGBs);
    m.add("chip_queue_peak", std::uint64_t(r.chipQueuePeak));
    m.add("prefetches_queued", r.prefetchesQueued);
    m.add("replay_misses", r.replayMisses);
    m.add("shard_count", std::uint64_t(r.shardCount));
    m.add("shard_requests_min", r.shardRequestsMin);
    m.add("shard_requests_max", r.shardRequestsMax);
    m.add("serve_offered", r.serveOffered);
    m.add("serve_completed", r.serveCompleted);
    m.add("serve_slo_met", r.serveSloMet);
    m.add("serve_inflight_peak", r.serveInFlightPeak);
    m.add("serve_p50_ns", r.serveP50Ns);
    m.add("serve_p99_ns", r.serveP99Ns);
    m.add("serve_p999_ns", r.serveP999Ns);
    m.add("serve_mean_latency_ns", r.serveMeanLatencyNs);
    m.add("lfb_allocs", sumOf(st, "system.core", ".lfb.allocs"));
    m.add("lfb_rejections", sumOf(st, "system.core", ".lfb.rejections"));
    m.add("lfb_occupancy_mean",
          meanOf(st, "system.core", ".lfb.occupancy_at_alloc"));
    m.add("chipq_entries",
          sumOf(st, "system.chip_pcie_queue", ".entries"));
    m.add("chipq_full_stalls",
          sumOf(st, "system.chip_pcie_queue", ".full_stalls"));
    m.add("chipq_occupancy_mean",
          meanOf(st, "system.chip_pcie_queue", ".occupancy"));
    m.add("device_requests", sumOf(st, "system.device", ".requests"));
    m.add("device_replay_misses",
          sumOf(st, "system.device", ".replay_misses"));
    m.add("fetcher_descriptors",
          sumOf(st, "system.fetcher", ".descriptors_fetched"));
    m.add("fetcher_bursts", sumOf(st, "system.fetcher", ".burst_reads"));
    m.add("fetcher_empty_bursts",
          sumOf(st, "system.fetcher", ".empty_bursts"));
    m.add("fetcher_doorbells", sumOf(st, "system.fetcher", ".doorbells"));
    m.add("queue_request_rejects",
          sumOf(st, "system.fetcher", ".request_rejects"));
    return m;
}

/** Stored digests: oracle.json maps "<workload>/<seed>" to a hex
 *  digest. A tiny scanner is enough for the file's fixed shape. */
std::map<std::string, std::string>
loadOracle(const std::string &path)
{
    std::map<std::string, std::string> out;
    std::ifstream is(path);
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    std::size_t pos = 0;
    std::vector<std::string> strings;
    while ((pos = text.find('"', pos)) != std::string::npos) {
        const std::size_t close = text.find('"', pos + 1);
        if (close == std::string::npos)
            break;
        strings.push_back(text.substr(pos + 1, close - pos - 1));
        pos = close + 1;
    }
    for (std::size_t i = 0; i + 1 < strings.size(); i += 2)
        out[strings[i]] = strings[i + 1];
    return out;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

class SimWorkload : public Workload
{
  public:
    SimWorkload(std::string workloadName, std::uint32_t chipQueue)
        : name(std::move(workloadName)), chipQueueOverride(chipQueue)
    {
    }

    /** The workload's configuration at @p seed. */
    SystemConfig
    config(std::uint64_t seed) const
    {
        SystemConfig cfg;
        cfg.backing = Backing::Device;
        if (name == "sim_prefetch") {
            // Listing 1: closed-loop prefetch + yield, reads only.
            // Batch 4 with cache-line interleave spreads accesses
            // over all four shards (batch 1 would send every access
            // to shard 0: the default address plan strides by
            // AccessEngine::maxBatch lines).
            cfg.mechanism = Mechanism::Prefetch;
            cfg.numCores = 8;
            cfg.threadsPerCore = 8;
            cfg.batch = 4;
            cfg.topo.shards = 4;
            cfg.topo.interleave = topo::Interleave::CacheLine;
            cfg.device.latency = microseconds(1);
            // The closed loop has no random input; the seed shifts
            // where the measured window starts.
            cfg.warmup = microseconds(60 + seed % 8);
            cfg.measure = microseconds(prefetchMeasureUs);
        } else {
            // Open-loop Poisson serving over software queues at
            // ~80 % of this shape's knee (~4.5 requests/us).
            cfg.mechanism = Mechanism::SwQueue;
            cfg.numCores = 4;
            cfg.threadsPerCore = 16;
            cfg.device.latency = microseconds(4);
            cfg.serve.arrival = serve::ArrivalKind::Poisson;
            cfg.serve.lambdaPerUs = 3.6;
            cfg.serve.zipfTheta = 0.99;
            cfg.serve.valueLines = 4;
            cfg.serve.seed = seed;
            cfg.measure = microseconds(serveMeasureUs);
        }
        if (chipQueueOverride != 0)
            cfg.chipPcieQueue = chipQueueOverride;
        return cfg;
    }

    /** Run @p cfg once; fills phase times and the layer map. */
    RepResult
    runConfig(const SystemConfig &cfg, SpanRecorder *rec,
              std::uint32_t parent, std::string &digestText)
    {
        RepResult rep;
        const auto t0 = Clock::now();
        std::unique_ptr<SimSystem> sys;
        {
            ScopedSpan span(rec, "setup", parent);
            sys = std::make_unique<SimSystem>(cfg);
        }
        rep.setupS = secondsSince(t0);

        RunResult r;
        std::uint64_t allocs = 0, allocBytes = 0;
        {
            ScopedSpan span(rec, "run", parent);
            const auto t1 = Clock::now();
            if (rec) {
                heap::reset();
                heap::arm();
            }
            r = sys->run();
            if (rec) {
                heap::disarm();
                allocs = heap::calls();
                allocBytes = heap::bytes();
            }
            rep.runS = secondsSince(t1);
        }

        std::map<std::string, StatValue> st;
        {
            ScopedSpan span(rec, "verify", parent);
            st = parseStats(sys->stats());
            digestText = modelOutputs(r, st).text();
        }
        double teardownS = 0.0;
        {
            ScopedSpan span(rec, "teardown", parent);
            const auto t3 = Clock::now();
            sys.reset();
            teardownS = secondsSince(t3);
        }
        rep.wallS = secondsSince(t0);
        rep.accesses = r.accesses;
        rep.attempted = r.accesses;

        auto &L = rep.layer;
        const double acc = double(r.accesses);
        L["sim.events"] = double(r.kernelEvents);
        L["sim.events_per_access"] = ratio(double(r.kernelEvents), acc);
        L["sim.events_per_s"] = ratio(double(r.kernelEvents), rep.runS);
        L["core.setup_s"] = rep.setupS;
        L["core.run_s"] = rep.runS;
        L["core.teardown_s"] = teardownS;
        L["core.sim_accesses"] = acc;
        L["mem.lfb.allocs"] = sumOf(st, "system.core", ".lfb.allocs");
        L["mem.lfb.occupancy_mean"] =
            meanOf(st, "system.core", ".lfb.occupancy_at_alloc");
        L["mem.lfb.rejections"] =
            sumOf(st, "system.core", ".lfb.rejections");
        L["mem.chipq.entries"] =
            sumOf(st, "system.chip_pcie_queue", ".entries");
        L["mem.chipq.full_stalls"] =
            sumOf(st, "system.chip_pcie_queue", ".full_stalls");
        L["mem.chipq.occupancy_mean"] =
            meanOf(st, "system.chip_pcie_queue", ".occupancy");
        L["mem.pcie.useful_ratio"] =
            ratio(r.toHostUsefulGBs, r.toHostWireGBs);
        const double devReq = sumOf(st, "system.device", ".requests");
        L["device.requests"] = devReq;
        L["device.replay_miss_ratio"] =
            ratio(sumOf(st, "system.device", ".replay_misses"), devReq);
        const double bursts =
            sumOf(st, "system.fetcher", ".burst_reads");
        const double descriptors =
            sumOf(st, "system.fetcher", ".descriptors_fetched");
        L["device.fetcher.descriptors_per_burst"] =
            ratio(descriptors, bursts);
        L["device.fetcher.empty_burst_ratio"] =
            ratio(sumOf(st, "system.fetcher", ".empty_bursts"), bursts);
        L["device.fetcher.doorbells"] =
            sumOf(st, "system.fetcher", ".doorbells");
        L["device.fetcher.descriptors"] = descriptors;
        L["topo.shard_imbalance"] =
            ratio(double(r.shardRequestsMax), double(r.shardRequestsMin));
        L["topo.shard_requests_min"] = double(r.shardRequestsMin);
        L["queue.request_rejects"] =
            sumOf(st, "system.fetcher", ".request_rejects");
        L["serve.offered"] = double(r.serveOffered);
        L["serve.completed"] = double(r.serveCompleted);
        L["serve.slo_met_ratio"] =
            ratio(double(r.serveSloMet), double(r.serveCompleted));
        L["serve.p99_ns"] = r.serveP99Ns;
        L["serve.inflight_peak"] = double(r.serveInFlightPeak);
        L["check.sweeps"] = sumOf(st, "system.checker", ".sweeps");
        if (rec) {
            L["heap.allocs_per_access"] = ratio(double(allocs), acc);
            L["heap.bytes_per_access"] = ratio(double(allocBytes), acc);
        }
        return rep;
    }

    /** Layer-coverage assertions: the traffic this workload exists
     *  to generate really reached the layers it names. */
    std::string
    coverageError(const RepResult &rep) const
    {
        const auto &L = rep.layer;
        if (name == "sim_prefetch") {
            if (!(L.at("topo.shard_requests_min") > 0))
                return "sim_prefetch: a shard served no requests";
        } else {
            if (L.at("mem.lfb.allocs") != 0)
                return "sim_serve: the LFB allocated entries";
            if (!(L.at("device.fetcher.descriptors") > 0))
                return "sim_serve: the fetcher fetched no descriptors";
        }
        return {};
    }

    RepResult
    runRep(std::uint64_t seed, SpanRecorder *rec,
           std::uint32_t parent) override
    {
        std::string text;
        RepResult rep = runConfig(config(seed), rec, parent, text);
        rep.digest = hex(fnv1a(text));
        std::string err = coverageError(rep);
        if (err.empty())
            err = compareDigest(seed, rep.digest, text);
        if (!err.empty()) {
            rep.error = err;
            rep.failed = rep.attempted;
        }
        return rep;
    }

    std::string
    checkOnce(std::uint64_t measuredSeed,
              const std::string &oraclePath) override
    {
        oracle = loadOracle(oraclePath);
        bool stored = false;
        for (const auto &entry : oracle)
            stored |= entry.first.rfind(name + "/", 0) == 0;
        if (!stored)
            return "no stored digest for " + name + " in " + oraclePath;
        // Reps at the measured seed are compared with its stored
        // digest when there is one. Every stored seed of this
        // workload is also re-run here, so a run at any seed checks
        // the model against recorded outputs.
        for (const auto &[key, want] : oracle) {
            const auto slash = key.find('/');
            if (key.substr(0, slash) != name)
                continue;
            const std::uint64_t seed =
                std::stoull(key.substr(slash + 1));
            if (seed == measuredSeed)
                continue;
            std::string text;
            RepResult rep = runConfig(config(seed), nullptr, 0, text);
            std::string err = coverageError(rep);
            if (err.empty())
                err = compareDigest(seed, hex(fnv1a(text)), text);
            if (!err.empty())
                return err;
        }
        return {};
    }

    /** Print the digests of the given seeds as oracle entries. */
    void
    record(const std::vector<std::uint64_t> &seeds, std::ostream &os)
    {
        for (std::uint64_t seed : seeds) {
            std::string text;
            runConfig(config(seed), nullptr, 0, text);
            os << "\"" << name << "/" << seed << "\": \""
               << hex(fnv1a(text)) << "\"\n";
            std::fprintf(stderr, "%s seed %llu:\n%s", name.c_str(),
                         (unsigned long long)seed, text.c_str());
        }
    }

  private:
    /** Measured windows sized so one run() takes ~0.05-0.1 s of
     *  host time on a 2020s x86 core: short reps give a run enough
     *  chances to catch a quiet moment of a shared host. */
    static constexpr std::uint64_t prefetchMeasureUs = 2000;
    static constexpr std::uint64_t serveMeasureUs = 4000;

    std::string
    compareDigest(std::uint64_t seed, const std::string &digest,
                  const std::string &text)
    {
        std::string err;
        const auto it = oracle.find(name + "/" + std::to_string(seed));
        if (it != oracle.end() && it->second != digest)
            err = "simulated output differs from the stored digest " +
                  it->second + " (got " + digest + ")";
        if (!err.empty())
            std::fprintf(stderr, "%s seed %llu: %s; fields:\n%s",
                         name.c_str(), (unsigned long long)seed,
                         err.c_str(), text.c_str());
        return err;
    }

    std::string name;
    std::uint32_t chipQueueOverride;
    std::map<std::string, std::string> oracle;
};

} // anonymous namespace

std::unique_ptr<Workload>
makeSimWorkload(const std::string &name, std::uint32_t chipQueue)
{
    if (name == "sim_prefetch" || name == "sim_serve")
        return std::make_unique<SimWorkload>(name, chipQueue);
    return nullptr;
}

void
recordSimOracle(const std::string &name,
                const std::vector<std::uint64_t> &seeds, std::ostream &os)
{
    SimWorkload(name, 0).record(seeds, os);
}

} // namespace perfbench
