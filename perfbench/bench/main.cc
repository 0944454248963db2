/**
 * @file
 * kmu_perfbench: run one workload for a time budget and print its
 * metrics as one JSON line.
 *
 *   kmu_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--oracle FILE] [--trace-out FILE]
 *   kmu_perfbench --selftest --oracle FILE
 *   kmu_perfbench --record-oracle NAME --seeds 1,2
 *
 * --trace 0 prints the end-to-end metrics, measured with tracing off.
 * --trace 1 alternates untraced and traced reps, runs the layer
 * probes, prints the per-layer metrics and writes the spans. The last
 * stdout line is always the result object; the line before it holds
 * the host description. Exit code 0 only when every output checked
 * out. perfbench/run.py builds this binary and is the usual entry.
 */

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hh"

using namespace perfbench;

namespace
{

/** Knobs that would change which kernel or executor the model uses,
 *  or make library code append to BENCH_sweep.json. */
const char *const clearedEnv[] = {
    "KMU_PARALLEL", "KMU_PARALLEL_THREADS", "KMU_EVENT_KERNEL",
    "KMU_JOBS", "KMU_BENCH_JSON",
};

struct MetricSpec
{
    const char *name;
    const char *unit;
};

const MetricSpec endToEnd[] = {
    {"accesses_per_s", "1/s"},
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/** Per-layer metrics, reported on every workload; a layer the
 *  workload does not exercise reads 0. */
const MetricSpec perLayer[] = {
    {"sim.events", "count"},
    {"sim.events_per_access", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.kernel_only_events_per_s", "1/s"},
    {"sim.kernel_share", "ratio"},
    {"core.setup_s", "s"},
    {"core.run_s", "s"},
    {"core.teardown_s", "s"},
    {"core.sim_accesses", "count"},
    {"mem.lfb.allocs", "count"},
    {"mem.lfb.occupancy_mean", "count"},
    {"mem.lfb.rejections", "count"},
    {"mem.chipq.entries", "count"},
    {"mem.chipq.full_stalls", "count"},
    {"mem.chipq.occupancy_mean", "count"},
    {"mem.pcie.useful_ratio", "ratio"},
    {"device.requests", "count"},
    {"device.replay_miss_ratio", "ratio"},
    {"device.fetcher.descriptors_per_burst", "count"},
    {"device.fetcher.empty_burst_ratio", "ratio"},
    {"device.fetcher.doorbells", "count"},
    {"topo.shard_imbalance", "ratio"},
    {"queue.request_rejects", "count"},
    {"queue.spsc_ns_per_item", "ns"},
    {"serve.offered", "count"},
    {"serve.completed", "count"},
    {"serve.slo_met_ratio", "ratio"},
    {"serve.p99_ns", "ns"},
    {"serve.inflight_peak", "count"},
    {"check.sweeps", "count"},
    {"ult.yield_roundtrip_ns", "ns"},
    {"ult.switches_per_access", "count"},
    {"access.latency_p50_ns", "ns"},
    {"access.latency_p99_ns", "ns"},
    {"access.swqueue.doorbells_per_access", "count"},
    {"access.swqueue.polls_per_access", "count"},
    {"access.retries", "count"},
    {"access.timeouts", "count"},
    {"heap.allocs_per_access", "count"},
    {"heap.bytes_per_access", "B"},
    {"trace.overhead_ratio", "ratio"},
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string oracle = "perfbench/oracle.json";
    std::string traceOut;
    bool selftest = false;
    std::string recordOracle;
    std::vector<std::uint64_t> seeds;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "kmu_perfbench: %s\nusage: kmu_perfbench --workload "
                 "NAME --seed N --seconds S --trace 0|1 [--oracle FILE] "
                 "[--trace-out FILE]\n       kmu_perfbench --selftest "
                 "[--oracle FILE]\n       kmu_perfbench --record-oracle "
                 "NAME --seeds N,M\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--selftest") {
            a.selftest = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (*end != '\0' || v.empty() || v[0] == '-')
                usage("bad --seed");
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (*end != '\0' || !(a.seconds > 0.0 && a.seconds < 3600))
                usage("bad --seconds");
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                usage("bad --trace");
            a.trace = v == "1";
        } else if (k == "--oracle") {
            a.oracle = v;
        } else if (k == "--trace-out") {
            a.traceOut = v;
        } else if (k == "--record-oracle") {
            a.recordOracle = v;
        } else if (k == "--seeds") {
            std::stringstream ss(v);
            std::string item;
            while (std::getline(ss, item, ','))
                a.seeds.push_back(std::stoull(item));
        } else {
            usage(("unknown argument " + k).c_str());
        }
    }
    return a;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += (c == '\n') ? ' ' : c;
    }
    return out + "\"";
}

/** The host description recorded with every result. */
void
printHost()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    const int nproc =
        sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
    long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (llc <= 0)
        llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
    std::printf("{\"host\": {\"hw_threads\": %u, \"nproc\": %d, "
                "\"llc_bytes\": %ld, \"compiler\": %s, "
                "\"build_type\": %s, \"kmu_model_checks\": %s}}\n",
                std::thread::hardware_concurrency(), nproc, llc,
                jsonString("gcc-compatible " __VERSION__).c_str(),
                jsonString(PERFBENCH_BUILD_TYPE).c_str(),
                PERFBENCH_MODEL_CHECKS ? "true" : "false");
}

/**
 * Peak resident memory of the largest rep (each rep is a forked
 * child). This process's own peak is left out on purpose: Linux keeps a
 * process's peak across exec, so it would report whatever launched
 * the benchmark.
 */
double
peakRssMb()
{
    rusage kids{};
    getrusage(RUSAGE_CHILDREN, &kids);
    return double(kids.ru_maxrss) / 1024.0;
}

/** Byte stream carrying a RepResult from a rep process back. */
struct Wire
{
    std::string buf;
    std::size_t pos = 0;
    bool ok = true;

    void
    raw(const void *p, std::size_t n)
    {
        buf.append(static_cast<const char *>(p), n);
    }
    template <typename T>
    void
    put(const T &v)
    {
        raw(&v, sizeof v);
    }
    void
    put(const std::string &v)
    {
        put(std::uint64_t(v.size()));
        raw(v.data(), v.size());
    }

    void
    take(void *p, std::size_t n)
    {
        if (!ok || buf.size() - pos < n) {
            ok = false;
            return;
        }
        std::memcpy(p, buf.data() + pos, n);
        pos += n;
    }
    template <typename T>
    void
    get(T &v)
    {
        take(&v, sizeof v);
    }
    void
    get(std::string &v)
    {
        std::uint64_t n = 0;
        get(n);
        if (!ok || buf.size() - pos < n) {
            ok = false;
            return;
        }
        v.assign(buf.data() + pos, n);
        pos += n;
    }
};

/**
 * Run one rep in a forked child and return its result. Every rep
 * starts from the heap a fresh process has, which is how users run
 * the model (one system per process; the sweep runner forks one
 * worker per point), and a panic inside the library fails that rep
 * instead of ending the run without a result. Spans the child
 * records keep their ids: the child appends to its copy of @p rec and
 * the parent adopts the new tail. Span names are string literals, so
 * their addresses are the same in both processes.
 */
RepResult
runIsolated(Workload &w, std::uint64_t seed, SpanRecorder *rec,
            std::uint32_t parent)
{
    std::fflush(stdout);
    std::fflush(stderr);
    int fds[2];
    if (pipe(fds) != 0) {
        std::perror("pipe");
        std::exit(2);
    }
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("fork");
        std::exit(2);
    }
    if (pid == 0) {
        close(fds[0]);
        const std::size_t spansBefore = rec ? rec->spans().size() : 0;
        const std::uint64_t droppedBefore = rec ? rec->dropped() : 0;
        const RepResult r = w.runRep(seed, rec, parent);
        Wire out;
        out.put(r.setupS);
        out.put(r.runS);
        out.put(r.wallS);
        out.put(r.accesses);
        out.put(r.attempted);
        out.put(r.failed);
        out.put(r.error);
        out.put(r.digest);
        out.put(std::uint64_t(r.layer.size()));
        for (const auto &[k, v] : r.layer) {
            out.put(k);
            out.put(v);
        }
        const std::uint64_t nSpans =
            rec ? rec->spans().size() - spansBefore : 0;
        out.put(nSpans);
        for (std::uint64_t i = 0; i < nSpans; ++i)
            out.put(rec->spans()[spansBefore + i]);
        out.put(rec ? rec->dropped() - droppedBefore : 0);
        std::size_t off = 0;
        while (off < out.buf.size()) {
            const ssize_t n =
                write(fds[1], out.buf.data() + off, out.buf.size() - off);
            if (n <= 0)
                _exit(3);
            off += std::size_t(n);
        }
        close(fds[1]);
        std::fflush(stderr);
        _exit(0);
    }

    close(fds[1]);
    Wire in;
    char chunk[65536];
    ssize_t n;
    while ((n = read(fds[0], chunk, sizeof chunk)) > 0)
        in.buf.append(chunk, std::size_t(n));
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }

    RepResult r;
    in.get(r.setupS);
    in.get(r.runS);
    in.get(r.wallS);
    in.get(r.accesses);
    in.get(r.attempted);
    in.get(r.failed);
    in.get(r.error);
    in.get(r.digest);
    std::uint64_t nLayer = 0;
    in.get(nLayer);
    for (std::uint64_t i = 0; in.ok && i < nLayer; ++i) {
        std::string k;
        double v = 0.0;
        in.get(k);
        in.get(v);
        r.layer[k] = v;
    }
    std::uint64_t nSpans = 0;
    in.get(nSpans);
    for (std::uint64_t i = 0; in.ok && i < nSpans; ++i) {
        Span sp;
        in.get(sp);
        if (in.ok && rec)
            rec->adopt(sp);
    }
    std::uint64_t dropped = 0;
    in.get(dropped);
    if (rec)
        rec->noteDropped(dropped);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || !in.ok ||
        in.pos != in.buf.size()) {
        char msg[96];
        std::snprintf(msg, sizeof msg, "rep process ended abnormally "
                      "(wait status %d)", status);
        r.error = msg;
    }
    return r;
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const MetricSpec *specs, std::size_t n,
            const std::map<std::string, double> &values)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < n; ++i) {
        const auto it = values.find(specs[i].name);
        const double v = it == values.end() ? 0.0 : it->second;
        // Shortest text that reads back as the same double.
        char buf[64];
        const auto res = std::to_chars(buf, buf + sizeof buf,
                                       std::isfinite(v) ? v : 0.0);
        out += std::string(i ? ", " : "") + "\"" + specs[i].name +
               "\": {\"value\": " + std::string(buf, res.ptr) +
               ", \"unit\": \"" +
               specs[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

/** Outcome of all reps of one run. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string error;

    void
    add(const RepResult &r)
    {
        attempted += r.attempted;
        failed += r.failed;
        if (error.empty() && !r.error.empty())
            error = r.error;
        // Every rep of one seed must simulate the same outputs.
        if (firstDigest.empty())
            firstDigest = r.digest;
        else if (r.digest != firstDigest && error.empty())
            error = "simulated output differs between reps of one seed";
    }

  private:
    std::string firstDigest;
};

int
runWorkload(const Args &a)
{
    std::unique_ptr<Workload> w = makeSimWorkload(a.workload);
    if (!w)
        w = makeHostWorkload(a.workload);
    if (!w)
        usage(("unknown workload " + a.workload).c_str());

    Tally tally;
    std::map<std::string, double> metrics;
    const auto start = Clock::now();
    constexpr std::size_t minReps = 3;
    // On a shared host, co-tenants slow reps by up to 1.8x for
    // stretches longer than a run: that moves a run's median by
    // 15-30 %, while its fastest rep stays within ~5-10 %. For a
    // single-threaded rep that noise only ever adds time, so the
    // fastest rep measures the code. A two-threaded rep also speeds
    // up or slows down with where the OS places its threads, so its
    // fastest rep is an outlier and the median is the steadier figure
    // (see perfbench/README.md).
    const double q = w->threads() == 1 ? 0.0 : 0.5;

    if (!a.trace) {
        tally.error = w->checkOnce(a.seed, a.oracle);
        std::vector<double> rate, wall, setup;
        while (rate.size() < minReps || secondsSince(start) < a.seconds) {
            const RepResult r = runIsolated(*w, a.seed, nullptr, 0);
            tally.add(r);
            rate.push_back(double(r.accesses) / r.runS);
            wall.push_back(r.wallS);
            setup.push_back(r.setupS);
        }
        std::fprintf(stderr,
                     "%zu reps; accesses/s median %.6g fastest %.6g; "
                     "wall_s median %.6g fastest %.6g\n",
                     rate.size(), median(rate), quantile(rate, 1.0),
                     median(wall), quantile(wall, 0.0));
        metrics["accesses_per_s"] = quantile(rate, 1.0 - q);
        metrics["wall_s"] = quantile(wall, q);
        metrics["setup_s"] = quantile(setup, q);
        metrics["peak_rss_mb"] = peakRssMb();
    } else {
        SpanRecorder rec(std::uint64_t(getpid()) << 32 ^
                         std::uint64_t(SpanRecorder::nowNs()));
        const std::uint32_t root = rec.begin("workload", 0);
        {
            ScopedSpan s(&rec, "probe.kernel", root);
            metrics["sim.kernel_only_events_per_s"] =
                probeKernelOnlyEventsPerS(0.3);
        }
        {
            ScopedSpan s(&rec, "probe.spsc", root);
            metrics["queue.spsc_ns_per_item"] = probeSpscNsPerItem(0.2);
        }
        {
            ScopedSpan s(&rec, "probe.yield", root);
            metrics["ult.yield_roundtrip_ns"] =
                probeYieldRoundtripNs(0.2);
        }
        {
            ScopedSpan s(&rec, "oracle", root);
            tally.error = w->checkOnce(a.seed, a.oracle);
        }
        std::vector<double> plainWall, tracedWall;
        std::map<std::string, std::vector<double>> layer;
        while (tracedWall.size() < minReps ||
               secondsSince(start) < a.seconds) {
            {
                ScopedSpan s(&rec, "rep.untraced", root);
                const RepResult r = runIsolated(*w, a.seed, nullptr, 0);
                tally.add(r);
                plainWall.push_back(r.wallS);
            }
            ScopedSpan s(&rec, "rep.traced", root);
            const RepResult r = runIsolated(*w, a.seed, &rec, s.id());
            tally.add(r);
            tracedWall.push_back(r.wallS);
            for (const auto &[k, v] : r.layer)
                layer[k].push_back(v);
        }
        rec.end(root);
        for (const auto &[k, v] : layer)
            metrics[k] = median(v);
        const double kernel = metrics["sim.kernel_only_events_per_s"];
        if (kernel > 0.0)
            metrics["sim.kernel_share"] =
                metrics["sim.events_per_s"] / kernel;
        metrics["trace.overhead_ratio"] =
            quantile(tracedWall, q) / quantile(plainWall, q);

        const std::string spanErr = rec.checkSelfTimes();
        if (!spanErr.empty() && tally.error.empty())
            tally.error = "trace: " + spanErr;
        if (!a.traceOut.empty() &&
            !rec.writeJson(a.traceOut, a.workload, a.seed))
            std::fprintf(stderr, "kmu_perfbench: cannot write %s\n",
                         a.traceOut.c_str());
        for (const auto &[name, s] : rec.selfSecondsByName())
            std::fprintf(stderr, "self %-22s %10.6f s\n", name.c_str(), s);
    }

    const bool correct = tally.error.empty() && tally.failed == 0;
    if (!correct) {
        std::fprintf(stderr, "kmu_perfbench: %s: %s\n", a.workload.c_str(),
                     tally.error.empty() ? "failed operations"
                                         : tally.error.c_str());
        // A wrong output makes every access of the run a failure.
        if (!tally.error.empty())
            tally.failed = tally.attempted;
    }
    printHost();
    if (a.trace)
        printResult(correct, tally.attempted, tally.failed, perLayer,
                    std::size(perLayer), metrics);
    else
        printResult(correct, tally.attempted, tally.failed, endToEnd,
                    std::size(endToEnd), metrics);
    return correct ? 0 : 1;
}

/** Check the checkers: the counting allocator, the span self-time
 *  rule, and that the oracle catches a perturbed model. */
int
selfTest(const Args &a)
{
    int failures = 0;
    auto report = [&](const char *what, const std::string &err) {
        std::printf("%-40s %s\n", what, err.empty() ? "ok" : err.c_str());
        failures += !err.empty();
    };

    report("heap: counts a known pattern", heap::selfTest());

    {
        SpanRecorder rec(1);
        const auto root = rec.add("root", 0, 0, 0, 100);
        const auto child = rec.add("child", root, 0, 10, 40);
        rec.add("grandchild", child, 0, 20, 30);
        rec.add("child", root, 0, 50, 90);
        rec.add("other-lane", root, 1, 0, 200);
        const auto self = rec.selfSecondsByName();
        std::string err = rec.checkSelfTimes();
        if (err.empty() && std::llround(self.at("root") * 1e9) != 30)
            err = "root self time is not 30 ns";
        report("spans: self times of a known tree", err);

        SpanRecorder bad(2);
        const auto r2 = bad.add("root", 0, 0, 0, 100);
        bad.add("a", r2, 0, 10, 50);
        bad.add("b", r2, 0, 40, 60);
        report("spans: overlapping siblings rejected",
               bad.checkSelfTimes().empty() ? "not detected" : "");
    }

    {
        // Seed 0 is not stored, so checkOnce runs every stored seed.
        report("oracle: sim_prefetch matches",
               makeSimWorkload("sim_prefetch")->checkOnce(0, a.oracle));
        report("oracle: sim_serve matches",
               makeSimWorkload("sim_serve")->checkOnce(0, a.oracle));
        const std::string err =
            makeSimWorkload("sim_prefetch", 13)->checkOnce(0, a.oracle);
        report("oracle: chip queue 13 is caught",
               err.find("stored digest") == std::string::npos
                   ? "perturbed model not detected"
                   : "");
    }
    return failures == 0 ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    for (const char *name : clearedEnv)
        unsetenv(name);
    const Args a = parseArgs(argc, argv);
    if (a.selftest)
        return selfTest(a);
    if (!a.recordOracle.empty()) {
        if (a.seeds.empty() || !makeSimWorkload(a.recordOracle))
            usage("--record-oracle needs a sim workload and --seeds");
        recordSimOracle(a.recordOracle, a.seeds, std::cout);
        return 0;
    }
    if (a.workload.empty())
        usage("--workload is required");
    return runWorkload(a);
}
