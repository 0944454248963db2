#include "ubench/microbenchmark.hh"

#include <cstring>

#include "common/logging.hh"
#include "common/random.hh"
#include "ubench/work_loop.hh"

namespace kmu
{

namespace
{

/** Fill the device image with deterministic per-word values so the
 *  benchmark can checksum what it loads. */
std::vector<std::uint8_t>
buildImage(std::size_t bytes)
{
    std::vector<std::uint8_t> image(bytes);
    for (std::size_t off = 0; off + 8 <= bytes;
         off += cacheLineSize) {
        const std::uint64_t value = mix64(off);
        std::memcpy(image.data() + off, &value, sizeof(value));
    }
    return image;
}

} // anonymous namespace

HostBenchResult
runHostMicrobenchmark(const HostBenchConfig &cfg)
{
    kmuAssert(cfg.threads >= 1, "need at least one thread");
    kmuAssert(cfg.batch >= 1 && cfg.batch <= AccessEngine::maxBatch,
              "bad batch");

    Runtime::Config rt_cfg;
    rt_cfg.mechanism = cfg.mechanism;
    rt_cfg.deviceLatency = cfg.deviceLatency;
    Runtime rt(buildImage(cfg.regionBytes), rt_cfg);

    // Per-thread region slices: each access hits a fresh line.
    const std::uint64_t lines = cfg.regionBytes / cacheLineSize;
    const std::uint64_t lines_per_thread = lines / cfg.threads;
    const std::uint64_t needed =
        cfg.iterationsPerThread * cfg.batch;
    kmuAssert(lines_per_thread >= 1,
              "region too small for thread count");

    std::vector<std::uint64_t> checksums(cfg.threads, 0);
    for (std::uint32_t t = 0; t < cfg.threads; ++t) {
        rt.spawnWorker([t, &cfg, &checksums, lines_per_thread,
                        needed](AccessEngine &dev) {
            const std::uint64_t base_line = t * lines_per_thread;
            std::uint64_t sum = 0;
            Addr addrs[AccessEngine::maxBatch];
            std::uint64_t vals[AccessEngine::maxBatch];
            for (std::uint64_t i = 0; i < cfg.iterationsPerThread;
                 ++i) {
                for (std::uint32_t b = 0; b < cfg.batch; ++b) {
                    const std::uint64_t line =
                        base_line +
                        (i * cfg.batch + b) % lines_per_thread;
                    addrs[b] = line * cacheLineSize;
                }
                dev.readBatch(addrs, cfg.batch, vals);
                for (std::uint32_t b = 0; b < cfg.batch; ++b) {
                    sum += vals[b];
                    consume(workLoop(vals[b], cfg.workCount));
                }
            }
            (void)needed;
            checksums[t] = sum;
        });
    }

    const auto start = std::chrono::steady_clock::now();
    rt.run();
    const auto stop = std::chrono::steady_clock::now();

    // Verify the loaded data against the known image contents.
    for (std::uint32_t t = 0; t < cfg.threads; ++t) {
        std::uint64_t expect = 0;
        const std::uint64_t base_line = t * lines_per_thread;
        for (std::uint64_t i = 0; i < cfg.iterationsPerThread; ++i) {
            for (std::uint32_t b = 0; b < cfg.batch; ++b) {
                const std::uint64_t line =
                    base_line +
                    (i * cfg.batch + b) % lines_per_thread;
                expect += mix64(line * cacheLineSize);
            }
        }
        kmuAssert(checksums[t] == expect,
                  "thread %u checksum mismatch: data corruption", t);
    }

    HostBenchResult res;
    res.seconds = std::chrono::duration<double>(stop - start).count();
    res.iterations =
        std::uint64_t(cfg.threads) * cfg.iterationsPerThread;
    res.accesses = res.iterations * cfg.batch;
    res.timeouts = rt.engine().recovery().timeouts;
    if (res.seconds > 0.0) {
        res.accessesPerUs = double(res.accesses) / (res.seconds * 1e6);
        res.workInstrsPerUs =
            double(res.accesses) * cfg.workCount /
            (res.seconds * 1e6);
    }
    return res;
}

double
hostNormalized(const HostBenchResult &result,
               const HostBenchResult &baseline)
{
    kmuAssert(baseline.workInstrsPerUs > 0.0, "degenerate baseline");
    return result.workInstrsPerUs / baseline.workInstrsPerUs;
}

} // namespace kmu
