/**
 * @file
 * Real-host microbenchmark: the paper's loop on *this* machine.
 *
 * Runs the three mechanisms through the actual runtime (fibers, SPSC
 * queues, emulated device thread) and prints wall-clock throughput
 * and the watchdog re-issues (timeouts) each run needed.
 * On a machine without a spare core for the device thread the
 * SwQueue numbers are functional rather than representative — the
 * timing model (fig* benches) is the calibrated reproduction.
 */

#include <iostream>

#include "common/table.hh"
#include "ubench/microbenchmark.hh"

using namespace kmu;

int
main()
{
    Table table("Host microbenchmark — wall-clock throughput on this "
                "machine");
    table.setHeader({"mechanism", "threads", "batch",
                     "accesses/us", "work-instrs/us", "norm vs "
                     "on-demand", "timeouts"});

    HostBenchConfig base_cfg;
    base_cfg.mechanism = Mechanism::OnDemand;
    base_cfg.threads = 1;
    base_cfg.iterationsPerThread = 50000;
    base_cfg.regionBytes = 64 << 20;
    const auto base = runHostMicrobenchmark(base_cfg);

    struct Case
    {
        Mechanism mech;
        std::uint32_t threads;
        std::uint32_t batch;
    };
    const Case cases[] = {
        {Mechanism::OnDemand, 1, 1},  {Mechanism::Prefetch, 1, 1},
        {Mechanism::Prefetch, 4, 1},  {Mechanism::Prefetch, 10, 1},
        {Mechanism::Prefetch, 10, 4}, {Mechanism::SwQueue, 10, 1},
        {Mechanism::SwQueue, 10, 4},
    };

    for (const Case &c : cases) {
        HostBenchConfig cfg = base_cfg;
        cfg.mechanism = c.mech;
        cfg.threads = c.threads;
        cfg.batch = c.batch;
        cfg.iterationsPerThread = 50000 / c.threads + 1000;
        cfg.deviceLatency = std::chrono::microseconds(1);
        const auto res = runHostMicrobenchmark(cfg);
        table.addRow({mechanismName(c.mech),
                      Table::num(std::uint64_t(c.threads)),
                      Table::num(std::uint64_t(c.batch)),
                      Table::num(res.accessesPerUs, 2),
                      Table::num(res.workInstrsPerUs, 1),
                      Table::num(hostNormalized(res, base), 3),
                      Table::num(res.timeouts)});
    }

    table.printAscii(std::cout);
    table.writeCsvFile("host_microbench.csv");
    return 0;
}
