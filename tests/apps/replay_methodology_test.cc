/**
 * @file
 * End-to-end test of the paper's two-run record-and-replay
 * methodology (Section IV-A):
 *
 *   run 1: execute the application, recording the sequence of
 *          device line addresses it reads;
 *   run 2: execute it again against the device with the recording
 *          loaded into the replay checker — every request must match
 *          the pre-recorded stream.
 *
 * Also checks the negative: replaying a *different* execution
 * produces misses (which the real FPGA would serve from its
 * on-demand module).
 */

#include <gtest/gtest.h>

#include "access/runtime.hh"
#include "apps/graph/bfs.hh"

namespace kmu
{
namespace
{

/** Engine decorator recording every read's line address in order. */
class AddressRecorder : public AccessEngine
{
  public:
    AddressRecorder(AccessEngine &inner, std::vector<Addr> &out)
        : inner(inner), out(out)
    {
    }

    std::uint64_t
    read64(Addr addr) override
    {
        out.push_back(lineAlign(addr));
        return inner.read64(addr);
    }

    void
    readBatch(const Addr *addrs, std::size_t n,
              std::uint64_t *vals) override
    {
        for (std::size_t i = 0; i < n; ++i)
            out.push_back(lineAlign(addrs[i]));
        inner.readBatch(addrs, n, vals);
    }

    void
    readLines(const Addr *addrs, std::size_t n, void *dst) override
    {
        for (std::size_t i = 0; i < n; ++i)
            out.push_back(lineAlign(addrs[i]));
        inner.readLines(addrs, n, dst);
    }

    void
    writeLine(Addr addr, const void *line) override
    {
        inner.writeLine(addr, line);
    }

    void
    write64(Addr addr, std::uint64_t value) override
    {
        inner.write64(addr, value);
    }

    Mechanism mechanism() const override { return inner.mechanism(); }

  private:
    AccessEngine &inner;
    std::vector<Addr> &out;
};

struct BfsSetup
{
    BfsSetup()
        : params{10, 16, 99},
          graph(params.vertices(), generateKronecker(params)),
          image(buildDeviceImage(graph, layout)),
          source(graph.maxDegreeVertex())
    {
    }

    KroneckerParams params;
    CsrGraph graph;
    DeviceGraphLayout layout;
    std::vector<std::uint8_t> image;
    std::uint64_t source;
};

std::vector<Addr>
recordBfs(const BfsSetup &setup, std::uint64_t source,
          BfsResult *result_out = nullptr)
{
    Runtime rt(setup.image, {.mechanism = Mechanism::OnDemand});
    std::vector<Addr> recording;
    BfsResult res;
    rt.spawnWorker([&](AccessEngine &dev) {
        AddressRecorder recorder(dev, recording);
        res = bfsDevice(recorder, setup.layout, source);
    });
    rt.run();
    if (result_out)
        *result_out = res;
    return recording;
}

TEST(ReplayMethodologyTest, SecondRunMatchesRecordingExactly)
{
    BfsSetup setup;
    BfsResult recorded_result;
    const auto recording =
        recordBfs(setup, setup.source, &recorded_result);
    ASSERT_GT(recording.size(), 1000u);

    // Run 2: same BFS against the software-queue device with the
    // recording loaded into the replay checker. The manual-pump
    // device keeps the run free of OS scheduling: a starved device
    // thread would let the watchdog re-issue requests, and each
    // duplicate counts as a replay miss.
    Runtime rt(setup.image,
               {.mechanism = Mechanism::SwQueue,
                .deterministicDevice = true});
    rt.emulatedDevice()->enableReplayCheck(rt.queuePairIndex(),
                                           recording, 64);
    BfsResult replayed;
    rt.spawnWorker([&](AccessEngine &dev) {
        replayed = bfsDevice(dev, setup.layout, setup.source);
    });
    rt.run();

    EXPECT_EQ(rt.emulatedDevice()->replayMisses(), 0u)
        << "a deterministic re-execution must match its recording";
    EXPECT_EQ(replayed.level, recorded_result.level);
    EXPECT_EQ(replayed.reached, recorded_result.reached);
}

TEST(ReplayMethodologyTest, DifferentExecutionMisses)
{
    BfsSetup setup;
    const auto recording = recordBfs(setup, setup.source);

    // Replay a BFS from a different source against the recording of
    // the original one: the streams diverge and requests miss.
    std::uint64_t other = setup.source;
    for (std::uint64_t v = 0; v < setup.graph.vertexCount(); ++v) {
        if (v != setup.source && !setup.graph.neighbors(v).empty()) {
            other = v;
            break;
        }
    }
    ASSERT_NE(other, setup.source);

    Runtime rt(setup.image,
               {.mechanism = Mechanism::SwQueue,
                .deviceLatency = std::chrono::nanoseconds(200)});
    rt.emulatedDevice()->enableReplayCheck(rt.queuePairIndex(),
                                           recording, 64);
    BfsResult replayed;
    rt.spawnWorker([&](AccessEngine &dev) {
        replayed = bfsDevice(dev, setup.layout, other);
    });
    rt.run();

    // Results are still *correct* — the on-demand fallback path —
    // but the replay checker reports spurious requests.
    EXPECT_GT(rt.emulatedDevice()->replayMisses(), 0u);
    const BfsResult expect = bfsReference(setup.graph, other);
    EXPECT_EQ(replayed.level, expect.level);
}

} // anonymous namespace
} // namespace kmu
