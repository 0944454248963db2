/**
 * @file
 * Unit tests for the tracing core: hook gating, ring wraparound,
 * clock selection, the binary file roundtrip, span summarization,
 * and the exporters.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include "common/units.hh"
#include "trace/export.hh"
#include "trace/trace.hh"

namespace
{

using namespace kmu;
using trace::Kind;
using trace::Phase;
using trace::Record;
using trace::TraceBuffer;

/** Installs a sink for the test body, always removes it on exit. */
class ScopedSink
{
  public:
    explicit ScopedSink(TraceBuffer &buf) { trace::setSink(&buf); }
    ~ScopedSink() { trace::setSink(nullptr); }
};

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

TEST(TraceHooks, NoSinkRecordsNothing)
{
    ASSERT_FALSE(trace::active());
    // With no sink these are pure no-ops; nothing to observe beyond
    // "does not crash", which is the contract for every figure bench.
    trace::begin(Kind::PcieTlp, 1);
    trace::end(Kind::PcieTlp, 1);
    trace::instant(Kind::Doorbell, 2);
    trace::counter(Kind::QueueDepth, 3, 7);

    TraceBuffer buf(16);
    {
        ScopedSink sink(buf);
        ASSERT_TRUE(trace::active());
        trace::begin(Kind::PcieTlp, 1, 5, 64);
        trace::end(Kind::PcieTlp, 1, 5);
    }
    ASSERT_FALSE(trace::active());
    trace::instant(Kind::Doorbell, 9); // after removal: dropped
    EXPECT_EQ(buf.recorded(), 2u);
    EXPECT_EQ(buf.size(), 2u);
    EXPECT_EQ(buf.at(0).phase, Phase::Begin);
    EXPECT_EQ(buf.at(0).id, 1u);
    EXPECT_EQ(buf.at(0).track, 5u);
    EXPECT_EQ(buf.at(0).arg, 64u);
    EXPECT_EQ(buf.at(1).phase, Phase::End);
}

TEST(TraceBufferTest, LogicalClockTicksPerRecord)
{
    TraceBuffer buf(8);
    buf.record(Kind::Doorbell, Phase::Instant, 0, 0, 0);
    buf.record(Kind::Doorbell, Phase::Instant, 0, 0, 0);
    buf.record(Kind::Doorbell, Phase::Instant, 0, 0, 0);
    EXPECT_EQ(buf.at(0).tick, 0u);
    EXPECT_EQ(buf.at(1).tick, 1u);
    EXPECT_EQ(buf.at(2).tick, 2u);
}

TEST(TraceBufferTest, InstalledClockStampsRecords)
{
    TraceBuffer buf(8);
    Tick now = 100;
    buf.setClock([&now] { return now; });
    buf.record(Kind::Doorbell, Phase::Instant, 0, 0, 0);
    now = 250;
    buf.record(Kind::Doorbell, Phase::Instant, 0, 0, 0);
    EXPECT_EQ(buf.at(0).tick, 100u);
    EXPECT_EQ(buf.at(1).tick, 250u);
}

TEST(TraceBufferTest, RingKeepsNewestRecords)
{
    TraceBuffer buf(4);
    for (std::uint64_t i = 0; i < 10; ++i)
        buf.record(Kind::Doorbell, Phase::Instant, i, 0, 0);
    EXPECT_EQ(buf.recorded(), 10u);
    EXPECT_EQ(buf.size(), 4u);
    // Oldest-first: ids 6, 7, 8, 9 survive.
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(buf.at(i).id, 6u + i);
    const std::vector<Record> snap = buf.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    EXPECT_EQ(snap.front().id, 6u);
    EXPECT_EQ(snap.back().id, 9u);
}

TEST(TraceBufferTest, ClearRestartsLogicalClock)
{
    TraceBuffer buf(4);
    buf.record(Kind::Doorbell, Phase::Instant, 0, 0, 0);
    buf.registerName(42, "answer");
    buf.clear();
    EXPECT_EQ(buf.recorded(), 0u);
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_TRUE(buf.names().empty());
    buf.record(Kind::Doorbell, Phase::Instant, 0, 0, 0);
    EXPECT_EQ(buf.at(0).tick, 0u);
}

TEST(TraceBufferTest, RegisterNameIsIdempotent)
{
    TraceBuffer buf(4);
    buf.registerName(7, "first");
    buf.registerName(7, "second"); // ignored: first wins
    buf.registerName(8, "other");
    const auto names = buf.names();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0].second, "first");
    EXPECT_EQ(names[1].second, "other");
}

TEST(TraceBufferTest, NameIdIsStableAndRegisters)
{
    const std::uint64_t id = trace::nameId("lfb0.in_use");
    EXPECT_EQ(id, trace::nameId("lfb0.in_use"));
    EXPECT_NE(id, trace::nameId("lfb1.in_use"));

    TraceBuffer buf(4);
    {
        ScopedSink sink(buf);
        trace::nameId("series_a");
    }
    const auto names = buf.names();
    ASSERT_EQ(names.size(), 1u);
    EXPECT_EQ(names[0].second, "series_a");
}

TEST(TraceBufferTest, FileRoundtripPreservesEverything)
{
    TraceBuffer buf(8);
    Tick now = 5;
    buf.setClock([&now] { return now; });
    buf.record(Kind::PcieTlp, Phase::Begin, 0x1234, 64, 3);
    now = 905;
    buf.record(Kind::PcieTlp, Phase::End, 0x1234, 0, 3);
    buf.record(Kind::QueueDepth, Phase::Counter, 99, 12, 1);
    buf.registerName(99, "swq0.requests");
    buf.registerName(trace::trackNameKey(3), "pcie.to_host");

    const std::string path = tempPath("roundtrip.kmt");
    buf.writeFile(path);
    const TraceBuffer::FileData data = TraceBuffer::readFile(path);

    EXPECT_EQ(data.ticksPerSec, tickPerSec);
    EXPECT_EQ(data.recorded, 3u);
    ASSERT_EQ(data.records.size(), 3u);
    EXPECT_EQ(data.records[0].tick, 5u);
    EXPECT_EQ(data.records[0].id, 0x1234u);
    EXPECT_EQ(data.records[0].arg, 64u);
    EXPECT_EQ(data.records[0].kind, Kind::PcieTlp);
    EXPECT_EQ(data.records[0].phase, Phase::Begin);
    EXPECT_EQ(data.records[0].track, 3u);
    EXPECT_EQ(data.records[1].tick, 905u);
    EXPECT_EQ(data.records[2].phase, Phase::Counter);
    ASSERT_EQ(data.names.size(), 2u);
    EXPECT_EQ(data.names[0].first, 99u);
    EXPECT_EQ(data.names[0].second, "swq0.requests");
    EXPECT_EQ(data.names[1].first, trace::trackNameKey(3));
    std::remove(path.c_str());
}

TEST(TraceBufferTest, WraparoundSurvivesRoundtrip)
{
    TraceBuffer buf(4);
    for (std::uint64_t i = 0; i < 7; ++i)
        buf.record(Kind::Doorbell, Phase::Instant, i, 0, 0);
    const std::string path = tempPath("wrap.kmt");
    buf.writeFile(path);
    const TraceBuffer::FileData data = TraceBuffer::readFile(path);
    EXPECT_EQ(data.recorded, 7u);
    ASSERT_EQ(data.records.size(), 4u);
    EXPECT_EQ(data.records.front().id, 3u);
    EXPECT_EQ(data.records.back().id, 6u);
    std::remove(path.c_str());
}

// A header whose record count times the record size wraps 64 bits
// (0x0AAAAAAAAAAAAAAB * 24 = 2^64 + 8) must still be caught as
// truncated, not reach reserve() and abort with std::length_error.
TEST(TraceBufferDeathTest, WrappingRecordCountIsTruncation)
{
    std::string blob = "KMUTRC01";
    auto put = [&blob](std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            blob.push_back(char((v >> (8 * i)) & 0xff));
    };
    put(tickPerSec);            // ticksPerSec
    put(0);                     // recorded
    put(0x0AAAAAAAAAAAAAABull); // retained
    put(0);
    put(0);
    ASSERT_EQ(blob.size(), 48u);

    const std::string path = tempPath("wrapcount.kmt");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(blob.data(), 1, blob.size(), f), blob.size());
    std::fclose(f);
    EXPECT_EXIT(TraceBuffer::readFile(path),
                ::testing::ExitedWithCode(1), "truncated");
    std::remove(path.c_str());
}

TEST(TraceKinds, NamesAreUniqueAndStable)
{
    std::set<std::string> seen;
    for (std::size_t k = 0; k < trace::kindCount; ++k) {
        const std::string name = trace::kindName(Kind(k));
        EXPECT_FALSE(name.empty());
        EXPECT_NE(name, "unknown");
        EXPECT_TRUE(seen.insert(name).second)
            << "duplicate kind name " << name;
    }
    EXPECT_STREQ(trace::kindName(Kind::PcieTlp), "pcie_tlp");
    EXPECT_STREQ(trace::kindName(Kind::LfbResident), "lfb_resident");
}

TraceBuffer::FileData
spanFixture()
{
    TraceBuffer buf(32);
    Tick now = 0;
    buf.setClock([&now] { return now; });
    // Two overlapping PcieTlp spans on one track, distinguished by
    // id, plus a reentrant (nested, same-key) LfbResident pair and
    // one orphan end.
    buf.record(Kind::PcieTlp, Phase::Begin, 1, 0, 0);     // t=0
    now = 100;
    buf.record(Kind::PcieTlp, Phase::Begin, 2, 0, 0);     // t=100
    now = 1000;
    buf.record(Kind::PcieTlp, Phase::End, 1, 0, 0);
    now = 1100;
    buf.record(Kind::PcieTlp, Phase::End, 2, 0, 0);
    now = 2000;
    buf.record(Kind::LfbResident, Phase::Begin, 7, 0, 0);
    now = 2100;
    buf.record(Kind::LfbResident, Phase::Begin, 7, 0, 0); // nested
    now = 2200;
    buf.record(Kind::LfbResident, Phase::End, 7, 0, 0);   // inner
    now = 2500;
    buf.record(Kind::LfbResident, Phase::End, 7, 0, 0);   // outer
    now = 3000;
    buf.record(Kind::DramRead, Phase::End, 5, 0, 0);      // orphan
    buf.record(Kind::DevService, Phase::Begin, 9, 0, 0);  // unclosed
    const std::string path =
        std::string(::testing::TempDir()) + "spans.kmt";
    buf.writeFile(path);
    TraceBuffer::FileData data = TraceBuffer::readFile(path);
    std::remove(path.c_str());
    return data;
}

const trace::KindSummary *
findKind(const std::vector<trace::KindSummary> &table, Kind kind)
{
    for (const trace::KindSummary &s : table) {
        if (s.kind == kind)
            return &s;
    }
    return nullptr;
}

TEST(TraceSummarize, MatchesOverlappingAndNestedSpans)
{
    const auto table = trace::summarize(spanFixture());

    const trace::KindSummary *tlp = findKind(table, Kind::PcieTlp);
    ASSERT_NE(tlp, nullptr);
    EXPECT_EQ(tlp->spans, 2u);
    EXPECT_EQ(tlp->unmatched, 0u);
    // Both spans are 1000 ticks = 1 ns at the ps tick base.
    EXPECT_DOUBLE_EQ(tlp->minNs, 1.0);
    EXPECT_DOUBLE_EQ(tlp->maxNs, 1.0);
    EXPECT_DOUBLE_EQ(tlp->meanNs(), 1.0);

    // Reentrant same-key spans pair LIFO: inner 100 ticks, outer 500.
    const trace::KindSummary *lfb =
        findKind(table, Kind::LfbResident);
    ASSERT_NE(lfb, nullptr);
    EXPECT_EQ(lfb->spans, 2u);
    EXPECT_DOUBLE_EQ(lfb->minNs, 0.1);
    EXPECT_DOUBLE_EQ(lfb->maxNs, 0.5);

    // An end with no live begin and a begin with no end both count
    // as unmatched, under their own kinds.
    const trace::KindSummary *dram = findKind(table, Kind::DramRead);
    ASSERT_NE(dram, nullptr);
    EXPECT_EQ(dram->spans, 0u);
    EXPECT_EQ(dram->unmatched, 1u);
    const trace::KindSummary *dev = findKind(table, Kind::DevService);
    ASSERT_NE(dev, nullptr);
    EXPECT_EQ(dev->unmatched, 1u);
}

TEST(TraceExport, SummaryCsvShapeIsStable)
{
    const std::string csv = trace::toSummaryCsv(spanFixture());
    EXPECT_EQ(csv.find("kind,begins,ends,instants,counters,spans,"
                       "unmatched,total_ns,mean_ns,min_ns,max_ns\n"),
              0u);
    EXPECT_NE(csv.find("\npcie_tlp,2,2,0,0,2,0,"), std::string::npos);
}

TEST(TraceExport, ChromeJsonCarriesTrackNamesAndEvents)
{
    TraceBuffer buf(16);
    Tick now = 1500000; // 1.5 us in ps ticks
    buf.setClock([&now] { return now; });
    buf.record(Kind::PcieTlp, Phase::Begin, 0xab, 64, 2);
    now = 2500000;
    buf.record(Kind::PcieTlp, Phase::End, 0xab, 0, 2);
    buf.record(Kind::Doorbell, Phase::Instant, 1, 0, 2);
    buf.record(Kind::QueueDepth, Phase::Counter, 99, 5, 2);
    buf.registerName(99, "swq0.requests");
    buf.registerName(trace::trackNameKey(2), "core2");

    const std::string path = tempPath("chrome.kmt");
    buf.writeFile(path);
    const std::string json =
        trace::toChromeJson(TraceBuffer::readFile(path));
    std::remove(path.c_str());

    EXPECT_EQ(json.find("{\"displayTimeUnit\":\"ns\""), 0u);
    // Track label metadata, async begin/end pair with a scoped id,
    // the instant, and the named counter series all present.
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"name\":\"core2\"}"),
              std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
    EXPECT_NE(json.find("\"id\":\"t2.ab\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\":1.500000"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"swq0.requests\",\"ph\":\"C\""),
              std::string::npos);
    // Balanced JSON framing.
    EXPECT_EQ(json.rfind("\n]}\n"), json.size() - 4);
}

} // anonymous namespace
