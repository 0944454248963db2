/**
 * @file
 * TraceBuffer implementation and the binary trace file format.
 *
 * File layout (all integers little-endian):
 *   magic            8 bytes  "KMUTRC01"
 *   ticksPerSec      u64      tick base (ps => 1e12)
 *   recorded         u64      total records ever recorded
 *   retained         u64      records present in this file
 *   records          retained * 24 bytes (tick u64, id u64, arg u32,
 *                             kind u8, phase u8, track u16)
 *   nameCount        u64
 *   names            nameCount * (id u64, len u32, bytes)
 */

#include "trace/trace.hh"

#include <cstdio>

#include "common/logging.hh"
#include "common/units.hh"

namespace kmu
{
namespace trace
{

namespace
{

constexpr char fileMagic[8] =
    { 'K', 'M', 'U', 'T', 'R', 'C', '0', '1' };

void
putU16(std::string &out, std::uint16_t v)
{
    out.push_back(char(v & 0xff));
    out.push_back(char((v >> 8) & 0xff));
}

void
putU32(std::string &out, std::uint32_t v)
{
    putU16(out, std::uint16_t(v & 0xffff));
    putU16(out, std::uint16_t(v >> 16));
}

void
putU64(std::string &out, std::uint64_t v)
{
    putU32(out, std::uint32_t(v & 0xffffffffu));
    putU32(out, std::uint32_t(v >> 32));
}

class Reader
{
  public:
    Reader(const std::string &blob, const std::string &file)
        : data(blob), path(file) {}

    std::uint8_t
    u8()
    {
        need(1);
        return std::uint8_t(data[pos++]);
    }

    std::uint16_t
    u16()
    {
        std::uint16_t lo = u8();
        return std::uint16_t(lo | (std::uint16_t(u8()) << 8));
    }

    std::uint32_t
    u32()
    {
        std::uint32_t lo = u16();
        return lo | (std::uint32_t(u16()) << 16);
    }

    std::uint64_t
    u64()
    {
        std::uint64_t lo = u32();
        return lo | (std::uint64_t(u32()) << 32);
    }

    std::string
    bytes(std::size_t n)
    {
        need(n);
        std::string out = data.substr(pos, n);
        pos += n;
        return out;
    }

    std::size_t remaining() const { return data.size() - pos; }

  private:
    void
    need(std::size_t n)
    {
        if (data.size() - pos < n) {
            fatal("trace file '%s' is truncated (need %zu bytes at "
                  "offset %zu, have %zu)",
                  path.c_str(), n, pos, data.size() - pos);
        }
    }

    const std::string &data;
    const std::string &path;
    std::size_t pos = 0;
};

} // namespace

const char *
kindName(Kind kind)
{
    switch (kind) {
      case Kind::AccessRead: return "access_read";
      case Kind::AccessWrite: return "access_write";
      case Kind::FiberRun: return "fiber_run";
      case Kind::FiberBlock: return "fiber_block";
      case Kind::FiberUnblock: return "fiber_unblock";
      case Kind::LfbResident: return "lfb_resident";
      case Kind::LfbMerge: return "lfb_merge";
      case Kind::LfbReject: return "lfb_reject";
      case Kind::UncoreEnter: return "uncore_enter";
      case Kind::UncoreStall: return "uncore_stall";
      case Kind::PcieTlp: return "pcie_tlp";
      case Kind::DramRead: return "dram_read";
      case Kind::DevService: return "dev_service";
      case Kind::DevReplayMatch: return "dev_replay_match";
      case Kind::DevReplayMiss: return "dev_replay_miss";
      case Kind::DevWrite: return "dev_write";
      case Kind::Doorbell: return "doorbell";
      case Kind::DescBurst: return "desc_burst";
      case Kind::DescService: return "desc_service";
      case Kind::Completion: return "completion";
      case Kind::QueueDepth: return "queue_depth";
      case Kind::HealthState: return "health_state";
      case Kind::Request: return "request";
    }
    return "unknown";
}

TraceBuffer::TraceBuffer(std::size_t cap)
{
    kmuAssert(cap > 0, "TraceBuffer capacity must be positive");
    ring.reserve(cap);
    ring.resize(cap);
}

void
TraceBuffer::setClock(Clock c)
{
    std::lock_guard<std::mutex> lock(mutex);
    clock = std::move(c);
}

void
TraceBuffer::record(Kind kind, Phase phase, std::uint64_t id,
                    std::uint32_t arg, std::uint16_t track)
{
    std::lock_guard<std::mutex> lock(mutex);
    Record &slot = ring[total % ring.size()];
    slot.tick = clock ? clock() : logicalNow++;
    slot.id = id;
    slot.arg = arg;
    slot.kind = kind;
    slot.phase = phase;
    slot.track = track;
    ++total;
}

void
TraceBuffer::registerName(std::uint64_t id, const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex);
    for (const auto &entry : nameTable) {
        if (entry.first == id)
            return;
    }
    nameTable.emplace_back(id, name);
}

std::uint64_t
TraceBuffer::recorded() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return total;
}

std::size_t
TraceBuffer::size() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return total < ring.size() ? std::size_t(total) : ring.size();
}

Record
TraceBuffer::at(std::size_t i) const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::size_t retained =
        total < ring.size() ? std::size_t(total) : ring.size();
    kmuAssert(i < retained, "TraceBuffer::at out of range");
    std::size_t oldest =
        total < ring.size() ? 0 : std::size_t(total % ring.size());
    return ring[(oldest + i) % ring.size()];
}

std::vector<Record>
TraceBuffer::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::size_t retained =
        total < ring.size() ? std::size_t(total) : ring.size();
    std::size_t oldest =
        total < ring.size() ? 0 : std::size_t(total % ring.size());
    std::vector<Record> out;
    out.reserve(retained);
    for (std::size_t i = 0; i < retained; ++i)
        out.push_back(ring[(oldest + i) % ring.size()]);
    return out;
}

std::vector<std::pair<std::uint64_t, std::string>>
TraceBuffer::names() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return nameTable;
}

void
TraceBuffer::clear()
{
    std::lock_guard<std::mutex> lock(mutex);
    total = 0;
    logicalNow = 0;
    nameTable.clear();
}

void
TraceBuffer::writeFile(const std::string &path) const
{
    std::string blob;
    {
        std::lock_guard<std::mutex> lock(mutex);
        std::size_t retained =
            total < ring.size() ? std::size_t(total) : ring.size();
        std::size_t oldest =
            total < ring.size() ? 0
                                : std::size_t(total % ring.size());
        blob.reserve(8 + 24 + retained * recordWireBytes);
        blob.append(fileMagic, sizeof(fileMagic));
        putU64(blob, tickPerSec);
        putU64(blob, total);
        putU64(blob, retained);
        for (std::size_t i = 0; i < retained; ++i) {
            const Record &r = ring[(oldest + i) % ring.size()];
            putU64(blob, r.tick);
            putU64(blob, r.id);
            putU32(blob, r.arg);
            blob.push_back(char(r.kind));
            blob.push_back(char(r.phase));
            putU16(blob, r.track);
        }
        putU64(blob, nameTable.size());
        for (const auto &entry : nameTable) {
            putU64(blob, entry.first);
            putU32(blob, std::uint32_t(entry.second.size()));
            blob.append(entry.second);
        }
    }

    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        fatal("cannot open trace file '%s' for writing", path.c_str());
    std::size_t wrote =
        std::fwrite(blob.data(), 1, blob.size(), f);
    bool flushed = std::fflush(f) == 0;
    std::fclose(f);
    if (wrote != blob.size() || !flushed)
        fatal("short write to trace file '%s'", path.c_str());
}

TraceBuffer::FileData
TraceBuffer::readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        fatal("cannot open trace file '%s'", path.c_str());
    std::string data;
    char chunk[1 << 16];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        data.append(chunk, n);
    std::fclose(f);

    Reader in(data, path);
    std::string magic = in.bytes(sizeof(fileMagic));
    if (magic != std::string(fileMagic, sizeof(fileMagic)))
        fatal("'%s' is not a kmu trace file (bad magic)",
              path.c_str());

    FileData out;
    out.ticksPerSec = in.u64();
    out.recorded = in.u64();
    std::uint64_t retained = in.u64();
    // Divide, not multiply: a crafted count must not wrap the check.
    if (retained > in.remaining() / recordWireBytes)
        fatal("trace file '%s' is truncated (header claims %llu "
              "records)", path.c_str(),
              static_cast<unsigned long long>(retained));
    out.records.reserve(std::size_t(retained));
    for (std::uint64_t i = 0; i < retained; ++i) {
        Record r;
        r.tick = in.u64();
        r.id = in.u64();
        r.arg = in.u32();
        r.kind = Kind(in.u8());
        r.phase = Phase(in.u8());
        r.track = in.u16();
        if (std::size_t(r.kind) >= kindCount)
            fatal("trace file '%s': record %llu has bad kind %u",
                  path.c_str(), static_cast<unsigned long long>(i),
                  unsigned(r.kind));
        out.records.push_back(r);
    }
    std::uint64_t nameCount = in.u64();
    for (std::uint64_t i = 0; i < nameCount; ++i) {
        std::uint64_t id = in.u64();
        std::uint32_t len = in.u32();
        out.names.emplace_back(id, in.bytes(len));
    }
    return out;
}

namespace detail
{
std::atomic<TraceBuffer *> gSink
    KMU_ATOMIC_ROLE(main_installs, all_read){nullptr};
} // namespace detail

void
setSink(TraceBuffer *buffer)
{
    detail::gSink.store(buffer, std::memory_order_release);
}

std::uint64_t
nameId(const std::string &name)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : name) {
        h ^= std::uint64_t(std::uint8_t(c));
        h *= 0x100000001b3ull;
    }
    if (TraceBuffer *s = sink())
        s->registerName(h, name);
    return h;
}

} // namespace trace
} // namespace kmu
