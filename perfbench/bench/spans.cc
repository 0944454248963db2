#include "spans.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench
{

SpanRecorder::SpanRecorder(std::uint64_t runId) : id(runId)
{
    all.reserve(4096);
}

std::int64_t
SpanRecorder::nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint32_t
SpanRecorder::begin(const char *name, std::uint32_t parent,
                    std::uint32_t lane)
{
    const std::int64_t t = nowNs();
    return add(name, parent, lane, t, t);
}

void
SpanRecorder::end(std::uint32_t spanId)
{
    all.at(spanId - 1).endNs = nowNs();
}

std::uint32_t
SpanRecorder::add(const char *name, std::uint32_t parent,
                  std::uint32_t lane, std::int64_t startNs,
                  std::int64_t endNs)
{
    Span s;
    s.id = std::uint32_t(all.size() + 1);
    s.parent = parent;
    s.lane = lane;
    s.name = name;
    s.startNs = startNs;
    s.endNs = endNs;
    all.push_back(s);
    return s.id;
}

void
SpanRecorder::adopt(const Span &s)
{
    if (s.id != all.size() + 1)
        throw std::runtime_error("adopted span out of sequence");
    all.push_back(s);
}

std::vector<std::int64_t>
SpanRecorder::selfNs() const
{
    std::vector<std::int64_t> self(all.size());
    for (const Span &s : all)
        self[s.id - 1] = s.endNs - s.startNs;
    for (const Span &s : all) {
        if (s.parent == 0)
            continue;
        const Span &p = all[s.parent - 1];
        if (p.lane == s.lane)
            self[p.id - 1] -= s.endNs - s.startNs;
    }
    return self;
}

std::string
SpanRecorder::checkSelfTimes() const
{
    char msg[256];
    // Same-lane children of each span, by start time.
    std::vector<std::vector<const Span *>> kids(all.size());
    for (const Span &s : all) {
        if (s.endNs < s.startNs) {
            std::snprintf(msg, sizeof msg, "span %u (%s) ends before "
                          "it starts", s.id, s.name);
            return msg;
        }
        if (s.parent >= s.id) {
            std::snprintf(msg, sizeof msg, "span %u (%s) precedes its "
                          "parent %u", s.id, s.name, s.parent);
            return msg;
        }
        if (s.parent != 0 && all[s.parent - 1].lane == s.lane)
            kids[s.parent - 1].push_back(&s);
    }
    for (const Span &p : all) {
        auto &k = kids[p.id - 1];
        std::sort(k.begin(), k.end(), [](const Span *a, const Span *b) {
            return a->startNs < b->startNs;
        });
        std::int64_t cursor = p.startNs;
        for (const Span *c : k) {
            if (c->startNs < cursor || c->endNs > p.endNs) {
                std::snprintf(msg, sizeof msg,
                              "span %u (%s) overlaps a sibling or "
                              "leaves its parent %u (%s)",
                              c->id, c->name, p.id, p.name);
                return msg;
            }
            cursor = c->endNs;
        }
    }
    // Self times of every lane tree add up to its root's duration.
    const std::vector<std::int64_t> self = selfNs();
    std::vector<std::int64_t> treeSelf(all.size(), 0);
    std::vector<std::uint32_t> root(all.size(), 0);
    for (const Span &s : all) { // parents precede children
        const bool isRoot =
            s.parent == 0 || all[s.parent - 1].lane != s.lane;
        root[s.id - 1] = isRoot ? s.id : root[s.parent - 1];
        treeSelf[root[s.id - 1] - 1] += self[s.id - 1];
    }
    for (const Span &s : all) {
        if (root[s.id - 1] != s.id)
            continue;
        if (treeSelf[s.id - 1] != s.endNs - s.startNs) {
            std::snprintf(msg, sizeof msg,
                          "self times under span %u (%s) sum to %lld "
                          "ns, not its %lld ns",
                          s.id, s.name,
                          (long long)treeSelf[s.id - 1],
                          (long long)(s.endNs - s.startNs));
            return msg;
        }
    }
    return {};
}

std::map<std::string, double>
SpanRecorder::selfSecondsByName() const
{
    const std::vector<std::int64_t> self = selfNs();
    std::map<std::string, double> out;
    for (const Span &s : all)
        out[s.name] += double(self[s.id - 1]) * 1e-9;
    return out;
}

bool
SpanRecorder::writeJson(const std::string &path,
                        const std::string &workload,
                        std::uint64_t seed) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    const std::vector<std::int64_t> self = selfNs();
    const std::int64_t t0 = all.empty() ? 0 : all.front().startNs;
    os << "{\"run_id\": " << id << ", \"workload\": \"" << workload
       << "\", \"seed\": " << seed
       << ", \"dropped_spans\": " << droppedSpans << ", \"spans\": [\n";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        os << "{\"id\": " << s.id << ", \"parent\": " << s.parent
           << ", \"lane\": " << s.lane << ", \"name\": \"" << s.name
           << "\", \"start_ns\": " << (s.startNs - t0)
           << ", \"end_ns\": " << (s.endNs - t0)
           << ", \"self_ns\": " << self[i] << "}"
           << (i + 1 < all.size() ? ",\n" : "\n");
    }
    os << "]}\n";
    return bool(os);
}

} // namespace perfbench
