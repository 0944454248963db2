/**
 * @file
 * In-memory span recorder of the traced run, and the counting
 * allocator's controls.
 *
 * A span has a name, a start, an end, a parent and a lane; every span
 * of one process run shares the recorder's run id. Lane 0 is the
 * benchmark's own thread of control; lane k >= 1 is worker fiber k - 1.
 * A span's self time is its duration minus what its children *in the
 * same lane* cover. Same-lane children must lie inside their parent
 * and must not overlap each other, which makes self times add up to
 * the root's duration in every lane tree; checkSelfTimes() verifies
 * it. Spans in another lane than their parent (a fiber's body under
 * the run span) root a lane tree of their own, because fibers
 * interleave in wall time.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

struct Span
{
    std::uint32_t id = 0;     //!< 1-based; 0 means "no span"
    std::uint32_t parent = 0; //!< 0 for a root
    std::uint32_t lane = 0;
    const char *name = "";    //!< static string
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

class SpanRecorder
{
  public:
    explicit SpanRecorder(std::uint64_t runId);

    /** Nanoseconds on the recorder's steady clock. */
    static std::int64_t nowNs();

    /** Open a span starting now; returns its id. */
    std::uint32_t begin(const char *name, std::uint32_t parent,
                        std::uint32_t lane = 0);

    /** Close span @p id now. */
    void end(std::uint32_t id);

    /** Append a span recorded by a copy of this recorder (a forked
     *  rep); its id must be the next one. */
    void adopt(const Span &s);

    std::uint64_t dropped() const { return droppedSpans; }

    /** Append an already-closed span; returns its id. */
    std::uint32_t add(const char *name, std::uint32_t parent,
                      std::uint32_t lane, std::int64_t startNs,
                      std::int64_t endNs);

    const std::vector<Span> &spans() const { return all; }

    /** Spans the caller chose not to keep (counted for the file). */
    void noteDropped(std::uint64_t n) { droppedSpans += n; }

    /**
     * Check containment and non-overlap of same-lane children and
     * that self times sum to each lane root's duration. Returns an
     * error message, empty when the trees are consistent.
     */
    std::string checkSelfTimes() const;

    /** Self time summed per span name, in seconds. */
    std::map<std::string, double> selfSecondsByName() const;

    /** Write every span as JSON; false when the file cannot be
     *  written. */
    bool writeJson(const std::string &path,
                   const std::string &workload,
                   std::uint64_t seed) const;

  private:
    std::vector<std::int64_t> selfNs() const;

    std::uint64_t id;
    std::vector<Span> all;
    std::uint64_t droppedSpans = 0;
};

/** RAII span on lane 0; inert when the recorder is null. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const char *name, std::uint32_t parent)
        : rec(rec), spanId(rec ? rec->begin(name, parent) : 0)
    {
    }
    ~ScopedSpan()
    {
        if (rec)
            rec->end(spanId);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint32_t id() const { return spanId; }

  private:
    SpanRecorder *rec;
    std::uint32_t spanId;
};

/**
 * Counting allocator (global operator new of this binary). Counts
 * calls and bytes only while armed, so only the timed phase of a
 * traced rep is charged. Thread-safe: the emulated device thread
 * allocates too.
 */
namespace heap
{
void arm();
void disarm();
void reset();
std::uint64_t calls();
std::uint64_t bytes();

/** Allocate a known pattern and check the counts; returns an error
 *  message, empty on success. */
std::string selfTest();
} // namespace heap

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
