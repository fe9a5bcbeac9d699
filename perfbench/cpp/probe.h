/**
 * @file
 * Host-side measurement for the benchmark: a monotonic clock, a running
 * digest of output bytes, peak-RSS readout, and the span tracer the
 * traced run wraps around calls into the library.
 *
 * Spans live in memory and are written out once, at exit. Boundaries
 * crossed once per request (TrafficStream::next, the route-decision
 * sink) keep a Tally instead of a span per call: a count, a total and a
 * log-linear histogram of per-call nanoseconds.
 */

#ifndef PERFBENCH_PROBE_H
#define PERFBENCH_PROBE_H

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"

namespace perfbench {

/** Nanoseconds on std::chrono::steady_clock. */
uint64_t nowNs();

/** Seconds elapsed since @p t0_ns (a nowNs() reading). */
double secondsSince(uint64_t t0_ns);

/** Peak resident set of this process, KiB: since the last
 *  resetPeakRss(), else since start. */
long peakRssKb();

/** Restart the peak-RSS high-water mark at the current resident set
 *  (Linux /proc/self/clear_refs); a no-op where that is unavailable. */
void resetPeakRss();

/** FNV-1a 64 over a byte stream fed in chunks of any size. */
class Digest
{
  public:
    void add(std::string_view bytes);
    uint64_t bytes() const { return bytes_; }
    std::string hex() const;

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
    uint64_t bytes_ = 0;
};

/** Digest of one whole string. */
std::string digestOf(std::string_view bytes);

/** Per-call latency tally with a log-linear histogram (16 sub-buckets
 *  per power of two, so quantiles are within ~4% of the true value). */
struct Tally
{
    static constexpr unsigned kSub = 16;
    static constexpr unsigned kBuckets = 64 * kSub;

    uint64_t count = 0;
    uint64_t totalNs = 0;
    std::array<uint64_t, kBuckets> hist{};

    void add(uint64_t ns);
    /** Interpolated quantile @p q in [0, 1], nanoseconds. */
    double quantileNs(double q) const;
};

/**
 * Span recorder. open() pushes a span whose parent is the innermost
 * open span; close() pops it. tally() returns a per-call tally attached
 * to the innermost open span. Not thread-safe: every workload is
 * single-threaded.
 */
class Tracer
{
  public:
    int32_t open(std::string_view name);
    void close(int32_t id);

    /** Attach @p bytes of output to span @p id (for MB/s figures). */
    void setBytes(int32_t id, uint64_t bytes);

    Tally &tally(std::string_view name);

    /** {"spans":[...],"tallies":[...]}; times relative to the first
     *  span's start. */
    bw::Json toJson() const;

  private:
    struct Span
    {
        std::string name;
        int32_t parent = -1;
        uint64_t startNs = 0;
        uint64_t endNs = 0;
        uint64_t bytes = 0;
    };
    struct TallyRec
    {
        std::string name;
        int32_t parent = -1;
        Tally tally;
    };

    std::vector<Span> spans_;
    std::vector<int32_t> stack_;
    std::deque<TallyRec> tallies_; // stable addresses
};

/** RAII span; a null tracer records nothing. */
class Scope
{
  public:
    Scope(Tracer *t, std::string_view name)
        : t_(t), id_(t ? t->open(name) : -1)
    {
    }
    ~Scope()
    {
        if (t_)
            t_->close(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void setBytes(uint64_t bytes)
    {
        if (t_)
            t_->setBytes(id_, bytes);
    }

  private:
    Tracer *t_;
    int32_t id_;
};

/** Median of @p xs (0 when empty). */
double median(std::vector<double> xs);

} // namespace perfbench

#endif // PERFBENCH_PROBE_H
