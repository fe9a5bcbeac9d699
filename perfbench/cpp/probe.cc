#include "probe.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
secondsSince(uint64_t t0_ns)
{
    return static_cast<double>(nowNs() - t0_ns) * 1e-9;
}

long
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtol(line.c_str() + 6, nullptr, 10);
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss; // KiB on Linux
}

void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

void
Digest::add(std::string_view bytes)
{
    for (unsigned char c : bytes) {
        h_ ^= c;
        h_ *= 0x100000001b3ull;
    }
    bytes_ += bytes.size();
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

std::string
digestOf(std::string_view bytes)
{
    Digest d;
    d.add(bytes);
    return d.hex();
}

namespace {

/** Bucket of @p v: octave (bit width) times kSub plus the next four
 *  bits below the leading one. Values below kSub map to themselves. */
unsigned
bucketOf(uint64_t v)
{
    if (v < Tally::kSub)
        return static_cast<unsigned>(v);
    unsigned width = static_cast<unsigned>(std::bit_width(v)); // >= 5
    unsigned sub = static_cast<unsigned>((v >> (width - 5)) & 0xF);
    return (width - 4) * Tally::kSub + sub;
}

/** [lo, hi) value range of bucket @p b (inverse of bucketOf). */
void
bucketRange(unsigned b, double *lo, double *hi)
{
    if (b < Tally::kSub) {
        *lo = b;
        *hi = b + 1;
        return;
    }
    unsigned width = b / Tally::kSub + 4;
    unsigned sub = b % Tally::kSub;
    double step = static_cast<double>(1ull << (width - 5));
    *lo = (Tally::kSub + sub) * step;
    *hi = *lo + step;
}

} // namespace

void
Tally::add(uint64_t ns)
{
    ++count;
    totalNs += ns;
    ++hist[std::min(bucketOf(ns), kBuckets - 1)];
}

double
Tally::quantileNs(double q) const
{
    if (count == 0)
        return 0;
    double rank = q * static_cast<double>(count - 1);
    uint64_t seen = 0;
    for (unsigned b = 0; b < kBuckets; ++b) {
        if (hist[b] == 0)
            continue;
        if (rank < static_cast<double>(seen + hist[b])) {
            double lo, hi;
            bucketRange(b, &lo, &hi);
            double frac = (rank - static_cast<double>(seen) + 0.5) /
                          static_cast<double>(hist[b]);
            return lo + frac * (hi - lo);
        }
        seen += hist[b];
    }
    return 0;
}

int32_t
Tracer::open(std::string_view name)
{
    Span s;
    s.name = std::string(name);
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    int32_t id = static_cast<int32_t>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
}

void
Tracer::close(int32_t id)
{
    spans_[id].endNs = nowNs();
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

void
Tracer::setBytes(int32_t id, uint64_t bytes)
{
    spans_[id].bytes = bytes;
}

Tally &
Tracer::tally(std::string_view name)
{
    TallyRec r;
    r.name = std::string(name);
    r.parent = stack_.empty() ? -1 : stack_.back();
    tallies_.push_back(std::move(r));
    return tallies_.back().tally;
}

bw::Json
Tracer::toJson() const
{
    uint64_t t0 = spans_.empty() ? 0 : spans_.front().startNs;
    bw::Json spans = bw::Json::array();
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        bw::Json j = bw::Json::object();
        j.set("id", static_cast<int64_t>(i));
        j.set("name", s.name);
        j.set("parent", static_cast<int64_t>(s.parent));
        j.set("start_ns", s.startNs - t0);
        j.set("end_ns", s.endNs - t0);
        if (s.bytes)
            j.set("bytes", s.bytes);
        spans.push(std::move(j));
    }
    bw::Json tallies = bw::Json::array();
    for (const TallyRec &r : tallies_) {
        bw::Json j = bw::Json::object();
        j.set("name", r.name);
        j.set("parent", static_cast<int64_t>(r.parent));
        j.set("count", r.tally.count);
        j.set("total_ns", r.tally.totalNs);
        j.set("p50_ns", r.tally.quantileNs(0.5));
        j.set("p999_ns", r.tally.quantileNs(0.999));
        tallies.push(std::move(j));
    }
    bw::Json doc = bw::Json::object();
    doc.set("spans", std::move(spans));
    doc.set("tallies", std::move(tallies));
    return doc;
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

} // namespace perfbench
