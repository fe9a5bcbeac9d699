#include "bfp/bfp.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/logging.h"

namespace bw {

BfpFormat
BfpFormat::parse(const std::string &s)
{
    BfpFormat f;
    int n = std::sscanf(s.c_str(), "%ds.%de.%dm", &f.signBits, &f.expBits,
                        &f.mantBits);
    if (n != 3 || f.signBits != 1 || f.expBits < 2 || f.expBits > 8 ||
        f.mantBits < 1 || f.mantBits > kMaxMantBits) {
        BW_FATAL("malformed BFP format string '%s' (expected e.g. '1s.5e.2m')",
                 s.c_str());
    }
    return f;
}

std::string
BfpFormat::toString() const
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%ds.%de.%dm", signBits, expBits,
                  mantBits);
    return buf;
}

BfpFormat
bfp152()
{
    return BfpFormat{1, 5, 2};
}

BfpFormat
bfp155()
{
    return BfpFormat{1, 5, 5};
}

double
bfpScale(int exp, const BfpFormat &fmt)
{
    return std::ldexp(1.0, exp - (fmt.mantBits - 1));
}

namespace {

/** Width of the fixed inner loops below, which the compiler turns into
 *  packed vector code; scalar tails take the remainder. */
constexpr size_t kLanes = 8;

/** Mantissas are int16_t: reject widths they cannot hold. */
void
checkMantBits(const BfpFormat &fmt)
{
    if (fmt.mantBits < 1 || fmt.mantBits > kMaxMantBits)
        BW_FATAL("BFP format %s: mantissa width must be in [1, %d] bits",
                 fmt.toString().c_str(), kMaxMantBits);
}

/**
 * Round to nearest, ties to even, for |x| <= 2^51: adding 1.5 * 2^52
 * moves x into [2^52, 2^53], where the double spacing is exactly 1, so
 * the sum is rounded to an integer under the default rounding mode and
 * the subtraction is exact. Equal to std::nearbyint there, without the
 * libm call; it needs IEEE double arithmetic (no -ffast-math).
 */
inline double
roundEven(double x)
{
    constexpr double kMagic = 6755399441055744.0; // 1.5 * 2^52
    return (x + kMagic) - kMagic;
}

} // namespace

int
bfpQuantize(std::span<const float> values, const BfpFormat &fmt,
            int16_t *mant)
{
    checkMantBits(fmt);
    const size_t n = values.size();
    const size_t body = n - n % kLanes;
    // Shared exponent: exponent of the largest magnitude in the block,
    // clamped to the representable 5-bit (by default) range.
    float lane_max[kLanes] = {};
    for (size_t i = 0; i < body; i += kLanes) {
        for (size_t l = 0; l < kLanes; ++l)
            lane_max[l] = std::max(lane_max[l], std::fabs(values[i + l]));
    }
    float max_abs = 0.0f;
    for (float m : lane_max)
        max_abs = std::max(max_abs, m);
    for (size_t i = body; i < n; ++i)
        max_abs = std::max(max_abs, std::fabs(values[i]));

    if (max_abs == 0.0f) {
        std::fill_n(mant, n, int16_t{0});
        return fmt.minExp();
    }

    int e = static_cast<int>(std::floor(std::log2(max_abs)));
    // If the block maximum would round past the largest mantissa, bump
    // the shared exponent so no element saturates (keeps quantization
    // error within half an LSB everywhere). The scaled maximum is below
    // 2^m here, well inside roundEven's range.
    if (roundEven(max_abs * std::ldexp(1.0, fmt.mantBits - 1 - e)) >
        fmt.maxMant()) {
        ++e;
    }
    e = std::min(std::max(e, fmt.minExp()), fmt.maxExp());

    // Mantissa scale: value = q * 2^(E - (m-1)), so q = v * 2^((m-1) - E).
    // Rounding is monotonic and the limits are integers, so clamping
    // before rounding equals clamping after it, and keeps |x| <= 2^15.
    const double inv_scale = std::ldexp(1.0, fmt.mantBits - 1 - e);
    const double lim = fmt.maxMant();
    auto quantize = [inv_scale, lim](float v) {
        double x = v * inv_scale;
        x = x > lim ? lim : x;
        x = x < -lim ? -lim : x;
        return static_cast<int16_t>(roundEven(x));
    };
    for (size_t i = 0; i < body; i += kLanes) {
        for (size_t l = 0; l < kLanes; ++l)
            mant[i + l] = quantize(values[i + l]);
    }
    for (size_t i = body; i < n; ++i)
        mant[i] = quantize(values[i]);
    return e;
}

// Cache-line aligned: the speed of the vectorized lane loop depends on
// where it lands relative to cache-line boundaries, so without this a
// change in unrelated code that shifts the link layout moves functional
// simulation time.
__attribute__((aligned(64))) int64_t
bfpMantDot(const int16_t *a, const int16_t *b, size_t n,
           int64_t max_product)
{
    // kLanes 32-bit lanes, each adding at most per_lane products before
    // the lanes are flushed into the 64-bit total.
    BW_ASSERT(max_product > 0 && max_product <= INT32_MAX);
    const size_t per_lane = static_cast<size_t>(INT32_MAX / max_product);
    int64_t total = 0;
    size_t i = 0;
    while (n - i >= kLanes) {
        size_t stop = i + std::min((n - i) / kLanes, per_lane) * kLanes;
        int32_t lane[kLanes] = {};
        for (; i < stop; i += kLanes) {
            for (size_t l = 0; l < kLanes; ++l)
                lane[l] += static_cast<int32_t>(a[i + l]) * b[i + l];
        }
        for (int32_t v : lane)
            total += v;
    }
    for (; i < n; ++i)
        total += static_cast<int32_t>(a[i]) * b[i];
    return total;
}

BfpBlock::BfpBlock(std::span<const float> values, const BfpFormat &fmt)
    : fmt_(fmt), mant_(values.size())
{
    exp_ = bfpQuantize(values, fmt_, mant_.data());
}

float
BfpBlock::dequant(size_t i) const
{
    BW_ASSERT(i < mant_.size());
    return static_cast<float>(mant_[i] * scale());
}

std::vector<float>
BfpBlock::dequantAll() const
{
    std::vector<float> out(mant_.size());
    for (size_t i = 0; i < mant_.size(); ++i)
        out[i] = dequant(i);
    return out;
}

double
BfpBlock::dot(const BfpBlock &a, const BfpBlock &b)
{
    if (a.size() != b.size())
        BW_FATAL("BFP dot of unequal blocks (%zu vs %zu)", a.size(),
                 b.size());
    // Hardware integer MAC tree: products and sums are exact in wide
    // integer; a single scale is applied to the final accumulator.
    int64_t acc = bfpMantDot(
        a.mant_.data(), b.mant_.data(), a.size(),
        static_cast<int64_t>(a.fmt_.maxMant()) * b.fmt_.maxMant());
    return static_cast<double>(acc) * a.scale() * b.scale();
}

std::vector<float>
bfpRoundTrip(std::span<const float> v, const BfpFormat &fmt)
{
    return BfpBlock(v, fmt).dequantAll();
}

QuantError
measureQuantError(std::span<const float> ref, std::span<const float> q)
{
    BW_ASSERT(ref.size() == q.size());
    QuantError e;
    double sum_sq = 0.0, ref_sq = 0.0;
    for (size_t i = 0; i < ref.size(); ++i) {
        double d = static_cast<double>(ref[i]) - q[i];
        e.maxAbs = std::max(e.maxAbs, std::fabs(d));
        sum_sq += d * d;
        ref_sq += static_cast<double>(ref[i]) * ref[i];
    }
    if (!ref.empty()) {
        e.rmse = std::sqrt(sum_sq / ref.size());
        double ref_rms = std::sqrt(ref_sq / ref.size());
        e.relRmse = ref_rms > 0.0 ? e.rmse / ref_rms : 0.0;
    }
    return e;
}

} // namespace bw
