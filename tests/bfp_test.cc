/**
 * @file
 * Block floating point tests: format parsing, quantization error bounds
 * across mantissa widths (the paper's 2-5 bit range), exact integer dot
 * products, and the Section VI claim that narrow BFP preserves dot-
 * product accuracy.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "bfp/bfp.h"
#include "common/rng.h"
#include "tensor/tensor.h"

namespace bw {
namespace {

TEST(BfpFormat, ParseAndPrint)
{
    BfpFormat f = BfpFormat::parse("1s.5e.2m");
    EXPECT_EQ(f.signBits, 1);
    EXPECT_EQ(f.expBits, 5);
    EXPECT_EQ(f.mantBits, 2);
    EXPECT_EQ(f.toString(), "1s.5e.2m");
    EXPECT_EQ(f, bfp152());
    EXPECT_EQ(BfpFormat::parse("1s.5e.5m"), bfp155());
}

TEST(BfpFormat, ParseRejectsMalformed)
{
    EXPECT_THROW(BfpFormat::parse("garbage"), Error);
    EXPECT_THROW(BfpFormat::parse("2s.5e.2m"), Error); // sign must be 1
    EXPECT_THROW(BfpFormat::parse("1s.9e.2m"), Error);
    EXPECT_THROW(BfpFormat::parse("1s.5e.0m"), Error);
}

TEST(BfpFormat, MantissaWidthCappedAtInt16)
{
    // Mantissas are stored as int16_t: 15 bits is the widest format.
    BfpFormat f = BfpFormat::parse("1s.5e.15m");
    EXPECT_EQ(f.mantBits, kMaxMantBits);
    EXPECT_EQ(f.maxMant(), INT16_MAX);
    EXPECT_THROW(BfpFormat::parse("1s.5e.16m"), Error);
    EXPECT_THROW(BfpFormat::parse("1s.5e.23m"), Error);
}

TEST(BfpFormat, DerivedFields)
{
    BfpFormat f = bfp152();
    EXPECT_EQ(f.elemBits(), 3);
    EXPECT_EQ(f.maxMant(), 3);
    EXPECT_EQ(f.bias(), 15);
    EXPECT_EQ(f.minExp(), -15);
    EXPECT_EQ(f.maxExp(), 16);
}

TEST(BfpBlock, ZeroBlock)
{
    FVec v(128, 0.0f);
    BfpBlock b(v, bfp152());
    for (size_t i = 0; i < v.size(); ++i)
        EXPECT_EQ(b.dequant(i), 0.0f);
}

TEST(BfpBlock, PowersOfTwoExact)
{
    // Values that are the block max times a power of two within the
    // mantissa range are exactly representable.
    FVec v = {1.0f, 0.5f, -1.0f, 0.0f};
    BfpBlock b(v, BfpFormat{1, 5, 4});
    EXPECT_FLOAT_EQ(b.dequant(0), 1.0f);
    EXPECT_FLOAT_EQ(b.dequant(1), 0.5f);
    EXPECT_FLOAT_EQ(b.dequant(2), -1.0f);
    EXPECT_FLOAT_EQ(b.dequant(3), 0.0f);
}

TEST(BfpBlock, SharedExponentFollowsMax)
{
    FVec v = {8.0f, 0.25f};
    BfpBlock b(v, bfp152());
    EXPECT_EQ(b.exponent(), 3); // floor(log2(8))
    // 0.25 quantizes against the shared scale 2^(3-1)=4: q=round(1/16)=0.
    EXPECT_EQ(b.dequant(1), 0.0f);
}

/** Quantization error must be bounded by half an LSB of the shared
 *  scale, for every mantissa width in the paper's 2..5 bit range. */
class BfpErrorBound : public ::testing::TestWithParam<int>
{
};

TEST_P(BfpErrorBound, MaxAbsErrorWithinHalfLsb)
{
    int mant = GetParam();
    BfpFormat fmt{1, 5, mant};
    Rng rng(100 + mant);
    for (int trial = 0; trial < 50; ++trial) {
        FVec v(128);
        fillUniform(v, rng, -2.0f, 2.0f);
        BfpBlock b(v, fmt);
        double lsb = b.scale();
        for (size_t i = 0; i < v.size(); ++i) {
            EXPECT_LE(std::fabs(b.dequant(i) - v[i]), lsb / 2 + 1e-9)
                << "mant=" << mant << " i=" << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(MantissaWidths, BfpErrorBound,
                         ::testing::Values(2, 3, 4, 5, 7));

TEST(BfpBlock, RelativeErrorShrinksWithMantissa)
{
    Rng rng(42);
    FVec v(400);
    fillUniform(v, rng, -1.0f, 1.0f);
    double prev = 1e9;
    for (int mant : {2, 3, 4, 5, 6, 7}) {
        auto q = bfpRoundTrip(v, BfpFormat{1, 5, mant});
        QuantError e = measureQuantError(v, q);
        EXPECT_LT(e.relRmse, prev);
        prev = e.relRmse;
    }
    // 7-bit mantissa is already quite accurate.
    auto q = bfpRoundTrip(v, BfpFormat{1, 5, 7});
    EXPECT_LT(measureQuantError(v, q).relRmse, 0.01);
}

TEST(BfpBlock, DotMatchesDequantizedDot)
{
    Rng rng(7);
    for (int trial = 0; trial < 20; ++trial) {
        FVec a(64), b(64);
        fillUniform(a, rng);
        fillUniform(b, rng);
        BfpBlock qa(a, bfp155()), qb(b, bfp155());
        // The integer-MAC dot must equal the dot of dequantized values.
        double expect = 0;
        for (size_t i = 0; i < a.size(); ++i)
            expect += static_cast<double>(qa.dequant(i)) * qb.dequant(i);
        EXPECT_NEAR(BfpBlock::dot(qa, qb), expect, 1e-6);
    }
}

TEST(BfpBlock, DotLengthMismatchThrows)
{
    FVec a(4, 1.0f), b(8, 1.0f);
    BfpBlock qa(a, bfp152()), qb(b, bfp152());
    EXPECT_THROW(BfpBlock::dot(qa, qb), Error);
}

TEST(BfpBlock, DotAccuracyVsFloat)
{
    // Section VI: narrow BFP dot products track full precision within
    // a few percent for realistic activations/weights.
    Rng rng(21);
    for (int mant : {3, 5}) {
        double worst = 0;
        for (int trial = 0; trial < 50; ++trial) {
            FVec a(400), b(400);
            fillUniform(a, rng, -0.1f, 0.1f);
            fillUniform(b, rng, -1.0f, 1.0f);
            double exact = 0;
            for (size_t i = 0; i < a.size(); ++i)
                exact += static_cast<double>(a[i]) * b[i];
            BfpBlock qa(a, BfpFormat{1, 5, mant});
            BfpBlock qb(b, BfpFormat{1, 5, mant});
            double got = BfpBlock::dot(qa, qb);
            // Normalize by the magnitude scale of the operands.
            double norm = 0.1 * 1.0 * std::sqrt(400.0);
            worst = std::max(worst, std::fabs(got - exact) / norm);
        }
        EXPECT_LT(worst, mant >= 5 ? 0.02 : 0.12) << "mant=" << mant;
    }
}

TEST(BfpBlock, SaturatesAtExponentCeiling)
{
    // Exponent clamps at +16; enormous values should not crash and
    // should keep ordering.
    FVec v = {1e30f, -1e30f, 1e29f};
    BfpBlock b(v, bfp152());
    EXPECT_GT(b.dequant(0), 0.0f);
    EXPECT_LT(b.dequant(1), 0.0f);
    EXPECT_EQ(b.exponent(), bfp152().maxExp());
}

/** The quantizer as written with libm rounding, the reference the
 *  packed bfpQuantize must match bit for bit. */
int
referenceQuantize(std::span<const float> values, const BfpFormat &fmt,
                  std::vector<int32_t> *mant)
{
    float max_abs = 0.0f;
    for (float v : values)
        max_abs = std::max(max_abs, std::fabs(v));
    mant->assign(values.size(), 0);
    if (max_abs == 0.0f)
        return fmt.minExp();
    int e = static_cast<int>(std::floor(std::log2(max_abs)));
    if (std::nearbyint(max_abs * std::ldexp(1.0, fmt.mantBits - 1 - e)) >
        fmt.maxMant())
        ++e;
    e = std::min(std::max(e, fmt.minExp()), fmt.maxExp());
    double inv_scale = std::ldexp(1.0, fmt.mantBits - 1 - e);
    double lim = fmt.maxMant();
    for (size_t i = 0; i < values.size(); ++i) {
        double q = std::nearbyint(values[i] * inv_scale);
        q = std::min(std::max(q, -lim), lim);
        (*mant)[i] = static_cast<int32_t>(q);
    }
    return e;
}

void
expectMatchesReference(std::span<const float> v, const BfpFormat &fmt)
{
    std::vector<int32_t> want;
    int want_e = referenceQuantize(v, fmt, &want);
    std::vector<int16_t> got(v.size());
    ASSERT_EQ(bfpQuantize(v, fmt, got.data()), want_e) << fmt.toString();
    for (size_t i = 0; i < v.size(); ++i)
        ASSERT_EQ(got[i], want[i]) << fmt.toString() << " i=" << i
                                   << " v=" << v[i];
}

TEST(BfpQuantize, RejectsMantissaWidthOutsideInt16)
{
    // BfpFormat is an aggregate, so a format can skip parse().
    FVec v(8, 1.0f);
    std::vector<int16_t> q(v.size());
    EXPECT_THROW(bfpQuantize(v, BfpFormat{1, 5, 16}, q.data()), Error);
    EXPECT_THROW(bfpQuantize(v, BfpFormat{1, 5, 0}, q.data()), Error);
    EXPECT_THROW(BfpBlock(v, BfpFormat{1, 5, 20}), Error);
    EXPECT_NO_THROW(bfpQuantize(v, BfpFormat{1, 5, 15}, q.data()));
}

TEST(BfpQuantize, TiesRoundToEvenLikeNearbyint)
{
    for (int m = 1; m <= kMaxMantBits; ++m) {
        BfpFormat fmt{1, 5, m};
        // Block max maxMant * 2^-(m-1) pins the shared exponent at 0, so
        // element (k + 0.5) * 2^-(m-1) scales to the tie k + 0.5.
        float lsb = std::ldexp(1.0f, -(m - 1));
        FVec v = {static_cast<float>(fmt.maxMant()) * lsb};
        for (int k = 0; k < std::min(fmt.maxMant(), 64); ++k) {
            v.push_back((k + 0.5f) * lsb);
            v.push_back(-(k + 0.5f) * lsb);
        }
        expectMatchesReference(v, fmt);
        std::vector<int16_t> q(v.size());
        ASSERT_EQ(bfpQuantize(v, fmt, q.data()), 0);
        EXPECT_EQ(q[1], 0);  // 0.5 rounds to even 0
        EXPECT_EQ(q[2], 0);  // -0.5 too
        if (fmt.maxMant() > 2) {
            EXPECT_EQ(q[3], 2);  // 1.5 -> 2
            EXPECT_EQ(q[4], -2); // -1.5 -> -2
        }
    }
}

TEST(BfpQuantize, MatchesNearbyintOnRandomZeroAndClampedBlocks)
{
    Rng rng(11);
    for (int m = 1; m <= kMaxMantBits; ++m) {
        BfpFormat fmt{1, 5, m};
        for (int trial = 0; trial < 20; ++trial) {
            FVec v(1 + trial * 7);
            fillUniform(v, rng, -3.0f, 3.0f);
            expectMatchesReference(v, fmt);
        }
        // Zero block: all-zero mantissas at the minimum exponent.
        expectMatchesReference(FVec(16, 0.0f), fmt);
        expectMatchesReference(FVec{0.0f, -0.0f}, fmt);
        // Exponent clamped at the top: elements saturate at +-maxMant.
        expectMatchesReference(FVec{1e30f, -1e30f, 3e29f, -1.0f}, fmt);
        // Exponent clamped at the bottom: tiny elements round to 0.
        expectMatchesReference(FVec{1e-30f, -2e-30f, 1e-38f}, fmt);
        expectMatchesReference(FVec{std::ldexp(1.0f, -15),
                                    -std::ldexp(0.75f, -16)},
                               fmt);
    }
}

/** Exact dot of two mantissa arrays in int64, one product at a time. */
int64_t
naiveDot(const std::vector<int16_t> &a, const std::vector<int16_t> &b)
{
    int64_t acc = 0;
    for (size_t i = 0; i < a.size(); ++i)
        acc += static_cast<int64_t>(a[i]) * b[i];
    return acc;
}

TEST(BfpMantDot, MatchesNaiveLoopForEveryWidthAndLength)
{
    Rng rng(5);
    for (int m = 1; m <= kMaxMantBits; ++m) {
        int32_t max = BfpFormat{1, 5, m}.maxMant();
        int64_t max_product = static_cast<int64_t>(max) * max;
        for (size_t n : {1, 7, 8, 9, 32, 100, 128, 400, 1000}) {
            std::vector<int16_t> a(n), b(n);
            for (size_t i = 0; i < n; ++i) {
                a[i] = static_cast<int16_t>(rng.integer(-max, max));
                b[i] = static_cast<int16_t>(rng.integer(-max, max));
            }
            EXPECT_EQ(bfpMantDot(a.data(), b.data(), n, max_product),
                      naiveDot(a, b))
                << "m=" << m << " n=" << n;
            // Worst case: every product +-max^2 with one sign. From 12
            // bits up this overflows an int32 lane that is never flushed.
            for (int16_t sa : {1, -1}) {
                std::vector<int16_t> wa(n, static_cast<int16_t>(sa * max));
                std::vector<int16_t> wb(n, static_cast<int16_t>(max));
                EXPECT_EQ(bfpMantDot(wa.data(), wb.data(), n, max_product),
                          naiveDot(wa, wb))
                    << "m=" << m << " n=" << n << " sign=" << sa;
            }
        }
    }
}

TEST(BfpBlock, MixedFormatDotBoundsLanesByBothOperands)
{
    // A 2-bit block dotted with a 15-bit block, every element at
    // +-maxMant: the lane-flush bound must come from 3 * 32767, not from
    // either operand's format alone. The long length overflows a lane
    // bounded by the 2-bit side's 3 * 3.
    BfpFormat narrow{1, 5, 2}, wide{1, 5, kMaxMantBits};
    for (size_t n : {size_t{400}, size_t{1} << 18}) {
        for (int32_t sign : {1, -1}) {
            // 1.5 quantizes to 3 * 2^-1; 32767 * 2^-14 to 32767 * 2^-14.
            FVec a(n, 1.5f);
            FVec b(n, static_cast<float>(sign) * 32767.0f / 16384.0f);
            BfpBlock qa(a, narrow), qb(b, wide);
            ASSERT_EQ(qa.mantissa(0), narrow.maxMant());
            ASSERT_EQ(qb.mantissa(0), sign * wide.maxMant());
            int64_t want = 0;
            for (size_t i = 0; i < n; ++i)
                want += static_cast<int64_t>(qa.mantissa(i)) *
                        qb.mantissa(i);
            double expect = static_cast<double>(want) * qa.scale() *
                            qb.scale();
            EXPECT_EQ(BfpBlock::dot(qa, qb), expect) << "n=" << n;
            EXPECT_EQ(BfpBlock::dot(qb, qa),
                      static_cast<double>(want) * qb.scale() * qa.scale())
                << "n=" << n;
        }
    }
}

TEST(QuantError, Metrics)
{
    FVec ref = {1.0f, 2.0f};
    FVec q = {1.5f, 2.0f};
    QuantError e = measureQuantError(ref, q);
    EXPECT_FLOAT_EQ(e.maxAbs, 0.5);
    EXPECT_NEAR(e.rmse, std::sqrt(0.25 / 2), 1e-9);
    EXPECT_GT(e.relRmse, 0.0);
}

} // namespace
} // namespace bw
