/**
 * @file
 * Unit tests for the common utilities: bit helpers, units, text tables,
 * stats, logging and the deterministic RNG.
 */

#include <bit>
#include <cmath>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/bits.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"

namespace bw {
namespace {

TEST(Bits, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0, 4), 0);
    EXPECT_EQ(ceilDiv(1, 4), 1);
    EXPECT_EQ(ceilDiv(4, 4), 1);
    EXPECT_EQ(ceilDiv(5, 4), 2);
    EXPECT_EQ(ceilDiv(2816u, 400u), 8u);
}

TEST(Bits, AlignUp)
{
    EXPECT_EQ(alignUp(0, 8), 0);
    EXPECT_EQ(alignUp(1, 8), 8);
    EXPECT_EQ(alignUp(8, 8), 8);
    EXPECT_EQ(alignUp(9, 8), 16);
}

TEST(Bits, IsPow2)
{
    EXPECT_FALSE(isPow2(0));
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(2));
    EXPECT_FALSE(isPow2(3));
    EXPECT_TRUE(isPow2(1ull << 40));
    EXPECT_FALSE(isPow2((1ull << 40) + 1));
}

TEST(Bits, Log2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(400), 9u);  // dot reduction tree depth, BW_S10
    EXPECT_EQ(ceilLog2(2000), 11u);
    EXPECT_EQ(ceilLog2(2800), 12u);
}

TEST(Bits, BitExtractInsert)
{
    EXPECT_EQ(bits(0xABCD, 15, 12), 0xAu);
    EXPECT_EQ(bits(0xABCD, 3, 0), 0xDu);
    EXPECT_EQ(insertBits(0, 7, 4, 0xF), 0xF0u);
    EXPECT_EQ(insertBits(0xFF, 7, 4, 0x0), 0x0Fu);
}

TEST(Units, CyclesToTime)
{
    // 250 MHz: 1 cycle = 4ns.
    EXPECT_DOUBLE_EQ(cyclesToUs(250, 250.0), 1.0);
    EXPECT_DOUBLE_EQ(cyclesToMs(250000, 250.0), 1.0);
    EXPECT_EQ(msToCycles(1.0, 250.0), 250000u);
}

TEST(Units, Tflops)
{
    // BW_S10: 192,000 ops/cycle @ 250 MHz = 48 TFLOPS.
    EXPECT_DOUBLE_EQ(peakTflops(192000, 250.0), 48.0);
    // Half utilization.
    EXPECT_DOUBLE_EQ(effectiveTflops(96000 * 100, 100, 250.0), 24.0);
    EXPECT_DOUBLE_EQ(effectiveTflops(1000, 0, 250.0), 0.0);
}

TEST(Logging, FatalThrows)
{
    EXPECT_THROW(BW_FATAL("user error %d", 42), Error);
    try {
        BW_FATAL("user error %d", 42);
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("user error 42"),
                  std::string::npos);
    }
}

TEST(Logging, AssertPassesSilently)
{
    BW_ASSERT(1 + 1 == 2);
    BW_ASSERT(true, "with message %d", 1);
}

TEST(Table, RendersAlignedColumns)
{
    TextTable t({"Name", "Value"});
    t.addRow({"alpha", "1"});
    t.addRule();
    t.addRow({"b", "22222"});
    std::string s = t.render();
    EXPECT_NE(s.find("| Name "), std::string::npos);
    EXPECT_NE(s.find("| alpha "), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
    // Every line has equal length.
    size_t first_len = s.find('\n');
    size_t pos = 0;
    while (pos < s.size()) {
        size_t nl = s.find('\n', pos);
        EXPECT_EQ(nl - pos, first_len);
        pos = nl + 1;
    }
}

TEST(Table, RowArityChecked)
{
    TextTable t({"a", "b"});
    EXPECT_THROW(t.addRow({"only one"}), Error);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(fmtF(3.14159, 2), "3.14");
    EXPECT_EQ(fmtI(1234567), "1,234,567");
    EXPECT_EQ(fmtI(7), "7");
    EXPECT_EQ(fmtPct(0.748, 1), "74.8%");
}

TEST(Stats, CountersAndDistributions)
{
    StatGroup g("mvm");
    g.inc("tiles");
    g.inc("tiles", 4);
    EXPECT_EQ(g.counter("tiles"), 5u);
    EXPECT_EQ(g.counter("missing"), 0u);

    g.sample("latency", 10.0);
    g.sample("latency", 20.0);
    EXPECT_EQ(g.dist("latency").count(), 2u);
    EXPECT_DOUBLE_EQ(g.dist("latency").mean(), 15.0);
    EXPECT_DOUBLE_EQ(g.dist("latency").min(), 10.0);
    EXPECT_DOUBLE_EQ(g.dist("latency").max(), 20.0);
    EXPECT_DOUBLE_EQ(g.dist("latency").variance(), 25.0);

    std::string dump = g.dump();
    EXPECT_NE(dump.find("mvm.tiles = 5"), std::string::npos);

    g.reset();
    EXPECT_EQ(g.counter("tiles"), 0u);
}

TEST(Rng, Deterministic)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.integer(0, 1000000), b.integer(0, 1000000));
}

TEST(Rng, UniformInRange)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.uniform(-2.0, 3.0);
        EXPECT_GE(v, -2.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Rng, ExponentialPositive)
{
    Rng rng(5);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double v = rng.exponential(2.0);
        EXPECT_GT(v, 0.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.05); // mean = 1/rate
}

// --- Rng against the standard library it reproduces ---

/// Bit pattern of a float, so -0 vs +0 and every ulp compare unequal.
uint32_t
bitsOf(float f)
{
    return std::bit_cast<uint32_t>(f);
}

/// libstdc++'s generate_canonical<float> on a 64-bit engine output.
float
canonicalOracle(uint64_t u)
{
    float r = static_cast<float>(u) * 0x1p-64f;
    return r >= 1.0f ? std::nextafter(1.0f, 0.0f) : r;
}

TEST(Rng, RawOutputsMatchStdMt19937_64)
{
    // 6 seeds x 1.7e7 draws: over 1e8 raw outputs in all.
    const uint64_t seeds[] = {0, 0xB3A117ED, ~uint64_t(0), 1, 97,
                              0x0123456789ABCDEFull};
    const size_t perSeed = 17'000'000;
    for (uint64_t seed : seeds) {
        Rng a(seed);
        std::mt19937_64 b(seed);
        size_t mismatches = 0, first = perSeed;
        for (size_t i = 0; i < perSeed; ++i) {
            if (a() != b()) {
                ++mismatches;
                first = std::min(first, i);
            }
        }
        EXPECT_EQ(mismatches, 0u) << "seed " << seed << ", first " << first;
    }
    // The default seed is std::mt19937_64's 0xB3A117ED stream too.
    Rng d;
    std::mt19937_64 e(0xB3A117ED);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(d(), e()) << i;
    static_assert(Rng::min() == std::mt19937_64::min());
    static_assert(Rng::max() == std::mt19937_64::max());
}

TEST(Rng, DistributionsMatchStdOnMt19937_64)
{
    // Interleaved on one stream, as library code draws them.
    Rng a(11);
    std::mt19937_64 b(11);
    for (int i = 0; i < 100000; ++i) {
        double lo = -2.0 + (i % 7), hi = lo + 0.5 + (i % 3);
        ASSERT_EQ(a.uniform(lo, hi),
                  std::uniform_real_distribution<double>(lo, hi)(b))
            << i;
        ASSERT_EQ(a.uniform(), std::uniform_real_distribution<double>()(b))
            << i;
        ASSERT_EQ(bitsOf(a.uniformF(-0.5f, 0.25f)),
                  bitsOf(std::uniform_real_distribution<float>(-0.5f,
                                                               0.25f)(b)))
            << i;
        ASSERT_EQ(bitsOf(a.uniformF()),
                  bitsOf(std::uniform_real_distribution<float>(-1.0f,
                                                               1.0f)(b)))
            << i;
        ASSERT_EQ(a.gaussian(1.5, 0.25),
                  std::normal_distribution<double>(1.5, 0.25)(b))
            << i;
        ASSERT_EQ(a.integer(-3, 1000 + i),
                  std::uniform_int_distribution<int64_t>(-3, 1000 + i)(b))
            << i;
        ASSERT_EQ(a.exponential(2.0),
                  std::exponential_distribution<double>(2.0)(b))
            << i;
    }
}

TEST(Rng, FillUniformFMatchesStdLoop)
{
    const size_t lengths[] = {0, 1, 311, 312, 313, 1'000'007};
    const std::pair<float, float> bounds[] = {
        {-1.0f, 1.0f}, {-0.1f, 0.1f}, {0.0f, 1.0f},
        {-0.0270633f, 0.0270633f}, {-100.0f, 100.0f}, {2.5f, 3.0f}};
    uint64_t seed = 0;
    for (auto [lo, hi] : bounds) {
        for (size_t n : lengths) {
            Rng a(++seed);
            std::mt19937_64 b(seed);
            std::uniform_real_distribution<float> dist(lo, hi);
            std::vector<float> got(n);
            a.fillUniformF(got, lo, hi);
            size_t bad = 0;
            for (size_t i = 0; i < n; ++i)
                bad += bitsOf(got[i]) != bitsOf(dist(b));
            EXPECT_EQ(bad, 0u) << "n " << n << " [" << lo << ", " << hi
                               << ")";
            // The stream continues where the fill left it.
            EXPECT_EQ(a(), b()) << "n " << n;
        }
    }
}

TEST(Rng, FillUniformFInterleavesWithScalarDraws)
{
    // Fills that start and end mid-block, between scalar draws of every
    // kind, stay on the std stream.
    Rng a(5);
    std::mt19937_64 b(5);
    std::uniform_real_distribution<float> dist(-0.5f, 0.5f);
    const size_t lengths[] = {5, 311, 1, 312, 313, 0, 2000, 624, 7};
    size_t bad = 0;
    for (int round = 0; round < 40; ++round) {
        for (size_t n : lengths) {
            std::vector<float> got(n);
            a.fillUniformF(got, -0.5f, 0.5f);
            for (float g : got)
                bad += bitsOf(g) != bitsOf(dist(b));
            bad += bitsOf(a.uniformF(-0.5f, 0.5f)) != bitsOf(dist(b));
            bad += a() != b();
            bad += a.integer(0, 9) !=
                   std::uniform_int_distribution<int64_t>(0, 9)(b);
            bad += a.uniform() !=
                   std::uniform_real_distribution<double>()(b);
        }
    }
    EXPECT_EQ(bad, 0u);
}

TEST(Rng, ToFloatEdgeTable)
{
    const uint64_t one = 1;
    const uint64_t edges[] = {
        0,
        1,
        (one << 24) - 1,
        one << 24,
        (one << 24) + 1, // tie: rounds down to even
        (one << 24) + 3, // tie: rounds up to even
        (one << 37) - 1,
        (one << 52) - 1,
        one << 52,
        (one << 52) + 1,
        (one << 53) - 1,
        one << 53,
        (one << 53) + 1,
        (one << 63) + (one << 39) - 1,
        (one << 63) + (one << 39), // tie at 2^63: rounds to even 2^63
        (one << 63) + (one << 39) + 1,
        (one << 63) + 3 * (one << 39), // tie: rounds up to even
        ~uint64_t(0) - (one << 39),    // just below the clamp
        ~uint64_t(0) - (one << 39) + 1, // 2^64 - 2^39: rounds to 2^64
        ~uint64_t(0) - 1,
        ~uint64_t(0),
    };
    for (uint64_t u : edges) {
        EXPECT_EQ(bitsOf(Rng::toFloat(u)), bitsOf(static_cast<float>(u)))
            << u;
        EXPECT_EQ(bitsOf(Rng::unitFloat(u)), bitsOf(canonicalOracle(u)))
            << u;
    }
    // u >= 2^64 - 2^39 converts to 2^64 and hits the clamp; just below
    // it, u rounds to the largest float under 2^64.
    EXPECT_EQ(Rng::toFloat(~uint64_t(0) - (one << 39)), 0x1p64f - 0x1p40f);
    EXPECT_EQ(Rng::toFloat(~uint64_t(0) - (one << 39) + 1), 0x1p64f);
    EXPECT_EQ(Rng::toFloat(~uint64_t(0)), 0x1p64f);
    EXPECT_EQ(Rng::unitFloat(~uint64_t(0)), std::nextafter(1.0f, 0.0f));

    // Every magnitude, with random low bits.
    std::mt19937_64 g(3);
    size_t bad = 0;
    for (int i = 0; i < 1'000'000; ++i) {
        uint64_t u = g() >> (i % 64);
        bad += bitsOf(Rng::toFloat(u)) != bitsOf(static_cast<float>(u));
        bad += bitsOf(Rng::unitFloat(u)) != bitsOf(canonicalOracle(u));
    }
    EXPECT_EQ(bad, 0u);
}

} // namespace
} // namespace bw
