/**
 * @file
 * Deterministic random number generation. All stochastic behaviour in the
 * library (weight initialization, synthetic workloads) flows through Rng so
 * results are reproducible run to run.
 */

#ifndef BW_COMMON_RNG_H
#define BW_COMMON_RNG_H

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>

namespace bw {

/**
 * Seeded pseudo-random source with convenience distributions.
 *
 * Rng is its own MT19937-64 engine (a UniformRandomBitGenerator) with
 * the standard seeding, twist and tempering, so its raw outputs equal the
 * standard library's 64-bit Mersenne Twister. The double and integer
 * distributions are the std ones drawn on *this. Floats go through one
 * exact conversion shared by uniformF and the block fill fillUniformF;
 * it reproduces libstdc++'s float uniform distribution bit for bit (see
 * DESIGN.md, "Exact block uniforms").
 */
class Rng
{
  public:
    using result_type = uint64_t;

    explicit Rng(uint64_t seed = 0xB3A117ED);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    /** Next raw 64-bit output. */
    result_type
    operator()()
    {
        if (pos_ == kN)
            twist();
        return temper(state_[pos_++]);
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo = 0.0, double hi = 1.0)
    {
        return std::uniform_real_distribution<double>(lo, hi)(*this);
    }

    /** Uniform float in [lo, hi). */
    float
    uniformF(float lo = -1.0f, float hi = 1.0f)
    {
        return unitFloat((*this)()) * (hi - lo) + lo;
    }

    /** Fill @p out with uniformF(lo, hi) draws, one state block at a
     *  time; the result equals a loop of uniformF calls. */
    void fillUniformF(std::span<float> out, float lo = -1.0f,
                      float hi = 1.0f);

    /** Gaussian double with the given mean and standard deviation. */
    double
    gaussian(double mean = 0.0, double stddev = 1.0)
    {
        return std::normal_distribution<double>(mean, stddev)(*this);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    integer(int64_t lo, int64_t hi)
    {
        return std::uniform_int_distribution<int64_t>(lo, hi)(*this);
    }

    /** Exponentially distributed double with the given rate. */
    double
    exponential(double rate)
    {
        return std::exponential_distribution<double>(rate)(*this);
    }

    /**
     * static_cast<float>(u), rounded to nearest even, branch-free through
     * double so a loop of it vectorizes. Below 2^52 the value is exact in
     * double; above, u >> 12 is kept with the dropped bits or-ed into its
     * lowest bit (round to odd), so the one rounding to float is still
     * the correct one.
     */
    static float
    toFloat(uint64_t u)
    {
        uint64_t big = ((u >> 52) + 0xFFF) >> 12;      // 1 iff u >= 2^52
        uint64_t sticky = ((u & 0xFFF) + 0xFFF) >> 12; // 1 iff bits dropped
        uint64_t keep = 0 - big;
        uint64_t v = (keep & ((u >> 12) | sticky)) | (~keep & u);
        // 2^e with v in its mantissa, minus 2^e, is v * 2^(e - 52)
        // exactly: e = 52 gives u, e = 64 gives (u >> 12) * 2^12.
        uint64_t e = (1075 + 12 * big) << 52;
        double d = std::bit_cast<double>(v | e) - std::bit_cast<double>(e);
        return static_cast<float>(d);
    }

    /** float(u) * 2^-64, clamped below 1: libstdc++'s canonical float
     *  from one 64-bit draw. */
    static float
    unitFloat(uint64_t u)
    {
        return std::min(toFloat(u) * 0x1p-64f, 0x1.fffffep-1f);
    }

  private:
    static constexpr size_t kN = 312; //!< state words per block
    static constexpr size_t kM = 156; //!< twist offset

    static uint64_t
    temper(uint64_t z)
    {
        z ^= (z >> 29) & 0x5555555555555555ull;
        z ^= (z << 17) & 0x71D67FFFEDA60000ull;
        z ^= (z << 37) & 0xFFF7EEE000000000ull;
        z ^= z >> 43;
        return z;
    }

    /** Generate the next kN state words; resets pos_ to 0. */
    void twist();

    std::array<uint64_t, kN> state_;
    size_t pos_ = kN;
};

} // namespace bw

#endif // BW_COMMON_RNG_H
