/**
 * @file
 * Block floating point (BFP) numerics, per Section VI of the paper.
 *
 * The BW NPU shares a single 5-bit exponent across a group of numbers at
 * native-vector granularity (e.g., one exponent per 128 signs+mantissas),
 * with mantissas trimmed to as low as 2-5 bits. Quantization noise affects
 * only dot products; point-wise operations run in float16.
 *
 * Representation used here: a block of N values shares an exponent E
 * (the exponent of the largest magnitude in the block). Each element is a
 * signed integer mantissa q with |q| <= 2^m - 1 for m mantissa bits, and
 * the represented value is q * 2^(E - (m - 1)). This is the natural
 * fixed-point-per-block reading of the paper's "1s.5e.2m" notation.
 *
 * Mantissas are stored as int16_t, so m is capped at kMaxMantBits. One
 * quantizer (bfpQuantize) and one integer dot kernel (bfpMantDot) serve
 * both BfpBlock and the functional simulator's packed MRF tiles.
 */

#ifndef BW_BFP_BFP_H
#define BW_BFP_BFP_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace bw {

/** Widest mantissa an int16_t element holds: |q| <= 2^15 - 1. */
inline constexpr int kMaxMantBits = 15;

/**
 * A BFP format descriptor, e.g. "1s.5e.2m": 1 sign bit, a 5-bit shared
 * exponent per block, and 2 mantissa bits per element.
 */
struct BfpFormat
{
    int signBits = 1;
    int expBits = 5;
    int mantBits = 2;

    /** Bits of per-element storage (sign + mantissa). */
    int elemBits() const { return signBits + mantBits; }

    /** Largest representable mantissa magnitude. */
    int32_t maxMant() const { return (1 << mantBits) - 1; }

    /** Exponent bias; stored exponent is E + bias in [0, 2^expBits). */
    int bias() const { return (1 << (expBits - 1)) - 1; }

    int minExp() const { return -bias(); }
    int maxExp() const { return (1 << expBits) - 1 - bias(); }

    /** Parse "1s.5e.2m" notation. Throws bw::Error on malformed input. */
    static BfpFormat parse(const std::string &s);

    /** Render as "1s.5e.2m". */
    std::string toString() const;

    bool operator==(const BfpFormat &o) const = default;
};

/** Scale factor 2^(E - (m-1)) applied to mantissas with exponent @p exp. */
double bfpScale(int exp, const BfpFormat &fmt);

/**
 * Quantize @p values into @p mant (values.size() elements) with one
 * shared exponent, which is returned. Throws bw::Error unless
 * fmt.mantBits is in [1, kMaxMantBits]. The exponent is that of the
 * largest magnitude, bumped when that element would round past
 * maxMant() and clamped to [minExp, maxExp]; each mantissa is
 * round-to-nearest-even of v * 2^((m-1) - E), clamped to +-maxMant().
 */
int bfpQuantize(std::span<const float> values, const BfpFormat &fmt,
                int16_t *mant);

/**
 * Exact integer dot product of @p n mantissa pairs, as the hardware's
 * MAC array computes it. @p max_product bounds |a[i] * b[i]| (the
 * product of the two operands' maxMant()); it sets how many products a
 * 32-bit lane accumulator takes before it is flushed into the 64-bit
 * total, so no lane can overflow.
 */
int64_t bfpMantDot(const int16_t *a, const int16_t *b, size_t n,
                   int64_t max_product);

/** Widely used format presets. */
BfpFormat bfp152(); //!< 1s.5e.2m, the BW_S10 RNN format (Table IV)
BfpFormat bfp155(); //!< 1s.5e.5m, the BW_CNN_A10 format (Table VI)

/**
 * One quantized block: a shared exponent plus integer mantissas.
 * Blocks are produced from spans of float and dequantize back to float.
 */
class BfpBlock
{
  public:
    BfpBlock() = default;

    /** Quantize @p values into a block with the given format (RNE). */
    BfpBlock(std::span<const float> values, const BfpFormat &fmt);

    /** Dequantize element @p i to float. */
    float dequant(size_t i) const;

    /** Dequantize the whole block. */
    std::vector<float> dequantAll() const;

    size_t size() const { return mant_.size(); }
    int exponent() const { return exp_; }
    int32_t mantissa(size_t i) const { return mant_[i]; }
    const BfpFormat &format() const { return fmt_; }

    /** Scale factor 2^(E - (m-1)) applied to mantissas. */
    double scale() const { return bfpScale(exp_, fmt_); }

    /**
     * Exact fixed-point dot product of two blocks, as the hardware's MAC
     * array computes it: integer multiply-accumulate, one final scale.
     * Blocks must have equal length; their formats may differ.
     */
    static double dot(const BfpBlock &a, const BfpBlock &b);

  private:
    BfpFormat fmt_;
    int exp_ = 0;             //!< shared exponent E (unbiased)
    std::vector<int16_t> mant_; //!< signed mantissas, |q| <= maxMant()
};

/** Round-trip a float vector through BFP quantization. */
std::vector<float> bfpRoundTrip(std::span<const float> v,
                                const BfpFormat &fmt);

/**
 * Quantization error metrics between a reference vector and its
 * quantized reconstruction.
 */
struct QuantError
{
    double maxAbs = 0.0;  //!< max |ref - q|
    double rmse = 0.0;    //!< root-mean-square error
    double relRmse = 0.0; //!< rmse / rms(ref); 0 when ref is all-zero
};

QuantError measureQuantError(std::span<const float> ref,
                             std::span<const float> quantized);

} // namespace bw

#endif // BW_BFP_BFP_H
