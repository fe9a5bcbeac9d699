#include "common/rng.h"

namespace bw {

namespace {

constexpr uint64_t kMatrixA = 0xB5026F5AA96619E9ull;
constexpr uint64_t kUpper = ~uint64_t(0) << 31; //!< top 33 bits
constexpr uint64_t kLower = ~kUpper;

uint64_t
twistWord(uint64_t hi, uint64_t lo, uint64_t far)
{
    uint64_t y = (hi & kUpper) | (lo & kLower);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

} // namespace

Rng::Rng(uint64_t seed)
{
    state_[0] = seed;
    for (size_t i = 1; i < kN; ++i) {
        uint64_t p = state_[i - 1];
        state_[i] = 6364136223846793005ull * (p ^ (p >> 62)) + i;
    }
}

void
Rng::twist()
{
    uint64_t *x = state_.data();
    for (size_t k = 0; k < kN - kM; ++k)
        x[k] = twistWord(x[k], x[k + 1], x[k + kM]);
    // Even trip counts, so both loops vectorize.
    for (size_t k = kN - kM; k < kN - 2; ++k)
        x[k] = twistWord(x[k], x[k + 1], x[k + kM - kN]);
    x[kN - 2] = twistWord(x[kN - 2], x[kN - 1], x[kM - 2]);
    x[kN - 1] = twistWord(x[kN - 1], x[0], x[kM - 1]);
    pos_ = 0;
}

void
Rng::fillUniformF(std::span<float> out, float lo, float hi)
{
    const float span = hi - lo;
    // One block: temper each word and convert it. Called with n == kN
    // for whole blocks, where the constant trip count lets the loop
    // vectorize.
    auto block = [span, lo](const uint64_t *x, float *dst, size_t n) {
        for (size_t j = 0; j < n; ++j)
            dst[j] = unitFloat(temper(x[j])) * span + lo;
    };
    float *dst = out.data();
    size_t left = out.size();
    while (left > 0) {
        if (pos_ == kN)
            twist();
        size_t n = std::min(kN - pos_, left);
        if (n == kN)
            block(state_.data(), dst, kN);
        else
            block(state_.data() + pos_, dst, n);
        pos_ += n;
        dst += n;
        left -= n;
    }
}

} // namespace bw
