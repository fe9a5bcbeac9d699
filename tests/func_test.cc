/**
 * @file
 * Functional simulator tests: architectural storage, chain execution
 * semantics (BFP matrix products, float16 point-wise ops), mega-SIMD
 * rows/cols scaling, iteration, multicast, and network/matrix moves.
 *
 * Tests use a small NPU configuration (native dim 8) with a wide
 * mantissa so quantization error is negligible where exactness is
 * asserted, and the BW_S10 precision where BFP behaviour is the point.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "bfp/float16.h"
#include "func/machine.h"
#include "isa/builder.h"
#include "tensor/tensor.h"

namespace bw {
namespace {

/** Tiny config: N=8, 2 lanes, high-precision BFP. */
NpuConfig
tinyConfig(int mant_bits = 7)
{
    NpuConfig c;
    c.name = "tiny";
    c.nativeDim = 8;
    c.lanes = 2;
    c.tileEngines = 2;
    c.mrfSize = 64;
    c.mrfIndexSpace = 256;
    c.initialVrfSize = 64;
    c.addSubVrfSize = 64;
    c.multiplyVrfSize = 64;
    c.precision = BfpFormat{1, 5, mant_bits};
    c.dramBytes = 1 << 20;
    return c;
}

TEST(VectorRegFile, ReadWriteRoundsToHalf)
{
    VectorRegFile vrf(4, 8, "t");
    FVec v(8, 1.0f / 3.0f);
    vrf.write(1, v);
    FVec r = vrf.read(1, 1);
    // Stored value is float16-rounded, not the float32 original.
    EXPECT_NE(r[0], 1.0f / 3.0f);
    EXPECT_NEAR(r[0], 1.0f / 3.0f, 1e-3);
}

TEST(VectorRegFile, RangeChecked)
{
    VectorRegFile vrf(4, 8, "t");
    EXPECT_THROW(vrf.read(4, 1), Error);
    EXPECT_THROW(vrf.read(3, 2), Error);
    FVec v(8, 0.0f);
    EXPECT_THROW(vrf.write(4, v), Error);
}

TEST(MatrixRegFile, UninitializedReadFails)
{
    MatrixRegFile mrf(4, 8);
    EXPECT_THROW(mrf.read(0), Error);
    EXPECT_FALSE(mrf.isWritten(0));
}

TEST(QuantTile, RowsMatchBfpBlocks)
{
    // The packed tile holds, row for row, the mantissas and scale a
    // BfpBlock of that row holds.
    Rng rng(17);
    for (int m : {1, 2, 5, 9, 15}) {
        BfpFormat fmt{1, 5, m};
        FMat w(16, 16);
        fillUniform(w, rng, -2.0f, 2.0f);
        w(3, 0) = 1e30f; // row 3 clamps at the top exponent
        for (size_t j = 0; j < 16; ++j)
            w(5, j) = 0.0f; // row 5 is a zero block
        QuantTile qt(w, fmt);
        ASSERT_TRUE(qt.valid());
        ASSERT_EQ(qt.dim(), 16u);
        FMat deq = qt.dequant();
        for (size_t r = 0; r < 16; ++r) {
            BfpBlock b(w.row(r), fmt);
            EXPECT_EQ(qt.rowScale(r), b.scale()) << "m=" << m << " r=" << r;
            auto d = b.dequantAll();
            for (size_t i = 0; i < 16; ++i) {
                EXPECT_EQ(qt.rowMant(r)[i], b.mantissa(i))
                    << "m=" << m << " r=" << r << " i=" << i;
                EXPECT_EQ(deq(r, i), d[i]);
            }
        }
    }
}

TEST(DramStore, GrowsOnWriteWithinCapacityBounds)
{
    // 1 MiB at 2 bytes/element, native dim 8: 65536 vectors, 8192 tiles.
    DramStore d(1 << 20, 8);
    const uint32_t max_vecs = 65536, max_tiles = 8192;

    // In range but never written: zeros.
    EXPECT_EQ(d.readVector(0, 2), FVec(16, 0.0f));
    EXPECT_EQ(d.readVector(max_vecs - 1, 1), FVec(8, 0.0f));

    FVec v = {1, 2, 3, 4, 5, 6, 7, 8};
    d.writeVector(10, v);
    FVec got = d.readVector(9, 3);
    EXPECT_EQ(FVec(got.begin(), got.begin() + 8), FVec(8, 0.0f));
    EXPECT_EQ(FVec(got.begin() + 8, got.begin() + 16), v);
    EXPECT_EQ(FVec(got.begin() + 16, got.end()), FVec(8, 0.0f));
    d.writeVector(max_vecs - 1, v);
    EXPECT_EQ(d.readVector(max_vecs - 1, 1), v);
    EXPECT_EQ(d.readVector(100, 1), FVec(8, 0.0f));

    // Out of range, reads and writes alike.
    EXPECT_THROW(d.readVector(max_vecs, 1), Error);
    EXPECT_THROW(d.readVector(max_vecs - 1, 2), Error);
    EXPECT_THROW(d.writeVector(max_vecs, v), Error);
    FVec two(16, 1.0f);
    EXPECT_THROW(d.writeVector(max_vecs - 1, two), Error);

    // Tiles: reading one never written is an error, in range or not.
    EXPECT_THROW(d.readTile(0), Error);
    FMat t(8, 8, std::vector<float>(64, 0.5f));
    d.writeTile(5, t);
    EXPECT_EQ(d.readTile(5).row(0)[0], 0.5f);
    EXPECT_THROW(d.readTile(4), Error);
    EXPECT_THROW(d.readTile(6), Error);
    d.writeTile(max_tiles - 1, t);
    EXPECT_EQ(d.readTile(max_tiles - 1).row(7)[7], 0.5f);
    EXPECT_THROW(d.writeTile(max_tiles, t), Error);
    EXPECT_THROW(d.readTile(max_tiles), Error);
}

TEST(FuncMachine, MvMulBitIdenticalToBfpBlockDots)
{
    // Each output is the column-ordered double sum of BfpBlock::dot over
    // the tile row and the quantized input block, rounded to float16.
    for (int m : {2, 5, 15}) {
        NpuConfig cfg = tinyConfig(m);
        FuncMachine mach(cfg);
        Rng rng(40 + m);
        const uint32_t rows = 2, cols = 3;
        std::vector<FMat> tiles;
        for (uint32_t t = 0; t < rows * cols; ++t) {
            FMat tile(8, 8);
            fillUniform(tile, rng, -1.0f, 1.0f);
            mach.loadMrfTile(t, tile);
            tiles.push_back(std::move(tile));
        }
        FVec x(cols * 8);
        fillUniform(x, rng, -1.0f, 1.0f);
        mach.loadVrf(MemId::InitialVrf, 0, x);
        FVec xh = mach.peekVrf(MemId::InitialVrf, 0, cols);

        ProgramBuilder b;
        b.tile(rows, cols);
        b.vRd(MemId::InitialVrf, 0).mvMul(0).vWr(MemId::InitialVrf, 8);
        mach.run(b.build());
        FVec got = mach.peekVrf(MemId::InitialVrf, 8, rows);

        for (uint32_t r = 0; r < rows; ++r) {
            for (size_t i = 0; i < 8; ++i) {
                double acc = 0.0;
                for (uint32_t c = 0; c < cols; ++c) {
                    BfpBlock w(tiles[r * cols + c].row(i), cfg.precision);
                    BfpBlock in(std::span<const float>(xh).subspan(c * 8, 8),
                                cfg.precision);
                    acc += BfpBlock::dot(w, in);
                }
                EXPECT_EQ(got[r * 8 + i], roundToHalf(static_cast<float>(acc)))
                    << "m=" << m << " r=" << r << " i=" << i;
            }
        }
    }
}

TEST(FuncMachine, CopyChainThroughNetq)
{
    FuncMachine m(tinyConfig());
    FVec in = {1, 2, 3, 4, 5, 6, 7, 8};
    m.pushInput(in);

    ProgramBuilder b;
    b.vRd(MemId::NetQ).vWr(MemId::InitialVrf, 3).vWr(MemId::NetQ);
    m.run(b.build());

    EXPECT_EQ(m.peekVrf(MemId::InitialVrf, 3), in);
    EXPECT_EQ(m.popOutput(1), in);
}

TEST(FuncMachine, MvMulMatchesGemv)
{
    NpuConfig cfg = tinyConfig(10); // near-exact quantization
    FuncMachine m(cfg);
    Rng rng(1);
    FMat w(8, 8);
    fillUniform(w, rng, -1.0f, 1.0f);
    FVec x(8);
    fillUniform(x, rng, -1.0f, 1.0f);

    m.loadMrfTile(0, w);
    m.loadVrf(MemId::InitialVrf, 0, x);

    ProgramBuilder b;
    b.vRd(MemId::InitialVrf, 0).mvMul(0).vWr(MemId::InitialVrf, 1);
    m.run(b.build());

    FVec got = m.peekVrf(MemId::InitialVrf, 1);
    FVec want = gemvRef(w, x);
    EXPECT_LT(maxAbsDiff(got, want), 2e-2);
}

TEST(FuncMachine, MvMulQuantizesWithNarrowBfp)
{
    // With a 2-bit mantissa the result should deviate measurably but
    // stay correlated with the exact product.
    NpuConfig cfg = tinyConfig(2);
    FuncMachine m(cfg);
    Rng rng(3);
    FMat w(8, 8);
    fillUniform(w, rng, -1.0f, 1.0f);
    FVec x(8);
    fillUniform(x, rng, -1.0f, 1.0f);
    m.loadMrfTile(0, w);
    m.loadVrf(MemId::InitialVrf, 0, x);
    ProgramBuilder b;
    b.vRd(MemId::InitialVrf, 0).mvMul(0).vWr(MemId::InitialVrf, 1);
    m.run(b.build());
    FVec got = m.peekVrf(MemId::InitialVrf, 1);
    FVec want = gemvRef(w, x);
    double diff = maxAbsDiff(got, want);
    EXPECT_GT(diff, 1e-4); // quantization is visible...
    EXPECT_LT(diff, 1.5);  // ...but bounded
}

TEST(FuncMachine, MegaSimdTiledMvMul)
{
    // rows=2, cols=2: a 16x16 logical matrix over 4 MRF tiles.
    NpuConfig cfg = tinyConfig(10);
    FuncMachine m(cfg);
    Rng rng(5);
    FMat w(16, 16);
    fillUniform(w, rng, -1.0f, 1.0f);
    FVec x(16);
    fillUniform(x, rng, -1.0f, 1.0f);

    // Tile layout: entry (r, c) at addr r*2 + c.
    for (int r = 0; r < 2; ++r) {
        for (int c = 0; c < 2; ++c) {
            FMat tile(8, 8);
            for (int i = 0; i < 8; ++i)
                for (int j = 0; j < 8; ++j)
                    tile(i, j) = w(r * 8 + i, c * 8 + j);
            m.loadMrfTile(r * 2 + c, tile);
        }
    }
    m.loadVrf(MemId::InitialVrf, 0, x);

    ProgramBuilder b;
    b.tile(2, 2);
    b.vRd(MemId::InitialVrf, 0).mvMul(0).vWr(MemId::InitialVrf, 4);
    m.run(b.build());

    FVec got = m.peekVrf(MemId::InitialVrf, 4, 2);
    FVec want = gemvRef(w, x);
    EXPECT_LT(maxAbsDiff(got, want), 5e-2);
}

TEST(FuncMachine, PointwiseOps)
{
    FuncMachine m(tinyConfig());
    FVec a = {1, -2, 3, -4, 0.5f, -0.5f, 2, -1};
    FVec o = {1, 1, 1, 1, 2, 2, 2, 2};
    m.loadVrf(MemId::InitialVrf, 0, a);
    m.loadVrf(MemId::AddSubVrf, 0, o);
    m.loadVrf(MemId::MultiplyVrf, 0, o);

    auto run_one = [&](ProgramBuilder &b) {
        m.run(b.build());
        return m.peekVrf(MemId::InitialVrf, 1);
    };

    {
        ProgramBuilder b;
        b.vRd(MemId::InitialVrf, 0).vvAdd(0).vWr(MemId::InitialVrf, 1);
        FVec r = run_one(b);
        for (int i = 0; i < 8; ++i)
            EXPECT_FLOAT_EQ(r[i], a[i] + o[i]);
    }
    {
        ProgramBuilder b;
        b.vRd(MemId::InitialVrf, 0).vvASubB(0).vWr(MemId::InitialVrf, 1);
        FVec r = run_one(b);
        for (int i = 0; i < 8; ++i)
            EXPECT_FLOAT_EQ(r[i], a[i] - o[i]);
    }
    {
        ProgramBuilder b;
        b.vRd(MemId::InitialVrf, 0).vvBSubA(0).vWr(MemId::InitialVrf, 1);
        FVec r = run_one(b);
        for (int i = 0; i < 8; ++i)
            EXPECT_FLOAT_EQ(r[i], o[i] - a[i]);
    }
    {
        ProgramBuilder b;
        b.vRd(MemId::InitialVrf, 0).vvMax(0).vWr(MemId::InitialVrf, 1);
        FVec r = run_one(b);
        for (int i = 0; i < 8; ++i)
            EXPECT_FLOAT_EQ(r[i], std::max(a[i], o[i]));
    }
    {
        ProgramBuilder b;
        b.vRd(MemId::InitialVrf, 0).vvMul(0).vWr(MemId::InitialVrf, 1);
        FVec r = run_one(b);
        for (int i = 0; i < 8; ++i)
            EXPECT_FLOAT_EQ(r[i], a[i] * o[i]);
    }
    {
        ProgramBuilder b;
        b.vRd(MemId::InitialVrf, 0).vRelu().vWr(MemId::InitialVrf, 1);
        FVec r = run_one(b);
        for (int i = 0; i < 8; ++i)
            EXPECT_FLOAT_EQ(r[i], std::max(a[i], 0.0f));
    }
    {
        ProgramBuilder b;
        b.vRd(MemId::InitialVrf, 0).vSigm().vWr(MemId::InitialVrf, 1);
        FVec r = run_one(b);
        for (int i = 0; i < 8; ++i)
            EXPECT_NEAR(r[i], 1.0f / (1.0f + std::exp(-a[i])), 1e-3);
    }
    {
        ProgramBuilder b;
        b.vRd(MemId::InitialVrf, 0).vTanh().vWr(MemId::InitialVrf, 1);
        FVec r = run_one(b);
        for (int i = 0; i < 8; ++i)
            EXPECT_NEAR(r[i], std::tanh(a[i]), 1e-3);
    }
}

TEST(FuncMachine, IteratedChainSweepsAddresses)
{
    FuncMachine m(tinyConfig());
    // Four input vectors at ivrf[0..3]; relu each into ivrf[10..13].
    for (uint32_t i = 0; i < 4; ++i) {
        FVec v(8, static_cast<float>(i) - 1.5f);
        m.loadVrf(MemId::InitialVrf, i, v);
    }
    ProgramBuilder b;
    b.sWr(ScalarReg::Iterations, 4);
    b.vRd(MemId::InitialVrf, 0).vRelu().vWr(MemId::InitialVrf, 10);
    m.run(b.build());
    for (uint32_t i = 0; i < 4; ++i) {
        float want = std::max(static_cast<float>(i) - 1.5f, 0.0f);
        EXPECT_FLOAT_EQ(m.peekVrf(MemId::InitialVrf, 10 + i)[0], want);
    }
}

TEST(FuncMachine, IteratedMvMulKeepsWeightsFixed)
{
    NpuConfig cfg = tinyConfig(10);
    FuncMachine m(cfg);
    Rng rng(9);
    FMat w(8, 8);
    fillUniform(w, rng, -1.0f, 1.0f);
    m.loadMrfTile(0, w);
    FVec bias(8, 0.5f);
    m.loadVrf(MemId::AddSubVrf, 0, bias);

    FVec x0(8), x1(8);
    fillUniform(x0, rng);
    fillUniform(x1, rng);
    m.loadVrf(MemId::InitialVrf, 0, x0);
    m.loadVrf(MemId::InitialVrf, 1, x1);

    ProgramBuilder b;
    b.sWr(ScalarReg::Iterations, 2);
    b.vRd(MemId::InitialVrf, 0)
        .mvMul(0)
        .vvAdd(0) // bias: fixed across iterations
        .vWr(MemId::InitialVrf, 8);
    m.run(b.build());

    FVec want0 = addRef(gemvRef(w, x0), bias);
    FVec want1 = addRef(gemvRef(w, x1), bias);
    EXPECT_LT(maxAbsDiff(m.peekVrf(MemId::InitialVrf, 8), want0), 2e-2);
    EXPECT_LT(maxAbsDiff(m.peekVrf(MemId::InitialVrf, 9), want1), 2e-2);
}

TEST(FuncMachine, MatrixChainFromNetqAndDram)
{
    NpuConfig cfg = tinyConfig(10);
    FuncMachine m(cfg);
    Rng rng(11);
    FMat w(8, 8);
    fillUniform(w, rng, -1.0f, 1.0f);

    // NetQ -> MRF (weight initialization over the network).
    m.pushInputTile(w);
    ProgramBuilder b1;
    b1.mRd(MemId::NetQ).mWr(MemId::MatrixRf, 2);
    m.run(b1.build());
    EXPECT_LT(maxAbsDiff(m.peekMrfTile(2).data(), w.data()), 1e-2);

    // DRAM -> MRF and MRF-backed DRAM round trip.
    m.loadDramTile(7, w);
    ProgramBuilder b2;
    b2.mRd(MemId::Dram, 7).mWr(MemId::MatrixRf, 3);
    m.run(b2.build());
    EXPECT_LT(maxAbsDiff(m.peekMrfTile(3).data(), w.data()), 1e-2);
}

TEST(FuncMachine, DramVectorPath)
{
    FuncMachine m(tinyConfig());
    FVec v = {1, 2, 3, 4, 5, 6, 7, 8};
    m.loadDramVector(5, v);
    ProgramBuilder b;
    b.vRd(MemId::Dram, 5).vWr(MemId::Dram, 9).vWr(MemId::InitialVrf, 0);
    m.run(b.build());
    EXPECT_EQ(m.peekVrf(MemId::InitialVrf, 0), v);
}

TEST(FuncMachine, NetqUnderrunFails)
{
    FuncMachine m(tinyConfig());
    ProgramBuilder b;
    b.vRd(MemId::NetQ).vWr(MemId::InitialVrf, 0);
    EXPECT_THROW(m.run(b.build()), Error);
}

TEST(FuncMachine, ValidationRunsBeforeExecution)
{
    FuncMachine m(tinyConfig());
    ProgramBuilder b;
    b.vRd(MemId::InitialVrf, 0)
        .vTanh()
        .vSigm()
        .vRelu() // needs 3 MFUs, config has 2
        .vWr(MemId::InitialVrf, 1);
    EXPECT_THROW(m.run(b.build()), Error);
}

TEST(FuncMachine, StatePersistsAcrossRuns)
{
    FuncMachine m(tinyConfig());
    FVec v(8, 2.0f);
    m.loadVrf(MemId::InitialVrf, 0, v);
    ProgramBuilder b;
    b.vRd(MemId::InitialVrf, 0)
        .vRelu()
        .vWr(MemId::InitialVrf, 0); // in-place
    Program p = b.build();
    m.run(p, 3);
    EXPECT_FLOAT_EQ(m.peekVrf(MemId::InitialVrf, 0)[0], 2.0f);
    m.resetDynamicState();
    EXPECT_FLOAT_EQ(m.peekVrf(MemId::InitialVrf, 0)[0], 0.0f);
}

} // namespace
} // namespace bw
