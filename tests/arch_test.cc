/**
 * @file
 * Tests of the architectural configuration: the Table III presets'
 * derived quantities (MAC counts, peak TFLOPS), validation, and the
 * memory-space metadata.
 */

#include <gtest/gtest.h>

#include "arch/mem_id.h"
#include "arch/npu_config.h"
#include "common/logging.h"

namespace bw {
namespace {

TEST(NpuConfig, BwS10MatchesPaper)
{
    NpuConfig c = NpuConfig::bwS10();
    c.validate();
    EXPECT_EQ(c.nativeDim, 400u);
    EXPECT_EQ(c.lanes, 40u);
    EXPECT_EQ(c.tileEngines, 6u);
    EXPECT_EQ(c.mrfSize, 306u);
    EXPECT_EQ(c.mfus, 2u);
    // "scaled up to 96,000 multiply-accumulate units" / Table V setup.
    EXPECT_EQ(c.macCount(), 96000u);
    // Table III: 48 peak TFLOPS at 250 MHz.
    EXPECT_DOUBLE_EQ(c.peakTflops(), 48.0);
    EXPECT_EQ(c.nativeVectorBeats(), 10u);
    EXPECT_EQ(c.precision, bfp152());
}

TEST(NpuConfig, BwA10MatchesPaper)
{
    NpuConfig c = NpuConfig::bwA10();
    c.validate();
    EXPECT_EQ(c.macCount(), 8u * 128 * 16);
    EXPECT_NEAR(c.peakTflops(), 9.8, 0.05);
    EXPECT_EQ(c.nativeVectorBeats(), 8u);
}

TEST(NpuConfig, BwS5MatchesPaper)
{
    NpuConfig c = NpuConfig::bwS5();
    c.validate();
    EXPECT_EQ(c.macCount(), 6000u);
    EXPECT_DOUBLE_EQ(c.peakTflops(), 2.4);
}

TEST(NpuConfig, CnnVariant)
{
    NpuConfig c = NpuConfig::bwCnnA10();
    c.validate();
    EXPECT_EQ(c.precision, bfp155()); // Table VI: BFP (1s.5e.5m)
    EXPECT_GT(c.initialVrfSize, NpuConfig::bwA10().initialVrfSize);
}

TEST(NpuConfig, ValidateRejectsBadShapes)
{
    NpuConfig c = NpuConfig::bwS10();
    c.lanes = 0;
    EXPECT_THROW(c.validate(), Error);

    c = NpuConfig::bwS10();
    c.lanes = 401; // lanes > native dim
    EXPECT_THROW(c.validate(), Error);

    c = NpuConfig::bwS10();
    c.lanes = 33; // native dim not a multiple of lanes
    EXPECT_THROW(c.validate(), Error);

    c = NpuConfig::bwS10();
    c.mfus = 0;
    EXPECT_THROW(c.validate(), Error);

    c = NpuConfig::bwS10();
    c.clockMhz = 0;
    EXPECT_THROW(c.validate(), Error);
}

TEST(NpuConfig, ValidateBoundsMantissaWidthToInt16)
{
    // BfpFormat is an aggregate, so a width parse() rejects can still
    // reach a config; the functional simulator stores int16 mantissas.
    NpuConfig c = NpuConfig::bwS10();
    c.precision = BfpFormat{1, 5, 15};
    EXPECT_NO_THROW(c.validate());
    c.precision = BfpFormat{1, 5, 16};
    EXPECT_THROW(c.validate(), Error);
    c.precision = BfpFormat{1, 5, 0};
    EXPECT_THROW(c.validate(), Error);
}

TEST(NpuConfig, MrfIndexSpaceDefault)
{
    NpuConfig c = NpuConfig::bwS10();
    EXPECT_EQ(c.mrfEntries(), 4 * 306u);
    c.mrfIndexSpace = 1000;
    EXPECT_EQ(c.mrfEntries(), 1000u);
}

TEST(MemId, NamesRoundTrip)
{
    for (int i = 0; i < static_cast<int>(MemId::NumMemIds); ++i) {
        MemId id = static_cast<MemId>(i);
        EXPECT_EQ(parseMemId(memIdMnemonic(id)), id);
        EXPECT_EQ(parseMemId(memIdName(id)), id);
    }
    EXPECT_THROW(parseMemId("bogus"), Error);
}

TEST(MemId, Capabilities)
{
    EXPECT_TRUE(isVrf(MemId::InitialVrf));
    EXPECT_TRUE(isVrf(MemId::AddSubVrf));
    EXPECT_TRUE(isVrf(MemId::MultiplyVrf));
    EXPECT_FALSE(isVrf(MemId::MatrixRf));
    EXPECT_FALSE(isVrf(MemId::NetQ));

    EXPECT_TRUE(isVectorReadable(MemId::NetQ));
    EXPECT_TRUE(isVectorReadable(MemId::Dram));
    EXPECT_FALSE(isVectorReadable(MemId::MatrixRf));
    EXPECT_TRUE(isVectorWritable(MemId::NetQ));
    EXPECT_FALSE(isVectorWritable(MemId::MatrixRf));
}

} // namespace
} // namespace bw
