#include "arch/npu_config.h"

#include "common/bits.h"
#include "common/logging.h"

namespace bw {

void
NpuConfig::validate() const
{
    if (nativeDim == 0 || lanes == 0 || tileEngines == 0)
        BW_FATAL("%s: native dim, lanes, tile engines must be non-zero",
                 name.c_str());
    if (lanes > nativeDim)
        BW_FATAL("%s: lanes (%u) exceed native dim (%u)", name.c_str(),
                 lanes, nativeDim);
    if (nativeDim % lanes != 0)
        BW_FATAL("%s: native dim (%u) must be a multiple of lanes (%u)",
                 name.c_str(), nativeDim, lanes);
    if (mfus == 0)
        BW_FATAL("%s: at least one MFU is required", name.c_str());
    if (mrfSize == 0 || initialVrfSize == 0 || addSubVrfSize == 0 ||
        multiplyVrfSize == 0) {
        BW_FATAL("%s: register files must have non-zero capacity",
                 name.c_str());
    }
    if (clockMhz <= 0.0)
        BW_FATAL("%s: clock must be positive", name.c_str());
    if (precision.mantBits < 1 || precision.mantBits > kMaxMantBits)
        BW_FATAL("%s: matrix precision needs 1 to %d mantissa bits (%d "
                 "given)", name.c_str(), kMaxMantBits, precision.mantBits);
}

NpuConfig
NpuConfig::bwS5()
{
    NpuConfig c;
    c.name = "BW_S5";
    c.nativeDim = 100;
    c.lanes = 10;
    c.tileEngines = 6;
    c.mrfSize = 306;
    c.mfus = 2;
    c.clockMhz = 200.0;
    c.precision = bfp152();
    c.dramBytes = 4ull << 30;
    return c;
}

NpuConfig
NpuConfig::bwA10()
{
    NpuConfig c;
    c.name = "BW_A10";
    c.nativeDim = 128;
    c.lanes = 16;
    c.tileEngines = 8;
    c.mrfSize = 512;
    c.mfus = 2;
    c.clockMhz = 300.0;
    c.precision = bfp152();
    c.dramBytes = 8ull << 30;
    return c;
}

NpuConfig
NpuConfig::bwS10()
{
    NpuConfig c;
    c.name = "BW_S10";
    c.nativeDim = 400;
    c.lanes = 40;
    c.tileEngines = 6;
    c.mrfSize = 306;
    c.mfus = 2;
    c.clockMhz = 250.0;
    c.precision = bfp152();
    c.dramBytes = 8ull << 30;
    return c;
}

NpuConfig
NpuConfig::bwCnnA10()
{
    NpuConfig c = bwA10();
    c.name = "BW_CNN_A10";
    // The CNN featurizer variant uses a wider mantissa (Table VI) and
    // relies on DRAM streaming of weights overlapped with compute
    // (Section V-A), so it carries a larger effective DRAM bandwidth,
    // trades MRF capacity for large on-chip activation buffers, and
    // sizes the MRF index space for double-buffered layer weights.
    c.precision = bfp155();
    c.timing.dramBytesPerCycle = 128;
    c.mrfSize = 320;
    c.mrfIndexSpace = 2048;
    c.initialVrfSize = 16384;
    c.addSubVrfSize = 1024;
    return c;
}

} // namespace bw
