#include "func/regfile.h"

#include "bfp/float16.h"

namespace bw {

VectorRegFile::VectorRegFile(unsigned entries, unsigned native_dim,
                             std::string name)
    : entries_(entries), nativeDim_(native_dim), name_(std::move(name)),
      data_(static_cast<size_t>(entries) * native_dim, 0.0f)
{
}

void
VectorRegFile::checkRange(uint32_t addr, uint32_t count) const
{
    if (static_cast<uint64_t>(addr) + count > entries_) {
        BW_FATAL("%s: access [%u, %u) exceeds %u entries", name_.c_str(),
                 addr, addr + count, entries_);
    }
}

FVec
VectorRegFile::read(uint32_t addr, uint32_t count) const
{
    checkRange(addr, count);
    auto begin = data_.begin() + static_cast<size_t>(addr) * nativeDim_;
    return FVec(begin, begin + static_cast<size_t>(count) * nativeDim_);
}

void
VectorRegFile::write(uint32_t addr, std::span<const float> data)
{
    BW_ASSERT(data.size() % nativeDim_ == 0,
              "%s: write of %zu elements is not native-vector aligned",
              name_.c_str(), data.size());
    uint32_t count = static_cast<uint32_t>(data.size() / nativeDim_);
    checkRange(addr, count);
    float *dst = data_.data() + static_cast<size_t>(addr) * nativeDim_;
    for (size_t i = 0; i < data.size(); ++i)
        dst[i] = roundToHalf(data[i]);
}

void
VectorRegFile::clear()
{
    std::fill(data_.begin(), data_.end(), 0.0f);
}

QuantTile::QuantTile(const FMat &tile, const BfpFormat &fmt)
    : fmt_(fmt), dim_(tile.rows()), mant_(tile.rows() * tile.cols()),
      scale_(tile.rows())
{
    BW_ASSERT(tile.rows() == tile.cols(),
              "native tiles are square (%zux%zu given)", tile.rows(),
              tile.cols());
    for (size_t r = 0; r < dim_; ++r)
        scale_[r] = bfpScale(bfpQuantize(tile.row(r), fmt_, &mant_[r * dim_]),
                             fmt_);
}

FMat
QuantTile::dequant() const
{
    FMat out(dim_, dim_);
    for (size_t r = 0; r < dim_; ++r) {
        const int16_t *q = rowMant(r);
        auto row = out.row(r);
        for (size_t i = 0; i < dim_; ++i)
            row[i] = static_cast<float>(q[i] * scale_[r]);
    }
    return out;
}

MatrixRegFile::MatrixRegFile(unsigned tiles, unsigned native_dim)
    : tiles_(tiles), nativeDim_(native_dim), data_(tiles)
{
}

void
MatrixRegFile::write(uint32_t addr, QuantTile tile)
{
    if (addr >= tiles_)
        BW_FATAL("MRF: write to entry %u exceeds %u tiles", addr, tiles_);
    BW_ASSERT(tile.dim() == nativeDim_);
    data_[addr] = std::move(tile);
}

const QuantTile &
MatrixRegFile::read(uint32_t addr) const
{
    if (addr >= tiles_)
        BW_FATAL("MRF: read of entry %u exceeds %u tiles", addr, tiles_);
    if (!data_[addr].valid())
        BW_FATAL("MRF: read of entry %u before any write (uninitialized "
                 "model weights)", addr);
    return data_[addr];
}

bool
MatrixRegFile::isWritten(uint32_t addr) const
{
    return addr < tiles_ && data_[addr].valid();
}

DramStore::DramStore(uint64_t capacity_bytes, unsigned native_dim)
    : capacityBytes_(capacity_bytes), nativeDim_(native_dim)
{
    // Entry-granular model: bound entry counts by capacity assuming
    // 2 bytes/element storage.
    uint64_t vec_bytes = static_cast<uint64_t>(native_dim) * 2;
    maxVectors_ = std::min<uint64_t>(capacity_bytes / vec_bytes, 1ull << 22);
    uint64_t tile_bytes = vec_bytes * native_dim;
    maxTiles_ = std::min<uint64_t>(capacity_bytes / tile_bytes, 1ull << 16);
}

FVec
DramStore::readVector(uint32_t addr, uint32_t count) const
{
    if (static_cast<uint64_t>(addr) + count > maxVectors_)
        BW_FATAL("DRAM: vector read [%u, %u) out of range", addr,
                 addr + count);
    FVec out;
    out.reserve(static_cast<size_t>(count) * nativeDim_);
    for (uint32_t i = 0; i < count; ++i) {
        size_t a = static_cast<size_t>(addr) + i;
        if (a >= vectors_.size() || vectors_[a].empty()) {
            out.insert(out.end(), nativeDim_, 0.0f);
        } else {
            out.insert(out.end(), vectors_[a].begin(), vectors_[a].end());
        }
    }
    return out;
}

void
DramStore::writeVector(uint32_t addr, std::span<const float> data)
{
    BW_ASSERT(data.size() % nativeDim_ == 0);
    uint32_t count = static_cast<uint32_t>(data.size() / nativeDim_);
    uint64_t end = static_cast<uint64_t>(addr) + count;
    if (end > maxVectors_)
        BW_FATAL("DRAM: vector write [%u, %u) out of range", addr,
                 addr + count);
    if (end > vectors_.size())
        vectors_.resize(end);
    for (uint32_t i = 0; i < count; ++i) {
        vectors_[addr + i].assign(data.begin() + i * nativeDim_,
                                  data.begin() + (i + 1) * nativeDim_);
    }
}

const FMat &
DramStore::readTile(uint32_t addr) const
{
    if (addr >= tiles_.size() || tiles_[addr].empty())
        BW_FATAL("DRAM: tile read of %u (unwritten or out of range)", addr);
    return tiles_[addr];
}

void
DramStore::writeTile(uint32_t addr, FMat tile)
{
    if (addr >= maxTiles_)
        BW_FATAL("DRAM: tile write of %u out of range", addr);
    BW_ASSERT(tile.rows() == nativeDim_ && tile.cols() == nativeDim_);
    if (addr >= tiles_.size())
        tiles_.resize(static_cast<size_t>(addr) + 1);
    tiles_[addr] = std::move(tile);
}

void
NetQueues::pushInputVector(FVec v)
{
    BW_ASSERT(v.size() == nativeDim_,
              "NetQ input must be one native vector (%u elements), got %zu",
              nativeDim_, v.size());
    in_.push_back(std::move(v));
}

void
NetQueues::pushInputTile(FMat tile)
{
    BW_ASSERT(tile.rows() == nativeDim_ && tile.cols() == nativeDim_);
    inTiles_.push_back(std::move(tile));
}

FVec
NetQueues::popInput(uint32_t count)
{
    if (in_.size() < count)
        BW_FATAL("NetQ: v_rd of %u vectors but only %zu queued (input "
                 "underrun)", count, in_.size());
    FVec out;
    out.reserve(static_cast<size_t>(count) * nativeDim_);
    for (uint32_t i = 0; i < count; ++i) {
        out.insert(out.end(), in_.front().begin(), in_.front().end());
        in_.pop_front();
    }
    return out;
}

FMat
NetQueues::popInputTile()
{
    if (inTiles_.empty())
        BW_FATAL("NetQ: m_rd with no queued tile");
    FMat t = std::move(inTiles_.front());
    inTiles_.pop_front();
    return t;
}

void
NetQueues::pushOutput(FVec v)
{
    BW_ASSERT(v.size() == nativeDim_);
    out_.push_back(std::move(v));
}

FVec
NetQueues::popOutput(uint32_t count)
{
    if (out_.size() < count)
        BW_FATAL("NetQ: host pop of %u vectors but only %zu queued", count,
                 out_.size());
    FVec res;
    res.reserve(static_cast<size_t>(count) * nativeDim_);
    for (uint32_t i = 0; i < count; ++i) {
        res.insert(res.end(), out_.front().begin(), out_.front().end());
        out_.pop_front();
    }
    return res;
}

} // namespace bw
