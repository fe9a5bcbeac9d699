/**
 * @file
 * ShardedRing: the per-thread ring buffer behind SpanTracer and
 * FlightRecorder.
 *
 * Each recording thread owns one of kShards cache-line-padded shards
 * (threads beyond kShards share, round-robin). A shard's ring is sized
 * on the first record() into that shard, exactly once even when several
 * threads race on it, so a recorder holds memory only for the shards
 * that have recorded — single-threaded replay touches one. After that
 * first record, record() is one relaxed fetch_add plus a POD copy into
 * slot n % capacity: wait-free, no locks, no allocation. The oldest
 * records of a full shard are overwritten.
 *
 * collect() and the counters read the shards; collect() is safe only
 * once producers have quiesced (the Engine::trace() read discipline).
 */

#ifndef BW_OBS_RING_H
#define BW_OBS_RING_H

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace bw {
namespace obs {

/** Stable per-thread shard index (modulo taken at use). */
inline size_t
ringThreadSlot()
{
    static std::atomic<size_t> next{0};
    thread_local const size_t slot =
        next.fetch_add(1, std::memory_order_relaxed);
    return slot;
}

template <typename T>
class ShardedRing
{
  public:
    static constexpr size_t kShards = 16;

    explicit ShardedRing(size_t capacity)
        : capacity_(std::max<size_t>(1, capacity))
    {
    }

    void
    record(const T &v)
    {
        Shard &sh = shards_[ringThreadSlot() % kShards];
        std::call_once(sh.sized, [&] { sh.ring.resize(capacity_); });
        uint64_t n = sh.count.fetch_add(1, std::memory_order_relaxed);
        sh.ring[n % capacity_] = v;
        // Publish: collect() loads with acquire after quiescence, so the
        // record write above is visible once the count is.
        std::atomic_thread_fence(std::memory_order_release);
    }

    /** Every kept record, shard by shard in slot order (unsorted). */
    std::vector<T>
    collect() const
    {
        std::atomic_thread_fence(std::memory_order_acquire);
        std::vector<T> out;
        for (const Shard &sh : shards_) {
            uint64_t n = sh.count.load(std::memory_order_acquire);
            size_t kept =
                static_cast<size_t>(std::min<uint64_t>(n, capacity_));
            out.insert(out.end(), sh.ring.begin(), sh.ring.begin() + kept);
        }
        return out;
    }

    /** Total records offered to record() (including overwritten). */
    uint64_t
    recorded() const
    {
        uint64_t n = 0;
        for (const Shard &sh : shards_)
            n += sh.count.load(std::memory_order_relaxed);
        return n;
    }

    /** Records lost to ring overwrite. */
    uint64_t
    dropped() const
    {
        uint64_t d = 0;
        for (const Shard &sh : shards_) {
            uint64_t n = sh.count.load(std::memory_order_relaxed);
            if (n > capacity_)
                d += n - capacity_;
        }
        return d;
    }

    /** Forget every record; sized rings stay allocated for reuse. */
    void
    clear()
    {
        for (Shard &sh : shards_)
            sh.count.store(0, std::memory_order_relaxed);
    }

  private:
    struct alignas(64) Shard
    {
        std::vector<T> ring;
        std::atomic<uint64_t> count{0};
        std::once_flag sized;
    };

    size_t capacity_;
    std::array<Shard, kShards> shards_;
};

} // namespace obs
} // namespace bw

#endif // BW_OBS_RING_H
