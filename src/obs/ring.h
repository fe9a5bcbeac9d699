/**
 * @file
 * ShardedRing: the per-thread ring buffer behind SpanTracer and
 * FlightRecorder.
 *
 * Each recording thread owns one of kShards cache-line-padded shards
 * (threads beyond kShards share, round-robin). A shard's ring is
 * allocated on the first claim into that shard; when several threads
 * race on it, one allocation is published (compare-and-swap) and the
 * others are discarded, so a recorder holds memory only for the shards
 * that have recorded — single-threaded replay touches one. After that,
 * the buffer pointer is a single acquire load: no call_once, no lock.
 *
 * claim(n) reserves n consecutive slots with one relaxed fetch_add(n)
 * and hands them out in order, wrapping at capacity with a compare
 * rather than a modulo per slot; the caller writes each record in
 * place. A multi-record claim (a whole span tree) is therefore
 * contiguous within its shard, and lands in exactly the slots the same
 * records would take through n single claims — so what collect() keeps,
 * recorded() and dropped() do not depend on how records were grouped.
 * record(v) is claim(1). Wait-free, no locks, no allocation after the
 * first claim. The oldest records of a full shard are overwritten.
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

    /**
     * n consecutive ring slots reserved by claim(n). next() returns
     * them in order; each must be written whole (the slot still holds
     * whatever it last recorded). Destruction publishes the writes.
     */
    class Claim
    {
      public:
        Claim(const Claim &) = delete;
        Claim &operator=(const Claim &) = delete;

        ~Claim()
        {
            // Publish: collect() loads with acquire after quiescence,
            // so the record writes are visible once the count is.
            std::atomic_thread_fence(std::memory_order_release);
        }

        T &
        next()
        {
            T &slot = ring_[pos_];
            if (++pos_ == capacity_)
                pos_ = 0;
            return slot;
        }

      private:
        friend class ShardedRing;
        Claim(T *ring, size_t capacity, size_t pos)
            : ring_(ring), capacity_(capacity), pos_(pos)
        {
        }

        T *ring_;
        size_t capacity_;
        size_t pos_;
    };

    explicit ShardedRing(size_t capacity)
        : capacity_(std::max<size_t>(1, capacity))
    {
    }

    ShardedRing(const ShardedRing &) = delete;
    ShardedRing &operator=(const ShardedRing &) = delete;

    ~ShardedRing()
    {
        for (Shard &sh : shards_)
            delete[] sh.ring.load(std::memory_order_relaxed);
    }

    /** Reserve the calling thread's next @p n slots (see file comment). */
    Claim
    claim(size_t n)
    {
        Shard &sh = shards_[ringThreadSlot() % kShards];
        T *ring = sh.ring.load(std::memory_order_acquire);
        if (!ring)
            ring = allocate(sh);
        uint64_t first = sh.count.fetch_add(n, std::memory_order_relaxed);
        return Claim(ring, capacity_, static_cast<size_t>(first % capacity_));
    }

    void record(const T &v) { claim(1).next() = v; }

    /** Every kept record, shard by shard in slot order (unsorted). */
    std::vector<T>
    collect() const
    {
        std::atomic_thread_fence(std::memory_order_acquire);
        std::vector<T> out;
        for (const Shard &sh : shards_) {
            uint64_t n = sh.count.load(std::memory_order_acquire);
            const T *ring = sh.ring.load(std::memory_order_acquire);
            if (!ring)
                continue;
            size_t kept =
                static_cast<size_t>(std::min<uint64_t>(n, capacity_));
            out.insert(out.end(), ring, ring + kept);
        }
        return out;
    }

    /** Total records offered (including overwritten). */
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

    /** Forget every record; allocated rings stay for reuse. */
    void
    clear()
    {
        for (Shard &sh : shards_)
            sh.count.store(0, std::memory_order_relaxed);
    }

  private:
    struct alignas(64) Shard
    {
        std::atomic<T *> ring{nullptr};
        std::atomic<uint64_t> count{0};
    };

    /** First claim into @p sh: publish one ring; racing losers free
     *  theirs and use the winner's. */
    T *
    allocate(Shard &sh)
    {
        T *fresh = new T[capacity_]();
        T *seen = nullptr;
        if (sh.ring.compare_exchange_strong(seen, fresh,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire))
            return fresh;
        delete[] fresh;
        return seen;
    }

    size_t capacity_;
    std::array<Shard, kShards> shards_;
};

} // namespace obs
} // namespace bw

#endif // BW_OBS_RING_H
