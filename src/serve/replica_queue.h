/**
 * @file
 * bw::serve::ReplicaQueue — the virtual-time queueing discipline of
 * the paper's batch-1 serving model (Fig. 8, no batching): one bounded
 * FIFO in front of N accelerator replicas, each request dequeued
 * straight into service on the earliest-free replica.
 *
 * Engine::replayUnbatched and the cluster's per-shard dispatch
 * (Cluster::runAttempt, its load signal and hedge cancellation) all
 * queue through this one type, so the model is decided in one place.
 * runtime::serveUnbatched stays a separate, deliberately independent
 * implementation: it is the oracle the differential tests compare
 * against.
 */

#ifndef BW_SERVE_REPLICA_QUEUE_H
#define BW_SERVE_REPLICA_QUEUE_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

namespace bw {
namespace serve {

/**
 * Per-replica next-free times plus the dequeue (service-start) time of
 * every admitted request. FIFO over earliest-free replicas keeps the
 * starts nondecreasing, so the occupancy an arrival at t sees — the
 * admitted requests not yet dequeued — is one binary search.
 */
class ReplicaQueue
{
  public:
    /** One reserved service slot (what undo() needs to roll it back). */
    struct Reservation
    {
        size_t replica = 0;
        double startS = 0;    //!< dequeue = service start
        double prevFreeS = 0; //!< the replica's next-free time before
    };

    explicit ReplicaQueue(unsigned replicas = 1) { reset(replicas); }

    /** Empty queue, every replica free at time 0. */
    void
    reset(unsigned replicas)
    {
        starts_.clear();
        free_.assign(replicas, 0.0);
    }

    /** Admitted requests not yet dequeued at @p t. */
    size_t
    queued(double t) const
    {
        return starts_.size() -
               static_cast<size_t>(
                   std::upper_bound(starts_.begin(), starts_.end(), t) -
                   starts_.begin());
    }

    /** Replicas still in service at @p t. */
    uint64_t
    busy(double t) const
    {
        return static_cast<uint64_t>(std::count_if(
            free_.begin(), free_.end(), [t](double f) { return f > t; }));
    }

    /** Admission check: the queue already holds @p depth requests. */
    bool full(double t, size_t depth) const { return queued(t) >= depth; }

    /**
     * Admit a request arriving at @p t: it reaches the accelerator
     * after half the network round trip @p net_s and starts on the
     * earliest-free replica (lowest index on ties). The replica's
     * next-free time is left for release() once the service time is
     * known.
     */
    Reservation
    reserve(double t, double net_s)
    {
        Reservation rv;
        rv.replica = static_cast<size_t>(
            std::min_element(free_.begin(), free_.end()) - free_.begin());
        rv.prevFreeS = free_[rv.replica];
        rv.startS = std::max(t + net_s / 2, rv.prevFreeS);
        starts_.push_back(rv.startS);
        return rv;
    }

    /** The replica is busy until @p free_s. */
    void release(size_t replica, double free_s) { free_[replica] = free_s; }

    /** Roll back the most recent reservation (a cancelled request that
     *  never started): its queue slot and replica time never existed. */
    void
    undo(const Reservation &rv)
    {
        free_[rv.replica] = rv.prevFreeS;
        if (!starts_.empty())
            starts_.pop_back();
    }

    /**
     * Drop the starts at or before @p t. Those are exactly the entries
     * queued(t) counts as dequeued, and under ascending arrivals they
     * can never count as queued again — so pruning at each arrival
     * changes no admission decision and bounds the history at the
     * queue depth.
     */
    void
    prune(double t)
    {
        while (!starts_.empty() && starts_.front() <= t)
            starts_.pop_front();
    }

  private:
    std::deque<double> starts_; //!< dequeue time per admitted request
    std::vector<double> free_;  //!< per-replica next-free time
};

} // namespace serve
} // namespace bw

#endif // BW_SERVE_REPLICA_QUEUE_H
