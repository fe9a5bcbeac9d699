/**
 * @file
 * Request-scoped span tracing: follow one inference from Session/Engine
 * admission to retired instruction chains.
 *
 * The event trace (obs/trace.h) answers "what did the simulated
 * hardware do" and the metrics registry answers "what are the
 * distributions" — neither can explain why request #4711 took 9 ms when
 * p50 is 2 ms. A SpanTracer assigns each admitted request a trace id
 * and records a span tree:
 *
 *   request                       admission -> completion
 *   +-- queue_wait                admission -> dequeue
 *   +-- dispatch                  dequeue -> service start
 *   +-- execute (replica r)       service start -> completion
 *       +-- chain[i]              per retired chain, from the timing
 *                                 simulator's ChainProfile, each leaf
 *                                 carrying the chain's stall breakdown
 *
 * Context propagates explicitly: a TraceContext rides on the queued
 * request (no thread-local magic), so spans survive the hop from the
 * submitting thread to the worker that serves the request. Head
 * sampling (SpanTracerOptions::sampleEvery, env BW_SPAN_SAMPLE) decides
 * at admission whether a request is traced at all; the decision is a
 * pure function of the deterministic request sequence number, so
 * virtual-time replays reproduce byte-identical exports.
 *
 * Recording is wait-free on the hot path: a request's whole tree is one
 * claim on a per-thread ring buffer (the same sharding discipline as
 * the metrics registry), written in place by recordSpanTree(), and the
 * rings are merged and sorted at export time. Like the engine's event
 * trace, collect()/exports are safe once the producers have quiesced
 * (engine drained or shut down).
 *
 * Three exports: Chrome/Perfetto async ("ph":"b"/"e") events that
 * overlay the event-trace timeline, ordered JSON span trees (validated
 * by validateSpanTreeJson), and — via the serving engine — histogram
 * exemplars: the slowest trace id per latency bucket in /metrics.json.
 */

#ifndef BW_OBS_SPAN_H
#define BW_OBS_SPAN_H

#include <cstdint>
#include <functional>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "common/units.h"
#include "obs/ring.h"
#include "obs/trace.h"

namespace bw {
namespace obs {

using TraceId = uint64_t;
using SpanId = uint32_t;

/** Node kinds of the canonical request span tree. */
enum class SpanKind : uint8_t
{
    Request = 0, //!< whole request: admission -> completion
    QueueWait,   //!< admission -> dequeue
    Dispatch,    //!< dequeue -> service start (batch admin, expiry)
    Execute,     //!< service on one accelerator replica
    Chain,       //!< one retired instruction chain within execute
    Route,       //!< cluster front-door routing decision (tree root)
    Hedge,       //!< one hedged dispatch attempt under a route span
    NumSpanKinds
};

const char *spanKindName(SpanKind k);

/** How the request span ended. */
enum class SpanOutcome : uint8_t
{
    Ok = 0,
    DeadlineExpired, //!< waited out its deadline in the queue
    Cancelled,       //!< abandoned by shutdown()
    Rejected,        //!< refused admission (QUEUE_FULL)
    Error,           //!< served, but service reported an error
};

const char *spanOutcomeName(SpanOutcome o);

/**
 * Trace context carried on a queued request. Propagated explicitly —
 * the submitting thread stamps it at admission, the worker thread reads
 * it at service — never through thread-local state.
 */
struct TraceContext
{
    TraceId trace = 0; //!< 0 = not sampled (tracing off for this request)

    bool sampled() const { return trace != 0; }
};

/**
 * One recorded span. Flat and POD-sized so the hot path can copy it
 * into a ring slot without allocating; trees are
 * reassembled from (trace, parent) at export.
 */
struct SpanRecord
{
    TraceId trace = 0;
    SpanId id = 0;     //!< 1-based, unique within the trace
    SpanId parent = 0; //!< 0 = root
    SpanKind kind = SpanKind::Request;
    SpanOutcome outcome = SpanOutcome::Ok; //!< request spans only
    char chainKind = 0;                    //!< 'M'/'V' on chain spans
    uint32_t index = 0;   //!< replica (execute) / chain ordinal (chain)
    uint32_t chainId = 0; //!< chain spans: first-instruction index
    /** Execute spans: chain profiles available for the request's step
     *  count (larger than the recorded children when truncated). */
    uint32_t chainCount = 0;
    uint64_t startUs = 0; //!< microseconds on the owning clock
    uint64_t endUs = 0;

    // Chain spans: the cycle-domain interval and stall breakdown from
    // the timing simulator's ChainProfile (obs/trace.h).
    Cycles startCycle = 0;
    Cycles endCycle = 0;
    Cycles dispatchCycles = 0; //!< control-processor streaming
    Cycles decodeCycles = 0;   //!< schedule + hierarchical decode
    Cycles dataStallCycles = 0;
    Cycles inputStallCycles = 0;
    Cycles structStallCycles = 0;
    Cycles computeCycles = 0; //!< remainder: useful work
};

/** SpanTracer configuration. */
struct SpanTracerOptions
{
    /** Ring capacity per shard (per recording thread slot); the oldest
     *  spans of a shard are overwritten once its ring is full. */
    size_t shardCapacity = 1u << 14;

    /**
     * Head sampling: trace 1 in every @p sampleEvery admitted requests
     * (1 = every request, 0 = none). Decided at admission from the
     * request's deterministic sequence number, so the same arrival
     * schedule always samples the same requests.
     */
    unsigned sampleEvery = 1;

    /** Cap on chain child spans recorded under one execute span (the
     *  execute span's chainCount still reports the full total). */
    unsigned maxChainSpans = 256;

    /** Apply BW_SPAN_SAMPLE (sampleEvery) on top of @p base. */
    static SpanTracerOptions fromEnv(SpanTracerOptions base);
    static SpanTracerOptions fromEnv();
};

/**
 * Wait-free span recorder over a per-thread ring shard (obs/ring.h).
 * claim(n) reserves n consecutive slots with one relaxed fetch_add and
 * the caller writes each SpanRecord in place; record() is claim(1). A
 * sampled request's whole span tree is one claim (recordSpanTree), so
 * the tree sits contiguous within its shard and lands in the same
 * slots, in the same order, as span-by-span recording would put it.
 * The hot path is one thread-slot lookup, one acquire load of the
 * shard's published ring and the fetch_add — no call_once, no locks,
 * and engine workers never contend. A shard's ring is allocated on the
 * first claim into it; after that, recording never allocates.
 * collect() merges the shards; call it only after producers have
 * quiesced (the same read discipline as Engine::trace()).
 */
class SpanTracer
{
  public:
    using Claim = ShardedRing<SpanRecord>::Claim;

    explicit SpanTracer(SpanTracerOptions opts = {});

    const SpanTracerOptions &options() const { return opts_; }

    /**
     * Head-sampling decision for the request with deterministic
     * sequence number @p seq (1-based). Returns a context whose trace
     * id equals @p seq when sampled, 0 otherwise.
     */
    TraceContext admit(uint64_t seq) const;

    /** Reserve the calling thread's next @p n span slots; write each
     *  record whole through Claim::next() (see class comment). */
    Claim claim(size_t n) { return ring_.claim(n); }

    /** Record one span: claim(1). */
    void record(const SpanRecord &s);

    /** Merged spans, sorted by (trace, id). Safe after quiescence. */
    std::vector<SpanRecord> collect() const;

    /** Total spans offered (including overwritten). */
    uint64_t recorded() const;
    /** Spans lost to ring overwrite. */
    uint64_t dropped() const;

    /** Drop all recorded spans (e.g. between a live run and a
     *  deterministic replay sharing one tracer). */
    void clear();

  private:
    SpanTracerOptions opts_;
    ShardedRing<SpanRecord> ring_;
};

/**
 * Boundary timestamps of one served request, microseconds on the
 * engine's clock. Each boundary is converted from seconds exactly once
 * and shared between adjacent spans, so the direct children of the
 * request span partition it exactly: queue_wait + dispatch + execute
 * == request, to the microsecond, by construction. The serving paths
 * take them from the attempt's flight record (obs::requestSpans).
 */
struct RequestSpans
{
    TraceId trace = 0;
    uint64_t admitUs = 0;
    uint64_t dequeueUs = 0;
    uint64_t serviceUs = 0; //!< service start (== doneUs when expired)
    uint64_t doneUs = 0;
    uint32_t replica = 0;
    /** Chain profiles available for the request's step count (recorded
     *  on the execute span; children may be fewer when truncated). */
    uint32_t chainCount = 0;
    SpanOutcome outcome = SpanOutcome::Ok;
};

/**
 * The request-invariant part of the chain[i] leaf spans of one timing
 * profile: one template per ChainProfile carrying kind, chainKind,
 * index, chainId, the cycle interval and the stall breakdown. Built
 * once per cached profile (makeChainSpans); recording a leaf copies its
 * template and stamps only trace, id, parent and the microsecond
 * interval.
 */
struct ChainSpans
{
    Cycles totalCycles = 0;
    std::vector<SpanRecord> templates;
};

ChainSpans makeChainSpans(const std::vector<ChainProfile> &chains,
                          Cycles total_cycles);

/**
 * The cluster front door's routing decision, root of a routed tree:
 * covers [admitUs, doneUs] and carries the chosen engine and the
 * resident-model id.
 */
struct RouteSpan
{
    uint64_t admitUs = 0;
    uint64_t doneUs = 0;
    uint32_t engine = 0; //!< target engine index within the cluster
    uint32_t model = 0;  //!< resident-model id the request named
    SpanOutcome outcome = SpanOutcome::Ok;
};

/** One request tree of a SpanTree. */
struct SpanAttempt
{
    RequestSpans request; //!< request.trace is unused (SpanTree::trace)
    /** Leaves under the execute span (nullptr or empty: none); written
     *  only when the execute span is (served outcomes). */
    const ChainSpans *chains = nullptr;
    uint32_t engine = 0; //!< hedge[i] span: the engine this attempt hit
};

/**
 * A sampled request's whole span tree. Unrouted (engine replay, flight
 * export): one attempt whose request span is the root, ids 1..4, chain
 * leaves from 5. Routed (cluster front door): a route root (id 1) over
 * one or two attempts; with @c hedged each attempt sits under a
 * hedge[i] span with id 2 + i * max(512, 5 + maxChainSpans) — room for
 * hedge[0], its request tree and every chain leaf — otherwise the
 * single request tree hangs off the root directly (ids from 2).
 */
struct SpanTree
{
    TraceId trace = 0; //!< 0 = unsampled: records nothing
    bool routed = false;
    RouteSpan route; //!< the root when @c routed
    bool hedged = false;
    unsigned attempts = 1; //!< 1 or 2 (2 only when hedged)
    SpanAttempt attempt[2];
};

/**
 * The tree writer: count the tree's spans, claim them from the ring
 * once, and write every SpanRecord in place — route, then per attempt
 * its hedge span, request tree (request + queue_wait, plus dispatch +
 * execute when served) and chain leaves (capped at the tracer's
 * maxChainSpans). Nothing is recorded for an unsampled tree.
 */
void recordSpanTree(SpanTracer &tracer, const SpanTree &tree);

/** recordSpanTree() into a vector: append the spans it would write
 *  (leaves capped at @p max_chain_spans) to @p out, in order. */
void appendSpanTree(std::vector<SpanRecord> &out, const SpanTree &tree,
                    unsigned max_chain_spans);

/**
 * Record the canonical request tree (an unrouted SpanTree without
 * chain leaves). An Ok or Error request records request + queue_wait +
 * dispatch + execute; an expired/cancelled/rejected request records
 * request + queue_wait only (it never reached service). Returns the
 * execute span id (0 when no execute span was recorded) for
 * recordChainSpans().
 */
SpanId recordRequestTree(SpanTracer &tracer, const RequestSpans &rs);

/**
 * Attach chain leaf spans under execute span @p execute of @p trace,
 * one per ChainProfile (capped at the tracer's maxChainSpans), as one
 * claim. Chain cycle intervals are mapped proportionally into the
 * execute span's [service_us, done_us] window, integer-exact (no
 * floating point, so exports never round differently per platform);
 * the cycle-exact interval and the stall breakdown ride along as
 * attributes.
 */
void recordChainSpans(SpanTracer &tracer, TraceId trace, SpanId execute,
                      uint64_t service_us, uint64_t done_us,
                      const std::vector<ChainProfile> &chains,
                      Cycles total_cycles);

/** Takes one trace row and its span count; returns false to stop. */
using SpanTraceRowFn = std::function<bool(Json &row, uint64_t spans)>;

/**
 * The bw.spans/1 row builder: group @p spans (any order) by trace and
 * pass each trace's row {trace, [incomplete], root: {name, id,
 * start_us, end_us, dur_us, ..., children: [...]}} to @p row, traces
 * ascending, children by (start, id). Spans whose parent was lost to
 * ring overwrite are dropped and their trace marked incomplete; a
 * rootless trace renders no row. Returns the rootless-trace count.
 */
uint64_t forEachSpanTraceRow(const std::vector<SpanRecord> &spans,
                             const SpanTraceRowFn &row);

/** The bw.spans/1 document: {schema, spans, dropped,
 *  [incomplete_traces], traces: [forEachSpanTraceRow rows]}. */
Json spanTreeJson(const std::vector<SpanRecord> &spans,
                  uint64_t dropped = 0);

/** spanTreeJson(tracer.collect(), tracer.dropped()). */
Json spanTreeJson(const SpanTracer &tracer);

/**
 * The bw.spans/1 row validator: a positive integer trace id and a
 * request- or route-named root, ids unique within the trace, end >=
 * start, dur consistent, every child interval inside its parent.
 * Returns OK or InvalidArgument naming the first violation.
 */
Status validateSpanTraceRow(const Json &row);

/** Validate a bw.spans/1 document: schema tag, traces array and
 *  validateSpanTraceRow on every row. */
Status validateSpanTreeJson(const Json &doc);

/**
 * Append a validated spanTreeJson() document as Chrome async events
 * ("ph":"b"/"e", cat "bw.span", id = trace id) to @p chrome_doc's
 * traceEvents (created when absent), so the request waterfall overlays
 * the event-trace timeline in Perfetto. A rejected document leaves
 * @p chrome_doc untouched.
 */
Status appendSpanTreeDocEvents(Json &chrome_doc, const Json &span_doc);

} // namespace obs
} // namespace bw

#endif // BW_OBS_SPAN_H
