/**
 * @file
 * Observability-layer tests: JSON model round-trips, stats
 * serialization, the event-trace ring, Chrome trace-event export
 * (structural and golden), stall attribution conservation, and the
 * guarantee that tracing never changes simulated timing.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/logging.h"
#include "common/stats.h"
#include "isa/builder.h"
#include "obs/chrome_trace.h"
#include "obs/span.h"
#include "obs/stall.h"
#include "obs/trace.h"
#include "runtime/serving.h"
#include "timing/npu_timing.h"

namespace bw {
namespace {

using timing::NpuTiming;
using timing::TimingResult;

// --- JSON model. -------------------------------------------------------

TEST(Json, DumpCompact)
{
    Json j = Json::object();
    j.set("a", 1);
    j.set("b", true);
    j.set("c", Json::array().push("x").push(nullptr));
    j.set("d", 2.5);
    EXPECT_EQ(j.dump(), "{\"a\":1,\"b\":true,\"c\":[\"x\",null],"
                        "\"d\":2.5}");
}

TEST(Json, ParseRoundTrip)
{
    Json j = Json::object();
    j.set("counters", Json::object().set("cycles", int64_t{123456789}));
    j.set("ratio", 0.748);
    j.set("label", "GRU h=2816 \"big\"\n");
    j.set("list", Json::array().push(1).push(2).push(3));
    Json back = Json::parse(j.dump(2));
    EXPECT_EQ(back, j);
    EXPECT_EQ(back.find("counters")->find("cycles")->asInt(), 123456789);
    EXPECT_DOUBLE_EQ(back.find("ratio")->asDouble(), 0.748);
    EXPECT_EQ(back.find("label")->asString(), "GRU h=2816 \"big\"\n");
}

TEST(Json, ParseRejectsGarbage)
{
    EXPECT_THROW(Json::parse("{\"a\":}"), Error);
    EXPECT_THROW(Json::parse("[1, 2"), Error);
    EXPECT_THROW(Json::parse("{} trailing"), Error);
}

TEST(Json, NonFiniteDumpsAsNull)
{
    Json j = Json::array();
    j.push(std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(j.dump(), "[null]");
}

// --- Stats serialization and numerics. ---------------------------------

TEST(Distribution, VarianceNeverNegative)
{
    // Catastrophic cancellation regime: tiny spread, huge mean. The
    // naive sumSq/n - mean^2 goes (slightly) negative here.
    Distribution d;
    d.sample(1e9);
    d.sample(1e9 + 1e-4);
    d.sample(1e9 - 1e-4);
    EXPECT_GE(d.variance(), 0.0);
    EXPECT_GE(d.stddev(), 0.0);
    EXPECT_FALSE(std::isnan(d.stddev()));
}

TEST(Distribution, StddevMatchesSpread)
{
    Distribution d;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        d.sample(v);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.stddev(), 2.0); // classic textbook set
}

TEST(StatGroup, ToJsonRoundTrip)
{
    StatGroup g("npu");
    g.inc("chains", 42);
    g.set("cycles", 123456);
    g.sample("latency", 1.0);
    g.sample("latency", 3.0);

    Json back = Json::parse(g.toJson().dump(2));
    EXPECT_EQ(back.find("name")->asString(), "npu");
    const Json *counters = back.find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->find("chains")->asInt(), 42);
    EXPECT_EQ(counters->find("cycles")->asInt(), 123456);
    const Json *lat = back.find("distributions")->find("latency");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->find("count")->asInt(), 2);
    EXPECT_DOUBLE_EQ(lat->find("mean")->asDouble(), 2.0);
    EXPECT_EQ(back, g.toJson());
}

// --- Event-trace ring. -------------------------------------------------

obs::TraceEvent
eventAt(Cycles start, Cycles end)
{
    obs::TraceEvent e;
    e.start = start;
    e.end = end;
    e.kind = obs::EventKind::MfuOp;
    e.res = obs::ResClass::MfuUnit;
    return e;
}

TEST(EventTrace, RingKeepsMostRecent)
{
    obs::EventTrace t(4);
    for (Cycles i = 0; i < 10; ++i)
        t.event(eventAt(i, i + 1));
    EXPECT_EQ(t.emitted(), 10u);
    EXPECT_EQ(t.dropped(), 6u);
    auto evs = t.events();
    ASSERT_EQ(evs.size(), 4u);
    // Oldest-first, and only the most recent four survive.
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(evs[i].start, 6 + i);
    t.clear();
    EXPECT_EQ(t.emitted(), 0u);
    EXPECT_TRUE(t.events().empty());
}

// --- Simulator integration. --------------------------------------------

/** Small config mirroring timing_test's structural fixture. */
NpuConfig
smallConfig()
{
    NpuConfig c = NpuConfig::bwS10();
    c.name = "small";
    c.nativeDim = 40;
    c.lanes = 10;
    c.tileEngines = 2;
    c.mrfSize = 64;
    c.mrfIndexSpace = 256;
    c.initialVrfSize = 128;
    c.addSubVrfSize = 128;
    c.multiplyVrfSize = 128;
    return c;
}

/** Two dependent MVM+MFU chains exercising most resource classes. */
Program
testProgram()
{
    ProgramBuilder b;
    b.tile(2, 2);
    b.vRd(MemId::InitialVrf, 0)
        .mvMul(0)
        .vvAdd(0)
        .vTanh()
        .vWr(MemId::InitialVrf, 8);
    b.vRd(MemId::InitialVrf, 8)
        .vvMul(4)
        .vWr(MemId::AddSubVrf, 16);
    return b.build();
}

TEST(NpuTimingTrace, EventOrderingAndCoverage)
{
    NpuTiming sim(smallConfig());
    obs::EventTrace trace;
    sim.setTraceSink(&trace);
    auto res = sim.run(testProgram(), 2);

    ASSERT_EQ(trace.chains().size(), 4u); // 2 chains x 2 iterations
    auto evs = trace.events();
    ASSERT_FALSE(evs.empty());
    EXPECT_EQ(trace.dropped(), 0u);

    bool seen[static_cast<size_t>(obs::ResClass::NumResClasses)] = {};
    for (const obs::TraceEvent &e : evs) {
        EXPECT_LE(e.start, e.end);
        EXPECT_LE(e.end, res.totalCycles + 64); // within the run's span
        seen[static_cast<size_t>(e.res)] = true;
    }
    EXPECT_TRUE(seen[static_cast<size_t>(obs::ResClass::ControlProcessor)]);
    EXPECT_TRUE(seen[static_cast<size_t>(obs::ResClass::TopScheduler)]);
    EXPECT_TRUE(seen[static_cast<size_t>(obs::ResClass::TileEngine)]);
    EXPECT_TRUE(seen[static_cast<size_t>(obs::ResClass::ReduceUnit)]);
    EXPECT_TRUE(seen[static_cast<size_t>(obs::ResClass::MfuUnit)]);
    EXPECT_TRUE(seen[static_cast<size_t>(obs::ResClass::VrfPort)]);

    // Profiles arrive in dispatch order — the two vector chains (first
    // instructions at indices 2 and 7, after the two s_wr's) per
    // iteration — and each chain's milestones are causally ordered.
    std::vector<uint32_t> ids;
    Cycles prev_dispatch = 0;
    for (const obs::ChainProfile &p : trace.chains()) {
        ids.push_back(p.chain);
        EXPECT_LE(p.dispatchStart, p.dispatchDone);
        EXPECT_LE(p.dispatchDone, p.decodeDone);
        EXPECT_LE(p.decodeDone, p.done);
        EXPECT_GE(p.dispatchDone, prev_dispatch);
        prev_dispatch = p.dispatchDone;
    }
    EXPECT_EQ(ids, (std::vector<uint32_t>{2, 7, 2, 7}));

    // The dependent second chain must observe a RAW stall on ivrf[8..].
    const obs::ChainProfile &dep = trace.chains()[1];
    EXPECT_GT(dep.dataStall, 0u);
    EXPECT_EQ(dep.dataStallMem, MemId::InitialVrf);
}

TEST(NpuTimingTrace, CyclesIdenticalWithAndWithoutTracing)
{
    NpuConfig cfg = smallConfig();
    Program prog = testProgram();

    NpuTiming plain(cfg);
    TimingResult off = plain.run(prog, 3);

    NpuTiming traced(cfg);
    obs::EventTrace trace;
    traced.setTraceSink(&trace);
    TimingResult on = traced.run(prog, 3);

    EXPECT_EQ(on.totalCycles, off.totalCycles);
    EXPECT_EQ(on.iterationEnd, off.iterationEnd);
    EXPECT_EQ(on.mvmBusyCycles, off.mvmBusyCycles);
    EXPECT_EQ(on.mfuBusyCycles, off.mfuBusyCycles);
    EXPECT_EQ(on.stats.counters(), off.stats.counters());

    // Detaching the sink must restore the zero-instrumentation path and
    // still produce identical timing.
    traced.setTraceSink(nullptr);
    TimingResult detached = traced.run(prog, 3);
    EXPECT_EQ(detached.totalCycles, off.totalCycles);
}

TEST(NpuTimingTrace, StallAttributionSumsToTotalCycles)
{
    NpuTiming sim(smallConfig());
    obs::EventTrace trace;
    sim.setTraceSink(&trace);
    auto res = sim.run(testProgram(), 4);

    obs::StallReport rep =
        obs::buildStallReport(trace.chains(), res.totalCycles);
    EXPECT_EQ(rep.totalCycles, res.totalCycles);
    Cycles sum = 0;
    for (const obs::StallBucket &b : rep.buckets)
        sum += b.cycles;
    EXPECT_EQ(sum, res.totalCycles); // exact, not just within 1%
    EXPECT_EQ(rep.attributedCycles, res.totalCycles);
    EXPECT_FALSE(rep.buckets.empty());
    // The report renders without blowing up and names its total.
    std::string text = rep.render();
    EXPECT_NE(text.find("stall reason"), std::string::npos);
}

TEST(NpuTimingTrace, TimingResultToJson)
{
    NpuTiming sim(smallConfig());
    auto res = sim.run(testProgram(), 2);
    Json j = Json::parse(res.toJson().dump());
    EXPECT_EQ(j.find("total_cycles")->asInt(),
              static_cast<int64_t>(res.totalCycles));
    EXPECT_EQ(j.find("chains_executed")->asInt(), 4);
    EXPECT_EQ(j.find("iteration_end")->size(), 2u);
    EXPECT_TRUE(j.find("stats")->contains("counters"));
}

// --- Chrome trace-event export. ----------------------------------------

TEST(ChromeTrace, GoldenTinyTrace)
{
    obs::EventTrace t;
    obs::TraceEvent e;
    e.start = 10;
    e.end = 14;
    e.kind = obs::EventKind::TileStream;
    e.res = obs::ResClass::TileEngine;
    e.resIndex = 1;
    e.chain = 3;
    t.event(e);

    // Raw-cycle timestamps (clock 0) keep the golden exact.
    std::string json = obs::chromeTraceJson(t, 0.0).dump();
    EXPECT_EQ(json,
              "{\"traceEvents\":["
              "{\"name\":\"tile_stream\",\"cat\":\"tile_engine\","
              "\"ph\":\"X\",\"ts\":10.0,\"dur\":4.0,\"pid\":0,"
              "\"tid\":2001,\"args\":{\"chain\":3,\"start_cycle\":10,"
              "\"end_cycle\":14}},"
              "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
              "\"tid\":2001,\"args\":{\"name\":\"tile_engine[1]\"}},"
              "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,"
              "\"tid\":2001,\"args\":{\"sort_index\":2001}}],"
              "\"displayTimeUnit\":\"ms\","
              "\"otherData\":{\"tool\":\"bw_trace\",\"clock_mhz\":0.0,"
              "\"events_emitted\":1,\"events_dropped\":0}}");
}

TEST(ChromeTrace, SimRunExportsValidStructure)
{
    NpuConfig cfg = smallConfig();
    NpuTiming sim(cfg);
    obs::EventTrace trace;
    sim.setTraceSink(&trace);
    sim.run(testProgram(), 1);

    Json doc = Json::parse(obs::chromeTraceJson(trace, cfg.clockMhz)
                               .dump(2));
    const Json *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_GT(events->size(), 0u);
    size_t complete = 0, metadata = 0;
    for (size_t i = 0; i < events->size(); ++i) {
        const Json &ev = events->at(i);
        const std::string &ph = ev.find("ph")->asString();
        ASSERT_TRUE(ph == "X" || ph == "M");
        EXPECT_TRUE(ev.contains("name"));
        EXPECT_TRUE(ev.contains("tid"));
        if (ph == "X") {
            ++complete;
            EXPECT_GE(ev.find("dur")->asDouble(), 0.0);
            EXPECT_GE(ev.find("ts")->asDouble(), 0.0);
        } else {
            ++metadata;
        }
    }
    EXPECT_GT(complete, 0u);
    EXPECT_GT(metadata, 0u); // track names present
}

// --- Span tracing. -----------------------------------------------------

/** Canonical Ok-request boundaries reused across the span tests. */
obs::RequestSpans
okRequest(obs::TraceId trace)
{
    obs::RequestSpans rs;
    rs.trace = trace;
    rs.admitUs = 100;
    rs.dequeueUs = 250;
    rs.serviceUs = 300;
    rs.doneUs = 900;
    rs.replica = 2;
    rs.chainCount = 2;
    return rs;
}

/** Two adjacent chain profiles covering [0, 100) cycles. */
std::vector<obs::ChainProfile>
twoChains()
{
    obs::ChainProfile a;
    a.chain = 2;
    a.kind = 'V';
    a.dispatchStart = 0;
    a.dispatchDone = 10;
    a.decodeDone = 20;
    a.done = 50;
    a.dataStall = 5;
    obs::ChainProfile b;
    b.chain = 7;
    b.kind = 'M';
    b.dispatchStart = 50;
    b.dispatchDone = 55;
    b.decodeDone = 60;
    b.done = 100;
    b.structStall = 10;
    return {a, b};
}

TEST(SpanTracer, HeadSamplingIsAPureFunctionOfSequence)
{
    obs::SpanTracer every{{}};
    EXPECT_EQ(every.admit(1).trace, 1u);
    EXPECT_EQ(every.admit(42).trace, 42u);
    EXPECT_TRUE(every.admit(42).sampled());

    obs::SpanTracerOptions third;
    third.sampleEvery = 3;
    obs::SpanTracer t3(third);
    EXPECT_TRUE(t3.admit(1).sampled());
    EXPECT_FALSE(t3.admit(2).sampled());
    EXPECT_FALSE(t3.admit(3).sampled());
    EXPECT_TRUE(t3.admit(4).sampled());
    EXPECT_TRUE(t3.admit(7).sampled());

    obs::SpanTracerOptions off;
    off.sampleEvery = 0;
    obs::SpanTracer none(off);
    EXPECT_FALSE(none.admit(1).sampled());
    EXPECT_FALSE(none.admit(1000).sampled());
}

TEST(SpanTracer, OptionsFromEnvReadsSampleEvery)
{
    ::setenv("BW_SPAN_SAMPLE", "5", 1);
    obs::SpanTracerOptions o = obs::SpanTracerOptions::fromEnv();
    EXPECT_EQ(o.sampleEvery, 5u);
    ::unsetenv("BW_SPAN_SAMPLE");
    EXPECT_EQ(obs::SpanTracerOptions::fromEnv().sampleEvery, 1u);
}

TEST(SpanTracer, CollectSortsByTraceThenIdAndClearResets)
{
    obs::SpanTracer tracer{{}};
    obs::SpanRecord s;
    s.trace = 2;
    s.id = 1;
    tracer.record(s);
    s.trace = 1;
    s.id = 2;
    tracer.record(s);
    s.trace = 1;
    s.id = 1;
    tracer.record(s);

    auto spans = tracer.collect();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].trace, 1u);
    EXPECT_EQ(spans[0].id, 1u);
    EXPECT_EQ(spans[1].trace, 1u);
    EXPECT_EQ(spans[1].id, 2u);
    EXPECT_EQ(spans[2].trace, 2u);
    EXPECT_EQ(tracer.recorded(), 3u);
    EXPECT_EQ(tracer.dropped(), 0u);

    tracer.clear();
    EXPECT_TRUE(tracer.collect().empty());
    EXPECT_EQ(tracer.recorded(), 0u);
}

TEST(SpanTracer, RingOverwriteCountsDropped)
{
    obs::SpanTracerOptions opts;
    opts.shardCapacity = 4;
    obs::SpanTracer tracer(opts);
    obs::SpanRecord s;
    s.trace = 1;
    for (uint32_t i = 1; i <= 10; ++i) {
        s.id = i;
        tracer.record(s); // single thread -> single shard
    }
    EXPECT_EQ(tracer.recorded(), 10u);
    EXPECT_EQ(tracer.dropped(), 6u);
    EXPECT_EQ(tracer.collect().size(), 4u);
}

TEST(SpanTracer, ConcurrentFirstUseOfFreshTracer)
{
    // More threads than ring shards, all starting at once on a fresh
    // tracer: shards are sized on first record, and threads sharing a
    // shard race on that first sizing. Capacity covers two threads per
    // shard, so nothing is overwritten and every offered span survives.
    const uint32_t kThreads = 24, kPerThread = 200;
    obs::SpanTracerOptions opts;
    opts.shardCapacity = 2 * kPerThread + 8;
    obs::SpanTracer tracer(opts);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (uint32_t t = 1; t <= kThreads; ++t) {
        threads.emplace_back([&tracer, &go, t] {
            while (!go.load())
                std::this_thread::yield();
            obs::SpanRecord s;
            s.trace = t;
            for (uint32_t i = 1; i <= kPerThread; ++i) {
                s.id = i;
                tracer.record(s);
            }
        });
    }
    go.store(true);
    for (std::thread &th : threads)
        th.join();

    std::vector<obs::SpanRecord> spans = tracer.collect();
    EXPECT_EQ(tracer.recorded(), uint64_t(kThreads) * kPerThread);
    EXPECT_EQ(spans.size() + tracer.dropped(), tracer.recorded());
    ASSERT_EQ(spans.size(), size_t(kThreads) * kPerThread);
    // Sorted by (trace, id), so each offered span appears exactly once.
    for (size_t i = 0; i < spans.size(); ++i) {
        EXPECT_EQ(spans[i].trace, i / kPerThread + 1);
        EXPECT_EQ(spans[i].id, i % kPerThread + 1);
    }
}

TEST(SpanRequestTree, OkTreePartitionsRequestExactly)
{
    obs::SpanTracer tracer{{}};
    obs::SpanId exec = recordRequestTree(tracer, okRequest(9));
    EXPECT_EQ(exec, 4u);

    auto spans = tracer.collect();
    ASSERT_EQ(spans.size(), 4u);
    const obs::SpanRecord &req = spans[0], &q = spans[1], &d = spans[2],
                          &e = spans[3];
    EXPECT_EQ(req.kind, obs::SpanKind::Request);
    EXPECT_EQ(q.kind, obs::SpanKind::QueueWait);
    EXPECT_EQ(d.kind, obs::SpanKind::Dispatch);
    EXPECT_EQ(e.kind, obs::SpanKind::Execute);
    EXPECT_EQ(e.index, 2u); // replica
    // Shared boundaries: children partition the request to the
    // microsecond, so durations sum exactly (the +-0 criterion).
    EXPECT_EQ(q.startUs, req.startUs);
    EXPECT_EQ(q.endUs, d.startUs);
    EXPECT_EQ(d.endUs, e.startUs);
    EXPECT_EQ(e.endUs, req.endUs);
    EXPECT_EQ((q.endUs - q.startUs) + (d.endUs - d.startUs) +
                  (e.endUs - e.startUs),
              req.endUs - req.startUs);
}

TEST(SpanRequestTree, ExpiredRequestRecordsQueueWaitOnly)
{
    obs::SpanTracer tracer{{}};
    obs::RequestSpans rs;
    rs.trace = 3;
    rs.admitUs = 10;
    rs.dequeueUs = 40;
    rs.serviceUs = 40;
    rs.doneUs = 40;
    rs.outcome = obs::SpanOutcome::DeadlineExpired;
    EXPECT_EQ(recordRequestTree(tracer, rs), 0u);

    auto spans = tracer.collect();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].kind, obs::SpanKind::Request);
    EXPECT_EQ(spans[0].outcome, obs::SpanOutcome::DeadlineExpired);
    EXPECT_EQ(spans[1].kind, obs::SpanKind::QueueWait);

    // An unsampled request records nothing at all.
    recordRequestTree(tracer, obs::RequestSpans{});
    EXPECT_EQ(tracer.collect().size(), 2u);
}

TEST(SpanChainSpans, CyclesMapProportionallyIntoExecuteWindow)
{
    obs::SpanTracer tracer{{}};
    obs::SpanId exec = recordRequestTree(tracer, okRequest(1));
    recordChainSpans(tracer, 1, exec, 300, 900, twoChains(), 100);

    auto spans = tracer.collect();
    ASSERT_EQ(spans.size(), 6u);
    const obs::SpanRecord &c0 = spans[4], &c1 = spans[5];
    EXPECT_EQ(c0.kind, obs::SpanKind::Chain);
    EXPECT_EQ(c0.parent, exec);
    EXPECT_EQ(c0.chainKind, 'V');
    EXPECT_EQ(c0.chainId, 2u);
    // [0,50) and [50,100) of 100 cycles over window [300,900]:
    // integer-exact halves, adjacent chains share the boundary.
    EXPECT_EQ(c0.startUs, 300u);
    EXPECT_EQ(c0.endUs, 600u);
    EXPECT_EQ(c1.startUs, 600u);
    EXPECT_EQ(c1.endUs, 900u);
    // Cycle-domain attributes ride along unscaled.
    EXPECT_EQ(c0.dispatchCycles, 10u);
    EXPECT_EQ(c0.decodeCycles, 10u);
    EXPECT_EQ(c0.dataStallCycles, 5u);
    EXPECT_EQ(c0.computeCycles, 25u); // done-decodeDone minus stalls
    EXPECT_EQ(c1.structStallCycles, 10u);
    EXPECT_EQ(c1.computeCycles, 30u);
}

TEST(SpanChainSpans, MaxChainSpansCapsChildren)
{
    obs::SpanTracerOptions opts;
    opts.maxChainSpans = 1;
    obs::SpanTracer tracer(opts);
    obs::RequestSpans rs = okRequest(1);
    obs::SpanId exec = recordRequestTree(tracer, rs);
    recordChainSpans(tracer, 1, exec, 300, 900, twoChains(), 100);
    EXPECT_EQ(tracer.collect().size(), 5u); // 4 tree + 1 capped chain

    Json doc = obs::spanTreeJson(tracer);
    const Json *children =
        doc.find("traces")->at(0).find("root")->find("children");
    ASSERT_EQ(children->size(), 3u);
    const Json &execute = children->at(2);
    EXPECT_EQ(execute.find("chains")->asInt(), 2); // full total
    EXPECT_NE(execute.find("chains_truncated"), nullptr);
    ASSERT_NE(execute.find("children"), nullptr);
    EXPECT_EQ(execute.find("children")->size(), 1u);
}

/** Every field of a span, for whole-record comparisons. */
void
expectSameSpans(const std::vector<obs::SpanRecord> &got,
                const std::vector<obs::SpanRecord> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        const obs::SpanRecord &a = got[i], &b = want[i];
        SCOPED_TRACE("span " + std::to_string(i));
        EXPECT_EQ(a.trace, b.trace);
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.parent, b.parent);
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.outcome, b.outcome);
        EXPECT_EQ(a.chainKind, b.chainKind);
        EXPECT_EQ(a.index, b.index);
        EXPECT_EQ(a.chainId, b.chainId);
        EXPECT_EQ(a.chainCount, b.chainCount);
        EXPECT_EQ(a.startUs, b.startUs);
        EXPECT_EQ(a.endUs, b.endUs);
        EXPECT_EQ(a.startCycle, b.startCycle);
        EXPECT_EQ(a.endCycle, b.endCycle);
        EXPECT_EQ(a.dispatchCycles, b.dispatchCycles);
        EXPECT_EQ(a.decodeCycles, b.decodeCycles);
        EXPECT_EQ(a.dataStallCycles, b.dataStallCycles);
        EXPECT_EQ(a.inputStallCycles, b.inputStallCycles);
        EXPECT_EQ(a.structStallCycles, b.structStallCycles);
        EXPECT_EQ(a.computeCycles, b.computeCycles);
    }
}

/**
 * Replay @p write into a ring of @p capacity and into an unbounded
 * one; then offer the unbounded ring's spans (collect() order is the
 * recording order here: traces ascend, ids ascend within a tree) one
 * at a time to a third ring of @p capacity. Grouped claims must keep
 * exactly what span-by-span recording keeps.
 */
template <typename Write>
void
expectGroupedMatchesSpanBySpan(size_t capacity, unsigned max_chain_spans,
                               Write write)
{
    obs::SpanTracerOptions opts;
    opts.maxChainSpans = max_chain_spans;
    opts.shardCapacity = capacity;
    obs::SpanTracer grouped(opts);
    write(grouped);
    opts.shardCapacity = 1u << 12;
    obs::SpanTracer all(opts);
    write(all);
    ASSERT_EQ(all.dropped(), 0u);
    opts.shardCapacity = capacity;
    obs::SpanTracer single(opts);
    for (const obs::SpanRecord &s : all.collect())
        single.record(s);

    EXPECT_EQ(grouped.recorded(), single.recorded());
    EXPECT_EQ(grouped.dropped(), single.dropped());
    expectSameSpans(grouped.collect(), single.collect());
}

TEST(SpanTracer, TreeClaimsAcrossRingWrapMatchSpanBySpan)
{
    // Trees of 2 (expired), 4 (served, no profiles) and 4 + k (served
    // with k chain leaves) spans, enough of them to wrap rings of 5
    // and 7 slots several times at every offset.
    auto write = [](obs::SpanTracer &t) {
        std::vector<obs::ChainProfile> three = twoChains();
        three.push_back(three[1]);
        three[2].chain = 9;
        for (obs::TraceId trace = 1; trace <= 16; ++trace) {
            obs::RequestSpans rs = okRequest(trace);
            switch (trace % 4) {
              case 0:
                rs.outcome = obs::SpanOutcome::DeadlineExpired;
                recordRequestTree(t, rs);
                break;
              case 1:
                recordRequestTree(t, rs);
                break;
              case 2: {
                obs::SpanId exec = recordRequestTree(t, rs);
                recordChainSpans(t, trace, exec, 300, 900, twoChains(),
                                 100);
                break;
              }
              default: {
                obs::SpanId exec = recordRequestTree(t, rs);
                recordChainSpans(t, trace, exec, 300, 900, three, 100);
                break;
              }
            }
        }
    };
    for (size_t cap : {5u, 7u}) {
        SCOPED_TRACE("capacity " + std::to_string(cap));
        expectGroupedMatchesSpanBySpan(cap, 256, write);
    }
}

TEST(SpanTree, RoutedHedgedTreeIsOneClaimInSpanOrder)
{
    obs::ChainSpans chains = obs::makeChainSpans(twoChains(), 100);
    auto write = [&chains](obs::SpanTracer &t) {
        for (obs::TraceId trace = 1; trace <= 6; ++trace) {
            obs::SpanTree tree;
            tree.trace = trace;
            tree.routed = true;
            tree.route.admitUs = 100;
            tree.route.doneUs = 900;
            tree.route.engine = 1;
            tree.route.model = 3;
            tree.hedged = trace % 3 != 0;
            tree.attempts = tree.hedged && trace % 2 ? 2 : 1;
            for (unsigned i = 0; i < tree.attempts; ++i) {
                obs::SpanAttempt &at = tree.attempt[i];
                at.request = okRequest(trace);
                at.engine = i;
                at.chains = &chains;
            }
            if (tree.attempts == 2)
                tree.attempt[1].request.outcome =
                    obs::SpanOutcome::Cancelled;
            obs::recordSpanTree(t, tree);
        }
    };
    for (size_t cap : {5u, 7u}) {
        SCOPED_TRACE("capacity " + std::to_string(cap));
        expectGroupedMatchesSpanBySpan(cap, 256, write);
    }

    // Layout: route 1; hedge[0] 2 over request 3..execute 6 and chains
    // 7, 8; hedge[1] one stride later over a never-served tree.
    obs::SpanTracer tracer{{}};
    write(tracer);
    std::vector<obs::SpanRecord> spans = tracer.collect();
    std::vector<std::pair<obs::SpanId, obs::SpanId>> want = {
        {1, 0}, {2, 1}, {3, 2}, {4, 3}, {5, 3}, {6, 3}, {7, 6}, {8, 6},
        {514, 1}, {515, 514}, {516, 515}};
    ASSERT_GE(spans.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(spans[i].trace, 1u);
        EXPECT_EQ(spans[i].id, want[i].first) << i;
        EXPECT_EQ(spans[i].parent, want[i].second) << i;
    }
    EXPECT_EQ(spans[1].kind, obs::SpanKind::Hedge);
    EXPECT_EQ(spans[8].index, 1u);
    EXPECT_TRUE(obs::validateSpanTreeJson(obs::spanTreeJson(tracer)).ok());
}

TEST(SpanChainSpans, CycleMapIsExactAcrossThe64BitProduct)
{
    // window * c straddles 2^64: (2^32 + 1)(2^32 - 1) = 2^64 - 1 fits,
    // (2^32 + 1) * 2^32 does not. Either way the leaf lands where the
    // 128-bit proportional map puts it.
    const uint64_t service_us = 1000, window = (1ull << 32) + 1;
    const Cycles total = 1ull << 33;
    auto exact = [&](Cycles c) {
        return service_us +
               static_cast<uint64_t>(static_cast<unsigned __int128>(c) *
                                     window / total);
    };
    const Cycles below = (1ull << 32) - 1, above = 1ull << 32;
    for (const auto &[start, end] :
         {std::pair<Cycles, Cycles>{below, above},
          {below - 1, below}, {above, above + 1}, {0, total}}) {
        obs::ChainProfile p;
        p.dispatchStart = start;
        p.done = end;
        obs::SpanTracer tracer{{}};
        recordChainSpans(tracer, 1, 4, service_us, service_us + window,
                         {p}, total);
        std::vector<obs::SpanRecord> spans = tracer.collect();
        ASSERT_EQ(spans.size(), 1u);
        EXPECT_EQ(spans[0].startUs, exact(start)) << start;
        EXPECT_EQ(spans[0].endUs, exact(end)) << end;
    }
}

TEST(SpanTreeJson, ExportValidatesAndOrders)
{
    obs::SpanTracer tracer{{}};
    // Record trace 5 before trace 2: export must ascend by trace id.
    obs::SpanId e5 = recordRequestTree(tracer, okRequest(5));
    recordChainSpans(tracer, 5, e5, 300, 900, twoChains(), 100);
    recordRequestTree(tracer, okRequest(2));

    Json doc = obs::spanTreeJson(tracer);
    Status st = obs::validateSpanTreeJson(doc);
    EXPECT_TRUE(st.ok()) << st.toString();
    EXPECT_EQ(doc.find("schema")->asString(), "bw.spans/1");
    EXPECT_EQ(doc.find("spans")->asInt(), 10); // 4 + 2 chains + 4
    EXPECT_EQ(doc.find("dropped")->asInt(), 0);

    const Json *traces = doc.find("traces");
    ASSERT_EQ(traces->size(), 2u);
    EXPECT_EQ(traces->at(0).find("trace")->asInt(), 2);
    EXPECT_EQ(traces->at(1).find("trace")->asInt(), 5);

    const Json *root = traces->at(1).find("root");
    EXPECT_EQ(root->find("name")->asString(), "request");
    EXPECT_EQ(root->find("outcome")->asString(), "ok");
    const Json *children = root->find("children");
    ASSERT_EQ(children->size(), 3u);
    EXPECT_EQ(children->at(0).find("name")->asString(), "queue_wait");
    EXPECT_EQ(children->at(1).find("name")->asString(), "dispatch");
    EXPECT_EQ(children->at(2).find("name")->asString(), "execute");
    const Json *chains = children->at(2).find("children");
    ASSERT_EQ(chains->size(), 2u);
    EXPECT_EQ(chains->at(0).find("name")->asString(), "chain[0]");
    EXPECT_EQ(chains->at(0).find("stalls")->find("data")->asInt(), 5);

    // Identical input renders byte-identical JSON.
    EXPECT_EQ(doc.dump(), obs::spanTreeJson(tracer).dump());
}

TEST(SpanTreeJson, ValidatorRejectsViolations)
{
    EXPECT_FALSE(obs::validateSpanTreeJson(Json::parse("[]")).ok());
    EXPECT_FALSE(
        obs::validateSpanTreeJson(Json::parse("{\"schema\":\"x\"}")).ok());

    auto mk = [](const char *root_body) {
        return Json::parse(std::string("{\"schema\":\"bw.spans/1\","
                                       "\"traces\":[{\"trace\":1,"
                                       "\"root\":") +
                           root_body + "}]}");
    };
    // Root not named request.
    EXPECT_FALSE(obs::validateSpanTreeJson(
                     mk("{\"name\":\"queue_wait\",\"id\":1,"
                        "\"start_us\":0,\"end_us\":1,\"dur_us\":1}"))
                     .ok());
    // dur inconsistent with start/end.
    EXPECT_FALSE(obs::validateSpanTreeJson(
                     mk("{\"name\":\"request\",\"id\":1,"
                        "\"start_us\":0,\"end_us\":5,\"dur_us\":4}"))
                     .ok());
    // Child escapes its parent interval.
    Status escape = obs::validateSpanTreeJson(
        mk("{\"name\":\"request\",\"id\":1,\"start_us\":10,"
           "\"end_us\":20,\"dur_us\":10,\"children\":["
           "{\"name\":\"queue_wait\",\"id\":2,\"start_us\":5,"
           "\"end_us\":15,\"dur_us\":10}]}"));
    EXPECT_FALSE(escape.ok());
    EXPECT_NE(escape.message().find("escapes"), std::string::npos);
    // Duplicate ids within a trace.
    EXPECT_FALSE(obs::validateSpanTreeJson(
                     mk("{\"name\":\"request\",\"id\":1,\"start_us\":0,"
                        "\"end_us\":9,\"dur_us\":9,\"children\":["
                        "{\"name\":\"queue_wait\",\"id\":1,"
                        "\"start_us\":0,\"end_us\":1,\"dur_us\":1}]}"))
                     .ok());
    // The canonical empty export passes.
    EXPECT_TRUE(obs::validateSpanTreeJson(
                    Json::parse("{\"schema\":\"bw.spans/1\","
                                "\"traces\":[]}"))
                    .ok());
}

TEST(SpanTreeJson, LostRootDropsTraceAndCountsIncomplete)
{
    obs::SpanTracer tracer{{}};
    // An orphaned child whose request root was overwritten.
    obs::SpanRecord s;
    s.trace = 1;
    s.id = 2;
    s.parent = 1;
    s.kind = obs::SpanKind::QueueWait;
    tracer.record(s);
    recordRequestTree(tracer, okRequest(7)); // plus one intact trace

    Json doc = obs::spanTreeJson(tracer);
    EXPECT_TRUE(obs::validateSpanTreeJson(doc).ok());
    ASSERT_EQ(doc.find("traces")->size(), 1u);
    EXPECT_EQ(doc.find("traces")->at(0).find("trace")->asInt(), 7);
    EXPECT_EQ(doc.find("incomplete_traces")->asInt(), 1);
}

TEST(SpanChromeEvents, AsyncPairsOverlayTimeline)
{
    obs::SpanTracer tracer{{}};
    obs::SpanId exec = recordRequestTree(tracer, okRequest(6));
    recordChainSpans(tracer, 6, exec, 300, 900, twoChains(), 100);

    Json doc = Json::object(); // no traceEvents yet: created on demand
    Status st = obs::appendSpanTreeDocEvents(doc, obs::spanTreeJson(tracer));
    ASSERT_TRUE(st.ok()) << st.toString();
    const Json *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->size(), 12u); // 6 spans x (b + e)

    size_t begins = 0, ends = 0;
    for (size_t i = 0; i < events->size(); ++i) {
        const Json &ev = events->at(i);
        EXPECT_EQ(ev.find("cat")->asString(), "bw.span");
        EXPECT_EQ(ev.find("id")->asString(), "6");
        const std::string &ph = ev.find("ph")->asString();
        if (ph == "b") {
            ++begins;
            EXPECT_TRUE(ev.contains("args"));
        } else {
            ASSERT_EQ(ph, "e");
            ++ends;
        }
    }
    EXPECT_EQ(begins, 6u);
    EXPECT_EQ(ends, 6u);
}

TEST(SpanChromeEvents, DocDrivenMergeMatchesRecordDrivenOverlay)
{
    obs::SpanTracer tracer{{}};
    obs::SpanId exec = recordRequestTree(tracer, okRequest(4));
    recordChainSpans(tracer, 4, exec, 300, 900, twoChains(), 100);
    Json span_doc = obs::spanTreeJson(tracer);

    Json merged = Json::object();
    merged.set("traceEvents", Json::array());
    Status st = obs::appendSpanTreeDocEvents(merged, span_doc);
    EXPECT_TRUE(st.ok()) << st.toString();

    // A rejected document leaves the target untouched.
    Json before = merged;
    EXPECT_FALSE(
        obs::appendSpanTreeDocEvents(merged, Json::parse("{}")).ok());
    EXPECT_EQ(merged.dump(), before.dump());
}

TEST(NpuTimingTrace, RunProfiledMatchesRunAndFeedsChains)
{
    NpuConfig cfg = smallConfig();
    Program prog = testProgram();

    NpuTiming plain(cfg);
    TimingResult off = plain.run(Program{}, prog, 2);

    NpuTiming profiled(cfg);
    std::vector<obs::ChainProfile> chains;
    TimingResult on = profiled.runProfiled(Program{}, prog, 2, &chains);

    // Purely observational: bit-identical cycle counts.
    EXPECT_EQ(on.totalCycles, off.totalCycles);
    EXPECT_EQ(on.mvmBusyCycles, off.mvmBusyCycles);
    EXPECT_EQ(on.stats.counters(), off.stats.counters());
    ASSERT_EQ(chains.size(), 4u); // 2 chains x 2 iterations
    for (const obs::ChainProfile &p : chains)
        EXPECT_LE(p.dispatchStart, p.done);

    // An attached sink still sees every event through the forwarder.
    obs::EventTrace trace;
    profiled.setTraceSink(&trace);
    std::vector<obs::ChainProfile> chains2;
    profiled.runProfiled(Program{}, prog, 2, &chains2);
    EXPECT_EQ(chains2.size(), 4u);
    EXPECT_GT(trace.events().size(), 0u);
    EXPECT_EQ(trace.chains().size(), 4u);
}

// --- Serving percentiles. ----------------------------------------------

TEST(Serving, NearestRankPercentiles)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    EXPECT_DOUBLE_EQ(percentileSorted(v, 50), 50.0);
    EXPECT_DOUBLE_EQ(percentileSorted(v, 95), 95.0);
    EXPECT_DOUBLE_EQ(percentileSorted(v, 99), 99.0);
    EXPECT_DOUBLE_EQ(percentileSorted(v, 100), 100.0);
    EXPECT_DOUBLE_EQ(percentileSorted({}, 99), 0.0);
    EXPECT_DOUBLE_EQ(percentileSorted({7.0}, 50), 7.0);
}

TEST(Serving, P95Populated)
{
    // Uncontended requests: every latency identical, so all percentiles
    // equal service + network time.
    std::vector<double> arrivals;
    for (int i = 0; i < 50; ++i)
        arrivals.push_back(i * 1.0);
    ServeStats s = serveUnbatched(arrivals, 2.0, 0.1);
    EXPECT_NEAR(s.p95LatencyMs, 2.1, 1e-9);
    EXPECT_NEAR(s.p95LatencyMs, s.p50LatencyMs, 1e-9);
    EXPECT_LE(s.p50LatencyMs, s.p95LatencyMs);
    EXPECT_LE(s.p95LatencyMs, s.p99LatencyMs);

    ServeStats b = serveBatched(arrivals, 4, 1.0,
                                [](unsigned) { return 2.0; });
    EXPECT_GT(b.p95LatencyMs, 0.0);
    EXPECT_LE(b.p95LatencyMs, b.maxLatencyMs);
}

} // namespace
} // namespace bw
