#include "obs/flight.h"

#include <algorithm>
#include <cstdlib>
#include <set>

#include "common/logging.h"

namespace bw {
namespace obs {

namespace {

constexpr const char *kSchema = "bw.flight/1";

} // namespace

const char *
flightClassName(FlightClass c)
{
    switch (c) {
      case FlightClass::Ok: return "ok";
      case FlightClass::DeadlineExpired: return "deadline_expired";
      case FlightClass::Rejected: return "rejected";
      case FlightClass::Error: return "error";
      case FlightClass::Cancelled: return "cancelled";
      default: BW_PANIC("bad FlightClass %d", static_cast<int>(c));
    }
}

SpanOutcome
flightClassOutcome(FlightClass c)
{
    switch (c) {
      case FlightClass::Ok: return SpanOutcome::Ok;
      case FlightClass::DeadlineExpired:
        return SpanOutcome::DeadlineExpired;
      case FlightClass::Rejected: return SpanOutcome::Rejected;
      case FlightClass::Error: return SpanOutcome::Error;
      case FlightClass::Cancelled: return SpanOutcome::Cancelled;
      default: BW_PANIC("bad FlightClass %d", static_cast<int>(c));
    }
}

RequestSpans
requestSpans(const FlightRecord &r)
{
    RequestSpans rs;
    rs.admitUs = r.admitUs;
    rs.dequeueUs = r.dequeueUs;
    rs.serviceUs = r.serviceUs;
    rs.doneUs = r.doneUs;
    rs.replica = r.replica;
    rs.outcome = flightClassOutcome(r.cls);
    return rs;
}

SpanTree
requestTree(TraceId trace, const FlightRecord &r, const ChainSpans *chains)
{
    SpanTree tree;
    tree.trace = trace;
    SpanAttempt &at = tree.attempt[0];
    at.request = requestSpans(r);
    if (chains) {
        at.request.chainCount =
            static_cast<uint32_t>(chains->templates.size());
        at.chains = chains;
    }
    return tree;
}

FlightRecorderOptions
FlightRecorderOptions::fromEnv(FlightRecorderOptions base)
{
    if (const char *v = std::getenv("BW_FLIGHT_WINDOW_MS")) {
        double ms = std::atof(v);
        if (ms > 0)
            base.windowUs = static_cast<uint64_t>(ms * 1e3);
    }
    if (const char *v = std::getenv("BW_FLIGHT_SLOWEST_K")) {
        if (*v)
            base.slowestK = static_cast<unsigned>(std::atoi(v));
    }
    if (const char *v = std::getenv("BW_FLIGHT_RING")) {
        long n = std::atol(v);
        if (n > 0)
            base.shardCapacity = static_cast<size_t>(n);
    }
    return base;
}

FlightRecorderOptions
FlightRecorderOptions::fromEnv()
{
    return fromEnv(FlightRecorderOptions{});
}

// --- FlightRecorder ---

FlightRecorder::FlightRecorder(FlightRecorderOptions opts)
    : opts_(opts), ring_(opts.shardCapacity)
{
    opts_.shardCapacity = std::max<size_t>(1, opts_.shardCapacity);
    opts_.windowUs = std::max<uint64_t>(1, opts_.windowUs);
}

void
FlightRecorder::record(const FlightRecord &r)
{
    ring_.record(r);
}

std::vector<FlightRecord>
FlightRecorder::collect() const
{
    std::vector<FlightRecord> out = ring_.collect();
    std::sort(out.begin(), out.end(),
              [](const FlightRecord &a, const FlightRecord &b) {
                  return a.seq < b.seq;
              });
    return out;
}

std::vector<FlightRecord>
FlightRecorder::promoted() const
{
    return promoteFlightRecords(collect(), opts_);
}

uint64_t
FlightRecorder::recorded() const
{
    return ring_.recorded();
}

uint64_t
FlightRecorder::dropped() const
{
    return ring_.dropped();
}

void
FlightRecorder::clear()
{
    ring_.clear();
}

// --- Tail promotion ---

std::vector<FlightRecord>
promoteFlightRecords(std::vector<FlightRecord> records,
                     const FlightRecorderOptions &opts)
{
    std::sort(records.begin(), records.end(),
              [](const FlightRecord &a, const FlightRecord &b) {
                  return a.seq < b.seq;
              });

    std::vector<FlightRecord> out;
    uint64_t window_us = std::max<uint64_t>(1, opts.windowUs);

    // Ok records grouped by virtual-time window; each window keeps its
    // slowest K (latency descending, seq ascending on ties).
    std::vector<size_t> ok_indices;
    for (size_t i = 0; i < records.size(); ++i) {
        if (records[i].cls != FlightClass::Ok)
            out.push_back(records[i]); // every anomaly is promoted
        else
            ok_indices.push_back(i);
    }
    size_t w = 0;
    while (w < ok_indices.size() && opts.slowestK > 0) {
        uint64_t window = records[ok_indices[w]].admitUs / window_us;
        size_t e = w;
        while (e < ok_indices.size() &&
               records[ok_indices[e]].admitUs / window_us == window)
            ++e;
        std::vector<size_t> in_window(ok_indices.begin() + w,
                                      ok_indices.begin() + e);
        std::sort(in_window.begin(), in_window.end(),
                  [&](size_t a, size_t b) {
                      if (records[a].latencyUs != records[b].latencyUs)
                          return records[a].latencyUs >
                                 records[b].latencyUs;
                      return records[a].seq < records[b].seq;
                  });
        size_t keep = std::min<size_t>(in_window.size(), opts.slowestK);
        for (size_t i = 0; i < keep; ++i)
            out.push_back(records[in_window[i]]);
        w = e;
    }

    std::sort(out.begin(), out.end(),
              [](const FlightRecord &a, const FlightRecord &b) {
                  return a.seq < b.seq;
              });
    return out;
}

// --- Export ---

Json
flightRecordRow(const FlightRecord &r, const ChainSpansFn &chains_for,
                std::vector<SpanRecord> &spans)
{
    Json e = Json::object();
    e.set("seq", r.seq);
    e.set("id", r.id);
    e.set("class", flightClassName(r.cls));
    e.set("sampled", r.sampled);
    e.set("replica", r.replica);
    e.set("steps", r.steps);
    e.set("admit_us", r.admitUs);
    e.set("dequeue_us", r.dequeueUs);
    e.set("service_us", r.serviceUs);
    e.set("done_us", r.doneUs);
    e.set("latency_us", r.latencyUs);

    // The span evidence head sampling would have dropped, rebuilt by the
    // live span writer (trace id = submission seq).
    bool served = r.cls == FlightClass::Ok || r.cls == FlightClass::Error;
    const ChainSpans *chains =
        served && chains_for ? chains_for(r.steps) : nullptr;
    appendSpanTree(spans, requestTree(r.seq, r, chains),
                   SpanTracerOptions{}.maxChainSpans);
    return e;
}

Json
flightJson(const std::vector<FlightRecord> &promoted,
           const FlightRecorderOptions &opts, uint64_t recorded,
           uint64_t dropped, const ChainSpansFn &chains_for)
{
    Json doc = Json::object();
    doc.set("schema", kSchema);
    doc.set("window_us", opts.windowUs);
    doc.set("slowest_k", opts.slowestK);
    doc.set("recorded", recorded);
    doc.set("dropped", dropped);

    Json list = Json::array();
    std::vector<SpanRecord> spans;
    for (const FlightRecord &r : promoted)
        list.push(flightRecordRow(r, chains_for, spans));
    doc.set("promoted", std::move(list));
    doc.set("spans", spanTreeJson(spans, 0));
    return doc;
}

Json
flightJson(const FlightRecorder &recorder, const ChainSpansFn &chains_for)
{
    return flightJson(recorder.promoted(), recorder.options(),
                      recorder.recorded(), recorder.dropped(),
                      chains_for);
}

// --- Validation ---

namespace {

Status
failFlight(const std::string &why)
{
    return Status::invalidArgument("flight document: " + why);
}

bool
knownClass(const std::string &s)
{
    for (int c = 0; c < static_cast<int>(FlightClass::NumFlightClasses); ++c) {
        if (s == flightClassName(static_cast<FlightClass>(c)))
            return true;
    }
    return false;
}

/** Fetch a non-negative integer member or fail. */
Status
intMember(const Json &obj, const char *key, int64_t *out)
{
    const Json *v = obj.find(key);
    if (!v || v->type() != Json::Type::Int || v->asInt() < 0)
        return Status::invalidArgument(
            std::string("missing non-negative integer '") + key + "'");
    *out = v->asInt();
    return Status();
}

} // namespace

Status
validateFlightRecordRow(const Json &row)
{
    int64_t admit = 0, dequeue = 0, service = 0, done = 0, n = 0;
    Status st;
    for (const char *key : {"seq", "id", "replica", "steps", "latency_us"}) {
        if (!(st = intMember(row, key, &n)).ok())
            return st;
    }
    if (!(st = intMember(row, "admit_us", &admit)).ok() ||
        !(st = intMember(row, "dequeue_us", &dequeue)).ok() ||
        !(st = intMember(row, "service_us", &service)).ok() ||
        !(st = intMember(row, "done_us", &done)).ok())
        return st;
    const Json *cls = row.find("class");
    if (!cls || cls->type() != Json::Type::String ||
        !knownClass(cls->asString()))
        return Status::invalidArgument("record missing known class name");
    if (admit > dequeue || dequeue > service || service > done)
        return Status::invalidArgument("record timestamps out of order");
    return Status();
}

Status
validateFlightJson(const Json &doc)
{
    if (doc.type() != Json::Type::Object)
        return failFlight("not an object");
    const Json *schema = doc.find("schema");
    if (!schema || schema->type() != Json::Type::String ||
        schema->asString() != kSchema) {
        return failFlight(std::string("schema is not '") + kSchema + "'");
    }
    int64_t n = 0;
    for (const char *key : {"window_us", "recorded", "dropped"}) {
        if (Status st = intMember(doc, key, &n); !st.ok())
            return failFlight(st.message());
    }
    const Json *promoted = doc.find("promoted");
    if (!promoted || promoted->type() != Json::Type::Array)
        return failFlight("missing promoted array");

    std::set<int64_t> seqs;
    int64_t prev_seq = 0;
    for (size_t i = 0; i < promoted->size(); ++i) {
        const Json &r = promoted->at(i);
        if (Status st = validateFlightRecordRow(r); !st.ok())
            return failFlight(detail::format("record %zu: %s", i,
                                             st.message().c_str()));
        int64_t seq = r.find("seq")->asInt();
        if (seq <= prev_seq)
            return failFlight("promoted seqs not strictly ascending");
        prev_seq = seq;
        seqs.insert(seq);
    }

    const Json *spans = doc.find("spans");
    if (!spans)
        return failFlight("missing embedded spans document");
    Status st = validateSpanTreeJson(*spans);
    if (!st.ok())
        return st;
    const Json *traces = spans->find("traces");
    std::set<int64_t> span_traces;
    for (size_t i = 0; i < traces->size(); ++i)
        span_traces.insert(traces->at(i).find("trace")->asInt());
    if (span_traces != seqs)
        return failFlight("span-tree traces do not match promoted "
                          "record seqs one-for-one");
    return Status();
}

} // namespace obs
} // namespace bw
