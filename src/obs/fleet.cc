#include "obs/fleet.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <istream>
#include <unordered_map>

#include "common/logging.h"
#include "metrics/exposition.h"

namespace bw {
namespace obs {

// --- FleetRegistry ---

void
FleetRegistry::setClusterRegistry(const metrics::Registry *registry)
{
    cluster_ = registry;
}

void
FleetRegistry::addShard(std::string shard, std::string group,
                        const metrics::Registry *registry,
                        const serve::SloMonitor *slo)
{
    FleetShardSource s;
    s.shard = std::move(shard);
    s.group = std::move(group);
    s.registry = registry;
    s.slo = slo;
    shards_.push_back(std::move(s));
}

std::vector<metrics::MetricSnapshot>
FleetRegistry::federate() const
{
    std::vector<metrics::MetricSnapshot> raw;
    if (cluster_) {
        std::vector<metrics::MetricSnapshot> c = cluster_->collect();
        raw.insert(raw.end(), std::make_move_iterator(c.begin()),
                   std::make_move_iterator(c.end()));
    }
    for (const FleetShardSource &s : shards_) {
        if (!s.registry)
            continue;
        for (metrics::MetricSnapshot m : s.registry->collect()) {
            m.labels.emplace_back("shard", s.shard);
            m.labels.emplace_back("group", s.group);
            raw.push_back(std::move(m));
        }
    }

    // Regroup family-major in order of first appearance: the text
    // exposition emits one # HELP / # TYPE pair per run of one name,
    // and the format forbids a family appearing twice — which it
    // would, interleaved, once several shards export the same series.
    std::vector<std::vector<metrics::MetricSnapshot>> buckets;
    std::unordered_map<std::string, size_t> family;
    for (metrics::MetricSnapshot &m : raw) {
        auto it = family.find(m.name);
        if (it == family.end()) {
            it = family.emplace(m.name, buckets.size()).first;
            buckets.emplace_back();
        }
        buckets[it->second].push_back(std::move(m));
    }
    std::vector<metrics::MetricSnapshot> out;
    out.reserve(raw.size());
    for (std::vector<metrics::MetricSnapshot> &b : buckets) {
        for (metrics::MetricSnapshot &m : b)
            out.push_back(std::move(m));
    }
    return out;
}

std::string
FleetRegistry::prometheus() const
{
    return metrics::prometheusText(federate());
}

Json
FleetRegistry::metricsJson() const
{
    return metrics::metricsJson(federate());
}

Json
FleetRegistry::sloRollupJson() const
{
    const serve::SloMonitor *first = nullptr;
    for (const FleetShardSource &s : shards_) {
        if (s.slo) {
            first = s.slo;
            break;
        }
    }
    BW_ASSERT(first, "fleet SLO rollup: no shard SLO monitors "
                     "registered");
    const serve::SloOptions &opts = first->options();
    size_t nclasses = opts.classes.size();

    std::vector<serve::SloClassEval> agg(nclasses);
    for (size_t c = 0; c < nclasses; ++c)
        agg[c].name = opts.classes[c].name;
    uint64_t high_us = 0;
    for (const FleetShardSource &s : shards_) {
        if (!s.slo)
            continue;
        high_us = std::max(high_us, s.slo->highWaterUs());
        std::vector<serve::SloClassEval> evals = s.slo->snapshot();
        BW_ASSERT(evals.size() == nclasses,
                  "fleet SLO rollup: shard '%s' has %zu classes, "
                  "expected %zu (the cluster shares one ladder)",
                  s.shard.c_str(), evals.size(), nclasses);
        for (size_t c = 0; c < nclasses; ++c) {
            const serve::SloClassEval &ev = evals[c];
            serve::SloClassEval &a = agg[c];
            a.requests += ev.requests;
            a.latencyBreaches += ev.latencyBreaches;
            a.availabilityBreaches += ev.availabilityBreaches;
            auto sum = [](serve::SloWindowEval &into,
                          const serve::SloWindowEval &from) {
                into.good += from.good;
                into.bad += from.bad;
            };
            sum(a.latencyFast, ev.latencyFast);
            sum(a.latencySlow, ev.latencySlow);
            sum(a.availFast, ev.availFast);
            sum(a.availSlow, ev.availSlow);
        }
    }
    for (serve::SloClassEval &a : agg)
        serve::finishSloClassEval(a, opts);
    return serve::sloDocument(opts, agg, high_us,
                              static_cast<uint64_t>(shards_.size()));
}

// --- RouteStreamWriter ---

RouteStreamWriter::RouteStreamWriter(StreamSink sink, std::string policy,
                                     unsigned engines, size_t classes)
    : sink_(std::move(sink)), engines_(engines),
      shedByClass_(classes > 0 ? classes : 1, 0)
{
    Json h = Json::object();
    h.set("schema", "bw.routestream/1");
    h.set("policy", std::move(policy));
    h.set("engines", engines_);
    emit(h);
}

bool
RouteStreamWriter::emit(const Json &j)
{
    if (failed_)
        return false;
    line_ = j.dump();
    line_ += '\n';
    return send();
}

bool
RouteStreamWriter::send()
{
    bytes_ += line_.size();
    if (!sink_ || !sink_(line_)) {
        failed_ = true;
        return false;
    }
    return true;
}

namespace {

/// Append @p v in decimal, the digits Json::dump prints for an Int.
char *
putInt(char *p, int64_t v)
{
    return std::to_chars(p, p + 20, v).ptr;
}

/// Append the string literal @p s (without its terminating NUL).
template <size_t N>
char *
putLit(char *p, const char (&s)[N])
{
    std::memcpy(p, s, N - 1);
    return p + N - 1;
}

} // namespace

bool
RouteStreamWriter::decision(uint64_t seq, uint32_t model, uint32_t cls,
                            int32_t engine)
{
    if (engine < 0) {
        ++shed_;
        ++shedByClass_[std::min<size_t>(cls, shedByClass_.size() - 1)];
    } else {
        ++routed_;
    }
    if (failed_)
        return false;
    // The row Json::dump prints for {"seq","model","class","engine"},
    // formatted without a DOM: this runs once per routed request. seq
    // is printed signed, as Json(uint64_t) stores it.
    char buf[96];
    char *p = putLit(buf, "{\"seq\":");
    p = putInt(p, static_cast<int64_t>(seq));
    p = putLit(p, ",\"model\":");
    p = putInt(p, model);
    p = putLit(p, ",\"class\":");
    p = putInt(p, cls);
    p = putLit(p, ",\"engine\":");
    p = putInt(p, engine);
    p = putLit(p, "}\n");
    line_.assign(buf, p);
    return send();
}

bool
RouteStreamWriter::finish()
{
    if (finished_)
        return !failed_;
    finished_ = true;
    Json s = Json::object();
    s.set("summary", true);
    s.set("rows", rows());
    s.set("routed", routed_);
    s.set("shed", shed_);
    Json by_class = Json::array();
    for (uint64_t c : shedByClass_)
        by_class.push(c);
    s.set("shed_by_class", std::move(by_class));
    return emit(s);
}

// --- Stream framing ---

namespace {

/// Pull the next NDJSON line; distinguishes "clean end of stream" from
/// "trailing junk". A final line without '\n' is still returned (the
/// validators then reject it on content, not on framing).
bool
nextLine(std::istream &in, std::string *line)
{
    while (std::getline(in, *line)) {
        if (!line->empty())
            return true;
    }
    return false;
}

Status
parseLine(const std::string &line, size_t lineno, Json *out)
{
    try {
        *out = Json::parse(line);
    } catch (const std::exception &e) {
        return Status::invalidArgument(detail::format(
            "line %zu is not valid JSON (truncated stream?): %s",
            lineno, e.what()));
    }
    if (out->type() != Json::Type::Object)
        return Status::invalidArgument(
            detail::format("line %zu is not a JSON object", lineno));
    return Status();
}

/// Check that the members @p keys of @p obj are integers.
Status
requireInts(const Json &obj, std::initializer_list<const char *> keys)
{
    for (const char *key : keys) {
        const Json *v = obj.find(key);
        if (!v || v->type() != Json::Type::Int)
            return Status::invalidArgument(
                detail::format("missing integer field '%s'", key));
    }
    return Status();
}

using LineCheck = std::function<Status(const Json &line)>;

/// The NDJSON framing every stream shares: a header line tagged
/// @p schema, rows strictly ascending by their integer @p order_key,
/// and a summary trailer (the first line with a "summary" member) whose
/// integer @p count_key equals the row count and which must be the last
/// line. A stream that ends without the trailer is truncated. @p header
/// (may be null), @p row and @p summary check each line's content; a
/// failure comes back prefixed with its line number.
Status
readStream(std::istream &in, const char *schema, const char *order_key,
           const char *count_key, const LineCheck &header,
           const LineCheck &row, const LineCheck &summary)
{
    std::string line;
    size_t lineno = 0;
    uint64_t rows = 0, last = 0;
    bool saw_summary = false;
    while (!saw_summary && nextLine(in, &line)) {
        Json obj;
        Status st = parseLine(line, ++lineno, &obj);
        if (!st.ok())
            return st;
        if (lineno == 1) {
            const Json *tag = obj.find("schema");
            if (!tag || tag->type() != Json::Type::String ||
                tag->asString() != schema)
                return Status::invalidArgument(
                    detail::format("header schema tag is not %s", schema));
            if (header)
                st = header(obj);
        } else if (obj.contains("summary")) {
            saw_summary = true;
            st = requireInts(obj, {count_key});
            if (st.ok() &&
                static_cast<uint64_t>(obj.find(count_key)->asInt()) != rows)
                st = Status::invalidArgument(detail::format(
                    "summary %s does not match the %llu rows streamed",
                    count_key, static_cast<unsigned long long>(rows)));
            if (st.ok())
                st = summary(obj);
        } else if ((st = row(obj)).ok()) {
            uint64_t key =
                static_cast<uint64_t>(obj.find(order_key)->asInt());
            if (key <= last)
                st = Status::invalidArgument(detail::format(
                    "%s %llu is not ascending", order_key,
                    static_cast<unsigned long long>(key)));
            last = key;
            ++rows;
        }
        if (!st.ok())
            return Status::invalidArgument(detail::format(
                "line %zu: %s", lineno, st.message().c_str()));
    }
    if (lineno == 0)
        return Status::invalidArgument("empty stream (no header line)");
    if (!saw_summary)
        return Status::invalidArgument(
            "stream ended without a summary trailer (truncated?)");
    if (nextLine(in, &line))
        return Status::invalidArgument(
            "trailing data after the summary trailer");
    return Status();
}

/// Dump @p j as one NDJSON line (into the reused @p line) to @p sink.
bool
sendLine(const StreamSink &sink, const Json &j, std::string &line)
{
    line = j.dump();
    line += '\n';
    return sink(line);
}

} // namespace

// --- Route streaming ---

Status
validateRouteRow(const Json &row, int64_t engines)
{
    Status st = requireInts(row, {"seq", "model", "class", "engine"});
    if (!st.ok())
        return st;
    // -1 = front-door shed, -2 = no healthy shard (unavailable).
    int64_t engine = row.find("engine")->asInt();
    if (engine < -2 || engine >= engines)
        return Status::invalidArgument(detail::format(
            "engine %lld out of range [-2, %lld)",
            static_cast<long long>(engine),
            static_cast<long long>(engines)));
    return Status();
}

Status
validateRouteStreamJson(std::istream &in)
{
    int64_t engines = 0, routed = 0, shed = 0;
    auto header = [&](const Json &h) {
        Status st = requireInts(h, {"engines"});
        if (!st.ok())
            return st;
        engines = h.find("engines")->asInt();
        if (engines < 1)
            return Status::invalidArgument("header engines must be >= 1");
        const Json *policy = h.find("policy");
        if (!policy || policy->type() != Json::Type::String)
            return Status::invalidArgument("header missing policy");
        return Status();
    };
    auto row = [&](const Json &r) {
        Status st = validateRouteRow(r, engines);
        if (st.ok())
            r.find("engine")->asInt() < 0 ? ++shed : ++routed;
        return st;
    };
    auto summary = [&](const Json &s) {
        Status st = requireInts(s, {"routed", "shed"});
        if (!st.ok())
            return st;
        if (s.find("routed")->asInt() != routed ||
            s.find("shed")->asInt() != shed)
            return Status::invalidArgument(detail::format(
                "summary routed/shed do not match the %lld routed + %lld "
                "shed rows streamed",
                static_cast<long long>(routed),
                static_cast<long long>(shed)));
        const Json *bc = s.find("shed_by_class");
        if (!bc || bc->type() != Json::Type::Array)
            return Status::invalidArgument(
                "summary missing shed_by_class array");
        int64_t by_class = 0;
        for (size_t i = 0; i < bc->size(); ++i)
            by_class += bc->at(i).asInt();
        if (by_class != shed)
            return Status::invalidArgument(
                "summary shed_by_class does not sum to shed");
        return Status();
    };
    return readStream(in, "bw.routestream/1", "seq", "rows", header, row,
                      summary);
}

Status
validateRouteStreamFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Status::invalidArgument(
            detail::format("cannot read %s", path.c_str()));
    return validateRouteStreamJson(in);
}

// --- Span streaming ---

Status
streamSpanTreesNdjson(const std::vector<SpanRecord> &spans,
                      uint64_t dropped, const StreamSink &sink)
{
    if (!sink)
        return Status::invalidArgument("span stream: null sink");
    const Status aborted = Status::unavailable("span stream: sink aborted");
    std::string line;
    Json header = Json::object();
    header.set("schema", "bw.spanstream/1");
    if (!sendLine(sink, header, line))
        return aborted;

    uint64_t traces = 0, exported = 0;
    bool ok = true;
    uint64_t incomplete =
        forEachSpanTraceRow(spans, [&](Json &row, uint64_t n) {
            ++traces;
            exported += n;
            return ok = sendLine(sink, row, line);
        });
    if (!ok)
        return aborted;

    Json summary = Json::object();
    summary.set("summary", true);
    summary.set("traces", traces);
    summary.set("spans", exported);
    summary.set("dropped", dropped);
    if (incomplete > 0)
        summary.set("incomplete_traces", incomplete);
    return sendLine(sink, summary, line) ? Status() : aborted;
}

Status
streamSpanTreesNdjson(const SpanTracer &tracer, const StreamSink &sink)
{
    return streamSpanTreesNdjson(tracer.collect(), tracer.dropped(),
                                 sink);
}

Status
validateSpanStreamJson(std::istream &in)
{
    return readStream(in, "bw.spanstream/1", "trace", "traces", nullptr,
                      validateSpanTraceRow, [](const Json &s) {
                          return requireInts(s, {"spans"});
                      });
}

// --- Flight streaming ---

Status
streamFlightNdjson(const FlightRecorder &recorder, const StreamSink &sink,
                   const ChainSpansFn &chains_for)
{
    if (!sink)
        return Status::invalidArgument("flight stream: null sink");
    const Status aborted =
        Status::unavailable("flight stream: sink aborted");
    std::string line;
    Json header = Json::object();
    header.set("schema", "bw.flightstream/1");
    header.set("window_us", recorder.options().windowUs);
    header.set("slowest_k", recorder.options().slowestK);
    if (!sendLine(sink, header, line))
        return aborted;

    // One record per line, its span tree inline as a single-trace
    // bw.spans/1 document.
    std::vector<FlightRecord> promoted = recorder.promoted();
    std::vector<SpanRecord> spans;
    for (const FlightRecord &r : promoted) {
        spans.clear();
        Json row = flightRecordRow(r, chains_for, spans);
        row.set("spans", spanTreeJson(spans, 0));
        if (!sendLine(sink, row, line))
            return aborted;
    }

    Json summary = Json::object();
    summary.set("summary", true);
    summary.set("promoted", static_cast<uint64_t>(promoted.size()));
    summary.set("recorded", recorder.recorded());
    summary.set("dropped", recorder.dropped());
    return sendLine(sink, summary, line) ? Status() : aborted;
}

Status
validateFlightStreamJson(std::istream &in)
{
    auto header = [](const Json &h) {
        return requireInts(h, {"window_us", "slowest_k"});
    };
    // A stream row carries its span tree inline: a bw.spans/1 document
    // holding exactly the record's trace.
    auto row = [](const Json &r) {
        Status st = validateFlightRecordRow(r);
        if (!st.ok())
            return st;
        const Json *spans = r.find("spans");
        if (!spans)
            return Status::invalidArgument(
                "record missing embedded spans document");
        if (!(st = validateSpanTreeJson(*spans)).ok())
            return st;
        const Json *traces = spans->find("traces");
        if (traces->size() != 1 ||
            traces->at(0).find("trace")->asInt() != r.find("seq")->asInt())
            return Status::invalidArgument(
                "record spans do not hold exactly its own trace");
        return Status();
    };
    auto summary = [](const Json &s) {
        return requireInts(s, {"recorded", "dropped"});
    };
    return readStream(in, "bw.flightstream/1", "seq", "promoted", header,
                      row, summary);
}

Status
validateStreamFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Status::invalidArgument(
            detail::format("cannot read %s", path.c_str()));
    std::string first;
    if (!nextLine(in, &first))
        return Status::invalidArgument("empty stream (no header line)");
    Json header;
    Status st = parseLine(first, 1, &header);
    if (!st.ok())
        return st;
    const Json *tag = header.find("schema");
    std::string schema = tag && tag->type() == Json::Type::String
                             ? tag->asString()
                             : "";
    in.clear();
    in.seekg(0); // the validators read from the header on
    if (schema == "bw.routestream/1")
        return validateRouteStreamJson(in);
    if (schema == "bw.spanstream/1")
        return validateSpanStreamJson(in);
    if (schema == "bw.flightstream/1")
        return validateFlightStreamJson(in);
    return Status::invalidArgument(detail::format(
        "unknown stream schema tag '%s' (want bw.routestream/1, "
        "bw.spanstream/1 or bw.flightstream/1)",
        schema.c_str()));
}

} // namespace obs
} // namespace bw
