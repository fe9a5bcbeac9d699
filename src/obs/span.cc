#include "obs/span.h"

#include <algorithm>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"

namespace bw {
namespace obs {

namespace {

constexpr const char *kSchema = "bw.spans/1";

} // namespace

const char *
spanKindName(SpanKind k)
{
    switch (k) {
      case SpanKind::Request: return "request";
      case SpanKind::QueueWait: return "queue_wait";
      case SpanKind::Dispatch: return "dispatch";
      case SpanKind::Execute: return "execute";
      case SpanKind::Chain: return "chain";
      case SpanKind::Route: return "route";
      case SpanKind::Hedge: return "hedge";
      default: BW_PANIC("bad SpanKind %d", static_cast<int>(k));
    }
}

const char *
spanOutcomeName(SpanOutcome o)
{
    switch (o) {
      case SpanOutcome::Ok: return "ok";
      case SpanOutcome::DeadlineExpired: return "deadline_expired";
      case SpanOutcome::Cancelled: return "cancelled";
      case SpanOutcome::Rejected: return "rejected";
      case SpanOutcome::Error: return "error";
      default: BW_PANIC("bad SpanOutcome %d", static_cast<int>(o));
    }
}

SpanTracerOptions
SpanTracerOptions::fromEnv(SpanTracerOptions base)
{
    if (const char *v = std::getenv("BW_SPAN_SAMPLE")) {
        if (*v)
            base.sampleEvery = static_cast<unsigned>(std::atoi(v));
    }
    return base;
}

SpanTracerOptions
SpanTracerOptions::fromEnv()
{
    return fromEnv(SpanTracerOptions{});
}

// --- SpanTracer ---

SpanTracer::SpanTracer(SpanTracerOptions opts)
    : opts_(opts), ring_(opts.shardCapacity)
{
    opts_.shardCapacity = std::max<size_t>(1, opts_.shardCapacity);
}

TraceContext
SpanTracer::admit(uint64_t seq) const
{
    TraceContext ctx;
    if (opts_.sampleEvery > 0 && seq > 0 &&
        (seq - 1) % opts_.sampleEvery == 0) {
        ctx.trace = seq;
    }
    return ctx;
}

void
SpanTracer::record(const SpanRecord &s)
{
    ring_.record(s);
}

std::vector<SpanRecord>
SpanTracer::collect() const
{
    std::vector<SpanRecord> out = ring_.collect();
    std::sort(out.begin(), out.end(),
              [](const SpanRecord &a, const SpanRecord &b) {
                  return a.trace != b.trace ? a.trace < b.trace
                                            : a.id < b.id;
              });
    return out;
}

uint64_t
SpanTracer::recorded() const
{
    return ring_.recorded();
}

uint64_t
SpanTracer::dropped() const
{
    return ring_.dropped();
}

void
SpanTracer::clear()
{
    ring_.clear();
}

// --- Span-tree writer ---

ChainSpans
makeChainSpans(const std::vector<ChainProfile> &chains, Cycles total_cycles)
{
    ChainSpans cs;
    cs.totalCycles = total_cycles;
    cs.templates.reserve(chains.size());
    for (size_t i = 0; i < chains.size(); ++i) {
        const ChainProfile &p = chains[i];
        SpanRecord &s = cs.templates.emplace_back();
        s.kind = SpanKind::Chain;
        s.chainKind = p.kind;
        s.index = static_cast<uint32_t>(i);
        s.chainId = p.chain;
        s.startCycle = p.dispatchStart;
        s.endCycle = p.done;
        s.dispatchCycles = p.dispatchDone > p.dispatchStart
                               ? p.dispatchDone - p.dispatchStart
                               : 0;
        s.decodeCycles =
            p.decodeDone > p.dispatchDone ? p.decodeDone - p.dispatchDone
                                          : 0;
        s.dataStallCycles = p.dataStall;
        s.inputStallCycles = p.inputStall;
        s.structStallCycles = p.structStall;
        Cycles tail = p.done > p.decodeDone ? p.done - p.decodeDone : 0;
        Cycles stalls = p.dataStall + p.inputStall + p.structStall;
        s.computeCycles = tail > stalls ? tail - stalls : 0;
    }
    return cs;
}

namespace {

/// Chain cycle @p c mapped proportionally into [service_us, done_us].
/// A 64-bit product when c * window fits, a 128-bit one otherwise: the
/// same integer either way, so exports never depend on the path.
uint64_t
chainCycleUs(Cycles c, Cycles total_cycles, uint64_t service_us,
             uint64_t done_us)
{
    uint64_t window = done_us > service_us ? done_us - service_us : 0;
    if (total_cycles == 0 || window == 0)
        return service_us;
    c = std::min(c, total_cycles);
    uint64_t product = 0;
    if (!__builtin_mul_overflow(c, window, &product))
        return service_us + product / total_cycles;
    return service_us +
           static_cast<uint64_t>(static_cast<unsigned __int128>(c) *
                                 window / total_cycles);
}

/// Span-id stride between the hedge[0] and hedge[1] subtrees: room for
/// the hedge span, its request tree (4) and every chain leaf.
SpanId
hedgeSpanStride(unsigned max_chain_spans)
{
    return std::max<SpanId>(512, 5 + max_chain_spans);
}

bool
served(SpanOutcome o)
{
    // Errored requests consumed service; only never-served outcomes
    // (expired in queue, rejected, cancelled) stop at queue_wait.
    return o == SpanOutcome::Ok || o == SpanOutcome::Error;
}

/** Chain leaves an attempt writes (see SpanAttempt::chains). */
size_t
leafCount(const SpanAttempt &at, unsigned max_chain_spans)
{
    if (!served(at.request.outcome) || !at.chains)
        return 0;
    return std::min<size_t>(at.chains->templates.size(), max_chain_spans);
}

/// Span-slot outputs the tree writer fills in order: a ring claim
/// (SpanTracer::Claim) or a presized vector (SpanSlots).
struct SpanSlots
{
    SpanRecord *p;

    SpanRecord &next() { return *p++; }
};

template <class Out>
SpanRecord &
stamp(Out &out, TraceId trace, SpanId id, SpanId parent, SpanKind kind,
      uint64_t start_us, uint64_t end_us)
{
    SpanRecord &r = out.next();
    r = SpanRecord{};
    r.trace = trace;
    r.id = id;
    r.parent = parent;
    r.kind = kind;
    r.startUs = start_us;
    r.endUs = end_us;
    return r;
}

/** Request tree at ids parent+1..; returns the execute id (0: none). */
template <class Out>
SpanId
writeRequestTree(Out &out, TraceId trace, const RequestSpans &rs,
                 SpanId parent)
{
    SpanId req = parent + 1;
    SpanRecord &r = stamp(out, trace, req, parent, SpanKind::Request,
                          rs.admitUs, rs.doneUs);
    r.outcome = rs.outcome;
    stamp(out, trace, parent + 2, req, SpanKind::QueueWait, rs.admitUs,
          rs.dequeueUs);
    if (!served(rs.outcome))
        return 0; // never reached service: queue_wait is the story
    stamp(out, trace, parent + 3, req, SpanKind::Dispatch, rs.dequeueUs,
          rs.serviceUs);
    SpanRecord &e = stamp(out, trace, parent + 4, req, SpanKind::Execute,
                          rs.serviceUs, rs.doneUs);
    e.index = rs.replica;
    e.chainCount = rs.chainCount;
    return e.id;
}

template <class Out>
void
writeChainLeaves(Out &out, TraceId trace, SpanId execute,
                 uint64_t service_us, uint64_t done_us,
                 const ChainSpans &cs, size_t take)
{
    for (size_t i = 0; i < take; ++i) {
        SpanRecord &s = out.next();
        s = cs.templates[i];
        s.trace = trace;
        s.id = static_cast<SpanId>(execute + 1 + i);
        s.parent = execute;
        s.startUs =
            chainCycleUs(s.startCycle, cs.totalCycles, service_us, done_us);
        s.endUs = std::max(
            chainCycleUs(s.endCycle, cs.totalCycles, service_us, done_us),
            s.startUs);
    }
}

/** Spans @p tree writes with chain leaves capped at @p cap. */
size_t
spanTreeSize(const SpanTree &tree, unsigned cap)
{
    size_t n = tree.routed ? 1 : 0;
    for (unsigned i = 0; i < tree.attempts; ++i) {
        const SpanAttempt &at = tree.attempt[i];
        n += (tree.hedged ? 1 : 0) + (served(at.request.outcome) ? 4 : 2) +
             leafCount(at, cap);
    }
    return n;
}

/** Write @p tree's spanTreeSize(tree, cap) records into @p out: route,
 *  then per attempt its hedge span, request tree and chain leaves. */
template <class Out>
void
writeSpanTree(Out &out, const SpanTree &tree, unsigned cap)
{
    SpanId root = 0;
    if (tree.routed) {
        root = 1;
        const RouteSpan &rs = tree.route;
        SpanRecord &r = stamp(out, tree.trace, root, 0, SpanKind::Route,
                              rs.admitUs, rs.doneUs);
        r.outcome = rs.outcome;
        r.index = rs.engine;
        r.chainId = rs.model;
    }
    SpanId stride = tree.hedged ? hedgeSpanStride(cap) : 0;
    for (unsigned i = 0; i < tree.attempts; ++i) {
        const SpanAttempt &at = tree.attempt[i];
        const RequestSpans &rq = at.request;
        SpanId parent = root;
        if (tree.hedged) {
            parent = 2 + i * stride;
            SpanRecord &h = stamp(out, tree.trace, parent, root,
                                  SpanKind::Hedge, rq.admitUs, rq.doneUs);
            h.outcome = rq.outcome;
            h.index = i;           // hedge ordinal: "hedge[i]"
            h.chainId = at.engine; // the engine this attempt hit
        }
        SpanId exec = writeRequestTree(out, tree.trace, rq, parent);
        if (size_t leaves = leafCount(at, cap))
            writeChainLeaves(out, tree.trace, exec, rq.serviceUs,
                             rq.doneUs, *at.chains, leaves);
    }
}

} // namespace

void
recordSpanTree(SpanTracer &tracer, const SpanTree &tree)
{
    if (tree.trace == 0)
        return;
    unsigned cap = tracer.options().maxChainSpans;
    SpanTracer::Claim claim = tracer.claim(spanTreeSize(tree, cap));
    writeSpanTree(claim, tree, cap);
}

void
appendSpanTree(std::vector<SpanRecord> &out, const SpanTree &tree,
               unsigned max_chain_spans)
{
    if (tree.trace == 0)
        return;
    size_t at = out.size();
    out.resize(at + spanTreeSize(tree, max_chain_spans));
    SpanSlots slots{out.data() + at};
    writeSpanTree(slots, tree, max_chain_spans);
}

SpanId
recordRequestTree(SpanTracer &tracer, const RequestSpans &rs)
{
    if (rs.trace == 0)
        return 0;
    SpanTracer::Claim claim = tracer.claim(served(rs.outcome) ? 4 : 2);
    return writeRequestTree(claim, rs.trace, rs, 0);
}

void
recordChainSpans(SpanTracer &tracer, TraceId trace, SpanId execute,
                 uint64_t service_us, uint64_t done_us,
                 const std::vector<ChainProfile> &chains,
                 Cycles total_cycles)
{
    if (trace == 0 || execute == 0 || chains.empty())
        return;
    ChainSpans cs = makeChainSpans(chains, total_cycles);
    size_t take = std::min<size_t>(cs.templates.size(),
                                   tracer.options().maxChainSpans);
    if (take == 0)
        return;
    SpanTracer::Claim claim = tracer.claim(take);
    writeChainLeaves(claim, trace, execute, service_us, done_us, cs, take);
}

// --- Span-tree JSON export ---

namespace {

std::string
spanName(const SpanRecord &s)
{
    if (s.kind == SpanKind::Chain)
        return "chain[" + std::to_string(s.index) + "]";
    if (s.kind == SpanKind::Hedge)
        return "hedge[" + std::to_string(s.index) + "]";
    return spanKindName(s.kind);
}

Json
spanNode(const SpanRecord &s, const std::vector<const SpanRecord *> &kids)
{
    Json n = Json::object();
    n.set("name", spanName(s));
    n.set("id", s.id);
    n.set("start_us", s.startUs);
    n.set("end_us", s.endUs);
    n.set("dur_us", s.endUs - s.startUs);
    switch (s.kind) {
      case SpanKind::Request:
        n.set("outcome", spanOutcomeName(s.outcome));
        break;
      case SpanKind::Route:
        n.set("outcome", spanOutcomeName(s.outcome));
        n.set("engine", s.index);
        n.set("model", s.chainId);
        break;
      case SpanKind::Hedge:
        n.set("outcome", spanOutcomeName(s.outcome));
        n.set("engine", s.chainId);
        break;
      case SpanKind::Execute:
        n.set("replica", s.index);
        if (s.chainCount > 0) {
            n.set("chains", s.chainCount);
            if (s.chainCount > kids.size())
                n.set("chains_truncated", true);
        }
        break;
      case SpanKind::Chain: {
        n.set("chain", s.chainId);
        n.set("kind", std::string(1, s.chainKind ? s.chainKind : '?'));
        n.set("start_cycle", s.startCycle);
        n.set("end_cycle", s.endCycle);
        Json st = Json::object();
        st.set("dispatch", s.dispatchCycles);
        st.set("decode", s.decodeCycles);
        st.set("data", s.dataStallCycles);
        st.set("input", s.inputStallCycles);
        st.set("struct", s.structStallCycles);
        st.set("compute", s.computeCycles);
        n.set("stalls", std::move(st));
        break;
      }
      default:
        break;
    }
    return n;
}

using SpanKids =
    std::unordered_map<SpanId, std::vector<const SpanRecord *>>;

/// Render @p s and its subtree, counting spans into @p exported.
Json
renderSpan(const SpanRecord &s, const SpanKids &kids, uint64_t *exported)
{
    static const std::vector<const SpanRecord *> none;
    auto it = kids.find(s.id);
    const std::vector<const SpanRecord *> &children =
        it == kids.end() ? none : it->second;
    Json n = spanNode(s, children);
    ++*exported;
    if (!children.empty()) {
        Json arr = Json::array();
        for (const SpanRecord *c : children)
            arr.push(renderSpan(*c, kids, exported));
        n.set("children", std::move(arr));
    }
    return n;
}

} // namespace

uint64_t
forEachSpanTraceRow(const std::vector<SpanRecord> &spans,
                    const SpanTraceRowFn &row)
{
    std::vector<const SpanRecord *> ordered;
    ordered.reserve(spans.size());
    for (const SpanRecord &s : spans)
        ordered.push_back(&s);
    std::sort(ordered.begin(), ordered.end(),
              [](const SpanRecord *a, const SpanRecord *b) {
                  return a->trace != b->trace ? a->trace < b->trace
                                              : a->id < b->id;
              });

    uint64_t incomplete = 0;
    size_t i = 0;
    while (i < ordered.size()) {
        TraceId t = ordered[i]->trace;
        size_t j = i;
        while (j < ordered.size() && ordered[j]->trace == t)
            ++j;

        // Children by parent id; the root is the parentless request.
        SpanKids kids;
        const SpanRecord *root = nullptr;
        std::unordered_map<SpanId, const SpanRecord *> by_id;
        for (size_t k = i; k < j; ++k) {
            const SpanRecord *s = ordered[k];
            by_id.emplace(s->id, s);
            if (s->parent == 0 && (s->kind == SpanKind::Request ||
                                   s->kind == SpanKind::Route))
                root = s;
        }
        bool lost_parent = false;
        for (size_t k = i; k < j; ++k) {
            const SpanRecord *s = ordered[k];
            if (s->parent == 0)
                continue;
            if (by_id.count(s->parent))
                kids[s->parent].push_back(s);
            else
                lost_parent = true; // ring overwrite ate the parent
        }
        i = j;
        if (!root) {
            ++incomplete;
            continue;
        }
        for (auto &[id, v] : kids) {
            (void)id;
            std::sort(v.begin(), v.end(),
                      [](const SpanRecord *a, const SpanRecord *b) {
                          return a->startUs != b->startUs
                                     ? a->startUs < b->startUs
                                     : a->id < b->id;
                      });
        }

        uint64_t exported = 0;
        Json root_node = renderSpan(*root, kids, &exported);
        Json tr = Json::object();
        tr.set("trace", t);
        if (lost_parent)
            tr.set("incomplete", true);
        tr.set("root", std::move(root_node));
        if (!row(tr, exported))
            break;
    }
    return incomplete;
}

Json
spanTreeJson(const std::vector<SpanRecord> &spans, uint64_t dropped)
{
    Json traces = Json::array();
    uint64_t exported = 0;
    uint64_t incomplete =
        forEachSpanTraceRow(spans, [&](Json &row, uint64_t n) {
            exported += n;
            traces.push(std::move(row));
            return true;
        });

    Json doc = Json::object();
    doc.set("schema", kSchema);
    doc.set("spans", exported);
    doc.set("dropped", dropped);
    if (incomplete > 0)
        doc.set("incomplete_traces", incomplete);
    doc.set("traces", std::move(traces));
    return doc;
}

Json
spanTreeJson(const SpanTracer &tracer)
{
    return spanTreeJson(tracer.collect(), tracer.dropped());
}

// --- Schema validation ---

namespace {

Status
failSpan(TraceId trace, const std::string &why)
{
    return Status::invalidArgument(detail::format(
        "trace %llu: %s", static_cast<unsigned long long>(trace),
        why.c_str()));
}

/// Validate @p node and its subtree; @p parent is null at the root.
Status
validateSpan(const Json &node, TraceId trace, const Json *parent,
             std::unordered_set<int64_t> &ids)
{
    if (node.type() != Json::Type::Object)
        return failSpan(trace, "span is not an object");
    const Json *name = node.find("name");
    if (!name || name->type() != Json::Type::String ||
        name->asString().empty())
        return failSpan(trace, "span missing name");
    auto bad = [&](const std::string &why) {
        return failSpan(trace, "span '" + name->asString() + "' " + why);
    };
    if (!parent && name->asString() != "request" &&
        name->asString() != "route")
        return bad("is a root not named 'request' or 'route'");
    const Json *id = node.find("id");
    if (!id || id->type() != Json::Type::Int || id->asInt() <= 0)
        return bad("missing positive integer id");
    if (!ids.insert(id->asInt()).second)
        return bad("has duplicate id " + std::to_string(id->asInt()));
    const Json *start = node.find("start_us");
    const Json *end = node.find("end_us");
    const Json *dur = node.find("dur_us");
    for (const Json *v : {start, end, dur}) {
        if (!v || v->type() != Json::Type::Int)
            return bad("missing integer start_us/end_us/dur_us");
    }
    int64_t s = start->asInt(), e = end->asInt();
    if (e < s)
        return bad("ends before it starts");
    if (dur->asInt() != e - s)
        return bad("dur_us != end_us - start_us");
    if (parent && (s < parent->find("start_us")->asInt() ||
                   e > parent->find("end_us")->asInt()))
        return bad("escapes its parent interval");
    if (const Json *children = node.find("children")) {
        if (children->type() != Json::Type::Array)
            return bad("children is not an array");
        for (size_t i = 0; i < children->size(); ++i) {
            Status st = validateSpan(children->at(i), trace, &node, ids);
            if (!st.ok())
                return st;
        }
    }
    return Status();
}

} // namespace

Status
validateSpanTraceRow(const Json &row)
{
    if (row.type() != Json::Type::Object)
        return Status::invalidArgument("trace entry is not an object");
    const Json *tid = row.find("trace");
    if (!tid || tid->type() != Json::Type::Int || tid->asInt() <= 0)
        return Status::invalidArgument(
            "trace entry missing positive integer trace id");
    TraceId trace = static_cast<TraceId>(tid->asInt());
    const Json *root = row.find("root");
    if (!root)
        return failSpan(trace, "trace entry missing root span");
    std::unordered_set<int64_t> ids;
    return validateSpan(*root, trace, nullptr, ids);
}

Status
validateSpanTreeJson(const Json &doc)
{
    if (doc.type() != Json::Type::Object)
        return Status::invalidArgument("span document is not an object");
    const Json *schema = doc.find("schema");
    if (!schema || schema->type() != Json::Type::String ||
        schema->asString() != kSchema) {
        return Status::invalidArgument(
            std::string("span document schema is not '") + kSchema +
            "'");
    }
    const Json *traces = doc.find("traces");
    if (!traces || traces->type() != Json::Type::Array)
        return Status::invalidArgument(
            "span document has no traces array");
    for (size_t i = 0; i < traces->size(); ++i) {
        Status st = validateSpanTraceRow(traces->at(i));
        if (!st.ok())
            return st;
    }
    return Status();
}

// --- Chrome async-event overlay ---

namespace {

/** Append one b/e async pair per span of @p node's subtree. */
void
appendDocSpan(Json &events, TraceId trace, const Json &node)
{
    Json args = Json::object();
    args.set("trace", trace);
    for (size_t i = 0; i < node.size(); ++i) {
        const auto &[key, value] = node.member(i);
        if (key == "name" || key == "children" || key == "start_us" ||
            key == "end_us" || key == "dur_us" || key == "id")
            continue;
        args.set(key, value);
    }
    for (const char *ph : {"b", "e"}) {
        bool begin = ph[0] == 'b';
        Json ev = Json::object();
        ev.set("name", *node.find("name"));
        ev.set("cat", "bw.span");
        ev.set("ph", ph);
        ev.set("id", std::to_string(trace));
        ev.set("ts", *node.find(begin ? "start_us" : "end_us"));
        ev.set("pid", 0);
        if (begin)
            ev.set("args", std::move(args));
        events.push(std::move(ev));
    }
    if (const Json *children = node.find("children")) {
        for (size_t i = 0; i < children->size(); ++i)
            appendDocSpan(events, trace, children->at(i));
    }
}

} // namespace

Status
appendSpanTreeDocEvents(Json &chrome_doc, const Json &span_doc)
{
    Status st = validateSpanTreeJson(span_doc);
    if (!st.ok())
        return st;
    Json events = Json::array();
    if (const Json *existing = chrome_doc.find("traceEvents"))
        events = *existing;
    const Json *traces = span_doc.find("traces");
    for (size_t i = 0; i < traces->size(); ++i) {
        const Json &tr = traces->at(i);
        appendDocSpan(events,
                      static_cast<TraceId>(tr.find("trace")->asInt()),
                      *tr.find("root"));
    }
    chrome_doc.set("traceEvents", std::move(events));
    return Status();
}

} // namespace obs
} // namespace bw
