/**
 * @file
 * The two serving-stack workloads.
 *
 * fleet_stream: Cluster::replayStream pulling from a TrafficStream on
 * the heterogeneous 3xS10 + 1xS5 fleet with every plane attached (SLO
 * routing, fast tier + audit, hedging, seeded chaos, span tracer,
 * registry, RouteStreamWriter sink), then the streamed exports. Time
 * goes to NDJSON serialization and the hedged dispatch path.
 *
 * fleet_replay: Cluster::replay over a pre-generated near-saturation
 * trace with least-loaded routing and a dozen tenants whose footprint
 * overflows each shard's weight cache, no optional planes, then the
 * materialized documents and one standalone Engine::replay of the same
 * arrivals. It never touches the NDJSON writers.
 */

#include <functional>
#include <memory>
#include <sstream>

#include "bw/bw.h"
#include "workloads.h"

namespace perfbench {

using namespace bw;
using namespace bw::cluster;

namespace {

/** The chaos_replay fleet shape: three S10 shards and one S5. */
ClusterOptions
fleetShape(RoutePolicy policy, uint64_t cache_tiles)
{
    ClusterOptions co;
    ReplicaGroupSpec s10;
    s10.name = "s10";
    s10.config = NpuConfig::bwS10();
    s10.engines = 3;
    ReplicaGroupSpec s5;
    s5.name = "s5";
    s5.config = NpuConfig::bwS5();
    s5.engines = 1;
    for (ReplicaGroupSpec *g : {&s10, &s5}) {
        g->engine.queueDepth = 32;
        g->engine.networkMs = 0.05;
        g->engine.defaultDeadlineMs = 50.0;
    }
    co.groups = {s10, s5};
    co.router.policy = policy;
    co.weightCacheTiles = cache_tiles;
    return co;
}

/** Sink that digests every chunk and, on the check pass, also keeps
 *  it for the stream validators. */
obs::StreamSink
digestSink(Digest *d, std::string *keep)
{
    return [d, keep](const std::string &chunk) {
        d->add(chunk);
        if (keep)
            *keep += chunk;
        return true;
    };
}

/** Run an NDJSON stream validator over captured bytes. */
Status
validateStream(Status (*validate)(std::istream &), const std::string &bytes)
{
    std::istringstream in(bytes);
    return validate(in);
}

double
cacheHitRatio(const ClusterStats &s)
{
    uint64_t hits = 0, total = 0;
    for (const EngineReport &e : s.engines) {
        hits += e.cacheHits;
        total += e.cacheHits + e.cacheMisses;
    }
    return total ? static_cast<double>(hits) / static_cast<double>(total)
                 : 0;
}

// ------------------------------------------------------------------
// fleet_stream
// ------------------------------------------------------------------

/** The optional planes of fleet_stream; the tax rows detach one. */
struct Planes
{
    bool routeStream = true;
    bool spans = true;
    bool registry = true;
    bool hedge = true;
    bool chaos = true;
    bool audit = true;
};

/** Virtual seconds of traffic: ~720k requests at 2400 rps. */
constexpr double kStreamDurationS = 300.0;

TrafficOptions
streamTraffic(uint64_t seed)
{
    TrafficOptions t;
    t.baseRps = 2400;
    t.durationS = kStreamDurationS;
    t.seed = deriveSeed(seed, 1);
    t.diurnalAmplitude = 0.3;
    t.diurnalPeriodS = kStreamDurationS;
    t.mix.push_back(ModelMix{0, 8.0, 1, 10.0});
    t.mix.push_back(ModelMix{1, 2.0, 1, 80.0});
    t.mix.push_back(ModelMix{2, 1.0, 1, 0.0});
    t.mix.push_back(ModelMix{3, 1.5, 2, 40.0});
    return t;
}

struct StreamFleet
{
    std::unique_ptr<metrics::Registry> registry;
    std::unique_ptr<obs::SpanTracer> spans;
    std::unique_ptr<Cluster> cluster;
    Planes planes;
};

StreamFleet
setupStreamFleet(uint64_t seed, const Planes &planes, Tracer *t)
{
    Scope s(t, "setup");
    StreamFleet f;
    f.planes = planes;
    ClusterOptions co = fleetShape(RoutePolicy::SloAware, 128);
    co.fidelity = timing::Fidelity::Fast;
    co.auditEvery = planes.audit ? 997 : 0;
    co.hedgeMs = planes.hedge ? 6.0 : -1;
    if (planes.registry) {
        f.registry = std::make_unique<metrics::Registry>();
        co.metricsRegistry = f.registry.get();
    }
    if (planes.spans) {
        f.spans = std::make_unique<obs::SpanTracer>();
        co.spanTracer = f.spans.get();
    }
    f.cluster = std::make_unique<Cluster>(co);
    Cluster &c = *f.cluster;
    c.addTimedModel("dnn-hot", 0.8, 24);
    c.addTimedModel("dnn-warm", 1.5, 24);
    c.addTimedModel("dnn-cold", 2.5, 40);
    Rng rng(deriveSeed(seed, 3));
    GirGraph gru = makeGru(randomGruWeights(128, 128, rng));
    Expected<uint32_t> id = c.addModel("gru-tagger", gru);
    BW_ASSERT(id.ok(), "gru-tagger failed to register: %s",
              id.status().message().c_str());
    if (planes.chaos) {
        ChaosOptions ch;
        ch.seed = deriveSeed(seed, 2);
        ch.faultRate = 2.0;
        ch.horizonS = kStreamDurationS;
        ch.meanDurationS = 0.08;
        c.setChaosSchedule(ChaosSchedule::generate(ch, c.engineCount()));
    }
    return f;
}

/** Per-request probes of a traced replayStream. */
struct StreamProbes
{
    Tally *next = nullptr;
    Tally *sink = nullptr;
    Tally *gap = nullptr; // host time between successive next() calls
};

/** One pass: replayStream, then (unless @p replay_only) the streamed
 *  exports. Fills @p sample with host seconds; returns digests. */
std::map<std::string, std::string>
streamPass(StreamFleet &f, const TrafficOptions &traffic, Tracer *t,
           Tally *gap, bool replay_only, bool check, Report *rep,
           Json *sample)
{
    Cluster &c = *f.cluster;
    std::map<std::string, std::string> dig;
    Scope pass(t, "pass");

    Digest route_d;
    std::string route_bytes;
    std::unique_ptr<obs::RouteStreamWriter> writer;
    if (f.planes.routeStream)
        writer = std::make_unique<obs::RouteStreamWriter>(
            digestSink(&route_d, check ? &route_bytes : nullptr),
            routePolicyName(c.router().options().policy),
            c.engineCount(), c.sloClassCount());

    TrafficStream stream(traffic);
    ClusterStats stats;
    uint64_t t0 = nowNs();
    {
        Scope s(t, "Cluster::replayStream");
        StreamProbes p;
        if (t) {
            p = {&t->tally("TrafficStream::next"),
                 &t->tally("RouteStreamWriter::decision"), gap};
            if (writer) {
                obs::RouteStreamWriter *w = writer.get();
                c.setDecisionSink([w, &p](const RouteDecision &d) {
                    uint64_t a = nowNs();
                    w->decision(d.seq, d.model, d.cls, d.engine);
                    p.sink->add(nowNs() - a);
                });
            }
            uint64_t last = 0;
            stats = c.replayStream([&stream, &p, &last](ClusterRequest *r) {
                uint64_t a = nowNs();
                if (last)
                    p.gap->add(a - last);
                bool more = stream.next(r);
                last = nowNs();
                p.next->add(last - a);
                return more;
            });
        } else {
            if (writer) {
                obs::RouteStreamWriter *w = writer.get();
                c.setDecisionSink([w](const RouteDecision &d) {
                    w->decision(d.seq, d.model, d.cls, d.engine);
                });
            }
            stats = c.replayStream(
                [&stream](ClusterRequest *r) { return stream.next(r); });
        }
        if (writer)
            writer->finish();
        c.setDecisionSink({}); // the sink refers to this pass's probes
    }
    double replay_s = secondsSince(t0);
    sample->set("sim_s", replay_s);
    sample->set("requests", stats.submitted);
    if (replay_only)
        return dig;

    uint64_t t1 = nowNs();
    Digest span_d, flight_d;
    std::string span_bytes, metrics_text, incidents;
    std::vector<std::string> flight_bytes(c.engineCount());
    {
        Scope s(t, "exports");
        if (f.spans) {
            Scope e(t, "streamSpanTreesNdjson");
            Status st = obs::streamSpanTreesNdjson(
                *f.spans, digestSink(&span_d, check ? &span_bytes : nullptr));
            e.setBytes(span_d.bytes());
            rep->check(st.ok(), "streamSpanTreesNdjson: " + st.toString());
        }
        for (unsigned i = 0; i < c.engineCount(); ++i) {
            const obs::FlightRecorder *rec =
                c.engine(i).options().flightRecorder;
            Digest shard_d;
            Scope e(t, "streamFlightNdjson");
            Status st = obs::streamFlightNdjson(
                *rec, [&](const std::string &chunk) {
                    flight_d.add(chunk);
                    shard_d.add(chunk);
                    if (check)
                        flight_bytes[i] += chunk;
                    return true;
                });
            e.setBytes(shard_d.bytes());
            rep->check(st.ok(), "streamFlightNdjson: " + st.toString());
        }
        {
            Scope e(t, "fleetMetricsText");
            metrics_text = c.fleetMetricsText();
            e.setBytes(metrics_text.size());
        }
        {
            Scope e(t, "incidentsJson");
            incidents = c.incidentsJson().dump();
            e.setBytes(incidents.size());
        }
    }
    double export_s = secondsSince(t1);
    sample->set("export_s", export_s);
    sample->set("pass_s", replay_s + export_s);

    dig["cluster_stats"] = digestOf(stats.toJson().dump());
    dig["route_stream"] = route_d.hex();
    dig["span_stream"] = span_d.hex();
    dig["flight_stream"] = flight_d.hex();
    dig["fleet_metrics"] = digestOf(metrics_text);
    dig["incidents"] = digestOf(incidents);
    dig["audit"] = digestOf(std::to_string(c.auditChecks()) + "/" +
                            std::to_string(c.auditDivergences()));
    rep->check(c.auditDivergences() == 0, "fast tier diverged from "
                                          "cycle-accurate in the audit");

    if (check) {
        Status st =
            validateStream(obs::validateRouteStreamJson, route_bytes);
        rep->check(st.ok(), "bw.routestream/1: " + st.toString());
        st = validateStream(obs::validateSpanStreamJson, span_bytes);
        rep->check(st.ok(), "bw.spanstream/1: " + st.toString());
        for (const std::string &b : flight_bytes) {
            st = validateStream(obs::validateFlightStreamJson, b);
            rep->check(st.ok(), "bw.flightstream/1: " + st.toString());
        }
        st = obs::validateIncidentJson(c.incidentsJson());
        rep->check(st.ok(), "bw.incident/1: " + st.toString());
        rep->check(stats.hedgeWins > 0, "no hedge won");
        rep->check(c.incidents().faults() > 0, "no fault fired");

        Json &l = rep->layers;
        l.set("cluster.hedge_win_ratio",
              stats.hedged ? static_cast<double>(stats.hedgeWins) /
                                 static_cast<double>(stats.hedged)
                           : 0.0);
        l.set("cluster.audit_checks", c.auditChecks());
        l.set("cache.hit_ratio", cacheHitRatio(stats));
        l.set("obs.spans_dropped", f.spans->dropped());
        l.set("obs.route_bytes_per_row",
              static_cast<double>(route_d.bytes()) /
                  static_cast<double>(writer->rows()));
    }
    return dig;
}

} // namespace

Report
runFleetStream(const RunOptions &opts, Tracer *tracer)
{
    Report rep;
    TrafficOptions traffic = streamTraffic(opts.seed);
    Planes all;
    Tally gap;

    {
        uint64_t t0 = nowNs();
        StreamFleet f = setupStreamFleet(opts.seed, all, nullptr);
        rep.setupS.push_back(secondsSince(t0));
        Json sample = Json::object();
        rep.digestPass(streamPass(f, traffic, nullptr, nullptr, false,
                                  true, &rep, &sample));
    }
    // The check pass keeps whole exports for the validators; the peak
    // RSS reported is that of the timed passes.
    resetPeakRss();
    uint64_t start = nowNs();
    for (size_t i = 0; rep.passes.size() < kRssPasses ||
                       secondsSince(start) < opts.seconds;
         ++i) {
        // The traced run alternates traced and untraced passes so the
        // tracing overhead is measured under the same conditions.
        Tracer *t = opts.trace && i % 2 ? tracer : nullptr;
        uint64_t t0 = nowNs();
        StreamFleet f = setupStreamFleet(opts.seed, all, t);
        rep.setupS.push_back(secondsSince(t0));
        Json sample = Json::object();
        sample.set("traced", t != nullptr);
        rep.digestPass(streamPass(f, traffic, t, &gap, false, false, &rep,
                                  &sample));
        rep.addPass(std::move(sample));
    }
    if (!opts.trace)
        return rep;

    rep.layers.set("cluster.req_host_p50_ns", gap.quantileNs(0.5));
    rep.layers.set("cluster.req_host_p999_ns", gap.quantileNs(0.999));

    // Observability tax: replay seconds with exactly one plane detached,
    // against the all-attached base, interleaved round by round.
    const char *names[] = {"base",     "route_stream", "spans", "registry",
                           "hedge",    "chaos",        "audit"};
    std::map<std::string, std::vector<double>> replay_s;
    for (int round = 0; round < 5; ++round) {
        for (const char *name : names) {
            Planes p;
            std::string n = name;
            p.routeStream = n != "route_stream";
            p.spans = n != "spans";
            p.registry = n != "registry";
            p.hedge = n != "hedge";
            p.chaos = n != "chaos";
            p.audit = n != "audit";
            StreamFleet f = setupStreamFleet(opts.seed, p, nullptr);
            Json sample = Json::object();
            streamPass(f, traffic, nullptr, nullptr, true, false, &rep,
                       &sample);
            replay_s[n].push_back(sample.find("sim_s")->asDouble());
        }
    }
    double base = median(replay_s["base"]);
    rep.layers.set("tax.base_replay_s", base);
    for (const char *name : names) {
        if (std::string(name) == "base")
            continue;
        rep.layers.set(std::string("tax.") + name,
                       (base - median(replay_s[name])) / base);
    }
    return rep;
}

// ------------------------------------------------------------------
// fleet_replay
// ------------------------------------------------------------------

namespace {

/** Virtual seconds of traffic: ~250k requests at 5000 rps. */
constexpr double kReplayDurationS = 50.0;
constexpr unsigned kTenants = 12;

struct ReplayFleet
{
    std::unique_ptr<Cluster> cluster;
    std::unique_ptr<serve::Engine> engine;
    std::vector<ClusterRequest> trace;
    std::vector<double> arrivals;
};

ReplayFleet
setupReplayFleet(uint64_t seed, Tracer *t)
{
    Scope s(t, "setup");
    ReplayFleet f;
    f.cluster = std::make_unique<Cluster>(
        fleetShape(RoutePolicy::LeastLoaded, 128));
    TrafficOptions tr;
    tr.baseRps = 5000;
    tr.durationS = kReplayDurationS;
    tr.seed = deriveSeed(seed, 1);
    tr.diurnalAmplitude = 0.2;
    tr.diurnalPeriodS = kReplayDurationS;
    // Tenant k: service 0.4..1.5 ms, 20..53 tiles, popularity ~ 1/(k+1).
    // Together ~440 tiles against a 128-tile cache per shard.
    for (unsigned k = 0; k < kTenants; ++k) {
        f.cluster->addTimedModel("tenant-" + std::to_string(k),
                                 0.4 + 0.1 * k, 20 + 3 * k);
        tr.mix.push_back(ModelMix{k, 1.0 / (k + 1), 1 + k % 3,
                                  k % 4 == 0 ? 20.0 : 0.0});
    }
    {
        Scope g(t, "generateTraffic");
        f.trace = generateTraffic(tr);
    }
    f.arrivals.reserve(f.trace.size());
    for (const ClusterRequest &r : f.trace)
        f.arrivals.push_back(r.arrivalS);
    serve::EngineOptions eo;
    eo.replicas = 4;
    eo.queueDepth = 128;
    eo.serviceMsOverride = 0.8;
    eo.defaultDeadlineMs = 50.0;
    f.engine = std::make_unique<serve::Engine>(eo);
    return f;
}

std::map<std::string, std::string>
replayPass(ReplayFleet &f, Tracer *t, bool check, Report *rep,
           Json *sample)
{
    Cluster &c = *f.cluster;
    std::map<std::string, std::string> dig;
    Scope pass(t, "pass");

    uint64_t t0 = nowNs();
    ClusterStats stats;
    {
        Scope s(t, "Cluster::replay");
        stats = c.replay(f.trace);
    }
    double replay_s = secondsSince(t0);
    double rss_replay = peakRssKb() / 1024.0;

    uint64_t t1 = nowNs();
    Json route, slo, fleet_slo;
    std::vector<Json> flights;
    std::string route_s, slo_s, fleet_slo_s, metrics_text;
    Digest flight_d;
    {
        Scope s(t, "exports");
        {
            Scope e(t, "routeJson");
            route = c.routeJson();
            route_s = route.dump();
            e.setBytes(route_s.size());
        }
        for (unsigned i = 0; i < c.engineCount(); ++i) {
            Scope e(t, "engineFlightJson");
            flights.push_back(c.engineFlightJson(i));
            std::string d = flights.back().dump();
            flight_d.add(d);
            e.setBytes(d.size());
        }
        {
            Scope e(t, "sloJson");
            slo = c.sloJson();
            slo_s = slo.dump();
            fleet_slo = c.fleetSloJson();
            fleet_slo_s = fleet_slo.dump();
            e.setBytes(slo_s.size() + fleet_slo_s.size());
        }
        {
            Scope e(t, "fleetMetricsText");
            metrics_text = c.fleetMetricsText();
            e.setBytes(metrics_text.size());
        }
    }
    double export_s = secondsSince(t1);
    double rss_export = peakRssKb() / 1024.0;

    uint64_t t2 = nowNs();
    ServeStats es;
    {
        Scope s(t, "Engine::replay");
        es = f.engine->replay(f.arrivals, 1);
    }
    double engine_s = secondsSince(t2);

    sample->set("sim_s", replay_s + engine_s);
    sample->set("export_s", export_s);
    sample->set("pass_s", replay_s + export_s + engine_s);
    sample->set("requests", stats.submitted);

    dig["cluster_stats"] = digestOf(stats.toJson().dump());
    dig["route_json"] = digestOf(route_s);
    dig["flight_json"] = flight_d.hex();
    dig["slo_json"] = digestOf(slo_s);
    dig["fleet_slo_json"] = digestOf(fleet_slo_s);
    dig["fleet_metrics"] = digestOf(metrics_text);
    dig["engine_stats"] = digestOf(es.toJson().dump());

    if (check) {
        Status st = validateRouteJson(route);
        rep->check(st.ok(), "bw.route/1: " + st.toString());
        for (const Json &fl : flights) {
            st = obs::validateFlightJson(fl);
            rep->check(st.ok(), "bw.flight/1: " + st.toString());
        }
        st = serve::validateSloJson(slo);
        rep->check(st.ok(), "bw.slo/1 (cluster): " + st.toString());
        st = serve::validateSloJson(fleet_slo);
        rep->check(st.ok(), "bw.slo/1 (fleet): " + st.toString());
        rep->check(stats.submitted == f.trace.size(),
                   "cluster replay dropped requests");
        rep->check(es.requests > 0, "engine replay completed nothing");

        uint64_t reloaded = 0;
        for (const EngineReport &e : stats.engines)
            reloaded += e.reloadedTiles;
        Json &l = rep->layers;
        l.set("cache.hit_ratio", cacheHitRatio(stats));
        l.set("cache.reloaded_tiles", reloaded);
        l.set("rss.after_replay_mb", rss_replay);
        l.set("rss.after_export_mb", rss_export);
    }
    return dig;
}

} // namespace

Report
runFleetReplay(const RunOptions &opts, Tracer *tracer)
{
    Report rep;
    {
        uint64_t t0 = nowNs();
        ReplayFleet f = setupReplayFleet(opts.seed, nullptr);
        rep.setupS.push_back(secondsSince(t0));
        Json sample = Json::object();
        rep.digestPass(replayPass(f, nullptr, true, &rep, &sample));
    }
    resetPeakRss();
    uint64_t start = nowNs();
    for (size_t i = 0; rep.passes.size() < kRssPasses ||
                       secondsSince(start) < opts.seconds;
         ++i) {
        Tracer *t = opts.trace && i % 2 ? tracer : nullptr;
        uint64_t t0 = nowNs();
        ReplayFleet f = setupReplayFleet(opts.seed, t);
        rep.setupS.push_back(secondsSince(t0));
        Json sample = Json::object();
        sample.set("traced", t != nullptr);
        rep.digestPass(replayPass(f, t, false, &rep, &sample));
        rep.addPass(std::move(sample));
    }
    return rep;
}

} // namespace perfbench
