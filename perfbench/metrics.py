"""Turn the raw report of one perfbench run into the benchmark's metrics.

Pure functions only (no builds, no processes), so the tests can drive
them on synthetic input. run.py does the building and running.
"""

import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fleet_stream", "fleet_replay", "npu_models")
TABLE_V_ROWS = (
    "gru_h2816_t750", "gru_h2560_t375", "gru_h2048_t375", "gru_h1536_t375",
    "gru_h1024_t1500", "gru_h512_t1", "lstm_h2048_t25", "lstm_h1536_t50",
    "lstm_h1024_t25", "lstm_h512_t25", "lstm_h256_t150",
)

# End-to-end metrics: every workload reports each one (untraced runs).
END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("sim_s", "s"),
    ("peak_rss_mb", "MiB"),
)

# Per-layer metrics (traced runs): name -> (unit, workloads that run the
# layer). A workload that does not run a layer reports 0 for it.
FS, FR, NPU = "fleet_stream", "fleet_replay", "npu_models"
PER_LAYER = {
    "replay_rps": ("requests/s", (FS, FR)),
    "export_s": ("s", (FS, FR)),
    "sim_minstr_per_s": ("Minstr/s", (NPU,)),
    "trace.overhead_ratio": ("ratio", (FS, FR, NPU)),
    "traffic.next_ns": ("ns", (FS,)),
    "obs.route_row_ns": ("ns", (FS,)),
    "obs.route_bytes_per_row": ("bytes", (FS,)),
    "cluster.stream_self_ns": ("ns", (FS,)),
    "cluster.req_host_p50_ns": ("ns", (FS,)),
    "cluster.req_host_p999_ns": ("ns", (FS,)),
    "obs.spanstream_ms": ("ms", (FS,)),
    "obs.spanstream_mb_per_s": ("MB/s", (FS,)),
    "obs.flightstream_ms": ("ms", (FS,)),
    "obs.flightstream_mb_per_s": ("MB/s", (FS,)),
    "metrics.fleet_text_ms": ("ms", (FS, FR)),
    "metrics.fleet_text_mb_per_s": ("MB/s", (FS, FR)),
    "tax.base_replay_s": ("s", (FS,)),
    "tax.route_stream": ("ratio", (FS,)),
    "tax.spans": ("ratio", (FS,)),
    "tax.registry": ("ratio", (FS,)),
    "tax.hedge": ("ratio", (FS,)),
    "tax.chaos": ("ratio", (FS,)),
    "tax.audit": ("ratio", (FS,)),
    "cluster.hedge_win_ratio": ("ratio", (FS,)),
    "cluster.audit_checks": ("count", (FS,)),
    "cache.hit_ratio": ("ratio", (FS, FR)),
    "obs.spans_dropped": ("count", (FS,)),
    "traffic.generate_ms": ("ms", (FR,)),
    "cluster.replay_ns": ("ns", (FR,)),
    "serve.engine_replay_ns": ("ns", (FR,)),
    "obs.route_json_ms": ("ms", (FR,)),
    "obs.route_json_mb_per_s": ("MB/s", (FR,)),
    "obs.flight_json_ms": ("ms", (FR,)),
    "obs.flight_json_mb_per_s": ("MB/s", (FR,)),
    "serve.slo_json_ms": ("ms", (FR,)),
    "cache.reloaded_tiles": ("count", (FR,)),
    "rss.after_replay_mb": ("MiB", (FR,)),
    "rss.after_export_mb": ("MiB", (FR,)),
    "graph.weights_gen_ms": ("ms", (NPU,)),
    "compiler.compile_ms": ("ms", (NPU,)),
    "compiler.conv_plan_ms": ("ms", (NPU,)),
    "bfp.install_ms": ("ms", (NPU,)),
    "bfp.install_melem_per_s": ("Melem/s", (NPU,)),
    "func.run_ms": ("ms", (NPU,)),
    "func.gmac_per_s": ("GMAC/s", (NPU,)),
    "func.bfp152_rel_rmse": ("ratio", (NPU,)),
    "timing.cycle_ms": ("ms", (NPU,)),
    "timing.fast_ms": ("ms", (NPU,)),
    "timing.cached_hit_us": ("us", (NPU,)),
    "timing.fast_speedup": ("ratio", (NPU,)),
}
for _row in TABLE_V_ROWS:
    PER_LAYER["paper.abs_err_pct." + _row] = ("%", (NPU,))


def median(xs):
    return statistics.median(xs) if xs else 0.0


# --------------------------------------------------------------------
# Spans
# --------------------------------------------------------------------

def _covered(intervals):
    """Total length of the union of [start, end) intervals."""
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(doc):
    """Self time of every span, ns: its duration minus the part of it
    its child spans cover, minus the time its tallied per-call children
    took. Returns {span id: ns}."""
    children = {}
    for s in doc["spans"]:
        children.setdefault(s["parent"], []).append(s)
    tallied = {}
    for t in doc.get("tallies", []):
        tallied[t["parent"]] = tallied.get(t["parent"], 0) + t["total_ns"]
    out = {}
    for s in doc["spans"]:
        dur = s["end_ns"] - s["start_ns"]
        kids = [(max(c["start_ns"], s["start_ns"]), min(c["end_ns"], s["end_ns"]))
                for c in children.get(s["id"], [])]
        kids = [(a, b) for a, b in kids if b > a]
        out[s["id"]] = max(0, dur - _covered(kids) - tallied.get(s["id"], 0))
    return out


def _subtree(doc, root_id):
    ids, frontier = {root_id}, [root_id]
    by_parent = {}
    for s in doc["spans"]:
        by_parent.setdefault(s["parent"], []).append(s["id"])
    while frontier:
        nxt = []
        for i in frontier:
            for c in by_parent.get(i, []):
                ids.add(c)
                nxt.append(c)
        frontier = nxt
    return ids


def per_root(doc, root_name):
    """For every root span named @root_name: {span name: {"ns": total
    duration, "bytes": total bytes, "self_ns": total self time}} over
    its subtree, plus {"tallies": {name: tally}}."""
    selfs = self_times(doc)
    spans = {s["id"]: s for s in doc["spans"]}
    out = []
    for s in doc["spans"]:
        if s["parent"] != -1 or s["name"] != root_name:
            continue
        ids = _subtree(doc, s["id"])
        agg = {}
        for i in ids:
            sp = spans[i]
            a = agg.setdefault(sp["name"], {"ns": 0, "bytes": 0, "self_ns": 0})
            a["ns"] += sp["end_ns"] - sp["start_ns"]
            a["bytes"] += sp.get("bytes", 0)
            a["self_ns"] += selfs[i]
        agg["tallies"] = {t["name"]: t for t in doc.get("tallies", [])
                          if t["parent"] in ids}
        out.append(agg)
    return out


def _span_ms(roots, name):
    return median([r[name]["ns"] / 1e6 for r in roots if name in r])


def _span_mb_per_s(roots, name):
    return median([r[name]["bytes"] / (r[name]["ns"] * 1e-9) / 1e6
                   for r in roots if name in r and r[name]["ns"]])


# --------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------

def _untraced(raw):
    return [p for p in raw["passes"] if not p.get("traced")]


def _pass_median(raw, key, traced=False):
    return median([p[key] for p in raw["passes"]
                   if bool(p.get("traced")) == traced and key in p])


def end_to_end(raw):
    return {
        "setup_s": median(raw["setup_s"]),
        "pass_s": _pass_median(raw, "pass_s"),
        "sim_s": _pass_median(raw, "sim_s"),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def per_layer(raw, spans_doc):
    """Every per-layer metric for one traced run (0 where the workload
    does not run the layer)."""
    w = raw["workload"]
    layers = raw.get("layers", {})
    passes = per_root(spans_doc, "pass")
    setups = per_root(spans_doc, "setup")
    v = {}

    traced = _pass_median(raw, "pass_s", traced=True)
    plain = _pass_median(raw, "pass_s")
    v["trace.overhead_ratio"] = traced / plain - 1 if plain else 0.0

    if w in (FS, FR):
        v["replay_rps"] = median([p["requests"] / p["sim_s"]
                                  for p in _untraced(raw)])
        v["export_s"] = _pass_median(raw, "export_s")
        v["metrics.fleet_text_ms"] = _span_ms(passes, "fleetMetricsText")
        v["metrics.fleet_text_mb_per_s"] = _span_mb_per_s(
            passes, "fleetMetricsText")
        v["cache.hit_ratio"] = layers.get("cache.hit_ratio", 0.0)

    if w == FS:
        def per_call(name):
            return median([r["tallies"][name]["total_ns"] /
                           r["tallies"][name]["count"]
                           for r in passes
                           if r["tallies"].get(name, {}).get("count")])
        v["traffic.next_ns"] = per_call("TrafficStream::next")
        v["obs.route_row_ns"] = per_call("RouteStreamWriter::decision")
        v["cluster.stream_self_ns"] = median([
            r["Cluster::replayStream"]["self_ns"] /
            r["tallies"]["TrafficStream::next"]["count"]
            for r in passes if "Cluster::replayStream" in r])
        v["obs.spanstream_ms"] = _span_ms(passes, "streamSpanTreesNdjson")
        v["obs.spanstream_mb_per_s"] = _span_mb_per_s(
            passes, "streamSpanTreesNdjson")
        v["obs.flightstream_ms"] = _span_ms(passes, "streamFlightNdjson")
        v["obs.flightstream_mb_per_s"] = _span_mb_per_s(
            passes, "streamFlightNdjson")
        for k in ("obs.route_bytes_per_row", "cluster.req_host_p50_ns",
                  "cluster.req_host_p999_ns", "tax.base_replay_s",
                  "tax.route_stream", "tax.spans", "tax.registry",
                  "tax.hedge", "tax.chaos", "tax.audit",
                  "cluster.hedge_win_ratio", "cluster.audit_checks",
                  "obs.spans_dropped"):
            v[k] = layers.get(k, 0.0)

    if w == FR:
        requests = median([p["requests"] for p in raw["passes"]])
        v["traffic.generate_ms"] = _span_ms(setups, "generateTraffic")
        v["cluster.replay_ns"] = _span_ms(passes, "Cluster::replay") * 1e6 / requests
        v["serve.engine_replay_ns"] = (_span_ms(passes, "Engine::replay") *
                                       1e6 / requests)
        v["obs.route_json_ms"] = _span_ms(passes, "routeJson")
        v["obs.route_json_mb_per_s"] = _span_mb_per_s(passes, "routeJson")
        v["obs.flight_json_ms"] = _span_ms(passes, "engineFlightJson")
        v["obs.flight_json_mb_per_s"] = _span_mb_per_s(
            passes, "engineFlightJson")
        v["serve.slo_json_ms"] = _span_ms(passes, "sloJson")
        for k in ("cache.reloaded_tiles", "rss.after_replay_mb",
                  "rss.after_export_mb"):
            v[k] = layers.get(k, 0.0)

    if w == NPU:
        plain_passes = _untraced(raw)
        v["sim_minstr_per_s"] = median([p["cycle_instr"] / p["cycle_s"] / 1e6
                                        for p in plain_passes])
        v["graph.weights_gen_ms"] = _span_ms(setups, "weights")
        v["compiler.compile_ms"] = _span_ms(passes, "compileGir")
        v["compiler.conv_plan_ms"] = _span_ms(passes, "planConvNet")
        v["bfp.install_ms"] = _span_ms(passes, "CompiledModel::install")
        elems = plain_passes[0]["install_elems"]
        macs = plain_passes[0]["func_macs"]
        v["bfp.install_melem_per_s"] = (elems / 1e6 /
                                        (v["bfp.install_ms"] / 1e3))
        v["func.run_ms"] = _span_ms(passes, "runSequence")
        v["func.gmac_per_s"] = macs / 1e9 / (v["func.run_ms"] / 1e3)
        v["func.bfp152_rel_rmse"] = layers.get("func.bfp152_rel_rmse", 0.0)
        v["timing.cycle_ms"] = _span_ms(passes, "CycleAccurateModel::run")
        v["timing.fast_ms"] = _span_ms(passes, "EventDrivenModel::run")
        hits = [r["MemoTimingModel::runShared(hit)"]["ns"] / 1e3
                for r in passes if "MemoTimingModel::runShared(hit)" in r]
        n_models = len(TABLE_V_ROWS) + 1
        v["timing.cached_hit_us"] = median(hits) / n_models
        v["timing.fast_speedup"] = v["timing.cycle_ms"] / v["timing.fast_ms"]
        for row, err in layers.get("paper.tablev_err_pct", {}).items():
            v["paper.abs_err_pct." + row] = abs(err)

    return {name: v.get(name, 0.0) for name in PER_LAYER}


# --------------------------------------------------------------------
# Correctness
# --------------------------------------------------------------------

def load_pinned(path=os.path.join(HERE, "pinned.json")):
    with open(path) as f:
        return json.load(f)


def digest_mismatches(workload, seed, digests, pinned):
    """Names of the pinned digests this run's digests contradict, and
    how many were compared. Unpinned seeds compare nothing."""
    want = pinned.get("digests", {}).get(workload, {}).get(str(seed))
    if want is None:
        return [], 0
    bad = sorted(k for k in set(want) | set(digests)
                 if want.get(k) != digests.get(k))
    return bad, len(want)


def result(raw, metrics, mismatches, compared):
    """The final result object. A digest mismatch fails every
    operation of the run."""
    attempted = raw["attempted"] + compared
    failed = raw["failed"]
    if mismatches:
        failed = attempted
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }


def unit_of(name):
    for n, unit in END_TO_END:
        if n == name:
            return unit
    return PER_LAYER[name][0]
