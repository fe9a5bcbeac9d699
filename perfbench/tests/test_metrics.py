"""Tests of the benchmark's own logic (no build needed).

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import random
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import metrics  # noqa: E402

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                              "BENCHMARK.json")


def fake_raw(workload, traced):
    """A raw report shaped like the perfbench program's output for @workload."""
    passes = []
    for i in range(4):
        p = {"traced": traced and i % 2 == 1, "pass_s": 1.0 + 0.01 * i,
             "sim_s": 0.5 + 0.01 * i, "export_s": 0.1, "requests": 1000,
             "install_elems": 10**6, "func_macs": 10**7,
             "cycle_instr": 10**5, "cycle_s": 0.01}
        passes.append(p)
    layers = {name: 1.0 for name in metrics.PER_LAYER}
    if workload == "npu_models":
        layers["paper.tablev_err_pct"] = {r: 1.5 for r in
                                          metrics.TABLE_V_ROWS}
    return {"workload": workload, "seed": 1, "setup_s": [0.2, 0.3, 0.25],
            "passes": passes, "digests": {"a": "00ff"}, "layers": layers,
            "attempted": 10, "failed": 0, "failures": [],
            "peak_rss_kb": 2048}


def fake_spans(workload):
    """One traced pass and one traced set-up with every span a workload
    records, each child nested inside its parent."""
    names = {
        "fleet_stream": ["Cluster::replayStream", "exports",
                         "streamSpanTreesNdjson", "streamFlightNdjson",
                         "fleetMetricsText", "incidentsJson"],
        "fleet_replay": ["Cluster::replay", "exports", "routeJson",
                         "engineFlightJson", "sloJson", "fleetMetricsText",
                         "Engine::replay"],
        "npu_models": ["model", "compileGir", "CompiledModel::install",
                       "runSequence", "CycleAccurateModel::run",
                       "EventDrivenModel::run",
                       "MemoTimingModel::runShared(hit)", "planConvNet"],
    }[workload]
    spans = [{"id": 0, "name": "setup", "parent": -1, "start_ns": 0,
              "end_ns": 100},
             {"id": 1, "name": "generateTraffic" if workload ==
              "fleet_replay" else "weights", "parent": 0,
              "start_ns": 10, "end_ns": 90},
             {"id": 2, "name": "pass", "parent": -1, "start_ns": 200,
              "end_ns": 200 + 100 * (len(names) + 1)}]
    for k, n in enumerate(names):
        s = 210 + 100 * k
        spans.append({"id": 3 + k, "name": n, "parent": 2, "start_ns": s,
                      "end_ns": s + 90, "bytes": 1000})
    tallies = [{"name": "TrafficStream::next", "parent": 3, "count": 10,
                "total_ns": 20, "p50_ns": 2, "p999_ns": 3},
               {"name": "RouteStreamWriter::decision", "parent": 3,
                "count": 10, "total_ns": 30, "p50_ns": 3, "p999_ns": 4}]
    return {"spans": spans, "tallies": tallies}


class MetricNames(unittest.TestCase):
    def setUp(self):
        with open(BENCHMARK_JSON) as f:
            self.bench = json.load(f)

    def test_declared_names_are_well_formed(self):
        names = [m["name"] for m in self.bench["end_to_end"] +
                 self.bench["per_layer"]] + \
                [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

    def test_declared_metrics_match_the_code(self):
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.bench["end_to_end"]],
            list(metrics.END_TO_END))
        self.assertEqual(
            {m["name"]: m["unit"] for m in self.bench["per_layer"]},
            {n: u for n, (u, _) in metrics.PER_LAYER.items()})
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(metrics.WORKLOADS))

    def test_every_metric_printed_with_unit_for_every_workload(self):
        for w in metrics.WORKLOADS:
            for traced in (False, True):
                raw = fake_raw(w, traced)
                values = (metrics.per_layer(raw, fake_spans(w)) if traced
                          else metrics.end_to_end(raw))
                res = metrics.result(raw, values, [], 0)
                declared = (self.bench["per_layer"] if traced
                            else self.bench["end_to_end"])
                self.assertEqual(set(res["metrics"]),
                                 {m["name"] for m in declared}, w)
                for m in declared:
                    got = res["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"])
                    self.assertIsInstance(got["value"], (int, float))

    def test_layers_a_workload_runs_are_nonzero(self):
        for w in metrics.WORKLOADS:
            values = metrics.per_layer(fake_raw(w, True), fake_spans(w))
            for name, (_, owners) in metrics.PER_LAYER.items():
                if w in owners:
                    self.assertNotEqual(values[name], 0, (w, name))


class Digests(unittest.TestCase):
    PINNED = {"digests": {"fleet_stream": {"3": {"a": "00ff", "b": "1234"}}}}

    def test_matching_digests_pass(self):
        bad, n = metrics.digest_mismatches(
            "fleet_stream", 3, {"a": "00ff", "b": "1234"}, self.PINNED)
        self.assertEqual((bad, n), ([], 2))

    def test_perturbed_digest_is_rejected(self):
        bad, n = metrics.digest_mismatches(
            "fleet_stream", 3, {"a": "00fe", "b": "1234"}, self.PINNED)
        self.assertEqual(bad, ["a"])
        raw = fake_raw("fleet_stream", False)
        res = metrics.result(raw, metrics.end_to_end(raw), bad, n)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], res["attempted"])

    def test_missing_digest_is_rejected(self):
        bad, _ = metrics.digest_mismatches(
            "fleet_stream", 3, {"a": "00ff"}, self.PINNED)
        self.assertEqual(bad, ["b"])

    def test_unpinned_seed_compares_nothing(self):
        self.assertEqual(metrics.digest_mismatches(
            "fleet_stream", 4, {"a": "x"}, self.PINNED), ([], 0))

    def test_pinned_table_covers_dev_and_heldout_seeds(self):
        pinned = metrics.load_pinned()
        for w in metrics.WORKLOADS:
            seeds = pinned["digests"][w]
            self.assertIn(str(pinned["dev_seed"]), seeds)
            self.assertIn(str(pinned["heldout_seed"]), seeds)


class SelfTimes(unittest.TestCase):
    def random_tree(self, rng, depth=4):
        """Random spans as a single-threaded stack records them: children
        are disjoint sub-intervals of their parent; some spans also get a
        per-call tally that fits in their uncovered time."""
        spans, tallies = [], []

        def grow(parent, lo, hi, d):
            sid = len(spans)
            spans.append({"id": sid, "name": f"s{sid}", "parent": parent,
                          "start_ns": lo, "end_ns": hi})
            covered, cur = 0, lo
            while d and hi - cur > 4 and rng.random() < 0.7:
                a = rng.randrange(cur, hi - 2)
                b = rng.randrange(a + 1, hi)
                grow(sid, a, b, d - 1)
                covered += b - a
                cur = b
            free = (hi - lo) - covered
            if free and rng.random() < 0.5:
                tallies.append({"name": "t", "parent": sid, "count": 3,
                                "total_ns": rng.randrange(free + 1)})

        grow(-1, 0, 10**6, depth)
        return {"spans": spans, "tallies": tallies}

    def test_self_time_never_exceeds_the_span(self):
        rng = random.Random(5)
        for _ in range(50):
            doc = self.random_tree(rng)
            selfs = metrics.self_times(doc)
            for s in doc["spans"]:
                dur = s["end_ns"] - s["start_ns"]
                self.assertGreaterEqual(selfs[s["id"]], 0)
                self.assertLessEqual(selfs[s["id"]], dur)

    def test_child_self_times_never_exceed_their_parent(self):
        rng = random.Random(9)
        for _ in range(50):
            doc = self.random_tree(rng)
            selfs = metrics.self_times(doc)
            by_id = {s["id"]: s for s in doc["spans"]}
            kids = {}
            for s in doc["spans"]:
                kids.setdefault(s["parent"], []).append(s["id"])
            for pid, cids in kids.items():
                if pid == -1:
                    continue
                p = by_id[pid]
                self.assertLessEqual(sum(selfs[c] for c in cids),
                                     p["end_ns"] - p["start_ns"])

    def test_overlapping_children_are_counted_once(self):
        doc = {"spans": [
            {"id": 0, "name": "p", "parent": -1, "start_ns": 0,
             "end_ns": 100},
            {"id": 1, "name": "a", "parent": 0, "start_ns": 10,
             "end_ns": 50},
            {"id": 2, "name": "b", "parent": 0, "start_ns": 30,
             "end_ns": 70}],
            "tallies": [{"name": "t", "parent": 0, "count": 2,
                         "total_ns": 5}]}
        self.assertEqual(metrics.self_times(doc), {0: 35, 1: 40, 2: 40})

    def test_spans_written_by_a_traced_run(self):
        # Checks a real spans file when a traced run has left one.
        out = os.path.join(os.getcwd(), ".bench_build", "out")
        files = [os.path.join(out, f) for f in os.listdir(out)
                 if f.startswith("spans-")] if os.path.isdir(out) else []
        if not files:
            self.skipTest("no traced run output")
        for path in files:
            with open(path) as f:
                doc = json.load(f)
            selfs = metrics.self_times(doc)
            by_id = {s["id"]: s for s in doc["spans"]}
            for s in doc["spans"]:
                if s["parent"] == -1:
                    continue
                p = by_id[s["parent"]]
                self.assertLessEqual(selfs[s["id"]],
                                     p["end_ns"] - p["start_ns"])


if __name__ == "__main__":
    unittest.main()
