"""Tests for the benchmark itself: generator, output checks, trace accounting.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import csv
import json
import math
import time
from pathlib import Path

import pytest

import checks
import layers
import scenarios
import worker

SRC = Path(__file__).resolve().parent.parent / "src"


def test_generator_is_deterministic_per_seed():
    for name in scenarios.WORKLOADS:
        for seed in (0, 1, 12345):
            assert scenarios.generate(name, seed) == scenarios.generate(name, seed)
        assert scenarios.generate(name, 1).files != scenarios.generate(name, 2).files


def test_every_pulse_clears_the_window_edge_by_more_than_four_nodes():
    for name in scenarios.WORKLOADS:
        for seed in range(200):
            for doc in scenarios.generate(name, seed).files.values():
                if "simulate" not in doc:
                    continue
                pulse = doc["simulate"]["pulse"]
                half = scenarios.pulse_halfwidth(pulse["sigma"])
                dom, nodes = doc["domain"], doc["grid"]["nodes"]
                for c, lo, hi, n in zip(pulse["center"], dom["lower"], dom["upper"], nodes):
                    h = (hi - lo) / (n + 1)
                    # node i sits at lo + (i + 1) h; count whole nodes of clearance
                    assert (c - half - lo) / h - 1 > scenarios.EDGE_MARGIN_NODES
                    assert (hi - c - half) / h - 1 > scenarios.EDGE_MARGIN_NODES


class FakeCli:
    """Writes plausible outputs for each command, with chosen corruptions."""

    def __init__(self, flip_verdict_of=None, nan_distance=False):
        self.flip_verdict_of = flip_verdict_of
        self.nan_distance = nan_distance

    def main(self, argv):
        command, path = argv[0], Path(argv[1])
        doc = json.loads(path.read_text())
        out = Path(doc["output"]["dir"])
        out.mkdir(exist_ok=True)
        if command == "analyze":
            self._analyze(path.stem, doc, out)
        elif command == "distance":
            self._distance(doc, out)
        else:
            self._simulate(doc, out)
        return 0

    def _analyze(self, key, doc, out):
        params = doc["system"]["params"]
        q = float(params["L"].split("-")[1].rstrip(")")) if "L" in params else 0.0
        grade = "certified-divergent" if q >= 1.0 else "likely-convergent"
        if doc["system"]["name"] != "telegraph":
            grade = "inconclusive"
        if key == self.flip_verdict_of:
            grade = ("likely-convergent" if grade == "certified-divergent"
                     else "certified-divergent")
        route = {"classification": "inconclusive", "criterion": "boundary-distance",
                 "integrals": [1.0], "parameters": {"route": "distance to the domain boundary"}}
        (out / "verdict.json").write_text(json.dumps(
            {"classification": grade, "routes": [route]}))
        (out / "summary.txt").write_text("a sufficient condition, not a necessary one\n")

    def _distance(self, doc, out):
        dom, nodes = doc["domain"], doc["grid"]["nodes"]
        axes = [[lo + (i + 1) * (hi - lo) / (n + 1) for i in range(n)]
                for lo, hi, n in zip(dom["lower"], dom["upper"], nodes)]
        cx, cy = doc["simulate"]["pulse"]["center"]
        rows = [[x, y, math.hypot(x - cx, y - cy)] for x in axes[0] for y in axes[1]]
        min(rows, key=lambda r: r[2])[2] = 0.0  # the source node
        if self.nan_distance:
            rows[0][2] = math.nan
        with open(out / "distance.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x1", "x2", "value"])
            w.writerows(rows)

    def _simulate(self, doc, out):
        d = len(doc["domain"]["lower"])
        T = doc["simulate"]["T"]
        header = ["t", "energy"] + [f"supp_{s}_{j + 1}" for j in range(d) for s in ("lo", "hi")]
        with open(out / "evolution.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header + ["boundary_margin", "max_abs"])
            for t in (0.0, T):
                w.writerow([t, 1.0] + [0.3, 0.7] * d + [0.3, 1.0])


def _run_pass(tmp_path, monkeypatch, workload, fake):
    monkeypatch.chdir(tmp_path)
    wl = scenarios.generate(workload, 1)
    for key, doc in wl.files.items():
        Path(f"{key}.json").write_text(json.dumps(doc))
    return worker.run_pass(fake, wl, refs={})


@pytest.mark.parametrize("workload", ["telegraph-1d", "maxwell-2d"])
def test_well_formed_outputs_pass(tmp_path, monkeypatch, workload):
    _, failures = _run_pass(tmp_path, monkeypatch, workload, FakeCli())
    assert failures == []


def test_flipped_verdict_counts_as_failed(tmp_path, monkeypatch):
    _, failures = _run_pass(tmp_path, monkeypatch, "telegraph-1d",
                            FakeCli(flip_verdict_of="sweep5"))
    assert len(failures) == 1 and "analytic rule" in failures[0]


def test_nan_distance_counts_as_failed(tmp_path, monkeypatch):
    _, failures = _run_pass(tmp_path, monkeypatch, "maxwell-2d",
                            FakeCli(nan_distance=True))
    assert len(failures) == 2  # geodesic and arrival
    assert all("non-finite distance" in f for f in failures)


def test_reference_mismatch_counts_as_failed():
    observed = {"classification": "inconclusive",
                "routes": {"r": {"classification": "inconclusive", "last_integral": 1.0}}}
    assert checks.against_reference(observed, observed) == []
    shifted = {"classification": "inconclusive",
               "routes": {"r": {"classification": "inconclusive", "last_integral": 1.001}}}
    assert checks.against_reference(observed, shifted)


def test_self_times_and_remainder_add_up_to_wall():
    tracer = layers.Tracer()

    def leaf():
        time.sleep(0.01)

    inner = layers._wrap(leaf, "inner", tracer)

    def outer():
        inner()
        time.sleep(0.005)
        inner()

    traced_outer = layers._wrap(outer, "outer", tracer)

    def command():
        traced_outer()
        time.sleep(0.005)

    tracer.command_span("analyze", command)
    assert tracer.balanced
    assert tracer.calls["inner"] == 2
    total = sum(tracer.self_s.values())
    assert math.isclose(total, tracer.wall_s["analyze"], rel_tol=1e-9)
    assert tracer.layer_self("inner") >= 0.02
    assert 0.005 <= tracer.layer_self("cmd.analyze") < 0.02


def test_trace_patches_every_lookup_and_reports_gone_names(monkeypatch):
    monkeypatch.syspath_prepend(str(SRC))
    import wavemetric.cli as cli
    import wavemetric.geometry as geometry

    original = geometry.lattice_geodesic
    tracer = layers.Tracer()
    targets = (layers.Target("geometry.shortest_path", "geometry", "lattice_geodesic"),
               layers.Target("gone.layer", "geometry", "no_such_function"))
    uninstall, missing = layers.install(tracer, targets)
    try:
        assert cli.lattice_geodesic is geometry.lattice_geodesic is not original
        assert missing == ["gone.layer"]
        metrics = layers.layer_metrics(tracer, ["geometry.shortest_path"])
        assert "geometry.shortest_path_s" not in metrics
        assert "geometry.edges_per_s" not in metrics
    finally:
        uninstall()
    assert cli.lattice_geodesic is geometry.lattice_geodesic is original


def test_failing_hook_leaves_counters_absent_not_the_command():
    tracer = layers.Tracer()

    def renamed(tracer, args, kwargs, result):
        raise AttributeError("the hook reads a name that a refactor removed")

    find_paths = layers._wrap(lambda: 42, "geometry.shortest_path", tracer, after=renamed)
    assert tracer.command_span("distance_geodesic", find_paths) == 42
    metrics = layers.layer_metrics(tracer, missing=[])
    assert metrics["geometry.shortest_path_calls"] == (1, "count")
    assert "geometry.graph_edges" not in metrics
    assert "geometry.edges_per_s" not in metrics
