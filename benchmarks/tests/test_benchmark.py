"""Tests of the lab benchmark itself: reduced workloads, tracer arithmetic, rejected outputs.

    python3 -m pytest benchmarks/tests -q
"""

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import run as bench_run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def _round(workload, root, tracer=None):
    cells = wl.prepare(workload, 3, root, reduced=True)
    if tracer is not None:
        tracer.install()
    try:
        rnd = wl.run_round(workload, cells, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return cells, rnd


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_reduced_workload_passes_every_check(workload, tmp_path):
    cells, rnd = _round(workload, tmp_path)
    assert rnd.errors == [] and rnd.failed == 0
    assert rnd.attempted == len(cells) * (2 + len(wl.ANALYSIS[workload]))
    gates, failures = checks.check_round(workload, cells, rnd.outputs, wl.ENERGY_TOL[workload])
    assert failures == []
    assert 0 < gates["mass_drift"] <= checks.MASS_DRIFT_TOL
    assert 0 < gates["energy_drift"] <= wl.ENERGY_TOL[workload]
    assert 0 < gates["duhamel_residual"] <= checks.DUHAMEL_TOL
    assert all(rnd.stages[s] > 0 for s in ("simulate", "diagnose", "analysis"))
    assert rnd.total_s >= sum(rnd.stages.values())
    assert rnd.output_bytes > 0


def test_self_time_of_nested_spans():
    t = tr.Tracer()
    a, b, c, d = (t.name_id(x) for x in ("root", "a", "b", "c"))
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    t.spans = [[a, 0.0, 10.0, -1], [b, 1.0, 4.0, 0], [c, 2.0, 3.0, 1], [d, 5.0, 9.0, 0]]
    np.testing.assert_allclose(tr.self_times(np.array(t.spans)), [3.0, 2.0, 1.0, 4.0])
    agg = tr.aggregate(t, 0, 4)
    assert agg == {"root": (1, 3.0), "a": (1, 2.0), "b": (1, 1.0), "c": (1, 4.0)}
    assert sum(s for _, s in agg.values()) == pytest.approx(10.0)
    assert tr.count_under(t, 0, 4, ["b"], "a") == 1
    assert tr.count_under(t, 0, 4, ["c"], "a") == 0
    # a later block has its parent indices rebased
    t.spans.append([a, 20.0, 21.0, -1])
    t.spans.append([b, 20.25, 20.5, 4])
    assert tr.aggregate(t, 4, 6) == {"root": (1, 0.75), "a": (1, 0.25)}


def test_tracer_wraps_copies_and_restores(tmp_path):
    evolve_mod = importlib.import_module("snls.evolve")
    radial_mod = importlib.import_module("snls.radial")
    original = radial_mod.to_spectral
    t = tr.Tracer()
    cells, rnd = _round("sweep", tmp_path, t)
    assert radial_mod.to_spectral is original and evolve_mod.to_spectral is original
    agg = tr.aggregate(t, 0, len(t.spans))
    assert agg["evolve.strang_step"][0] > 0
    assert agg["checkpoints.frame_append"][0] == agg["checkpoints.write_field"][0] == 2 * 21
    # to_spectral is bound into snls.evolve by `from .radial import ...`; its calls under free_evolve count
    assert tr.count_under(t, 0, len(t.spans), ["radial.to_spectral"], "evolve.free_evolve") > 0
    root = t.spans[0]
    assert t.names[root[0]] == "bench.round"
    assert sum(s for _, s in agg.values()) == pytest.approx(root[2] - root[1], rel=1e-9)
    assert t.counts["bytes_written"] > 0 and t.counts["bytes_read"] > 0
    layers = bench_run.layer_metrics(t, 0, len(t.spans), rnd.total_s)
    assert set(layers) == set(bench_run.per_layer_units()) - {"trace.overhead_s"}
    assert abs(layers["trace.coverage"] - 1.0) <= 0.01  # the tolerance the README states
    assert layers["intervals.intervals"] == 2 and layers["intervals.empty_share"] == 0.0


def _perturb_frame(run_dir, n):
    frames = run_dir / "frames.snls"
    raw = bytearray(frames.read_bytes())
    off = checks.HEADER.size + 5 * (8 + 16 * n) + 8 + 16 * 10  # frame 5, sample 10, real part
    val = np.frombuffer(raw, dtype="<f8", count=1, offset=off)[0]
    raw[off:off + 8] = np.float64(val * 1.001 + 1e-3).tobytes()
    frames.write_bytes(bytes(raw))


def _perturb_csv(run_dir, n):
    path = run_dir / "densities.csv"
    lines = path.read_text().splitlines()
    cols = lines[3].split(",")
    cols[6] = repr(float(cols[6]) * (1 + 1e-6))  # s_density of frame 2
    lines[3] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n")


def _perturb_report(run_dir, n):
    path = run_dir / "diagnose.json"
    report = json.loads(path.read_text())
    report["reintegration"]["total"] *= 1 + 1e-6
    path.write_text(json.dumps(report))


@pytest.mark.parametrize("perturb, message", [
    (_perturb_frame, "mass drift"),
    (_perturb_csv, "densities.csv s_density differs"),
    (_perturb_report, "reintegration total"),
])
def test_corrupted_output_is_rejected(perturb, message, tmp_path):
    cells, rnd = _round("scatter", tmp_path)
    perturb(cells[0].run_dir, cells[0].cfg["n"])
    _, failures = checks.check_round("scatter", cells, rnd.outputs, wl.ENERGY_TOL["scatter"])
    assert len(failures) == 1 and message in failures[0]


def test_truncated_frame_log_is_rejected(tmp_path):
    cells, rnd = _round("sweep", tmp_path)
    frames = cells[0].run_dir / "frames.snls"
    frames.write_bytes(frames.read_bytes()[:-5])
    _, failures = checks.check_round("sweep", cells, rnd.outputs, wl.ENERGY_TOL["sweep"])
    assert len(failures) == 1 and "is not header" in failures[0]
