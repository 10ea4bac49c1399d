"""Lab benchmark: simulate -> diagnose -> analysis on one workload, per-stage times.

    python3 benchmarks/run.py --workload scatter --seed 1 --seconds 36 --trace 0

Runs whole rounds of the workload for about --seconds (at least one
round; another starts only if it is expected to end inside the window),
checks every round's outputs against the benchmark's own recomputation,
and prints as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the metrics
are the end-to-end ones (means over rounds); with --trace 1 rounds
alternate untraced and traced, and the metrics are the per-layer ones from
the traced rounds.  Each run also writes a record with every metric, the
physics gates and the machine to .bench_out/ at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracer as tr

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3

E2E_UNITS = {"setup_s": "s", "simulate_s": "s", "diagnose_s": "s", "analysis_s": "s",
             "total_s": "s", "output_bytes": "bytes", "peak_rss_mb": "MiB"}

# per-layer metrics that sum several traced functions
LAYER_TIMES = {
    "radial.dst": ("radial.to_spectral", "radial.from_spectral"),
    "radial.norms": ("radial.lebesgue_norm", "radial.sobolev_norm", "radial.fractional_apply"),
}
LAYER_CALLS = ["radial.dst", "radial.norms", "evolve.strang_step", "evolve.rebuild_trajectory",
               "functionals.s_density", "functionals.localized_mass", "intervals.linear_density_series",
               "checkpoints.frame_append", "checkpoints.write_field"]
LAYER_SELF = ["radial.dst", "radial.norms", "evolve.strang_step", "evolve.nonlinear_phase",
              "evolve.free_evolve", "evolve.evolve", "evolve.rebuild_trajectory",
              "functionals.s_density", "functionals.localized_mass", "functionals.space_time_norms",
              "functionals.morawetz_flux", "intervals.partition_trajectory", "intervals.classify",
              "intervals.linear_density_series", "intervals.concentration_scan",
              "bounds.bootstrap_monitor", "bounds.build_bound_report", "checkpoints.frame_append",
              "checkpoints.write_field", "checkpoints.write_manifest", "checkpoints.read_trajectory_frames",
              "config.from_dict", "config.build_initial_field", "cli.run_simulation", "cli.load_run",
              "cli.diagnose_trajectory"]
MODULE_LAYERS = ("radial", "functionals", "evolve", "intervals", "bounds", "checkpoints", "config", "cli", "bench")


def per_layer_units() -> dict:
    units = {f"{m}.calls": "count" for m in LAYER_CALLS}
    units.update({f"{m}.s": "s" for m in LAYER_SELF})
    units["radial.dst.us_per_call"] = "us"
    units.update({
        "intervals.intervals": "count",
        "intervals.empty_share": "share",
        "intervals.linear_density_series.dst_per_frame": "dst/frame",
        "bounds.bootstrap_monitor.records": "count",
        "checkpoints.bytes_written": "bytes",
        "checkpoints.bytes_read": "bytes",
    })
    units.update({f"layer.{m}.s": "s" for m in MODULE_LAYERS})
    units.update({"trace.total_s": "s", "trace.coverage": "share", "trace.overhead_s": "s"})
    return units


def layer_metrics(tracer, lo: int, hi: int, total_s: float) -> dict:
    """Per-layer values of one traced round, spans[lo:hi], whose wall time was total_s."""
    agg = tr.aggregate(tracer, lo, hi)

    def calls(*names):
        return sum(agg.get(n, (0, 0.0))[0] for n in names)

    def secs(*names):
        return sum(agg.get(n, (0, 0.0))[1] for n in names)

    out = {}
    for m in LAYER_CALLS:
        out[f"{m}.calls"] = calls(*LAYER_TIMES.get(m, (m,)))
    for m in LAYER_SELF:
        out[f"{m}.s"] = secs(*LAYER_TIMES.get(m, (m,)))
    out["radial.dst.us_per_call"] = 1e6 * out["radial.dst.s"] / max(out["radial.dst.calls"], 1)

    n_int = n_empty = 0
    for times, ivs in tracer.partitions:
        a = np.array([iv[0] for iv in ivs])
        b = np.array([iv[1] for iv in ivs])
        inside = np.searchsorted(times, b + 1e-12, "right") - np.searchsorted(times, a - 1e-12, "left")
        n_int += len(ivs)
        n_empty += int((inside == 0).sum())
    out["intervals.intervals"] = n_int
    out["intervals.empty_share"] = n_empty / n_int if n_int else 0.0
    dst = tr.count_under(tracer, lo, hi, LAYER_TIMES["radial.dst"], "intervals.linear_density_series")
    frames = tracer.counts["lds_frames"]
    out["intervals.linear_density_series.dst_per_frame"] = dst / frames if frames else 0.0
    out["bounds.bootstrap_monitor.records"] = tracer.counts["monitor_records"]
    out["checkpoints.bytes_written"] = tracer.counts["bytes_written"]
    out["checkpoints.bytes_read"] = tracer.counts["bytes_read"]

    for m in MODULE_LAYERS:
        out[f"layer.{m}.s"] = sum(s for name, (_, s) in agg.items() if name.split(".")[0] == m)
    out["trace.total_s"] = total_s
    out["trace.coverage"] = sum(out[f"layer.{m}.s"] for m in MODULE_LAYERS) / out["trace.total_s"]
    return out


def machine() -> dict:
    import scipy

    return {
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time in a fresh interpreter: import snls, load the configs, build the inputs."""
    scratch = OUT / f"probe-{os.getpid()}"
    try:
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(seed), str(scratch)],
                              capture_output=True, text=True, timeout=120, check=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return float(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("scatter", "focus", "sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "snls" / "__init__.py").is_file():
        print(f"error: no snls sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    t_import = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads as wl
    t_import = time.perf_counter() - t_import

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    tracer = tr.Tracer() if args.trace else None
    try:
        t_prep = time.perf_counter()
        cells = wl.prepare(args.workload, args.seed, work)
        t_prep = time.perf_counter() - t_prep
        probes = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]

        rounds, failures, traced_layers = [], [], []
        gates = {"mass_drift": 0.0, "energy_drift": 0.0, "duhamel_residual": 0.0}
        t_start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            if traced:
                lo = len(tracer.spans)
                tracer.counts.clear()
                tracer.partitions.clear()
                tracer.install()
                try:
                    rnd = wl.run_round(args.workload, cells, tracer)
                finally:
                    tracer.uninstall()
                traced_layers.append(layer_metrics(tracer, lo, len(tracer.spans), rnd.total_s))
            else:
                rnd = wl.run_round(args.workload, cells)
            g, f = checks.check_round(args.workload, cells, rnd.outputs, wl.ENERGY_TOL[args.workload])
            for k in gates:
                gates[k] = max(gates[k], g[k])
            failures += f
            rnd.outputs.clear()
            for cell in cells:
                shutil.rmtree(cell.run_dir, ignore_errors=True)
            rounds.append(rnd)
            # start another round only if it is expected to end inside the window
            elapsed = time.perf_counter() - t_start
            if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds and (not args.trace or len(rounds) >= 2):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for r in rounds if not r.traced]
    mean = statistics.fmean
    e2e = {
        "setup_s": statistics.median(probes),
        "simulate_s": mean(r.stages["simulate"] for r in plain),
        "diagnose_s": mean(r.stages["diagnose"] for r in plain),
        "analysis_s": mean(r.stages["analysis"] for r in plain),
        "total_s": mean(r.total_s for r in plain),
        "output_bytes": mean(r.output_bytes for r in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    if args.trace:
        units = per_layer_units()
        layer = {k: mean(lay[k] for lay in traced_layers) for k in units if k != "trace.overhead_s"}
        # the first round also pays the process's warm-up, so it is left out of the comparison
        base = [r.total_s for r in plain[1:]] or [plain[0].total_s]
        layer["trace.overhead_s"] = mean(r.total_s for r in rounds if r.traced) - mean(base)
        metrics = {k: {"value": layer[k], "unit": units[k]} for k in units}

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    result = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}

    record = {
        "schema": 1,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **result,
        "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()},
        "gates": gates,
        "check_failures": failures,
        "errors": [e for r in rounds for e in r.errors],
        "rounds": [{"traced": r.traced, "total_s": r.total_s, **{f"{k}_s": v for k, v in r.stages.items()},
                    "output_bytes": r.output_bytes, "attempted": r.attempted, "failed": r.failed}
                   for r in rounds],
        "setup": {"probes_s": probes, "in_process_import_s": t_import, "in_process_prepare_s": t_prep},
        "machine": machine(),
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.write_jsonl(OUT / f"{stem}_spans.jsonl")

    for name, m in metrics.items():
        print(f"{name:52s} {m['value']:.6g} {m['unit']}")
    print(f"attempted {attempted} failed {failed} correct {result['correct']}")
    for msg in failures[:10]:
        print(f"check failed: {msg}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
