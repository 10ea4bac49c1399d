"""The three lab workloads: inputs made from the seed, and one round of each.

A round is config -> simulate -> diagnose -> post-run analysis for every
cell of the workload, in this process, each call issued after the previous
one returns.  Stage times are summed per round; a failed step fails the
steps of its cell that depend on it, so every round attempts the same
operations.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import time
import traceback
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from snls import cli, config, functionals, intervals

# the README example's constants, also the ProofConstants defaults
CONSTANTS = {"C0": 1.0, "C1": 1.0, "C2": 1.0, "c": 0.25, "C": 2.0, "C_tilde": 8.0, "C_prime": 1.0}
MORAWETZ_R = 20.0
PEAK_WINDOW = 0.05  # designate intervals whose midpoint lies this close to the density peak (as C12)
ENERGY_TOL = {"scatter": 1e-6, "focus": 1e-5, "sweep": 1e-5}
WORKLOADS = ("scatter", "focus", "sweep")


def _cfg(seed: int, **kw) -> dict:
    base = {"theta": 0.1, "family": "gaussian", "width": 1.0, "chirp": 0.0,
            "constants": dict(CONSTANTS), "e_mode": "measure", "seed": seed}
    return {**base, **kw}


def make_cells(workload: str, seed: int, reduced: bool = False) -> list[tuple[str, dict]]:
    """(tag, config dict) of every cell; `reduced` shrinks grids and spans for the tests."""
    if workload == "scatter":
        n, r_max, T = (1024, 40.0, 0.4) if reduced else (16384, 80.0, 2.0)
        return [("scatter", _cfg(seed, n=n, r_max=r_max, dt_max=0.0025, snapshot_stride=0.02,
                                 amplitude=1.0, t_span=[0.0, T]))]
    if workload == "focus":
        n, T = (512, 0.3) if reduced else (2048, 0.6)
        return [("focus", _cfg(seed, n=n, r_max=40.0, dt_max=0.002, snapshot_stride=0.005,
                               amplitude=1.5, width=2.0, chirp=-0.25, t_span=[0.0, T]))]
    if workload == "sweep":
        rng = np.random.default_rng(seed)
        draws = [(round(float(rng.uniform(0.6, 1.2)), 6), round(float(rng.uniform(-0.2, 0.2)), 6))
                 for _ in range(8)]
        sizes, T = ((256,), 0.2) if reduced else ((256, 512), 0.5)
        if reduced:
            draws = draws[:2]
        base = _cfg(seed, r_max=20.0, dt_max=0.0025, snapshot_stride=0.01, t_span=[0.0, T])
        cells = []
        for n in sizes:
            for amp, chirp in draws:
                overrides = {"amplitude": amp, "chirp": chirp, "n": n}
                tag = "_".join(f"{k}={overrides[k]}" for k in sorted(overrides))  # as `snls sweep` names cells
                cells.append((f"cell_{tag}", {**base, **overrides}))
        return cells
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Cell:
    tag: str
    cfg: dict
    config: object  # the loaded snls RunConfig
    run_dir: Path


def prepare(workload: str, seed: int, root: Path, reduced: bool = False) -> list[Cell]:
    """Set-up: write each cell's config file, load and validate it, build its initial field."""
    cells = []
    (root / "configs").mkdir(parents=True, exist_ok=True)
    for tag, cfg in make_cells(workload, seed, reduced):
        run_dir = root / "runs" / tag
        cfg = {**cfg, "out_dir": str(run_dir)}
        path = root / "configs" / f"{tag}.json"
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        loaded = config.RunConfig.load(path)
        loaded.build_initial_field()
        cells.append(Cell(tag, cfg, loaded, run_dir))
    return cells


@dataclass
class Round:
    """Stage times, operation counts and outputs of one round."""

    traced: bool
    stages: dict = field(default_factory=lambda: {"simulate": 0.0, "diagnose": 0.0, "analysis": 0.0})
    total_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)  # tag -> cell state for the checks
    output_bytes: int = 0


@contextmanager
def _stage(rnd: Round, tracer, name: str):
    span = tracer.span(f"bench.{name}") if tracer is not None else nullcontext()
    t0 = time.perf_counter()
    try:
        with span:
            yield
    finally:
        rnd.stages[name] += time.perf_counter() - t0


def _simulate(st):
    traj, code = cli.run_simulation(st["cell"].config, st["cell"].run_dir)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"run_simulation exit code {code} (status {traj.status})")


def _diagnose(st):
    run_dir = st["cell"].run_dir
    cfg, traj = cli.load_run(run_dir)
    report = cli.diagnose_trajectory(traj, cfg.proof_constants(), cfg.e_mode, cfg.e_declared)
    (run_dir / "diagnose.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    st.update(cfg=cfg, traj=traj, report=report)


def _norms(st):
    st["S"] = functionals.space_time_norms(st["traj"], st["traj"].t_span).S


def _bounds_monitor(st):
    run_dir = st["cell"].run_dir
    E = json.loads((run_dir / "diagnose.json").read_text())["E"]
    argv = ["bounds", "--E", repr(E), "--delta", "1e-8", "--monitor", str(run_dir),
            "--out", str(run_dir / "bounds.json")]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"snls bounds exit code {code}")


def _morawetz(st):
    st["morawetz"] = functionals.morawetz_flux(st["traj"], st["traj"].t_span, MORAWETZ_R)


def _concentration(st):
    traj, report = st["traj"], st["report"]
    base = intervals.IntervalDecomposition.from_json(report["decomposition"])
    peak_t = traj.times[int(np.argmax(traj.densities["s_density"]))]
    flags = []
    for (a, b), f in zip(base.intervals, base.flags):
        if f == intervals.TAIL:
            flags.append(intervals.TAIL)
        elif abs(0.5 * (a + b) - peak_t) < PEAK_WINDOW:
            flags.append(intervals.UNEXCEPTIONAL)
        else:
            flags.append(intervals.EXCEPTIONAL)
    designated = intervals.IntervalDecomposition(base.intervals, base.masses, base.eta, tuple(flags),
                                                 classified=True)
    st["designated"] = flags.count(intervals.UNEXCEPTIONAL)
    st["certs"] = intervals.concentration_scan(traj, designated, st["cfg"].proof_constants())


ANALYSIS = {
    "scatter": (_bounds_monitor, _norms),
    "focus": (_norms, _morawetz, _concentration),
    "sweep": (_norms,),
}


def run_round(workload: str, cells: list[Cell], tracer=None) -> Round:
    """One closed-loop round over every cell; the tracer, when given, must be installed."""
    rnd = Round(traced=tracer is not None)
    steps = [("simulate", _simulate), ("diagnose", _diagnose)] + [("analysis", f) for f in ANALYSIS[workload]]
    for cell in cells:
        if cell.run_dir.exists():
            shutil.rmtree(cell.run_dir)
    t0 = time.perf_counter()
    with tracer.span("bench.round") if tracer is not None else nullcontext():
        for cell in cells:
            st = {"cell": cell}
            for stage, fn in steps:
                rnd.attempted += 1
                if st.get("broken"):
                    rnd.failed += 1
                    continue
                try:
                    with _stage(rnd, tracer, stage):
                        fn(st)
                except Exception as exc:  # one failed call must not end the round
                    rnd.failed += 1
                    st["broken"] = True
                    rnd.errors.append(f"{cell.tag} {fn.__name__}: {''.join(traceback.format_exception(exc))}")
            rnd.outputs[cell.tag] = st
    rnd.total_s = time.perf_counter() - t0
    rnd.output_bytes = sum(dir_bytes(c.run_dir) for c in cells)
    return rnd


def dir_bytes(path: Path) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total
