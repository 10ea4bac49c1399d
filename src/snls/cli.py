"""Command-line harness: simulate, diagnose, select, bounds, sweep.

Exit statuses: 0 clean, 2 bad configuration or arguments or a partition
too large to allocate, 3 blow-up-guard abort, 4 completed with a
boundary-mass breach.  The environment variable SNLS_RUN_ROOT, when set,
resolves relative output directories.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import os
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import bounds as bd
from . import checkpoints as ckpt
from . import functionals as fn
from . import intervals as iv
from .config import ConfigError, RunConfig, _require, read_json
from .evolve import Trajectory, evolve, rebuild_trajectory
from .radial import RadialField, _sfft

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_BREACH = 4


def _resolve_out(path_str: str) -> Path:
    p = Path(path_str)
    root = os.environ.get("SNLS_RUN_ROOT")
    if root and not p.is_absolute():
        p = Path(root) / p
    return p


def _load_constants(args, cfg: RunConfig | None = None) -> iv.ProofConstants:
    if args.constants:
        return read_json(args.constants, iv.ProofConstants.from_dict)
    return cfg.proof_constants() if cfg is not None else iv.ProofConstants()


def run_simulation(cfg: RunConfig, out_dir: Path, resume: bool = False) -> tuple[Trajectory, int]:
    """Run one cell, streaming crash-safe outputs into out_dir.

    evolve hands stored frames to on_frame in blocks of radial._FRAME_BLOCK,
    and on_frame appends each frame's log record and CSV row, flushed, so a
    killed process loses no frame that reached on_frame; the frame log is
    fsync'd once per block and on close, so a power loss loses at most the
    last block, which a resume recomputes.
    frames.snls is the run's only field record: every call, a resume
    included, unlinks a checkpoint.snls left by an older version, so
    that a stale file cannot pass for the log's last record.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.json"
    frames_path = out_dir / "frames.snls"
    csv_path = out_dir / "densities.csv"
    ctl = cfg.controller()
    grid = cfg.grid()
    t_a, t_b = cfg.t_span

    t_start, u_start = t_a, cfg.build_initial_field()
    append = False
    if resume and ckpt.has_frame_log(frames_path):
        manifest, (old_grid, old_times, old_frames) = _read_run_dir(out_dir)
        if manifest["config"] != cfg.to_dict():
            raise ConfigError("resume: config does not match the run directory manifest")
        if old_grid != grid:
            raise ConfigError("resume: grid mismatch in frame log")
        if old_times.size:
            # cuts only a partial record past the extent that old_frames maps, so that view stays valid
            ckpt.truncate_trajectory_frames(frames_path, old_times.size)
            # the density log of the intact frames: its own rows when they belong to them, else recomputed
            prefix = rebuild_trajectory(grid, old_times, old_frames, ctl, stored=_stored_densities(csv_path))
            text = ckpt.density_csv_text(old_times, prefix.densities)
            # rewritten only to drop rows past the intact frames, a torn line, or rows that are not theirs
            if not csv_path.is_file() or csv_path.read_bytes() != text.encode():
                csv_path.write_text(text)
            t_start = float(old_times[-1])
            u_start = RadialField(grid, old_frames[-1])
            append = True

    wall_start = time.monotonic()
    manifest = {
        "config": cfg.to_dict(),
        "seed": cfg.seed,
        "status": "running",
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    ckpt.write_manifest(manifest_path, manifest)

    (out_dir / "checkpoint.snls").unlink(missing_ok=True)
    telemetry, status = None, "ok"  # as they stay when a resumed run was already complete
    with (ckpt.TrajectoryFrameWriter(frames_path, grid, append=append) as writer,
          open(csv_path, "a" if append else "w") as csv_f):
        if not append:
            csv_f.write(ckpt.density_csv_header() + "\n")

        def on_frame(t, field, stats):
            if append and t <= t_start + 1e-12 * max(1.0, abs(t_start)):
                return  # initial frame of a resumed segment is already on disk
            writer.append(t, field.values)
            csv_f.write(ckpt.density_csv_row(t, stats) + "\n")
            csv_f.flush()

        if t_start < t_b - 1e-12 * max(1.0, abs(t_b)):
            traj = evolve(u_start, (t_start, t_b), ctl, provenance={"config": cfg.to_dict()},
                          on_frame=on_frame, snap_anchor=t_a)
            telemetry, status = traj.provenance["telemetry"], traj.status
    if append:  # a resumed run's trajectory is its whole frame log, with the prefix's rows and evolve's in the CSV
        traj = rebuild_trajectory(*ckpt.read_trajectory_frames(frames_path), ctl, provenance={"config": cfg.to_dict()},
                                  status=status, stored=_stored_densities(csv_path))

    manifest.update({
        "status": traj.status,
        "boundary_breach": traj.boundary_breach,
        "wall_time_s": time.monotonic() - wall_start,
        "n_frames": int(traj.times.size),
        "telemetry": telemetry,  # this invocation only: a resume counts its own steps
    })
    ckpt.write_manifest(manifest_path, manifest)
    if traj.status != "ok":
        return traj, EXIT_BLOWUP
    if traj.boundary_breach:
        return traj, EXIT_BREACH
    return traj, EXIT_OK


def _read_run_dir(run_dir: Path) -> tuple[dict, tuple]:
    """(manifest, (grid, times, frames)) of a run directory; a malformed file is a ConfigError."""
    try:
        manifest = ckpt.read_manifest(run_dir / "manifest.json")
        _require(isinstance(manifest, dict) and "config" in manifest, "manifest.json", "has no config")
        return manifest, ckpt.read_trajectory_frames(run_dir / "frames.snls")
    except ValueError as exc:
        raise ConfigError(f"{run_dir}: {exc}") from exc


def _stored_densities(csv_path: Path):
    """(times, densities) of a run's densities.csv, or None when it is missing or unreadable."""
    try:
        return ckpt.read_density_csv(csv_path)
    except (OSError, ValueError):
        return None


def load_run(run_dir: Path) -> tuple[RunConfig, Trajectory]:
    """(config, trajectory) of a run directory; a bad manifest or frame log is a ConfigError.

    The frames are mapped from frames.snls.  Their densities are the rows
    of densities.csv when those provably belong to the frames (see
    evolve._stored_stats), else recomputed from the frames, with the same
    bits either way.
    """
    manifest, (grid, times, frames) = _read_run_dir(run_dir)
    cfg = RunConfig.from_dict(manifest["config"])
    if times.size < 2:
        raise ConfigError(f"incomplete trajectory in {run_dir}: {times.size} frame(s)")
    traj = rebuild_trajectory(grid, times, frames, cfg.controller(), provenance={"config": cfg.to_dict()},
                              status=manifest.get("status", "ok"), stored=_stored_densities(run_dir / "densities.csv"))
    return cfg, traj


def diagnose_trajectory(traj: Trajectory, constants: iv.ProofConstants,
                        e_mode: str = "measure", e_declared: float | None = None) -> dict:
    """The full interval pipeline: partition, classify, scan, select, audit."""
    if e_mode == "declare":
        E = float(e_declared)
    else:
        E = float(traj.densities["H_sc"].max())
    eta = constants.eta(E)
    _require(eta > 0, "constants", f"eta = (1/C2)(1+E)^-C2 underflows to {eta} at C2={constants.C2}, E={E}")
    decomp = iv.partition_trajectory(traj, eta)
    decomp = iv.classify(decomp, traj, constants)

    total = fn.series_integral(traj.times, traj.densities["s_density"])
    sum_masses = float(sum(decomp.masses.tolist()))  # left to right: np.sum's pairwise order changes the bits
    rel_err = abs(total - sum_masses) / max(total, 1e-300)
    n_tail = len(decomp.indices(iv.TAIL))
    J = len(decomp) - n_tail
    B = len(decomp.indices(iv.EXCEPTIONAL))
    G = len(decomp.indices(iv.UNEXCEPTIONAL))

    certs = iv.concentration_scan(traj, decomp, constants)
    lm = decomp.linear_masses
    strich = []  # each anchor's free-flow L^15 mass over the whole span, from classify's series
    for t_anchor, tot_lin in zip(decomp.span, np.sum(lm, axis=0)):
        hsc = float(traj.densities["H_sc"][traj.frame_index(t_anchor)])
        strich.append(float(tot_lin) ** (1.0 / 15.0) / max(hsc, 1e-300))

    selection = audit = None
    if G:
        sel = iv.recursive_select(decomp, constants)
        iv.check_selection_invariants(decomp, sel)
        selection = sel.to_json()
        audit = iv.mass_bracketing_audit(traj, decomp, sel, constants).to_json()

    return {
        "constants": constants.to_dict(),
        "E": E,
        "e_mode": e_mode,
        "eta": eta,
        "counts": {"J": J, "B": B, "G": G, "tail": n_tail},
        "all_exceptional": G == 0,
        "exceptional_ceiling": constants.exceptional_ceiling(E),
        "strichartz_ratios": strich,
        "linear_masses": lm.tolist(),
        "reintegration": {
            "total": total,
            "sum_masses": sum_masses,
            "rel_err": rel_err,
            "two_J_eta": 2.0 * max(J, 1) * eta,
        },
        "decomposition": decomp.to_json(),
        "certificates": [vars(c) for c in certs],
        "selection": selection,
        "audit": audit,
        "status": traj.status,
        "boundary_breach": traj.boundary_breach,
    }


def _cmd_simulate(args) -> int:
    cfg = RunConfig.load(args.config)
    out_dir = _resolve_out(args.out or cfg.out_dir)
    traj, code = run_simulation(cfg, out_dir, resume=args.resume)
    print(f"simulate: {out_dir} status={traj.status} frames={traj.times.size} "
          f"breach={traj.boundary_breach}")
    return code


def _cmd_diagnose(args) -> int:
    run_dir = Path(args.run_dir)
    cfg, traj = load_run(run_dir)
    constants = _load_constants(args, cfg)
    report = diagnose_trajectory(traj, constants, cfg.e_mode, cfg.e_declared)
    out = Path(args.out) if args.out else run_dir / "diagnose.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")  # one encode, one write: faster than json.dump
    c = report["counts"]
    print(f"diagnose: J={c['J']} B={c['B']} G={c['G']} eta={report['eta']:.4g} "
          f"reintegration_rel_err={report['reintegration']['rel_err']:.2e} -> {out}")
    return EXIT_OK


def _cmd_select(args) -> int:
    decomp = read_json(args.instance, iv.IntervalDecomposition.from_json)
    _require(iv.UNEXCEPTIONAL in decomp.flags, args.instance, "has no unexceptional interval to select from")
    constants = _load_constants(args)
    sel = iv.recursive_select(decomp, constants, removal_span=args.removal_span)
    iv.check_selection_invariants(decomp, sel)
    payload = json.dumps(sel.to_json(), indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(payload + "\n")
    print(payload)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    _require(0 <= args.E < np.inf and 0 < args.M < np.inf and 0 < args.delta < 1, "bounds",
             f"need 0 <= E < inf, 0 < M < inf and 0 < delta < 1, got E={args.E}, M={args.M}, delta={args.delta}")
    constants = _load_constants(args)
    run_dir = Path(args.monitor) if args.monitor else None
    traj = load_run(run_dir)[1] if run_dir else None  # a bad run directory ends the command before any output
    report = bd.build_bound_report(args.E, args.M, args.delta, constants)
    plan = report.plan
    records = None if traj is None else bd.bootstrap_monitor(  # before any output: it can raise PartitionTooLarge
        traj, "theorem1",
        {"log_R0": plan.R0.log_value, "delta": args.delta, "E0": max(args.E, 1.0), "m_ceiling": plan.m_ceiling},
        constants,
    )
    payload = json.dumps(report.to_json(), indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(payload + "\n")
    print(payload)
    if records is not None:
        trail = run_dir / "monitor.jsonl"
        with open(trail, "w") as f:
            for rec in records:
                f.write(json.dumps(rec, sort_keys=True) + "\n")
        vacuous = "" if plan.closed else f"; plan not closed ({plan.failure}): every ceiling in the trail is vacuous"
        print(f"bootstrap monitor: {len(records)} records -> {trail}{vacuous}", file=sys.stderr)
    return EXIT_OK


def _sweep_cell(payload) -> dict:
    base, overrides, cell_dir = payload
    row = dict(overrides)
    try:
        cfg = RunConfig.from_dict({**base, **overrides, "out_dir": cell_dir})
        traj, code = run_simulation(cfg, Path(cell_dir))
        report = diagnose_trajectory(traj, cfg.proof_constants(), cfg.e_mode, cfg.e_declared)
        row.update({
            "status": traj.status,
            "exit": code,
            "E": report["E"],
            "eta": report["eta"],
            "J": report["counts"]["J"],
            "B": report["counts"]["B"],
            "G": report["counts"]["G"],
            "K": (report["selection"] or {}).get("K", 0),
            "error": "",
        })
    except Exception as exc:  # per-cell isolation: one failure must not kill the grid
        with contextlib.suppress(OSError):  # the traceback is context; losing it must not end the grid either
            Path(cell_dir).mkdir(parents=True, exist_ok=True)
            (Path(cell_dir) / "error.txt").write_text("".join(traceback.format_exception(exc)))
        row.update({"status": "error", "exit": -1, "E": "", "eta": "", "J": "",
                    "B": "", "G": "", "K": "", "error": str(exc)})
    return row


def _cmd_sweep(args) -> int:
    _require(args.jobs >= 1, "sweep", f"--jobs must be at least 1, got {args.jobs}")
    spec = read_json(args.config)
    _require(isinstance(spec, dict) and isinstance(spec.get("base"), dict) and isinstance(spec.get("sweep"), dict)
             and all(isinstance(v, list) for v in spec["sweep"].values()),
             str(args.config), "a sweep spec needs a 'base' object and a 'sweep' object of lists")
    base, sweep = spec["base"], spec["sweep"]
    out_dir = _resolve_out(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    keys = sorted(sweep)
    cells = []
    for combo in itertools.product(*(sweep[k] for k in keys)):
        overrides = dict(zip(keys, combo))
        tag = "_".join(f"{k}={overrides[k]}" for k in keys)
        cells.append((base, overrides, str(out_dir / f"cell_{tag}")))
    cells.sort(key=lambda c: tuple(str(c[1][k]) for k in keys))

    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # not at module level: ~10 ms on every snls start

        _sfft()  # bound before the fork, so no worker pays its own import
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_cell, cells))
    else:
        rows = [_sweep_cell(c) for c in cells]

    cols = keys + ["status", "exit", "E", "eta", "J", "B", "G", "K", "error"]
    csv_path = out_dir / "sweep.csv"
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")  # quotes an error message that holds a comma
        writer.writerow(cols)
        writer.writerows([str(row.get(c, "")) for c in cols] for row in rows)
    print(f"sweep: {len(rows)} cells -> {csv_path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="snls", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one evolution cell")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("diagnose", help="interval pipeline on a finished run")
    p.add_argument("run_dir")
    p.add_argument("--constants", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("select", help="recursive chain selection on an instance file")
    p.add_argument("instance")
    p.add_argument("--constants", default=None)
    p.add_argument("--removal-span", default="window", choices=["window", "left_of_selected"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("bounds", help="evaluate the explicit bound formulas")
    p.add_argument("--E", type=float, required=True)
    p.add_argument("--M", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=1e-6)
    p.add_argument("--constants", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--monitor", default=None, metavar="RUN_DIR",
                   help="also stream a bootstrap audit trail for this run as JSON-lines")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("sweep", help="parallel simulate+diagnose over a parameter grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, iv.PartitionTooLarge, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
