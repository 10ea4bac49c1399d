"""Output checks computed apart from snls: the benchmark's own frame-log reader and DST-I.

Every comparison is against a quantity recomputed here from the files a
run leaves behind, or against a property the method must have.  Nothing
here calls into snls, so a fault in a shared helper cannot hide itself.
Frames are processed in chunks so that the checks do not raise the peak
memory the benchmark reports for the program.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np
import scipy.fft as sfft

HEADER = struct.Struct("<4sIQd")  # magic, version, n, r_max
S_CRITICAL = 7.0 / 6.0
CHUNK = 16

MASS_DRIFT_TOL = 1e-10
DUHAMEL_TOL = 1e-3
MATCH_TOL = 1e-9  # recomputed value against the program's, relative


class CheckFailure(AssertionError):
    """An output that disagrees with the benchmark's own computation."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailure(msg)


def close(a: float, b: float, tol: float = MATCH_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def frame_log(path: Path):
    """(n, r_max, times, frames-memmap) of a frame log, after checking its exact size."""
    with open(path, "rb") as f:
        magic, version, n, r_max = HEADER.unpack(f.read(HEADER.size))
    require(magic == b"SNLS" and version == 1, f"{path}: bad header {magic!r} v{version}")
    n = int(n)
    rec = 8 + 16 * n
    size = path.stat().st_size
    count = (size - HEADER.size) // rec
    require(size == HEADER.size + count * rec,
            f"{path}: {size} bytes is not header {HEADER.size} + {count} frames x {rec}")
    log = np.memmap(path, dtype=[("t", "<f8"), ("u", "<c16", (n,))], mode="r",
                    offset=HEADER.size, shape=(count,))
    return n, float(r_max), np.array(log["t"]), log


def frame_physics(n: int, r_max: float, log) -> dict:
    """Mass, energy, H^sc norm and L^15 density of every frame, plus the final Duhamel residual.

    Radial integrals are 4 pi dr sum(. r^2) on the interior nodes; norms
    with derivatives use the orthonormal DST-I of w = r u, whose Plancherel
    identity is exact.  The Duhamel residual compares the final frame with
    e^{i(T-t0)L} u(t0) - i int e^{i(T-t')L} |u|^6 u dt' (trapezoid over frames),
    relative to the L2 norm of u(t0).
    """
    dr = r_max / (n + 1)
    r = dr * np.arange(1, n + 1)
    rho2 = (np.pi / r_max * np.arange(1, n + 1)) ** 2
    scale = 4.0 * np.pi * dr
    times = np.array(log["t"])
    M = times.size
    T = times[-1]
    wts = np.zeros(M)
    wts[:-1] += 0.5 * np.diff(times)
    wts[1:] += 0.5 * np.diff(times)
    out = {k: np.empty(M) for k in ("mass", "energy", "Hsc", "s_density")}
    duhamel = np.zeros(n, dtype=np.complex128)
    for lo in range(0, M, CHUNK):
        u = np.array(log["u"][lo:lo + CHUNK])
        c2 = np.abs(sfft.dst(u * r, type=1, norm="ortho", axis=-1)) ** 2
        au2 = (u.real**2 + u.imag**2)
        out["mass"][lo:lo + len(u)] = scale * c2.sum(axis=1)
        pot = scale * (au2**4 * r**2).sum(axis=1)
        out["energy"][lo:lo + len(u)] = 0.5 * scale * (rho2 * c2).sum(axis=1) + 0.125 * pot
        out["Hsc"][lo:lo + len(u)] = np.sqrt(scale * (rho2**S_CRITICAL * c2).sum(axis=1))
        out["s_density"][lo:lo + len(u)] = scale * (np.sqrt(au2) ** 15 * r**2).sum(axis=1)
        nl = sfft.dst(au2**3 * u * r, type=1, norm="ortho", axis=-1)
        phase = np.exp(-1j * rho2[None, :] * (T - times[lo:lo + len(u), None]))
        duhamel += (wts[lo:lo + len(u), None] * nl * phase).sum(axis=0)
    c0 = sfft.dst(np.array(log["u"][0]) * r, type=1, norm="ortho")
    cT = sfft.dst(np.array(log["u"][M - 1]) * r, type=1, norm="ortho")
    resid = cT - (c0 * np.exp(-1j * rho2 * (T - times[0])) - 1j * duhamel)
    out["duhamel_rel"] = float(np.sqrt(scale * (np.abs(resid) ** 2).sum()) / np.sqrt(out["mass"][0]))
    out["times"] = times
    return out


def trapezoid(values: np.ndarray, times: np.ndarray) -> float:
    return float((0.5 * (values[1:] + values[:-1]) * np.diff(times)).sum())


def check_run(run_dir: Path, cfg: dict, energy_tol: float) -> dict:
    """Check one simulated run directory; return the physics gates and own series."""
    n, r_max, times, log = frame_log(run_dir / "frames.snls")
    require(n == cfg["n"] and r_max == cfg["r_max"], f"{run_dir}: grid ({n}, {r_max}) differs from config")
    t_a, t_b = cfg["t_span"]
    stride = cfg["snapshot_stride"]
    expected = int(round((t_b - t_a) / stride)) + 1
    require(times.size == expected, f"{run_dir}: {times.size} frames, expected {expected}")
    require(np.allclose(times, t_a + stride * np.arange(expected), rtol=0, atol=1e-9),
            f"{run_dir}: frame times off the snapshot grid")
    phys = frame_physics(n, r_max, log)
    del log

    mass, energy = phys["mass"], phys["energy"]
    gates = {
        "mass_drift": float(np.abs(mass - mass[0]).max() / mass[0]),
        "energy_drift": float(np.abs(energy - energy[0]).max() / energy[0]),
        "duhamel_residual": phys["duhamel_rel"],
    }
    require(gates["mass_drift"] <= MASS_DRIFT_TOL, f"{run_dir}: mass drift {gates['mass_drift']:.3e}")
    require(gates["energy_drift"] <= energy_tol,
            f"{run_dir}: energy drift {gates['energy_drift']:.3e} > {energy_tol:g}")
    require(gates["duhamel_residual"] <= DUHAMEL_TOL,
            f"{run_dir}: Duhamel residual {gates['duhamel_residual']:.3e} > {DUHAMEL_TOL:g}")

    csv = np.loadtxt(run_dir / "densities.csv", delimiter=",", skiprows=1, ndmin=2)
    require(csv.shape[0] == times.size, f"{run_dir}: densities.csv has {csv.shape[0]} rows for {times.size} frames")
    require(np.array_equal(csv[:, 0], times), f"{run_dir}: densities.csv times differ from frames.snls")
    for col, key in ((1, "mass"), (2, "energy"), (3, "Hsc"), (6, "s_density")):
        ok = np.abs(csv[:, col] - phys[key]) <= MATCH_TOL * np.maximum(np.abs(phys[key]), 1e-300)
        require(bool(ok.all()), f"{run_dir}: densities.csv {key} differs from the recomputed value "
                                f"at frame {int(np.argmin(ok))}")
    return {"gates": gates, "phys": phys}


def check_diagnose(run_dir: Path, cfg: dict, phys: dict) -> dict:
    """Check diagnose.json against the recomputed density and the partition's defining properties."""
    report = json.loads((run_dir / "diagnose.json").read_text())
    times, s = phys["times"], phys["s_density"]
    E = float(phys["Hsc"].max())
    require(close(report["E"], E), f"{run_dir}: E {report['E']!r} differs from max H^sc {E!r}")
    C2 = float(cfg["constants"]["C2"])
    eta = (1.0 + E) ** (-C2) / C2
    require(close(report["eta"], eta), f"{run_dir}: eta {report['eta']!r} differs from {eta!r}")
    total = trapezoid(s, times)
    require(close(report["reintegration"]["total"], total),
            f"{run_dir}: reintegration total {report['reintegration']['total']!r} differs from {total!r}")

    rows = report["decomposition"]["intervals"]
    require(abs(rows[0]["t0"] - times[0]) <= 1e-12 and abs(rows[-1]["t1"] - times[-1]) <= 1e-12,
            f"{run_dir}: intervals do not span [{times[0]}, {times[-1]}]")
    t0 = np.array([row["t0"] for row in rows])
    t1 = np.array([row["t1"] for row in rows])
    require(bool((t1 > t0).all()) and bool((np.abs(t0[1:] - t1[:-1]) <= 1e-12).all()),
            f"{run_dir}: intervals are not consecutive")
    masses = np.array([row["mass"] for row in rows])
    full = np.array([row["flag"] != "tail" for row in rows])
    require(bool(((masses[full] >= eta * (1 - 1e-9)) & (masses[full] <= 2 * eta * (1 + 1e-9))).all()),
            f"{run_dir}: a non-tail interval mass lies outside [eta, 2 eta]")
    require(close(float(masses.sum()), total, 1e-8),
            f"{run_dir}: interval masses sum to {masses.sum()!r}, density integrates to {total!r}")
    return report


def check_norm_S(S: float, phys: dict, where: str) -> None:
    expect = trapezoid(phys["s_density"], phys["times"]) ** (1.0 / 15.0)
    require(close(S, expect), f"{where}: space_time_norms S {S!r} differs from (int s dt)^(1/15) {expect!r}")


def check_monitor(run_dir: Path, frames: int) -> None:
    lines = (run_dir / "monitor.jsonl").read_text().splitlines()
    require(len(lines) == frames - 1, f"{run_dir}: {len(lines)} monitor records for {frames} frames")
    counts = [json.loads(line)["interval_count"] for line in lines]
    require(all(b >= a for a, b in zip(counts, counts[1:])), f"{run_dir}: monitor interval_count decreases")


def check_certificates(certs, designated: int, where: str) -> None:
    require(designated > 0 and len(certs) == designated,
            f"{where}: {len(certs)} certificates for {designated} designated intervals")
    require(all(c.resolvable and c.min_ratio > 0 and math.isfinite(c.min_ratio) for c in certs),
            f"{where}: a concentration certificate is unresolvable or not positive")


def check_round(workload: str, cells, outputs: dict, energy_tol: float) -> tuple[dict, list]:
    """Check every cell whose steps all succeeded; return (worst gates, failure messages)."""
    gates = {"mass_drift": 0.0, "energy_drift": 0.0, "duhamel_residual": 0.0}
    failures = []
    for cell in cells:
        st = outputs[cell.tag]
        if st.get("broken"):
            continue  # its failed steps are counted as failed operations
        try:
            res = check_run(cell.run_dir, cell.cfg, energy_tol)
            for k, v in res["gates"].items():
                gates[k] = max(gates[k], v)
            check_diagnose(cell.run_dir, cell.cfg, res["phys"])
            check_norm_S(st["S"], res["phys"], cell.tag)
            if workload == "scatter":
                check_monitor(cell.run_dir, res["phys"]["times"].size)
            if workload == "focus":
                check_certificates(st["certs"], st["designated"], cell.tag)
        except (CheckFailure, OSError, ValueError, KeyError) as exc:
            failures.append(f"{cell.tag}: {type(exc).__name__}: {exc}")
    return gates, failures
