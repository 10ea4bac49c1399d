"""Scalar functionals: mass, energy, localized mass, Morawetz flux, space-time norms.

Space-time (L^q in time) quantities integrate over a trajectory's stored
frames by the trapezoid rule; the frame stride is therefore the accuracy
knob for every L^q_t norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .radial import (
    _FRAME_BLOCK, RadialField, _fractional_rows, _lp_rows, lebesgue_norm, radial_integral, sobolev_norm,
)

__all__ = [
    "NormReport",
    "mass",
    "energy",
    "s_density",
    "localized_mass",
    "localized_mass_rate",
    "morawetz_flux",
    "space_time_norms",
    "cumulative_series_integral",
    "series_integral_between",
]

S_CRITICAL = 7.0 / 6.0


def cutoff_profile(s: np.ndarray) -> np.ndarray:
    """The fixed radial bump: 1 on [0, 1/2], cos^2(pi(s - 1/2)) on [1/2, 1], 0 beyond."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    out[s <= 0.5] = 1.0
    taper = (s > 0.5) & (s < 1.0)
    out[taper] = np.cos(np.pi * (s[taper] - 0.5)) ** 2
    return out


def mass(field: RadialField) -> float:
    """M[u] = int |u|^2 dx."""
    return float(4.0 * np.pi * radial_integral(field.grid, np.abs(field.w) ** 2))


def energy(field: RadialField) -> float:
    """E[u] = (1/2) int |grad u|^2 dx + (1/8) int |u|^8 dx, gradient spectral (s = 1)."""
    grad2 = sobolev_norm(field, 1.0) ** 2
    pot = lebesgue_norm(field, 8.0) ** 8
    return float(0.5 * grad2 + 0.125 * pot)


def _s_density_rows(u: np.ndarray, grid) -> np.ndarray:
    """||u||_{L^15_x}^15 of every row of a raw (..., n) block of samples."""
    return _lp_rows(u, grid, 15.0) ** 15


def s_density(field: RadialField) -> float:
    """||u||_{L^15_x}^15, the space-time partition integrand at one time."""
    return float(_s_density_rows(field.values, field.grid))


def localized_mass(field: RadialField, R: float) -> float:
    """M(u; 0, R) = (int |chi(x/R) u|^2 dx)^(1/2), centered cutoff of scale R."""
    if not (0 < R <= field.grid.r_max):
        raise ValueError(f"R must lie in (0, r_max], got {R}")
    chi = cutoff_profile(field.grid.nodes / R)
    val = 4.0 * np.pi * radial_integral(field.grid, (chi * np.abs(field.w)) ** 2)
    return float(np.sqrt(val))


def localized_mass_rate(traj, t: float, R: float) -> float:
    """d/dt M(u(t); 0, R) by finite differences along the stored frames.

    Centered difference at interior frames; one-sided at the trajectory
    endpoints (wider truncation error, flagged by the caller's tolerance).
    """
    m = traj.frame_index(t)
    times = traj.times
    if len(times) < 2:
        raise ValueError("need at least two frames")
    lo = max(0, m - 1)
    hi = min(len(times) - 1, m + 1)
    a = localized_mass(traj.field(lo), R)
    b = localized_mass(traj.field(hi), R)
    return float((b - a) / (times[hi] - times[lo]))


def _frames_in(times: np.ndarray, t_a: float, t_b: float) -> np.ndarray:
    """Indices of the frame times inside [t_a, t_b], with a 1e-12 tolerance at both ends."""
    return np.flatnonzero((times >= t_a - 1e-12) & (times <= t_b + 1e-12))


def morawetz_flux(traj, interval, R_cut: float) -> float:
    """int_I int_{|x|<R_cut} |u|^8 / |x| dx dt, time-trapezoid over frames."""
    if not (0 < R_cut <= traj.grid.r_max):
        raise ValueError(f"R_cut must lie in (0, r_max], got {R_cut}")
    sel = _frames_in(traj.times, *interval)
    if sel.size < 2:
        raise ValueError("interval must contain at least two frames")
    r = traj.grid.nodes
    inside = r < R_cut
    vals = np.empty(sel.size)
    for out_i, m in enumerate(sel):
        u8 = np.abs(traj.field(m).values) ** 8
        vals[out_i] = 4.0 * np.pi * radial_integral(traj.grid, np.where(inside, u8 * r, 0.0))
    return float(np.trapezoid(vals, traj.times[sel]))


@dataclass(frozen=True)
class NormReport:
    """S/W/N space-time norms of a trajectory restricted to one interval."""

    interval: tuple[float, float]
    S: float
    W: float
    N: float
    sup_Hsc: float
    mass: float
    energy: float

    def to_json_row(self) -> dict:
        return {
            "t_a": self.interval[0],
            "t_b": self.interval[1],
            "S": self.S,
            "W": self.W,
            "N": self.N,
            "sup_Hsc": self.sup_Hsc,
            "mass": self.mass,
            "energy": self.energy,
        }


def _lqt(values: np.ndarray, times: np.ndarray, q: float) -> float:
    """(int ||.||^q dt)^(1/q) by trapezoid over the frame times."""
    return float(np.trapezoid(values**q, times) ** (1.0 / q))


def space_time_norms(traj, interval) -> NormReport:
    """S, W, N norms over the interval, all from the same stored frames.

    S = L^15_{t,x}; W = max of |nabla|^sc u in L^{10/3}_{t,x} and in
    L^15_t L^{90/41}_x; N = |nabla|^sc (|u|^6 u) in L^{10/7}_{t,x}.  S,
    mass, energy and sup ||u||_{H^sc} come from the trajectory's cached
    densities; only W and N transform frames, in blocks.
    """
    sel = _frames_in(traj.times, *interval)
    if sel.size < 2:
        raise ValueError("interval must contain at least two frames")
    times = traj.times[sel]
    d = {k: traj.densities[k][sel] for k in ("s_density", "H_sc", "mass", "energy")}
    g = traj.grid
    w_a = np.empty(sel.size)  # ||  |nabla|^sc u ||_{L^{10/3}_x}
    w_b = np.empty(sel.size)  # ||  |nabla|^sc u ||_{L^{90/41}_x}
    n_v = np.empty(sel.size)  # ||  |nabla|^sc (|u|^6 u) ||_{L^{10/7}_x}
    for lo in range(0, sel.size, _FRAME_BLOCK):
        blk = slice(lo, lo + _FRAME_BLOCK)
        u = traj.frames[sel[blk]]
        du = _fractional_rows(u, g, S_CRITICAL)
        w_a[blk] = _lp_rows(du, g, 10.0 / 3.0)
        w_b[blk] = _lp_rows(du, g, 90.0 / 41.0)
        n_v[blk] = _lp_rows(_fractional_rows(np.abs(u) ** 6 * u, g, S_CRITICAL), g, 10.0 / 7.0)
    return NormReport(
        interval=(float(interval[0]), float(interval[1])),
        S=float(np.trapezoid(d["s_density"], times) ** (1.0 / 15.0)),
        W=max(_lqt(w_a, times, 10.0 / 3.0), _lqt(w_b, times, 15.0)),
        N=_lqt(n_v, times, 10.0 / 7.0),
        sup_Hsc=float(d["H_sc"].max()),
        mass=float(d["mass"].mean()),
        energy=float(d["energy"].mean()),
    )


def cumulative_series_integral(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid of a sampled time series, C[0] = 0."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1:
        raise ValueError("times and values must be 1-d arrays of equal length")
    out = np.zeros_like(times)
    out[1:] = np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(times))
    return out


def series_integral_between(times, cumulative, t_a: float, t_b: float) -> float:
    """Integral over [t_a, t_b] via linear interpolation of the cumulative sums."""
    ca = float(np.interp(t_a, times, cumulative))
    cb = float(np.interp(t_b, times, cumulative))
    return cb - ca
