"""Scalar functionals: mass, energy, localized mass, Morawetz flux, space-time norms.

Every time integral of a series over stored frames is the trapezoid rule owned
here (series_integral, cumulative_series_integral, series_integral_between and
its inverse series_cut_times), so the frame stride sets the accuracy of each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .radial import RadialField, _block_rows, _fractional_rows, _lp_rows, _sobolev2_rows, _volume_rows

__all__ = [
    "NormReport",
    "mass",
    "energy",
    "s_density",
    "localized_mass",
    "localized_mass_rate",
    "morawetz_flux",
    "space_time_norms",
    "series_integral",
    "cumulative_series_integral",
    "series_integral_between",
    "series_cut_times",
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


def _energy_rows(u: np.ndarray, grid, grad2: np.ndarray) -> np.ndarray:
    """E[u] = (1/2) int |grad u|^2 dx + (1/8) int |u|^8 dx of every row of a raw block, given its squared H^1 norms."""
    return 0.5 * grad2 + 0.125 * _lp_rows(u, grid, 8.0) ** 8


def _s_density_rows(u: np.ndarray, grid) -> np.ndarray:
    """||u||_{L^15_x}^15 of every row of a raw (..., n) block of samples."""
    return _lp_rows(u, grid, 15.0) ** 15


def _localized_mass_rows(u: np.ndarray, grid, R) -> np.ndarray:
    """M(u; 0, R) = (int |chi(x/R) u|^2 dx)^(1/2) of every row of a raw block, centered cutoff of scale R.

    R is one scale for every row, or an array of one scale per row; either
    way each row gets the same elementwise operations and one last-axis sum.
    """
    R = np.asarray(R, dtype=float)
    bad = R[~((R > 0) & (R <= grid.r_max))]
    if bad.size:
        raise ValueError(f"R must lie in (0, r_max], got {bad[0]}")
    return np.sqrt(_volume_rows((cutoff_profile(grid.nodes / R[..., None]) * np.abs(u)) ** 2, grid))


def _nonlinear_term(u: np.ndarray) -> np.ndarray:
    """|u|^6 u, elementwise on a raw array."""
    return np.abs(u) ** 6 * u


# mass, energy and s_density are one-row calls of the formulas the trajectory caches per frame
def mass(field: RadialField) -> float:
    """M[u] = int |u|^2 dx, by Plancherel."""
    return float(_sobolev2_rows(field.values[None], field.grid, (0.0,))[0][0])


def energy(field: RadialField) -> float:
    """E[u] = (1/2) int |grad u|^2 dx + (1/8) int |u|^8 dx, gradient spectral (s = 1)."""
    u = field.values[None]
    return float(_energy_rows(u, field.grid, _sobolev2_rows(u, field.grid, (1.0,))[0])[0])


def s_density(field: RadialField) -> float:
    """||u||_{L^15_x}^15, the space-time partition integrand at one time."""
    return float(_s_density_rows(field.values[None], field.grid)[0])


def localized_mass(field: RadialField, R: float) -> float:
    """M(u; 0, R) = (int |chi(x/R) u|^2 dx)^(1/2), centered cutoff of scale R."""
    return float(_localized_mass_rows(field.values, field.grid, R))


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
    a, b = _localized_mass_rows(traj.frames[[lo, hi]], traj.grid, R)
    return float((b - a) / (times[hi] - times[lo]))


def _frame_windows(times: np.ndarray, t_a, t_b):
    """(lo, hi): frames lo..hi-1 lie inside [t_a, t_b], with a 1e-12 tolerance at both ends.

    The one owner of the frame-window rule; arrays of window ends give arrays lo and hi.
    """
    return np.searchsorted(times, t_a - 1e-12, "left"), np.searchsorted(times, t_b + 1e-12, "right")


def _frames_in(times: np.ndarray, t_a: float, t_b: float) -> slice:
    """The frames whose times lie inside [t_a, t_b], with a 1e-12 tolerance at both ends."""
    lo, hi = _frame_windows(times, t_a, t_b)
    return slice(int(lo), int(hi))


def morawetz_flux(traj, interval, R_cut: float) -> float:
    """int_I int_{|x|<R_cut} |u|^8 / |x| dx dt, time-trapezoid over frames."""
    if not (0 < R_cut <= traj.grid.r_max):
        raise ValueError(f"R_cut must lie in (0, r_max], got {R_cut}")
    sel = _frames_in(traj.times, *interval)
    times = traj.times[sel]
    if times.size < 2:
        raise ValueError("interval must contain at least two frames")
    r = traj.grid.nodes
    weight = np.where(r < R_cut, 1.0 / r, 0.0)
    vals = _block_rows(traj.frames[sel], lambda u: _volume_rows(np.abs(u) ** 8 * weight, traj.grid))
    return series_integral(times, vals)


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


def _lqt(values: np.ndarray, times: np.ndarray, q: float) -> float:
    """(int ||.||^q dt)^(1/q) by trapezoid over the frame times."""
    return series_integral(times, values**q) ** (1.0 / q)


def _wn_rows(u: np.ndarray, grid) -> list:
    """L^{10/3}_x and L^{90/41}_x norms of |nabla|^sc u and L^{10/7}_x norm of |nabla|^sc (|u|^6 u), every row."""
    (du,), (dn,) = (_fractional_rows(v, grid, (S_CRITICAL,)) for v in (u, _nonlinear_term(u)))
    return [_lp_rows(du, grid, 10.0 / 3.0), _lp_rows(du, grid, 90.0 / 41.0), _lp_rows(dn, grid, 10.0 / 7.0)]


def space_time_norms(traj, interval) -> NormReport:
    """S, W, N norms over the interval, all from the same stored frames.

    S = L^15_{t,x}; W = max of |nabla|^sc u in L^{10/3}_{t,x} and in
    L^15_t L^{90/41}_x; N = |nabla|^sc (|u|^6 u) in L^{10/7}_{t,x}.  S,
    mass, energy and sup ||u||_{H^sc} come from the trajectory's cached
    densities; only W and N transform frames, in blocks.
    """
    sel = _frames_in(traj.times, *interval)
    times = traj.times[sel]
    if times.size < 2:
        raise ValueError("interval must contain at least two frames")
    d = {k: traj.densities[k][sel] for k in ("s_density", "H_sc", "mass", "energy")}
    w_a, w_b, n_v = _block_rows(traj.frames[sel], _wn_rows, traj.grid)
    return NormReport(
        interval=(float(interval[0]), float(interval[1])),
        S=series_integral(times, d["s_density"]) ** (1.0 / 15.0),
        W=max(_lqt(w_a, times, 10.0 / 3.0), _lqt(w_b, times, 15.0)),
        N=_lqt(n_v, times, 10.0 / 7.0),
        sup_Hsc=float(d["H_sc"].max()),
        mass=float(d["mass"].mean()),
        energy=float(d["energy"].mean()),
    )


def series_integral(times: np.ndarray, values: np.ndarray) -> float:
    """Trapezoid of a sampled time series over its whole span (a pairwise sum)."""
    return float(np.trapezoid(values, times))


def cumulative_series_integral(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid of a sampled time series, C[0] = 0."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1:
        raise ValueError("times and values must be 1-d arrays of equal length")
    out = np.zeros_like(times)
    out[1:] = np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(times))
    return out


def series_integral_between(times, cumulative, t_a, t_b):
    """Integral over [t_a, t_b] via linear interpolation of the cumulative sums; arrays of ends give arrays."""
    return np.interp(t_b, times, cumulative) - np.interp(t_a, times, cumulative)


def series_cut_times(times: np.ndarray, cum: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """First time cum reaches each target in (0, cum[-1]], so a flat stretch is cut at its start; above, times[-1]."""
    out = np.full(targets.shape, times[-1])
    inside = targets <= cum[-1]
    c, i = targets[inside], np.searchsorted(cum, targets[inside], side="left")
    out[inside] = times[i - 1] + (c - cum[i - 1]) / (cum[i] - cum[i - 1]) * (times[i] - times[i - 1])
    return out
