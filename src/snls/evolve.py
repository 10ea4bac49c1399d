"""Time evolution: exact free flow, Strang split-stepping, Duhamel machinery.

The linear group e^{it Laplacian} is exact in sine-coefficient space, so the
only stepping error is the Strang splitting commutator; the adaptive rule
bounds the nonlinear phase increment |u|^6 dt per step.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import time
from dataclasses import asdict, dataclass, field as dc_field, fields

import numpy as np

from . import functionals as fn
from .radial import (
    _FRAME_BLOCK, RadialField, RadialGrid, SpectralField, _block_rows, _dst1, _is_real, _path, _physical_memory,
    _pool, _sobolev2_rows, _spectral_rows, _volume_rows, from_spectral, to_spectral,
)

__all__ = [
    "StepController",
    "Trajectory",
    "free_evolve",
    "nonlinear_phase",
    "strang_step",
    "evolve",
    "duhamel_residual",
    "duhamel_tail",
    "average_translate",
    "linear_trajectory",
]

S_CRITICAL = fn.S_CRITICAL


@dataclass(frozen=True)
class StepController:
    """Adaptive stepping knobs: dt = min(dt_max, theta / max(1e-12, sup|u|^6))."""

    dt_max: float = 0.01
    theta: float = 0.1
    snapshot_stride: float = 0.02
    boundary_mass_tol: float = 1e-6
    blowup_ceiling: float = 1e6
    sobolev_delta: float = 0.1

    def __post_init__(self):
        # every field lies in (0, hi]; sobolev_delta <= s_c keeps the H_sc_minus order s_c - delta in [0, s_c)
        upper = {"theta": 1.0, "sobolev_delta": S_CRITICAL}
        for f in fields(self):
            value, hi = getattr(self, f.name), upper.get(f.name, math.inf)
            if not (_is_real(value) and 0 < value <= hi):
                raise ValueError(f"{f.name} must lie in (0, {hi:.6g}], got {value!r}")


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped frames plus cached per-frame scalar densities.

    densities keys: mass, energy, H_sc, H_sc_minus, H_sc_plus1,
    s_density (||u||_L15^15), boundary_mass.
    Immutable after a run; safe to share read-only across workers.
    frames is taken without a copy: loaded from a run directory it is a
    read-only, row-strided view of the mapped frame log (each row is
    contiguous), so read it by rows or row blocks.
    """

    grid: RadialGrid
    times: np.ndarray
    frames: np.ndarray  # (n_frames, n) complex
    densities: dict
    provenance: dict = dc_field(default_factory=dict, compare=False)
    status: str = "ok"
    boundary_breach: bool = False

    def __post_init__(self):
        t = np.ascontiguousarray(self.times, dtype=float)
        f = np.asarray(self.frames, dtype=np.complex128)
        if f.shape != (t.size, self.grid.n):
            raise ValueError("frames must have shape (len(times), grid.n)")
        if t.size >= 2 and not (np.diff(t) > 0).all():
            raise ValueError("times must be strictly increasing")
        for k, v in self.densities.items():
            if len(v) != t.size:
                raise ValueError(f"density series {k!r} has wrong length")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "frames", f)
        t.flags.writeable = False
        f.flags.writeable = False

    def field(self, m: int) -> RadialField:
        return RadialField(self.grid, self.frames[m])

    def nearest_frame(self, t):
        """Index of the stored frame whose time is closest to t, the earlier one on an exact tie.

        The one owner of the nearest-frame rule.  An array of times gives an
        array of indices; each time is compared with the two frames around it
        only, found by one searchsorted.
        """
        if not np.isfinite(t).all():
            raise ValueError(f"t must be finite, got {t}")
        times = self.times
        i = np.searchsorted(times, t)
        lo, hi = np.maximum(i - 1, 0), np.minimum(i, times.size - 1)
        m = np.where(np.abs(times[hi] - t) < np.abs(times[lo] - t), hi, lo)
        return int(m) if m.ndim == 0 else m

    def frame_index(self, t: float) -> int:
        m = self.nearest_frame(t)
        if abs(self.times[m] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"t = {t} is not a stored frame time")
        return m

    @property
    def t_span(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])


def _propagator(grid: RadialGrid, dt) -> np.ndarray:
    """exp(-i rho_k^2 dt): one row per entry of an array dt, a single row for a scalar.

    A block of rows that the sine transform runs on two workers (two or
    more rows of at least 1023 samples, on two or more CPUs; see
    radial._path) takes the exponential of its second half on the helper
    thread while the caller computes the first.  np.exp works element by
    element, so the bits are those of one call.
    """
    phase = -1j * grid.frequencies**2 * np.asarray(dt, dtype=float)[..., None]
    if _path(phase.shape) != "workers":
        return np.exp(phase)
    out = np.empty_like(phase)
    h = len(phase) // 2
    upper = _pool().submit(np.exp, phase[h:], out=out[h:])
    np.exp(phase[:h], out=out[:h])
    upper.result()
    return out


def _free_flow_rows(dts: np.ndarray, coeffs: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """Samples of e^{i dt L} w, one row per dt, from the sine coefficients of w."""
    return _dst1(coeffs * _propagator(grid, dts)) / grid.nodes


def free_evolve(field: RadialField, t: float) -> RadialField:
    """e^{it Laplacian}: multiply sine coefficients by exp(-i rho_k^2 t)."""
    if t == 0.0:
        return field
    spec = to_spectral(field)
    return from_spectral(SpectralField(field.grid, spec.coeffs * _propagator(field.grid, t)))


def nonlinear_phase(field: RadialField, dt: float) -> RadialField:
    """Exact solution of i u_t = |u|^6 u: pointwise phase e^{-i|u|^6 dt}."""
    if dt == 0.0:
        return field
    u = field.values
    return RadialField(field.grid, u * np.exp(-1j * np.abs(u) ** 6 * dt))


# the cached per-frame densities, in densities.csv column order
_DENSITY_KEYS = ("mass", "energy", "H_sc", "H_sc_minus", "H_sc_plus1", "s_density", "boundary_mass")


def _frame_stats(u: np.ndarray, grid: RadialGrid, ctl: StepController) -> list:
    """The cached densities of every row of a raw (k, n) block of frames, one array per key of _DENSITY_KEYS.

    The one formula for each cached density; one sine transform serves
    all five spectral norms.
    """
    orders = (0.0, 1.0, S_CRITICAL - ctl.sobolev_delta, S_CRITICAL, S_CRITICAL + 1.0)
    m, grad2, h_minus, h_sc, h_plus = _sobolev2_rows(u, grid, orders)
    outer = grid.nodes > 0.9 * grid.r_max  # boundary shell watched for domain truncation
    return [m, fn._energy_rows(u, grid, grad2), np.sqrt(h_sc), np.sqrt(h_minus), np.sqrt(h_plus),
            fn._s_density_rows(u, grid), _volume_rows(np.where(outer, np.abs(u) ** 2, 0.0), grid)]


def _trajectory(grid, times, frames, ctl: StepController, provenance: dict, status: str = "ok",
                stats=None) -> Trajectory:
    """Trajectory with its densities (evolve's stats rows, else computed here) and the boundary-breach flag.

    The flag marks a frame with boundary mass above tol * initial mass.
    """
    frames = np.asarray(frames, dtype=np.complex128)
    densities = dict(zip(_DENSITY_KEYS, _block_rows(frames, _frame_stats, grid, ctl) if stats is None else stats))
    mass0 = densities["mass"][0] if len(times) else 0.0
    breach = bool(mass0 > 0 and (densities["boundary_mass"] > ctl.boundary_mass_tol * mass0).any())
    return Trajectory(grid, np.asarray(times, dtype=float), frames, densities, provenance=provenance, status=status,
                      boundary_breach=breach)


def _time_span(t_span) -> tuple[float, float]:
    """(t_a, t_b) of an increasing pair of finite real numbers; the one owner of the time-span rule."""
    if not (len(t_span) == 2 and all(_is_real(t) and math.isfinite(t) for t in t_span) and t_span[0] < t_span[1]):
        raise ValueError(f"must be an increasing pair of finite numbers, got {t_span}")
    return float(t_span[0]), float(t_span[1])


def _check_frame_count(t_a: float, t_b: float, stride: float, n: int) -> None:
    """ValueError naming snapshot_stride when the frames of a run over (t_a, t_b] cannot fit in physical memory.

    The frames, the initial one and t_b's included, number at most
    (t_b - t_a)/stride + 3 on any anchor, each of n complex samples; the
    rule is that of intervals._cut_count, counted before any loop or array.
    """
    frames = (t_b - t_a) / stride + 3
    memory = _physical_memory()
    if not frames * n * 16 <= memory:
        raise ValueError(f"snapshot_stride = {stride:.6g} over the time span ({t_a:.6g}, {t_b:.6g}] makes "
                         f"{frames:.6g} frames of n = {n} samples, more than the {memory} bytes of physical "
                         f"memory hold")


def _snapshot_times(t_a: float, t_b: float, stride: float, anchor: float | None = None, n: int = 1) -> np.ndarray:
    """Snapshot boundaries anchor + k*stride inside (t_a, t_b], always ending at t_b.

    The anchor (default t_a) keeps resumed runs on the original grid.  The
    frames at these times, n samples each, must fit in memory
    (_check_frame_count).
    """
    _check_frame_count(t_a, t_b, stride, n)
    anchor = t_a if anchor is None else anchor
    k = int(np.floor((t_a - anchor) / stride + 1e-9)) + 1
    out = []
    while True:
        t = anchor + stride * k
        if t >= t_b - 1e-12 * max(1.0, abs(t_b)):
            break
        if t > t_a + 1e-12 * max(1.0, abs(t_a)):
            out.append(t)
        k += 1
    out.append(t_b)
    return np.array(out)


_PROPAGATOR_TABLE = 8  # distinct dt values kept per run: dt_max plus recent short steps


def _rotate(v: np.ndarray, q: np.ndarray, h: float) -> np.ndarray:
    """v * exp(-i q^3 h): the nonlinear flow for time h, given q = |v|^2 (a new array)."""
    ph = q * q
    ph *= q
    ph *= -h
    out = np.empty_like(v)
    np.cos(ph, out=out.real)
    np.sin(ph, out=out.imag)
    out *= v
    return out


def _modulus2(v: np.ndarray) -> np.ndarray:
    q = v.real * v.real
    q += v.imag * v.imag
    return q


def _step(v: np.ndarray, q: np.ndarray, pending: float, dt: float, prop: np.ndarray, r: np.ndarray):
    """The package's one Strang step, on raw samples: (w, |w|^2, max|w|^2), or None.

    v (q = |v|^2) owes a half-phase of length pending, merged with the step's opening one; prop is
    exp(-i rho^2 dt).  w owes its own closing half-phase dt/2; None when that would not be finite.
    The caller must ignore overflow and invalid (np.errstate), since a step that overflows is that
    None: evolve enters that state once per snapshot segment, strang_step once per call.
    """
    w = _rotate(v, q, pending + 0.5 * dt)
    w *= r
    c = _dst1(w)
    c *= prop
    w = _dst1(c)
    w /= r
    q_w = _modulus2(w)
    qmax_w = float(q_w.max())
    if not math.isfinite(qmax_w * qmax_w * qmax_w * (0.5 * dt)):
        return None
    return w, q_w, qmax_w


def strang_step(field: RadialField, dt: float) -> RadialField:
    """Second-order split step: half nonlinear phase, free flow, half phase; FloatingPointError if not finite.

    The step itself runs with overflow and invalid ignored, as _step requires.
    """
    if dt == 0.0:
        return field
    g, u = field.grid, field.values
    q, prop = _modulus2(u), _propagator(g, dt)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _step(u, q, 0.0, dt, prop, g.nodes)
    if out is None:
        raise FloatingPointError(f"non-finite samples after step dt = {dt}")
    return RadialField(g, _rotate(out[0], out[1], 0.5 * dt))


def evolve(
    u0: RadialField,
    t_span,
    ctl: StepController,
    provenance: dict | None = None,
    on_frame=None,
    snap_anchor: float | None = None,
) -> Trajectory:
    """Adaptive split-step evolution with frames every snapshot_stride.

    Aborts with a partial trajectory on step-rejection cascade (status
    'dt_underflow') or when sup|u| exceeds the blow-up ceiling (status
    'blowup_abort').  A boundary-mass breach only sets a flag; the run
    continues.  on_frame(t, field, stats), when given, fires at every
    stored frame including the initial one, in frame order and one frame
    at a time, under the caller's context (its np.errstate included).
    Stored frames are finished (their statistics, then on_frame) in
    blocks of radial._FRAME_BLOCK: a block is handed over once it is full,
    and the last, partial one when the run ends, an abort or the
    stepper's own exception included.  Inline, a block's statistics are
    one _frame_stats call, and an exception of on_frame surfaces when its
    block is finished.  Where blocks of rows take two threads
    (radial._path), each block's statistics (row by row) and on_frame run
    on the frame thread while the stepper runs on: the stepper waits for
    block b-1 before it hands over block b, so at most one block is in
    flight.  An exception of on_frame then surfaces at the next hand-over
    or when evolve ends, and no later frame reaches on_frame.  When the
    stepper raises, its stored frames are still finished unless frame
    work has failed, and its exception wins; evolve returns or raises only
    once no block is in flight.

    Steps are `_step`'s, fused on raw arrays: the closing half-phase
    of one step and the opening half-phase of the next are applied as one
    phase exp(-i|u|^6 (dt_k + dt_{k+1})/2), which is exact because the
    phase leaves |u| unchanged.  Each snapshot segment starts from the
    stored frame and closes with the pending half-phase, so a run resumed
    from a frame repeats the original bytes.  A segment's steps run in one
    np.errstate that ignores overflow and invalid, entered once per
    segment rather than per step; storing its frame stays outside it.

    provenance['telemetry'] records accepted steps, rejected halvings, the
    dt range, the wall seconds of frame work (frame_s, on whichever thread
    ran it) and the seconds the stepper spent on it (frame_wait_s: its
    waits for the frame thread, or all of frame_s where the work runs
    inline).
    """
    t_a, t_b = _time_span(t_span)
    g = u0.grid
    snap_times = _snapshot_times(t_a, t_b, ctl.snapshot_stride, snap_anchor, g.n)
    r = g.nodes

    propagator = functools.lru_cache(maxsize=_PROPAGATOR_TABLE)(functools.partial(_propagator, g))

    times, stats = [], []
    frames = np.empty((snap_times.size + 1, g.n), dtype=np.complex128)  # every frame a run can store
    pool = _pool("frames") if _path((2, g.n)) == "workers" else None  # the frame thread, where blocks take two
    # rows per statistics call: a whole block inline; one on the frame thread, whose malloc arena would keep a block's
    # temporaries (about 15 MiB at n = 16384)
    rows = _FRAME_BLOCK if pool is None else 1
    context = contextvars.copy_context()  # the frame work runs under the caller's np.errstate
    inflight = None  # the future of the block whose work the frame thread holds
    handed = 0  # frames[:handed] are handed over to their finishing work, the rest are pending
    frame_s = frame_wait_s = 0.0

    def finish(lo: int, hi: int) -> None:
        nonlocal frame_s
        start = time.perf_counter()
        block = frames[lo:hi]
        st = np.concatenate([_frame_stats(block[j:j + rows], g, ctl) for j in range(0, hi - lo, rows)], axis=-1)
        stats.append(st)
        if on_frame is not None:
            for j in range(hi - lo):
                on_frame(times[lo + j], RadialField(g, block[j]), dict(zip(_DENSITY_KEYS, st[:, j])))
        frame_s += time.perf_counter() - start

    def settle() -> None:
        """Wait for the block in flight, and raise its exception here."""
        nonlocal inflight, frame_wait_s
        if inflight is not None:
            start = time.perf_counter()
            done, inflight = inflight, None
            try:
                done.result()
            finally:
                frame_wait_s += time.perf_counter() - start

    def hand_over() -> None:
        """Hand the pending frames over: finished inline, or on the frame thread once the block before is done."""
        nonlocal handed, inflight
        lo, handed = handed, len(times)  # counted as handed over first, so that frames after a failed block never are
        if lo == handed:
            return
        if pool is None:
            finish(lo, handed)
        else:
            settle()
            inflight = pool.submit(context.run, finish, lo, handed)

    def store(t: float, u: np.ndarray) -> None:
        frames[len(times)] = u
        times.append(t)
        if len(times) - handed == _FRAME_BLOCK:
            hand_over()

    status = "ok"
    steps = halvings = 0
    dt_lo, dt_hi = math.inf, 0.0
    u, t = u0.values, t_a
    try:
        store(t_a, u)
        for t_next in snap_times.tolist():
            # v is the field before its pending closing half-phase of length `pending`
            v, q, pending = u, _modulus2(u), 0.0
            qmax = float(q.max())
            # one error state per segment: sup^6 overflows to inf (and dt_raw to 0), and a step that overflows is
            # _step's None; the frame work in store() runs under the caller's state
            with np.errstate(over="ignore", invalid="ignore"):
                while status == "ok":
                    rem = t_next - t
                    if rem <= 1e-12 * max(1.0, abs(t_next)):
                        break
                    sup = math.sqrt(qmax)
                    if sup > ctl.blowup_ceiling:
                        status = "blowup_abort"
                        break
                    dt_raw = min(ctl.dt_max, ctl.theta / max(1e-12, float(np.float64(sup) ** 6)))
                    dt = min(dt_raw, rem)
                    if not t + dt > t:  # a zero, NaN or unresolvable step would never reach t_next
                        status = "dt_underflow"
                        break
                    while (out := _step(v, q, pending, dt, propagator(dt), r)) is None:
                        halvings += 1
                        dt /= 2.0
                        if dt < 1e-12 * dt_raw:
                            status = "dt_underflow"
                            break
                    if status != "ok":
                        break
                    (v, q, qmax), pending = out, 0.5 * dt
                    t += dt
                    steps += 1
                    dt_lo, dt_hi = min(dt_lo, dt), max(dt_hi, dt)
            if status != "ok":
                break
            t = t_next
            u = _rotate(v, q, pending) if pending else v
            store(t, u)
    except BaseException:
        # the stepper's exception wins; the frames it stored are still finished, unless frame work has failed
        if inflight is None or inflight.exception() is None:
            with contextlib.suppress(Exception):
                hand_over()
                settle()
        raise
    hand_over()
    settle()

    prov = dict(provenance or {})
    prov.setdefault("controller", asdict(ctl))
    prov["telemetry"] = {
        "steps": steps,
        "halvings": halvings,
        "dt_min": dt_lo if steps else None,
        "dt_max": dt_hi if steps else None,
        "frame_s": frame_s,
        "frame_wait_s": frame_s if pool is None else frame_wait_s,
    }
    return _trajectory(g, times, frames[:len(times)], ctl, prov, status, np.concatenate(stats, axis=-1))


def _windowed_duhamel_coeffs(traj: Trajectory, sel: np.ndarray, t: float) -> np.ndarray:
    """Sine coefficients of int over the selected frames of e^{i(t-t')L} |u|^6 u dt'."""
    g = traj.grid
    times = traj.times[sel]
    wts = np.zeros(sel.size)
    dt = np.diff(times)
    wts[:-1] += 0.5 * dt
    wts[1:] += 0.5 * dt
    acc = np.zeros(g.n, dtype=np.complex128)
    for lo in range(0, sel.size, _FRAME_BLOCK):
        blk = slice(lo, lo + _FRAME_BLOCK)
        c = _dst1(fn._nonlinear_term(traj.frames[sel[blk]]) * g.nodes) * _propagator(g, t - times[blk])
        acc += (wts[blk, None] * c).sum(axis=0)
    return acc


def duhamel_residual(traj: Trajectory, t: float, t_base: float | None = None,
                     include_nonlinearity: bool = True) -> float:
    """L2 norm of u(t) minus the integral-equation right-hand side.

    The right-hand side e^{i(t-t0)L} u(t0) - i int_{t0}^{t} e^{i(t-t')L}
    [|u|^6 u](t') dt' is evaluated by trapezoid quadrature over the stored
    frames; a small residual certifies the trajectory solves the
    integral equation at quadrature accuracy.  With
    include_nonlinearity=False the right-hand side is the bare linear
    flow (the check for nonlinearity-disabled runs).
    """
    t_base = traj.times[0] if t_base is None else t_base
    m_t = traj.frame_index(t)
    m_0 = traj.frame_index(t_base)
    if m_t - m_0 < 8:
        raise ValueError("need at least 8 frames before t for the Duhamel quadrature")
    g = traj.grid
    lin = to_spectral(traj.field(m_0)).coeffs * _propagator(g, t - traj.times[m_0])
    rhs = lin
    if include_nonlinearity:
        sel = np.arange(m_0, m_t + 1)
        rhs = lin - 1j * _windowed_duhamel_coeffs(traj, sel, t)
    resid = to_spectral(traj.field(m_t)).coeffs - rhs
    return float(np.sqrt(_spectral_rows(np.abs(resid) ** 2, g)))


def duhamel_tail(traj: Trajectory, window, t: float) -> RadialField:
    """v(t) = int over the window of e^{i(t-t')L}[|u|^6 u](t') dt'.

    The window must not contain t (the kernel bound needs separation);
    window endpoints snap to stored frame times.  v solves the free
    equation in t exactly at the quadrature level.
    """
    a, b = float(window[0]), float(window[1])
    if not a < b:
        raise ValueError(f"window must be increasing, got {window}")
    if a < t < b:
        raise ValueError(f"t = {t} lies inside the window ({a}, {b}); separation required")
    m_a, m_b = traj.frame_index(a), traj.frame_index(b)
    if m_b - m_a < 1:
        raise ValueError("window must contain at least two frames")
    sel = np.arange(m_a, m_b + 1)
    coeffs = _windowed_duhamel_coeffs(traj, sel, t)
    return from_spectral(SpectralField(traj.grid, coeffs))


def _mollifier_multiplier(grid: RadialGrid, r_avg: float) -> np.ndarray:
    """3D Fourier transform of the unit-mass mollifier chi_{r_avg} on the rho grid."""
    sig = np.linspace(0.0, 1.0, 2049)
    prof = fn.cutoff_profile(sig) * sig**2
    i2 = np.trapezoid(prof, sig)
    rho = grid.frequencies
    out = np.empty(grid.n)
    for lo in range(0, grid.n, 512):
        hi = min(lo + 512, grid.n)
        x = rho[lo:hi, None] * (r_avg * sig[None, :])
        out[lo:hi] = np.trapezoid(prof[None, :] * np.sinc(x / np.pi), sig, axis=1) / i2
    return out


def average_translate(field: RadialField, r_avg: float) -> RadialField:
    """Convolve with the unit-mass mollifier of scale r_avg (spherical averaging).

    Implemented as the exact spectral multiplier of the 3D radial
    convolution; the Dirichlet image at r_max is the only deviation from
    free space, negligible for fields supported away from the boundary
    (hence the precondition r_avg < r_max/4).  |multiplier| <= 1, so L^p
    norms do not increase (Young).
    """
    if not (0 < r_avg < field.grid.r_max / 4.0):
        raise ValueError(f"r_avg must lie in (0, r_max/4), got {r_avg}")
    m = _mollifier_multiplier(field.grid, r_avg)
    spec = to_spectral(field)
    return from_spectral(SpectralField(field.grid, spec.coeffs * m))


def _stored_stats(grid: RadialGrid, times: np.ndarray, frames: np.ndarray, ctl: StepController, stored):
    """The densities of the stored frames taken from stored, else None; the one owner of the cache-hit rule.

    stored is (times, densities) as read back from densities.csv.  Its rows
    belong to the frames when it has a row for every frame, its times equal
    the frame times bit for bit, and a fresh _frame_stats of the last frame
    equals that frame's row bit for bit (a CSV of another config or formula
    fails there).  An edited earlier row goes unseen.
    """
    if stored is None:
        return None
    csv_times, csv = stored
    f = len(times)
    if csv_times[:f].tobytes() != np.asarray(times, dtype=float).tobytes():  # also unequal when rows are missing
        return None
    rows = [csv[k][:f] for k in _DENSITY_KEYS]
    last = _frame_stats(frames[f - 1:f], grid, ctl)
    if any(row[-1:].tobytes() != fresh.tobytes() for row, fresh in zip(rows, last)):
        return None
    return rows


def rebuild_trajectory(
    grid: RadialGrid,
    times: np.ndarray,
    frames: np.ndarray,
    ctl: StepController,
    provenance: dict | None = None,
    status: str = "ok",
    stored=None,
) -> Trajectory:
    """Reconstruct a Trajectory from stored frames.

    stored, when given, is (times, densities) as read from the run's
    densities.csv.  Its rows are the densities when they provably belong to
    these frames (_stored_stats); otherwise every row is recomputed.  Both
    ways give the same bits, since evolve wrote the rows from the same
    formula.
    """
    return _trajectory(grid, times, frames, ctl, dict(provenance or {}), status,
                       _stored_stats(grid, times, frames, ctl, stored))


def linear_trajectory(u0: RadialField, t_span, ctl: StepController) -> Trajectory:
    """Free-flow trajectory sampled like evolve (nonlinearity disabled)."""
    t_a, t_b = _time_span(t_span)
    snap = np.concatenate(([t_a], _snapshot_times(t_a, t_b, ctl.snapshot_stride, n=u0.grid.n)))
    frames = _free_flow_rows(snap - t_a, to_spectral(u0).coeffs, u0.grid)
    return _trajectory(u0.grid, snap, frames, ctl, {"linear": True})
