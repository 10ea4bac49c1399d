"""Radial grid, sine-transform machinery, and norms for radial fields on R^3.

A complex radial field u(r) on R^3 is stored by its samples on a uniform
grid of n interior nodes r_i = i*dr, dr = r_max/(n+1).  The auxiliary
function w = r*u satisfies Dirichlet conditions w(0) = w(r_max) = 0, so the
type-I discrete sine transform of w diagonalizes the radial Laplacian.

Normalization (fixed once, used everywhere):

* spectral coefficients are the orthonormal DST-I of w, so the discrete
  Plancherel identity sum|c_k|^2 = sum|w_i|^2 holds exactly;
* the physical sine integral int_0^rmax w(r) sin(rho_k r) dr is recovered
  as dr*sqrt((n+1)/2)*c_k;
* L2 and Sobolev norms carry the 3D volume factor:
  ||u||_L2^2 = 4*pi*dr*sum|w_i|^2 = 4*pi*dr*sum|c_k|^2, and
  sobolev_norm(u, s)^2 = 4*pi*dr*sum rho_k^(2s)|c_k|^2,
  so s = 0 reproduces the L2 norm with constant exactly 1.

Volume integrals int_{R^3} f dx of radial f use one quadrature,
4*pi*dr*sum f_i r_i^2: the closed trapezoid rule on [0, r_max] with the
implied zero boundary values, spectrally accurate for smooth decaying
radial integrands (all odd derivatives vanish at both endpoints).
"""

from __future__ import annotations

import functools
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np

__all__ = [
    "RadialGrid",
    "RadialField",
    "SpectralField",
    "to_spectral",
    "from_spectral",
    "fractional_apply",
    "sobolev_norm",
    "lebesgue_norm",
    "rescale",
    "hardy_ratio",
]

S_MAX = 4.0  # validity range of the fractional multiplier rho^s


def _is_real(value) -> bool:
    """A real number and not a bool: JSON's true and false pass isinstance(value, numbers.Real), but are not numbers."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _fast_size(n: int) -> bool:
    """Power of two, or n+1 a product of 2, 3 and 5 (the DST-I runs an FFT of length 2(n+1))."""
    if n & (n - 1) == 0:
        return True
    m = n + 1
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid with Dirichlet endpoints at r = 0 and r = r_max."""

    r_max: float
    n: int

    def __post_init__(self):
        n_ok = isinstance(self.n, (int, np.integer)) and not isinstance(self.n, bool)
        if not n_ok or self.n < 8 or not _fast_size(self.n):
            raise ValueError(
                f"n must be an integer >= 8 that is a power of two or has n+1 {{2,3,5}}-smooth "
                f"(n = 2^k - 1 is fastest), got {self.n}"
            )
        if not (_is_real(self.r_max) and self.r_max > 0 and np.isfinite(self.r_max)):
            raise ValueError(f"r_max must be positive and finite, got {self.r_max}")

    @property
    def dr(self) -> float:
        return self.r_max / (self.n + 1)

    # built once per grid and shared by every caller, hence read-only; cached_property writes to the
    # instance __dict__, so the frozen dataclass still compares and hashes by (r_max, n) alone
    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """Interior nodes r_i = i*dr, i = 1..n."""
        r = self.dr * np.arange(1, self.n + 1)
        r.flags.writeable = False
        return r

    @functools.cached_property
    def frequencies(self) -> np.ndarray:
        """Sine frequencies rho_k = k*pi/r_max, k = 1..n."""
        rho = (np.pi / self.r_max) * np.arange(1, self.n + 1)
        rho.flags.writeable = False
        return rho


def _as_samples(grid: RadialGrid, values) -> np.ndarray:
    v = np.ascontiguousarray(values, dtype=np.complex128)
    if v.shape != (grid.n,):
        raise ValueError(f"values must have shape ({grid.n},), got {v.shape}")
    return v


@dataclass(frozen=True)
class RadialField:
    """Samples u(r_i) of a complex radial field; w = r*u vanishes at 0 and r_max."""

    grid: RadialGrid
    values: np.ndarray
    meta: dict = dc_field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _as_samples(self.grid, self.values))
        self.values.flags.writeable = False

    @property
    def w(self) -> np.ndarray:
        """w_i = r_i * u(r_i)."""
        return self.grid.nodes * self.values

    @staticmethod
    def zero(grid: RadialGrid) -> "RadialField":
        return RadialField(grid, np.zeros(grid.n, dtype=np.complex128))


@dataclass(frozen=True)
class SpectralField:
    """Orthonormal DST-I coefficients of w = r*u on the same grid."""

    grid: RadialGrid
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_samples(self.grid, self.coeffs))
        self.coeffs.flags.writeable = False


_FRAME_BLOCK = 16  # rows per raw block in every loop over stored frames


def _block_rows(frames: np.ndarray, rows, *args) -> np.ndarray:
    """Every per-frame series over stored frames: rows(block, *args) on raw blocks of at most _FRAME_BLOCK rows.

    rows maps a (k, n) block to k values, or to a list of such arrays; the
    results are joined along the last axis.
    """
    return np.concatenate([rows(frames[lo:lo + _FRAME_BLOCK], *args) for lo in range(0, len(frames), _FRAME_BLOCK)],
                          axis=-1)


@functools.cache
def _pool(role: str = "dst") -> ThreadPoolExecutor:
    """The one thread of this process for a role, started on first use.

    "dst" is the helper of the two-thread transform paths: the second half
    of a split row, and of a propagator block.  "frames" is evolve's frame
    thread, which finishes each stored frame while the stepper runs on.
    Frame work may submit to the "dst" helper, never the other way round, so
    no thread waits on work queued behind itself.
    """
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"snls-{role}")


# a forked child inherits the pool objects but not their threads: it starts its own on first use
if hasattr(os, "register_at_fork"):  # POSIX; elsewhere no process is forked
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask (so `taskset -c 0` gives 1); 1 where there is no mask."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _physical_memory() -> int:
    """Bytes of physical memory: the ceiling on the stored frames and on a partition's cuts."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


# Single rows: lane time over split time, medians of two sets of 20 interleaved one-row calls on a 2-core
# machine: 0.39-0.40 at n = 2047, 0.82-0.90 at 2048, 0.50-0.52 at 4095, 1.15-1.24 at 4096, 0.70-0.85 at
# 8191, 1.80-1.81 at 8192, 0.86-0.91 at 16383 and 1.32-1.43 at 16384, so the split takes the powers of two
# from 4096 up.  Blocks: one 16-row block on lanes, then on two pocketfft workers, medians of 7 calls:
# 0.33 -> 0.43 ms at n = 512, 0.51 -> 0.37 at 1023, 6.45 -> 3.44 at 2048, 34.1 -> 17.4 at 16384, so the
# workers take rows from _BLOCK_MIN samples up.  The lane gain needs pocketfft's two-wide SIMD; without it
# every path still gives the same bits.
_BLOCK_MIN = 1023


def _path(shape) -> str:
    """How _dst1 runs a complex array of this shape: "workers", "split" or "lanes".

    Blocks of two or more rows of at least _BLOCK_MIN samples take the lane
    view on two pocketfft workers; single rows of a power of two from 4096
    up take the helper-thread split.  Everything else, and any process that
    may run on one CPU only, takes the one-thread lane pass.
    """
    n = shape[-1]
    if math.prod(shape[:-1]) >= 2:
        return "workers" if n >= _BLOCK_MIN and _cpus() >= 2 else "lanes"
    return "split" if n >= 4096 and n & (n - 1) == 0 and _cpus() >= 2 else "lanes"


@functools.cache
def _sfft():
    """(scipy.fft.dst, pocketfft's dst), imported on the first sine transform and bound once.

    Not at module level: it adds ~0.2 s and ~25 MiB to every process, and
    config loading, initial data, `snls bounds` without --monitor and
    `snls select` never transform a field.  The second is the C routine in
    which scipy.fft.dst ends, dst(a, type, axes, inorm, out, nthreads).
    """
    import scipy.fft
    from scipy.fft._pocketfft.pypocketfft import dst

    return scipy.fft.dst, dst


def _dst1(x: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I along the last axis of a raw real or complex array; its own inverse.

    Every sine transform in the package goes through here, so the
    normalization above is fixed in this one place.  A (k, n) block gives
    the same bits row for row as k separate calls.

    A complex DST-I is two independent real DST-I's, of the real half and of
    the imaginary half; SciPy runs them one after the other.  Here a
    complex128 array takes one of three paths (see _path), and all give the
    bits of scipy.fft.dst:

    * lanes: the array is viewed, without a copy when its last axis is
      contiguous, as real (..., n, 2) and transformed along the n axis, so
      pocketfft runs both halves as the two lanes of one SIMD pass;
    * workers (blocks of rows of at least 1023 samples, on two or more
      CPUs): the same lane view on two pocketfft threads, which share the
      lane pairs out;
    * split (single rows of a power of two from 4096 up, on two or more
      CPUs): the imaginary half, in place in the output, runs on the helper
      thread (pocketfft releases the GIL) while the calling thread
      transforms the real half.

    Each lane, and each half, is the same real transform of the same
    samples, so the bits do not depend on the path; `taskset -c 0` keeps one
    thread.  Every path calls pocketfft's dst directly, with inorm = 1
    (norm="ortho" for type I): scipy.fft.dst spends 6-7 us a call on
    dispatch and argument checks before it reaches that routine, 40% of a
    512-sample lane pass (README, "Numerical design").  SciPy keeps the
    routine private; the tests pin every path byte for byte to the public
    scipy.fft.dst, so a change in SciPy fails them rather than drifting.
    Real input and other dtypes take scipy.fft.dst, which converts them.
    """
    scipy_dst, dst = _sfft()
    if x.dtype != np.complex128:
        return scipy_dst(x, type=1, norm="ortho")
    path = _path(x.shape)
    axes = (x.ndim - 1,)  # the last axis of x, of each half and of the lane view alike
    if path == "split":
        out = np.array(x)
        imag = _pool().submit(dst, out.imag, 1, axes, 1, out.imag, 1)
        dst(out.real, 1, axes, 1, out.real, 1)
        imag.result()
        return out
    if x.strides[-1] != x.itemsize:  # a float64 view needs the real and imaginary parts side by side
        x = np.ascontiguousarray(x)
    lanes = x.view(np.float64).reshape(x.shape + (2,))
    return dst(lanes, 1, axes, 1, None, 2 if path == "workers" else 1).view(np.complex128).reshape(x.shape)


def _volume_rows(f: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """int_{R^3} f dx of every row of a raw (..., n) block of radial samples: 4*pi*(dr*sum f_i r_i^2)."""
    return 4.0 * np.pi * (grid.dr * (f * grid.nodes**2).sum(axis=-1))


def _spectral_rows(c2: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """4*pi*dr*sum along the last axis: int |u|^2 dx by Plancherel when c2 = |c_k|^2."""
    return 4.0 * np.pi * grid.dr * c2.sum(axis=-1)


def _fractional_rows(u: np.ndarray, grid: RadialGrid, orders) -> list:
    """|nabla|^s (rho_k^s on the sine coefficients) of every row of a raw block, per order; one forward transform."""
    r = grid.nodes
    c = _dst1(u * r)
    return [_dst1(c * grid.frequencies**s) / r for s in orders]


def _sobolev2_rows(u: np.ndarray, grid: RadialGrid, orders) -> list:
    """Squared homogeneous H^s norms of every row of a raw block, one array per order.

    One transform serves every order: 4*pi*dr*sum rho_k^(2s) |c_k|^2, and
    s = 0 is the squared L2 norm.
    """
    c2 = np.abs(_dst1(u * grid.nodes)) ** 2
    rho = grid.frequencies
    return [_spectral_rows(c2 if s == 0.0 else rho ** (2.0 * s) * c2, grid) for s in orders]


def _lp_rows(u: np.ndarray, grid: RadialGrid, p: float) -> np.ndarray:
    """L^p(R^3) norm of every row of a raw block; p = inf gives the grid max of |u|."""
    if p == np.inf:
        return np.abs(u).max(axis=-1)
    return _volume_rows(np.abs(u) ** p, grid) ** (1.0 / p)


def _hardy_mass_rows(u: np.ndarray, grid: RadialGrid, alpha: float) -> np.ndarray:
    """int |u|^2 / |x|^(2 alpha) dx of every row of a raw block: the Hardy-weighted mass."""
    return _volume_rows(np.abs(u) ** 2 / grid.nodes ** (2.0 * alpha), grid)


def _require_finite(field: RadialField) -> None:
    bad = np.flatnonzero(~np.isfinite(field.values))
    if bad.size:
        raise ValueError(f"non-finite sample at index {bad[0]} (r = {field.grid.nodes[bad[0]]:.6g})")


def to_spectral(field: RadialField) -> SpectralField:
    """Sine-transform w = r*u; rejects non-finite samples with the offending index."""
    _require_finite(field)
    return SpectralField(field.grid, _dst1(field.w))


def from_spectral(spec: SpectralField) -> RadialField:
    """Inverse of to_spectral: u(r_i) = w_i / r_i."""
    bad = np.flatnonzero(~np.isfinite(spec.coeffs))
    if bad.size:
        raise ValueError(f"non-finite coefficient at index {bad[0]}")
    w = _dst1(spec.coeffs)
    return RadialField(spec.grid, w / spec.grid.nodes)


def _check_s(s: float):
    if not (0.0 <= s <= S_MAX):
        raise ValueError(f"order s must lie in [0, {S_MAX}], got {s}")


def fractional_apply(field: RadialField, s: float) -> RadialField:
    """Apply |nabla|^s as the multiplier rho_k^s on the sine coefficients."""
    _check_s(s)
    if s == 0.0:
        return field
    _require_finite(field)
    return RadialField(field.grid, _fractional_rows(field.values, field.grid, (s,))[0])


def sobolev_norm(field: RadialField, s: float) -> float:
    """Homogeneous Sobolev norm; s = 0 equals the L2 norm exactly."""
    _check_s(s)
    _require_finite(field)
    return float(np.sqrt(_sobolev2_rows(field.values, field.grid, (s,))[0]))


def lebesgue_norm(field: RadialField, p: float) -> float:
    """L^p(R^3) norm; p = inf returns the grid max of |u|."""
    if not p >= 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return float(_lp_rows(field.values, field.grid, p))


def rescale(field: RadialField, lam: float) -> RadialField:
    """Spatial scaling u_lam(r) = lam^(-1/3) u(r/lam), cubic resampling.

    Samples of u beyond r_max are treated as zero; if more than 1% of the
    L2 mass lives there the result carries meta['truncation_warning'].
    ``import snls`` loads numpy only; the first sine transform loads
    scipy.fft (_sfft), and rescale loads scipy.interpolate on first use.
    """
    if not (lam > 0 and np.isfinite(lam)):
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    g = field.grid
    if lam == 1.0:
        return field
    from scipy.interpolate import CubicSpline  # not at module level: it adds ~0.2 s and ~24 MiB to every process
    # interpolate w = r*u (vanishes at both ends) on the closed node set
    r_closed = np.concatenate(([0.0], g.nodes, [g.r_max]))
    w_closed = np.concatenate(([0.0], field.w, [0.0]))
    spline_re = CubicSpline(r_closed, w_closed.real)
    spline_im = CubicSpline(r_closed, w_closed.imag)
    q = g.nodes / lam
    inside = q <= g.r_max
    w_q = np.zeros(g.n, dtype=np.complex128)
    w_q[inside] = spline_re(q[inside]) + 1j * spline_im(q[inside])
    values = lam ** (-1.0 / 3.0) * w_q / q

    w2 = np.abs(field.w) ** 2
    total = w2.sum()
    meta = {}
    if total > 0:
        lost = w2[g.nodes > g.r_max / lam].sum() / total
        meta["mass_loss_fraction"] = float(lost)
        if lost > 0.01:
            meta["truncation_warning"] = True
    return RadialField(g, values, meta=meta)


def hardy_ratio(field: RadialField, alpha: float) -> float:
    """||u / r^alpha||_L2 / ||  |nabla|^alpha u ||_L2 for alpha in [0, 3/2)."""
    if not (0.0 <= alpha < 1.5):
        raise ValueError(f"alpha must lie in [0, 3/2), got {alpha}")
    rhs = sobolev_norm(field, alpha)
    lhs2 = _hardy_mass_rows(field.values, field.grid, alpha)
    if not lhs2 > 0:
        raise ValueError("hardy_ratio is undefined for the zero field")
    return float(np.sqrt(lhs2) / rhs)
