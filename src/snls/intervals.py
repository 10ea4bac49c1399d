"""Interval combinatorics: threshold-mass partition, classification, selection.

The time axis is cut into consecutive intervals each carrying a fixed
quantum of L^15 space-time mass; intervals where an endpoint-anchored free
flow still carries significant mass are flagged exceptional.  The
recursive selection extracts a dyadically-decreasing chain of
unexceptional intervals clustered near a common time, with a brute-force
oracle to certify it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field as dc_field, fields, replace

import numpy as np

from . import functionals as fn
from .evolve import Trajectory, _free_flow_rows
from .radial import _block_rows, _hardy_mass_rows, _is_real, _physical_memory, to_spectral

__all__ = [
    "eta_of",
    "ProofConstants",
    "IntervalDecomposition",
    "SelectionResult",
    "PartitionTooLarge",
    "partition_by_eta",
    "partition_trajectory",
    "classify",
    "concentration_scan",
    "select_long_interval",
    "recursive_select",
    "brute_force_chain",
    "mass_bracketing_audit",
    "linear_flow_floor",
    "synthetic_decomposition",
    "dyadic_tail_check",
    "linear_density_series",
]

UNEXCEPTIONAL = "unexceptional"
EXCEPTIONAL = "exceptional"
TAIL = "tail"
FLAGS = (UNEXCEPTIONAL, EXCEPTIONAL, TAIL)


def eta_of(E, C2: float):
    """eta = (1/C2) (1+E)^(-C2), the partition quantum for ceiling E (scalar or array E)."""
    if not np.all(np.asarray(E) >= 0):
        raise ValueError(f"E must be nonnegative, got {E}")
    if not C2 >= 1:
        raise ValueError(f"C2 must be >= 1, got {C2}")
    return (1.0 / C2) * (1.0 + E) ** (-C2)


@dataclass(frozen=True)
class ProofConstants:
    """The constant hierarchy 1 <= C0 <= C1 <= C2 plus the auxiliary knobs.

    The auxiliary constants are configuration, not derived quantities:
    c (small generic), C >= 1 (large generic), C_tilde (window threshold),
    C_prime (bootstrap prefactor).
    """

    C0: float = 1.0
    C1: float = 1.0
    C2: float = 1.0
    c: float = 0.25
    C: float = 2.0
    C_tilde: float = 8.0
    C_prime: float = 1.0

    def __post_init__(self):
        if not (1.0 <= self.C0 <= self.C1 <= self.C2):
            raise ValueError(f"need 1 <= C0 <= C1 <= C2, got {self.C0}, {self.C1}, {self.C2}")
        if not self.C >= 1:
            raise ValueError(f"constant C must be >= 1, got {self.C}")
        for name in ("c", "C_tilde", "C_prime"):
            if not getattr(self, name) > 0:
                raise ValueError(f"constant {name} must be positive")

    @staticmethod
    def from_dict(obj) -> "ProofConstants":
        """Constants from a JSON object; an unknown key or a non-numeric value is a ValueError."""
        if not isinstance(obj, dict):
            raise ValueError(f"constants must be a JSON object, got {type(obj).__name__}")
        for key, value in obj.items():
            if key not in ProofConstants.__dataclass_fields__:
                raise ValueError(f"unknown constant {key!r}")
            if not _is_real(value):
                raise ValueError(f"constant {key} must be a number, got {value!r}")
        return ProofConstants(**obj)

    def eta(self, E: float) -> float:
        """eta = (1/C2) (1+E)^(-C2), the partition quantum for ceiling E."""
        return eta_of(E, self.C2)

    def dist_cap(self, eta: float) -> float:
        return self.C * eta ** (-self.C)

    def window_threshold(self, eta: float) -> float:
        return self.C_tilde * eta ** (-self.C)

    def exceptional_ceiling(self, E: float) -> float:
        """C max(E, 1)^15 / eta^C1, the ceiling on the number of exceptional intervals; inf past float64."""
        with np.errstate(over="ignore", divide="ignore"):  # E^15 overflows, or eta^C1 underflows to 0
            return float(self.C * np.float64(max(E, 1.0)) ** 15 / self.eta(E) ** self.C1)

    def to_dict(self) -> dict:
        return asdict(self)


def _frozen(values, dtype) -> np.ndarray:
    """A read-only copy of values, so the caller's array stays writable."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class IntervalDecomposition:
    """Consecutive intervals covering [t_-, t_+] with per-interval mass and flag.

    The per-interval fields are read-only arrays: intervals (J, 2) endpoints
    as given, masses (J,), flags (J,) of strings and, once classify has run,
    linear_masses (J, 2), the (minus, plus) anchored free-flow masses.
    The constructor is the one owner of the input rules; a breach is a
    ValueError.
    """

    intervals: np.ndarray
    masses: np.ndarray
    eta: float
    flags: np.ndarray
    classified: bool = False
    linear_masses: np.ndarray | None = None

    def __post_init__(self):
        iv = _frozen(self.intervals, float)
        masses = _frozen(self.masses, float)
        flags = _frozen(self.flags, object)  # references to the flag strings, not a copy of each
        J = len(iv)
        if not J:
            raise ValueError("decomposition must contain at least one interval")
        if iv.shape != (J, 2) or masses.shape != (J,) or flags.shape != (J,):
            raise ValueError("intervals must be (t0, t1) pairs, with one mass and one flag per interval")
        nonfinite = iv[~np.isfinite(iv)]
        if nonfinite.size:
            raise ValueError(f"every endpoint must be finite, got {nonfinite[0]}")
        degenerate = np.flatnonzero(~(iv[:, 0] < iv[:, 1]))
        if degenerate.size:
            raise ValueError(f"degenerate interval {iv[degenerate[0]].tolist()}")
        if (np.abs(iv[1:, 0] - iv[:-1, 1]) > 1e-9 * np.maximum(1.0, np.abs(iv[:-1, 1]))).any():
            raise ValueError("intervals must be consecutive")
        unknown = flags[~np.isin(flags, FLAGS)]
        if unknown.size:
            raise ValueError(f"flag must be one of {FLAGS}, got {str(unknown[0])!r}")
        if (flags[:-1] == TAIL).any():
            raise ValueError("at most one tail interval, and only in last position")
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be finite and positive, got {self.eta!r}")
        if not (np.isfinite(masses) & (masses >= 0)).all():
            raise ValueError("every mass must be finite and nonnegative")
        object.__setattr__(self, "intervals", iv)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "eta", float(self.eta))
        object.__setattr__(self, "flags", flags)
        if self.linear_masses is not None:
            lm = _frozen(self.linear_masses, float)
            if lm.shape != (J, 2):
                raise ValueError("linear_masses must hold one (minus, plus) pair per interval")
            object.__setattr__(self, "linear_masses", lm)

    def __eq__(self, other):
        if not isinstance(other, IntervalDecomposition):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    def __len__(self) -> int:
        return len(self.intervals)

    @property
    def span(self) -> tuple[float, float]:
        return float(self.intervals[0, 0]), float(self.intervals[-1, 1])

    def lengths(self) -> np.ndarray:
        return self.intervals[:, 1] - self.intervals[:, 0]

    def indices(self, flag: str) -> list[int]:
        return np.flatnonzero(self.flags == flag).tolist()

    def to_json(self) -> dict:
        return {
            "eta": self.eta,
            "intervals": [
                {"t0": a, "t1": b, "mass": m, "flag": f}
                for (a, b), m, f in zip(self.intervals.tolist(), self.masses.tolist(), self.flags.tolist())
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "IntervalDecomposition":
        """The decomposition of to_json's layout; a string, true or false among the numbers is a ValueError."""
        rows = obj["intervals"]
        columns = {"eta": [obj["eta"]], **{key: [row[key] for row in rows] for key in ("t0", "t1", "mass")}}
        for key, values in columns.items():
            bad = [v for v in dict(zip(map(type, values), values)).values() if not _is_real(v)]  # one check per type
            if bad:
                raise ValueError(f"{key} must be a number, got {bad[0]!r}")
        return IntervalDecomposition(
            intervals=list(zip(columns["t0"], columns["t1"])),
            masses=columns["mass"],
            eta=float(obj["eta"]),
            flags=[row["flag"] for row in rows],
            classified=True,
        )


@dataclass(frozen=True)
class SelectionResult:
    """A dyadic chain of unexceptional intervals concentrated near t_star."""

    t_star: float
    chain: tuple
    K: int
    dist_ratios: tuple
    dist_cap: float
    window_spans: tuple = dc_field(default=(), compare=False)

    def to_json(self) -> dict:
        return {
            "t_star": self.t_star,
            "chain": list(self.chain),
            "K": self.K,
            "dist_ratios": list(self.dist_ratios),
            "dist_cap": self.dist_cap,
        }


class PartitionTooLarge(ValueError):
    """A threshold-mass partition with more cuts than physical memory can hold."""


def _cut_count(total: float, eta: float, J) -> int:
    """J, the number of full intervals of mass eta in int s dt = total, as an int.

    Every caller that allocates the cuts of a threshold-mass partition asks
    here first: when J + 1 float64 cuts cannot fit in physical memory, this
    raises PartitionTooLarge before numpy is asked for the array.
    """
    memory = _physical_memory()
    if not (J + 1) * 8 <= memory:
        raise PartitionTooLarge(f"partition too large: int s dt = {total:.6g} in pieces of eta = {eta:.6g} "
                                f"makes J = {J:.6g} intervals, whose J + 1 cuts need more than the "
                                f"{memory} bytes of physical memory")
    return int(J)


def _merges_sliver(remainder: float, eta: float) -> bool:
    """Whether the mass past the last full interval of a threshold-eta cut is a sliver: at most 1e-9 eta.

    The one sliver rule: a sliver is absorbed by the last full interval,
    which then ends where the cut span does, and is no tail of its own.
    """
    return remainder <= 1e-9 * eta


def partition_by_eta(times, density, eta: float) -> IntervalDecomposition:
    """Greedy left-to-right cut whenever the running L^15 mass reaches eta.

    The running mass and its inverse are functionals' time rule, so each
    non-tail interval carries mass in [eta, 2*eta] (exactly eta except
    possibly the last, which absorbs a terminal sliver).  A remainder
    below eta becomes a flagged tail.  Cuts that cannot fit in physical
    memory raise PartitionTooLarge.
    """
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    times = np.asarray(times, dtype=float)
    density = np.asarray(density, dtype=float)
    if (density < 0).any():
        raise ValueError("density must be nonnegative")
    if times.size < 2:
        raise ValueError("need at least two samples")
    cum = fn.cumulative_series_integral(times, density)
    total = float(cum[-1])
    t_a, t_b = float(times[0]), float(times[-1])

    if total < eta:
        return IntervalDecomposition(
            intervals=((t_a, t_b),), masses=(total,), eta=eta, flags=(TAIL,)
        )

    n_full = _cut_count(total, eta, np.floor(total / eta + 1e-12))
    remainder = total - n_full * eta
    merge_sliver = _merges_sliver(remainder, eta)
    targets = np.arange(1, n_full if merge_sliver else n_full + 1) * eta  # a merged sliver ends at t_b
    cuts = np.concatenate(([t_a], fn.series_cut_times(times, cum, targets), [t_b]))
    masses = np.full(cuts.size - 1, eta)
    flags = np.full(cuts.size - 1, UNEXCEPTIONAL, dtype=object)
    if merge_sliver:
        masses[-1] += remainder
    else:
        masses[-1], flags[-1] = remainder, TAIL
    return IntervalDecomposition(intervals=np.column_stack((cuts[:-1], cuts[1:])), masses=masses, eta=eta, flags=flags)


def partition_trajectory(traj: Trajectory, eta: float) -> IntervalDecomposition:
    return partition_by_eta(traj.times, traj.densities["s_density"], eta)


def linear_density_series(traj: Trajectory, anchor_index: int) -> np.ndarray:
    """||e^{i(t - t_anchor) L} u(t_anchor)||_L15^15 at every frame time.

    The anchor is transformed once; each block of frame times then costs
    one inverse transform.
    """
    coeffs = to_spectral(traj.field(anchor_index)).coeffs
    return _block_rows(traj.times - traj.times[anchor_index],
                       lambda dts: fn._s_density_rows(_free_flow_rows(dts, coeffs, traj.grid), traj.grid))


def _free_flow_masses(traj: Trajectory, anchor_index: int, a, b) -> np.ndarray:
    """int_a^b ||e^{i(t - t_anchor) L} u(t_anchor)||_L15^15 dt over intervals [a, b] (arrays or scalars)."""
    cum = fn.cumulative_series_integral(traj.times, linear_density_series(traj, anchor_index))
    return fn.series_integral_between(traj.times, cum, a, b)


def classify(decomp: IntervalDecomposition, traj: Trajectory, constants: ProofConstants) -> IntervalDecomposition:
    """Flag intervals where an endpoint-anchored free flow carries mass > eta^C1.

    The two anchors are the data at the decomposition's global endpoints:
    the forward flow of u(t_-) and the backward-anchored flow of u(t_+).
    The tail interval keeps its flag and is excluded from the statistics.
    """
    a, b = decomp.intervals.T
    lin = np.column_stack([_free_flow_masses(traj, traj.frame_index(t), a, b) for t in decomp.span])
    flags = np.full(len(decomp), UNEXCEPTIONAL, dtype=object)
    flags[lin.max(axis=1) > decomp.eta ** constants.C1] = EXCEPTIONAL
    flags[decomp.flags == TAIL] = TAIL
    return replace(decomp, flags=flags, classified=True, linear_masses=lin)


@dataclass(frozen=True)
class ConcentrationCertificate:
    j: int
    radius: float
    reference: float  # eta^C |I_j|^(7/12)
    min_ratio: float
    t_min: float
    resolvable: bool


def concentration_scan(traj: Trajectory, decomp: IntervalDecomposition, constants: ProofConstants):
    """Localized-mass concentration certificates on the unexceptional intervals.

    For each unexceptional j the certified quantity is the minimum over
    sampled times of M(u(t); 0, C eta^-C |I_j|^(1/2)) / (eta^C |I_j|^(7/12)).
    The sampled times are the stored frames inside I_j, or the one nearest
    its midpoint when none is; the first minimum wins.  A radius beyond
    r_max marks the certificate unresolvable; it is never silently clipped.
    """
    if not decomp.classified:
        raise ValueError("decomposition must be classified first")
    js = decomp.indices(UNEXCEPTIONAL)
    eta = decomp.eta
    a, b = decomp.intervals[js].T
    radii = constants.dist_cap(eta) * np.sqrt(b - a)
    # scalar powers, as for a single interval: NumPy's array ** can round differently from pow
    references = [eta**constants.C * L ** (7.0 / 12.0) for L in (b - a).tolist()]
    ok = radii <= traj.grid.r_max
    min_ratio, t_min = np.full(len(js), np.nan), np.full(len(js), np.nan)
    min_ratio[ok], t_min[ok] = _first_minima(traj, a[ok], b[ok], radii[ok], np.asarray(references)[ok])
    return [ConcentrationCertificate(*cert)
            for cert in zip(js, radii, references, min_ratio.tolist(), t_min.tolist(), ok.tolist())]


def _first_minima(traj: Trajectory, a, b, radii, references) -> tuple[np.ndarray, np.ndarray]:
    """Per interval [a, b]: the first minimum over its sampled frames of localized mass / reference, and its time.

    The sampled frames are those inside [a, b], or the one nearest the
    midpoint when none is.  Every (interval, frame) pair is one row of a
    single pass through the localized-mass kernel, in raw blocks, with |u|
    taken once per distinct frame of a block.
    """
    if not a.size:
        return a, a
    lo, hi = fn._frame_windows(traj.times, a, b)
    empty = lo == hi
    lo[empty] = traj.nearest_frame(0.5 * (a[empty] + b[empty]))
    hi[empty] = lo[empty] + 1
    counts = hi - lo
    starts = np.cumsum(counts) - counts  # each interval's first row
    owner = np.repeat(np.arange(a.size), counts)
    frame = lo[owner] + np.arange(owner.size) - starts[owner]
    row_radii = radii[owner]

    def rows(p):
        distinct, which = np.unique(frame[p], return_inverse=True)
        return fn._localized_mass_rows(np.abs(traj.frames[distinct])[which], traj.grid, row_radii[p])

    ratios = _block_rows(np.arange(owner.size), rows) / references[owner]
    # the first row holding each interval's minimum; a NaN is the minimum, as np.argmin takes it
    low = np.minimum.reduceat(ratios, starts)[owner]
    hit = np.flatnonzero((ratios == low) | (np.isnan(low) & np.isnan(ratios)))
    first = hit[np.r_[True, owner[hit][1:] != owner[hit][:-1]]]
    return ratios[first], traj.times[frame[first]]


@dataclass(frozen=True)
class LongIntervalResult:
    j_star: int
    length: float
    span: float
    satisfied: bool  # length >= c eta^(3 C1 / 2) * span at the configured c


def select_long_interval(decomp: IntervalDecomposition, index_range, constants: ProofConstants) -> LongIntervalResult:
    """Leftmost argmax of |I_j| over the inclusive index range."""
    j_a, j_b = int(index_range[0]), int(index_range[1])
    if not (0 <= j_a <= j_b < len(decomp)):
        raise ValueError(f"bad index range {index_range}")
    lengths = decomp.lengths()
    j_star = j_a + int(np.argmax(lengths[j_a : j_b + 1]))
    span = decomp.intervals[j_b][1] - decomp.intervals[j_a][0]
    floor = constants.c * decomp.eta ** (1.5 * constants.C1) * span
    return LongIntervalResult(j_star, float(lengths[j_star]), float(span), bool(lengths[j_star] >= floor))


def _longest_run(mask: np.ndarray) -> tuple[int, int]:
    """The leftmost longest run of True in a boolean mask holding a True, as an inclusive (lo, hi) pair."""
    edges = np.diff(mask.view(np.int8), prepend=0, append=0)
    starts, stops = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    k = int(np.argmax(stops - starts))
    return int(starts[k]), int(stops[k]) - 1


def recursive_select(
    decomp: IntervalDecomposition,
    constants: ProofConstants,
    removal_span: str = "window",
) -> SelectionResult:
    """Select a dyadic chain of unexceptional intervals near one time t_star.

    Step 0 picks the largest maximal run of consecutive unexceptional
    indices and its longest interval.  Each later step removes the chosen
    index together with every interval longer than half its length, picks
    the largest remaining run inside the window, and selects its longest
    interval; iteration stops once the window's index span drops to the
    threshold C_tilde * eta^-C or nothing remains.  Ties go to the
    leftmost run and the leftmost interval.  t_star is the midpoint of
    the last chain interval.

    removal_span chooses the removed index range: "window" (the whole
    current window; keeps the dyadic decrease automatic) or
    "left_of_selected" (only indices up to the selected one; the chain is
    then cut short if the dyadic decrease would fail).

    The output satisfies all SelectionResult invariants on any input:
    on inputs without the long-interval guarantee the distance cap is
    enforced by shrinking the first window or cutting the chain.
    """
    if removal_span not in ("window", "left_of_selected"):
        raise ValueError(f"unknown removal_span {removal_span!r}")
    alive = decomp.flags == UNEXCEPTIONAL
    if not alive.any():
        raise ValueError("no unexceptional intervals")
    cap = constants.dist_cap(decomp.eta)
    threshold = constants.window_threshold(decomp.eta)
    lengths = decomp.lengths()
    a, b = decomp.intervals.T

    lo, hi = _longest_run(alive)
    chain = []
    spans = []
    while True:
        j_k = lo + int(np.argmax(lengths[lo : hi + 1]))  # every index of the window is alive
        if not chain and b[hi] - a[lo] > cap * lengths[j_k]:
            # inadmissible first window: shrink to the selected interval alone
            lo = hi = j_k
        if chain:
            if lengths[j_k] > lengths[chain[-1]] / 2.0:
                break  # dyadic decrease unavailable (left_of_selected reading)
            if b[hi] - a[lo] > cap * lengths[j_k]:
                break  # distance cap would fail for this link
        chain.append(j_k)
        spans.append(float(b[hi] - a[lo]))
        if hi - lo <= threshold:
            break
        stop = hi if removal_span == "window" else j_k
        alive[lo : stop + 1] &= ~(lengths[lo : stop + 1] > lengths[j_k] / 2.0)
        alive[j_k] = False
        if not alive[lo : hi + 1].any():
            break
        run_lo, run_hi = _longest_run(alive[lo : hi + 1])
        lo, hi = lo + run_lo, lo + run_hi

    t_star = 0.5 * (a[chain[-1]] + b[chain[-1]])
    dist = np.maximum(0.0, np.maximum(a[chain] - t_star, t_star - b[chain]))
    return SelectionResult(
        t_star=float(t_star),
        chain=tuple(chain),
        K=len(chain),
        dist_ratios=tuple((dist / lengths[chain]).tolist()),
        dist_cap=float(cap),
        window_spans=tuple(spans),
    )


def check_selection_invariants(decomp: IntervalDecomposition, sel: SelectionResult) -> None:
    """Raise AssertionError unless the chain is dyadic, unexceptional, and close."""
    lengths = decomp.lengths()
    assert sel.K == len(sel.chain) >= 1
    for j in sel.chain:
        assert decomp.flags[j] == UNEXCEPTIONAL, f"chain index {j} not unexceptional"
    for j_prev, j_next in zip(sel.chain, sel.chain[1:]):
        assert lengths[j_prev] >= 2.0 * lengths[j_next] - 1e-12 * lengths[j_prev], (
            f"dyadic decrease fails at {j_prev} -> {j_next}"
        )
    for j, r in zip(sel.chain, sel.dist_ratios):
        a, b = decomp.intervals[j]
        dist = max(0.0, a - sel.t_star, sel.t_star - b)
        assert abs(dist / lengths[j] - r) <= 1e-9 * max(1.0, r)
        assert r <= sel.dist_cap * (1 + 1e-12), f"distance ratio {r} exceeds cap {sel.dist_cap}"


def brute_force_chain(lengths, positions, exceptional, dist_cap, t_candidates=None) -> int:
    """Polynomial oracle: the maximum dyadic-chain length over candidate times.

    For each candidate t the eligible intervals are the unexceptional ones
    with dist(t, I_j) <= dist_cap * |I_j|; the longest chain under
    |next| <= |prev| / 2 is found by dynamic programming over the lengths
    sorted in decreasing order.  Always >= recursive_select's K on the
    same instance (midpoints are among the default candidates).
    """
    lengths = np.asarray(lengths, dtype=float)
    positions = np.asarray(positions, dtype=float)
    exceptional = np.asarray(exceptional, dtype=bool)
    J = lengths.size
    if J > 200:
        raise ValueError("oracle limited to J <= 200")
    t0 = positions
    t1 = positions + lengths
    if t_candidates is None:
        t_candidates = np.unique(np.concatenate([t0, t1, 0.5 * (t0 + t1)]))
    best = 0
    for t in np.asarray(t_candidates, dtype=float):
        dist = np.maximum(0.0, np.maximum(t0 - t, t - t1))
        ok = (~exceptional) & (dist <= dist_cap * lengths)
        elig = np.sort(lengths[ok])[::-1]
        if elig.size == 0:
            continue
        dp = np.ones(elig.size, dtype=int)
        for i in range(elig.size):
            prev = dp[:i][elig[:i] >= 2.0 * elig[i]]
            if prev.size:
                dp[i] = prev.max() + 1
        best = max(best, int(dp.max()))
    return best


def dyadic_tail_check(lengths, k: int, N: int) -> tuple[bool, float, float]:
    """Evaluate sum_{l >= k+N} L_l^(7/6) <= 2^(-7N/12) L_k^(7/6) on a chain.

    Returns (holds, lhs, rhs).  Note the arithmetic margin: for chains
    decaying by the minimal factor 2 exactly, the geometric prefactor
    1/(1 - 2^(-7/6)) ~ 1.80 exceeds 2^(7/12) ~ 1.50, so N = 1 can fail
    with three or more tail terms; any per-step factor >= 2.2 (or N >= 2)
    makes the bound hold for arbitrarily long chains.
    """
    lengths = np.asarray(lengths, dtype=float)
    if not (0 <= k < lengths.size) or N < 1:
        raise ValueError("need 0 <= k < len(lengths) and N >= 1")
    lhs = float((lengths[k + N :] ** (7.0 / 6.0)).sum())
    rhs = float(2.0 ** (-7.0 * N / 12.0) * lengths[k] ** (7.0 / 6.0))
    return lhs <= rhs, lhs, rhs


@dataclass(frozen=True)
class BracketingStep:
    k: int
    j: int
    length: float
    radius: float
    resolvable: bool
    lower_ratio: float  # measured mass / (eta^C L^(7/12))
    upper_ratio: float  # measured mass / (eta^-C L^(7/12))
    tail_holds: bool
    tail_lhs: float
    tail_rhs: float


@dataclass(frozen=True)
class BracketingReport:
    t_star: float
    t_frame: float
    frame_substituted: bool
    N: int
    steps: tuple
    hardy_lhs: float
    hardy_rhs: float
    K: int
    K_cap: float
    implied_Jprime_ceiling: float

    def to_json(self) -> dict:
        return {
            "t_star": self.t_star,
            "t_frame": self.t_frame,
            "frame_substituted": self.frame_substituted,
            "N": self.N,
            "K": self.K,
            "K_cap": self.K_cap,
            "implied_Jprime_ceiling": self.implied_Jprime_ceiling,
            "hardy_lhs": self.hardy_lhs,
            "hardy_rhs": self.hardy_rhs,
            "steps": [vars(s) for s in self.steps],
        }


def mass_bracketing_audit(
    traj: Trajectory,
    decomp: IntervalDecomposition,
    sel: SelectionResult,
    constants: ProofConstants,
) -> BracketingReport:
    """Numerical evaluation of the chained mass inequalities at t_star.

    Purely diagnostic: reports per-step ratios against the reference
    scales eta^(+-C) |I|^(7/12), the dyadic tail comparison at
    N = ceil(C log(1/eta)), the weighted-Hardy comparison, and the final
    K versus C eta^-C with the implied ceiling exp(C eta^-C) on the
    number of unexceptional intervals.
    """
    eta = decomp.eta
    m = traj.nearest_frame(sel.t_star)
    t_frame = float(traj.times[m])
    substituted = abs(t_frame - sel.t_star) > 1e-9 * max(1.0, abs(sel.t_star))
    u_star = traj.field(m)
    lengths = decomp.lengths()
    chain_lengths = lengths[list(sel.chain)]
    N = max(1, int(np.ceil(constants.C * np.log(1.0 / eta)))) if eta < 1 else 1

    radii = constants.dist_cap(eta) * np.sqrt(chain_lengths)
    ok = radii <= traj.grid.r_max
    meas = np.full(radii.shape, np.nan)
    meas[ok] = fn._localized_mass_rows(u_star.values, traj.grid, radii[ok])  # u_star against one radius per row
    steps = []
    for k, j in enumerate(sel.chain):
        L = float(lengths[j])
        ref = L ** (7.0 / 12.0)
        holds, lhs, rhs = dyadic_tail_check(chain_lengths, k, N)
        steps.append(
            BracketingStep(
                k=k,
                j=int(j),
                length=L,
                radius=float(radii[k]),
                resolvable=bool(ok[k]),  # a NumPy bool would not go into diagnose.json
                lower_ratio=float(meas[k] / (eta**constants.C * ref)),
                upper_ratio=float(meas[k] / (eta ** (-constants.C) * ref)),
                tail_holds=holds,
                tail_lhs=lhs,
                tail_rhs=rhs,
            )
        )

    hardy_lhs = float(_hardy_mass_rows(u_star.values, traj.grid, fn.S_CRITICAL))
    hardy_rhs = float(eta ** (-7.0 * constants.C / 3.0) * traj.densities["H_sc"][m] ** 2)
    k_cap = constants.dist_cap(eta)
    with np.errstate(over="ignore"):
        ceiling = float(np.exp(min(k_cap, 700.0)))
    return BracketingReport(
        t_star=sel.t_star,
        t_frame=t_frame,
        frame_substituted=substituted,
        N=N,
        steps=tuple(steps),
        hardy_lhs=hardy_lhs,
        hardy_rhs=hardy_rhs,
        K=sel.K,
        K_cap=float(k_cap),
        implied_Jprime_ceiling=ceiling,
    )


def linear_flow_floor(traj: Trajectory, decomp: IntervalDecomposition, j: int) -> tuple[float, float]:
    """Ratios to eta of the endpoint-anchored free flows' mass over interval j.

    Diagnostic only.  Anchors snap to the nearest stored frames of the
    interval endpoints.
    """
    a, b = decomp.intervals[j]
    if decomp.masses[j] < decomp.eta / 2.0:
        raise ValueError(f"interval {j} carries mass {decomp.masses[j]} < eta/2")
    return tuple(float(_free_flow_masses(traj, m, a, b) / decomp.eta) for m in traj.nearest_frame(np.array([a, b])))


def synthetic_decomposition(
    rng: np.random.Generator,
    J: int,
    eta: float,
    length_ratio: float = 64.0,
    p_exceptional: float = 0.15,
    t0: float = 0.0,
) -> IntervalDecomposition:
    """Random admissible decomposition: log-uniform lengths, random flags."""
    if J < 1:
        raise ValueError("J must be >= 1")
    lengths = np.exp(rng.uniform(0.0, np.log(length_ratio), size=J))
    cuts = t0 + np.concatenate(([0.0], np.cumsum(lengths)))
    flags = np.where(rng.random(J) < p_exceptional, EXCEPTIONAL, UNEXCEPTIONAL)
    if (flags == EXCEPTIONAL).all():
        flags[int(rng.integers(J))] = UNEXCEPTIONAL
    masses = rng.uniform(eta, 2.0 * eta, size=J)
    return IntervalDecomposition(np.column_stack((cuts[:-1], cuts[1:])), masses, eta, flags, classified=True)
