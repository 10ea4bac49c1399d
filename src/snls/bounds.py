"""Explicit quantitative formulas and continuity-argument bookkeeping.

Every threshold and growth formula is a pure function of its inputs and the
configured constants.  The doubly-exponential quantities overflow float64
almost immediately, so each result carries an exact log-space value next
to a saturating float (math.inf plus an overflow flag); all comparisons
and re-substitution checks run in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import functionals as fn
from .intervals import ProofConstants, _cut_count, _merges_sliver, eta_of
from .radial import _block_rows, _fractional_rows, _lp_rows

__all__ = [
    "eta_of",
    "absorb_check",
    "scattering_bound",
    "slow_growth_g",
    "theorem1_plan",
    "relaxed_regularity_plan",
    "m0_solve",
    "bootstrap_monitor",
    "BoundReport",
    "build_bound_report",
]

LOG_MAX = 700.0  # exp overflows float64 shortly after this
S_CRITICAL = fn.S_CRITICAL


def _sat_exp(x: float) -> tuple[float, bool]:
    if x >= LOG_MAX:
        return math.inf, True
    return math.exp(x), False


@dataclass(frozen=True)
class AbsorbRecord:
    name: str
    C2_rule: float
    holds: bool
    lhs: float
    rhs: float


def absorb_check(E: float, C2: float, p: float, eps_target: float, C: float = 2.0):
    """The three absorption inequalities with their sufficient-C2 rules.

    1. E eta^p < eps, with the rule C2 > max(1/p, eps^(-1/p));
    2. eta^C E^(-p) >= eta^C' with C' = C + p/C2, at the given C2;
    3. E^p eta^(-C) <= eta^(-C-eps), with the rule C2 > p/eps.
    Each record evaluates its inequality at the rule's minimal C2 (or the
    given C2 for rule 2).
    """
    if not (p > 0 and eps_target > 0):
        raise ValueError("p and eps_target must be positive")
    out = []

    if math.isinf(eps_target):
        c2a = 1.0
    else:
        c2a = max(1.0, 1.0 / p, eps_target ** (-1.0 / p)) * (1.0 + 1e-9)
    eta_a = eta_of(E, c2a)
    lhs_a = E * eta_a**p
    out.append(AbsorbRecord("E*eta^p < eps", c2a, bool(lhs_a < eps_target), lhs_a, eps_target))

    eta_b = eta_of(E, C2)
    c_prime = C + p / C2
    lhs_b = eta_b**C * max(E, 1e-300) ** (-p)
    rhs_b = eta_b**c_prime
    out.append(AbsorbRecord("eta^C * E^-p >= eta^C'", C2, bool(lhs_b >= rhs_b), lhs_b, rhs_b))

    if math.isinf(eps_target):
        c2c = 1.0
    else:
        c2c = max(1.0, p / eps_target) * (1.0 + 1e-9)
    eta_c = eta_of(E, c2c)
    lhs_c = E**p * eta_c ** (-C)
    rhs_c = eta_c ** (-C - eps_target) if not math.isinf(eps_target) else math.inf
    out.append(AbsorbRecord("E^p * eta^-C <= eta^-C-eps", c2c, bool(lhs_c <= rhs_c), lhs_c, rhs_c))
    return out


@dataclass(frozen=True)
class SaturatingValue:
    value: float
    log_value: float
    overflow: bool


def _saturating(log_v: float) -> SaturatingValue:
    """exp(log_v) with its exact log, saturated to inf with the overflow flag."""
    v, over = _sat_exp(log_v)
    return SaturatingValue(v, log_v, over)


def scattering_bound(E: float, C: float) -> SaturatingValue:
    """C exp(C E^C), with E clamped to the formula's stated domain E >= 1.

    Monotone nondecreasing in E; saturates to inf with the overflow flag
    instead of trapping.
    """
    if not E >= 0:
        raise ValueError(f"E must be nonnegative, got {E}")
    if not C >= 1:
        raise ValueError(f"C must be >= 1, got {C}")
    e_eff = max(E, 1.0)
    with np.errstate(over="ignore"):  # E^C past float64 saturates to inf
        log_v = math.log(C) + C * float(np.float64(e_eff) ** C)
    return _saturating(log_v)


def _interp_ceiling_log(delta: float, E0: float, log_2R0: float) -> float:
    """log of the interpolation ceiling E0^(1-delta) (2 R0)^delta on sup ||u||_{H^sc}."""
    return (1.0 - delta) * math.log(E0) + delta * log_2R0


def _corollary_count(log_M0: float, constants: ProofConstants) -> float:
    """2 C C_tilde log^(1/2)(2 M0), the corollary's interval-count ceiling."""
    return 2.0 * constants.C * constants.C_tilde * math.sqrt(log_M0 + math.log(2.0))


def slow_growth_g(t: float, C: float) -> float:
    """g(t) = [C^-1 log(log^(1/2) t)]^(1/C), defined for t > e."""
    if not C >= 1:
        raise ValueError(f"C must be >= 1, got {C}")
    if not t > math.e:
        raise ValueError(f"t must exceed e, got {t}")
    return (math.log(math.sqrt(math.log(t))) / C) ** (1.0 / C)


@dataclass(frozen=True)
class PlanResult:
    """theorem1_plan output: the bootstrap radius, threshold, and final bound."""

    closed: bool
    failure: str | None
    R0: SaturatingValue
    delta0: float
    delta: float
    m_ceiling: float
    s_ceiling_log: float
    bound: SaturatingValue
    interp_ceiling_log: float
    theta: float | None = None  # set by the relaxed-regularity variant

    def to_json(self) -> dict:
        return {
            "closed": self.closed,
            "failure": self.failure,
            "R0": self.R0.value,
            "log_R0": self.R0.log_value,
            "delta0": self.delta0,
            "delta": self.delta,
            "theta": self.theta,
            "m_ceiling": self.m_ceiling,
            "s_ceiling_log": self.s_ceiling_log,
            "bound": self.bound.value,
            "log_bound": self.bound.log_value,
        }


def theorem1_plan(M: float, E0: float, delta: float, constants: ProofConstants) -> PlanResult:
    """Continuity-argument bookkeeping: R0, delta0, interval count, final bound.

    R0 = 4 C' (2 C_tilde)^((C/eps) exp(2 C E0^C)) M with eps = (4 C_tilde)^-1;
    delta0 solves (2 R0)^(C delta0) = 2 exactly; the closure check verifies
    4 C' (2 C_tilde)^m M <= R0 in log space with m the interval-count
    ceiling at the requested delta.  delta >= delta0 yields a failure
    descriptor, not an exception.
    """
    if not (M > 0 and E0 >= 1):
        raise ValueError("need M > 0 and E0 >= 1")
    if not (0 < delta < 1):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    C, Ct, Cp = constants.C, constants.C_tilde, constants.C_prime
    eps = 1.0 / (4.0 * Ct)

    with np.errstate(over="ignore"):  # E0^C past float64 saturates to inf
        m_for_R0_log = math.log(C / eps) + 2.0 * C * float(np.float64(E0) ** C)
    m_for_R0, m_over = _sat_exp(m_for_R0_log)
    if m_over:
        log_R0 = math.inf
    else:
        log_R0 = math.log(4.0 * Cp) + m_for_R0 * math.log(2.0 * Ct) + math.log(M)
    R0 = _saturating(log_R0)

    log_2R0 = math.log(2.0) + log_R0
    delta0 = math.log(2.0) / (C * log_2R0) if math.isfinite(log_2R0) else 0.0

    log_EM = C * (math.log(E0) + delta * math.log(M))
    bound_log = math.log(C) + C * math.exp(min(log_EM, LOG_MAX))
    bound = _saturating(bound_log)

    interp_log = _interp_ceiling_log(delta, E0, log_2R0)

    if delta >= delta0:
        return PlanResult(
            closed=False,
            failure=f"delta = {delta} >= delta0 = {delta0}: bootstrap does not close",
            R0=R0, delta0=delta0, delta=delta, m_ceiling=math.inf,
            s_ceiling_log=math.inf, bound=bound, interp_ceiling_log=interp_log,
        )

    pow_2R0 = math.exp(C * delta * log_2R0)  # (2 R0)^(C delta), <= 2 below delta0
    m_ceiling = (C / eps) * math.exp(min(C * E0**C * pow_2R0, LOG_MAX))
    s_ceiling_log = math.log(4.0 * Cp) + m_ceiling * math.log(2.0 * Ct) + math.log(M)
    closed = s_ceiling_log <= log_R0 * (1.0 + 1e-12) + 1e-12
    return PlanResult(
        closed=bool(closed),
        failure=None if closed else "S-ceiling exceeds R0",
        R0=R0, delta0=delta0, delta=delta, m_ceiling=m_ceiling,
        s_ceiling_log=s_ceiling_log, bound=bound, interp_ceiling_log=interp_log,
    )


def relaxed_regularity_plan(M: float, E: float, delta: float, eps_reg: float, constants: ProofConstants) -> PlanResult:
    """theorem1_plan with the upper regularity relaxed from sc+1 to sc+eps_reg.

    The interpolation between sc-delta and sc+eps_reg-delta reaches sc
    with exponent theta = delta/eps_reg, which replaces delta in the
    bootstrap pipeline; theta >= 1 (delta >= eps_reg) cannot close.
    """
    if not (0 < eps_reg <= 1):
        raise ValueError(f"eps_reg must lie in (0, 1], got {eps_reg}")
    theta = delta / eps_reg
    if theta >= 1:
        rough = theorem1_plan(M, E, min(delta, 0.5), constants)
        return replace(rough, closed=False,
                       failure=f"theta = delta/eps_reg = {theta} >= 1: interpolation cannot reach sc",
                       delta0=eps_reg * rough.delta0, delta=delta, m_ceiling=math.inf,
                       s_ceiling_log=math.inf, interp_ceiling_log=math.inf, theta=theta)
    plan = theorem1_plan(M, E, theta, constants)
    return replace(plan, delta0=eps_reg * plan.delta0, delta=delta, theta=theta)


@dataclass(frozen=True)
class M0Result:
    M0: SaturatingValue
    residual: float  # lhs - rhs at the returned point (log-space inequality)
    floor_active: bool


def _m0_gap(x: float, log_u0: float, constants: ProofConstants) -> float:
    """lhs - rhs of the M0 inequality at x = log(M0)."""
    rhs = (x - math.log(3.0 * constants.C_prime) - log_u0) / math.log(2.0 * constants.C_tilde)
    return _corollary_count(x, constants) - rhs


def m0_solve(u0_norm: float, constants: ProofConstants, rel_tol: float = 1e-6) -> M0Result:
    """Smallest M0 >= 2*u0_norm with 2 C C_tilde log^(1/2)(2 M0) <= log(M0/(3 C' u0)) / log(2 C_tilde).

    Solved by geometric bracket expansion and bisection on log(M0); the
    iterated-log growth guarantees a solution exists.  The closure this
    feeds is 3 C' (2 C_tilde)^m u0 <= M0 at m = 2 C C_tilde log^(1/2)(2 M0).
    """
    if not u0_norm > 0:
        raise ValueError(f"u0_norm must be positive, got {u0_norm}")
    log_u0 = math.log(u0_norm)
    x_floor = max(math.log(2.0 * u0_norm), math.log(0.5) + 1e-9)
    if _m0_gap(x_floor, log_u0, constants) <= 0.0:
        return M0Result(_saturating(x_floor), _m0_gap(x_floor, log_u0, constants), True)
    lo = x_floor
    hi = max(x_floor, 1.0)
    for _ in range(400):
        hi *= 2.0
        if _m0_gap(hi, log_u0, constants) <= 0.0:
            break
    else:
        raise RuntimeError("bracket expansion failed")
    while hi - lo > rel_tol * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        if _m0_gap(mid, log_u0, constants) <= 0.0:
            hi = mid
        else:
            lo = mid
    return M0Result(_saturating(hi), _m0_gap(hi, log_u0, constants), False)


def _component_series(traj, orders):
    """Per-frame L^(10/3)_x norms of |nabla|^s u for the requested s values."""
    g = traj.grid
    series = _block_rows(traj.frames, lambda u: [_lp_rows(du, g, 10.0 / 3.0) for du in _fractional_rows(u, g, orders)])
    return dict(zip(orders, series))


def bootstrap_monitor(traj, mode: str, params: dict, constants: ProofConstants):
    """Sweep T over frame times and check the continuity-argument hypothesis chain.

    mode 'theorem1' uses S(u,[0,T]) (five components including the sc+1
    norms) against params R0/log_R0, delta, E0; mode 'corollary' uses
    T(u,[0,T]) (three components) against params log_M0 and the slow-growth
    ceiling.  Each sweep record carries the functional value, every
    ceiling, and the first violated link, as one JSON-able dict.

    The greedy cut of [0, T_m] into intervals of L15 mass eps is a prefix
    of the cut of the whole run, so the run is cut once and each record
    reads its prefix.  Only a record's last cut is its own: the cut of
    [0, T_m] stops at T_m, which the run's cut passes where n * quantum
    rounds above cum_s15[m], and it is T_m wherever the mass past
    n * quantum is a sliver that partition_by_eta merges into the last
    interval (intervals._merges_sliver, which also decides whether a
    record counts a tail interval).  A cut that cannot fit in physical
    memory raises intervals.PartitionTooLarge.
    """
    if mode not in ("theorem1", "corollary"):
        raise ValueError(f"unknown mode {mode!r}")
    times = traj.times
    d = traj.densities
    C, Ct = constants.C, constants.C_tilde
    if mode == "theorem1":
        if np.isnan(d["H_sc_plus1"]).any():
            raise ValueError("trajectory has non-finite cached H_sc_plus1 norms")
        grad_orders, eps = (S_CRITICAL, S_CRITICAL + 1.0), 1.0 / (4.0 * Ct)
        log_R0 = params["log_R0"]
        interp_log = _interp_ceiling_log(params["delta"], params["E0"], math.log(2.0) + log_R0)
        m_ceiling = params["m_ceiling"]
        sup_p1 = np.maximum.accumulate(d["H_sc_plus1"])
    else:
        grad_orders, eps = (S_CRITICAL,), 1.0 / (2.0 * Ct)
        log_M0 = params["log_M0"]
        m_ceiling = _corollary_count(log_M0, constants)
    grads = _component_series(traj, grad_orders)
    cum_s15 = fn.cumulative_series_integral(times, d["s_density"])
    cum_g = {s: fn.cumulative_series_integral(times, grads[s] ** (10.0 / 3.0)) for s in grad_orders}
    quantum = eps ** 2.5  # interval cut: ||u||_L15(I)^6 = eps, i.e. integral of s_density = eps^(5/2)
    sup_hsc = np.maximum.accumulate(d["H_sc"])

    records, counts, merged = [], [], []
    for m in range(1, times.size):
        # scalar powers, in this order: NumPy's array ** can round differently from pow
        s15 = cum_s15[m] ** (1.0 / 15.0)
        val = sup_hsc[m] + s15 + cum_g[S_CRITICAL][m] ** 0.3
        violated = None
        if mode == "theorem1":
            val += sup_p1[m] + cum_g[S_CRITICAL + 1.0][m] ** 0.3
            if math.log(max(val, 1e-300)) > log_R0:
                violated = "S(u,T) <= R0"
            elif math.log(max(sup_hsc[m], 1e-300)) > interp_log:
                violated = "interpolation ceiling"
        elif math.log(max(val, 1e-300)) > log_M0:
            violated = "T(u,T) <= M0"
        elif s15 > math.e and sup_hsc[m] > slow_growth_g(s15, C):
            violated = "slow-growth hypothesis"
        total_mass = float(cum_s15[m])
        n_full = int(total_mass / quantum)
        sliver = _merges_sliver(total_mass - n_full * quantum, quantum)
        m_count = n_full if sliver else n_full + 1
        if violated is None and m_count > m_ceiling:
            violated = "partition count"
        records.append({
            "T": float(times[m]),
            "functional": float(val),
            "sup_Hsc": float(sup_hsc[m]),
            "interval_count": m_count,
            "m_ceiling": float(m_ceiling),
            "max_doubling_ratio": None,
            "violated": violated,
        })
        counts.append(n_full)
        merged.append(sliver)
        if violated is not None:
            break

    # per-interval doubling, on the run's cut as far as the last record that reaches this link
    reach = [i for i, rec in enumerate(records) if rec["violated"] is None and counts[i] >= 2]
    if not reach:
        return records

    def interval_s(a, b):
        """S-value of [a, b] from the frames within 1e-12 of it and its two integrals; None without a frame."""
        sel = fn._frames_in(times, a, b)
        if sel.stop <= sel.start:
            return None
        i15 = float(fn.series_integral_between(times, cum_s15, a, b))
        ig = float(fn.series_integral_between(times, cum_g[S_CRITICAL], a, b))
        return float(d["H_sc"][sel].max()) + i15 ** (1.0 / 15.0) + ig ** 0.3

    n = _cut_count(float(cum_s15[reach[-1] + 1]), quantum, counts[reach[-1]])
    cuts = np.concatenate(([times[0]], fn.series_cut_times(times, cum_s15, np.arange(1, n + 1) * quantum)))
    lo, hi = fn._frame_windows(times, cuts[:-1], cuts[1:])
    held = np.flatnonzero(hi > lo)
    s_held = [interval_s(cuts[j], cuts[j + 1]) for j in held]
    ratios = np.divide(s_held[1:], np.maximum(s_held[:-1], 1e-300))  # ratios[k - 1]: held k over held k - 1
    running = np.maximum.accumulate(ratios)
    first_broken = next(iter(np.flatnonzero(ratios > 2.0 * Ct)), ratios.size)
    for i in reach:
        m, n = i + 1, counts[i]
        c = int(np.searchsorted(held, n - 1))  # held intervals before the record's last one
        last = min(c - 2, first_broken)  # the record's last shared link
        doubling = float(running[last]) if last >= 0 else None
        # the record's own last interval, whose cut stops at T_m, and ends there when it absorbs a sliver
        end = times[m] if merged[i] else min(cuts[n], times[m])
        s = interval_s(cuts[n - 1], end) if c and last < first_broken else None
        if s is not None:
            ratio = s / max(s_held[c - 1], 1e-300)
            doubling = max(doubling or 0.0, ratio)
        records[i]["max_doubling_ratio"] = doubling
        if last == first_broken or (s is not None and ratio > 2.0 * Ct):
            records[i]["violated"] = "per-interval doubling"
            return records[: i + 1]
    return records


@dataclass(frozen=True)
class BoundReport:
    """Evaluations of every explicit threshold formula at one parameter point."""

    E: float
    M: float
    delta: float
    constants: ProofConstants
    eta: float
    exceptional_ceiling: float  # C E^15 / eta^C1
    scattering: SaturatingValue
    plan: PlanResult
    M0: M0Result
    g_values: dict

    def to_json(self) -> dict:
        return {
            "E": self.E,
            "M": self.M,
            "delta": self.delta,
            "constants": self.constants.to_dict(),
            "eta": self.eta,
            "exceptional_ceiling": self.exceptional_ceiling,
            "scattering_bound": self.scattering.value,
            "log_scattering_bound": self.scattering.log_value,
            "plan": self.plan.to_json(),
            "M0": self.M0.M0.value,
            "log_M0": self.M0.M0.log_value,
            "g_values": self.g_values,
        }


def build_bound_report(E: float, M: float, delta: float, constants: ProofConstants) -> BoundReport:
    grid = [10.0, 1e3, 1e6, 1e12]
    g_vals = {f"{t:g}": slow_growth_g(t, constants.C) for t in grid}
    return BoundReport(
        E=E, M=M, delta=delta, constants=constants,
        eta=constants.eta(E),
        exceptional_ceiling=constants.exceptional_ceiling(E),
        scattering=scattering_bound(E, constants.C),
        plan=theorem1_plan(M, max(E, 1.0), delta, constants),
        M0=m0_solve(max(M, 1e-12), constants),
        g_values=g_vals,
    )
