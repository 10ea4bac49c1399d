"""Explicit formula evaluations and continuity-argument bookkeeping."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snls.bounds import (
    absorb_check,
    bootstrap_monitor,
    build_bound_report,
    eta_of,
    m0_solve,
    relaxed_regularity_plan,
    scattering_bound,
    slow_growth_g,
    theorem1_plan,
)
from snls import functionals as fn
from snls.bounds import _component_series
from snls.evolve import StepController, evolve
from snls.intervals import ProofConstants, partition_by_eta
from snls.radial import RadialField, RadialGrid, lebesgue_norm

from conftest import gaussian_field

CONST = ProofConstants()
T1_PASSING = {"log_R0": 50.0, "delta": 0.5, "E0": 10.0, "m_ceiling": 1e9}


@functools.lru_cache(maxsize=None)
def _doubling_run():
    """A run whose S-values double between early intervals once C_tilde is small."""
    ctl = StepController(dt_max=0.005, snapshot_stride=0.01)
    return evolve(gaussian_field(RadialGrid(20.0, 255), amplitude=1.5), (0.0, 0.3), ctl)


def _scalar_doubling(traj, mode, C_tilde, cuts_of=None):
    """(max doubling ratio, broken, cut count) per record, cutting each [0, T_m] afresh.

    One scalar np.interp per cut, or the cuts cuts_of(m, quantum) of
    [0, T_m], and a boolean mask per interval; the chain stops at the first
    ratio above 2 C_tilde.
    """
    times, d = traj.times, traj.densities
    cum_s15 = fn.cumulative_series_integral(times, d["s_density"])
    grads = _component_series(traj, (7.0 / 6.0,))[7.0 / 6.0]
    cum_g = fn.cumulative_series_integral(times, grads ** (10.0 / 3.0))
    quantum = (1.0 / ((4.0 if mode == "theorem1" else 2.0) * C_tilde)) ** 2.5
    out = []
    for m in range(1, times.size):
        n_full = int(float(cum_s15[m]) / quantum)
        doubling, broken = None, False
        if n_full >= 2:
            if cuts_of is None:
                cuts = [float(np.interp(k * quantum, cum_s15[: m + 1], times[: m + 1])) for k in range(n_full + 1)]
            else:
                cuts = cuts_of(m, quantum)[: n_full + 1]
            prev = None
            for a, b in zip(cuts, cuts[1:]):
                sel = (times >= a - 1e-12) & (times <= b + 1e-12)
                if sel.sum() < 1:
                    continue
                s_j = float(d["H_sc"][sel].max())
                s_j += fn.series_integral_between(times, cum_s15, a, b) ** (1.0 / 15.0)
                s_j += fn.series_integral_between(times, cum_g, a, b) ** 0.3
                if prev is not None:
                    ratio = s_j / max(prev, 1e-300)
                    doubling = max(doubling or 0.0, ratio)
                    if ratio > 2.0 * C_tilde:
                        broken = True
                        break
                prev = s_j
        out.append((doubling, broken, n_full))
    return out


class TestEta:
    def test_origin(self):
        assert eta_of(0.0, 1.0) == 1.0

    def test_displayed_value(self):
        assert eta_of(1.0, 2.0) == pytest.approx(0.125, abs=1e-15)

    def test_monotone_decreasing_both_arguments(self):
        es = np.linspace(0.0, 5.0, 21)
        c2s = np.linspace(1.0, 6.0, 21)
        for c2 in (1.0, 2.5, 5.0):
            vals = [eta_of(e, c2) for e in es]
            assert all(a > b for a, b in zip(vals, vals[1:]))
        for e in (0.5, 2.0, 10.0):
            vals = [eta_of(e, c2) for c2 in c2s]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            eta_of(-1.0, 2.0)
        with pytest.raises(ValueError):
            eta_of(1.0, 0.5)


class TestAbsorb:
    def test_rule_one_holds_numerically(self):
        for E in (0.5, 3.0, 50.0):
            recs = absorb_check(E, 2.0, p=0.4, eps_target=0.01)
            assert recs[0].holds, recs[0]

    def test_rule_two_c_prime(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            E = float(rng.uniform(0.1, 20))
            C = float(rng.uniform(0.5, 5))
            p = float(rng.uniform(0.1, 3))
            C2 = float(rng.uniform(1.0, 6.0))
            recs = absorb_check(E, C2, p=p, eps_target=0.1, C=C)
            assert recs[1].holds, recs[1]

    def test_rule_three_holds(self):
        for E in (0.5, 3.0, 50.0):
            recs = absorb_check(E, 2.0, p=1.5, eps_target=0.25)
            assert recs[2].holds, recs[2]

    def test_infinite_target_trivial(self):
        recs = absorb_check(1.0, 2.0, p=1.0, eps_target=math.inf)
        assert recs[0].holds and recs[2].holds


class TestScatteringBound:
    def test_value_at_origin(self):
        # the formula's domain is E >= 1; below it the bound is the E = 1 value
        assert scattering_bound(0.0, 1.0).value == pytest.approx(math.e, rel=1e-15)

    def test_monotone(self):
        vals = [scattering_bound(e, 2.0).log_value for e in np.linspace(0, 4, 30)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_overflow_saturates_with_flag(self):
        sv = scattering_bound(50.0, 3.0)
        assert math.isinf(sv.value) and sv.overflow
        assert math.isfinite(sv.log_value) and sv.log_value > 0

    def test_shape_consistency_with_partition_count(self):
        # substituting eta(E) makes log(2 J eta), J = exp(C eta^-C), grow like C C2^C (1+E)^(C C2): the double-
        # exponential shape of exp(C E^C), with exponent C*C2
        const, E = ProofConstants(C2=2.0), np.linspace(3, 40, 60)
        eta = const.eta(E)
        fitted = np.polyfit(np.log(1.0 + E), np.log(np.log(2.0) + const.dist_cap(eta) + np.log(eta)), 1)[0]
        assert abs(fitted - const.C * const.C2) < 0.15 * const.C * const.C2


class TestSlowGrowth:
    def test_nested_log_unwinding(self):
        t = math.exp(math.exp(2.0))
        assert slow_growth_g(t, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_on_log_grid(self):
        ts = np.exp(np.linspace(1.1, 40, 100))
        vals = [slow_growth_g(t, 2.0) for t in ts]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_composition_identity_at_c1(self):
        for x in np.exp(np.linspace(1.2, 30, 40)):
            lhs = 1.0 * math.exp(1.0 * slow_growth_g(x, 1.0) ** 1.0)
            assert abs(lhs - math.sqrt(math.log(x))) <= 1e-12 * max(1.0, lhs)

    def test_domain(self):
        with pytest.raises(ValueError):
            slow_growth_g(math.e, 1.0)


NAN = math.nan


@pytest.mark.parametrize("call", [
    lambda: lebesgue_norm(RadialField.zero(RadialGrid(10.0, 15)), NAN),
    lambda: scattering_bound(NAN, 2.0),
    lambda: scattering_bound(1.0, NAN),
    lambda: slow_growth_g(NAN, 1.0),
    lambda: slow_growth_g(10.0, NAN),
    lambda: eta_of(NAN, 2.0),
    lambda: eta_of(np.array([1.0, NAN]), 2.0),
    lambda: eta_of(1.0, NAN),
    lambda: absorb_check(1.0, 2.0, p=NAN, eps_target=0.01),
    lambda: absorb_check(1.0, 2.0, p=0.4, eps_target=NAN),
], ids=["lebesgue_p", "scattering_E", "scattering_C", "slow_growth_t", "slow_growth_C", "eta_E", "eta_E_array",
        "eta_C2", "absorb_p", "absorb_eps"])
def test_nan_argument_rejected(call):
    # each domain check is negated (not x >= lo), so NaN fails it instead of slipping through
    with pytest.raises(ValueError):
        call()


class TestTheorem1Plan:
    def test_delta0_resubstitution(self):
        plan = theorem1_plan(1.0, 1.0, 1e-6, CONST)
        # (2 R0)^(C delta0) = 2, checked in log space
        log_2r0 = math.log(2.0) + plan.R0.log_value
        assert math.exp(CONST.C * plan.delta0 * log_2r0) == pytest.approx(2.0, rel=1e-12)

    def test_small_delta_closes(self):
        plan = theorem1_plan(1.0, 1.0, 1e-8, CONST)
        assert plan.closed and plan.failure is None
        assert plan.s_ceiling_log <= plan.R0.log_value * (1 + 1e-12)

    def test_failure_descriptor_above_delta0(self):
        probe = theorem1_plan(1.0, 1.0, 1e-8, CONST)
        plan = theorem1_plan(1.0, 1.0, probe.delta0 * 1.5, CONST)
        assert not plan.closed and plan.failure is not None

    def test_transition_within_one_percent(self):
        probe = theorem1_plan(1.0, 1.0, 1e-8, CONST)
        d0 = probe.delta0
        lo = theorem1_plan(1.0, 1.0, d0 * 0.995, CONST)
        hi = theorem1_plan(1.0, 1.0, d0 * 1.005, CONST)
        assert lo.closed and not hi.closed

    def test_bound_monotone(self):
        base = theorem1_plan(2.0, 2.0, 1e-9, CONST).bound.log_value
        assert theorem1_plan(2.0, 3.0, 1e-9, CONST).bound.log_value > base
        assert theorem1_plan(3.0, 2.0, 1e-9, CONST).bound.log_value > base
        assert theorem1_plan(2.0, 2.0, 2e-9, CONST).bound.log_value > base

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            theorem1_plan(1.0, 0.5, 1e-6, CONST)
        with pytest.raises(ValueError):
            theorem1_plan(-1.0, 1.0, 1e-6, CONST)


class TestRelaxedRegularity:
    def test_reduces_to_theorem1_at_one(self):
        a = relaxed_regularity_plan(1.0, 1.0, 1e-7, 1.0, CONST)
        b = theorem1_plan(1.0, 1.0, 1e-7, CONST)
        assert a.theta == pytest.approx(1e-7)
        assert a.m_ceiling == b.m_ceiling and a.delta0 == b.delta0
        assert a.closed == b.closed

    def test_theta_arithmetic(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            eps = float(rng.uniform(0.05, 1.0))
            delta = float(rng.uniform(0.0, 1.0)) * eps * 0.9 + 1e-12
            plan = relaxed_regularity_plan(1.0, 1.0, delta, eps, CONST)
            # the interpolation (1-theta)(sc-delta) + theta(sc+eps-delta) = sc
            sc = 7.0 / 6.0
            recon = (1 - plan.theta) * (sc - delta) + plan.theta * (sc + eps - delta)
            assert recon == pytest.approx(sc, abs=1e-12)

    def test_boundary_failure(self):
        plan = relaxed_regularity_plan(1.0, 1.0, 0.25, 0.25, CONST)
        assert not plan.closed and "theta" in plan.failure


class TestM0Solve:
    def test_resubstitution_and_minimality(self):
        res = m0_solve(1.0, CONST)
        assert res.residual <= 0.0
        from snls.bounds import _m0_gap
        x = res.M0.log_value
        assert _m0_gap(x, 0.0, CONST) <= 0.0
        assert _m0_gap(x - math.log(2.0), 0.0, CONST) > 0.0  # M0/2 fails

    def test_tiny_data_slack(self):
        res = m0_solve(1e-9, CONST)
        assert math.isfinite(res.M0.value)
        assert res.floor_active and res.residual < 0.0

    def test_monotone_in_data_norm(self):
        vals = [m0_solve(u, CONST).M0.log_value for u in (0.5, 1.0, 2.0, 8.0)]
        assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_closure_inequality(self):
        # 3 C' (2 C_tilde)^m u0 <= M0 at m = 2 C C_tilde log^(1/2)(2 M0)
        u0 = 1.0
        res = m0_solve(u0, CONST)
        x = res.M0.log_value
        m = 2.0 * CONST.C * CONST.C_tilde * math.sqrt(x + math.log(2.0))
        lhs_log = math.log(3.0 * CONST.C_prime) + m * math.log(2.0 * CONST.C_tilde) + math.log(u0)
        assert lhs_log <= x * (1 + 1e-9)


class TestBootstrapMonitor:
    def test_zero_solution_passes(self, grid_small):
        ctl = StepController(dt_max=0.01, snapshot_stride=0.05)
        traj = evolve(RadialField.zero(grid_small), (0.0, 0.3), ctl)
        plan = theorem1_plan(1.0, 1.0, 1e-8, CONST)
        records = bootstrap_monitor(
            traj, "theorem1",
            {"log_R0": plan.R0.log_value, "delta": 1e-8, "E0": 1.0, "m_ceiling": plan.m_ceiling},
            CONST,
        )
        assert records and all(r["violated"] is None for r in records)

    def test_small_data_run_passes(self, grid_small):
        ctl = StepController(dt_max=0.005, snapshot_stride=0.02)
        traj = evolve(gaussian_field(grid_small, amplitude=0.3), (0.0, 0.5), ctl)
        plan = theorem1_plan(5.0, 1.5, 1e-8, CONST)
        records = bootstrap_monitor(
            traj, "theorem1",
            {"log_R0": plan.R0.log_value, "delta": 1e-8, "E0": 1.5, "m_ceiling": plan.m_ceiling},
            CONST,
        )
        assert all(r["violated"] is None for r in records)

    def test_corollary_mode(self, grid_small):
        ctl = StepController(dt_max=0.005, snapshot_stride=0.02)
        traj = evolve(gaussian_field(grid_small, amplitude=0.3), (0.0, 0.5), ctl)
        res = m0_solve(2.0, CONST)
        records = bootstrap_monitor(traj, "corollary", {"log_M0": res.M0.log_value}, CONST)
        assert all(r["violated"] is None for r in records)

    def test_detects_radius_violation(self, grid_small):
        ctl = StepController(dt_max=0.005, snapshot_stride=0.02)
        traj = evolve(gaussian_field(grid_small, amplitude=1.0), (0.0, 0.3), ctl)
        records = bootstrap_monitor(
            traj, "theorem1",
            {"log_R0": math.log(1e-6), "delta": 1e-8, "E0": 1.0, "m_ceiling": 1e9},
            CONST,
        )
        assert records[-1]["violated"] == "S(u,T) <= R0"

    def test_doubling_ratios_match_scalar_cut_loop(self, grid_small):
        ctl = StepController(dt_max=0.005, snapshot_stride=0.01)
        traj = evolve(gaussian_field(grid_small, amplitude=1.0), (0.0, 0.3), ctl)
        records = bootstrap_monitor(traj, "theorem1", T1_PASSING, CONST)
        reference = _scalar_doubling(traj, "theorem1", CONST.C_tilde)
        assert len(records) == traj.times.size - 1
        assert [r["max_doubling_ratio"] for r in records] == [doubling for doubling, _, _ in reference]
        assert all(r["violated"] is None for r in records)
        assert max(n for _, _, n in reference) > 100

    # at C_tilde = 0.2 the broken link is a record's last interval, at 0.5 (theorem1) one before it
    @pytest.mark.parametrize("mode, C_tilde", [("theorem1", 0.2), ("theorem1", 0.5), ("corollary", 0.5)])
    def test_doubling_link_fires_where_scalar_cut_loop_breaks(self, mode, C_tilde):
        traj = _doubling_run()
        const = ProofConstants(C_tilde=C_tilde)
        params = T1_PASSING if mode == "theorem1" else {"log_M0": 1e6}
        records = bootstrap_monitor(traj, mode, params, const)
        reference = _scalar_doubling(traj, mode, const.C_tilde)
        stop = next(m for m, (_, broken, _) in enumerate(reference) if broken)
        assert len(records) == stop + 1
        assert [r["violated"] for r in records] == [None] * stop + ["per-interval doubling"]
        assert [r["max_doubling_ratio"] for r in records] == [doubling for doubling, _, _ in reference[: stop + 1]]
        if C_tilde == 0.2:
            assert len(records) == 4 and records[-1]["interval_count"] == 3

    def test_last_cut_clamped_at_T(self, grid_small):
        # cum_s15 at frame 1 sits one ulp below 9 quanta, where int(mass / quantum) = 9 but 9 * quantum
        # rounds above the mass: the cut of [0, T_1] clamps its last cut at T_1, which the cut of the
        # whole run passes, since the density is nearly flat just after frame 1
        quantum = (1.0 / (4.0 * CONST.C_tilde)) ** 2.5
        mass = float(np.nextafter(9 * quantum, 0.0))
        assert int(mass / quantum) == 9 and 9 * quantum > mass
        ctl = StepController(dt_max=0.01, snapshot_stride=0.05)
        traj = evolve(gaussian_field(grid_small, amplitude=1.0), (0.0, 0.2), ctl)
        s_density = np.full(traj.times.size, 1e-12)
        s_density[:2] = (2.0 * mass, 0.0)
        traj = dataclasses.replace(traj, times=np.arange(traj.times.size, dtype=float),
                                   densities={**traj.densities, "s_density": s_density})
        assert fn.cumulative_series_integral(traj.times, s_density)[1] == mass
        records = bootstrap_monitor(traj, "theorem1", T1_PASSING, CONST)
        reference = _scalar_doubling(traj, "theorem1", CONST.C_tilde)
        assert records[0]["interval_count"] == 9
        assert [r["max_doubling_ratio"] for r in records] == [doubling for doubling, _, _ in reference]

    def test_flat_stretch_cut_at_its_first_time(self, grid_small):
        # at C_tilde = 1 the quantum is 1/32; dyadic times and densities make every running mass exact, and the
        # mass of the first frame, one quantum, holds over frames 1-3, where the density is zero.  The greedy cut
        # takes the stretch's first time, so frame 2's bump in H_sc falls in the second interval; np.interp
        # would take the stretch's last time and put it in the first.
        const = ProofConstants(C_tilde=1.0)
        assert (1.0 / (4.0 * const.C_tilde)) ** 2.5 == 1.0 / 32.0
        ctl = StepController(dt_max=0.01, snapshot_stride=0.05)
        traj = evolve(RadialField.zero(grid_small), (0.0, 0.6), ctl)
        s_density, h_sc = np.full(traj.times.size, 0.5), np.ones(traj.times.size)
        s_density[1:4], h_sc[2] = 0.0, 1.5
        traj = dataclasses.replace(traj, times=np.arange(traj.times.size) / 8.0,
                                   densities={**traj.densities, "s_density": s_density, "H_sc": h_sc})

        def partition_cuts(m, quantum):
            d = partition_by_eta(traj.times[: m + 1], s_density[: m + 1], quantum)
            return [a for a, _ in d.intervals] + [d.intervals[-1][1]]

        records = bootstrap_monitor(traj, "theorem1", T1_PASSING, const)
        reference = _scalar_doubling(traj, "theorem1", const.C_tilde, partition_cuts)
        assert [r["max_doubling_ratio"] for r in records] == [doubling for doubling, _, _ in reference]
        assert [r["interval_count"] for r in records] == [n for _, _, n in reference]
        assert reference != _scalar_doubling(traj, "theorem1", const.C_tilde)

    def test_flat_stretch_at_the_end_of_a_record_is_its_last_interval(self, grid_small):
        # at C_tilde = 1 the quantum is 1/32, and the first frame gap carries exactly two quanta, after which the
        # density is zero over frames 1-3.  At T = 0.25 and 0.375 the cut of [0, T] has no remainder, so
        # partition_by_eta merges the zero-mass stretch into its last interval, which ends at T and holds frame
        # 2's bump in H_sc; the run's cut ends that interval at the stretch's first time
        const = ProofConstants(C_tilde=1.0)
        ctl = StepController(dt_max=0.01, snapshot_stride=0.05)
        traj = evolve(RadialField.zero(grid_small), (0.0, 0.6), ctl)
        s_density, h_sc = np.full(traj.times.size, 0.5), np.ones(traj.times.size)
        s_density[0], s_density[1:4], h_sc[2] = 1.0, 0.0, 1.5
        traj = dataclasses.replace(traj, times=np.arange(traj.times.size) / 8.0,
                                   densities={**traj.densities, "s_density": s_density, "H_sc": h_sc})

        def partition_cuts(m, quantum):
            d = partition_by_eta(traj.times[: m + 1], s_density[: m + 1], quantum)
            return [a for a, _ in d.intervals] + [d.intervals[-1][1]]

        records = bootstrap_monitor(traj, "theorem1", T1_PASSING, const)
        reference = _scalar_doubling(traj, "theorem1", const.C_tilde, partition_cuts)
        assert [r["max_doubling_ratio"] for r in records] == [doubling for doubling, _, _ in reference]
        assert [r["interval_count"] for r in records] == [n for _, _, n in reference]
        assert [r["max_doubling_ratio"] for r in records[1:3]] == [1.278753332987779] * 2

    @pytest.mark.parametrize("mode, params, link", [
        ("theorem1", {"log_R0": 50.0, "delta": 1e-3, "E0": 1.0, "m_ceiling": 1e9}, "interpolation ceiling"),
        ("theorem1", {"log_R0": 50.0, "delta": 0.5, "E0": 10.0, "m_ceiling": 300.0}, "partition count"),
        ("corollary", {"log_M0": 50.0}, "partition count"),
        ("corollary", {"log_M0": 1.0}, "T(u,T) <= M0"),
    ])
    def test_each_link_stops_the_sweep(self, mode, params, link):
        records = bootstrap_monitor(_doubling_run(), mode, params, CONST)
        assert [r["violated"] for r in records] == [None] * (len(records) - 1) + [link]
        assert records[-1]["max_doubling_ratio"] is None

    def test_slow_growth_hypothesis(self, grid_small):
        # an L15 norm above e brings g into play, and the gaussian's Hsc norm lies above g there
        ctl = StepController(dt_max=0.01, snapshot_stride=0.05)
        traj = evolve(gaussian_field(grid_small, amplitude=1.0), (0.0, 0.2), ctl)
        s_density = np.full(traj.times.size, 1e12)
        traj = dataclasses.replace(traj, densities={**traj.densities, "s_density": s_density})
        records = bootstrap_monitor(traj, "corollary", {"log_M0": 50.0}, CONST)
        assert len(records) == 1 and records[0]["violated"] == "slow-growth hypothesis"

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_records_read_their_prefix(self, data):
        # the records of the first m+1 frames are the first m records of the whole run
        traj = _doubling_run()
        mode = data.draw(st.sampled_from(["theorem1", "corollary"]))
        const = ProofConstants(C_tilde=data.draw(st.sampled_from([8.0, 2.0, 1.0, 0.5, 0.2])))
        params = T1_PASSING if mode == "theorem1" else {"log_M0": 1e6}
        m = data.draw(st.integers(1, traj.times.size - 1))
        prefix = dataclasses.replace(traj, times=traj.times[: m + 1], frames=traj.frames[: m + 1],
                                     densities={k: v[: m + 1] for k, v in traj.densities.items()})
        whole = bootstrap_monitor(traj, mode, params, const)
        assert bootstrap_monitor(prefix, mode, params, const) == whole[:m]

    def test_missing_cached_norms_rejected(self, grid_small):
        ctl = StepController(dt_max=0.01, snapshot_stride=0.05)
        traj = evolve(gaussian_field(grid_small), (0.0, 0.2), ctl)
        nan_series = np.full(traj.times.size, np.nan)
        traj = dataclasses.replace(traj, densities={**traj.densities, "H_sc_plus1": nan_series})
        with pytest.raises(ValueError, match="H_sc_plus1"):
            bootstrap_monitor(traj, "theorem1",
                              {"log_R0": 10.0, "delta": 1e-8, "E0": 1.0, "m_ceiling": 10.0}, CONST)


class TestBoundReport:
    def test_report_consistency(self):
        rep = build_bound_report(1.0, 1.0, 1e-7, CONST)
        assert rep.eta == eta_of(1.0, CONST.C2)
        assert rep.scattering.log_value == scattering_bound(1.0, CONST.C).log_value
        js = rep.to_json()
        assert js["plan"]["closed"] is True
        assert set(js) >= {"E", "M", "delta", "constants", "eta", "scattering_bound", "plan", "M0", "g_values"}
