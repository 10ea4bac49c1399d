"""Partition, classification, selection, and the brute-force oracle."""

import dataclasses
import itertools
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snls import functionals as fn, radial
from snls.evolve import StepController, Trajectory, evolve, free_evolve, linear_trajectory
from snls.functionals import (
    cumulative_series_integral,
    cutoff_profile,
    localized_mass,
    s_density,
    series_cut_times,
    series_integral_between,
)
from snls.intervals import (
    EXCEPTIONAL,
    TAIL,
    UNEXCEPTIONAL,
    ConcentrationCertificate,
    IntervalDecomposition,
    PartitionTooLarge,
    ProofConstants,
    SelectionResult,
    brute_force_chain,
    check_selection_invariants,
    classify,
    concentration_scan,
    dyadic_tail_check,
    linear_density_series,
    linear_flow_floor,
    mass_bracketing_audit,
    partition_by_eta,
    partition_trajectory,
    recursive_select,
    select_long_interval,
    synthetic_decomposition,
)
from snls.radial import RadialGrid, _block_rows

from conftest import gaussian_field


def geometric_decomp(n=20, eta=0.5):
    """Consecutive intervals of lengths 1, 1/2, ..., 1/2^(n-1), all unexceptional."""
    lengths = [2.0**-k for k in range(n)]
    cuts = np.concatenate(([0.0], np.cumsum(lengths)))
    return IntervalDecomposition(
        intervals=tuple(zip(cuts[:-1], cuts[1:])),
        masses=tuple([eta] * n),
        eta=eta,
        flags=tuple([UNEXCEPTIONAL] * n),
        classified=True,
    )


PERMISSIVE = ProofConstants(C0=1, C1=1, C2=1, c=0.25, C=2.0, C_tilde=1e-9, C_prime=1.0)

# Selections on synthetic instances (seed, J, removal_span) -> (chain, t_star, dist_ratios, window_spans).
# Seeds 600-619 reach every exit of the selection loop: the first-window shrink, the dyadic and
# distance-cap breaks, the window threshold and an emptied window.
PINNED_CONSTANTS = (PERMISSIVE, ProofConstants(C=1.0, C_tilde=1e-9), ProofConstants())
PINNED_SELECTIONS = {
    (600, 1, 'window'): ((0,), 4.72619081737914, (0.0,), (9.45238163475828,)),
    (600, 1, 'left_of_selected'): ((0,), 4.72619081737914, (0.0,), (9.45238163475828,)),
    (601, 2, 'window'): ((1,), 7.890570783121308, (0.0,), (5.892487003371917,)),
    (601, 2, 'left_of_selected'): ((1,), 7.890570783121308, (0.0,), (5.892487003371917,)),
    (602, 3, 'window'): ((2,), 133.3351467523239, (0.0,), (207.666081652349,)),
    (602, 3, 'left_of_selected'): ((2,), 133.3351467523239, (0.0,), (207.666081652349,)),
    (603, 5, 'window'): ((2, 0, 1), 14.247424581939045, (0.0009736946912751843, 0.03746921740647421, 0.0), (676.9044679351193, 14.761984281818664, 1.0291193997592387)),
    (603, 5, 'left_of_selected'): ((2, 0, 1), 14.247424581939045, (0.0009736946912751843, 0.03746921740647421, 0.0), (676.9044679351193, 14.761984281818664, 1.0291193997592387)),
    (604, 8, 'window'): ((5,), 40.40925751375943, (0.0,), (14.82613235600612,)),
    (604, 8, 'left_of_selected'): ((5,), 40.40925751375943, (0.0,), (14.82613235600612,)),
    (605, 13, 'window'): ((11,), 1419.5233310625154, (0.0,), (1930.306137937373,)),
    (605, 13, 'left_of_selected'): ((11,), 1419.5233310625154, (0.0,), (1930.306137937373,)),
    (606, 20, 'window'): ((13, 7, 9), 708.1375141422845, (0.11169775631326387, 0.3089718790701402, 0.0), (3112.5319859970464, 180.65049801765167, 38.06176185543313)),
    (606, 20, 'left_of_selected'): ((13, 7), 665.8212635643417, (0.15383213080234628, 0.0), (3112.5319859970464, 180.65049801765167)),
    (607, 30, 'window'): ((8, 6), 193.6872194592029, (0.210581925925258, 0.0), (904.3836328002777, 264.7104937810921)),
    (607, 30, 'left_of_selected'): ((8, 6), 193.6872194592029, (0.210581925925258, 0.0), (904.3836328002777, 264.7104937810921)),
    (608, 42, 'window'): ((5,), 3061.3169492293046, (0.0,), (7601.4014245670705,)),
    (608, 42, 'left_of_selected'): ((5,), 3061.3169492293046, (0.0,), (7601.4014245670705,)),
    (609, 55, 'window'): ((29, 25, 26), 1646.307751749774, (1.2250257081968905, 0.006069053854545062, 0.0), (920.1585272767029, 154.46389369245094, 1.0005775497563718)),
    (609, 55, 'left_of_selected'): ((29, 25), 1604.5910899727319, (1.3998232310918828, 0.0), (920.1585272767029, 154.46389369245094)),
    (610, 70, 'window'): ((57,), 4210.237601179551, (0.0,), (642.2516260161051,)),
    (610, 70, 'left_of_selected'): ((57,), 4210.237601179551, (0.0,), (642.2516260161051,)),
    (611, 85, 'window'): ((7,), 978.4014753393097, (0.0,), (3836.4872602892965,)),
    (611, 85, 'left_of_selected'): ((7,), 978.4014753393097, (0.0,), (3836.4872602892965,)),
    (612, 100, 'window'): ((24, 21, 18, 17), 478.8836322696499, (0.42489883189788435, 0.6989199893165935, 0.03942528406783216, 0.0), (501.31455168888647, 122.99987620062439, 28.012194211979534, 1.0370099030029678)),
    (612, 100, 'left_of_selected'): ((24, 21, 18), 485.97792942862645, (0.40028808052203224, 0.5185751091666532, 0.0), (501.31455168888647, 122.99987620062439, 28.012194211979534)),
    (613, 120, 'window'): ((11,), 3131.4902769765727, (0.0,), (93.53174980334552,)),
    (613, 120, 'left_of_selected'): ((11,), 3131.4902769765727, (0.0,), (93.53174980334552,)),
    (614, 140, 'window'): ((13,), 775.697499748774, (0.0,), (889.5678141516983,)),
    (614, 140, 'left_of_selected'): ((13,), 775.697499748774, (0.0,), (889.5678141516983,)),
    (615, 160, 'window'): ((146,), 14096.14104331793, (0.0,), (1173.374625633949,)),
    (615, 160, 'left_of_selected'): ((146,), 14096.14104331793, (0.0,), (1173.374625633949,)),
    (616, 175, 'window'): ((5,), 1154.622325435114, (0.0,), (410.9684601525355,)),
    (616, 175, 'left_of_selected'): ((5,), 1154.622325435114, (0.0,), (410.9684601525355,)),
    (617, 190, 'window'): ((93,), 8807.240101089283, (0.0,), (3891.181099698606,)),
    (617, 190, 'left_of_selected'): ((93,), 8807.240101089283, (0.0,), (3891.181099698606,)),
    (618, 199, 'window'): ((70, 54, 57, 55, 56), 11114.804545383395, (2.533807458348984, 0.19675652023573123, 0.062453489471999656, 0.18004276366140515, 0.0), (2883.697745578418, 126.06858927364556, 34.14202934437162, 10.944381248362333, 2.897548142280357)),
    (618, 199, 'left_of_selected'): ((70, 54, 57, 55, 56), 11114.804545383395, (2.533807458348984, 0.19675652023573123, 0.062453489471999656, 0.18004276366140515, 0.0), (2883.697745578418, 126.06858927364556, 34.14202934437162, 10.944381248362333, 2.897548142280357)),
    (619, 200, 'window'): ((54, 57, 55), 6050.454322055831, (0.01937553931356213, 0.8006679451648757, 0.0), (646.5111978479063, 158.30574515256922, 18.83471662507509)),
    (619, 200, 'left_of_selected'): ((54, 57, 55), 6050.454322055831, (0.01937553931356213, 0.8006679451648757, 0.0), (646.5111978479063, 158.30574515256922, 18.83471662507509)),
}


class TestPartition:
    def test_uniform_density(self):
        times = np.linspace(0.0, 10.0, 1001)
        d = partition_by_eta(times, np.ones_like(times), 1.0)
        assert len(d) == 10
        assert all(f == UNEXCEPTIONAL for f in d.flags)
        assert np.allclose(d.masses, 1.0)
        assert np.allclose([b - a for a, b in d.intervals], 1.0)

    def test_zero_density_single_tail(self):
        times = np.linspace(0.0, 1.0, 11)
        d = partition_by_eta(times, np.zeros_like(times), 0.5)
        assert len(d) == 1 and d.flags == (TAIL,) and d.masses[0] == 0.0

    def test_random_reintegration(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            times = np.sort(rng.uniform(0, 5, size=200))
            times[0], times[-1] = 0.0, 5.0
            dens = rng.uniform(0, 3, size=200)
            eta = rng.uniform(0.05, 1.0)
            d = partition_by_eta(times, dens, eta)
            total = np.trapezoid(dens, times)
            assert abs(sum(d.masses) - total) <= 1e-10 * total
            for m, f in zip(d.masses, d.flags):
                if f != TAIL:
                    assert eta * (1 - 1e-9) <= m <= 2 * eta * (1 + 1e-9)
                else:
                    assert m < eta
            # covering, consecutive
            assert d.intervals[0][0] == 0.0 and abs(d.intervals[-1][1] - 5.0) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        steps=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=40),
        data=st.data(),
        quanta=st.floats(0.3, 40.0),
    )
    def test_zero_stretches_property(self, steps, data, quanta):
        # densities with runs of zeros, where the cumulative integral is flat
        times = np.concatenate(([0.0], np.cumsum(steps)))
        density = np.array(data.draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
                                              min_size=times.size, max_size=times.size)))
        total = float(np.trapezoid(density, times))
        eta = total / quanta if total > 0 else 1.0
        d = partition_by_eta(times, density, eta)
        cuts = [a for a, _ in d.intervals] + [d.intervals[-1][1]]
        assert all(a < b for a, b in zip(cuts, cuts[1:]))
        assert cuts[0] == times[0] and cuts[-1] == times[-1]
        for m, f in zip(d.masses, d.flags):
            if f != TAIL:
                assert eta * (1 - 1e-9) <= m <= 2 * eta * (1 + 1e-9)
        assert abs(sum(d.masses) - total) <= 1e-9 * max(total, eta)
        cum = cumulative_series_integral(times, density)
        for (a, b), m in zip(d.intervals, d.masses):
            assert abs(series_integral_between(times, cum, a, b) - m) <= 1e-9 * max(total, eta)
        # the inverse: each sample's running mass is first reached at the first sample that holds it (the start
        # of a flat stretch), a target above the total at the last time, and integrating up to a cut gives back
        # its target
        reached = cum[cum > 0]
        targets = np.append(reached, np.nextafter(cum[-1], np.inf))
        cut = series_cut_times(times, cum, targets)
        first = [times[np.flatnonzero(cum >= x)[0]] for x in reached]
        assert np.allclose(cut[:-1], first, rtol=1e-15, atol=0) and cut[-1] == times[-1]
        back = series_integral_between(times, cum, times[0], cut)
        assert np.all(np.abs(back - targets) <= 1e-9 * max(total, eta))

    @settings(max_examples=200, deadline=None)
    @given(
        steps=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=40),
        data=st.data(),
        quanta=st.floats(0.3, 40.0),
    )
    def test_cuts_match_per_cut_search(self, steps, data, quanta):
        times = np.concatenate(([0.0], np.cumsum(steps)))
        density = np.array(data.draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
                                              min_size=times.size, max_size=times.size)))
        cum = cumulative_series_integral(times, density)
        # about half the draws aim a cut at a sample's running mass, where a flat stretch may start
        m, k = data.draw(st.integers(1, times.size - 1)), data.draw(st.integers(1, 4))
        if data.draw(st.booleans()) and cum[m] > 0:
            eta = cum[m] / k
        else:
            eta = cum[-1] / quanta if cum[-1] > 0 else 1.0
        d = partition_by_eta(times, density, eta)
        # reference: one searchsorted and one interpolation per cut, as a left-to-right loop
        cuts = [times[0]]
        if cum[-1] >= eta:
            n_full = int(np.floor(cum[-1] / eta + 1e-12))
            merged = cum[-1] - n_full * eta <= 1e-9 * eta
            for k in range(1, n_full if merged else n_full + 1):
                target = k * eta
                i = int(np.searchsorted(cum, target, side="left"))
                cuts.append(times[i - 1] + (target - cum[i - 1]) / (cum[i] - cum[i - 1]) * (times[i] - times[i - 1]))
        cuts.append(times[-1])
        got = [a for a, _ in d.intervals] + [d.intervals[-1][1]]
        assert np.array(got).tobytes() == np.array(cuts).tobytes()

    def test_rejects_negative_density(self):
        with pytest.raises(ValueError):
            partition_by_eta([0.0, 1.0], [1.0, -0.5], 0.1)

    def test_cuts_past_physical_memory_raise_before_allocating(self):
        # numpy would be asked for 1e300 cuts; the error names int s dt, eta and J instead
        with pytest.raises(PartitionTooLarge, match=r"int s dt = 4 in pieces of eta = 1e-300 makes J = 4e\+300 "):
            partition_by_eta([0.0, 1.0], [4.0, 4.0], 1e-300)

    @pytest.mark.parametrize("memory, fits", [(40, True), (39, False)])
    def test_cut_count_rule(self, memory, fits, monkeypatch):
        # J = 4 intervals of mass 1 have J + 1 = 5 float64 cuts: 40 bytes of physical memory
        pages = {"SC_PHYS_PAGES": memory, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(radial, "os", SimpleNamespace(sysconf=pages.__getitem__))
        if fits:
            assert len(partition_by_eta([0.0, 1.0], [4.0, 4.0], 1.0)) == 4
        else:
            with pytest.raises(PartitionTooLarge, match="J = 4 intervals"):
                partition_by_eta([0.0, 1.0], [4.0, 4.0], 1.0)


class TestClassify:
    def test_linear_trajectory_all_exceptional(self, grid_small):
        traj = linear_trajectory(gaussian_field(grid_small), (0.0, 0.5), StepController(snapshot_stride=0.01))
        total = np.trapezoid(traj.densities["s_density"], traj.times)
        eta = total / 5.1
        d = classify(partition_trajectory(traj, eta), traj, ProofConstants(C1=2.0, C2=2.0))
        non_tail = [f for f in d.flags if f != TAIL]
        assert non_tail and all(f == EXCEPTIONAL for f in non_tail)

    def test_threshold_dominates(self, grid_small):
        # eta^C1 above the total linear mass: nothing is exceptional
        traj = linear_trajectory(gaussian_field(grid_small, amplitude=0.05), (0.0, 0.5),
                                 StepController(snapshot_stride=0.01))
        total = np.trapezoid(traj.densities["s_density"], traj.times)
        decomp = partition_trajectory(traj, total / 3.1)
        big_eta = IntervalDecomposition(
            intervals=decomp.intervals, masses=decomp.masses, eta=0.9, flags=decomp.flags
        )
        d = classify(big_eta, traj, ProofConstants(C1=1.0, C2=1.0))
        non_tail = [f for f in d.flags if f != TAIL]
        assert non_tail and all(f == UNEXCEPTIONAL for f in non_tail)

    def test_monotone_in_C1(self, grid_small):
        ctl = StepController(dt_max=0.002, snapshot_stride=0.01)
        traj = evolve(gaussian_field(grid_small, amplitude=1.5), (0.0, 0.5), ctl)
        total = np.trapezoid(traj.densities["s_density"], traj.times)
        decomp = partition_trajectory(traj, total / 20.0)
        counts = []
        for c1 in (1.0, 1.5, 2.0):
            d = classify(decomp, traj, ProofConstants(C1=c1, C2=2.0))
            counts.append(len(d.indices(EXCEPTIONAL)))
        assert counts[0] <= counts[1] <= counts[2]


class TestLinearDensitySeries:
    def test_matches_per_frame_free_evolve(self, grid_small):
        # 37 frames: two full blocks of 16 and a short one; the anchor sits mid-run
        ctl = StepController(dt_max=0.005, snapshot_stride=0.01)
        traj = evolve(gaussian_field(grid_small, amplitude=1.2, chirp=0.1), (0.0, 0.36), ctl)
        assert traj.times.size == 37
        anchor = 20
        ref = np.array([
            s_density(free_evolve(traj.field(anchor), t - traj.times[anchor])) for t in traj.times
        ])
        got = linear_density_series(traj, anchor)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


class TestSelectLongInterval:
    def test_tie_leftmost(self):
        d = IntervalDecomposition(
            intervals=((0, 1), (1, 2), (2, 3)), masses=(1, 1, 1), eta=0.5,
            flags=(UNEXCEPTIONAL,) * 3, classified=True,
        )
        res = select_long_interval(d, (0, 2), PERMISSIVE)
        assert res.j_star == 0

    def test_single_interval(self):
        d = IntervalDecomposition(
            intervals=((0, 2),), masses=(1,), eta=0.5, flags=(UNEXCEPTIONAL,), classified=True,
        )
        res = select_long_interval(d, (0, 0), PERMISSIVE)
        assert res.j_star == 0 and res.length == res.span

    def test_argmax_matches_scan(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            d = synthetic_decomposition(rng, int(rng.integers(2, 40)), 0.1)
            res = select_long_interval(d, (0, len(d) - 1), PERMISSIVE)
            lengths = d.lengths()
            assert lengths[res.j_star] == lengths.max()


class TestRecursiveSelect:
    def test_single_unexceptional(self):
        d = IntervalDecomposition(
            intervals=((0.0, 1.0),), masses=(0.5,), eta=0.5, flags=(UNEXCEPTIONAL,), classified=True,
        )
        sel = recursive_select(d, PERMISSIVE)
        assert sel.K == 1 and sel.chain == (0,)
        assert d.intervals[0][0] <= sel.t_star <= d.intervals[0][1]

    def test_geometric_family_full_chain(self):
        d = geometric_decomp(20)
        sel = recursive_select(d, PERMISSIVE)
        assert sel.K == 20
        assert sel.chain == tuple(range(20))
        check_selection_invariants(d, sel)
        lengths = d.lengths()
        cap = PERMISSIVE.dist_cap(d.eta)
        k_oracle = brute_force_chain(lengths, [a for a, _ in d.intervals],
                                     [False] * 20, cap)
        assert k_oracle == 20

    def test_ties_go_to_leftmost_run_and_interval(self):
        # two equally long runs of equally long intervals, split by an exceptional one
        d = IntervalDecomposition(
            intervals=tuple((float(j), j + 1.0) for j in range(5)), masses=(0.5,) * 5, eta=0.5,
            flags=(UNEXCEPTIONAL, UNEXCEPTIONAL, EXCEPTIONAL, UNEXCEPTIONAL, UNEXCEPTIONAL), classified=True,
        )
        sel = recursive_select(d, PERMISSIVE)
        assert sel.chain == (0,) and sel.t_star == 0.5 and sel.window_spans == (2.0,)

    def test_rejects_no_unexceptional(self):
        d = IntervalDecomposition(
            intervals=((0.0, 1.0),), masses=(0.5,), eta=0.5, flags=(EXCEPTIONAL,), classified=True,
        )
        with pytest.raises(ValueError):
            recursive_select(d, PERMISSIVE)

    @pytest.mark.parametrize("removal_span", ["window", "left_of_selected"])
    def test_fuzzed_invariants(self, removal_span):
        rng = np.random.default_rng(31)
        for _ in range(300):
            J = int(rng.integers(1, 200))
            eta = float(rng.uniform(0.05, 0.9))
            d = synthetic_decomposition(rng, J, eta, length_ratio=float(rng.uniform(2, 2000)))
            sel = recursive_select(d, PERMISSIVE, removal_span=removal_span)
            check_selection_invariants(d, sel)

    def test_determinism(self):
        rng = np.random.default_rng(5)
        d = synthetic_decomposition(rng, 80, 0.2)
        a = recursive_select(d, PERMISSIVE)
        b = recursive_select(d, PERMISSIVE)
        assert a == b

    @pytest.mark.parametrize("case", sorted(PINNED_SELECTIONS))
    def test_pinned_results(self, case):
        # recorded from the set-based selection: the array rewrite must reproduce every field bit for bit
        seed, J, removal_span = case
        rng = np.random.default_rng(seed)
        d = synthetic_decomposition(rng, J, float(rng.uniform(0.05, 0.9)), float(rng.uniform(2, 2000)),
                                    float(rng.uniform(0.0, 0.5)))
        sel = recursive_select(d, PINNED_CONSTANTS[seed % 3], removal_span=removal_span)
        chain, t_star, dist_ratios, window_spans = PINNED_SELECTIONS[case]
        assert (sel.chain, sel.K, sel.t_star, sel.dist_ratios, sel.window_spans) == (
            chain, len(chain), t_star, dist_ratios, window_spans)


class TestBruteForce:
    def test_single_interval(self):
        assert brute_force_chain([1.0], [0.0], [False], 10.0) == 1

    def test_two_equal_lengths(self):
        assert brute_force_chain([1.0, 1.0], [0.0, 1.0], [False, False], 100.0) == 1

    def test_oracle_dominates_algorithm(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            J = int(rng.integers(1, 60))
            d = synthetic_decomposition(rng, J, 0.3, length_ratio=float(rng.uniform(2, 500)))
            sel = recursive_select(d, PERMISSIVE)
            k_oracle = brute_force_chain(
                d.lengths(), [a for a, _ in d.intervals],
                [f == EXCEPTIONAL for f in d.flags], sel.dist_cap,
            )
            assert k_oracle >= sel.K

    def test_exhaustive_cross_check(self):
        # brute force against full subset enumeration on tiny instances
        rng = np.random.default_rng(43)
        for _ in range(60):
            J = int(rng.integers(1, 11))
            d = synthetic_decomposition(rng, J, 0.3, length_ratio=float(rng.uniform(2, 50)))
            lengths = d.lengths()
            t0 = np.array([a for a, _ in d.intervals])
            t1 = np.array([b for _, b in d.intervals])
            exc = np.array([f == EXCEPTIONAL for f in d.flags])
            cap = 8.0
            k_dp = brute_force_chain(lengths, t0, exc, cap)
            cands = np.unique(np.concatenate([t0, t1, 0.5 * (t0 + t1)]))
            best = 0
            for t in cands:
                dist = np.maximum(0.0, np.maximum(t0 - t, t - t1))
                ok = np.flatnonzero((~exc) & (dist <= cap * lengths))
                for r in range(len(ok), best, -1):
                    found = False
                    for sub in itertools.combinations(ok, r):
                        ls = sorted((lengths[j] for j in sub), reverse=True)
                        if all(ls[i + 1] <= ls[i] / 2 for i in range(len(ls) - 1)):
                            found = True
                            break
                    if found:
                        best = max(best, r)
                        break
            assert k_dp == best


class TestDyadicTail:
    def test_generated_chains(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            K = int(rng.integers(2, 25))
            factors = rng.uniform(2.25, 4.0, size=K - 1)
            lengths = np.concatenate(([1.0], 1.0 / np.cumprod(factors)))
            for N in range(1, 11):
                for k in range(K):
                    holds, lhs, rhs = dyadic_tail_check(lengths, k, N)
                    assert holds, (k, N, lhs, rhs)

    def test_exact_halving_needs_n_two(self):
        lengths = 2.0 ** -np.arange(20)
        for N in range(2, 11):
            assert dyadic_tail_check(lengths, 0, N)[0]
        # at N = 1 the geometric prefactor 1/(1 - 2^(-7/6)) > 2^(7/12)
        # makes the bound fail for exactly-halving chains with a long tail
        assert not dyadic_tail_check(lengths, 0, 1)[0]
        assert dyadic_tail_check(lengths[:3], 0, 1)[0]  # short tails still pass


class TestConcentrationScan:
    def test_empty_for_all_exceptional(self, grid_small):
        traj = linear_trajectory(gaussian_field(grid_small), (0.0, 0.5), StepController(snapshot_stride=0.01))
        total = np.trapezoid(traj.densities["s_density"], traj.times)
        d = classify(partition_trajectory(traj, total / 5.1), traj, ProofConstants(C1=2.0, C2=2.0))
        assert concentration_scan(traj, d, ProofConstants(C1=2.0, C2=2.0)) == []

    def test_unresolvable_radius_flagged(self, grid_small):
        traj = linear_trajectory(gaussian_field(grid_small), (0.0, 8.0), StepController(snapshot_stride=0.2))
        d = IntervalDecomposition(
            intervals=((0.0, 8.0),), masses=(1.0,), eta=0.01,
            flags=(UNEXCEPTIONAL,), classified=True,
        )
        certs = concentration_scan(traj, d, ProofConstants(C=4.0))
        assert len(certs) == 1 and not certs[0].resolvable

    def test_block_scan_matches_per_frame_loop(self, grid_small):
        # intervals holding 30 frames (two blocks), 2 frames, and none (the midpoint's nearest frame is used)
        ctl = StepController(dt_max=0.005, snapshot_stride=0.01)
        traj = evolve(gaussian_field(grid_small, amplitude=1.3), (0.0, 0.4), ctl)
        intervals = ((0.0, 0.295), (0.295, 0.3125), (0.3125, 0.3185), (0.3185, 0.4))
        d = IntervalDecomposition(intervals, (0.5,) * 4, 0.5, (UNEXCEPTIONAL,) * 4, classified=True)
        constants = ProofConstants(C=2.0)
        certs = concentration_scan(traj, d, constants)
        g, t = traj.grid, traj.times
        r = g.nodes
        assert [sum(a - 1e-12 <= tm <= b + 1e-12 for tm in t) for a, b in intervals][:3] == [30, 2, 0]
        for (a, b), cert in zip(intervals, certs):
            L = b - a
            radius = constants.C * 0.5 ** -constants.C * np.sqrt(L)
            reference = 0.5**constants.C * L ** (7.0 / 12.0)
            sel = [m for m in range(t.size) if a - 1e-12 <= t[m] <= b + 1e-12] or [int(np.argmin(abs(t - (a + b) / 2)))]
            chi = cutoff_profile(r / radius)
            ratios = [np.sqrt(4.0 * np.pi * g.dr * np.sum((chi * np.abs(traj.frames[m]) * r) ** 2)) / reference
                      for m in sel]
            k = int(np.argmin(ratios))
            assert cert.resolvable and cert.radius == radius and cert.reference == reference
            assert abs(cert.min_ratio - ratios[k]) <= 1e-13 * ratios[k]
            assert cert.t_min == t[sel[k]]

    def test_positive_ratios_on_designated_intervals(self, grid_small):
        # moderate-amplitude defocusing run; the near-peak intervals are scanned
        ctl = StepController(dt_max=0.002, snapshot_stride=0.01)
        traj = evolve(gaussian_field(grid_small, amplitude=1.5), (0.0, 0.5), ctl)
        total = np.trapezoid(traj.densities["s_density"], traj.times)
        decomp = partition_trajectory(traj, total / 12.0)
        flags = tuple(UNEXCEPTIONAL if f != TAIL else TAIL for f in decomp.flags)
        d = IntervalDecomposition(decomp.intervals, decomp.masses, 0.3, flags, classified=True)
        certs = concentration_scan(traj, d, ProofConstants(C=1.0))
        assert certs and all(c.resolvable for c in certs)
        assert all(c.min_ratio > 0 for c in certs)


def reference_scan(traj, decomp, constants):
    """concentration_scan as a loop over the unexceptional intervals, one interval and its frames at a time."""
    eta = decomp.eta
    certs = []
    for j in decomp.indices(UNEXCEPTIONAL):
        a, b = decomp.intervals[j].tolist()
        L = b - a
        radius = constants.dist_cap(eta) * np.sqrt(L)
        reference = eta**constants.C * L ** (7.0 / 12.0)
        if radius > traj.grid.r_max:
            certs.append(ConcentrationCertificate(j, radius, reference, np.nan, np.nan, False))
            continue
        sel = fn._frames_in(traj.times, a, b)
        if sel.start == sel.stop:  # no stored frame inside: the one nearest the midpoint
            m = int(np.argmin(np.abs(traj.times - 0.5 * (a + b))))
            sel = slice(m, m + 1)
        ratios = _block_rows(traj.frames[sel], fn._localized_mass_rows, traj.grid, radius) / reference
        k = int(np.argmin(ratios))
        certs.append(ConcentrationCertificate(j, radius, reference, float(ratios[k]), float(traj.times[sel][k]), True))
    return certs


SCAN_GRID = RadialGrid(40.0, 64)
# three distinct frame rows: frames drawn from them repeat, so equal ratios inside one window are common
SCAN_ROWS = np.stack([gaussian_field(SCAN_GRID, amplitude=a, width=w, chirp=c).values
                      for a, w, c in ((1.0, 4.0, 0.1), (0.7, 9.0, -0.2), (1.3, 2.0, 0.0))])


def scan_instance(rows, steps, flags, start=0.0):
    """Frames of the given SCAN_ROWS at times 0, 1, 2, ..., and intervals of the given lengths in eighths from start."""
    traj = Trajectory(SCAN_GRID, np.arange(len(rows), dtype=float), SCAN_ROWS[list(rows)], {})
    cuts = start + np.concatenate(([0], np.cumsum(steps))) / 8.0
    d = IntervalDecomposition(np.column_stack((cuts[:-1], cuts[1:])), (0.5,) * len(steps), 0.5, flags,
                              classified=True)
    return traj, d


class TestBatchedScan:
    # windows of 21, 1, 2, 1 and 0 frames (the last with its midpoint 22.5 halfway between frames 22 and 23),
    # a radius above r_max and a tail
    ROWS = [0, 1, 1, 2, 0, 0, 1] * 4 + [2, 2]
    STEPS = (160, 4, 12, 2, 4, 50, 258, 8)
    FLAGS = (UNEXCEPTIONAL,) * 3 + (EXCEPTIONAL,) + (UNEXCEPTIONAL,) * 3 + (TAIL,)

    def test_every_window_kind(self):
        traj, d = scan_instance(self.ROWS, self.STEPS, self.FLAGS)
        constants = ProofConstants(C=2.0)
        windows = [fn._frames_in(traj.times, a, b) for a, b in d.intervals]
        assert [w.stop - w.start for w in windows][:5] == [21, 1, 2, 1, 0]
        assert d.intervals[4].tolist() == [22.25, 22.75] and traj.nearest_frame(22.5) == 22
        certs = concentration_scan(traj, d, constants)
        assert [c.j for c in certs] == [0, 1, 2, 4, 5, 6]
        assert [c.resolvable for c in certs] == [True] * 5 + [False]
        assert certs[3].t_min == 22.0
        assert list(map(repr, certs)) == list(map(repr, reference_scan(traj, d, constants)))

    def test_nan_frame_is_the_minimum(self):
        # a non-finite sample makes its frame's ratio NaN, and np.argmin takes the first NaN
        traj, d = scan_instance(self.ROWS, self.STEPS, self.FLAGS)
        frames = np.array(traj.frames)
        frames[[5, 9], 3] = np.nan
        traj = Trajectory(traj.grid, traj.times, frames, {})
        certs = concentration_scan(traj, d, ProofConstants(C=2.0))
        assert np.isnan(certs[0].min_ratio) and certs[0].t_min == 5.0
        assert list(map(repr, certs)) == list(map(repr, reference_scan(traj, d, ProofConstants(C=2.0))))

    def test_nothing_unexceptional(self):
        traj, d = scan_instance(self.ROWS, self.STEPS, (EXCEPTIONAL,) * 7 + (TAIL,))
        assert concentration_scan(traj, d, ProofConstants()) == [] == reference_scan(traj, d, ProofConstants())

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_equals_reference_loop(self, data):
        # windows of 0 to 26 frames, also before the first frame and past the last; radii from below one
        # grid step to past r_max
        rows = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=40), label="rows")
        steps = data.draw(st.lists(st.integers(1, 200), min_size=1, max_size=12), label="steps")
        flags = data.draw(st.lists(st.sampled_from((UNEXCEPTIONAL, EXCEPTIONAL)), min_size=len(steps),
                                   max_size=len(steps)), label="flags")
        if data.draw(st.booleans(), label="tail"):
            flags[-1] = TAIL
        start = data.draw(st.integers(-16, 8 * len(rows)), label="start") / 8.0
        C = data.draw(st.sampled_from((1.0, 2.0, 3.0)), label="C")
        eta = data.draw(st.floats(0.3, 2.0), label="eta")
        traj, d = scan_instance(rows, steps, flags, start)
        d = dataclasses.replace(d, eta=eta)
        constants = ProofConstants(C=C)
        assert list(map(repr, concentration_scan(traj, d, constants))) == list(
            map(repr, reference_scan(traj, d, constants)))


class TestMassBracketingAudit:
    def test_report_goes_into_json(self, grid_small):
        # diagnose.json carries the report, so every field must be a plain JSON value
        ctl = StepController(dt_max=0.002, snapshot_stride=0.01)
        traj = evolve(gaussian_field(grid_small, amplitude=1.5), (0.0, 0.5), ctl)
        total = np.trapezoid(traj.densities["s_density"], traj.times)
        decomp = partition_trajectory(traj, total / 12.0)
        flags = tuple(UNEXCEPTIONAL if f != TAIL else TAIL for f in decomp.flags)
        d = IntervalDecomposition(decomp.intervals, decomp.masses, 0.3, flags, classified=True)
        constants = ProofConstants(C=1.0)
        report = mass_bracketing_audit(traj, d, recursive_select(d, constants), constants)
        assert report.steps and all(type(s.resolvable) is bool for s in report.steps)
        json.dumps(report.to_json())
        g, u = traj.grid, traj.frames[traj.nearest_frame(report.t_star)]
        hardy_lhs = 4.0 * np.pi * g.dr * np.sum(np.abs(g.nodes * u) ** 2 / g.nodes ** (7.0 / 3.0))
        assert abs(report.hardy_lhs - hardy_lhs) <= 1e-13 * hardy_lhs

    def test_steps_equal_per_step_localized_mass(self):
        # geometric lengths 8, 4, ..., 1/16: radii 8 sqrt(L) from 2 to 22.6 across r_max = 20
        g = RadialGrid(20.0, 256)
        lengths = [2.0**(3 - k) for k in range(8)]
        cuts = np.concatenate(([0.0], np.cumsum(lengths)))
        d = IntervalDecomposition(np.column_stack((cuts[:-1], cuts[1:])), (0.5,) * 8, 0.5, (UNEXCEPTIONAL,) * 8,
                                  classified=True)
        times = np.arange(0.0, 16.5, 0.5)
        u = [gaussian_field(g, amplitude=1.0 + 0.01 * k, width=3.0, chirp=0.05 * k).values for k in range(times.size)]
        traj = Trajectory(g, times, u, {"H_sc": np.ones(times.size)})
        constants = ProofConstants(C=2.0)
        sel = SelectionResult(t_star=15.96875, chain=tuple(range(8)), K=8, dist_ratios=(0.0,) * 8, dist_cap=8.0)
        report = mass_bracketing_audit(traj, d, sel, constants)
        u_star = traj.field(traj.nearest_frame(sel.t_star))
        expected = []
        for L in lengths:
            radius = constants.dist_cap(d.eta) * np.sqrt(L)
            meas = localized_mass(u_star, radius) if radius <= g.r_max else np.nan
            ref = L ** (7.0 / 12.0)
            expected.append((float(radius), bool(radius <= g.r_max), float(meas / (d.eta**constants.C * ref)),
                             float(meas / (d.eta ** (-constants.C) * ref))))
        got = [(s.radius, s.resolvable, s.lower_ratio, s.upper_ratio) for s in report.steps]
        assert [s[1] for s in got] == [False] + [True] * 7
        assert repr(got) == repr(expected)


class TestLinearFlowFloor:
    def test_linear_trajectory_exact(self, grid_small):
        traj = linear_trajectory(gaussian_field(grid_small), (0.0, 0.5), StepController(snapshot_stride=0.01))
        total = np.trapezoid(traj.densities["s_density"], traj.times)
        d = partition_trajectory(traj, total / 4.1)
        r1, r2 = linear_flow_floor(traj, d, 1)
        expect = d.masses[1] / d.eta
        assert abs(r1 - expect) < 1e-9 and abs(r2 - expect) < 1e-9
        assert r1 >= 0.5

    def test_small_mass_rejected(self, grid_small):
        traj = linear_trajectory(gaussian_field(grid_small), (0.0, 0.5), StepController(snapshot_stride=0.01))
        d = IntervalDecomposition(
            intervals=((0.0, 0.25), (0.25, 0.5)), masses=(0.2, 0.001), eta=0.2,
            flags=(UNEXCEPTIONAL, TAIL), classified=True,
        )
        with pytest.raises(ValueError):
            linear_flow_floor(traj, d, 1)


GOOD_DECOMP = {"intervals": ((0.0, 1.0), (1.0, 3.0)), "masses": (0.5, 0.2), "eta": 0.5,
               "flags": (UNEXCEPTIONAL, TAIL)}


class TestDecompositionRules:
    @pytest.mark.parametrize("change", [
        {"intervals": (), "masses": (), "flags": ()},
        {"masses": (0.5,)},
        {"flags": (UNEXCEPTIONAL,)},
        {"intervals": ((0.0, 1.0), (1.0, 1.0))},
        {"intervals": ((0.0, 1.0), (1.1, 3.0))},
        {"intervals": ((0.0, 1.0), (math.nan, 3.0))},
        {"flags": (TAIL, UNEXCEPTIONAL)},
        {"flags": (TAIL, TAIL)},
        {"flags": ("good", TAIL)},
        {"eta": 0.0}, {"eta": -0.5}, {"eta": math.inf}, {"eta": math.nan},
        {"masses": (-0.5, 0.2)}, {"masses": (math.nan, 0.2)}, {"masses": (0.5, math.inf)},
        {"linear_masses": ((0.1, 0.2),)},
    ])
    def test_rejects(self, change):
        with pytest.raises(ValueError):
            IntervalDecomposition(**{**GOOD_DECOMP, **change})

    def test_holds_read_only_copies_of_endpoints_as_given(self):
        # endpoints that meet within the 1e-9 tolerance keep their exact lengths
        intervals = np.array([[0.0, 1.0], [1.0 + 1e-10, 3.0]])
        d = IntervalDecomposition(intervals, GOOD_DECOMP["masses"], 0.5, GOOD_DECOMP["flags"])
        assert d.lengths().tolist() == [1.0, 3.0 - (1.0 + 1e-10)] and d.span == (0.0, 3.0)
        assert d.indices(TAIL) == [1] and d.indices(EXCEPTIONAL) == []
        assert intervals.flags.writeable and not any(a.flags.writeable for a in (d.intervals, d.masses, d.flags))
        assert d != IntervalDecomposition(**GOOD_DECOMP)
        assert dataclasses.replace(d, intervals=GOOD_DECOMP["intervals"]) == IntervalDecomposition(**GOOD_DECOMP)


class TestSerialization:
    def test_json_round_trip(self):
        rng = np.random.default_rng(61)
        d = synthetic_decomposition(rng, 30, 0.2)
        d2 = IntervalDecomposition.from_json(d.to_json())
        assert np.array_equal(d2.intervals, d.intervals) and np.array_equal(d2.flags, d.flags) and d2.eta == d.eta

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), J=st.integers(1, 80), eta=st.floats(1e-9, 1e3),
           length_ratio=st.floats(1.0, 1e4), p_exceptional=st.floats(0.0, 1.0), t0=st.floats(-1e3, 1e3))
    def test_json_text_round_trip_property(self, seed, J, eta, length_ratio, p_exceptional, t0):
        d = synthetic_decomposition(np.random.default_rng(seed), J, eta, length_ratio, p_exceptional, t0)
        assert IntervalDecomposition.from_json(json.loads(json.dumps(d.to_json()))) == d
