"""Mass, energy, localized mass, Morawetz flux, and space-time norms."""

import dataclasses
import json

import numpy as np
import pytest

from snls import functionals as fn
from snls.evolve import StepController, evolve, linear_trajectory
from snls.functionals import (
    cutoff_profile,
    energy,
    localized_mass,
    localized_mass_rate,
    mass,
    morawetz_flux,
    s_density,
    space_time_norms,
)
from snls.radial import RadialField, fractional_apply, lebesgue_norm, rescale, sobolev_norm

from conftest import gaussian_field, random_smooth_field

SC = 7.0 / 6.0


class TestCutoff:
    def test_profile_shape(self):
        s = np.array([0.0, 0.3, 0.5, 0.75, 1.0, 2.0])
        chi = cutoff_profile(s)
        assert chi[0] == 1.0 and chi[1] == 1.0 and chi[2] == 1.0
        assert 0 < chi[3] < 1
        assert chi[4] == 0.0 and chi[5] == 0.0
        assert np.all((0 <= chi) & (chi <= 1))

    def test_scaled(self):
        # chi(x/R) at R = 4: flat inside R/2, zero beyond R
        chi = cutoff_profile(np.array([1.9, 4.1]) / 4.0)
        assert chi[0] == 1.0 and chi[1] == 0.0


class TestMassEnergy:
    def test_zero(self, grid_small):
        z = RadialField.zero(grid_small)
        assert mass(z) == 0.0 and energy(z) == 0.0

    def test_gaussian_mass(self, grid_desk):
        assert abs(mass(gaussian_field(grid_desk)) - np.pi**1.5) < 1e-8

    def test_scalars_equal_cached_densities(self, grid_small):
        # mass, energy and s_density are one-row calls of the formulas the trajectory caches
        ctl = StepController(dt_max=0.005, snapshot_stride=0.02)
        traj = evolve(gaussian_field(grid_small, amplitude=1.3, chirp=0.1), (0.0, 0.4), ctl)
        assert traj.times.size == 21
        for m in range(traj.times.size):
            u = traj.field(m)
            for name, scalar in (("mass", mass), ("energy", energy), ("s_density", s_density)):
                assert scalar(u) == traj.densities[name][m], (name, m)

    def test_gauge_invariance(self, grid_small):
        rng = np.random.default_rng(2)
        f = random_smooth_field(grid_small, rng)
        g = RadialField(grid_small, np.exp(1j * 0.77) * f.values)
        assert np.isclose(energy(f), energy(g), rtol=1e-12)


class TestLocalizedMass:
    def test_zero(self, grid_small):
        assert localized_mass(RadialField.zero(grid_small), 3.0) == 0.0

    def test_inner_support_recovers_l2(self, grid_small):
        f = gaussian_field(grid_small, width=0.4)
        # support effectively inside R/2 for R = 8
        assert abs(localized_mass(f, 8.0) - lebesgue_norm(f, 2.0)) < 1e-10

    def test_monotone_in_R(self, grid_small):
        rng = np.random.default_rng(4)
        f = random_smooth_field(grid_small, rng)
        vals = [localized_mass(f, R) for R in (1.0, 2.0, 4.0, 8.0, grid_small.r_max)]
        assert all(a <= b + 1e-14 for a, b in zip(vals, vals[1:]))
        assert abs(vals[-1] - lebesgue_norm(f, 2.0)) < 1e-10 * vals[-1]

    def test_minkowski(self, grid_small):
        rng = np.random.default_rng(8)
        for _ in range(20):
            f = random_smooth_field(grid_small, rng)
            g = random_smooth_field(grid_small, rng)
            h = RadialField(grid_small, f.values + g.values)
            lhs = localized_mass(h, 5.0)
            rhs = localized_mass(f, 5.0) + localized_mass(g, 5.0)
            assert lhs <= rhs * (1 + 1e-12)

    def test_mass_bound_ratio(self, grid_desk):
        # M(u;0,R) <= C R^(7/6) ||u||_{Hsc}: ratio bounded over scales
        f = gaussian_field(grid_desk)
        hsc = sobolev_norm(f, SC)
        ratios = [localized_mass(f, R) / (R ** (7.0 / 6.0) * hsc) for R in (0.25, 0.5, 1, 2, 4, 8)]
        assert max(ratios) < 1.0  # logged: ~0.33 for unit gaussians

    def test_radius_per_row_equals_scalar_calls(self, grid_small):
        # radii on both sides of the taper's ends, the grid's own nodes and r_max itself
        rng = np.random.default_rng(15)
        g = grid_small
        radii = np.concatenate((rng.uniform(0.05, g.r_max, 13), g.nodes[[3, 100]], 2.0 * g.nodes[[40]], [g.r_max]))
        u = np.stack([random_smooth_field(g, rng).values for _ in radii])
        rows = fn._localized_mass_rows(u, g, radii)
        assert rows.tobytes() == np.array([fn._localized_mass_rows(v, g, R) for v, R in zip(u, radii.tolist())]).tobytes()
        # one row against every radius, as the mass-bracketing audit calls it
        f = RadialField(g, u[0])
        assert fn._localized_mass_rows(u[0], g, radii).tolist() == [localized_mass(f, R) for R in radii.tolist()]

    @pytest.mark.parametrize("bad", [0.0, -1.0, 20.000001, np.nan, np.inf])
    def test_radius_outside_grid_rejected(self, grid_small, bad):
        u = np.ones((3, grid_small.n), dtype=complex)
        with pytest.raises(ValueError, match="R must lie in"):
            fn._localized_mass_rows(u, grid_small, bad)
        with pytest.raises(ValueError, match="R must lie in"):
            fn._localized_mass_rows(u, grid_small, np.array([1.0, bad, 2.0]))
        with pytest.raises(ValueError, match="R must lie in"):
            localized_mass(RadialField(grid_small, u[0]), bad)


class TestRates:
    def test_zero_rate(self, grid_small):
        ctl = StepController(snapshot_stride=0.05)
        traj = linear_trajectory(RadialField.zero(grid_small), (0.0, 0.5), ctl)
        assert localized_mass_rate(traj, traj.times[3], 4.0) == 0.0

    def test_linear_gaussian_rate_bound(self, grid_desk):
        ctl = StepController(snapshot_stride=0.02)
        traj = linear_trajectory(gaussian_field(grid_desk), (0.0, 1.0), ctl)
        hsc = traj.densities["H_sc"].max()
        R = 4.0
        rates = [abs(localized_mass_rate(traj, t, R)) for t in traj.times[1:-1:5]]
        assert max(rates) * R ** (5.0 / 6.0) / hsc < 2.0  # logged: ~1.1, uniform over t

    def test_rate_self_convergence(self, grid_desk):
        f = gaussian_field(grid_desk)
        t_mid, R = 0.5, 4.0
        vals = []
        for stride in (0.02, 0.01):
            traj = linear_trajectory(f, (0.0, 1.0), StepController(snapshot_stride=stride))
            vals.append(localized_mass_rate(traj, t_mid, R))
        assert abs(vals[1] - vals[0]) < 0.05 * abs(vals[1])


class TestMorawetz:
    def test_zero(self, grid_small):
        ctl = StepController(snapshot_stride=0.05)
        traj = linear_trajectory(RadialField.zero(grid_small), (0.0, 0.4), ctl)
        assert morawetz_flux(traj, (0.0, 0.4), 5.0) == 0.0

    def test_block_flux_matches_per_frame_loop(self, grid_small):
        # 21 frames: one block of 16 and a short one, against a frame-at-a-time quadrature
        ctl = StepController(dt_max=0.005, snapshot_stride=0.02)
        traj = evolve(gaussian_field(grid_small, amplitude=1.3), (0.0, 0.4), ctl)
        assert traj.times.size == 21
        g, R_cut = traj.grid, 3.0
        r = g.nodes
        for interval in ((0.0, 0.4), (0.04, 0.38)):
            sel = [m for m, t in enumerate(traj.times) if interval[0] - 1e-12 <= t <= interval[1] + 1e-12]
            vals = [4.0 * np.pi * g.dr * np.sum(np.where(r < R_cut, np.abs(traj.frames[m]) ** 8 * r, 0.0))
                    for m in sel]
            expect = np.trapezoid(vals, traj.times[sel])
            assert abs(morawetz_flux(traj, interval, R_cut) - expect) <= 1e-13 * expect

    def test_additive_over_adjacent(self, grid_small):
        rng = np.random.default_rng(3)
        f = random_smooth_field(grid_small, rng)
        traj = linear_trajectory(f, (0.0, 0.8), StepController(snapshot_stride=0.05))
        whole = morawetz_flux(traj, (0.0, 0.8), 6.0)
        parts = morawetz_flux(traj, (0.0, 0.4), 6.0) + morawetz_flux(traj, (0.4, 0.8), 6.0)
        assert abs(whole - parts) <= 1e-12 * max(whole, 1e-300)


class TestSpaceTimeNorms:
    def test_admissibility_arithmetic(self):
        # the two exponent pairs behind the W norm satisfy 2/q + 3/r = 3/2 exactly
        for q, r in [(10.0 / 3.0, 10.0 / 3.0), (15.0, 90.0 / 41.0)]:
            assert 2.0 / q + 3.0 / r == pytest.approx(1.5, abs=1e-15)

    def test_zero_trajectory(self, grid_small):
        traj = linear_trajectory(RadialField.zero(grid_small), (0.0, 0.3), StepController(snapshot_stride=0.05))
        rep = space_time_norms(traj, (0.0, 0.3))
        assert rep.S == 0.0 and rep.W == 0.0 and rep.N == 0.0

    def test_degree_one_homogeneity_linear_flow(self, grid_small):
        f = gaussian_field(grid_small, amplitude=1.0)
        g = gaussian_field(grid_small, amplitude=2.0)
        ctl = StepController(snapshot_stride=0.05)
        ra = space_time_norms(linear_trajectory(f, (0.0, 0.4), ctl), (0.0, 0.4))
        rb = space_time_norms(linear_trajectory(g, (0.0, 0.4), ctl), (0.0, 0.4))
        assert np.isclose(rb.S, 2.0 * ra.S, rtol=1e-9)
        assert np.isclose(rb.W, 2.0 * ra.W, rtol=1e-9)
        # the report's N field carries the nonlinearity, degree seven
        assert np.isclose(rb.N, 2.0**7 * ra.N, rtol=1e-9)

    def test_block_norms_match_per_frame_formulas(self, grid_small):
        # 21 frames: one block of 16 and a short one; W and N against a field-at-a-time loop
        ctl = StepController(dt_max=0.005, snapshot_stride=0.02)
        traj = evolve(gaussian_field(grid_small, amplitude=1.3), (0.0, 0.4), ctl)
        assert traj.times.size == 21
        rep = space_time_norms(traj, (0.0, 0.4))
        t = traj.times
        w_a, w_b, n_v = [], [], []
        for m in range(t.size):
            u = traj.field(m)
            du = fractional_apply(u, SC)
            dnl = fractional_apply(RadialField(u.grid, np.abs(u.values) ** 6 * u.values), SC)
            w_a.append(lebesgue_norm(du, 10.0 / 3.0))
            w_b.append(lebesgue_norm(du, 90.0 / 41.0))
            n_v.append(lebesgue_norm(dnl, 10.0 / 7.0))

        def lqt(v, q):
            return np.trapezoid(np.array(v) ** q, t) ** (1.0 / q)

        W = max(lqt(w_a, 10.0 / 3.0), lqt(w_b, 15.0))
        assert abs(rep.W - W) <= 1e-12 * W
        assert abs(rep.N - lqt(n_v, 10.0 / 7.0)) <= 1e-12 * rep.N
        d = traj.densities
        assert rep.S == np.trapezoid(d["s_density"], t) ** (1.0 / 15.0)
        assert rep.mass == d["mass"].mean() and rep.energy == d["energy"].mean()
        assert rep.sup_Hsc == d["H_sc"].max()

    def test_single_frame_rejected(self, grid_small):
        traj = linear_trajectory(gaussian_field(grid_small), (0.0, 0.3), StepController(snapshot_stride=0.05))
        with pytest.raises(ValueError):
            space_time_norms(traj, (0.0, 0.01))

    def test_json_row(self, grid_small):
        traj = linear_trajectory(gaussian_field(grid_small), (0.0, 0.2), StepController(snapshot_stride=0.05))
        row = dataclasses.asdict(space_time_norms(traj, (0.0, 0.2)))
        assert set(row) == {"interval", "S", "W", "N", "sup_Hsc", "mass", "energy"}
        assert json.loads(json.dumps(row)) == {**row, "interval": [0.0, 0.2]}


class TestSDensity:
    def test_zero(self, grid_small):
        assert s_density(RadialField.zero(grid_small)) == 0.0

    def test_amplitude_power(self, grid_small):
        f = gaussian_field(grid_small, amplitude=1.0)
        g = gaussian_field(grid_small, amplitude=2.0)
        assert np.isclose(s_density(g), 2.0**15 * s_density(f), rtol=1e-10)

    def test_scaling_bookkeeping(self, grid_desk):
        # spatial density scales as lam^(-2); the time measure contributes lam^2,
        # so the space-time integral is invariant under the full scaling
        f = gaussian_field(grid_desk)
        lam = 1.5
        assert np.isclose(s_density(rescale(f, lam)), lam**-2 * s_density(f), rtol=1e-4)
