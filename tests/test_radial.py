"""Transforms, multipliers, and norms against quadrature/closed-form oracles."""

import importlib
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout

import numpy as np
import pytest
import scipy.fft as sfft
from scipy.integrate import quad
from scipy.special import gamma

from snls import radial
from snls.checkpoints import TrajectoryFrameWriter, read_trajectory_frames
from snls.radial import (
    RadialField,
    RadialGrid,
    SpectralField,
    fractional_apply,
    from_spectral,
    hardy_ratio,
    lebesgue_norm,
    rescale,
    sobolev_norm,
    to_spectral,
)

from conftest import gaussian_field, random_smooth_field

SC = 7.0 / 6.0
evolve = importlib.import_module("snls.evolve")  # the package re-exports the function evolve under this name


class TestGrid:
    def test_geometry(self):
        g = RadialGrid(40.0, 4096)
        assert g.dr * (g.n + 1) == g.r_max
        assert g.nodes[0] == g.dr and np.isclose(g.nodes[-1], g.r_max - g.dr)
        assert np.isclose(g.frequencies[0], np.pi / g.r_max)

    def test_grid_arrays_cached_read_only(self):
        g = RadialGrid(40.0, 4096)
        assert g.nodes is g.nodes and g.frequencies is g.frequencies
        assert not g.nodes.flags.writeable and not g.frequencies.flags.writeable
        assert np.array_equal(g.nodes, g.dr * np.arange(1, g.n + 1))
        fresh = RadialGrid(40.0, 4096)
        assert fresh == g and hash(fresh) == hash(g) and {g: 1}[fresh] == 1

    @pytest.mark.parametrize("n", [7, 12, 100, 0])
    def test_rejects_bad_n(self, n):
        with pytest.raises(ValueError):
            RadialGrid(10.0, n)

    @pytest.mark.parametrize("n", [8, 9, 255, 256, 2047, 4096, 16383, 14999])
    def test_accepts_power_of_two_or_smooth_n_plus_one(self, n):
        g = RadialGrid(10.0, n)
        f = gaussian_field(g)
        assert np.abs(from_spectral(to_spectral(f)).values - f.values).max() < 1e-13


class TestTransforms:
    def test_zero_field_zero_coeffs(self, grid_small):
        f = RadialField.zero(grid_small)
        assert np.all(to_spectral(f).coeffs == 0)
        assert np.all(from_spectral(SpectralField(grid_small, np.zeros(grid_small.n))).values == 0)

    def test_eigenfunction_single_mode(self, grid_small):
        g = grid_small
        f = RadialField(g, np.sin(np.pi * g.nodes / g.r_max) / g.nodes)
        c = to_spectral(f).coeffs
        assert abs(c[0]) > 1.0
        assert np.abs(c[1:]).max() < 1e-12 * abs(c[0])

    def test_single_coefficient_k3(self, grid_small):
        g = grid_small
        coeffs = np.zeros(g.n, dtype=complex)
        coeffs[2] = 1.0
        f = from_spectral(SpectralField(g, coeffs))
        expect = np.sqrt(2.0 / (g.n + 1)) * np.sin(3 * np.pi * g.nodes / g.r_max) / g.nodes
        assert np.abs(f.values - expect).max() < 1e-14

    def test_gaussian_matches_sine_quadrature(self):
        # oracle: adaptive quadrature of the analytic sine integral
        g = RadialGrid(30.0, 4096)
        f = gaussian_field(g)
        W = to_spectral(f).sine_integrals()
        for k in (0, 4, 40, 300):
            rho = g.frequencies[k]
            oracle, _ = quad(lambda x, p=rho: x * np.exp(-(x**2) / 2) * np.sin(p * x), 0, np.inf, limit=400)
            assert abs(W[k].real - oracle) < 1e-8
            assert abs(W[k].imag) < 1e-14

    def test_round_trip_random_fields(self, grid_small):
        rng = np.random.default_rng(7)
        for _ in range(100):
            f = random_smooth_field(grid_small, rng)
            back = from_spectral(to_spectral(f))
            num = lebesgue_norm(RadialField(grid_small, back.values - f.values), 2.0)
            assert num <= 1e-12 * lebesgue_norm(f, 2.0)

    def test_rejects_non_finite_with_index(self, grid_small):
        vals = np.ones(grid_small.n, dtype=complex)
        vals[17] = np.nan
        with pytest.raises(ValueError, match="index 17"):
            to_spectral(RadialField(grid_small, vals))


def _complex_rows(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _propagator_dts(rows, seed=0):
    return np.random.default_rng(seed).uniform(-0.5, 0.5, rows)


def _child_transforms():
    """Runs in a worker process: a split row, a (16, 4096) block on two workers and a propagator block, as bytes."""
    grid = RadialGrid(20.0, 4096)
    return (radial._dst1(_complex_rows(4096)).tobytes(), radial._dst1(_complex_rows((16, 4096))).tobytes(),
            evolve._propagator(grid, _propagator_dts(16)).tobytes())


def _child_evolve():
    """Runs in a worker process: a short n = 2048 run, as frame bytes and the names of the threads its frames ran on."""
    ctl = evolve.StepController(dt_max=0.0025, snapshot_stride=0.005)
    names = []
    traj = evolve.evolve(gaussian_field(RadialGrid(20.0, 2048)), (0.0, 0.02), ctl,
                         on_frame=lambda t, field, stats: names.append(threading.current_thread().name))
    return traj.frames.tobytes(), names


class TestSplitTransform:
    @pytest.mark.parametrize("n", [256, 512, 2047, 2048, 8191, 16384])
    @pytest.mark.parametrize("rows", [None, 3])
    def test_equals_scipy_byte_for_byte(self, two_cpus, n, rows):
        x = _complex_rows(n if rows is None else (rows, n))
        assert radial._dst1(x).tobytes() == sfft.dst(x, type=1, norm="ortho").tobytes()

    @pytest.mark.parametrize("n", [256, 512, 2047, 2048, 8191, 16384])
    def test_block_equals_row_calls(self, two_cpus, n):
        x = _complex_rows((3, n))
        assert radial._dst1(x).tobytes() == np.stack([radial._dst1(row) for row in x]).tobytes()

    def test_mapped_frame_block(self, two_cpus, tmp_path):
        # read-only rows 8 + 16n bytes apart, as the mapped frame log holds them
        n, path = 2048, tmp_path / "frames.snls"
        x = _complex_rows((5, n))
        with TrajectoryFrameWriter(path, RadialGrid(20.0, n)) as writer:
            for t, row in enumerate(x):
                writer.append(float(t), row)
        frames = read_trajectory_frames(path)[2]
        assert not frames.flags.writeable and frames.strides == (8 + 16 * n, 16)
        assert radial._dst1(frames).tobytes() == sfft.dst(x, type=1, norm="ortho").tobytes()

    @pytest.mark.parametrize("n", [512, 2048, 16384])
    def test_last_axis_not_contiguous(self, two_cpus, n):
        x = _complex_rows((3, 2 * n))[:, ::2]
        expected = sfft.dst(np.ascontiguousarray(x), type=1, norm="ortho").tobytes()
        assert radial._dst1(x).tobytes() == expected

    # a single row splits at the powers of two from 4096 up, on two CPUs, and takes the lanes otherwise (the lanes
    # column); a block takes the lanes on two pocketfft workers from 1023 samples up, on two CPUs, and on one otherwise
    @pytest.mark.parametrize("n, cpus, lanes", [
        (8191, {0, 1}, True),
        (8192, {0}, True),
        (8192, {0, 1}, False),
        (2048, {0, 1}, True),
        (4095, {0, 1}, True),
        (4096, {0, 1}, False),
        (16383, {0, 1}, True),
        (16384, {0, 1}, False),
        (511, {0, 1}, True),
        (1022, {0, 1}, True),
        (1023, {0, 1}, True),
        (1023, {0}, True),
    ])
    def test_lane_pass_is_one_real_transform(self, monkeypatch, n, cpus, lanes):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        calls, real_dst = [], sfft.dst

        def spy(a, **kw):
            calls.append((a.dtype, a.shape, kw.get("axis"), kw.get("workers")))
            return real_dst(a, **kw)

        monkeypatch.setattr(radial.sfft, "dst", spy)
        f8 = np.dtype(np.float64)
        radial._dst1(_complex_rows(n))
        assert calls == ([(f8, (n, 2), -2, None)] if lanes else [(f8, (n,), None, None)] * 2)  # one pass, or two halves
        calls.clear()
        radial._dst1(_complex_rows((2, n)))
        workers = 2 if n >= 1023 and len(cpus) >= 2 else None
        assert calls == [(f8, (2, n, 2), -2, workers)]  # a block is always one two-lane pass

    def test_split_runs_on_the_helper_thread(self, two_cpus, monkeypatch):
        submitted = []
        pool = radial._pool()
        monkeypatch.setattr(radial, "_pool", lambda: submitted.append(1) or pool)
        radial._dst1(_complex_rows(4096))
        radial._dst1(_complex_rows(8191))
        assert submitted == [1]

    @pytest.mark.parametrize("x, cpus", [
        (_complex_rows(16384).real, {0, 1}),  # real input: one real transform, nothing to split
        (_complex_rows(16384), {0}),  # one permitted CPU, as under taskset -c 0: the lane pass
    ])
    def test_plain_call_without_split(self, monkeypatch, x, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(radial, "_pool", lambda: pytest.fail("split path taken"))
        assert radial._dst1(x).tobytes() == sfft.dst(x, type=1, norm="ortho").tobytes()

    def test_forked_child_starts_its_own_helper_thread(self, two_cpus):
        # the parent's helper and frame threads and pocketfft's workers exist before the fork; the children inherit
        # none of them
        grid = RadialGrid(20.0, 4096)
        expected = (sfft.dst(_complex_rows(4096), type=1, norm="ortho").tobytes(),
                    sfft.dst(_complex_rows((16, 4096)), type=1, norm="ortho").tobytes(),
                    np.exp(-1j * grid.frequencies**2 * _propagator_dts(16)[:, None]).tobytes())
        assert _child_transforms() == expected
        frames, names = _child_evolve()
        assert names == ["snls-frames_0"] * 5
        ex = ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("fork"))
        try:
            futures = [ex.submit(_child_transforms) for _ in range(4)] + [ex.submit(_child_evolve) for _ in range(4)]
            results = [f.result(timeout=60) for f in futures]
        except FutureTimeout:
            for proc in list(ex._processes.values()):
                proc.kill()
            pytest.fail("a forked child hung in a two-thread path")
        finally:
            ex.shutdown(wait=False, cancel_futures=True)
        assert results == [expected] * 4 + [(frames, names)] * 4


class TestBlockThreads:
    """Blocks of rows on two threads: pocketfft's workers for the transform, the helper for the propagator."""

    @pytest.mark.parametrize("cpus", [{0, 1}, {0}])
    @pytest.mark.parametrize("n", [511, 1023, 2048, 4096, 16384])
    @pytest.mark.parametrize("rows", [2, 5, 16])
    def test_block_equals_scipy_byte_for_byte(self, monkeypatch, rows, n, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        x = _complex_rows((rows, n), seed=rows)
        assert radial._dst1(x).tobytes() == sfft.dst(x, type=1, norm="ortho").tobytes()

    @pytest.mark.parametrize("cpus", [{0, 1}, {0}])
    @pytest.mark.parametrize("n", [511, 2048, 16384])
    @pytest.mark.parametrize("rows", [2, 5, 16])
    def test_propagator_equals_one_exp(self, monkeypatch, rows, n, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        submitted, pool = [], radial._pool()
        monkeypatch.setattr(evolve, "_pool", lambda: submitted.append(1) or pool)
        grid = RadialGrid(20.0, n)
        dts = _propagator_dts(rows, seed=rows)
        expected = np.exp(-1j * grid.frequencies**2 * dts[:, None])
        assert evolve._propagator(grid, dts).tobytes() == expected.tobytes()
        assert evolve._propagator(grid, dts[0]).tobytes() == expected[0].tobytes()  # a scalar dt: one row, one call
        assert submitted == ([1] if n >= 1023 and len(cpus) >= 2 else [])  # the block's second half only


class TestFractional:
    def test_identity_at_zero(self, grid_small):
        rng = np.random.default_rng(0)
        f = random_smooth_field(grid_small, rng)
        assert fractional_apply(f, 0.0) is f

    def test_eigenvalue_s2(self, grid_small):
        g = grid_small
        f = RadialField(g, np.sin(np.pi * g.nodes / g.r_max) / g.nodes)
        out = fractional_apply(f, 2.0)
        assert np.abs(out.values - (np.pi / g.r_max) ** 2 * f.values).max() < 1e-12

    def test_gaussian_sc_against_quadrature(self):
        # oracle: inverse sine transform of rho^sc * (analytic transform), node by node;
        # r_max = 60 keeps the Dirichlet image of the r^(-25/6) far tail below 1e-7
        g = RadialGrid(60.0, 4096)
        f = gaussian_field(g)
        out = fractional_apply(f, SC)
        sup = np.abs(out.values).max()

        def w_oracle(r):
            val, _ = quad(
                lambda p: p**SC * np.sqrt(np.pi / 2) * p * np.exp(-(p**2) / 2) * np.sin(p * r),
                0, 40.0, limit=800,
            )
            return 2.0 / np.pi * val

        for i in (3, 40, 409, 1200, 1707):
            r = g.nodes[i]
            assert abs(out.values[i].real - w_oracle(r) / r) < 1e-7 * max(sup, 1.0)
            assert abs(out.values[i].imag) < 1e-12

    def test_multiplier_composition(self, grid_small):
        rng = np.random.default_rng(3)
        f = random_smooth_field(grid_small, rng)
        for s, t in [(0.5, 1.0), (SC, 2.0), (1.5, 2.5)]:
            a = fractional_apply(fractional_apply(f, s), t)
            b = fractional_apply(f, s + t)
            diff = lebesgue_norm(RadialField(grid_small, a.values - b.values), 2.0)
            assert diff <= 1e-10 * max(lebesgue_norm(b, 2.0), 1.0)

    def test_rejects_out_of_range(self, grid_small):
        f = RadialField.zero(grid_small)
        for s in (-0.1, 4.5):
            with pytest.raises(ValueError):
                fractional_apply(f, s)


class TestNorms:
    def test_zero_field(self, grid_small):
        f = RadialField.zero(grid_small)
        assert sobolev_norm(f, 1.3) == 0.0
        assert lebesgue_norm(f, 5.0) == 0.0

    def test_plancherel_identity(self, grid_small):
        rng = np.random.default_rng(11)
        for _ in range(20):
            f = random_smooth_field(grid_small, rng)
            a, b = sobolev_norm(f, 0.0), lebesgue_norm(f, 2.0)
            assert abs(a - b) <= 1e-12 * b

    def test_gaussian_sobolev_sc(self, grid_desk):
        f = gaussian_field(grid_desk)
        # oracle: int rho^(2s) |fhat|^2 4 pi rho^2 drho, fhat(rho) = exp(-rho^2/2)
        val, _ = quad(lambda p: 4 * np.pi * p ** (2 * SC + 2) * np.exp(-(p**2)), 0, 30.0)
        oracle = np.sqrt(val)
        assert abs(oracle - np.sqrt(2 * np.pi * gamma(SC + 1.5))) < 1e-12  # same integral, closed form
        assert abs(sobolev_norm(f, SC) - oracle) < 1e-7

    def test_gaussian_l2(self, grid_desk):
        f = gaussian_field(grid_desk)
        assert abs(lebesgue_norm(f, 2.0) - np.pi**0.75) < 1e-8

    def test_homogeneity(self, grid_small):
        rng = np.random.default_rng(5)
        f = random_smooth_field(grid_small, rng)
        lam = 3.7
        g2 = RadialField(grid_small, lam * f.values)
        for p in (2.0, 9.0, 15.0):
            assert np.isclose(lebesgue_norm(g2, p), lam * lebesgue_norm(f, p), rtol=1e-12)

    def test_sup_norm(self, grid_small):
        rng = np.random.default_rng(6)
        f = random_smooth_field(grid_small, rng)
        assert lebesgue_norm(f, np.inf) == np.abs(f.values).max()

    def test_interpolation_exact_hoelder(self, grid_small):
        rng = np.random.default_rng(12)
        for delta in (0.05, 0.1):
            s_lo, s_hi = SC - delta, SC + 1.0 - delta
            for _ in range(100):
                f = random_smooth_field(grid_small, rng)
                mid = sobolev_norm(f, SC)
                bound = sobolev_norm(f, s_lo) ** (1 - delta) * sobolev_norm(f, s_hi) ** delta
                assert mid <= bound * (1 + 1e-12)


class TestRescale:
    def test_identity(self, grid_desk):
        f = gaussian_field(grid_desk)
        assert rescale(f, 1.0) is f

    def test_critical_norm_invariance(self, grid_desk):
        f = gaussian_field(grid_desk)
        base_h = sobolev_norm(f, SC)
        base_9 = lebesgue_norm(f, 9.0)
        for lam in (0.5, 0.8, 1.25, 2.0):
            v = rescale(f, lam)
            assert abs(sobolev_norm(v, SC) - base_h) < 1e-4 * base_h
            assert abs(lebesgue_norm(v, 9.0) - base_9) < 1e-4 * base_9

    def test_truncation_warning(self):
        g = RadialGrid(40.0, 1024)
        f = gaussian_field(g, width=8.0)
        v = rescale(f, 4.0)
        assert v.meta.get("truncation_warning") is True
        assert v.meta["mass_loss_fraction"] > 0.01

    def test_rejects_bad_lambda(self, grid_small):
        f = gaussian_field(grid_small)
        with pytest.raises(ValueError):
            rescale(f, 0.0)


class TestHardy:
    def test_alpha_zero_is_one(self, grid_small):
        rng = np.random.default_rng(9)
        f = random_smooth_field(grid_small, rng)
        assert abs(hardy_ratio(f, 0.0) - 1.0) < 1e-12

    def test_gaussian_stable_under_refinement(self):
        vals = [hardy_ratio(gaussian_field(RadialGrid(40.0, n)), SC) for n in (4096, 8192)]
        assert abs(vals[1] - vals[0]) < 0.01 * vals[0]

    def test_random_family_bounded(self, grid_small):
        rng = np.random.default_rng(21)
        ratios = [hardy_ratio(random_smooth_field(grid_small, rng), SC) for _ in range(50)]
        assert max(ratios) < 4.0  # empirical sup ~ 1.6 for this family; margin logged

    def test_zero_field_rejected(self, grid_small):
        with pytest.raises(ValueError):
            hardy_ratio(RadialField.zero(grid_small), SC)
