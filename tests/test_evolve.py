"""Free flow, split stepping, adaptive evolution, and Duhamel machinery."""

import importlib
import os
import sys
import threading
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snls.evolve import (
    StepController,
    Trajectory,
    _snapshot_times,
    rebuild_trajectory,
    average_translate,
    duhamel_residual,
    duhamel_tail,
    evolve,
    free_evolve,
    linear_trajectory,
    nonlinear_phase,
    strang_step,
)
from snls.functionals import mass, s_density
from snls import radial
from snls.radial import RadialField, RadialGrid, lebesgue_norm, sobolev_norm

from conftest import gaussian_field, random_smooth_field

SC = 7.0 / 6.0


def l2_diff(a: RadialField, b: RadialField) -> float:
    return lebesgue_norm(RadialField(a.grid, a.values - b.values), 2.0)


class TestFreeEvolve:
    def test_identity_at_zero(self, grid_small):
        f = gaussian_field(grid_small)
        assert free_evolve(f, 0.0) is f

    def test_gaussian_closed_form(self, grid_desk):
        # oracle: complex-width gaussian from heat-kernel analytic continuation,
        # e^{itL} e^{-r^2/2} = (1+2it)^(-3/2) exp(-r^2/(2(1+2it)))
        f = gaussian_field(grid_desk)
        out = free_evolve(f, 1.0)
        b = 1.0 + 2.0j
        exact = RadialField(grid_desk, b ** (-1.5) * np.exp(-grid_desk.nodes**2 / (2 * b)))
        assert l2_diff(out, exact) <= 1e-6

    def test_unitarity(self, grid_small):
        rng = np.random.default_rng(1)
        f = random_smooth_field(grid_small, rng)
        out = free_evolve(f, 0.37)
        assert abs(mass(out) - mass(f)) <= 1e-12 * mass(f)
        for s in (0.5, SC, 2.0):
            a, b = sobolev_norm(out, s), sobolev_norm(f, s)
            assert abs(a - b) <= 1e-12 * b

    def test_group_law(self, grid_small):
        rng = np.random.default_rng(2)
        f = random_smooth_field(grid_small, rng)
        a = free_evolve(free_evolve(f, 0.3), 0.45)
        b = free_evolve(f, 0.75)
        assert l2_diff(a, b) <= 1e-12 * lebesgue_norm(f, 2.0)

    def test_dispersive_decay_l15(self):
        # ||e^{itL} u0||_L15 * t^(13/10) stays bounded on t in [1, 8]
        g = RadialGrid(256.0, 8192)
        f = gaussian_field(g)
        vals = [lebesgue_norm(free_evolve(f, t), 15.0) * t ** 1.3 for t in np.linspace(1.0, 8.0, 15)]
        assert max(vals) < 2.0 * min(vals)
        assert max(vals) < 1.0  # logged: ~0.29 for the unit gaussian


class TestNonlinearPhase:
    def test_identity_at_zero(self, grid_small):
        f = gaussian_field(grid_small)
        assert nonlinear_phase(f, 0.0) is f

    def test_modulus_unchanged(self, grid_small):
        rng = np.random.default_rng(3)
        f = random_smooth_field(grid_small, rng)
        out = nonlinear_phase(f, 0.3)
        assert np.abs(np.abs(out.values) - np.abs(f.values)).max() < 1e-14

    def test_constant_modulus_global_phase(self, grid_small):
        a, dt = 1.3, 0.21
        f = RadialField(grid_small, np.full(grid_small.n, a, dtype=complex))
        out = nonlinear_phase(f, dt)
        assert np.abs(out.values - a * np.exp(-1j * a**6 * dt)).max() < 1e-14


class TestStrangStep:
    def test_identity_at_zero(self, grid_small):
        f = gaussian_field(grid_small)
        assert strang_step(f, 0.0) is f

    def test_time_reversibility(self, grid_small):
        f = gaussian_field(grid_small, amplitude=1.2)
        u = f
        dt = 0.01
        for _ in range(100):
            u = strang_step(u, dt)
        for _ in range(100):
            u = strang_step(u, -dt)
        assert l2_diff(u, f) <= 1e-9

    def test_small_amplitude_matches_free(self, grid_small):
        # nonlinear correction is O(amplitude^7): doubling the amplitude
        # multiplies the absolute deviation by ~2^7
        diffs = []
        for amp in (0.01, 0.02):
            f = gaussian_field(grid_small, amplitude=amp)
            diffs.append(l2_diff(strang_step(f, 0.05), free_evolve(f, 0.05)))
        ratio = diffs[1] / diffs[0]
        assert 80.0 < ratio < 200.0
        assert diffs[0] < 1e-14

    def test_overflow_raises_floating_point_error(self, grid_small):
        # |u|^6 overflows float64, so the step cannot leave finite samples
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="non-finite"):
            strang_step(gaussian_field(grid_small, amplitude=1e60), 0.01)

    def test_overflow_raises_without_warnings(self, grid_small):
        # the kernel handles the overflow itself, so numpy has nothing to warn about on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="non-finite"):
                strang_step(gaussian_field(grid_small, amplitude=1e60), 0.01)


class TestStepController:
    @pytest.mark.parametrize("field, value", [
        ("dt_max", 0.0), ("theta", 1.5), ("snapshot_stride", -0.1), ("boundary_mass_tol", -1.0),
        ("blowup_ceiling", -1.0), ("sobolev_delta", 5.0), ("sobolev_delta", -3.0), ("theta", "0.1"),
    ])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must lie in"):
            StepController(**{field: value})

    def test_accepts_inf_ceilings_and_full_delta(self):
        StepController(boundary_mass_tol=np.inf, blowup_ceiling=np.inf, sobolev_delta=SC)


class TestNearestFrame:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_equals_argmin(self, data):
        # frame times, the midpoints between them (exact ties for a stride of 0.25) and arbitrary times around them
        F = data.draw(st.integers(1, 30), label="frames")
        stride = data.draw(st.sampled_from((0.25, 0.1, 1e-3)), label="stride")
        times = data.draw(st.floats(-5.0, 5.0), label="t0") + stride * np.arange(F)
        traj = Trajectory(RadialGrid(10.0, 8), times, np.zeros((F, 8)), {})
        ts = np.array(data.draw(st.lists(st.one_of(
            st.sampled_from(times.tolist()),
            st.sampled_from((times[:-1] + 0.5 * stride).tolist() or [times[0]]),
            st.floats(times[0] - 1.0, times[-1] + 1.0)), min_size=1, max_size=20), label="t"))
        expected = [int(np.argmin(np.abs(times - t))) for t in ts]
        assert traj.nearest_frame(ts).tolist() == expected
        assert [traj.nearest_frame(t) for t in ts.tolist()] == expected
        assert all(type(traj.nearest_frame(t)) is int for t in ts.tolist())

    def test_tie_takes_the_earlier_frame(self):
        traj = Trajectory(RadialGrid(10.0, 8), [0.0, 1.0, 2.0], np.zeros((3, 8)), {})
        assert traj.nearest_frame(0.5) == 0 and traj.nearest_frame(1.5) == 1
        assert traj.nearest_frame(np.array([[0.5, 1.5], [-3.0, 7.0]])).tolist() == [[0, 1], [0, 2]]

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, np.array([0.5, np.nan])])
    def test_non_finite_time_rejected(self, t):
        traj = Trajectory(RadialGrid(10.0, 8), [0.0, 1.0, 2.0], np.zeros((3, 8)), {})
        with pytest.raises(ValueError, match="t must be finite"):
            traj.nearest_frame(t)


class TestEvolve:
    def test_zero_data(self, grid_small):
        ctl = StepController(dt_max=0.01, snapshot_stride=0.05)
        traj = evolve(RadialField.zero(grid_small), (0.0, 0.2), ctl)
        assert traj.status == "ok"
        for key in ("mass", "energy", "s_density", "H_sc"):
            assert np.all(traj.densities[key] == 0.0)

    def test_conservation_small_grid(self, grid_small):
        ctl = StepController(dt_max=0.005, snapshot_stride=0.05)
        traj = evolve(gaussian_field(grid_small), (0.0, 0.5), ctl)
        m, e = traj.densities["mass"], traj.densities["energy"]
        assert abs(m[-1] - m[0]) <= 1e-10 * m[0]
        assert abs(e[-1] - e[0]) <= 1e-5 * e[0]

    def test_energy_drift_second_order(self, grid_small):
        f = gaussian_field(grid_small)
        drifts = []
        for dt in (0.004, 0.002):
            traj = evolve(f, (0.0, 0.5), StepController(dt_max=dt, snapshot_stride=0.25))
            e = traj.densities["energy"]
            drifts.append(abs(e[-1] - e[0]) / e[0])
        assert 3.5 <= drifts[0] / drifts[1] <= 4.5

    def test_blowup_guard_aborts(self, grid_small):
        ctl = StepController(dt_max=0.01, snapshot_stride=0.05, blowup_ceiling=0.5)
        traj = evolve(gaussian_field(grid_small), (0.0, 0.3), ctl)
        assert traj.status == "blowup_abort"
        assert traj.times.size >= 1  # partial trajectory preserved

    def test_dt_overflow_ends_in_dt_underflow(self, grid_small):
        # sup|u|^6 overflows float64: no step can be taken, and the run must stop
        ctl = StepController(dt_max=0.01, snapshot_stride=0.05, blowup_ceiling=np.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            traj = evolve(gaussian_field(grid_small, amplitude=1e60), (0.0, 0.2), ctl)
        assert traj.status == "dt_underflow"
        assert traj.times.size == 1 and traj.provenance["telemetry"]["steps"] == 0

    @pytest.mark.filterwarnings("error")
    def test_dt_overflow_on_the_frame_thread(self, two_cpus):
        # the caller's np.errstate governs the frame statistics on the frame thread too (n >= 1023, two CPUs)
        ctl = StepController(dt_max=0.01, snapshot_stride=0.05, blowup_ceiling=np.inf)
        names = []
        with np.errstate(over="ignore", invalid="ignore"):
            traj = evolve(gaussian_field(RadialGrid(20.0, 1023), amplitude=1e60), (0.0, 0.2), ctl,
                          on_frame=lambda t, field, stats: names.append(threading.current_thread().name))
        assert traj.status == "dt_underflow" and names == ["snls-frames_0"]
        assert traj.times.size == 1 and traj.provenance["telemetry"]["steps"] == 0

    def test_rebuilt_densities_match_across_blocks(self, grid_small):
        # 41 frames span three blocks; evolve computes each frame's densities on its own
        ctl = StepController(dt_max=0.005, snapshot_stride=0.01)
        traj = evolve(gaussian_field(grid_small, amplitude=1.2), (0.0, 0.4), ctl)
        assert traj.times.size == 41
        again = rebuild_trajectory(traj.grid, traj.times, traj.frames, ctl)
        for k, v in traj.densities.items():
            assert np.array_equal(again.densities[k], v), k
        assert again.boundary_breach == traj.boundary_breach

    def test_small_data_scattering(self):
        g = RadialGrid(160.0, 8192)
        f = gaussian_field(g, amplitude=0.1)
        ctl = StepController(dt_max=0.05, snapshot_stride=0.5)
        traj = evolve(f, (0.0, 10.0), ctl)
        assert traj.status == "ok" and not traj.boundary_breach
        s15 = np.trapezoid(traj.densities["s_density"], traj.times) ** (1.0 / 15.0)
        assert np.isfinite(s15) and s15 > 0
        h0, h1 = traj.densities["H_sc"][0], traj.densities["H_sc"][-1]
        assert abs(h1 - h0) < 0.05 * h0


def reference_step(u: RadialField, dt: float) -> RadialField:
    """One Strang step composed from the public flows, independent of evolve's kernel."""
    return nonlinear_phase(free_evolve(nonlinear_phase(u, dt / 2.0), dt), dt / 2.0)


def strang_reference(u0: RadialField, t_span, ctl: StepController, halve_step=None, step=reference_step) -> np.ndarray:
    """Frames of one `step` call per step under evolve's dt rule: the unfused loop.

    Step number halve_step (0-based) is taken at half its dt, as after one rejection.
    """
    t_a, t_b = t_span
    u, t, frames, k = u0, t_a, [u0.values], 0
    for t_next in _snapshot_times(t_a, t_b, ctl.snapshot_stride):
        while t_next - t > 1e-12 * max(1.0, abs(t_next)):
            dt = min(ctl.dt_max, ctl.theta / max(1e-12, float(np.abs(u.values).max()) ** 6), t_next - t)
            if k == halve_step:
                dt /= 2.0
            u = step(u, dt)
            t += dt
            k += 1
        t = float(t_next)
        frames.append(u.values)
    return np.array(frames)


class TestSnapshotTimes:
    @settings(max_examples=200, deadline=None)
    @given(t_a=st.floats(-10.0, 10.0), length=st.floats(1e-3, 10.0), stride=st.floats(1e-2, 5.0),
           shift=st.floats(0.0, 3.0))
    def test_frame_bound_holds(self, t_a, length, stride, shift):
        # a resumed run anchors its snapshot grid at or before t_a
        t_b = t_a + length
        frames = 1 + _snapshot_times(t_a, t_b, stride, t_a - shift * stride).size
        assert frames <= (t_b - t_a) / stride + 3

    @pytest.mark.parametrize("memory, fits", [(16 * 4 * 13, True), (16 * 4 * 13 - 1, False)])
    def test_frame_count_rule(self, memory, fits, monkeypatch):
        # (0, 1] at stride 0.1 bounds the frames by 1/0.1 + 3 = 13, of n = 4 complex samples: 832 bytes
        pages = {"SC_PHYS_PAGES": memory, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(radial, "os", SimpleNamespace(sysconf=pages.__getitem__))
        if fits:
            assert _snapshot_times(0.0, 1.0, 0.1, n=4).size == 10
        else:
            with pytest.raises(ValueError, match=r"^snapshot_stride = 0.1 over the time span \(0, 1\] makes 13 frames"):
                _snapshot_times(0.0, 1.0, 0.1, n=4)

    @pytest.mark.parametrize("t_span", [(0.0, np.inf), (-np.inf, 0.1), (0.0, np.nan), (np.nan, 1.0)])
    def test_non_finite_span_is_refused(self, t_span, grid_small):
        with pytest.raises(ValueError, match="increasing pair of finite numbers"):
            evolve(gaussian_field(grid_small), t_span, StepController())


class TestFusedStepping:
    def test_matches_strang_step_loop_on_c01_grid(self, grid_desk):
        u0 = gaussian_field(grid_desk, amplitude=1.0)
        ctl = StepController(dt_max=0.0025, snapshot_stride=0.1)
        traj = evolve(u0, (0.0, 1.0), ctl)
        ref = strang_reference(u0, (0.0, 1.0), ctl)
        assert traj.frames.shape == ref.shape
        rel = np.abs(traj.frames - ref).max(axis=1) / np.abs(ref).max(axis=1)
        assert rel.max() <= 1e-12

    def test_one_step_per_frame_is_strang_step_byte_for_byte(self):
        # stride == dt_max and theta not binding: every frame is one step of the shared kernel
        u0 = gaussian_field(RadialGrid(20.0, 255), amplitude=0.8)
        ctl = StepController(dt_max=0.0025, snapshot_stride=0.0025)
        traj = evolve(u0, (0.0, 0.05), ctl)
        assert traj.provenance["telemetry"]["steps"] == 20
        ref = strang_reference(u0, (0.0, 0.05), ctl, step=strang_step)
        assert traj.frames.tobytes() == ref.tobytes()

    def test_telemetry_counts_steps(self, grid_small):
        # each 0.01 segment is three 0.003 steps and a short 0.001 step
        ctl = StepController(dt_max=0.003, snapshot_stride=0.01)
        tel = evolve(gaussian_field(grid_small), (0.0, 0.1), ctl).provenance["telemetry"]
        assert tel["steps"] == 40 and tel["halvings"] == 0
        assert tel["dt_max"] == 0.003
        assert tel["dt_min"] == pytest.approx(0.001, rel=1e-9)

    def test_overflow_retries_from_pre_step_state(self, grid_small, monkeypatch):
        # the fifth transform (forward transform of the third step, with a half-phase
        # pending) returns NaN once; the step is retried at dt/2 from the same state
        u0 = gaussian_field(grid_small)
        ctl = StepController(dt_max=0.0025, snapshot_stride=0.01)
        evolve_mod = importlib.import_module("snls.evolve")  # the package's `evolve` is the function
        calls = []
        real_dst = evolve_mod._dst1

        def flaky(x):
            calls.append(1)
            return np.full_like(x, np.nan) if len(calls) == 5 else real_dst(x)

        monkeypatch.setattr(evolve_mod, "_dst1", flaky)
        traj = evolve(u0, (0.0, 0.05), ctl)
        tel = traj.provenance["telemetry"]
        assert traj.status == "ok" and tel["halvings"] == 1
        assert tel["dt_min"] == pytest.approx(0.00125, rel=1e-9)
        ref = strang_reference(u0, (0.0, 0.05), ctl, halve_step=2)
        rel = np.abs(traj.frames - ref).max(axis=1) / np.abs(ref).max(axis=1)
        assert rel.max() <= 1e-12


class TestFrameThread:
    """At n >= 1023 on two CPUs each stored frame's statistics and on_frame run on the frame thread."""

    CTL = StepController(dt_max=0.0025, snapshot_stride=0.005)
    U0 = gaussian_field(RadialGrid(20.0, 2048), amplitude=1.4, chirp=-0.5)

    @classmethod
    def _run(cls, on_frame=None):
        seen = []

        def record(t, field, stats):
            seen.append((t, threading.current_thread().name, stats))
            if on_frame is not None:
                on_frame(t, field, stats)

        return evolve(cls.U0, (0.0, 0.05), cls.CTL, on_frame=record), seen

    def test_same_bytes_on_one_and_two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the stepper and the frame thread trade the GIL as often as they can
        try:
            two, seen_two = self._run()
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        one, seen_one = self._run()
        assert two.times.size == 11 and two.frames.tobytes() == one.frames.tobytes()
        for k, v in one.densities.items():
            assert two.densities[k].tobytes() == v.tobytes(), k
        counters = ("steps", "halvings", "dt_min", "dt_max")
        assert [two.provenance["telemetry"][k] for k in counters] == [one.provenance["telemetry"][k] for k in counters]
        # on_frame runs off the main thread, in frame order, with the stats of one thread
        assert [name for _, name, _ in seen_two] == ["snls-frames_0"] * 11
        assert [name for _, name, _ in seen_one] == [threading.current_thread().name] * 11
        assert [t for t, _, _ in seen_two] == [t for t, _, _ in seen_one] == two.times.tolist()
        assert [stats for _, _, stats in seen_two] == [stats for _, _, stats in seen_one]
        tel = two.provenance["telemetry"]
        assert 0 <= tel["frame_wait_s"] and 0 < tel["frame_s"]
        assert one.provenance["telemetry"]["frame_wait_s"] == one.provenance["telemetry"]["frame_s"]

    def test_blocks_of_16_and_5_same_on_both_paths(self, monkeypatch):
        # 21 frames are finished as a block of 16 and one of 5, inline on one CPU and on the frame thread on two;
        # on_frame sees the same (t, stats), each stats dict the bits of a one-row _frame_stats of its frame
        evolve_mod = importlib.import_module("snls.evolve")
        runs = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            seen = []
            evolve(self.U0, (0.0, 0.1), self.CTL, on_frame=lambda t, f, s: seen.append((t, f.values.copy(), s)))
            runs.append(seen)
        one, two = runs
        assert len(one) == 21 and [t for t, _, _ in one] == [t for t, _, _ in two]
        for (_, u, stats), (_, u2, stats2) in zip(one, two):
            fresh = evolve_mod._frame_stats(u[None], self.U0.grid, self.CTL)
            assert u.tobytes() == u2.tobytes()
            assert list(stats) == list(stats2) == list(evolve_mod._DENSITY_KEYS)
            for k, x in zip(evolve_mod._DENSITY_KEYS, fresh):
                assert stats[k].tobytes() == stats2[k].tobytes() == x[0].tobytes(), k

    @pytest.mark.parametrize("k", [1, 5, 11])
    def test_frame_exception_surfaces(self, two_cpus, k):
        # raised on the frame thread at frame k, it surfaces at the next hand-over or, as here where the 11 frames are
        # one block, when evolve ends; no later frame reaches on_frame
        calls = []

        def failing(t, field, stats):
            calls.append(t)
            if len(calls) == k:
                raise ValueError(f"frame {k} failed")

        with pytest.raises(ValueError, match=f"frame {k} failed"):
            self._run(failing)
        assert len(calls) == k

    def test_stepper_exception_wins_and_drains(self, two_cpus, monkeypatch):
        evolve_mod = importlib.import_module("snls.evolve")  # the package's `evolve` is the function

        def failing_step(*args):
            raise RuntimeError("step failed")

        finished = []

        def slow_frame(t, field, stats):
            time.sleep(0.2)  # still in flight when the first step raises
            finished.append(t)
            raise ValueError("frame failed")

        monkeypatch.setattr(evolve_mod, "_step", failing_step)
        with pytest.raises(RuntimeError, match="step failed"):
            self._run(slow_frame)
        assert finished == [0.0]  # evolve raised only once the frame in flight was done
        assert radial._pool("frames").submit(int).result(timeout=5) == 0


@pytest.fixture(scope="module")
def nonlinear_run(grid_desk):
    ctl = StepController(dt_max=0.002, snapshot_stride=1.0 / 128.0)
    return evolve(gaussian_field(grid_desk), (0.0, 1.0), ctl)


class TestDuhamel:
    def test_linear_run_residual_tiny(self, grid_small):
        traj = linear_trajectory(gaussian_field(grid_small), (0.0, 0.5), StepController(snapshot_stride=0.025))
        r = duhamel_residual(traj, 0.5, include_nonlinearity=False)
        assert r <= 1e-10

    def test_nonlinear_residual_and_convergence(self, grid_desk):
        f = gaussian_field(grid_desk)
        resids = []
        for stride in (1.0 / 128.0, 1.0 / 256.0):
            traj = evolve(f, (0.0, 0.5), StepController(dt_max=0.001, snapshot_stride=stride))
            resids.append(duhamel_residual(traj, 0.5))
        u_norm = lebesgue_norm(gaussian_field(grid_desk), 2.0)
        assert resids[0] <= 1e-3 * u_norm
        assert 2.5 <= resids[0] / resids[1] <= 6.0

    def test_base_point_shift(self, nonlinear_run):
        traj = nonlinear_run
        r0 = duhamel_residual(traj, 1.0)
        r_mid = duhamel_residual(traj, 1.0, t_base=traj.times[32])
        assert r_mid <= 3.0 * r0 + 1e-12

    def test_tail_zero_when_linear(self, grid_small):
        traj = linear_trajectory(RadialField.zero(grid_small), (0.0, 0.5), StepController(snapshot_stride=0.05))
        v = duhamel_tail(traj, (0.2, 0.4), 0.5)
        assert lebesgue_norm(v, 2.0) == 0.0

    def test_tail_window_separation_enforced(self, nonlinear_run):
        with pytest.raises(ValueError):
            duhamel_tail(nonlinear_run, (0.25, 0.75), 0.5)

    def test_tail_solves_free_equation(self, nonlinear_run):
        traj = nonlinear_run
        window = (0.5, 1.0)
        v1 = duhamel_tail(traj, window, 0.25)
        v2 = duhamel_tail(traj, window, 0.125)
        moved = free_evolve(v2, 0.125)
        assert l2_diff(v1, moved) <= 1e-12 * max(lebesgue_norm(v1, 2.0), 1e-300)

    def test_far_endpoint_reconstruction(self, nonlinear_run):
        # u(t) = e^{i(t-t_+)L} u(t_+) - i v(t) - i (local piece), v over [t_j1, t_+]
        traj = nonlinear_run
        t, t_j1, t_plus = 0.25, 0.5, 1.0
        v = duhamel_tail(traj, (t_j1, t_plus), t)
        m_t = traj.frame_index(t)
        far = free_evolve(traj.field(traj.frame_index(t_plus)), t - t_plus)
        # local Duhamel piece over [t, t_j1] evaluated at its own left endpoint;
        # anchoring at the far endpoint flips the Duhamel sign to +i
        local = duhamel_tail(traj, (t, t_j1), t)
        recon = RadialField(traj.grid, far.values + 1j * (v.values + local.values))
        resid = l2_diff(traj.field(m_t), recon)
        assert resid <= 2e-3 * lebesgue_norm(traj.field(m_t), 2.0)

    def test_tail_sobolev_ceiling(self, nonlinear_run):
        traj = nonlinear_run
        E = traj.densities["H_sc"].max()
        v = duhamel_tail(traj, (0.5, 1.0), 0.25)
        assert sobolev_norm(v, SC) <= 5.0 * E  # logged diagnostic ratio, ~O(1)


class TestAverageTranslate:
    def test_approximate_identity(self, grid_desk):
        f = gaussian_field(grid_desk)
        out = average_translate(f, 4 * grid_desk.dr)
        assert l2_diff(out, f) <= 0.01 * lebesgue_norm(f, 2.0)

    def test_constant_on_ball_inner_half(self, grid_small):
        from snls.functionals import cutoff_profile

        r = grid_small.nodes
        f = RadialField(grid_small, cutoff_profile(r / 16.0).astype(complex))  # flat to r = 8
        out = average_translate(f, 1.0)
        inner = r < 4.0
        assert np.abs(out.values[inner] - 1.0).max() < 1e-6

    def test_l9_never_increases(self, grid_small):
        rng = np.random.default_rng(14)
        for _ in range(50):
            f = random_smooth_field(grid_small, rng)
            out = average_translate(f, 0.8)
            assert lebesgue_norm(out, 9.0) <= lebesgue_norm(f, 9.0) * (1 + 1e-10)

    def test_rejects_large_radius(self, grid_small):
        f = gaussian_field(grid_small)
        with pytest.raises(ValueError):
            average_translate(f, grid_small.r_max / 2.0)


def test_package_exports_are_in_their_modules_all():
    # `from snls.<module> import *` gives every name the package re-exports from that module
    import snls
    missing = []
    for name in snls.__all__:
        module = getattr(snls, name).__module__
        if name not in importlib.import_module(module).__all__:
            missing.append(f"{module}.{name}")
    assert missing == []
