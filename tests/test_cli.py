"""Harness: config validation, simulate/resume determinism, diagnose, select, sweep."""

import csv
import dataclasses
import importlib
import io
import itertools
import json
import math
import os
import re
import shutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from snls.checkpoints import (
    TrajectoryFrameWriter,
    density_csv_text,
    has_frame_log,
    read_density_csv,
    read_trajectory_frames,
    truncate_trajectory_frames,
)
from snls import intervals, radial
from snls.cli import EXIT_BLOWUP, EXIT_CONFIG, EXIT_OK, diagnose_trajectory, load_run, main, run_simulation
from snls.config import FAMILIES, ConfigError, RunConfig, initial_field
from snls.evolve import StepController, _check_frame_count, rebuild_trajectory
from snls.intervals import (
    EXCEPTIONAL, TAIL, UNEXCEPTIONAL, IntervalDecomposition, ProofConstants, synthetic_decomposition,
)
from snls.radial import RadialGrid

from conftest import gaussian_field

FAST = {
    "n": 128, "r_max": 20.0, "dt_max": 0.005, "snapshot_stride": 0.01,
    "family": "gaussian", "amplitude": 1.4, "width": 1.0,
    "t_span": [0.0, 0.1], "seed": 3,
}


def write_cfg(tmp_path, name="cfg.json", **overrides):
    payload = {**FAST, **overrides}
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestConfig:
    def test_defaults_valid(self):
        RunConfig().validate()

    def test_field_path_in_error(self):
        with pytest.raises(ConfigError, match="grid.n"):
            RunConfig(n=100).validate()
        with pytest.raises(ConfigError, match="controller.theta"):
            RunConfig(theta=2.0).validate()
        with pytest.raises(ConfigError, match="initial_data.family"):
            RunConfig(family="soliton").validate()

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            RunConfig.from_dict({"amplituude": 1.0})

    @pytest.mark.parametrize("constants, message", [
        ({"C": 2.0, "D": 1.0}, "constants: unknown constant 'D'"),
        ({"C": "2"}, "constants: constant C must be a number"),
        ({"C": 0.5}, "constants: constant C must be >= 1"),
    ])
    def test_bad_constants_rejected(self, constants, message):
        # an unknown key used to escape as TypeError, and C < 1 passed here but failed later in `snls bounds`
        with pytest.raises(ConfigError, match=re.escape(message)):
            RunConfig.from_dict({**FAST, "constants": constants})

    @pytest.mark.parametrize("field, value", [
        ("theta", "0.1"), ("sobolev_delta", 5.0), ("sobolev_delta", -3.0),
        ("boundary_mass_tol", -1.0), ("blowup_ceiling", -1.0),
    ])
    def test_bad_controller_field_rejected(self, field, value):
        with pytest.raises(ConfigError, match=rf"^controller\.{field} must lie in"):
            RunConfig.from_dict({**FAST, field: value})

    @pytest.mark.parametrize("field, value", [
        ("amplitude", "1"), ("chirp", None), ("t_span", 5), ("t_span", ["0", "1"]), ("out_dir", 3),
    ])
    def test_wrong_type_rejected(self, field, value):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({**FAST, field: value})

    NUMBERS = st.one_of(
        st.sampled_from([0, 0.0, -0.0, -1.0, 1.0, 0.5, 7.0 / 6.0, math.nan, math.inf, -math.inf]),
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(-10, 10),
    )
    GRID_N = st.one_of(st.sampled_from([0, -1, 7, 8, 100, 1023, 1024, 4095, 4096]),
                       st.integers(-(2**20), 2**20), NUMBERS)

    FAMILY = st.one_of(st.sampled_from([*FAMILIES, "soliton", "", "Gaussian"]), st.text(max_size=8), NUMBERS)
    INITIAL_DATA = {"family": "gaussian", "amplitude": 1.0, "width": 1.0, "chirp": 0.0}

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("prefix, field", [
        ("grid.", "n"), ("grid.", "r_max"),
        *(("controller.", f) for f in StepController.__dataclass_fields__),
        *(("constants: ", f) for f in ProofConstants.__dataclass_fields__),
        *(("initial_data.", f) for f in INITIAL_DATA),
    ])
    def test_each_rule_has_one_owner(self, prefix, field, data):
        """RunConfig rejects a value exactly when the component that owns the field does."""
        value = data.draw({"n": self.GRID_N, "family": self.FAMILY}.get(field, self.NUMBERS))
        if prefix == "grid.":
            build, cfg = (lambda: RadialGrid(**{"r_max": 40.0, "n": 4096, field: value})), RunConfig(**{field: value})
        elif prefix == "controller.":
            # snapshot_stride also meets the frame-count rule, over RunConfig's default time span and grid
            cfg = RunConfig(**{field: value})
            build = lambda: _check_frame_count(*cfg.t_span, StepController(**{field: value}).snapshot_stride, cfg.n)
        elif prefix == "initial_data.":
            args = {**self.INITIAL_DATA, field: value}
            build, cfg = (lambda: initial_field(RadialGrid(20.0, 15), **args)), RunConfig(**{field: value})
        else:
            build, cfg = (lambda: ProofConstants(**{field: value})), RunConfig(constants={field: value})
        try:
            with np.errstate(all="ignore"):  # an infinite amplitude or chirp gives non-finite samples
                build()
        except ValueError:
            with pytest.raises(ConfigError, match="^" + re.escape(prefix)):
                cfg.validate()
        else:
            cfg.validate()

    def test_round_trip(self, tmp_path):
        cfg = RunConfig(**{**FAST, "t_span": tuple(FAST["t_span"])})
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")
        assert RunConfig.load(path) == cfg


class TestFieldCheckpoints:
    """The frame log is the one binary field format: a one-record log holds one field."""

    def test_binary_round_trip(self, tmp_path, grid_small):
        f = gaussian_field(grid_small, amplitude=1.3, chirp=0.2)
        p = tmp_path / "f.snls"
        with TrajectoryFrameWriter(p, f.grid) as writer:
            writer.append(0.5, f.values)
        assert p.read_bytes()[:4] == b"SNLS"
        grid, times, frames = read_trajectory_frames(p)
        assert grid == f.grid
        assert times.tobytes() == np.array([0.5]).tobytes()
        assert frames.shape == (1, grid.n) and frames[0].tobytes() == f.values.tobytes()

    def test_truncated_file_rejected(self, tmp_path, grid_small):
        f = gaussian_field(grid_small)
        p = tmp_path / "f.snls"
        with TrajectoryFrameWriter(p, f.grid) as writer:
            writer.append(0.0, f.values)
        p.write_bytes(p.read_bytes()[:TestFrameLog.HEADER - 8])
        with pytest.raises(ValueError, match="truncated"):
            read_trajectory_frames(p)


class TestFrameLog:
    HEADER = 24

    def test_record_layout(self, tmp_path):
        # header, then per frame: t as f64, then (re, im) f64 pairs, all little-endian
        cfg = RunConfig.from_dict(FAST)
        traj, _ = run_simulation(cfg, tmp_path / "run")
        raw = (tmp_path / "run" / "frames.snls").read_bytes()
        expected = struct.pack("<4sIQd", b"SNLS", 1, cfg.n, cfg.r_max)
        for t, u in zip(traj.times, traj.frames):
            pairs = np.column_stack([u.real, u.imag]).astype("<f8")
            expected += struct.pack("<d", t) + pairs.tobytes()
        assert raw == expected
        assert not (tmp_path / "run" / "checkpoint.snls").exists()

    def test_cut_last_record_reads_intact_prefix(self, tmp_path):
        cfg = RunConfig.from_dict(FAST)
        run_simulation(cfg, tmp_path / "run")
        raw = (tmp_path / "run" / "frames.snls").read_bytes()
        _, times, frames = read_trajectory_frames(tmp_path / "run" / "frames.snls")
        rec = 8 + 16 * cfg.n
        assert len(raw) == self.HEADER + times.size * rec
        cut = tmp_path / "cut.snls"
        for size in range(len(raw) - rec, len(raw)):
            cut.write_bytes(raw[:size])
            _, t2, f2 = read_trajectory_frames(cut)
            assert np.array_equal(t2, times[:-1]) and np.array_equal(f2, frames[:-1])

    def test_diagnose_on_cut_header_exits_2(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["simulate", "--config", str(write_cfg(tmp_path)), "--out", str(run_dir)]) == 0
        log = run_dir / "frames.snls"
        raw = log.read_bytes()
        for size in range(self.HEADER):
            log.write_bytes(raw[:size])
            assert main(["diagnose", str(run_dir)]) == EXIT_CONFIG
        assert "truncated header" in capsys.readouterr().err

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_append_then_cut_round_trip(self, tmp_path_factory, data):
        # k appended frames, up to two and a half fsync blocks, the file cut at any byte: past the header the intact
        # prefix reads back bit for bit, and a shorter file is no log
        n = data.draw(st.sampled_from([8, 15, 16]))
        k = data.draw(st.integers(0, 40))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        times = np.array(sorted(data.draw(st.lists(finite, min_size=k, max_size=k, unique=True))), dtype=float)
        frames = data.draw(hnp.arrays(np.float64, (k, n, 2), elements=finite)).view(np.complex128)[..., 0]
        path = tmp_path_factory.mktemp("log") / "frames.snls"
        with TrajectoryFrameWriter(path, RadialGrid(20.0, n)) as writer:
            for t, u in zip(times, frames):
                writer.append(t, u)
        raw = path.read_bytes()
        rec = 8 + 16 * n
        assert len(raw) == self.HEADER + k * rec
        size = data.draw(st.integers(0, len(raw)))
        cut = path.with_name("cut.snls")
        cut.write_bytes(raw[:size])
        assert has_frame_log(cut) == (size >= self.HEADER)
        if size < self.HEADER:
            with pytest.raises(ValueError, match="truncated"):
                read_trajectory_frames(cut)
            return
        grid, t2, f2 = read_trajectory_frames(cut)
        m = (size - self.HEADER) // rec
        assert grid == RadialGrid(20.0, n)
        assert t2.tobytes() == times[:m].tobytes()
        assert f2.shape == (m, n) and f2.tobytes() == frames[:m].tobytes()

    @staticmethod
    def _count_fsyncs(monkeypatch):
        """Patch os.fsync to record the inode of every file it syncs."""
        calls = []
        fsync = os.fsync

        def counted(fd):
            calls.append(os.fstat(fd).st_ino)
            fsync(fd)

        monkeypatch.setattr(os, "fsync", counted)  # the function snls.checkpoints calls as os.fsync
        return calls

    def test_fsync_once_per_block(self, tmp_path, monkeypatch):
        # every append is flushed, so another reader sees it at once; every 16th append and close() fsync
        grid, path = RadialGrid(20.0, 8), tmp_path / "frames.snls"
        calls = self._count_fsyncs(monkeypatch)
        values = np.arange(8) * (1.0 + 0.5j)
        with TrajectoryFrameWriter(path, grid) as writer:
            for k in range(35):
                writer.append(float(k), values + k)
                _, times, frames = read_trajectory_frames(path)
                assert times.tolist() == list(range(k + 1)) and frames[k].tobytes() == (values + k).tobytes()
            assert len(calls) == 2
        assert len(calls) == 3

    def test_sweep_cell_fsyncs_its_log_four_times(self, tmp_path, monkeypatch):
        # a sweep-size cell stores 51 frames: fsyncs at appends 16, 32 and 48, and one on close
        cfg = RunConfig.from_dict({**FAST, "n": 256, "dt_max": 0.0025, "t_span": [0.0, 0.5]})
        calls = self._count_fsyncs(monkeypatch)
        traj, code = run_simulation(cfg, tmp_path / "run")
        assert code == EXIT_OK and traj.times.size == 51
        assert calls.count((tmp_path / "run" / "frames.snls").stat().st_ino) == 4

    def test_header_only_log_has_no_frames(self, tmp_path, capsys):
        run_dir = _simulated_run(tmp_path)
        log = run_dir / "frames.snls"
        log.write_bytes(log.read_bytes()[:self.HEADER])
        grid, times, frames = read_trajectory_frames(log)
        assert times.shape == (0,) and frames.shape == (0, grid.n)
        assert main(["diagnose", str(run_dir)]) == EXIT_CONFIG
        assert "incomplete trajectory" in capsys.readouterr().err

    def test_load_run_maps_frames_read_only(self, tmp_path):
        run_simulation(RunConfig.from_dict(FAST), tmp_path / "run")
        _, traj = load_run(tmp_path / "run")
        assert not traj.frames.flags.owndata and not traj.frames.flags.writeable

    def test_rerun_keeps_earlier_mapping(self, tmp_path):
        # a fresh run over a mapped log must not truncate the mapped file (reading it would raise SIGBUS)
        cfg = RunConfig.from_dict(FAST)
        run_simulation(cfg, tmp_path / "run")
        _, traj = load_run(tmp_path / "run")
        saved = traj.frames.copy()
        run_simulation(RunConfig.from_dict({**FAST, "t_span": [0.0, 0.03]}), tmp_path / "run")
        assert read_trajectory_frames(tmp_path / "run" / "frames.snls")[1].size == 4
        assert np.array_equal(traj.frames, saved)


class TestSimulate:
    def test_outputs_and_exit(self, tmp_path):
        cfg = RunConfig.from_dict(FAST)
        traj, code = run_simulation(cfg, tmp_path / "run")
        assert code == EXIT_OK
        for name in ("manifest.json", "frames.snls", "densities.csv"):
            assert (tmp_path / "run" / name).exists()
        assert not (tmp_path / "run" / "checkpoint.snls").exists()
        grid, times, frames = read_trajectory_frames(tmp_path / "run" / "frames.snls")
        assert times.size == traj.times.size
        assert np.array_equal(frames[-1], traj.frames[-1])

    def test_determinism(self, tmp_path):
        cfg = RunConfig.from_dict(FAST)
        run_simulation(cfg, tmp_path / "a")
        run_simulation(cfg, tmp_path / "b")
        assert (tmp_path / "a/densities.csv").read_bytes() == (tmp_path / "b/densities.csv").read_bytes()
        assert (tmp_path / "a/frames.snls").read_bytes() == (tmp_path / "b/frames.snls").read_bytes()

    def test_resume_reproduces_run(self, tmp_path):
        cfg = RunConfig.from_dict(FAST)
        run_simulation(cfg, tmp_path / "full")
        run_simulation(cfg, tmp_path / "cut")
        # simulate a crash: drop everything past the fourth frame
        truncate_trajectory_frames(tmp_path / "cut" / "frames.snls", 4)
        traj, code = run_simulation(cfg, tmp_path / "cut", resume=True)
        assert code == EXIT_OK
        assert (tmp_path / "cut/densities.csv").read_bytes() == (tmp_path / "full/densities.csv").read_bytes()
        assert (tmp_path / "cut/frames.snls").read_bytes() == (tmp_path / "full/frames.snls").read_bytes()

    def test_resume_after_short_last_steps(self, tmp_path):
        # dt_max 0.003 on a 0.01 stride: every segment ends in a short 0.001 step
        cfg = RunConfig.from_dict({**FAST, "dt_max": 0.003})
        run_simulation(cfg, tmp_path / "full")
        run_simulation(cfg, tmp_path / "cut")
        truncate_trajectory_frames(tmp_path / "cut" / "frames.snls", 6)
        traj, code = run_simulation(cfg, tmp_path / "cut", resume=True)
        assert code == EXIT_OK
        assert (tmp_path / "cut/densities.csv").read_bytes() == (tmp_path / "full/densities.csv").read_bytes()
        assert (tmp_path / "cut/frames.snls").read_bytes() == (tmp_path / "full/frames.snls").read_bytes()

    def test_resume_rejects_config_mismatch(self, tmp_path):
        cfg = RunConfig.from_dict(FAST)
        run_simulation(cfg, tmp_path / "run")
        other = RunConfig.from_dict({**FAST, "amplitude": 2.0})
        with pytest.raises(ConfigError, match="resume"):
            run_simulation(other, tmp_path / "run", resume=True)

    def test_blowup_exit_status(self, tmp_path):
        cfg = RunConfig.from_dict({**FAST, "blowup_ceiling": 0.5})
        traj, code = run_simulation(cfg, tmp_path / "run")
        assert code == EXIT_BLOWUP and traj.status == "blowup_abort"

    def test_dt_overflow_exit_status(self, tmp_path):
        # sup|u|^6 overflows float64 at amplitude 1e60; the run ends with dt_underflow
        cfg_path = write_cfg(tmp_path, amplitude=1e60, blowup_ceiling=float("inf"))
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert code == EXIT_BLOWUP
        assert json.loads((tmp_path / "run" / "manifest.json").read_text())["status"] == "dt_underflow"

    @pytest.mark.filterwarnings("error")
    def test_dt_overflow_exit_status_on_the_frame_thread(self, tmp_path, two_cpus):
        # n >= 1023 on two CPUs: the frame statistics run on the frame thread, under the caller's np.errstate
        cfg_path = write_cfg(tmp_path, n=1023, amplitude=1e60, blowup_ceiling=float("inf"))
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert code == EXIT_BLOWUP
        assert json.loads((tmp_path / "run" / "manifest.json").read_text())["status"] == "dt_underflow"

    def test_zero_amplitude_clean(self, tmp_path):
        cfg = RunConfig.from_dict({**FAST, "amplitude": 0.0})
        traj, code = run_simulation(cfg, tmp_path / "run")
        assert code == EXIT_OK
        assert np.all(traj.densities["s_density"] == 0.0)


class TestCheckpointWrittenOnce:
    """No run leaves a checkpoint.snls, not even a stale one placed there first; frames.snls holds whole records."""

    HEADER = TestFrameLog.HEADER

    @staticmethod
    def _place_stale_checkpoint(run_dir):
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "checkpoint.snls").write_bytes(b"stale")

    @classmethod
    def _assert_no_checkpoint(cls, run_dir):
        assert not (run_dir / "checkpoint.snls").exists()
        grid, times, _ = read_trajectory_frames(run_dir / "frames.snls")
        size = (run_dir / "frames.snls").stat().st_size
        assert times.size >= 1 and size == cls.HEADER + times.size * (8 + 16 * grid.n)

    @staticmethod
    def _evolve_raising_after(monkeypatch, k):
        """Patch the evolve run_simulation calls to raise once it has stored k frames."""
        cli = importlib.import_module("snls.cli")
        real = cli.evolve

        def patched(*args, on_frame, **kwargs):
            stored = itertools.count(1)

            def counted(t, field, stats):
                on_frame(t, field, stats)
                if next(stored) == k:
                    raise RuntimeError(f"stopped after {k} frames")

            if k == 0:
                raise RuntimeError("stopped before any frame")
            return real(*args, on_frame=counted, **kwargs)

        monkeypatch.setattr(cli, "evolve", patched)

    def test_clean_run(self, tmp_path):
        self._place_stale_checkpoint(tmp_path / "run")
        assert run_simulation(RunConfig.from_dict(FAST), tmp_path / "run")[1] == EXIT_OK
        self._assert_no_checkpoint(tmp_path / "run")

    def test_blowup_abort(self, tmp_path):
        # the chirped gaussian focuses: sup|u| passes the ceiling after five stored frames
        self._place_stale_checkpoint(tmp_path / "run")
        cfg = RunConfig.from_dict({**FAST, "chirp": -1.0, "blowup_ceiling": 1.57})
        traj, code = run_simulation(cfg, tmp_path / "run")
        assert code == EXIT_BLOWUP and traj.status == "blowup_abort" and traj.times.size == 5
        self._assert_no_checkpoint(tmp_path / "run")

    def test_exception_after_third_frame(self, tmp_path, monkeypatch):
        self._place_stale_checkpoint(tmp_path / "run")
        self._evolve_raising_after(monkeypatch, 3)
        with pytest.raises(RuntimeError, match="after 3 frames"):
            run_simulation(RunConfig.from_dict(FAST), tmp_path / "run")
        assert read_trajectory_frames(tmp_path / "run" / "frames.snls")[1].size == 3
        self._assert_no_checkpoint(tmp_path / "run")

    def test_exception_after_third_frame_on_the_frame_thread(self, tmp_path, monkeypatch, two_cpus):
        # at n = 2048 on two CPUs on_frame runs on the frame thread; its exception still leaves exactly three records
        assert radial._path((2, 2048)) == "workers"
        self._place_stale_checkpoint(tmp_path / "run")
        self._evolve_raising_after(monkeypatch, 3)
        with pytest.raises(RuntimeError, match="after 3 frames"):
            run_simulation(RunConfig.from_dict({**FAST, "n": 2048}), tmp_path / "run")
        assert read_trajectory_frames(tmp_path / "run" / "frames.snls")[1].size == 3
        self._assert_no_checkpoint(tmp_path / "run")

    def test_same_files_on_one_and_two_cpus(self, tmp_path, monkeypatch):
        # n = 2048: the frame thread writes the frame log and the CSV on two CPUs, the stepper itself on one
        cfg = RunConfig.from_dict({**FAST, "n": 2048, "chirp": -0.5})
        for cpus in ({0, 1}, {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            assert run_simulation(cfg, tmp_path / str(len(cpus)))[1] == EXIT_OK
        for name in ("frames.snls", "densities.csv"):
            assert (tmp_path / "2" / name).read_bytes() == (tmp_path / "1" / name).read_bytes(), name

    def test_resume_of_log_cut_mid_record(self, tmp_path):
        cfg = RunConfig.from_dict(FAST)
        run_simulation(cfg, tmp_path / "full")
        run_simulation(cfg, tmp_path / "cut")
        log = tmp_path / "cut" / "frames.snls"
        rec = 8 + 16 * cfg.n
        log.write_bytes(log.read_bytes()[:self.HEADER + 4 * rec + rec // 2])
        self._place_stale_checkpoint(tmp_path / "cut")
        assert run_simulation(cfg, tmp_path / "cut", resume=True)[1] == EXIT_OK
        self._assert_no_checkpoint(tmp_path / "cut")
        for name in ("frames.snls", "densities.csv"):
            assert (tmp_path / "cut" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()

    def test_resume_of_log_cut_inside_its_header_starts_fresh(self, tmp_path):
        cfg = RunConfig.from_dict(FAST)
        run_simulation(cfg, tmp_path / "full")
        run_simulation(cfg, tmp_path / "cut")
        log = tmp_path / "cut" / "frames.snls"
        log.write_bytes(log.read_bytes()[:10])
        assert run_simulation(cfg, tmp_path / "cut", resume=True)[1] == EXIT_OK
        for name in ("frames.snls", "densities.csv"):
            assert (tmp_path / "cut" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()

    def test_resume_of_finished_run_unlinks_stale_checkpoint(self, tmp_path):
        cfg = RunConfig.from_dict(FAST)
        run_simulation(cfg, tmp_path / "run")
        saved = {name: (tmp_path / "run" / name).read_bytes() for name in ("frames.snls", "densities.csv")}
        self._place_stale_checkpoint(tmp_path / "run")
        traj, code = run_simulation(cfg, tmp_path / "run", resume=True)
        assert code == EXIT_OK and traj.times.size == 11
        self._assert_no_checkpoint(tmp_path / "run")
        for name, raw in saved.items():
            assert (tmp_path / "run" / name).read_bytes() == raw, name

    def test_fresh_run_unlinks_stale_checkpoint(self, tmp_path, monkeypatch):
        run_simulation(RunConfig.from_dict({**FAST, "n": 64, "amplitude": 2.0}), tmp_path / "run")
        self._place_stale_checkpoint(tmp_path / "run")
        self._evolve_raising_after(monkeypatch, 0)
        with pytest.raises(RuntimeError, match="before any frame"):
            run_simulation(RunConfig.from_dict(FAST), tmp_path / "run")
        assert not (tmp_path / "run" / "checkpoint.snls").exists()
        assert read_trajectory_frames(tmp_path / "run" / "frames.snls")[1].size == 0


class TestCommands:
    def test_simulate_then_diagnose(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path)
        run_dir = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(run_dir)]) == 0
        assert main(["diagnose", str(run_dir)]) == 0
        report = json.loads((run_dir / "diagnose.json").read_text())
        assert report["reintegration"]["rel_err"] <= 1e-10
        assert report["counts"]["J"] >= 1

    def test_declared_e_mode(self, tmp_path):
        cfg_path = write_cfg(tmp_path, e_mode="declare", e_declared=30.0)
        run_dir = tmp_path / "run"
        main(["simulate", "--config", str(cfg_path), "--out", str(run_dir)])
        main(["diagnose", str(run_dir)])
        report = json.loads((run_dir / "diagnose.json").read_text())
        assert report["e_mode"] == "declare" and report["E"] == 30.0
        assert report["eta"] == pytest.approx(1.0 / 31.0)

    def test_declare_mode_requires_value(self):
        with pytest.raises(ConfigError, match="e_declared"):
            RunConfig(e_mode="declare").validate()

    def test_diagnose_builds_each_anchor_series_once(self, tmp_path, monkeypatch):
        cfg = RunConfig.from_dict(FAST)
        run_simulation(cfg, tmp_path / "run")
        _, traj = load_run(tmp_path / "run")
        calls = []
        real = intervals.linear_density_series

        def counted(traj, anchor_index):
            calls.append(anchor_index)
            return real(traj, anchor_index)

        monkeypatch.setattr(intervals, "linear_density_series", counted)
        report = diagnose_trajectory(traj, cfg.proof_constants())
        assert calls == [0, traj.times.size - 1]
        # the ratios still equal the whole-span L^15 mass of each anchor's free flow
        for m, ratio in zip(calls, report["strichartz_ratios"]):
            total = np.trapezoid(real(traj, m), traj.times)
            assert ratio == pytest.approx(total ** (1.0 / 15.0) / traj.densities["H_sc"][m], rel=1e-12)

    def test_diagnose_selects_and_audits_designated_intervals(self, tmp_path, monkeypatch):
        # no desk run reaches G > 0, so designate the intervals near the density peak, as C12 does
        run_dir = _simulated_run(tmp_path)
        real = intervals.classify
        designated = []

        def near_peak(decomp, traj, constants):
            out = real(decomp, traj, constants)
            peak_t = traj.times[int(np.argmax(traj.densities["s_density"]))]
            flags = tuple(TAIL if f == TAIL else UNEXCEPTIONAL if abs(0.5 * (a + b) - peak_t) < 0.05 else EXCEPTIONAL
                          for (a, b), f in zip(out.intervals, out.flags))
            designated.append(flags.count(UNEXCEPTIONAL))
            return dataclasses.replace(out, flags=flags)

        monkeypatch.setattr(intervals, "classify", near_peak)
        assert main(["diagnose", str(run_dir)]) == EXIT_OK
        report = json.loads((run_dir / "diagnose.json").read_text())
        assert designated[0] > 0 and report["counts"]["G"] == designated[0]
        assert report["all_exceptional"] is False
        sel, audit = report["selection"], report["audit"]
        flags = [row["flag"] for row in report["decomposition"]["intervals"]]
        assert sel["K"] >= 1 and all(flags[j] == UNEXCEPTIONAL for j in sel["chain"])
        assert audit["K"] == sel["K"] and audit["t_star"] == sel["t_star"]
        assert len(audit["steps"]) == sel["K"] and all(isinstance(s["resolvable"], bool) for s in audit["steps"])

    def test_diagnose_schema_stable(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        run_dir = tmp_path / "run"
        main(["simulate", "--config", str(cfg_path), "--out", str(run_dir)])
        main(["diagnose", str(run_dir)])
        report = json.loads((run_dir / "diagnose.json").read_text())
        golden = [
            "E", "all_exceptional", "audit", "boundary_breach", "certificates",
            "constants", "counts", "decomposition", "e_mode", "eta",
            "exceptional_ceiling", "linear_masses", "reintegration", "selection",
            "status", "strichartz_ratios",
        ]
        assert sorted(report) == golden
        assert sorted(report["counts"]) == ["B", "G", "J", "tail"]
        assert sorted(report["reintegration"]) == ["rel_err", "sum_masses", "total", "two_J_eta"]

    def test_diagnose_writes_the_sorted_indented_report(self, tmp_path):
        run_dir = _simulated_run(tmp_path)
        cfg, traj = load_run(run_dir)
        report = diagnose_trajectory(traj, cfg.proof_constants(), cfg.e_mode, cfg.e_declared)
        assert main(["diagnose", str(run_dir)]) == EXIT_OK
        expected = (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
        assert (run_dir / "diagnose.json").read_bytes() == expected

    def test_select_geometric_instance(self, tmp_path, capsys):
        lengths = [2.0**-k for k in range(20)]
        cuts = np.concatenate(([0.0], np.cumsum(lengths)))
        decomp = IntervalDecomposition(
            intervals=tuple(zip(cuts[:-1], cuts[1:])),
            masses=tuple([0.5] * 20), eta=0.5,
            flags=tuple([UNEXCEPTIONAL] * 20), classified=True,
        )
        inst = tmp_path / "instance.json"
        inst.write_text(json.dumps(decomp.to_json()))
        consts = tmp_path / "constants.json"
        consts.write_text(json.dumps({"C0": 1, "C1": 1, "C2": 1, "c": 0.25, "C": 2.0,
                                      "C_tilde": 1e-9, "C_prime": 1.0}))
        assert main(["select", str(inst), "--constants", str(consts)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["K"] == 20

    def test_bounds_command(self, tmp_path, capsys):
        assert main(["bounds", "--E", "1.0", "--M", "1.0", "--delta", "1e-7"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["eta"] == 0.5  # (1/C2)(1+E)^-C2 at the defaults
        assert out["plan"]["closed"] is True

    def test_bounds_monitor_trail(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, amplitude=0.3)
        run_dir = tmp_path / "run"
        main(["simulate", "--config", str(cfg_path), "--out", str(run_dir)])
        assert main(["bounds", "--E", "1.0", "--delta", "1e-8", "--monitor", str(run_dir)]) == 0
        lines = (run_dir / "monitor.jsonl").read_text().splitlines()
        assert lines
        for line in lines:
            rec = json.loads(line)
            assert rec["violated"] is None

    @pytest.mark.parametrize("E, closed", [(1.0, True), (3.11, False)])
    def test_bounds_monitor_flags_vacuous_trail(self, E, closed, tmp_path, capsys):
        run_dir = _simulated_run(tmp_path, amplitude=0.3)
        capsys.readouterr()
        assert main(["bounds", "--E", str(E), "--delta", "1e-8", "--monitor", str(run_dir)]) == EXIT_OK
        out, err = capsys.readouterr()
        plan = json.loads(out)["plan"]
        assert plan["closed"] is closed
        trail = run_dir / "monitor.jsonl"
        records = len(trail.read_text().splitlines())
        flag = "" if closed else f"; plan not closed ({plan['failure']}): every ceiling in the trail is vacuous"
        assert err == f"bootstrap monitor: {records} records -> {trail}{flag}\n"

    def test_sweep(self, tmp_path):
        spec = {
            "base": {**FAST, "t_span": [0.0, 0.05]},
            "sweep": {"amplitude": [0.5, 1.0, 1.5], "width": [0.8, 1.2]},
        }
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(spec))
        out_dir = tmp_path / "grid"
        assert main(["sweep", "--config", str(spec_path), "--out", str(out_dir), "--jobs", "2"]) == 0
        rows = (out_dir / "sweep.csv").read_text().splitlines()
        assert len(rows) == 7  # header + 6 cells
        cells = [r.split(",")[:2] for r in rows[1:]]
        assert cells == sorted(cells)
        assert all(r.split(",")[2] == "ok" for r in rows[1:])

    def test_sweep_jobs_2_writes_the_csv_of_jobs_1(self, tmp_path):
        spec_path = _input_file(tmp_path, "sweep.json", {"base": {**FAST, "t_span": [0.0, 0.03]},
                                                         "sweep": {"amplitude": [0.5, 1.0, 1.5]}})
        for jobs in ("1", "2"):
            assert main(["sweep", "--config", spec_path, "--out", str(tmp_path / jobs), "--jobs", jobs]) == EXIT_OK
        assert (tmp_path / "2" / "sweep.csv").read_bytes() == (tmp_path / "1" / "sweep.csv").read_bytes()

    def test_sweep_keeps_failure_traceback(self, tmp_path):
        base = {**FAST, "t_span": [0.0, 0.03]}
        for name, thetas in (("grid", [0.1, 2.0]), ("alone", [0.1])):
            spec_path = _input_file(tmp_path, f"{name}.json", {"base": base, "sweep": {"theta": thetas}})
            assert main(["sweep", "--config", spec_path, "--out", str(tmp_path / name)]) == EXIT_OK
        text = (tmp_path / "grid" / "sweep.csv").read_text()
        header, good, bad = text.splitlines()
        assert [header, good] == (tmp_path / "alone" / "sweep.csv").read_text().splitlines()
        assert header == "theta,status,exit,E,eta,J,B,G,K,error"
        message = "controller.theta must lie in (0, 1], got 2.0"  # its comma is quoted, not a column break
        assert bad == '2.0,error,-1,,,,,,,"' + message + '"'
        rows = list(csv.reader(io.StringIO(text)))
        assert [len(row) for row in rows] == [len(rows[0])] * 3 and rows[2][-1] == message
        trace = (tmp_path / "grid" / "cell_theta=2.0" / "error.txt").read_text()
        assert trace.startswith("Traceback") and trace.rstrip().endswith("ConfigError: " + message)
        assert not (tmp_path / "grid" / "cell_theta=0.1" / "error.txt").exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_sweep_rejects_jobs_below_one(self, jobs, tmp_path, capsys):
        spec_path = _input_file(tmp_path, "sweep.json", {"base": FAST, "sweep": {"amplitude": [0.5]}})
        out_dir = tmp_path / "grid"
        assert main(["sweep", "--config", spec_path, "--out", str(out_dir), "--jobs", jobs]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: sweep: --jobs must be at least 1, got {jobs}\n"
        assert not out_dir.exists()  # stopped before any cell ran

    def test_bad_config_exit(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**FAST, "n": 100}))
        assert main(["simulate", "--config", str(bad)]) == 2


def _simulated_run(tmp_path, **overrides):
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", str(write_cfg(tmp_path, **overrides)), "--out", str(run_dir)]) == EXIT_OK
    return run_dir


def _resume_without_manifest(tmp_path):
    run_dir = _simulated_run(tmp_path)
    (run_dir / "manifest.json").unlink()
    return ["simulate", "--config", str(tmp_path / "cfg.json"), "--out", str(run_dir), "--resume"]


def _input_file(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    return str(path)


def _corrupt_frame_log(tmp_path, field, record, value, **overrides):
    """A simulated run whose frame log holds value in one record's time or first sample."""
    run_dir = _simulated_run(tmp_path, **overrides)
    _, _, frames = read_trajectory_frames(run_dir / "frames.snls")
    assert record < len(frames)
    offset = TestFrameLog.HEADER + record * (8 + 16 * frames.shape[1]) + (0 if field == "t" else 8)
    with open(run_dir / "frames.snls", "r+b") as f:
        f.seek(offset)
        f.write(struct.pack("<d", value))
    return ["diagnose", str(run_dir)]


def _instance(tmp_path, eta=0.2, **first_row):
    """A 12-interval select instance, with its eta or fields of its first row replaced."""
    obj = {**synthetic_decomposition(np.random.default_rng(5), 12, 0.2).to_json(), "eta": eta}
    obj["intervals"][0].update(first_row)
    return _input_file(tmp_path, "instance.json", obj)


def _simulate(tmp_path, **overrides):
    return ["simulate", "--config", str(write_cfg(tmp_path, **overrides)), "--out", str(tmp_path / "r")]


BAD_INPUTS = {
    "resume_without_manifest": _resume_without_manifest,
    "simulate_unknown_constant": lambda tmp: _simulate(tmp, constants={"C": 2.0, "D": 1.0}),
    "simulate_theta_string": lambda tmp: _simulate(tmp, theta="0.1"),
    "simulate_infinite_t_end": lambda tmp: _simulate(tmp, t_span=[0.0, math.inf]),
    "simulate_infinite_t_start": lambda tmp: _simulate(tmp, t_span=[-math.inf, 0.1]),
    "simulate_infinite_amplitude": lambda tmp: _simulate(tmp, amplitude=math.inf),
    "simulate_infinite_chirp": lambda tmp: _simulate(tmp, chirp=math.inf),
    "simulate_infinite_e_declared": lambda tmp: _simulate(tmp, e_mode="declare", e_declared=math.inf),
    "simulate_string_e_declared": lambda tmp: _simulate(tmp, e_declared="abc"),  # measure mode checks it too
    # ~1e9 frames of 255 samples, about 4.1 TB: refused by arithmetic, before any snapshot loop or allocation
    "simulate_frames_beyond_memory": lambda tmp: _simulate(tmp, n=255, t_span=[0.0, 1000.0], snapshot_stride=1e-6),
    "select_malformed_json": lambda tmp: ["select", _input_file(tmp, "instance.json", '{"eta": 0.1,')],
    "select_without_intervals": lambda tmp: ["select", _input_file(tmp, "instance.json", {"eta": 0.1})],
    "select_unknown_constant": lambda tmp: [
        "select", _instance(tmp), "--constants", _input_file(tmp, "c.json", {"C": 2.0, "D": 1.0})],
    "select_unknown_flag": lambda tmp: ["select", _instance(tmp, flag="good")],
    "select_negative_eta": lambda tmp: ["select", _instance(tmp, eta=-0.5)],
    "select_nan_mass": lambda tmp: ["select", _instance(tmp, mass=math.nan)],
    "select_infinite_endpoint": lambda tmp: ["select", _input_file(tmp, "instance.json", {
        "eta": 0.5, "intervals": [{"t0": 1.0, "t1": math.inf, "mass": 0.5, "flag": UNEXCEPTIONAL}]})],
    "select_string_number": lambda tmp: ["select", _input_file(tmp, "instance.json", {
        "eta": "0.5", "intervals": [{"t0": "0.0", "t1": "1.0", "mass": "0.5", "flag": UNEXCEPTIONAL}]})],
    "select_all_exceptional": lambda tmp: ["select", _input_file(tmp, "instance.json", {
        "eta": 0.5, "intervals": [{"t0": 0.0, "t1": 1.0, "mass": 0.5, "flag": EXCEPTIONAL}]})],
    "diagnose_missing_constants": lambda tmp: [
        "diagnose", str(_simulated_run(tmp)), "--constants", str(tmp / "absent.json")],
    "bounds_C_below_one": lambda tmp: ["bounds", "--E", "1.0", "--constants", _input_file(tmp, "c.json", {"C": 0.5})],
    "bounds_negative_E": lambda tmp: ["bounds", "--E", "-1"],
    "bounds_infinite_E": lambda tmp: ["bounds", "--E", "inf"],
    "bounds_infinite_M": lambda tmp: ["bounds", "--E", "1", "--M", "inf"],
    "bounds_missing_monitor_dir": lambda tmp: ["bounds", "--E", "1.0", "--monitor", str(tmp / "absent")],
    "diagnose_frame_log_nan_sample": lambda tmp: _corrupt_frame_log(tmp, "u", 3, math.nan),
    # 40 frames are two full checking blocks and a partial one
    "diagnose_frame_log_nan_in_last_of_40": lambda tmp: _corrupt_frame_log(tmp, "u", 39, math.nan,
                                                                           t_span=[0.0, 0.39]),
    "diagnose_frame_log_times_not_increasing": lambda tmp: _corrupt_frame_log(tmp, "t", 4, 0.0),
    # eta = (1/C2)(1+E)^-C2 cuts the run's int s dt into ~5e46 intervals, more cuts than physical memory holds
    "diagnose_partition_too_large": lambda tmp: [
        "diagnose", str(_simulated_run(tmp)), "--constants", _input_file(tmp, "c.json", {"C2": 60})],
    # eta = (1/C2)(1+E)^-C2 underflows to 0.0
    "diagnose_eta_underflow": lambda tmp: [
        "diagnose", str(_simulated_run(tmp)), "--constants", _input_file(tmp, "c.json", {"C2": 1e4})],
    # the monitor's cut quantum (1/(4 C_tilde))^(5/2) makes ~7e21 intervals; bounds.json is not written either
    "bounds_monitor_partition_too_large": lambda tmp: [
        "bounds", "--E", "1.0", "--delta", "1e-8", "--constants", _input_file(tmp, "c.json", {"C_tilde": 1e8}),
        "--monitor", str(_simulated_run(tmp)), "--out", str(tmp / "bounds.json")],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_one_error_line(case, tmp_path, capsys):
    argv = BAD_INPUTS[case](tmp_path)
    capsys.readouterr()
    assert main(argv) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "bounds.json").exists()
    assert not (tmp_path / "r").exists()  # a refused simulate makes no run directory


# JSON's true and false pass isinstance(x, numbers.Real); the owner of each field rejects them by name
BOOLEAN_FIELDS = [
    ("simulate", {"amplitude": True}, "initial_data.amplitude"),
    ("simulate", {"width": True}, "initial_data.width"),
    ("simulate", {"chirp": False}, "initial_data.chirp"),
    ("simulate", {"dt_max": True}, "controller.dt_max"),
    ("simulate", {"theta": True}, "controller.theta"),
    ("simulate", {"r_max": True}, "grid.r_max"),
    ("simulate", {"n": True}, "grid.n"),
    ("simulate", {"seed": True}, "seed"),
    ("simulate", {"t_span": [False, True]}, "time_span"),
    ("simulate", {"constants": {"C": True}}, "constants: constant C"),
    ("simulate", {"e_mode": "declare", "e_declared": True}, "e_declared"),
    ("simulate", {"e_declared": True}, "e_declared: must be null"),  # measure mode
    ("select", {"eta": True}, "eta"),
    ("select", {"t0": False}, "t0"),
    ("select", {"t1": True}, "t1"),
    ("select", {"mass": True}, "mass"),
]


@pytest.mark.parametrize("command, fields, name", BOOLEAN_FIELDS, ids=[f"{c}-{n}" for c, _, n in BOOLEAN_FIELDS])
def test_json_boolean_is_not_a_number(command, fields, name, tmp_path, capsys):
    if command == "simulate":
        argv = ["simulate", "--config", str(write_cfg(tmp_path, **fields)), "--out", str(tmp_path / "r")]
    else:
        argv = ["select", _instance(tmp_path, **fields)]
    assert main(argv) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and name in err, err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("E", ["1e21", "1e160", "1.7e308"])
def test_bounds_saturate_at_huge_E(E, capsys):
    # exp(C E^C), E0^C and C E^15 / eta^C1 overflow float64 here; each reads inf instead of raising
    assert main(["bounds", "--E", E]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["exceptional_ceiling"] == report["scattering_bound"] == report["plan"]["R0"] == math.inf


def _assert_same_bits(densities, expected):
    assert sorted(densities) == sorted(expected)
    for k, v in expected.items():
        assert densities[k].tobytes() == v.tobytes(), k


class TestLoadRun:
    def test_rebuild_matches(self, tmp_path):
        cfg = RunConfig.from_dict(FAST)
        traj, _ = run_simulation(cfg, tmp_path / "run")
        cfg2, traj2 = load_run(tmp_path / "run")
        assert cfg2 == cfg
        assert np.array_equal(traj2.times, traj.times)
        assert np.array_equal(traj2.frames, traj.frames)
        for k in traj.densities:
            assert np.array_equal(traj2.densities[k], traj.densities[k])


class TestDensityCache:
    """densities.csv stands in for the frame statistics only when it provably belongs to the frames."""

    @pytest.fixture(scope="class")
    def cached_run(self, tmp_path_factory):
        """A FAST run, its full-recompute densities and the bytes of its cache-hit diagnose.json."""
        root = tmp_path_factory.mktemp("cache")
        run_dir = root / "run"
        assert main(["simulate", "--config", str(write_cfg(root)), "--out", str(run_dir)]) == EXIT_OK
        assert main(["diagnose", str(run_dir)]) == EXIT_OK
        full = rebuild_trajectory(*read_trajectory_frames(run_dir / "frames.snls"),
                                  RunConfig.from_dict(FAST).controller())
        return run_dir, full.densities, (run_dir / "diagnose.json").read_bytes()

    @staticmethod
    def _count_rows(monkeypatch):
        """A list that grows by the number of frames each evolve._frame_stats call is given."""
        evolve_mod = importlib.import_module("snls.evolve")
        real, rows = evolve_mod._frame_stats, []

        def counted(u, grid, ctl):
            rows.append(len(u))
            return real(u, grid, ctl)

        monkeypatch.setattr(evolve_mod, "_frame_stats", counted)
        return rows

    @staticmethod
    def _copy_without_csv(run_dir, dest):
        dest.mkdir()
        for name in ("manifest.json", "frames.snls"):
            shutil.copyfile(run_dir / name, dest / name)
        return dest

    def _assert_recomputed(self, cached_run, run_dir, monkeypatch):
        _, full, report = cached_run
        rows = self._count_rows(monkeypatch)
        _, traj = load_run(run_dir)
        assert sum(rows) >= len(full["mass"])  # a miss: every frame computed again
        _assert_same_bits(traj.densities, full)
        assert main(["diagnose", str(run_dir), "--out", str(run_dir / "again.json")]) == EXIT_OK
        assert (run_dir / "again.json").read_bytes() == report

    def test_hit_reads_rows_and_checks_one(self, cached_run, monkeypatch):
        src, full, _ = cached_run
        rows = self._count_rows(monkeypatch)
        _, traj = load_run(src)
        assert rows == [1]
        _assert_same_bits(traj.densities, full)

    @pytest.mark.parametrize("form", ["deleted", "missing_last_row", "last_row_one_ulp_off", "first_time_one_ulp_off",
                                      "other_sobolev_delta"])
    def test_bad_csv_is_recomputed(self, form, cached_run, tmp_path, monkeypatch):
        src = cached_run[0]
        run_dir = self._copy_without_csv(src, tmp_path / "copy")
        lines = (src / "densities.csv").read_text().splitlines(keepends=True)
        if form == "missing_last_row":
            (run_dir / "densities.csv").write_text("".join(lines[:-1]))
        elif form.endswith("one_ulp_off"):
            row, col = (-1, 2) if form.startswith("last") else (1, 0)  # the last row's energy, or the first time
            cols = lines[row].rstrip("\n").split(",")
            cols[col] = repr(float(np.nextafter(float(cols[col]), math.inf)))
            lines[row] = ",".join(cols) + "\n"
            (run_dir / "densities.csv").write_text("".join(lines))
        elif form == "other_sobolev_delta":
            other = (_simulated_run(tmp_path, sobolev_delta=0.2) / "densities.csv").read_bytes()
            assert other.split(b"\n")[1:] != "".join(lines).encode().split(b"\n")[1:]
            (run_dir / "densities.csv").write_bytes(other)
        self._assert_recomputed(cached_run, run_dir, monkeypatch)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_cut_csv_is_recomputed(self, cached_run, tmp_path_factory, data):
        src = cached_run[0]
        raw = (src / "densities.csv").read_bytes()
        run_dir = self._copy_without_csv(src, tmp_path_factory.mktemp("cut") / "run")
        (run_dir / "densities.csv").write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
        with pytest.MonkeyPatch.context() as monkeypatch:
            self._assert_recomputed(cached_run, run_dir, monkeypatch)

    @settings(max_examples=40, deadline=None)
    @given(values=hnp.arrays(np.float64, st.tuples(st.integers(0, 5), st.just(8)),
                             elements=st.floats(allow_nan=False)))
    def test_rows_read_back_bit_for_bit(self, tmp_path_factory, values):
        # repr keeps every bit of a finite or infinite float (a NaN payload would not survive, so it would miss)
        keys = ("mass", "energy", "H_sc", "H_sc_minus", "H_sc_plus1", "s_density", "boundary_mass")
        path = tmp_path_factory.mktemp("csv") / "densities.csv"
        path.write_text(density_csv_text(values[:, 0], dict(zip(keys, values[:, 1:].T))))
        times, densities = read_density_csv(path)
        assert times.tobytes() == values[:, 0].tobytes()
        assert np.stack([densities[k] for k in keys], axis=-1).tobytes() == values[:, 1:].tobytes()

    def test_each_frame_row_computed_once(self, tmp_path, monkeypatch):
        rows = self._count_rows(monkeypatch)
        run_dir = _simulated_run(tmp_path)
        frames = read_trajectory_frames(run_dir / "frames.snls")[1].size
        assert main(["diagnose", str(run_dir)]) == EXIT_OK
        assert main(["bounds", "--E", "1.0", "--delta", "1e-8", "--monitor", str(run_dir)]) == EXIT_OK
        assert sum(rows) == frames + 2

    @pytest.mark.parametrize("keep, bound", [(6, 6 + 2), (11, 2)])  # keeping all 11 frames resumes a finished run
    def test_resume_computes_prefix_rows_once(self, keep, bound, tmp_path, monkeypatch):
        cfg = RunConfig.from_dict(FAST)
        run_simulation(cfg, tmp_path / "full")
        run_simulation(cfg, tmp_path / "cut")
        truncate_trajectory_frames(tmp_path / "cut" / "frames.snls", keep)
        rows = self._count_rows(monkeypatch)
        traj, code = run_simulation(cfg, tmp_path / "cut", resume=True)
        assert code == EXIT_OK and traj.times.size == 11
        assert sum(rows) <= bound
        for name in ("frames.snls", "densities.csv"):
            assert (tmp_path / "cut" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()
        _assert_same_bits(traj.densities, load_run(tmp_path / "full")[1].densities)
