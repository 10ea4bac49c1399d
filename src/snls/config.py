"""Run configuration: schema-validated JSON, initial-data families, defaults."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .evolve import StepController
from .functionals import cutoff_profile
from .intervals import ProofConstants
from .radial import RadialField, RadialGrid

__all__ = ["RunConfig", "initial_field", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

FAMILIES = ("gaussian", "bump", "ring")


def initial_field(grid: RadialGrid, family: str, amplitude: float, width: float, chirp: float = 0.0) -> RadialField:
    """Radial initial data: gaussian, compactly supported bump, or ring profile."""
    r = grid.nodes
    if family == "gaussian":
        prof = np.exp(-(r**2) / (2.0 * width**2))
    elif family == "bump":
        prof = cutoff_profile(r / (2.0 * width))
    elif family == "ring":
        prof = (r / width) ** 2 * np.exp(-(r**2) / (2.0 * width**2))
    else:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    u = amplitude * prof * np.exp(1j * chirp * r**2)
    return RadialField(grid, u.astype(np.complex128))


class ConfigError(ValueError):
    """Invalid run configuration; the message carries the offending field path."""


def _require(cond: bool, path: str, msg: str):
    if not cond:
        raise ConfigError(f"{path}: {msg}")


@dataclass(frozen=True)
class RunConfig:
    """One simulation cell: grid, controller, initial data, constants, outputs."""

    n: int = 4096
    r_max: float = 40.0
    dt_max: float = 0.01
    theta: float = 0.1
    snapshot_stride: float = 0.02
    boundary_mass_tol: float = 1e-6
    blowup_ceiling: float = 1e6
    sobolev_delta: float = 0.1
    family: str = "gaussian"
    amplitude: float = 1.0
    width: float = 1.0
    chirp: float = 0.0
    t_span: tuple = (0.0, 1.0)
    constants: dict = dc_field(default_factory=lambda: ProofConstants().to_dict())
    e_mode: str = "measure"
    e_declared: float | None = None
    seed: int = 0
    out_dir: str = "runs/default"

    def validate(self) -> "RunConfig":
        _require(self.r_max > 0 and np.isfinite(self.r_max), "grid.r_max", "must be positive and finite")
        try:
            self.grid()  # with r_max checked, the grid's rule on n is what can fail
        except ValueError as exc:
            raise ConfigError(f"grid.n: {exc}") from exc
        for name in ("dt_max", "snapshot_stride"):
            _require(getattr(self, name) > 0, f"controller.{name}", "must be positive")
        _require(0 < self.theta <= 1, "controller.theta", "must lie in (0, 1]")
        _require(self.boundary_mass_tol > 0, "controller.boundary_mass_tol", "must be positive")
        _require(self.blowup_ceiling > 0, "controller.blowup_ceiling", "must be positive")
        _require(self.family in FAMILIES, "initial_data.family", f"must be one of {FAMILIES}")
        _require(self.amplitude >= 0, "initial_data.amplitude", "must be nonnegative")
        _require(self.width > 0, "initial_data.width", "must be positive")
        _require(len(self.t_span) == 2 and self.t_span[0] < self.t_span[1],
                 "time_span", f"must be an increasing pair, got {self.t_span}")
        _require(self.e_mode in ("measure", "declare"), "e_mode", "must be 'measure' or 'declare'")
        if self.e_mode == "declare":
            _require(self.e_declared is not None and self.e_declared > 0,
                     "e_declared", "must be positive in declare mode")
        try:
            self.proof_constants()
        except ValueError as exc:
            raise ConfigError(f"constants: {exc}") from exc
        _require(isinstance(self.seed, int), "seed", "must be an integer")
        return self

    def grid(self) -> RadialGrid:
        return RadialGrid(r_max=self.r_max, n=self.n)

    def controller(self) -> StepController:
        return StepController(
            dt_max=self.dt_max, theta=self.theta, snapshot_stride=self.snapshot_stride,
            boundary_mass_tol=self.boundary_mass_tol, blowup_ceiling=self.blowup_ceiling,
            sobolev_delta=self.sobolev_delta,
        )

    def proof_constants(self) -> ProofConstants:
        return ProofConstants(**self.constants)

    def build_initial_field(self) -> RadialField:
        return initial_field(self.grid(), self.family, self.amplitude, self.width, self.chirp)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["t_span"] = list(self.t_span)
        d["schema_version"] = SCHEMA_VERSION
        return d

    @staticmethod
    def from_dict(obj: dict) -> "RunConfig":
        obj = dict(obj)
        version = obj.pop("schema_version", SCHEMA_VERSION)
        _require(version == SCHEMA_VERSION, "schema_version", f"expected {SCHEMA_VERSION}, got {version}")
        known = set(RunConfig.__dataclass_fields__)
        unknown = set(obj) - known
        _require(not unknown, sorted(unknown)[0] if unknown else "", "unknown field")
        if "t_span" in obj:
            obj["t_span"] = tuple(obj["t_span"])
        cfg = RunConfig(**obj)
        return cfg.validate()

    @staticmethod
    def load(path) -> "RunConfig":
        with open(path) as f:
            try:
                obj = json.load(f)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        return RunConfig.from_dict(obj)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
