"""Run configuration: schema-validated JSON, initial-data families, defaults."""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, field as dc_field, fields
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
    """Bad input from outside the program; the message names the offending file or field path."""


def read_json(path, parse=None):
    """Read a JSON input file and apply parse to it; malformed input is a ConfigError naming the file."""
    with open(path) as f:
        try:
            obj = json.load(f)
            return obj if parse is None else parse(obj)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"{path}: malformed input ({exc!r})") from exc


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
        for prefix, build in (("grid.", self.grid), ("controller.", self.controller),
                              ("constants: ", self.proof_constants)):
            try:
                build()
            except ValueError as exc:
                raise ConfigError(f"{prefix}{exc}") from exc
        _require(self.family in FAMILIES, "initial_data.family", f"must be one of {FAMILIES}")
        _require(isinstance(self.amplitude, numbers.Real) and self.amplitude >= 0,
                 "initial_data.amplitude", "must be nonnegative")
        _require(isinstance(self.width, numbers.Real) and self.width > 0, "initial_data.width", "must be positive")
        _require(isinstance(self.chirp, numbers.Real), "initial_data.chirp", "must be a number")
        _require(len(self.t_span) == 2 and all(isinstance(t, numbers.Real) for t in self.t_span)
                 and self.t_span[0] < self.t_span[1], "time_span", f"must be an increasing pair, got {self.t_span}")
        _require(self.e_mode in ("measure", "declare"), "e_mode", "must be 'measure' or 'declare'")
        if self.e_mode == "declare":
            _require(isinstance(self.e_declared, numbers.Real) and self.e_declared > 0,
                     "e_declared", "must be positive in declare mode")
        _require(isinstance(self.seed, int), "seed", "must be an integer")
        _require(isinstance(self.out_dir, str), "out_dir", "must be a string")
        return self

    def grid(self) -> RadialGrid:
        return RadialGrid(r_max=self.r_max, n=self.n)

    def controller(self) -> StepController:
        return StepController(**{f.name: getattr(self, f.name) for f in fields(StepController)})

    def proof_constants(self) -> ProofConstants:
        return ProofConstants.from_dict(self.constants)

    def build_initial_field(self) -> RadialField:
        return initial_field(self.grid(), self.family, self.amplitude, self.width, self.chirp)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["t_span"] = list(self.t_span)
        d["schema_version"] = SCHEMA_VERSION
        return d

    @staticmethod
    def from_dict(obj) -> "RunConfig":
        _require(isinstance(obj, dict), "config", "must be a JSON object")
        obj = dict(obj)
        version = obj.pop("schema_version", SCHEMA_VERSION)
        _require(version == SCHEMA_VERSION, "schema_version", f"expected {SCHEMA_VERSION}, got {version}")
        unknown = sorted(set(obj) - set(RunConfig.__dataclass_fields__))
        _require(not unknown, unknown[0] if unknown else "", "unknown field")
        if "t_span" in obj:
            _require(isinstance(obj["t_span"], (list, tuple)), "time_span", "must be a pair")
            obj["t_span"] = tuple(obj["t_span"])
        return RunConfig(**obj).validate()

    @staticmethod
    def load(path) -> "RunConfig":
        return read_json(path, RunConfig.from_dict)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
