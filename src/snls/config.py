"""Run configuration: schema-validated JSON, initial-data families, defaults."""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field as dc_field, fields

import numpy as np

from .evolve import StepController, _check_frame_count, _time_span
from .functionals import cutoff_profile
from .intervals import ProofConstants
from .radial import RadialField, RadialGrid, _is_real

__all__ = ["RunConfig", "initial_field", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

FAMILIES = ("gaussian", "bump", "ring")


def _check_initial_data(family, amplitude, width, chirp) -> None:
    """The initial-data ranges, each written once; the ValueError starts with the field name."""
    for name, value, ok, rule in (
        ("family", family, family in FAMILIES, f"be one of {FAMILIES}"),
        ("amplitude", amplitude, _is_real(amplitude) and 0 <= amplitude < math.inf, "be a finite nonnegative number"),
        ("width", width, _is_real(width) and width > 0, "be a positive number"),
        ("chirp", chirp, _is_real(chirp) and math.isfinite(chirp), "be a finite number"),
    ):
        if not ok:
            raise ValueError(f"{name} must {rule}, got {value!r}")


def initial_field(grid: RadialGrid, family: str, amplitude: float, width: float, chirp: float = 0.0) -> RadialField:
    """Radial initial data: gaussian, compactly supported bump, or ring profile."""
    _check_initial_data(family, amplitude, width, chirp)
    r = grid.nodes
    with np.errstate(over="ignore"):  # a width past 1e154 squares to inf (a flat profile) instead of raising
        two_w2 = 2.0 * np.float64(width) ** 2
    if family == "gaussian":
        prof = np.exp(-(r**2) / two_w2)
    elif family == "bump":
        prof = cutoff_profile(r / (2.0 * width))
    else:  # ring
        prof = (r / width) ** 2 * np.exp(-(r**2) / two_w2)
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
        initial_data = functools.partial(_check_initial_data, self.family, self.amplitude, self.width, self.chirp)
        for prefix, build in (("grid.", self.grid), ("controller.", self.controller),
                              ("constants: ", self.proof_constants), ("initial_data.", initial_data),
                              ("time_span: ", functools.partial(_time_span, self.t_span)),
                              ("controller.", lambda: _check_frame_count(*_time_span(self.t_span),
                                                                         self.snapshot_stride, self.n))):
            try:
                build()
            except ValueError as exc:
                raise ConfigError(f"{prefix}{exc}") from exc
        _require(self.e_mode in ("measure", "declare"), "e_mode", "must be 'measure' or 'declare'")
        _require(self.e_declared is None or _is_real(self.e_declared) and 0 < self.e_declared < math.inf,
                 "e_declared", "must be null or a positive finite number")
        _require(self.e_mode == "measure" or self.e_declared is not None, "e_declared", "is required in declare mode")
        _require(isinstance(self.seed, int) and not isinstance(self.seed, bool), "seed", "must be an integer")
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
