"""snls: a numerical laboratory for the defocusing energy-supercritical radial NLS.

The equation i u_t + Lap u = |u|^6 u on R^3 with radial data is discretized
by a sine-spectral method in w = r*u; every functional and combinatorial
procedure of the quantitative scattering analysis (space-time norms,
localized mass, Morawetz flux, threshold-mass interval decomposition,
dyadic chain selection, explicit bound formulas) is an executable,
property-tested operation.
"""

from .radial import (
    RadialGrid,
    RadialField,
    SpectralField,
    to_spectral,
    from_spectral,
    fractional_apply,
    sobolev_norm,
    lebesgue_norm,
    rescale,
    hardy_ratio,
)
from .functionals import (
    NormReport,
    mass,
    energy,
    s_density,
    localized_mass,
    localized_mass_rate,
    morawetz_flux,
    space_time_norms,
)
from .evolve import (
    StepController,
    Trajectory,
    free_evolve,
    nonlinear_phase,
    strang_step,
    evolve,
    linear_trajectory,
    duhamel_residual,
    duhamel_tail,
    average_translate,
)
from .intervals import (
    ProofConstants,
    IntervalDecomposition,
    SelectionResult,
    partition_by_eta,
    partition_trajectory,
    classify,
    concentration_scan,
    select_long_interval,
    recursive_select,
    brute_force_chain,
    mass_bracketing_audit,
    linear_flow_floor,
    synthetic_decomposition,
    dyadic_tail_check,
)
from .bounds import (
    eta_of,
    absorb_check,
    scattering_bound,
    slow_growth_g,
    theorem1_plan,
    relaxed_regularity_plan,
    m0_solve,
    bootstrap_monitor,
    build_bound_report,
)
from .config import RunConfig, initial_field

__version__ = "0.1.0"

__all__ = [
    "RadialGrid", "RadialField", "SpectralField",
    "to_spectral", "from_spectral", "fractional_apply",
    "sobolev_norm", "lebesgue_norm", "rescale", "hardy_ratio",
    "NormReport", "mass", "energy", "s_density",
    "localized_mass", "localized_mass_rate", "morawetz_flux", "space_time_norms",
    "StepController", "Trajectory", "free_evolve", "nonlinear_phase",
    "strang_step", "evolve", "linear_trajectory", "duhamel_residual",
    "duhamel_tail", "average_translate",
    "ProofConstants", "IntervalDecomposition", "SelectionResult",
    "partition_by_eta", "partition_trajectory", "classify", "concentration_scan",
    "select_long_interval", "recursive_select", "brute_force_chain",
    "mass_bracketing_audit", "linear_flow_floor", "synthetic_decomposition",
    "dyadic_tail_check",
    "eta_of", "absorb_check", "scattering_bound", "slow_growth_g",
    "theorem1_plan", "relaxed_regularity_plan", "m0_solve", "bootstrap_monitor",
    "build_bound_report",
    "RunConfig", "initial_field",
]
