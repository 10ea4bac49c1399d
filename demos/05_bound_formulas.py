"""Every explicit threshold and growth formula, with re-substitution checks.

The doubly-exponential quantities overflow float64 almost immediately, so
results carry exact log-space values next to saturating floats; all
closure checks run in log space.
"""

import json
import math

import numpy as np

import snls
from snls.intervals import ProofConstants

const = ProofConstants()
print("constants:", const.to_dict())

print("\n== partition quantum eta = (1/C2)(1+E)^-C2 ==")
for E in (0.0, 1.0, 3.0, 10.0):
    print(f"  E = {E:5.1f}: eta = {snls.eta_of(E, const.C2):.6f}")

print("\n== scattering ceiling C exp(C E^C) ==")
for E in (0.0, 1.0, 2.0, 5.0):
    sv = snls.scattering_bound(E, const.C)
    tag = " (saturated)" if sv.overflow else ""
    print(f"  E = {E:4.1f}: log bound = {sv.log_value:12.3f}, bound = {sv.value:.4g}{tag}")
# substituting eta(E) makes log(2 J eta), J = exp(C eta^-C), grow like (1+E)^(C C2): the shape of exp(C E^C)
E_grid = np.linspace(3, 40, 50)
eta = const.eta(E_grid)
fitted = np.polyfit(np.log(1.0 + E_grid), np.log(np.log(2.0) + const.dist_cap(eta) + np.log(eta)), 1)[0]
print(f"  partition-count shape: fitted growth exponent {fitted:.3f} vs C*C2 = {const.C * const.C2:.3f}")

print("\n== absorption rules ==")
for rec in snls.absorb_check(E=3.0, C2=2.0, p=0.5, eps_target=0.01):
    print(f"  {rec.name:30s} holds={rec.holds} at C2_rule={rec.C2_rule:.3f}")

print("\n== slow-growth function g ==")
for t in (10.0, 1e3, 1e6, 1e12):
    print(f"  g({t:8.0e}) = {snls.slow_growth_g(t, const.C):.6f}")
x = math.exp(math.e**2)
print(f"  nested-log unwinding: g(e^(e^2)) at C = 1 -> {snls.slow_growth_g(x, 1.0):.12f}")

print("\n== continuity-argument plan (M = E0 = 1) ==")
plan = snls.theorem1_plan(1.0, 1.0, 1e-8, const)
print(f"  log R0 = {plan.R0.log_value:.3f} (R0 saturates float64)")
print(f"  delta0 = {plan.delta0:.6e}; (2 R0)^(C delta0) = "
      f"{math.exp(const.C * plan.delta0 * (math.log(2) + plan.R0.log_value)):.12f}")
print(f"  interval-count ceiling m = {plan.m_ceiling:.1f}")
print(f"  closure: S-ceiling log {plan.s_ceiling_log:.3f} <= log R0 -> closed = {plan.closed}")
for mult in (0.99, 1.01):
    p = snls.theorem1_plan(1.0, 1.0, plan.delta0 * mult, const)
    print(f"  delta = {mult:.2f} delta0: closed = {p.closed}")

print("\n== relaxed upper regularity: theta = delta / eps_reg ==")
for eps_reg in (1.0, 0.5, 0.1):
    p = snls.relaxed_regularity_plan(1.0, 1.0, 1e-8, eps_reg, const)
    print(f"  eps_reg = {eps_reg:4.2f}: theta = {p.theta:.2e}, delta0 = {p.delta0:.3e}, closed = {p.closed}")

print("\n== smallest admissible M0 for slow-growth control ==")
for u0 in (0.1, 1.0, 10.0):
    res = snls.m0_solve(u0, const)
    print(f"  ||u0|| = {u0:5.2f}: log M0 = {res.M0.log_value:10.3f}, "
          f"floor_active = {res.floor_active}, residual = {res.residual:.2e}")

print("\n== full bound report (JSON) ==")
rep = snls.build_bound_report(E=1.0, M=1.0, delta=1e-8, constants=const)
print(json.dumps(rep.to_json(), indent=2, sort_keys=True)[:600], "...")
