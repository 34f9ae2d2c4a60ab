#!/usr/bin/env python3
"""The embedding machinery: sup-norm constant, sublevel measure, thresholds.

Shows where the derived constants come from and stress-tests the resulting
inequalities on a random ensemble: the sup-norm bound, the L2 bound with
factor 1/theta0, and the L^r bounds at several exponents.
"""

import random

import numpy as np

from frachs import (
    FracOrder,
    continuum_sobolev_constant,
    default_problem,
    embedding_bounds,
    grid_sobolev_constant,
    h_alpha_norm,
    measure_sublevel,
    midpoint_grid,
    random_band_limited,
    vanishing_well_potential,
    verify_potential,
)

n, domain = 4096, 32.0
t_min, dt = midpoint_grid(n, domain)
times = t_min + dt * np.arange(n)
a = FracOrder(0.75)
pot = vanishing_well_potential()

report = verify_potential(pot, times)
print("structural hypotheses:", "all pass" if report.passed else report.failed_names())
for c in report.checks:
    print(f"  {c.name:14s} margin {c.worst_margin:+.3e}")

m = measure_sublevel(pot, times, dt)
exact = 1.0 + 2.0 * np.sqrt(pot.threshold * 0.0025)
print(f"\nsublevel measure |{{l < {pot.threshold}}}|: grid {m:.6f} vs closed form {exact:.6f}")

c_cont = continuum_sobolev_constant(a)
c_grid = grid_sobolev_constant(a, n, dt)
print(f"sup-norm constant: whole line C_cont = {c_cont:.5f}, sharp on this grid "
      f"C_grid = {c_grid:.5f}; C_alpha = max = {max(c_cont, c_grid):.5f}")

# the problem's constants come from compute_embedding_constants on its grid
prob = default_problem(alpha=a.alpha, n_samples=n, domain=domain, potential=pot)
const = prob.constants
print(f"admissibility product C^2 m = {const.admissibility_product:.5f} "
      f"(margin {const.admissibility_margin:.4f})")
print(f"theta0 = {const.theta0:.5f},  weight threshold = {const.lambda_threshold:.5f}")

# --- ensemble check of the inequalities at the threshold weight
rng = random.Random(7)
at_threshold = prob.with_lam(const.lambda_threshold)
worst = {}
for _ in range(300):
    u = random_band_limited(rng, n, t_min, dt, band_fraction=rng.uniform(0.02, 0.6))
    ratio = u.sup_norm() / h_alpha_norm(u, a)
    worst["sup/||.||_a"] = max(worst.get("sup/||.||_a", 0.0), ratio)
    rep = embedding_bounds(u, at_threshold)
    for row in rep.checks:
        key = f"{row.name} margin"
        worst[key] = min(worst.get(key, np.inf), row.worst_margin)

print(f"\n300 random signals at the threshold weight:")
print(f"  largest sup-ratio seen: {worst['sup/||.||_a']:.4f}  (constant {const.c_alpha:.4f})")
for key, val in worst.items():
    if key.endswith("margin"):
        print(f"  smallest {key}: {val:+.3e}  (nonnegative = inequality holds)")

# --- the weighted norm is monotone in the weight and blind to core-supported mass
from frachs import SampledSignal, smooth_bump

bump_vals = smooth_bump(times, pot.core)
bump = SampledSignal(t_min, dt, bump_vals)
print("\nweighted norm of a core-supported bump (independent of the weight):")
for lam in (1.0, 10.0, 1000.0):
    norm = np.sqrt(prob.with_lam(lam).form(bump.values, bump.values))
    print(f"  lam = {lam:7.1f}: ||u||_lam = {norm:.8f}")
