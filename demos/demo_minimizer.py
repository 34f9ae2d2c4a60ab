#!/usr/bin/env python3
"""Descent to the nontrivial minimizer and the restricted Dirichlet problem.

Runs the truncated Newton-CG minimizer from the negative-energy bump on the
default scenario, prints the convergence history, validates the result as
a critical point against random directions, and compares the unconstrained
minimum with the zero-extension Dirichlet minimum on the core.
"""

import random

import numpy as np

from frachs import (
    SolverConfig,
    default_problem,
    directional_derivative,
    l2_norm,
    minimize,
    random_band_limited,
    solve_bvp,
)

prob = default_problem()
cfg = SolverConfig()
print(f"minimizing at lam = {prob.lam:.4f}, gradient tolerance {cfg.grad_tol:.0e}")

res = minimize(prob, cfg)
print(f"\nconverged = {res.converged} after {res.iterations} accepted steps")
print(f"energy  = {res.energy:.8e}")
print(f"|grad|  = {res.grad_norm:.3e} (L2), {res.grad_norm_weighted:.3e} (weighted)")
print(f"sup |u| = {res.u.sup_norm():.6f}")

print("\nhistory (every 20th step):")
for i in range(0, len(res.history), 20):
    e, g = res.history[i]
    print(f"  step {i:4d}: energy {e:+.6e}  |grad| {g:.3e}")
e, g = res.history[-1]
print(f"  step {len(res.history)-1:4d}: energy {e:+.6e}  |grad| {g:.3e}")

rng = random.Random(0)
worst = 0.0
for _ in range(20):
    phi = random_band_limited(rng, prob.n_samples, prob.t_min, prob.dt)
    worst = max(worst, abs(directional_derivative(res.u, phi, prob)) / l2_norm(phi))
print(f"\ncritical-point residual over 20 random directions: {worst:.2e}")

bvp = solve_bvp(prob, cfg)
print(f"\nrestricted problem on the core (zero extension, pinned boundary):")
print(f"restricted level = {bvp.energy:.8e}  (unrestricted {res.energy:.8e})")
print(f"ordering holds: {res.energy <= bvp.energy < 0}")
lo, hi = prob.potential.core
outside = (prob.times <= lo) | (prob.times >= hi)
print(f"max |u| outside the open core: {np.max(np.abs(bvp.u.values[outside])):.1e} (exact zeros)")
