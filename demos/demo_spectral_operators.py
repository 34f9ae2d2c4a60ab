#!/usr/bin/env python3
"""Tour of the fractional operators on the periodic grid.

Walks through the Fourier-multiplier derivatives and integrals on signals
where everything is checkable by hand: pure tones (eigenfunction-like
behavior with explicit phase shifts) and the Gaussian (validated against the
time-domain binomial-weight quadrature).
"""

import numpy as np

from frachs import (
    FracOrder,
    left_derivative,
    left_integral,
    midpoint_grid,
    quadrature_left_derivative,
    riesz_composition,
    right_derivative,
    seminorm_alpha,
    signal_from_function,
)

n, domain = 4096, 32.0
t_min, dt = midpoint_grid(n, domain)
a = FracOrder(0.75)
print(f"grid: {n} samples, domain length {domain}, dt = {dt:.4g}, order = {a.alpha}")

# --- a pure tone: derivative of order a multiplies by w^a and shifts phase by a*pi/2
m = 37
w1 = 2 * np.pi * m / (n * dt)
tone = signal_from_function(lambda t: np.cos(w1 * t), n, t_min, dt)
spec = np.abs(np.fft.rfft(tone.values[:, 0]))
nonzero = np.sum(spec > 1e-9 * np.max(spec))
print(f"\ncos({w1:.3f} t): {nonzero} nonzero half-spectrum bin (the +- pair folds onto bin {m})")

ld = left_derivative(tone, a)
expect = w1**a.alpha * np.cos(w1 * tone.times + a.alpha * np.pi / 2)
print(f"left derivative vs w^a cos(wt + a pi/2): max dev {np.max(np.abs(ld.values[:,0]-expect)):.2e}")

rd = right_derivative(tone, a)
expect = w1**a.alpha * np.cos(w1 * tone.times - a.alpha * np.pi / 2)
print(f"right derivative vs w^a cos(wt - a pi/2): max dev {np.max(np.abs(rd.values[:,0]-expect)):.2e}")

sine = signal_from_function(lambda t: np.sin(w1 * t), n, t_min, dt)
back = left_derivative(left_integral(sine, a), a)
print(f"derivative of integral returns the signal: max dev {np.max(np.abs(back.values - sine.values)):.2e}")

# --- the composition of right-after-left derivatives is the single |w|^(2a) multiplier
riesz = riesz_composition(tone, a)
expect = w1 ** (2 * a.alpha) * np.cos(w1 * tone.times)
print(f"two-sided composition on the tone: max dev {np.max(np.abs(riesz.values[:,0]-expect)):.2e}")

# --- Gaussian: spectral vs time-domain quadrature oracle (wide domain, the
# half-line kernel has slow algebraic tails that wrap on short periods)
print("\nGaussian exp(-t^2), spectral vs binomial-quadrature path:")
for alpha in (0.55, 0.75, 0.95):
    aa = FracOrder(alpha)
    for nn, dom in ((32768, 256.0),):
        tm, d = midpoint_grid(nn, dom)
        g = signal_from_function(lambda t: np.exp(-(t**2)), nn, tm, d)
        s = left_derivative(g, aa)
        q = quadrature_left_derivative(g, aa)
        mid = np.abs(g.times) <= dom / 4
        err = np.max(np.abs(s.values[mid, 0] - q.values[mid, 0])) / np.max(np.abs(s.values[mid, 0]))
        print(f"  order {alpha}: rel dev {err:.2e} on the middle half (domain {dom:g}, dt {d:.4g})")

# --- seminorm: both routes through Parseval agree
g = signal_from_function(lambda t: np.exp(-(t**2)), n, t_min, dt)
from frachs import l2_norm

print(f"\nseminorm two ways: {seminorm_alpha(g, a):.12f} (multiplier) "
      f"vs {l2_norm(left_derivative(g, a)):.12f} (derivative then L2)")
