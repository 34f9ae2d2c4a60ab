"""Sub-quadratic nonlinear terms and their growth-hypothesis checks.

A :class:`Nonlinearity` bundles the scalar density W(t, u), its gradient in
u, the pointwise coefficients of its u-Hessian and the growth data: an
exponent p in (1, 2) with a weight xi(t) bounding the gradient (hypothesis
W1), and constants (eta, delta, nu) giving a lower bound |W| >= eta |u|^nu on
the core interval for small |u| (hypothesis W2).  :func:`verify_growth`
samples both hypotheses and the declared gradient and returns a
:class:`~frachs.spaces.CheckReport`.

The default family W(t, u) = xi(t) |u|^p / p saturates W1 with equality; an
optional epsilon-regularization rounds off the gradient's non-Lipschitz corner
at u = 0 for line-search robustness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid import pointwise_dot, standard_normal
from .spaces import CheckReport, CheckResult, ResolutionError

__all__ = [
    "Nonlinearity",
    "power_nonlinearity",
    "zero_nonlinearity",
    "verify_growth",
]


def _no_hessian(t, u):
    raise NotImplementedError("this nonlinearity declares no hessian_at; Newton-CG needs W''(u)")


@dataclass(frozen=True)
class Nonlinearity:
    """W(t, u), grad_u W(t, u) and the growth data of the sub-quadratic class.

    ``density(t, u)`` maps (N,) times and (N, n) values to (N,) energies;
    ``gradient(t, u)`` to (N, n).  ``hessian_at(t, u)`` returns the pointwise
    u-Hessian of the density as two (N,) coefficient arrays ``(f, g)``, with
    xi folded in: ``W''(u) v = f v + g (u . v) u``.  The Newton-CG solver
    forms them once per step and needs them; a nonlinearity built only for
    the growth checks may leave ``hessian_at`` out, and the solver then stops
    with ``NotImplementedError``.
    """

    density: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(repr=False)
    gradient: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(repr=False)
    p: float
    xi: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    eta: float
    delta: float
    nu: float
    hessian_at: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]] = field(
        default=_no_hessian, repr=False
    )

    def __post_init__(self):
        if not (1.0 < self.p < 2.0):
            raise ValueError(f"growth exponent p must lie in (1, 2), got {self.p}")
        if not (1.0 < self.nu < 2.0):
            raise ValueError(f"lower-bound exponent nu must lie in (1, 2), got {self.nu}")
        if self.eta <= 0 or self.delta <= 0:
            raise ValueError("eta and delta must be positive")

    def xi_at(self, t: np.ndarray) -> np.ndarray:
        return np.asarray(self.xi(np.asarray(t, dtype=float)), dtype=float)

    def xi_dual_norm(self, times: np.ndarray, dt: float) -> float:
        """||xi||_{L^{2/(2-p)}} on the truncated grid (trapezoid quadrature)."""
        q = 2.0 / (2.0 - self.p)
        return float((dt * np.sum(self.xi_at(times) ** q)) ** (1.0 / q))


def power_nonlinearity(
    p: float = 1.5,
    nu: float | None = None,
    xi_scale: float = 1.0,
    xi_width: float = 10.0,
    delta: float = 1.0,
    core: tuple[float, float] = (0.0, 0.5),
    eps: float = 0.0,
) -> Nonlinearity:
    """The saturating family W(t, u) = xi(t) |u|^p / p with a Gaussian weight.

    xi(t) = xi_scale * exp(-t^2 / xi_width) has finite L^{2/(2-p)} norm; the
    lower-bound constants are eta = min over the closed core of xi / p and any
    nu in [p, 2) (the bound needs delta <= 1 when nu > p; nu defaults to p).
    With eps > 0 the density is ((|u|^2 + eps^2)^(p/2) - eps^p) / p whose
    gradient (|u|^2 + eps^2)^((p-2)/2) u is Lipschitz at u = 0.
    """
    if nu is None:
        nu = p
    if nu < p:
        raise ValueError(f"the power family satisfies the lower bound only for nu >= p, got nu={nu} < p={p}")
    if nu > p and delta > 1.0:
        raise ValueError("for nu > p the lower bound needs delta <= 1")

    def xi(t):
        return xi_scale * np.exp(-(t**2) / xi_width)

    def density(t, u):
        mag2 = pointwise_dot(u, u) + eps**2
        return xi(t) * (mag2 ** (p / 2.0) - eps**p) / p

    def gradient(t, u):
        # the (p-2)/2 power is singular at mag2 = 0 (only for eps = 0): u = 0 gets 0 there
        mag2 = pointwise_dot(u, u) + eps**2
        factor = np.power(mag2, (p - 2.0) / 2.0, out=np.zeros_like(mag2), where=mag2 > 0.0)
        coeff = xi(t) * factor
        out = np.empty_like(u)
        for i in range(u.shape[1]):
            out[:, i] = coeff * u[:, i]
        return out

    def hessian_at(t, u):
        # W'' is unbounded as |u| -> 0 and the (p-4)/2 power overflows below ~1e-100:
        # the model drops the nonlinear curvature there, as at u = 0 itself
        mag2 = pointwise_dot(u, u) + eps**2
        safe = mag2 > 1e-100
        weight = np.where(safe, xi(t), 0.0)
        mag2 = np.where(safe, mag2, 1.0)
        return weight * mag2 ** ((p - 2.0) / 2.0), weight * (p - 2.0) * mag2 ** ((p - 4.0) / 2.0)

    # the closed core's xi-minimum sits at the endpoint farthest from 0
    far = max(abs(core[0]), abs(core[1]))
    eta = xi_scale * np.exp(-(far**2) / xi_width) / p

    return Nonlinearity(density, gradient, p, xi, float(eta), delta, float(nu), hessian_at)


def zero_nonlinearity(p: float = 1.5, delta: float = 1.0) -> Nonlinearity:
    """W identically zero: satisfies the gradient growth bound (with xi = 0)
    but not the lower bound on the core, whose declared constants are
    therefore vacuous claims that the growth checker flags."""

    def density(t, u):
        return np.zeros(len(t))

    def gradient(t, u):
        return np.zeros_like(u)

    def hessian_at(t, u):
        return np.zeros(len(t)), np.zeros(len(t))

    def xi(t):
        return np.zeros_like(t)

    return Nonlinearity(density, gradient, p, xi, 1.0, delta, p, hessian_at)


def verify_growth(
    nl: Nonlinearity,
    times: np.ndarray,
    core: tuple[float, float],
    n_components: int = 1,
    seed: int = 0,
) -> CheckReport:
    """Sample the growth hypotheses on a (t, u) mesh; failures are data.

    W1: |grad W(t, u)| <= xi(t) |u|^(p-1) over the grid times 4 random unit
    directions (normalized :func:`~frachs.grid.standard_normal` draws from
    ``random.Random(seed)``) and 24 amplitudes |u| up to 2.  W2: |W(t, u)| >=
    eta |u|^nu for t in the closed core and |u| <= delta.  Also cross-checks the declared
    gradient against centered differences of the density away from u = 0.
    Each (direction, amplitude) sample evaluates the gradient once, on a
    broadcast row, and W1 and the difference check share it.  A closed core
    without grid samples raises :class:`ResolutionError`.
    """
    times = np.asarray(times, dtype=float)
    t_core = times[(times >= core[0]) & (times <= core[1])]
    if t_core.size == 0:
        raise ResolutionError(
            f"the closed core {core} holds no grid sample: the grid does not resolve the core"
        )
    shape = (len(times), n_components)
    dirs = standard_normal(random.Random(seed), 4 * n_components).reshape(4, n_components)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    amps = np.linspace(0.0, 2.0, 25)[1:]
    xi_vals = nl.xi_at(times)
    checks = []

    h = 1e-5
    worst_w1, loc_w1 = np.inf, (np.nan, np.nan)
    worst_fd, loc_fd = 0.0, np.nan
    for d in dirs:
        for s in amps:
            row = s * d
            g = nl.gradient(times, np.broadcast_to(row, shape))
            gmag = np.sqrt(pointwise_dot(g, g))
            slack = xi_vals * s ** (nl.p - 1.0) - gmag
            j = int(np.argmin(slack))
            if slack[j] < worst_w1:
                worst_w1, loc_w1 = float(slack[j]), (float(times[j]), float(s))
            if s < 0.25:
                continue
            gscale = max(float(np.max(gmag)), 1e-300)
            fd = np.empty_like(g)
            for c in range(n_components):
                up, dn = row.copy(), row.copy()
                up[c] += h
                dn[c] -= h
                fd[:, c] = (
                    nl.density(times, np.broadcast_to(up, shape))
                    - nl.density(times, np.broadcast_to(dn, shape))
                ) / (2.0 * h)
            diff = fd - g
            err = np.sqrt(pointwise_dot(diff, diff))
            den = np.maximum(gmag, 1e-4 * gscale)
            rel = err / den
            j = int(np.argmax(rel))
            if rel[j] > worst_fd:
                worst_fd, loc_fd = float(rel[j]), float(times[j])
    checks.append(
        CheckResult(
            "W1-growth",
            worst_w1 >= -1e-12,
            worst_w1,
            loc_w1[0],
            f"|grad W| <= xi(t)|u|^(p-1); worst at |u| = {loc_w1[1]:.3g}",
        )
    )

    worst_w2, loc_w2 = np.inf, (np.nan, np.nan)
    small = amps[amps <= nl.delta]
    if small.size == 0:
        small = np.array([nl.delta / 2.0])
    for d in dirs:
        for s in small:
            u = np.broadcast_to(s * d, (len(t_core), n_components))
            w = np.abs(nl.density(t_core, u))
            slack = w - nl.eta * s**nl.nu
            j = int(np.argmin(slack))
            if slack[j] < worst_w2:
                worst_w2, loc_w2 = float(slack[j]), (float(t_core[j]), float(s))
    checks.append(
        CheckResult(
            "W2-lower-bound",
            worst_w2 >= -1e-12,
            worst_w2,
            loc_w2[0],
            f"|W| >= eta |u|^nu on the core; worst at |u| = {loc_w2[1]:.3g}",
        )
    )

    checks.append(
        CheckResult(
            "gradient-consistency",
            worst_fd <= 1e-5,
            1e-5 - worst_fd,
            loc_fd,
            "declared gradient vs centered differences of W away from u = 0",
        )
    )

    return CheckReport(tuple(checks))
