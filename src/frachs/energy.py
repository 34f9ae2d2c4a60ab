"""The weighted energy functional, its gradient and the Lemma-style bounds.

For a problem instance with weight lam the functional is

    I(u) = 1/2 ||u||_lam^2 - int W(t, u(t)) dt,

whose critical points are the weak solutions of the underlying system.
``Problem`` owns the one discrete operator of ``||u||_lam^2``, built once on
the real-FFT half-spectrum and used by the solver as well.  The module
provides its evaluation, the directional derivative, the L2-Riesz
gradient representer (the descent field used by the solver), the closed-form
coercivity lower bound (its constant is ``Problem.coercivity``), and the
construction of a small-amplitude bump with strictly negative energy (the
start point that keeps descent away from the trivial critical point u = 0).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .fracops import half_spectrum
from .grid import FracOrder, SampledSignal, midpoint_grid, pointwise_dot
from .nonlinearity import Nonlinearity, power_nonlinearity
from .spaces import (
    EmbeddingConstants,
    PotentialMatrix,
    ResolutionError,
    compute_embedding_constants,
    vanishing_well_potential,
)

__all__ = [
    "Problem",
    "default_problem",
    "evaluate_energy",
    "directional_derivative",
    "gradient",
    "lower_bound",
    "lower_bound_minimum",
    "smooth_bump",
    "negative_energy_witness",
    "WitnessError",
]


class WitnessError(RuntimeError):
    """No scaling of the core bump has negative energy (W2 violated numerically)."""


@dataclass(frozen=True)
class Problem:
    """Discretized problem instance: order, grid, weights and nonlinearity.

    Grid arrays (times, matrix entries) and the half-spectrum multiplier
    are evaluated once at construction and shared read-only by all
    evaluations.  The one discrete operator of the problem acts on raw
    ``(N, n)`` sample arrays: :meth:`apply` is ``|w|^(2a) + lam L(t)``,
    :meth:`form`, the bilinear form of ``||.||_lam^2``, is its L2(dt) pairing
    ``dt sum(x * apply(y))``, so the energy, its gradient and every norm go
    through ``apply``, and :meth:`precondition` is the inverse of the surrogate
    ``D^(1/2) (c + |w|^(2a)) D^(1/2)``, ``D = 1 + lam diag(L(t)) / s``, whose
    kinetic block is shifted to the potential level ``c`` (:meth:`shift`).
    :meth:`energy`, :meth:`grad` and :meth:`hessian` are the functional ``I``
    and its derivatives on the same arrays, as the solver descends them.
    The restricted (Dirichlet) problem is the same functional on the signals
    that vanish outside an interval: :meth:`restricted` marks the ``(N, n)``
    samples the descent may move in the boolean ``free`` (``None`` for the
    whole line), and :meth:`project`, hence ``grad``, ``hessian`` and
    ``precondition``, zero everything outside it.
    Layout rule: component-axis sums go through
    :func:`~frachs.grid.pointwise_dot` or per-component columns, and
    coefficient arrays are kept at the full ``(., n)`` shape
    (``matrix_entries[i, j]`` is the contiguous curve ``L_ij(t)``): on
    C-ordered ``(N, n)`` arrays, short-axis reductions and column broadcasts
    cost several times the same arithmetic.  Results are finished in place on
    freshly allocated arrays, since each ``(N, n)`` temporary costs a new
    allocation in the solver's inner loop.
    """

    order: FracOrder
    n_samples: int
    t_min: float
    dt: float
    potential: PotentialMatrix
    nonlinearity: Nonlinearity
    lam: float
    constants: EmbeddingConstants
    times: np.ndarray = field(init=False, repr=False)
    matrix_entries: np.ndarray = field(init=False, repr=False)
    kinetic: np.ndarray = field(init=False, repr=False)
    precond: np.ndarray = field(init=False, repr=False)
    scaling: np.ndarray = field(init=False, repr=False)
    free: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        times = self.t_min + self.dt * np.arange(self.n_samples)
        kinetic, _ = half_spectrum(self.n_samples, self.dt, self.order)
        matrix = self.potential.matrix_at(times)
        arrays = {
            "times": times,
            "matrix_entries": np.ascontiguousarray(matrix.transpose(1, 2, 0)),
            # the multiplier repeated over the n columns
            "kinetic": np.repeat(kinetic[:, None], self.n_components, axis=1),
        }
        for name, value in arrays.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        self._set_scaling()

    def _set_scaling(self):
        """The preconditioner's ``lam``-dependent parts, for the current ``lam``.

        ``scaling`` is ``D^(-1/2)``, ``(N, n)``: ``s = (pi / (2 dt))^(2a)`` is
        ``|w|^(2a)`` at half the Nyquist frequency, the median of the
        half-spectrum multipliers, and the wall ``lam L`` takes over the
        diagonal where it exceeds that kinetic scale.  ``precond`` is the
        half-spectrum kinetic block ``1 / (c + |w|^(2a))``, ``(N/2 + 1, n)``,
        with ``c`` = :meth:`shift`.  Construction, :meth:`with_lam` and
        :meth:`restricted` all pass here, so ``lam`` is checked here.
        """
        if not 0 < self.lam < np.inf:
            raise ValueError(f"weight lam must be positive and finite, got {self.lam}")
        s = (np.pi / (2.0 * self.dt)) ** self.order.doubled
        scaling = (1.0 + self.lam * self._diagonal() / s) ** -0.5
        precond = 1.0 / (self.shift() + self.kinetic)
        for name, value in (("scaling", scaling), ("precond", precond)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def _diagonal(self) -> np.ndarray:
        return np.ascontiguousarray(np.diagonal(self.matrix_entries))

    def shift(self) -> float:
        """Shift ``c = max(1, mean of lam diag L(t))`` of the kinetic block.

        The mean runs over the ``(N, n)`` entries the descent may move: all of
        them, or those in ``free``.  Where ``lam L`` fills most of the line
        the low-frequency Hessian ``|w|^(2a) + lam L - W''`` sits near ``c``,
        not near 1 (the shifted kinetic block of Antoine, Levitt and Tang,
        J. Comput. Phys. 2017); on the core, where ``L = 0``, ``c`` stays 1.
        """
        diag = self._diagonal()
        if self.free is not None:
            diag = diag[self.free]
        return max(1.0, self.lam * float(np.mean(diag)))

    @property
    def n_components(self) -> int:
        return self.potential.n_components

    @property
    def coercivity(self) -> float:
        """Coercivity constant ``A = ||xi||_(L^(2/(2-p))) / (p theta0^(p/2))``.

        ``I(u) >= r^2/2 - A r^p`` with ``r = ||u||_lam`` for lam at or above
        the embedding threshold (the chain runs through the L2 embedding
        bound); A itself does not depend on lam.
        """
        p = self.nonlinearity.p
        xi_norm = self.nonlinearity.xi_dual_norm(self.times, self.dt)
        return xi_norm / (p * self.constants.theta0 ** (p / 2.0))

    def with_lam(self, lam: float) -> "Problem":
        """The same grid, data and ``free`` at another weight, sharing every array but the scaling."""
        other = copy.copy(self)
        object.__setattr__(other, "lam", lam)
        other._set_scaling()
        return other

    def restricted(self, interval: tuple[float, float]) -> "Problem":
        """The same problem on the signals that vanish outside the open ``interval``.

        Its ``free`` marks the samples strictly inside ``interval``, so the
        Dirichlet values are exact zeros by zero extension.  An interval that
        holds no sample raises :class:`ResolutionError`.
        """
        lo, hi = interval
        inside = (self.times > lo) & (self.times < hi)
        if not np.any(inside):
            raise ResolutionError(
                f"the interval {interval} holds no grid sample (dt = {self.dt:.6g}): "
                "the grid does not resolve it"
            )
        free = np.repeat(inside[:, None], self.n_components, axis=1)
        free.setflags(write=False)
        other = copy.copy(self)
        object.__setattr__(other, "free", free)
        other._set_scaling()
        return other

    def form(self, x: np.ndarray, y: np.ndarray) -> float:
        """Bilinear form of ``||.||_lam^2``: the L2(dt) pairing of ``x`` with :meth:`apply` of ``y``."""
        return float(self.dt * np.sum(x * self.apply(y)))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The operator of ``||.||_lam^2``: ``|w|^(2a) x + lam L x``."""
        principal = np.fft.irfft(self.kinetic * np.fft.rfft(x, axis=0), self.n_samples, axis=0)
        weighted = np.empty_like(x)
        for i, row in enumerate(self.matrix_entries):
            column = row[0] * x[:, 0]
            for j in range(1, len(row)):
                column += row[j] * x[:, j]
            weighted[:, i] = column
        weighted *= self.lam
        weighted += principal
        return weighted

    def precondition(self, x: np.ndarray) -> np.ndarray:
        """``D^(-1/2) (c + |w|^(2a))^(-1) D^(-1/2) x``, projected: symmetric positive in L2(dt)."""
        d = self.scaling
        out = np.fft.irfft(self.precond * np.fft.rfft(d * x, axis=0), self.n_samples, axis=0)
        out *= d
        return self.project(out)

    def project(self, x: np.ndarray) -> np.ndarray:
        """``x`` with every sample outside ``free`` set to 0 (``x`` itself on the whole line)."""
        if self.free is None:
            return x
        return np.where(self.free, x, 0.0)

    def energy(self, vals: np.ndarray) -> float:
        """``I`` at raw samples, or ``+inf`` where it is not finite, so no such step is accepted."""
        w = self.nonlinearity.density(self.times, vals)
        f = 0.5 * self.form(vals, vals) - float(self.dt * np.sum(w))
        return f if np.isfinite(f) else np.inf

    def grad(self, vals: np.ndarray) -> np.ndarray:
        """The projected L2 representer of the first variation at raw samples."""
        grad_w = self.nonlinearity.gradient(self.times, vals)
        out = self.apply(vals)
        out -= grad_w
        return self.project(out)

    def hessian(self, vals: np.ndarray):
        """The projected Hessian action at ``vals``, with the coefficients of ``W''`` formed once."""
        f, g = self.nonlinearity.hessian_at(self.times, vals)
        f = np.repeat(f[:, None], vals.shape[1], axis=1)
        gu = g[:, None] * vals

        def action(v: np.ndarray) -> np.ndarray:
            uv = pointwise_dot(vals, v)
            curvature = f * v
            for i in range(v.shape[1]):
                curvature[:, i] += uv * gu[:, i]
            out = self.apply(v)
            out -= curvature
            return self.project(out)

        return action

    def check_signal(self, u: SampledSignal):
        if u.n_samples != self.n_samples or u.t_min != self.t_min or u.dt != self.dt:
            raise ValueError("signal grid does not match the problem grid")
        if u.n_components != self.n_components:
            raise ValueError(
                f"signal has {u.n_components} components, problem has {self.n_components}"
            )


def default_problem(
    lam: float | None = None,
    alpha: float = 0.75,
    n_samples: int = 4096,
    domain: float = 32.0,
    potential: PotentialMatrix | None = None,
    nonlinearity: Nonlinearity | None = None,
) -> Problem:
    """Assemble the default desk-scale scenario.

    Grid: one period of length ``domain`` sampled at midpoints (the first
    sample sits half a cell above -domain/2), so that the core endpoints fall
    between samples and the degenerate set of the matrix coincides with the
    interior of the core at grid resolution.  ``lam`` defaults to 10x the
    embedding threshold.
    """
    t_min, dt = midpoint_grid(n_samples, domain)
    order = FracOrder(alpha)
    pot = potential if potential is not None else vanishing_well_potential()
    nl = nonlinearity if nonlinearity is not None else power_nonlinearity(core=pot.core)
    constants = compute_embedding_constants(pot, order, n_samples, t_min, dt)
    if lam is None:
        lam = 10.0 * constants.lambda_threshold
    return Problem(order, n_samples, t_min, dt, pot, nl, lam, constants)


def evaluate_energy(u: SampledSignal, prob: Problem) -> float:
    """I(u) = 1/2 ||u||_lam^2 - int W(t, u) dt, which is :meth:`Problem.energy` of ``u``.

    A density that is not finite raises, naming the first such time.
    """
    prob.check_signal(u)
    f = prob.energy(u.values)
    if f == np.inf:
        bad = ~np.isfinite(prob.nonlinearity.density(prob.times, u.values))
        if np.any(bad):
            raise ValueError(
                f"nonlinear density is not finite at t = {prob.times[np.argmax(bad)]:.6g}"
            )
    return f


def directional_derivative(u: SampledSignal, phi: SampledSignal, prob: Problem) -> float:
    """First variation of the energy at u in direction phi: ``form(u, phi) - int grad W . phi``.

    The form pairs ``u`` with :meth:`Problem.apply` of ``phi``, whose kinetic
    part is the multiplier ``|w|^(2a)``: on the grid that equals the
    time-domain pairing of the one-sided derivatives.
    """
    prob.check_signal(u)
    if not u.same_grid(phi):
        raise ValueError("u and phi live on different grids")
    grad_w = prob.nonlinearity.gradient(prob.times, u.values)
    return prob.form(u.values, phi.values) - float(u.dt * np.sum(grad_w * phi.values))


def gradient(u: SampledSignal, prob: Problem) -> SampledSignal:
    """L2-Riesz representer of the first variation.

    g = (left-right composition of the derivative) u + lam L(t) u - grad W, so
    that the directional derivative equals int (g, phi) dt for every phi: it is
    :meth:`Problem.grad` of ``u``.  A non-finite gradient raises, naming its
    time, as every :class:`~frachs.grid.SampledSignal` does.
    """
    prob.check_signal(u)
    return u.with_values(prob.grad(u.values))


def lower_bound(u: SampledSignal, prob: Problem) -> float:
    """Coercivity bound: I(u) >= r^2/2 - A r^p with r = ||u||_lam, A = ``prob.coercivity``."""
    if prob.lam < prob.constants.lambda_threshold:
        raise ValueError(
            f"the bound needs lam >= {prob.constants.lambda_threshold:.6g}, "
            f"got {prob.lam:.6g}"
        )
    prob.check_signal(u)
    r = np.sqrt(prob.form(u.values, u.values))
    return float(0.5 * r**2 - prob.coercivity * r**prob.nonlinearity.p)


def lower_bound_minimum(prob: Problem) -> tuple[float, float]:
    """Global minimum of the scalar bound r^2/2 - A r^p over r >= 0.

    Returns (r_star, value) with r_star = (p A)^(1/(2-p)) and
    value = (1/2 - 1/p) r_star^2 < 0.
    """
    p = prob.nonlinearity.p
    coeff = prob.coercivity
    if coeff == 0.0:
        return 0.0, 0.0
    r_star = (p * coeff) ** (1.0 / (2.0 - p))
    return float(r_star), float((0.5 - 1.0 / p) * r_star**2)


def smooth_bump(times: np.ndarray, interval: tuple[float, float]) -> np.ndarray:
    """Canonical C-infinity bump on an interval, normalized to unit grid peak."""
    lo, hi = interval
    center, radius = 0.5 * (lo + hi), 0.5 * (hi - lo)
    s = (times - center) / radius
    out = np.zeros_like(times)
    inside = np.abs(s) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    peak = np.max(out)
    if peak > 0:
        out /= peak
    return out


def negative_energy_witness(prob: Problem) -> tuple[SampledSignal, float]:
    """Bump supported in the core and a scale s with I(s * bump) < 0.

    The bump has unit sup norm, vanishes outside the open core (so its
    weighted term is zero and the witness energy is independent of lam), and
    s starts from the closed-form estimate

        s <= (2 eta int |u0|^nu dt / ||u0||_lam^2)^(1/(2-nu)),

    halving until the evaluated energy is negative.  Failure down to 1e-8
    signals that the W2 lower bound does not hold numerically; a core that
    holds no grid sample raises :class:`ResolutionError`.
    """
    nl = prob.nonlinearity
    values = np.zeros((prob.n_samples, prob.n_components))
    values[:, 0] = smooth_bump(prob.times, prob.potential.core)
    if not np.any(values):
        raise ResolutionError(
            f"the core {prob.potential.core} holds no grid sample (dt = {prob.dt:.6g}): "
            "the grid does not resolve the core"
        )
    u0 = SampledSignal(prob.t_min, prob.dt, values)
    norm_sq = prob.form(u0.values, u0.values)
    mass_nu = float(prob.dt * np.sum(u0.magnitude() ** nl.nu))
    s_est = (2.0 * nl.eta * mass_nu / norm_sq) ** (1.0 / (2.0 - nl.nu))
    s = min(0.5 * nl.delta, 0.5 * s_est)
    while s >= 1e-8:
        scaled = u0.with_values(s * u0.values)
        if evaluate_energy(scaled, prob) < 0.0:
            return u0, float(s)
        s *= 0.5
    raise WitnessError(
        "no scale below delta makes the bump energy negative "
        "(hypothesis W2 violated numerically)"
    )
