"""The weighted energy functional, its gradient and the Lemma-style bounds.

For a problem instance with weight lam the functional is

    I(u) = 1/2 ||u||_lam^2 - int W(t, u(t)) dt,

whose critical points are the weak solutions of the underlying system.
``Problem`` owns the one discrete operator of ``||u||_lam^2``, built once on
the real-FFT half-spectrum and used by the solver as well.  The restricted
problem on an interval is a ``Problem`` on the window of samples inside it:
its operators are the window blocks of the whole line's, Toeplitz matrices
applied through a circulant of about twice the window's length, not N.  The module
provides its evaluation, the directional derivative, the L2-Riesz
gradient representer (the descent field used by the solver), the closed-form
coercivity lower bound (its constant is ``Problem.coercivity``), and the
construction of a small-amplitude bump with strictly negative energy (the
start point that keeps descent away from the trivial critical point u = 0),
laid along the soft axis of the wall next to the core.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fracops import half_spectrum
from .grid import FracOrder, SampledSignal, midpoint_grid, pointwise_dot
from .nonlinearity import Nonlinearity, power_nonlinearity
from .spaces import (
    EmbeddingConstants,
    PotentialMatrix,
    ResolutionError,
    _smallest_eigenvector,
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


class _Scratch:
    """The intermediates of the ``Problem._*_into`` kernels on one ``(m, n)`` grid.

    A kernel writes its result into the ``out`` array it is given and every
    intermediate into these arrays, so repeated calls allocate nothing.  The
    spectrum has the ``n_fft // 2 + 1`` bins of the problem's transform
    length.  The per-component ``column`` and ``product`` are only used while
    no spectrum is live, so they are views into ``spectrum``'s memory (it
    holds ``(n_fft + 2) n >= 2m`` floats for ``n >= 2``, and ``product`` is
    used only for ``n >= 2``).  The arrays only some kernels use (``term``,
    ``padded``) are allocated on first use, so one call of
    :meth:`Problem.apply` allocates no more than it needs but the one window-sized
    spectrum of ``free``, the whole line's scratch of ``Problem.free``; the whole
    line never allocates ``padded``.  The owner of a ``_Scratch`` (one descent, or
    one public kernel call) is its only user: ``Problem`` holds none and is immutable.
    """

    def __init__(self, n_samples: int, n_components: int, n_fft: int, free: "Problem | None"):
        self.shape = (n_samples, n_components)
        self.n_fft = n_fft
        self.spectrum = np.empty((n_fft // 2 + 1, n_components), dtype=complex)
        flat = self.spectrum.reshape(-1).view(float)
        self.column = flat[:n_samples]
        self.product = flat[n_samples : 2 * n_samples]
        self.free = None if free is None else free._scratch()

    @cached_property
    def term(self) -> np.ndarray:
        """The curvature, the energy's pairing, or a block the whole line's preconditioner adds."""
        return np.empty(self.shape)

    @cached_property
    def padded(self) -> np.ndarray:
        """A window's inverse transform, whose first ``m`` rows are the result."""
        return np.empty((self.n_fft, self.shape[1]))


@dataclass(frozen=True)
class Problem:
    """Discretized problem instance: order, grid, weights and nonlinearity.

    Grid arrays (times, matrix entries) and the half-spectrum multiplier
    are evaluated once at construction and shared read-only by all
    evaluations.  The one discrete operator of the problem acts on raw
    ``(N, n)`` sample arrays: :meth:`apply` is ``|w|^(2a) + lam L(t)``,
    :meth:`form`, the bilinear form of ``||.||_lam^2``, is its L2(dt) pairing
    ``dt sum(x * apply(y))``, so the energy, its gradient and every norm go
    through ``apply``, and :meth:`precondition` sums the inverses of its
    kinetic block shifted to the potential level ``c`` (:meth:`shift`) and of
    that block on the window ``free`` of the samples where ``diag L(t) = 0``.
    :meth:`energy`, :meth:`grad` and :meth:`hessian` are the functional ``I``
    and its derivatives on the same arrays, as the solver descends them.
    The restricted (Dirichlet) problem is the same functional on the signals
    that vanish outside an interval.  :meth:`restricted` returns it as a
    ``Problem`` on the window of ``m`` samples strictly inside the interval,
    every one of them free: its operators are the window blocks of the whole
    line's, Toeplitz matrices applied through a circulant of length
    ``n_fft``, and :meth:`extend` puts its samples back on the whole line
    with exact zeros outside.  On the whole line ``n_fft = N``.
    Layout rule: component-axis sums go through
    :func:`~frachs.grid.pointwise_dot` or per-component columns, and
    coefficient arrays are kept at the full ``(., n)`` shape
    (``matrix_entries[i, j]`` is the contiguous curve ``L_ij(t)``): on
    C-ordered ``(N, n)`` arrays, short-axis reductions and column broadcasts
    cost several times the same arithmetic.
    Allocation rule: each kernel has a private in-place form (``_apply_into``,
    ``_precondition_into``, ``_grad_into``, ``_hessian_into``, ``_energy``)
    that writes its result into a given ``out`` array and every intermediate
    into a :class:`_Scratch`.  The solver allocates those arrays once per
    descent (``solver._Work``), so a CG iteration allocates no ``(N, n)``
    array; the public methods pass a fresh output and scratch per call, so
    they return fresh arrays.  ``Problem`` holds only read-only arrays: it
    stays immutable and safe to share between threads.
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
    n_fft: int = field(init=False, repr=False)
    # a window's whole-line problem (its weight-free arrays), its rows there and the
    # integral of W(t, 0) outside them; the line's window over the hull of diag L(t) = 0
    line: Problem | None = field(default=None, init=False, repr=False)
    rows: slice | None = field(default=None, init=False, repr=False)
    outside: float = field(default=0.0, init=False, repr=False)
    free: Problem | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        times = self.t_min + self.dt * np.arange(self.n_samples)
        kinetic, _ = half_spectrum(self.n_samples, self.dt, self.order)
        kinetic = np.repeat(kinetic[:, None], self.n_components, axis=1)  # over the n columns
        matrix = self.potential.matrix_at(times)
        arrays = {
            "times": times,
            "matrix_entries": np.ascontiguousarray(matrix.transpose(1, 2, 0)),
            "kinetic": kinetic,
        }
        for name, value in arrays.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "n_fft", self.n_samples)
        self._set_preconditioner()
        free = np.flatnonzero(np.all(self._diagonal() == 0.0, axis=1))
        object.__setattr__(self, "free", self._window(free) if free.size else None)

    def _set_preconditioner(self):
        """Set ``precond``, the symbol of ``1 / (c + |w|^(2a))`` on this grid's circulant.

        Construction, :meth:`with_lam` and :meth:`restricted` all pass here, so
        ``lam`` is checked here.
        """
        if not 0 < self.lam < np.inf:
            raise ValueError(f"weight lam must be positive and finite, got {self.lam}")
        precond = self._window_symbol(1.0 / (self.shift() + (self.line or self).kinetic))
        object.__setattr__(self, "precond", precond)

    def _window_symbol(self, symbol: np.ndarray) -> np.ndarray:
        """A symbol on the whole line's ``rfft`` bins as the symbol of this grid's circulant.

        On the whole line, and on a window with ``n_fft = N``, that is
        ``symbol`` itself.  Otherwise the window block of the whole-line
        circulant is the symmetric Toeplitz matrix of the kernel
        ``irfft(symbol)`` at the lags ``0 .. m-1``.  Laid out at the lags
        ``+-k`` of a circulant of length ``n_fft >= 2m - 1``, that kernel acts on
        a zero-padded window exactly as the block does (Chan and Jin, *An
        Introduction to Iterative Toeplitz Solvers*, SIAM 2007); its symbol is
        real.  The kernel's rounding is of the order of its largest entry, so
        where the symbol is small (``|w|^(2a)`` at low frequencies) the window
        symbol keeps fewer digits than the whole line's: at N = 8192 the
        energy of the core's minimizer agrees with the whole line's to 3e-13.  It is read-only.
        """
        line = self.line or self
        if self.n_fft != line.n_samples:
            m, n_fft = self.n_samples, self.n_fft
            kernel = np.fft.irfft(symbol[:, 0], line.n_samples)[:m]
            column = np.zeros(n_fft)
            column[:m] = kernel
            column[n_fft - m + 1 :] = kernel[:0:-1]
            symbol = np.repeat(np.fft.rfft(column).real[:, None], self.n_components, axis=1)
        symbol.setflags(write=False)
        return symbol

    def _diagonal(self) -> np.ndarray:
        return np.ascontiguousarray(np.diagonal(self.matrix_entries))

    def shift(self) -> float:
        """Shift ``c = max(1, mean of lam diag L(t))`` of the kinetic block.

        The mean runs over the ``(m, n)`` entries the descent may move: the
        whole line, or a window.  Where ``lam L`` fills most of the line
        the low-frequency Hessian ``|w|^(2a) + lam L - W''`` sits near ``c``,
        not near 1 (the shifted kinetic block of Antoine, Levitt and Tang,
        J. Comput. Phys. 2017); on the core, where ``L = 0``, ``c`` stays 1.
        """
        return max(1.0, self.lam * float(np.mean(self._diagonal())))

    @property
    def n_components(self) -> int:
        return self.potential.n_components

    @property
    def coercivity(self) -> float:
        """Coercivity constant ``A = ||xi||_(L^(2/(2-p))) / (p theta0^(p/2))``.

        ``I(u) >= r^2/2 - A r^p`` with ``r = ||u||_lam`` for lam at or above
        the embedding threshold (the chain runs through the L2 embedding
        bound); A itself does not depend on lam.  A window keeps the whole
        line's: ``xi`` is normed over all N samples.
        """
        p = self.nonlinearity.p
        xi_norm = self.nonlinearity.xi_dual_norm((self.line or self).times, self.dt)
        return xi_norm / (p * self.constants.theta0 ** (p / 2.0))

    def with_lam(self, lam: float) -> "Problem":
        """The same grid, data and windows at another weight; the arrays built from ``lam`` are rebuilt."""
        other = copy.copy(self)
        object.__setattr__(other, "lam", lam)
        other._set_preconditioner()
        object.__setattr__(other, "free", other.free and other.free.with_lam(lam))
        return other

    def restricted(self, interval: tuple[float, float]) -> "Problem":
        """The same problem on the signals that vanish outside the open ``interval``, its core.

        It lives on the window of the ``m`` samples strictly inside
        ``interval`` (``rows`` of this grid), all free, and :meth:`extend`
        zero-extends its samples, so the Dirichlet values are exact zeros.
        Its ``kinetic`` and ``precond`` are the symbols of the window blocks on
        a circulant of length ``n_fft``: the smallest power of two
        ``>= 2m - 1``, or N when that is not smaller; it has no ``free``.  Its
        energy keeps the integral of ``W(t, 0)`` over the samples outside as
        the constant ``outside``, and its coercivity floor is the whole line's.
        It must be cut from the whole line; a core that holds no sample raises
        :class:`ResolutionError`.
        """
        if self.line is not None:
            raise ValueError("restrict the whole-line problem, not a window")
        lo, hi = interval
        inside = np.flatnonzero((self.times > lo) & (self.times < hi))
        if inside.size == 0:
            raise ResolutionError(
                f"the core {interval} holds no grid sample (dt = {self.dt:.6g}): "
                "the grid does not resolve the core"
            )
        return self._window(inside)

    def _window(self, inside: np.ndarray) -> "Problem":
        """The window of the rows ``inside[0] .. inside[-1]`` (:meth:`restricted`, and ``free``)."""
        rows = slice(int(inside[0]), int(inside[-1]) + 1)
        m = rows.stop - rows.start
        zeros = np.zeros((self.n_samples - m, self.n_components))
        outside = self.nonlinearity.density(np.delete(self.times, rows), zeros)
        window = copy.copy(self)
        for name, value in (
            ("n_samples", m),
            ("t_min", float(self.times[rows.start])),
            ("times", self.times[rows]),
            ("matrix_entries", self.matrix_entries[:, :, rows]),
            ("n_fft", min(self.n_samples, 1 << (2 * m - 2).bit_length())),
            ("line", self),
            ("rows", rows),
            ("outside", float(self.dt * np.sum(outside))),
            ("free", None),
        ):
            object.__setattr__(window, name, value)
        object.__setattr__(window, "kinetic", window._window_symbol(self.kinetic))
        window._set_preconditioner()
        return window

    def extend(self, vals: np.ndarray) -> SampledSignal:
        """Samples of this grid as a signal on the whole line: a window's, zero outside it."""
        if self.line is None:
            return SampledSignal(self.t_min, self.dt, vals)
        full = np.zeros((self.line.n_samples, self.n_components))
        full[self.rows] = vals
        return SampledSignal(self.line.t_min, self.dt, full)

    def form(self, x: np.ndarray, y: np.ndarray) -> float:
        """Bilinear form of ``||.||_lam^2``: the L2(dt) pairing of ``x`` with :meth:`apply` of ``y``."""
        return float(self.dt * np.sum(x * self.apply(y)))

    def _scratch(self) -> "_Scratch":
        return _Scratch(self.n_samples, self.n_components, self.n_fft, self.free)

    def _convolve_into(self, symbol, x, out, work: "_Scratch") -> np.ndarray:
        """The circulant of ``symbol`` on ``x``: on a window, the first rows of its
        product with ``x`` zero-padded to ``n_fft`` (``rfft`` pads)."""
        spectrum = np.fft.rfft(x, self.n_fft, axis=0, out=work.spectrum)
        np.multiply(symbol, spectrum, out=spectrum)
        if self.n_fft == self.n_samples:
            return np.fft.irfft(spectrum, self.n_fft, axis=0, out=out)
        padded = np.fft.irfft(spectrum, self.n_fft, axis=0, out=work.padded)
        np.copyto(out, padded[: self.n_samples])
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The operator of ``||.||_lam^2``: ``|w|^(2a) x + lam L x``."""
        return self._apply_into(x, np.empty_like(x), self._scratch())

    def _apply_into(self, x: np.ndarray, out: np.ndarray, work: "_Scratch") -> np.ndarray:
        self._convolve_into(self.kinetic, x, out, work)
        column, product = work.column, work.product
        for i, row in enumerate(self.matrix_entries):
            np.multiply(row[0], x[:, 0], out=column)
            for j in range(1, len(row)):
                column += np.multiply(row[j], x[:, j], out=product)
            column *= self.lam
            out[:, i] += column
        return out

    def precondition(self, x: np.ndarray) -> np.ndarray:
        """``(c + |w|^(2a))^(-1) x + R (1 + |w|^(2a))^(-1) R x``, ``R`` the rows of ``free``.

        Two-region additive Schwarz (Smith, Bjorstad and Gropp, *Domain Decomposition*,
        1996): an SPD plus a PSD term, so symmetric positive definite in L2(dt).
        The second term is ``free``'s own block; a window has only the first.
        """
        return self._precondition_into(x, np.empty_like(x), self._scratch())

    def _precondition_into(self, x: np.ndarray, out: np.ndarray, work: "_Scratch") -> np.ndarray:
        self._convolve_into(self.precond, x, out, work)
        if self.free is not None:
            rows = self.free.rows
            out[rows] += self.free._precondition_into(x[rows], work.free.term, work.free)
        return out

    def energy(self, vals: np.ndarray) -> float:
        """``I`` at raw samples, or ``+inf`` where it is not finite, so no such step is accepted."""
        return self._energy(vals, self._scratch())

    def _energy(self, vals: np.ndarray, work: "_Scratch") -> float:
        w = self.nonlinearity.density(self.times, vals)
        paired = self._apply_into(vals, work.term, work)
        paired *= vals
        f = 0.5 * float(self.dt * np.sum(paired)) - float(self.dt * np.sum(w)) - self.outside
        return f if np.isfinite(f) else np.inf

    def grad(self, vals: np.ndarray) -> np.ndarray:
        """The L2 representer of the first variation at raw samples."""
        return self._grad_into(vals, np.empty_like(vals), self._scratch())

    def _grad_into(self, vals: np.ndarray, out: np.ndarray, work: "_Scratch") -> np.ndarray:
        grad_w = self.nonlinearity.gradient(self.times, vals)
        self._apply_into(vals, out, work)
        out -= grad_w
        return out

    def hessian(self, vals: np.ndarray):
        """The Hessian action at ``vals``, with the coefficients of ``W''`` formed once."""
        action = self._hessian_into(vals)
        return lambda v: action(v, np.empty_like(v), self._scratch())

    def _hessian_into(self, vals: np.ndarray):
        f, g = self.nonlinearity.hessian_at(self.times, vals)
        f = np.repeat(f[:, None], vals.shape[1], axis=1)
        gu = g[:, None] * vals

        def action(v: np.ndarray, out: np.ndarray, work: "_Scratch") -> np.ndarray:
            uv = pointwise_dot(vals, v)
            curvature = np.multiply(f, v, out=work.term)
            for i in range(v.shape[1]):
                curvature[:, i] += np.multiply(uv, gu[:, i], out=work.column)
            self._apply_into(v, out, work)
            out -= curvature
            return out

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
    prob.constants.require(prob.lam, "the coercivity bound")
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
    points along the soft axis of the wall: the unit eigenvector of the
    smallest eigenvalue of ``L`` summed over the first grid sample outside
    each end of the core (:func:`~frachs.spaces._smallest_eigenvector`; ``e1``
    where ``L`` is isotropic there, so for one component the bump itself).
    There the tails of a minimizer first meet the wall, and a descent started
    off that axis spends its first Newton steps turning onto it.  ``prob`` is
    the whole line or the core's window, and s is searched on its samples
    (the bump is returned on the whole line) from the closed-form estimate

        s <= (2 eta int |u0|^nu dt / ||u0||_lam^2)^(1/(2-nu)),

    halving until the evaluated energy is negative.  Failure down to 1e-8
    signals that the W2 lower bound does not hold numerically; a core that
    holds no grid sample raises :class:`ResolutionError`.
    """
    nl, line = prob.nonlinearity, prob.line or prob
    lo, hi = prob.potential.core
    below = np.searchsorted(line.times, lo, side="right") - 1  # the last t <= lo
    above = np.searchsorted(line.times, hi, side="left")  # the first t >= hi
    ends = np.clip([below, above], 0, line.n_samples - 1)
    wall = line.matrix_entries[:, :, ends].sum(axis=2)
    axis = _smallest_eigenvector(wall[None])[0]
    values = np.outer(smooth_bump(prob.times, prob.potential.core), axis) + 0.0  # no -0.0
    if not np.any(values):
        raise ResolutionError(
            f"the core {prob.potential.core} holds no grid sample (dt = {prob.dt:.6g}): "
            "the grid does not resolve the core"
        )
    norm_sq = prob.form(values, values)
    mass_nu = float(prob.dt * np.sum(np.sqrt(pointwise_dot(values, values)) ** nl.nu))
    s_est = (2.0 * nl.eta * mass_nu / norm_sq) ** (1.0 / (2.0 - nl.nu))
    s = min(0.5 * nl.delta, 0.5 * s_est)
    while s >= 1e-8:
        if prob.energy(s * values) < 0.0:
            return prob.extend(values), float(s)
        s *= 0.5
    raise WitnessError(
        "no scale below delta makes the bump energy negative "
        "(hypothesis W2 violated numerically)"
    )
