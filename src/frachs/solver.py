"""Monotone descent to the nontrivial minimizer, the restricted Dirichlet
problem, and the weight-sweep harness that exhibits concentration.

The descent acts on one ``Problem`` through its raw-array ``energy``,
``grad``, ``hessian`` and ``precondition``; the restricted problem is the
same functional on the core's window ``Problem.restricted(core)``, whose
transforms are about twice the core's length, and its solution is
zero-extended onto the whole line.  The minimizer runs truncated Newton-CG from
the first iterate: conjugate gradients on the true Hessian action, stopped at
negative curvature, then Armijo backtracking in the L2(dt) inner product
along that one direction; when the line search rejects it, the descent stops
(negative curvature at the first CG iteration already yields the
preconditioned steepest-descent direction ``precondition(-g)``).  The pointwise
coefficients of ``W''(u)`` (``Nonlinearity.hessian_at``) are formed once per
Newton step, so a CG iteration costs one ``Problem.apply`` and a few array
products, all written into work arrays allocated once per descent
(:class:`_Work`).  CG is preconditioned by ``Problem.precondition``, the two-region
additive Schwarz inverse built from the operator's own blocks: the kinetic
block ``c + |w|^(2a)`` on the whole line, its shift ``c = Problem.shift``
lifting it to the mean wall level over the samples the descent may move,
where the low-frequency Hessian sits, plus that block on the window
``Problem.free`` where ``L`` vanishes (``c = 1``); both are built once per
problem, and a window has only its own.  The Newton forcing term is
``min(0.5, |g|)``, so the inner solves tighten quadratically near the
minimizer.  The line search accepts only steps that strictly lower the
energy, and every iterate is checked against the closed-form coercivity
floor; dropping below it signals a gradient bug and raises.  Every result
names why the descent stopped: ``grad_tol``, ``max_iters`` or
``no_descent``, and carries the energy of its last accepted iterate.

The line search (``ARMIJO``, ``SHRINK``) and the CG cap (``MAX_CG``) are fixed
constants; ``SolverConfig`` holds only ``max_iters`` and ``grad_tol``.

Descent starts from the negative-energy witness
(:func:`~frachs.energy.negative_energy_witness`), never from 0 (the sweep
from the restricted solution, whose energy is ``c_tilde``): the energy is
negative from the first iterate on, so the trivial critical point u = 0 is
unreachable, and every unflagged sweep row has ``c_lambda <= c_tilde <=
I(witness) < 0``.  A problem without a witness has no such start; its
:class:`~frachs.energy.WitnessError` propagates, and nothing is solved.
The witness lies along the soft axis of the wall just outside the core (the
eigenvector of the smallest eigenvalue of ``L`` there), which the tails of a
multi-component minimizer follow, so ``minimize`` and ``solve_bvp`` start on
it and the sweep inherits it from ``u_tilde``; for one component the axis is
trivial and the start is the scalar bump.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .energy import Problem, lower_bound_minimum, negative_energy_witness
from .grid import SampledSignal, pointwise_dot
from .spaces import WeightError, h_alpha_norm

__all__ = [
    "SolverConfig",
    "SolveResult",
    "SweepRow",
    "SweepReport",
    "DivergenceError",
    "minimize",
    "solve_bvp",
    "concentration_sweep",
    "uniform_bound_constant",
]

ARMIJO = 1e-4  # sufficient-decrease fraction of the backtracking line search
SHRINK = 0.5  # step factor per backtrack
MAX_CG = 250  # CG iterations per Newton step


class DivergenceError(RuntimeError):
    """An iterate fell below the coercivity floor: the gradient is inconsistent."""


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 5000
    grad_tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters <= 0 or self.grad_tol <= 0:
            raise ValueError("max_iters and grad_tol must be positive")


@dataclass(frozen=True)
class SolveResult:
    u: SampledSignal
    energy: float
    grad_norm: float
    grad_norm_weighted: float
    iterations: int
    converged: bool
    history: tuple[tuple[float, float], ...] = field(repr=False)
    # "grad_tol" (converged), "max_iters", or "no_descent" (the line search
    # found no step that strictly lowers the energy)
    stop_reason: str


class _Work:
    """The arrays one descent writes, allocated once per descent.

    ``vals`` and ``cand`` hold the iterate and the line search's candidate
    (they swap on every accepted step), ``g`` the gradient, ``d``, ``r``,
    ``z``, ``p`` and ``hp`` the CG vectors, and ``kernels`` the
    intermediates of the ``Problem`` kernels.  Outside the line search
    ``cand`` is free, and it holds the products of the inner products and
    the CG updates.
    """

    def __init__(self, prob: Problem, start_vals: np.ndarray):
        self.vals = np.array(start_vals, dtype=float)
        self.cand, self.g, self.d, self.r, self.z, self.p, self.hp = (
            np.empty_like(self.vals) for _ in range(7)
        )
        self.kernels = prob._scratch()


def _inner(prob: Problem, x: np.ndarray, y: np.ndarray, tmp: np.ndarray) -> float:
    return float(prob.dt * np.sum(np.multiply(x, y, out=tmp)))


def _norm(prob: Problem, x: np.ndarray, tmp: np.ndarray) -> float:
    return float(np.sqrt(prob.dt * np.sum(np.square(x, out=tmp))))


def _check_floor(energy: float, floor: float):
    if energy < floor - 1e-9 * (1.0 + abs(floor)):
        raise DivergenceError(
            f"iterate energy {energy:.6e} fell below the coercivity floor "
            f"{floor:.6e}; the gradient is inconsistent with the energy"
        )


def _backtrack(prob, vals, f, g, d, cand, kernels):
    """Armijo backtracking from unit step, written into ``cand``; returns its energy or None.

    A step is accepted only if it strictly lowers the energy: once the slope
    is below the rounding of ``f`` the Armijo test alone reads ``f_new <= f``
    and would accept a step that leaves the energy unchanged.
    """
    slope = _inner(prob, g, d, cand)
    if slope >= 0.0:
        return None
    tau = 1.0
    while tau > 1e-20:
        np.multiply(tau, d, out=cand)
        cand += vals
        f_new = prob._energy(cand, kernels)
        if f_new < f and f_new <= f + ARMIJO * tau * slope:
            return f_new
        tau *= SHRINK
    return None


def _truncated_cg(prob, hess, g, rel_tol, work):
    """Approximately solve ``hess(d) = -g``, exiting on negative curvature.

    Returns ``work.d``, or ``work.z`` (the preconditioned steepest-descent
    direction) at negative curvature on the first iteration.  A nonpositive
    ``(r, z)`` means the preconditioner lost definiteness at rounding level;
    the current ``d`` is returned before it is divided by.
    """
    d, r, z, p, hp, tmp, kernels = work.d, work.r, work.z, work.p, work.hp, work.cand, work.kernels
    d.fill(0.0)
    np.negative(g, out=r)
    prob._precondition_into(r, z, kernels)
    np.copyto(p, z)
    rz = _inner(prob, r, z, tmp)
    r0 = _norm(prob, r, tmp)
    for i in range(MAX_CG):
        if rz <= 0.0:
            return d
        hess(p, hp, kernels)
        php = _inner(prob, p, hp, tmp)
        if php <= 1e-16 * _inner(prob, p, p, tmp):
            return (z if i == 0 else d)
        a = rz / php
        d += np.multiply(a, p, out=tmp)
        r -= np.multiply(a, hp, out=tmp)
        if _norm(prob, r, tmp) <= rel_tol * r0:
            return d
        prob._precondition_into(r, z, kernels)
        rz_new = _inner(prob, r, z, tmp)
        p *= rz_new / rz
        p += z
        rz = rz_new
    return d


def _descend(prob, cfg, start_vals) -> SolveResult:
    """Truncated Newton-CG from ``start_vals``; stops when the line search rejects the direction.

    On a :meth:`~frachs.energy.Problem.restricted` window the iterates live
    on the window, and the result's ``u`` is zero-extended onto the whole
    line.  Every array the loop writes is in one :class:`_Work`.
    """
    floor = lower_bound_minimum(prob)[1]
    work = _Work(prob, start_vals)
    f = prob._energy(work.vals, work.kernels)
    g = prob._grad_into(work.vals, work.g, work.kernels)
    _check_floor(f, floor)
    g_norm = _norm(prob, g, work.cand)
    history = [(f, g_norm)]
    steps = 0
    stop_reason = "max_iters"
    while steps < cfg.max_iters and g_norm > cfg.grad_tol:
        d = _truncated_cg(prob, prob._hessian_into(work.vals), g, min(0.5, g_norm), work)
        f_new = _backtrack(prob, work.vals, f, g, d, work.cand, work.kernels)
        if f_new is None:
            stop_reason = "no_descent"  # the Newton direction lowers the energy by no step
            break
        f = f_new
        work.vals, work.cand = work.cand, work.vals
        prob._grad_into(work.vals, g, work.kernels)
        _check_floor(f, floor)
        g_norm = _norm(prob, g, work.cand)
        steps += 1
        history.append((f, g_norm))
    converged = g_norm <= cfg.grad_tol
    applied = prob._apply_into(g, work.cand, work.kernels)
    return SolveResult(
        u=prob.extend(work.vals),
        energy=f,
        grad_norm=g_norm,
        grad_norm_weighted=float(np.sqrt(_inner(prob, g, applied, applied))),  # form(g, g)
        iterations=steps,
        converged=converged,
        history=tuple(history),
        stop_reason="grad_tol" if converged else stop_reason,
    )


def minimize(prob: Problem, cfg: SolverConfig, start: SampledSignal | None = None) -> SolveResult:
    """Descend the energy from the negative-energy witness (or a given start).

    Without a given start, a problem with no witness raises
    :class:`~frachs.energy.WitnessError`.  Requires the weight to be at or
    above the embedding threshold so the coercivity floor applies
    (:class:`~frachs.spaces.WeightError` otherwise).  The
    returned history is strictly decreasing in energy; ``converged`` means
    the L2 gradient norm reached ``grad_tol``.
    """
    prob.constants.require(prob.lam, "minimize")
    if start is None:
        u0, s = negative_energy_witness(prob)
        start_vals = s * u0.values
    else:
        prob.check_signal(start)
        start_vals = start.values
    return _descend(prob, cfg, start_vals)


def solve_bvp(prob: Problem, cfg: SolverConfig) -> SolveResult:
    """Minimize the functional restricted to signals vanishing outside the core.

    The core may sit anywhere inside the well.  The window problem
    ``prob.restricted(core)`` of the samples inside the open core is built
    once; the negative-energy witness is scaled on it (a problem with none
    raises :class:`~frachs.energy.WitnessError`) and one descent runs on it
    from there, with transforms of its circulant embedding's length, not N,
    and its one unshifted kinetic block as preconditioner.  The result is
    zero-extended, so the Dirichlet values outside the open core are exact
    zeros.  The weight must be at or above the threshold, as for :func:`minimize`.
    """
    prob.constants.require(prob.lam, "solve_bvp")
    window = prob.restricted(prob.potential.core)
    u0, s = negative_energy_witness(window)
    return _descend(window, cfg, s * u0.values[window.rows])


def uniform_bound_constant(prob: Problem) -> float:
    """Norm bound holding on the whole negative-energy sublevel set.

    The positive root of r^2/2 = A r^p (A = ``Problem.coercivity``) bounds
    ||u||_lam for every u with nonpositive energy; returned with a 1.05
    safety factor.  Degenerates to 0 when the gradient weight vanishes.
    """
    coeff = prob.coercivity
    if coeff == 0.0:
        warnings.warn("gradient weight xi is identically zero; the bound degenerates to 0")
        return 0.0
    root = (2.0 * coeff) ** (1.0 / (2.0 - prob.nonlinearity.p))
    return float(1.05 * root)


def _column(*outputs: str, name: str | None = None, init: bool = True):
    """A :class:`SweepRow` field that ``outputs`` ("csv", "json") carry, as ``name`` or its own."""
    return field(init=init, metadata={"outputs": outputs, "name": name})


@dataclass(frozen=True)
class SweepRow:
    """One rung of the sweep.

    Its fields are the one list the sweep's outputs are built from: in
    order, they are the CSV columns and the JSON row keys
    (:meth:`columns`), each written to the outputs it names.
    """

    lam: float = _column("csv", "json", name="lambda")
    c_lambda: float = _column("csv", "json")
    c_tilde: float = _column("csv")
    tail_mass: float = _column("csv", "json")
    weighted_mass: float = _column("csv", "json")
    dist_alpha: float = _column("csv", "json")
    norm_lambda: float = _column("csv", "json")
    converged: bool = _column("json")
    ordering_ok: bool = _column("json")
    bound_ok: bool = _column("json")
    stop_reason: str = _column()
    flagged: bool = _column("json", init=False)

    def __post_init__(self):
        flagged = not (self.converged and self.ordering_ok and self.bound_ok)
        object.__setattr__(self, "flagged", flagged)

    @classmethod
    def columns(cls, output: str) -> list[tuple[str, str]]:
        """``(name, attribute)`` of each field ``output`` ("csv" or "json") carries, in order."""
        return [
            (f.metadata["name"] or f.name, f.name)
            for f in fields(cls)
            if output in f.metadata["outputs"]
        ]


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]
    c_tilde: float
    norm_bound: float
    bvp: SolveResult = field(repr=False)
    solutions: tuple[SampledSignal, ...] = field(repr=False)

    @property
    def flagged(self) -> bool:
        return any(r.flagged for r in self.rows)


def _sweep_row(prob, result, u_tilde, c_tilde, bound) -> SweepRow:
    u = result.u
    a_lo, a_hi = prob.potential.well
    outside = (prob.times <= a_lo) | (prob.times >= a_hi)
    mag_sq = pointwise_dot(u.values, u.values)
    total = float(prob.dt * np.sum(mag_sq))
    tail = float(prob.dt * np.sum(mag_sq[outside])) / total if total > 0 else 0.0
    envelope = prob.potential.envelope_at(prob.times)
    weighted = float(prob.dt * np.sum(envelope * mag_sq))
    diff = u.with_values(u.values - u_tilde.values)
    norm_lam = float(np.sqrt(prob.form(u.values, u.values)))
    return SweepRow(
        lam=prob.lam,
        c_lambda=result.energy,
        c_tilde=c_tilde,
        tail_mass=tail,
        weighted_mass=weighted,
        dist_alpha=h_alpha_norm(diff, prob.order),
        norm_lambda=norm_lam,
        converged=result.converged,
        ordering_ok=result.energy <= c_tilde + 1e-12 * (1.0 + abs(c_tilde)),
        bound_ok=norm_lam <= bound,
        stop_reason=result.stop_reason,
    )


def concentration_sweep(prob: Problem, lambdas, cfg: SolverConfig) -> SweepReport:
    """Minimize along an ascending weight ladder and report concentration.

    The first weight descends from the restricted solution ``u_tilde``: it
    vanishes wherever ``L != 0``, so its energy is ``c_tilde`` at every
    weight, and strict decrease gives ``c_lambda <= c_tilde`` on that row by
    construction.  Every later weight starts from the solution before it,
    which tracks the branch towards ``u_tilde`` as ``lam`` grows; its
    ordering is checked and flagged, not repaired.  ``c_tilde`` is the
    whole-line energy of ``u_tilde``, the level the first row starts from;
    the window descent reached it up to rounding (``bvp.energy``).  It is at
    most the witness energy, which is negative;
    without a witness the restricted solve raises
    :class:`~frachs.energy.WitnessError` and no row is computed.  A ladder of
    fewer than 3 weights, out of order or starting below the threshold raises
    :class:`~frachs.spaces.WeightError` before any solve.
    """
    lambdas = [float(x) for x in lambdas]
    if len(lambdas) < 3 or any(b < a for a, b in zip(lambdas, lambdas[1:])):
        raise WeightError(f"the sweep needs at least 3 ascending weights, got {lambdas}")
    prob.constants.require(lambdas[0], "the sweep's lowest weight")

    bvp = solve_bvp(prob.with_lam(lambdas[0]), cfg)
    c_tilde = prob.energy(bvp.u.values)  # lam L u_tilde is exactly 0: the same bits at every weight
    bound = uniform_bound_constant(prob)

    start = bvp.u.values
    rows = []
    solutions = []
    for lam in lambdas:
        p = prob.with_lam(lam)
        result = _descend(p, cfg, start)
        rows.append(_sweep_row(p, result, bvp.u, c_tilde, bound))
        solutions.append(result.u)
        start = result.u.values
    return SweepReport(tuple(rows), c_tilde, bound, bvp, tuple(solutions))
