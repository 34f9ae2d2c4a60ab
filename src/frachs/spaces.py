"""Potential data, hypothesis checks and the embedding constants.

The problem data is a symmetric matrix potential with a scalar lower envelope
that vanishes exactly on a finite well, plus a threshold ``k`` whose sublevel
set ``{l < k}`` must be small enough for the sup-norm embedding to control the
weighted norms.  The sup-norm embedding constant ``C_alpha`` is the larger of
two closed forms, the whole-line constant and the sharp constant of the grid,
so the bound ``||u||_inf <= C_alpha ||u||_(H^a)`` holds for every grid signal
and in the continuum limit.  From ``C_alpha`` and the sublevel measure the
derived constants ``theta0`` (controls L^2 and L^r bounds) and
``lambda_threshold`` (the smallest weight for which those bounds hold) are
computed by closed formulas.

Every hypothesis check (L1-L3 here, W1-W2 in ``nonlinearity``, the embedding
inequalities) returns one :class:`CheckReport`: its ordered
:class:`CheckResult` entries, with failures reported as data, not raised.
Each check but L2-kernel is judged by one rule, :func:`judge`, from its
per-sample slack (at least 0 where the hypothesis holds): it passes when
every slack is at least ``-CHECK_RTOL = -1e-12`` times the magnitude of the
quantities that sample compares, so rounding at any scale is no failure; its
``worst_margin`` is the least slack and its ``location`` the first sample
that reaches it.  A least slack that is not finite, an overflow in the
sampling, raises :class:`BoundError` (exit 2 in the CLI) instead.  The grid
rules (the well's margin, :func:`core_rows`, ``l >= k`` at the grid's ends)
all run in :func:`verify_potential`, before it judges anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .fracops import half_spectrum, seminorm_alpha
from .grid import FracOrder, SampledSignal, l2_norm

if TYPE_CHECKING:  # energy imports this module
    from .energy import Problem

__all__ = [
    "PotentialMatrix",
    "EmbeddingConstants",
    "CheckResult",
    "CheckReport",
    "judge",
    "AdmissibilityError",
    "HypothesisError",
    "ResolutionError",
    "smooth_bump",
    "core_rows",
    "WeightError",
    "BoundError",
    "finite_bound",
    "vanishing_well_potential",
    "rotated_well_potential",
    "verify_potential",
    "measure_sublevel",
    "continuum_sobolev_constant",
    "grid_sobolev_constant",
    "sobolev_constant",
    "compute_embedding_constants",
    "lambda_norm",
    "h_alpha_norm",
    "embedding_bounds",
]


class AdmissibilityError(ValueError):
    """The sublevel set is too large for the embedding chain, or alpha <= 1/2 (hypothesis L1)."""


class HypothesisError(Exception):
    """The potential fails L1-L3 on the grid; the message names the failed checks."""


class ResolutionError(Exception):
    """The grid does not resolve or cover a set the problem needs (too coarse or too short)."""


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


def core_rows(times: np.ndarray, core: tuple[float, float]) -> slice:
    """The rows of the ascending grid ``times`` strictly inside the open ``core``; none, or none
    where :func:`smooth_bump` is positive, means the grid does not resolve it (:class:`ResolutionError`)."""
    start, stop = np.searchsorted(times, core[0], side="right"), np.searchsorted(times, core[1])
    if stop <= start:
        raise ResolutionError(f"the core {core} holds no grid sample (dt = {times[1] - times[0]:.6g}): "
                              "the grid does not resolve the core")
    if not np.any(smooth_bump(times[start:stop], core)):
        raise ResolutionError(f"the bump on the core {core} vanishes at every core sample "
                              f"(dt = {times[1] - times[0]:.6g}): the grid does not resolve the core")
    return slice(int(start), int(stop))


class WeightError(ValueError):
    """A weight, or a ladder of weights, that the embedding bounds do not cover."""


class BoundError(ValueError):
    """A coercivity bound or a check's least slack that is not a finite double."""


def finite_bound(what: str, compute: Callable[[], float]) -> float:
    """``compute()``, the rule for every coercivity bound: it must be a finite double.

    The bounds are ``A`` (``Problem.coercivity``), ``r* = (p A)^(1/(2-p))``,
    the descent's floor and the sweep's norm bound.  A result that is not
    finite, or a power that overflows on the way (numpy's without a warning,
    Python's ``**`` by its ``OverflowError``), raises :class:`BoundError`.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = float(compute())
    except OverflowError:
        value = np.inf
    if not np.isfinite(value):
        raise BoundError(f"{what} is {value}, not a finite double: xi_scale or p is too large")
    return value


@dataclass(frozen=True)
class PotentialMatrix:
    """Symmetric n x n matrix weight with scalar lower envelope.

    ``matrix(t)`` maps a time array (N,) to (N, n, n); ``envelope(t)`` to (N,).
    ``well`` is the open interval on which the envelope vanishes (closure =
    its zero set), ``core`` the subinterval on which the matrix itself is
    identically zero.  ``threshold`` is the sublevel cut k > 0.
    """

    n_components: int
    matrix: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    envelope: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    threshold: float
    well: tuple[float, float]
    core: tuple[float, float]

    def __post_init__(self):
        if self.threshold <= 0:
            raise ValueError("threshold k must be positive")
        a, b = self.well
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise ValueError(f"well must be a finite nonempty interval, got {self.well}")
        ia, ib = self.core
        if not (a <= ia < ib <= b):
            raise ValueError(f"core {self.core} must be contained in the well {self.well}")

    def matrix_at(self, t: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.matrix(np.asarray(t, dtype=float)))
        n = self.n_components
        if vals.shape != (len(t), n, n):
            raise ValueError(f"matrix callable returned shape {vals.shape}, expected {(len(t), n, n)}")
        return vals

    def envelope_at(self, t: np.ndarray) -> np.ndarray:
        return np.asarray(self.envelope(np.asarray(t, dtype=float)), dtype=float)


def _dist_to_interval(t: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return np.maximum(0.0, np.maximum(lo - t, t - hi))


def vanishing_well_potential(
    well: tuple[float, float] = (-0.25, 0.75),
    core: tuple[float, float] = (0.0, 0.5),
    threshold: float = 0.9,
    envelope_steepness: float = 0.0025,
    wall_height: float = 30.0,
    wall_steepness: float = 5e-7,
) -> PotentialMatrix:
    """Default scalar (1x1) potential.

    The envelope rises quadratically from the well boundary and saturates at 1:
    ``l(t) = min(1, dist(t, well)^2 / envelope_steepness)``.  The matrix itself
    vanishes exactly on the closed core and rises much faster to a higher cap,
    ``L(t) = min(wall_height, dist(t, core)^2 / wall_steepness)``, so that at
    desk-scale weights the penalty dominates the discrete operator and the
    minimizers concentrate on the core rather than merely inside the well.
    L(t) >= l(t) holds pointwise because the core is contained in the well.
    """

    def envelope(t):
        with np.errstate(over="ignore"):  # the quotient may overflow; the cap is exact
            return np.minimum(1.0, _dist_to_interval(t, *well) ** 2 / envelope_steepness)

    def matrix(t):
        with np.errstate(over="ignore"):
            wall = np.minimum(wall_height, _dist_to_interval(t, *core) ** 2 / wall_steepness)
        return wall[:, None, None]

    return PotentialMatrix(1, matrix, envelope, threshold, well, core)


def rotated_well_potential(**kwargs) -> PotentialMatrix:
    """2x2 preset: the scalar wall and twice the scalar wall on axes rotated by pi/6."""
    scalar = vanishing_well_potential(**kwargs)
    c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
    rot = np.array([[c, -s], [s, c]])

    def matrix(t):
        # rot diag(wall, 2 wall) rot^T as two products per entry: the same bits as
        # np.einsum("ij,njk,lk->nil", ...) at a twentieth of its cost for N = 8192
        wall = scalar.matrix_at(t)[:, 0, 0]
        out = np.empty((len(t), 2, 2))
        for i in range(2):
            for k in range(2):
                out[:, i, k] = (rot[i, 0] * wall) * rot[k, 0] + (rot[i, 1] * (2.0 * wall)) * rot[k, 1]
        return out

    return PotentialMatrix(
        2, matrix, scalar.envelope, scalar.threshold, scalar.well, scalar.core
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_margin: float
    location: float | None = None
    detail: str = ""


CHECK_RTOL = 1e-12  # a slack above -CHECK_RTOL x the compared magnitude is rounding


def judge(name: str, slack, magnitude: Callable, times=None, detail: str = "") -> CheckResult:
    """The result of the check ``name`` from its per-sample ``slack``, at least 0 where it holds.

    ``worst_margin`` is the least slack and ``location`` the time in
    ``times`` of the first sample that reaches it (none without ``times``).
    The check passes when every slack is at least ``-CHECK_RTOL *
    magnitude()``, the size of the quantities each sample compares (where
    the slack is negative, so the larger side there is enough);
    ``magnitude`` is called only when some slack is negative.  A least slack
    that is not finite, or a NaN anywhere, raises :class:`BoundError`; an
    empty one ``ValueError`` (a core without samples fails :func:`core_rows` first).
    """
    slack = np.atleast_1d(slack)
    j = int(np.argmin(slack))  # the first NaN, if there is one
    worst = float(slack[j])
    if not np.isfinite(worst):
        raise BoundError(
            f"the least slack of {name} is {worst}, not a finite double: "
            "a constant of the config is too large"
        )
    passed = worst >= 0.0 or bool(np.all(slack >= -CHECK_RTOL * magnitude()))
    return CheckResult(name, passed, worst, None if times is None else float(times[j]), detail)


@dataclass(frozen=True)
class CheckReport:
    """The ordered results of one family of hypothesis checks."""

    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_names(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]


def _smallest_eigenvalue(L: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each symmetric matrix in the ``(N, n, n)`` stack ``L``.

    Read from the lower triangle, as ``np.linalg.eigvalsh`` reads it, and in
    closed form for n <= 2: the entry itself for n = 1, and
    ``(a + d)/2 - hypot((a - d)/2, b)`` for ``[[a, b], [b, d]]``, whose absolute
    error is a few ulps of the largest entry.  Only n >= 3 calls LAPACK, so
    the presets, which have one or two components, never map it.
    """
    n = L.shape[-1]
    if n == 1:
        return L[:, 0, 0]
    if n == 2:
        a, b, d = L[:, 0, 0], L[:, 1, 0], L[:, 1, 1]
        return 0.5 * (a + d) - np.hypot(0.5 * (a - d), b)
    return np.linalg.eigvalsh(L)[:, 0]


def _smallest_eigenvector(L: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the smallest eigenvalue of each matrix in the ``(N, n, n)`` stack ``L``.

    Read from the lower triangle, and in closed form for n <= 2: ``e1`` for
    n = 1, and for ``[[a, b], [b, d]]`` with ``h = (a - d)/2`` and
    ``m = |h| + hypot(h, b)`` the null vector ``(m, -b)`` (``h <= 0``) or
    ``(-b, m)`` (``h > 0``) of ``L - lambda_min``, normalized.  ``m`` has no
    cancellation and is at least half the eigenvalue gap, so the error is a
    few ulps of the largest entry over the gap, and a diagonal matrix gets an
    exact unit vector.  Only n >= 3 calls LAPACK (``eigh``).  The sign makes
    the entry of largest magnitude positive (the first of equal ones); a
    matrix whose eigenvalues agree to 4 ulps of its largest entry, where the
    direction is rounding noise, gets ``e1``.  Returns an ``(N, n)`` array.
    """
    n = L.shape[-1]
    if n == 1:
        return np.ones((len(L), 1))
    if n == 2:
        a, b, d = L[:, 0, 0], L[:, 1, 0], L[:, 1, 1]
        h = 0.5 * (a - d)
        r = np.hypot(h, b)
        m = np.abs(h) + r
        vecs = np.where((h <= 0.0)[:, None], np.stack([m, -b], axis=-1), np.stack([-b, m], axis=-1))
        spread = 2.0 * r
    else:
        vals, vecs = np.linalg.eigh(L)
        vecs, spread = vecs[:, :, 0], vals[:, -1] - vals[:, 0]
    isotropic = spread <= 4.0 * np.finfo(float).eps * np.max(np.abs(L), axis=(1, 2))
    vecs[isotropic] = np.eye(n)[0]
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    largest = np.take_along_axis(vecs, np.argmax(np.abs(vecs), axis=1)[:, None], axis=1)
    return np.where(largest < 0.0, -vecs, vecs) + 0.0  # + 0.0: no -0.0 entry


def verify_potential(potential: PotentialMatrix, times: np.ndarray) -> CheckReport:
    """Check the structural hypotheses of the potential at grid resolution.

    Verifies matrix symmetry and the envelope bound (L1), the envelope's zero
    set (L2) and the vanishing of the matrix on the closed core (L3).  The
    envelope bound is exact: the smallest eigenvalue of ``L(t)``
    (:func:`_smallest_eigenvalue`) is ``min (L(t)x, x)`` over unit ``x``.
    Each check but L2 is judged by :func:`judge`.  Failures are reported as data, not raised.
    First the grid rules raise :class:`ResolutionError`, in this order: the well's margin (one
    well width on each side), :func:`core_rows`, and ``l >= k`` at both grid ends.
    """
    times = np.asarray(times, dtype=float)
    a, b = potential.well
    margin = b - a
    if times[0] > a - margin or times[-1] < b + margin:
        raise ResolutionError(
            f"grid [{times[0]:.3g}, {times[-1]:.3g}] must cover the well with margin "
            f">= {margin:.3g} on each side"
        )
    core_rows(times, potential.core)
    with np.errstate(over="ignore", invalid="ignore"):
        L, l_env = potential.matrix_at(times), potential.envelope_at(times)
        k = potential.threshold
        if l_env[0] < k or l_env[-1] < k:
            raise ResolutionError(
                "sublevel set {l < k} touches the grid boundary; enlarge the domain "
                f"(l = {l_env[0]:.3g} / {l_env[-1]:.3g} at the ends, k = {k})"
            )
        sym_err = np.max(np.abs(L - np.transpose(L, (0, 2, 1))), axis=(1, 2))
        size = np.max(np.abs(L), axis=(1, 2))
        checks = [
            judge("L1-symmetry", 1e-12 - sym_err, lambda: size, times,
                  "matrix must equal its transpose at every grid point"),
            judge("L1-envelope", _smallest_eigenvalue(L) - l_env, lambda: np.maximum(size, np.abs(l_env)),
                  times, "(L(t)x, x) >= l(t)|x|^2: the smallest eigenvalue of L(t) is at least l(t)"),
        ]

    inside = (times >= a) & (times <= b)
    outside = ~inside
    zero_on_well = bool(np.all(np.abs(l_env[inside]) <= 1e-14))
    pos_outside = bool(np.all(l_env[outside] > 0.0))
    # the grid covers the well with a margin, so samples outside it exist
    margin_l2 = float(np.min(l_env[outside]))
    detail, loc = "", None
    if not zero_on_well:
        j = int(np.argmax(np.abs(l_env * inside)))
        detail, loc = "envelope must vanish on the closed well", float(times[j])
        margin_l2 = -float(np.max(np.abs(l_env[inside])))
    elif not pos_outside:
        j = int(np.argmax(outside & (l_env <= 0.0)))
        detail, loc = "envelope must be positive outside the closed well", float(times[j])
    checks.append(CheckResult("L2-kernel", zero_on_well and pos_outside, margin_l2, loc, detail))

    on_core = (times >= potential.core[0]) & (times <= potential.core[1])
    checks.append(judge("L3-vanishing", 1e-14 - size[on_core], lambda: size[on_core], times[on_core],
                        "matrix must vanish entrywise on the closed core"))
    return CheckReport(tuple(checks))


def measure_sublevel(potential: PotentialMatrix, times: np.ndarray, dt: float) -> float:
    """Lebesgue measure of {l < k}, approximated by dt times the grid count.

    Exact for unions of intervals up to one dt per boundary.  It runs on a
    grid that :func:`verify_potential` has admitted, so ``l >= k`` at both
    ends and the sublevel set lies inside the grid; it only measures.
    """
    l_env = potential.envelope_at(np.asarray(times, dtype=float))
    return float(dt * np.count_nonzero(l_env < potential.threshold))


def continuum_sobolev_constant(a: FracOrder) -> float:
    """Whole-line constant in ``||u||_inf <= C ||u||_(H^a)``, in closed form.

    ``C^2 = (1/2pi) int dw / (1 + |w|^(2a)) = 1 / (2a sin(pi/(2a)))``
    (Gradshteyn & Ryzhik 3.241.2); the integral converges only for a > 1/2.
    """
    if not a.variational_ok:
        raise AdmissibilityError("the multiplier integral diverges for orders <= 1/2")
    s = a.doubled
    return float(np.sqrt(1.0 / (s * np.sin(np.pi / s))))


def grid_sobolev_constant(a: FracOrder, n_samples: int, dt: float) -> float:
    """Sharp constant of the sup-norm bound for signals on one grid.

    ``C_grid^2 = (1/(N dt)) sum_k 1/(1 + |w_k|^(2a))`` over the full spectrum,
    summed on the half-spectrum with the Parseval weights.  By Cauchy-Schwarz
    every grid signal obeys the bound with this constant, and the profile
    ``u_hat_k = 1/(1 + |w_k|^(2a))``, peaked on a sample, attains it.
    """
    kinetic, weight = half_spectrum(n_samples, dt, a)
    return float(np.sqrt(np.sum(weight / (1.0 + kinetic)) / (n_samples * dt)))


def sobolev_constant(a: FracOrder, n_samples: int, dt: float) -> float:
    """``C_alpha = max(C_cont, C_grid)``: valid on the whole line and on the grid.

    The continuum value wins on long domains, where the grid truncates the
    multiplier integral at the Nyquist frequency; the grid value wins on short
    ones, where the Riemann sum over the coarse frequency spacing exceeds it.
    """
    return max(continuum_sobolev_constant(a), grid_sobolev_constant(a, n_samples, dt))


@dataclass(frozen=True)
class EmbeddingConstants:
    """Derived constants of the weighted-norm embedding chain.

    theta0 and lambda_threshold satisfy their defining identities exactly:
    ``theta0 = (1 - q)/q`` and ``lambda_threshold = 1/(k q)`` with
    ``q = c_alpha^2 * sublevel_measure < 1``.
    """

    c_alpha: float
    sublevel_measure: float
    threshold: float
    theta0: float
    lambda_threshold: float

    @classmethod
    def from_data(cls, c_alpha: float, sublevel_measure: float, threshold: float):
        if sublevel_measure <= 0.0:
            raise ResolutionError(
                "no grid sample has l(t) < k, so the sublevel measure is 0: "
                "the grid does not resolve the core"
            )
        q = c_alpha**2 * sublevel_measure
        if q >= 1.0:
            raise AdmissibilityError(
                f"L1 admissibility fails: C_alpha^2 * |{{l<k}}| = {q:.6f} >= 1"
            )
        return cls(c_alpha, sublevel_measure, threshold, (1.0 - q) / q, 1.0 / (threshold * q))

    def require(self, lam: float, what: str) -> None:
        """Raise :class:`WeightError` unless ``lam`` is at or above ``lambda_threshold``.

        Every bound that needs the weighted norm to dominate ``theta0 ||u||_L2^2``
        states its rule here; ``what`` names the caller in the message.
        """
        if lam < self.lambda_threshold:
            raise WeightError(
                f"{what} needs lam >= the threshold {self.lambda_threshold:.6g}, got {lam:.6g}"
            )

    @property
    def admissibility_product(self) -> float:
        return self.c_alpha**2 * self.sublevel_measure

    @property
    def admissibility_margin(self) -> float:
        return 1.0 - self.admissibility_product


def compute_embedding_constants(
    potential: PotentialMatrix,
    a: FracOrder,
    n_samples: int,
    t_min: float,
    dt: float,
) -> EmbeddingConstants:
    """C_alpha in closed form, the measured sublevel set and the derived constants."""
    times = t_min + dt * np.arange(n_samples)
    c_alpha = sobolev_constant(a, n_samples, dt)
    m = measure_sublevel(potential, times, dt)
    return EmbeddingConstants.from_data(c_alpha, m, potential.threshold)


def lambda_norm(u: SampledSignal, potential: PotentialMatrix, lam: float, a: FracOrder) -> float:
    """Weighted energy norm: (seminorm^2 + lam * int (L u, u) dt)^(1/2)."""
    if lam <= 0:
        raise ValueError("weight lam must be positive")
    L = potential.matrix_at(u.times)
    weighted = float(u.dt * np.einsum("ni,nij,nj->", u.values, L, u.values))
    return float(np.sqrt(seminorm_alpha(u, a) ** 2 + lam * weighted))


def h_alpha_norm(u: SampledSignal, a: FracOrder) -> float:
    """Full fractional Sobolev norm (L2 norm plus seminorm, in quadrature)."""
    return float(np.sqrt(l2_norm(u) ** 2 + seminorm_alpha(u, a) ** 2))


def embedding_bounds(u: SampledSignal, prob: Problem) -> CheckReport:
    """Evaluate both sides of the L^2 and L^r embedding inequalities at ``prob.lam``.

    The weighted norm is measured with :meth:`~frachs.energy.Problem.form`.
    For lam >= lambda_threshold it dominates ``theta0 ||u||_L2^2`` and, for
    r = 3, 4 and 6, ``theta0^(r/2) m^((r-2)/2) ||u||_Lr^r``; each bound is
    judged by :func:`judge` with slack rhs - lhs at the magnitude lhs.
    """
    prob.check_signal(u)
    constants = prob.constants
    constants.require(prob.lam, "the embedding bounds")
    norm_lam = float(np.sqrt(prob.form(u.values, u.values)))
    mag = u.magnitude()
    l2_sq = u.dt * float(np.sum(mag**2))
    theta0, m = constants.theta0, constants.sublevel_measure
    rhs = norm_lam**2 / theta0
    checks = [judge("L2-bound", rhs - l2_sq, lambda: l2_sq, detail="||u||_L2^2 <= ||u||_lam^2 / theta0")]
    for r in (3, 4, 6):
        lhs = u.dt * float(np.sum(mag**r))
        rhs = norm_lam**r / (theta0 ** (r / 2.0) * m ** ((r - 2.0) / 2.0))
        checks.append(judge(f"L{r}-bound", rhs - lhs, lambda: lhs,
                            detail=f"||u||_L{r}^{r} <= theta0^(-{r}/2) m^(-({r}-2)/2) ||u||_lam^{r}"))
    return CheckReport(tuple(checks))
