"""Uniform periodic grids and sampled signals.

A :class:`SampledSignal` is the universal value carrier of the library: a
function R -> R^n truncated to one period [t_min, t_min + N*dt) of a uniform
grid with N a power of two.  All integrals are evaluated with the trapezoid
rule on the periodic grid (endpoint identified), i.e. ``dt * sum``, which is
exact for trigonometric polynomials and makes the discrete Parseval identity
hold to rounding error.  Frequencies are angular, ``w_k = 2 pi k / (N dt)``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FracOrder",
    "SampledSignal",
    "signal_from_function",
    "midpoint_grid",
    "reflect",
    "l2_norm",
    "pointwise_dot",
    "standard_normal",
    "random_band_limited",
]


@dataclass(frozen=True)
class FracOrder:
    """Fractional order in (0, 1).

    ``variational_ok`` flags orders above 1/2, the range on which the
    sup-norm embedding (and hence the whole energy framework) is valid.
    """

    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"fractional order must lie in (0, 1), got {self.alpha}")

    @property
    def variational_ok(self) -> bool:
        return self.alpha > 0.5

    @property
    def doubled(self) -> float:
        """Order 2*alpha of the left-right composition."""
        return 2.0 * self.alpha


def pointwise_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample dot product ``sum_i x[:, i] y[:, i]`` of two (N, n) arrays, shape (N,).

    Column by column, in the order of ``np.sum(x * y, axis=1)`` (which starts
    from +0), so the bits match it for n < 8, where numpy adds in sequence;
    a reduction over the short component axis of a C-ordered array costs
    several times the same arithmetic done on columns.
    """
    out = x[:, 0] * y[:, 0]
    out += 0.0  # as numpy's +0 start: a -0 product becomes +0
    for i in range(1, x.shape[1]):
        out += x[:, i] * y[:, i]
    return out


def _as_values(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"values must have shape (N,) or (N, n), got {arr.shape}")
    return arr


@dataclass(frozen=True)
class SampledSignal:
    """A function R -> R^n sampled on one period of a uniform grid.

    values has shape (N, n): N samples of n real components.  N must be a
    power of two with N >= 8, dt > 0 and every sample finite.
    """

    t_min: float
    dt: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _as_values(self.values))
        n_samples = self.values.shape[0]
        if n_samples < 8 or (n_samples & (n_samples - 1)) != 0:
            raise ValueError(f"sample count must be a power of two >= 8, got {n_samples}")
        if not self.dt > 0:
            raise ValueError(f"grid spacing must be positive, got {self.dt}")
        if not np.all(np.isfinite(self.values)):
            bad = np.argwhere(~np.isfinite(self.values))[0]
            raise ValueError(
                f"non-finite sample at t={self.t_min + bad[0] * self.dt:.6g} "
                f"(index {bad[0]}, component {bad[1]})"
            )
        self.values.setflags(write=False)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_components(self) -> int:
        return self.values.shape[1]

    @property
    def times(self) -> np.ndarray:
        return self.t_min + self.dt * np.arange(self.n_samples)

    def with_values(self, values) -> "SampledSignal":
        """Same grid, new samples."""
        return SampledSignal(self.t_min, self.dt, values)

    def magnitude(self) -> np.ndarray:
        """Pointwise euclidean norm |u(t_j)|, shape (N,)."""
        return np.sqrt(pointwise_dot(self.values, self.values))

    def sup_norm(self) -> float:
        return float(np.max(self.magnitude(), initial=0.0))


def signal_from_function(fn, n_samples: int, t_min: float, dt: float) -> SampledSignal:
    """Sample ``fn`` (vectorized, t-array -> (N,) or (N, n)) on the grid."""
    t = t_min + dt * np.arange(n_samples)
    return SampledSignal(t_min, dt, np.asarray(fn(t), dtype=float))


def midpoint_grid(n_samples: int, domain: float) -> tuple[float, float]:
    """(t_min, dt) for a period of length ``domain`` sampled at cell midpoints.

    The first sample sits half a cell above -domain/2, so that 0 and any other
    cell boundary fall between samples and the grid is reflection-symmetric
    by pure index reversal.
    """
    dt = domain / n_samples
    return -0.5 * domain + 0.5 * dt, dt


def reflect(u: SampledSignal) -> SampledSignal:
    """Time reversal t -> -t, exact on reflection-symmetric periodic grids.

    Sample j maps to sample (k0 - j) mod N where k0 = -2 t_min / dt must be an
    integer (mod N); this covers both boundary-aligned grids (t_min = -T/2)
    and midpoint grids (t_min = -T/2 + dt/2).
    """
    n = u.n_samples
    k0_real = -2.0 * u.t_min / u.dt
    k0 = int(np.rint(k0_real))
    if abs(k0_real - k0) > 1e-9:
        raise ValueError("grid is not reflection-symmetric (t_min is not a half-multiple of dt)")
    idx = (k0 - np.arange(n)) % n
    return u.with_values(u.values[idx])


def l2_norm(u: SampledSignal) -> float:
    return float(np.sqrt(u.dt * np.sum(u.values**2)))


def standard_normal(rng: random.Random, count: int) -> np.ndarray:
    """``count`` N(0, 1) samples, shape (count,), by Box-Muller on ``rng.random()`` alone.

    Each pair takes two uniforms: radius ``sqrt(-2 log(1 - u1))`` (``1 - u1``
    lies in (0, 1], so the log is finite) and angle ``2 pi u2``.  ``random()``
    is the one stream of :class:`random.Random` that CPython keeps the same
    across versions (``gauss`` is not), and the stdlib generator spares the
    process ``numpy.random``, whose import maps OpenSSL.
    """
    out = []
    for _ in range((count + 1) // 2):
        r = math.sqrt(-2.0 * math.log(1.0 - rng.random()))
        theta = 2.0 * math.pi * rng.random()
        out += (r * math.cos(theta), r * math.sin(theta))
    return np.array(out[:count], dtype=float)


def random_band_limited(
    rng: random.Random,
    n_samples: int,
    t_min: float,
    dt: float,
    n_components: int = 1,
    band_fraction: float = 0.25,
) -> SampledSignal:
    """Random real signal with spectral content below ``band_fraction`` of Nyquist, unit peak.

    The coefficients on the in-band ``rfft`` bins are complex normals from
    :func:`standard_normal`: all real parts, then all imaginary parts
    (``irfft`` drops the imaginary parts of the DC and Nyquist bins).
    """
    freqs = 2.0 * np.pi * np.fft.rfftfreq(n_samples, d=dt)
    n_band = int(np.count_nonzero(freqs <= band_fraction * np.pi / dt))
    re, im = standard_normal(rng, 2 * n_band * n_components).reshape(2, n_band, n_components)
    raw = np.zeros((len(freqs), n_components), dtype=complex)
    raw[:n_band] = re + 1j * im
    values = np.fft.irfft(raw, n_samples, axis=0)
    peak = np.max(np.abs(values))
    if peak > 0:
        values = values / peak
    return SampledSignal(t_min, dt, values)
