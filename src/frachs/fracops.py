"""Whole-line fractional integrals and derivatives as Fourier multipliers.

The left/right derivative of order ``a`` in (0, 1) acts in frequency as
multiplication by ``(iw)^a`` / ``(-iw)^a`` on the principal branch

    (+-iw)^a = |w|^a * exp(+-i * a * pi * sgn(w) / 2),

with the w = 0 mode mapped to zero.  The composition of right-after-left
derivatives is the single real multiplier ``|w|^(2a)``, taken on the real-FFT
half-spectrum from :func:`half_spectrum`: ``Problem`` applies it (its
quadratic form is the L2 pairing with that operator), while
:func:`seminorm_alpha` and the grid Sobolev constant sum it with the Parseval
weights.  A Grunwald-Letnikov quadrature of the defining half-line
convolution, evaluated as one zero-padded FFT convolution, is provided as an
independent oracle for tests; it never feeds the spectral path.
"""

from __future__ import annotations

import numpy as np

from .grid import FracOrder, SampledSignal, l2_norm

__all__ = [
    "left_derivative",
    "right_derivative",
    "left_integral",
    "riesz_composition",
    "quadrature_left_derivative",
    "grunwald_weights",
    "seminorm_alpha",
    "apply_multiplier",
    "half_spectrum",
]

_IMAG_TOL = 1e-10


def _frequencies(u: SampledSignal) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(u.n_samples, d=u.dt)


def half_spectrum(n_samples: int, dt: float, a: FracOrder) -> tuple[np.ndarray, np.ndarray]:
    """``|w|^(2a)`` on the ``rfft`` bins and their Parseval weights.

    Every bin but DC and Nyquist stands for a conjugate pair and weighs 2, so
    ``sum weight * f(|w|) |rfft(x)|^2`` is the full-spectrum sum for real ``x``.
    """
    freqs = 2.0 * np.pi * np.fft.rfftfreq(n_samples, d=dt)
    weight = np.full(len(freqs), 2.0)
    weight[0] = 1.0
    if n_samples % 2 == 0:
        weight[-1] = 1.0
    return freqs**a.doubled, weight


def apply_multiplier(u: SampledSignal, multiplier: np.ndarray) -> SampledSignal:
    """Inverse transform of ``multiplier(w_k) * u_hat(w_k)``, coerced to real.

    Raises if the imaginary residue exceeds 1e-10 relative to the output
    scale, which signals aliasing or insufficient domain truncation.
    """
    if not np.all(np.isfinite(u.values)):
        raise ValueError("cannot transform a signal with non-finite samples")
    spec = np.fft.fft(u.values, axis=0)
    out = np.fft.ifft(multiplier[:, None] * spec, axis=0)
    scale = np.max(np.abs(out), initial=0.0)
    residue = np.max(np.abs(out.imag), initial=0.0)
    if scale > 0 and residue > _IMAG_TOL * scale:
        raise ValueError(
            f"multiplier output has imaginary residue {residue / scale:.3e} relative; "
            "the signal is aliased or insufficiently truncated"
        )
    return u.with_values(out.real)


def _power_symbol(freqs: np.ndarray, order: float, sign: float) -> np.ndarray:
    """Principal-branch (sign * i * w)^order with the w = 0 entry set to 0."""
    symbol = np.zeros(freqs.shape, dtype=complex)
    nonzero = freqs != 0.0
    w = freqs[nonzero]
    symbol[nonzero] = np.abs(w) ** order * np.exp(
        1j * sign * order * 0.5 * np.pi * np.sign(w)
    )
    return symbol


def left_derivative(u: SampledSignal, a: FracOrder) -> SampledSignal:
    """Fractional derivative acting from the left (past-looking half line)."""
    return apply_multiplier(u, _power_symbol(_frequencies(u), a.alpha, +1.0))


def right_derivative(u: SampledSignal, a: FracOrder) -> SampledSignal:
    """Fractional derivative acting from the right (future-looking half line)."""
    return apply_multiplier(u, _power_symbol(_frequencies(u), a.alpha, -1.0))


def left_integral(u: SampledSignal, a: FracOrder) -> SampledSignal:
    """Left fractional integral; inverts :func:`left_derivative` on zero-mean input.

    The symbol is singular at w = 0, so the input must have zero mean on the
    grid; the zero mode of the output is set to 0 by convention.
    """
    mean_coeff = float(np.max(np.abs(u.dt * np.sum(u.values, axis=0))))
    norm = l2_norm(u)
    if mean_coeff > 1e-10 * max(norm, 1e-300):
        raise ValueError(
            "left_integral requires a zero-mean signal: the zero-frequency mode "
            f"obstructs the singular multiplier (|c0| = {mean_coeff:.3e}, "
            f"||u|| = {norm:.3e})"
        )
    return apply_multiplier(u, _power_symbol(_frequencies(u), -a.alpha, +1.0))


def riesz_composition(u: SampledSignal, a: FracOrder) -> SampledSignal:
    """Right-after-left derivative composition, the single multiplier |w|^(2a)."""
    freqs = _frequencies(u)
    return apply_multiplier(u, (np.abs(freqs) ** a.doubled).astype(complex))


def grunwald_weights(alpha: float, count: int) -> np.ndarray:
    """First ``count`` Grunwald-Letnikov weights g_j = (-1)^j C(alpha, j).

    Computed by the stable recursion g_j = g_{j-1} * (j - 1 - alpha) / j.
    """
    weights = np.empty(count)
    weights[0] = 1.0
    j = np.arange(1, count)
    np.cumprod((j - 1.0 - alpha) / j, out=weights[1:])
    return weights


def quadrature_left_derivative(u: SampledSignal, a: FracOrder) -> SampledSignal:
    """Time-domain quadrature oracle for :func:`left_derivative`.

    Weighted shifted Grunwald-Letnikov sum: the plain binomial-weight sum
    approximates the derivative at a half-sample offset, so the two unit
    shifts are blended as (1 - a/2) and a/2, giving second-order accuracy in
    dt for smooth decaying signals.  Test oracle: the half-line sum is one
    linear convolution with the weights, evaluated by zero-padded FFT.

    The half-line integral is truncated at the grid edge, so both tails of
    ``u`` must have decayed below 1e-12 of the peak.
    """
    n = u.n_samples
    peak = u.sup_norm()
    edge = max(np.max(np.abs(u.values[0])), np.max(np.abs(u.values[-1])))
    if peak > 0 and edge > 1e-12 * max(peak, 1.0):
        raise ValueError(
            "quadrature oracle needs the signal to decay at both grid ends "
            f"(edge magnitude {edge:.3e} vs peak {peak:.3e}); the truncated tail "
            "would dominate"
        )
    alpha = a.alpha
    weights = grunwald_weights(alpha, n + 1)
    # the linear convolution by FFT, zero-padded past its full length 2n so
    # that no circular wrap-around reaches the n + 1 outputs kept
    n_fft = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(weights, n_fft)[:, None] * np.fft.rfft(u.values, n_fft, axis=0)
    conv = np.fft.irfft(spec, n_fft, axis=0)[: n + 1]
    out = (1.0 - 0.5 * alpha) * conv[:n] + 0.5 * alpha * conv[1 : n + 1]
    return u.with_values(out / u.dt**alpha)


def seminorm_alpha(u: SampledSignal, a: FracOrder) -> float:
    """Homogeneous fractional seminorm, the L2 norm of the left derivative.

    Evaluated on the half-spectrum via the discrete Parseval identity:
    ``seminorm^2 = (dt/N) sum_k |w_k|^(2a) |X_k|^2`` with ``X = fft(u)``.
    """
    kinetic, weight = half_spectrum(u.n_samples, u.dt, a)
    x_hat = np.fft.rfft(u.values, axis=0)
    power = x_hat.real**2 + x_hat.imag**2
    total = np.sum((weight * kinetic)[:, None] * power)
    return float(np.sqrt(total * u.dt / u.n_samples))
