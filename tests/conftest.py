import random

import numpy as np
import pytest

from frachs import SampledSignal, SolverConfig, default_problem, midpoint_grid

# default desk-scale grid
N_DEFAULT = 4096
DOMAIN_DEFAULT = 32.0
T_MIN, DT = midpoint_grid(N_DEFAULT, DOMAIN_DEFAULT)


def zero_signal(prob):
    """The zero signal on the grid of ``prob``."""
    return SampledSignal(prob.t_min, prob.dt, np.zeros((prob.n_samples, prob.n_components)))


def power_symbol(order, sign=1.0):
    """Principal-branch ``(sign * i w)^order`` on any frequencies, 0 at w = 0."""

    def symbol(w):
        out = np.zeros(len(w), dtype=complex)
        nonzero = w != 0.0
        out[nonzero] = np.abs(w[nonzero]) ** order * np.exp(
            1j * sign * order * 0.5 * np.pi * np.sign(w[nonzero])
        )
        return out

    return symbol


def full_spectrum_apply(u, symbol):
    """``Re(ifft(symbol(w) * fft(u)))`` over the full ``fftfreq`` spectrum, shape (N, n).

    The complex-transform reference for the operators, which run on the
    real-FFT half-spectrum.
    """
    w = 2.0 * np.pi * np.fft.fftfreq(u.n_samples, d=u.dt)
    return np.fft.ifft(symbol(w)[:, None] * np.fft.fft(u.values, axis=0), axis=0).real


def discrete_extremal(a, n, t_min, dt):
    """Grid signal attaining the sharp sup-norm ratio: coefficients proportional
    to 1/(1 + |w|^(2a)), peaked on a sample point; returns (signal, ratio)."""
    freqs = 2 * np.pi * np.fft.fftfreq(n, d=dt)
    profile = 1.0 / (1.0 + np.abs(freqs) ** a.doubled)
    t_peak = t_min + dt * (n // 2)
    coeffs = profile * np.exp(-1j * freqs * (t_min - t_peak))
    u = SampledSignal(t_min, dt, np.fft.ifft(coeffs).real)
    return u, np.sqrt(np.sum(profile) / (n * dt))


@pytest.fixture(scope="session")
def prob():
    """Default scenario at lam = 10x the embedding threshold."""
    return default_problem()


@pytest.fixture(scope="session")
def cfg():
    return SolverConfig()


@pytest.fixture(scope="session")
def rng():
    """The stdlib generator that ``random_band_limited`` draws from."""
    return random.Random(20240811)


@pytest.fixture(scope="session")
def np_rng():
    """numpy's generator, for the tests' own array draws."""
    return np.random.default_rng(20240811)
