import numpy as np
import pytest

from frachs import (
    FracOrder,
    SampledSignal,
    fft_forward,
    fft_inverse,
    midpoint_grid,
    random_band_limited,
    reflect,
    signal_from_function,
)

from conftest import DT, N_DEFAULT, T_MIN


class TestSampledSignal:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            SampledSignal(0.0, 0.1, np.zeros(100))

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError, match="power of two"):
            SampledSignal(0.0, 0.1, np.zeros(4))

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError, match="spacing"):
            SampledSignal(0.0, -0.1, np.zeros(8))

    def test_rejects_non_finite_with_location(self):
        vals = np.zeros(16)
        vals[5] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            SampledSignal(0.0, 0.5, vals)

    def test_scalar_values_become_column(self):
        u = SampledSignal(0.0, 0.5, np.ones(8))
        assert u.values.shape == (8, 1)
        assert u.n_components == 1

    def test_values_are_read_only(self):
        u = SampledSignal(0.0, 0.5, np.ones(8))
        with pytest.raises(ValueError):
            u.values[0] = 2.0


class TestFourier:
    def test_zero_signal_zero_coeffs(self):
        u = SampledSignal(T_MIN, DT, np.zeros(N_DEFAULT))
        spec = fft_forward(u)
        assert np.all(spec.coeffs == 0)

    def test_roundtrip(self, rng):
        u = random_band_limited(rng, N_DEFAULT, T_MIN, DT, n_components=2)
        v = fft_inverse(fft_forward(u))
        assert np.max(np.abs(v.values - u.values)) <= 1e-12 * u.sup_norm()

    def test_pure_tone_two_coeffs(self):
        m = 37
        w1 = 2 * np.pi * m / (N_DEFAULT * DT)
        u = signal_from_function(lambda t: np.cos(w1 * t), N_DEFAULT, T_MIN, DT)
        spec = fft_forward(u)
        mags = np.abs(spec.coeffs[:, 0])
        order = np.argsort(mags)[::-1]
        # two dominant bins at +-w1 with value N*dt/2, everything else at rounding level
        assert set(np.round(spec.frequencies[order[:2]] / w1)) == {-1.0, 1.0}
        expected = N_DEFAULT * DT / 2
        assert np.allclose(spec.coeffs[order[:2], 0], expected, rtol=1e-12)
        assert mags[order[2]] <= 1e-10 * expected

    def test_gaussian_matches_analytic_transform(self):
        # oracle: the transform of exp(-t^2) is sqrt(pi) exp(-w^2/4)
        n, domain = 1024, 40.0
        t_min, dt = midpoint_grid(n, domain)
        u = signal_from_function(lambda t: np.exp(-(t**2)), n, t_min, dt)
        spec = fft_forward(u)
        low = np.abs(spec.frequencies) <= 5.0
        analytic = np.sqrt(np.pi) * np.exp(-spec.frequencies[low] ** 2 / 4)
        rel = np.abs(spec.coeffs[low, 0] - analytic) / np.abs(analytic)
        assert np.max(rel) <= 1e-8

    def test_real_signal_conjugate_symmetric(self, rng):
        u = random_band_limited(rng, 256, T_MIN, DT)
        spec = fft_forward(u)
        # bin -k holds the conjugate of bin k
        k = np.arange(256)
        paired = spec.coeffs[(-k) % 256, 0]
        assert np.max(np.abs(paired - np.conj(spec.coeffs[:, 0]))) <= 1e-12 * np.max(
            np.abs(spec.coeffs)
        )


class TestReflect:
    @pytest.mark.parametrize("t_min_kind", ["aligned", "midpoint"])
    def test_reflect_is_time_reversal(self, t_min_kind):
        n, domain = 128, 16.0
        dt = domain / n
        t_min = -domain / 2 if t_min_kind == "aligned" else -domain / 2 + dt / 2
        u = signal_from_function(lambda t: np.exp(-((t - 1.3) ** 2)), n, t_min, dt)
        v = reflect(u)
        expect = np.exp(-((-u.times - 1.3) ** 2))
        assert np.max(np.abs(v.values[:, 0] - expect)) <= 1e-14

    def test_reflect_involution(self, rng):
        u = random_band_limited(rng, 64, T_MIN, DT)
        assert np.array_equal(reflect(reflect(u)).values, u.values)

    def test_asymmetric_grid_rejected(self):
        u = SampledSignal(0.123, 0.5, np.zeros(8))
        with pytest.raises(ValueError, match="reflection-symmetric"):
            reflect(u)


class TestFracOrder:
    def test_range_enforced(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                FracOrder(bad)

    def test_variational_flag(self):
        assert FracOrder(0.75).variational_ok
        assert not FracOrder(0.5 - 1e-12).variational_ok
        assert FracOrder(0.55).doubled == pytest.approx(1.1)
