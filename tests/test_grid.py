import random

import numpy as np
import pytest

from frachs import (
    FracOrder,
    SampledSignal,
    random_band_limited,
    reflect,
    signal_from_function,
    standard_normal,
)

from conftest import DT, T_MIN


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


class TestStandardNormal:
    def test_pinned_stream_for_seed_0(self):
        # Box-Muller on Random(0).random(): a change to the draw moves these at O(1);
        # the tolerance only admits a libm that rounds log/cos/sin differently
        expected = [0.09637157846515239, -1.9266361205465297, -0.05850007947614822,
                    1.0430743174790902, -0.9894262130739009]
        got = standard_normal(random.Random(0), 5)
        assert got.shape == (5,)
        assert got.tolist() == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_same_seed_gives_equal_bits(self):
        a, b = (standard_normal(random.Random(11), 1001) for _ in range(2))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, standard_normal(random.Random(12), 1001))

    def test_moments(self):
        z = standard_normal(random.Random(1), 100_000)
        assert abs(np.mean(z)) < 0.01
        assert abs(np.var(z) - 1.0) < 0.02


class TestRandomBandLimited:
    @pytest.mark.parametrize("n_components", [1, 2])
    def test_same_seed_gives_equal_bits(self, n_components):
        a, b = (random_band_limited(random.Random(5), 1024, T_MIN, DT, n_components)
                for _ in range(2))
        assert np.array_equal(a.values, b.values)
        c = random_band_limited(random.Random(6), 1024, T_MIN, DT, n_components)
        assert not np.array_equal(a.values, c.values)

    @pytest.mark.parametrize("band_fraction", [0.02, 0.2, 0.5])
    def test_spectrum_vanishes_above_the_band_and_peak_is_one(self, band_fraction):
        n = 4096
        u = random_band_limited(random.Random(3), n, T_MIN, DT, 2, band_fraction=band_fraction)
        assert np.max(np.abs(u.values)) == 1.0
        spectrum = np.abs(np.fft.fft(u.values, axis=0))
        w = 2.0 * np.pi * np.fft.fftfreq(n, d=DT)
        above = np.abs(w) > band_fraction * np.pi / DT
        # zero up to the rounding of the inverse and forward FFTs
        assert np.max(spectrum[above]) <= 1e-14 * np.max(spectrum)
        assert np.all(np.max(spectrum[~above], axis=0) > 0.0)


class TestFracOrder:
    def test_range_enforced(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                FracOrder(bad)

    def test_variational_flag(self):
        assert FracOrder(0.75).variational_ok
        assert not FracOrder(0.5 - 1e-12).variational_ok
        assert FracOrder(0.55).doubled == pytest.approx(1.1)
