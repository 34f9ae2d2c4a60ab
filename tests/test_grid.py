import numpy as np
import pytest

from frachs import (
    FracOrder,
    SampledSignal,
    random_band_limited,
    reflect,
    signal_from_function,
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


class TestFracOrder:
    def test_range_enforced(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                FracOrder(bad)

    def test_variational_flag(self):
        assert FracOrder(0.75).variational_ok
        assert not FracOrder(0.5 - 1e-12).variational_ok
        assert FracOrder(0.55).doubled == pytest.approx(1.1)
