import random

import numpy as np
import pytest

from frachs import (
    FracOrder,
    SampledSignal,
    apply_multiplier,
    grunwald_weights,
    l2_norm,
    left_derivative,
    left_integral,
    midpoint_grid,
    quadrature_left_derivative,
    random_band_limited,
    reflect,
    riesz_composition,
    right_derivative,
    seminorm_alpha,
    signal_from_function,
)

from conftest import DT, N_DEFAULT, T_MIN, full_spectrum_apply, power_symbol

A75 = FracOrder(0.75)
M_TONE = 37
W1 = 2 * np.pi * M_TONE / (N_DEFAULT * DT)


def tone(fn=np.cos, w=W1):
    return signal_from_function(lambda t: fn(w * t), N_DEFAULT, T_MIN, DT)


def gaussian(n=N_DEFAULT, domain=32.0):
    t_min, dt = midpoint_grid(n, domain)
    return signal_from_function(lambda t: np.exp(-(t**2)), n, t_min, dt)


def zero():
    return SampledSignal(T_MIN, DT, np.zeros(N_DEFAULT))


class TestDerivatives:
    def test_zero_maps_to_zero(self):
        for op in (left_derivative, right_derivative, riesz_composition):
            assert np.all(op(zero(), A75).values == 0)

    def test_left_tone_closed_form(self):
        # apply the symbol to the two-bin spectrum by hand:
        # cos(w t) -> w^a cos(w t + a pi/2)
        out = left_derivative(tone(), A75)
        expect = W1**0.75 * np.cos(W1 * out.times + 0.75 * np.pi / 2)
        assert np.max(np.abs(out.values[:, 0] - expect)) <= 1e-8 * W1**0.75

    def test_right_tone_closed_form(self):
        out = right_derivative(tone(), A75)
        expect = W1**0.75 * np.cos(W1 * out.times - 0.75 * np.pi / 2)
        assert np.max(np.abs(out.values[:, 0] - expect)) <= 1e-8 * W1**0.75

    def test_reflection_duality(self, rng):
        u = random_band_limited(rng, N_DEFAULT, T_MIN, DT)
        lhs = right_derivative(u, A75)
        rhs = reflect(left_derivative(reflect(u), A75))
        assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-10 * np.max(np.abs(lhs.values))

    def test_linearity(self, rng):
        u = random_band_limited(rng, N_DEFAULT, T_MIN, DT)
        v = random_band_limited(rng, N_DEFAULT, T_MIN, DT)
        combo = u.with_values(2.0 * u.values - 0.5 * v.values)
        out = left_derivative(combo, A75)
        ref = 2.0 * left_derivative(u, A75).values - 0.5 * left_derivative(v, A75).values
        assert np.max(np.abs(out.values - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_aliasing_raises_imaginary_residue(self):
        # a pure alternating signal lives on the self-conjugate top bin, where a
        # complex one-sided symbol cannot produce a real output
        vals = (-1.0) ** np.arange(N_DEFAULT)
        u = SampledSignal(T_MIN, DT, vals)
        with pytest.raises(ValueError, match="imaginary residue"):
            left_derivative(u, A75)


class TestFullSpectrumReference:
    """Each operator against ``Re(ifft(symbol(w) * fft(u)))`` on the full spectrum."""

    @pytest.mark.parametrize("n_components", [1, 2])
    @pytest.mark.parametrize(
        "op, symbol",
        [
            (left_derivative, power_symbol(0.75, +1.0)),
            (right_derivative, power_symbol(0.75, -1.0)),
            (left_integral, power_symbol(-0.75, +1.0)),
            (riesz_composition, lambda w: np.abs(w) ** 1.5),
        ],
        ids=["left", "right", "integral", "riesz"],
    )
    def test_matches_full_spectrum(self, op, symbol, n_components):
        u = random_band_limited(random.Random(11), N_DEFAULT, T_MIN, DT, n_components)
        u = u.with_values(u.values - np.mean(u.values, axis=0))  # zero mean, as left_integral needs
        ref = full_spectrum_apply(u, symbol)
        out = op(u, A75).values
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestAliasingCheck:
    """``eps (-1)^j`` on a zero-mean band-limited signal: the derivatives' symbols leave
    an imaginary residue ``|Im m_nyq| |X_nyq| / N`` of about 4 eps relative, checked at 1e-10."""

    @staticmethod
    def with_nyquist(eps):
        u = random_band_limited(random.Random(3), N_DEFAULT, T_MIN, DT)
        nyquist = eps * (-1.0) ** np.arange(N_DEFAULT)
        return u.with_values(u.values[:, 0] - np.mean(u.values) + nyquist)

    @pytest.mark.parametrize("op", [left_derivative, right_derivative])
    def test_threshold(self, op):
        op(self.with_nyquist(1e-11), A75)
        with pytest.raises(ValueError, match="imaginary residue"):
            op(self.with_nyquist(3e-11), A75)

    def test_riesz_accepts_any_nyquist_content(self):
        nyquist = SampledSignal(T_MIN, DT, (-1.0) ** np.arange(N_DEFAULT))
        out = riesz_composition(nyquist, A75)
        expect = (np.pi / DT) ** 1.5 * nyquist.values
        assert np.max(np.abs(out.values - expect)) <= 1e-13 * np.max(np.abs(expect))
        riesz_composition(self.with_nyquist(1.0), A75)

    def test_wrong_multiplier_length_raises(self):
        with pytest.raises(ValueError, match="4096 entries.*2049 bins"):
            apply_multiplier(tone(), np.ones(N_DEFAULT))


class TestIntegral:
    def test_zero(self):
        assert np.all(left_integral(zero(), A75).values == 0)

    def test_sine_tone_closed_form(self):
        out = left_integral(tone(np.sin), A75)
        expect = W1 ** (-0.75) * np.sin(W1 * out.times - 0.75 * np.pi / 2)
        assert np.max(np.abs(out.values[:, 0] - expect)) <= 1e-8 * W1 ** (-0.75)

    def test_inverse_law_on_tone(self):
        u = tone(np.sin)
        back = left_derivative(left_integral(u, A75), A75)
        assert np.max(np.abs(back.values - u.values)) <= 1e-8

    def test_inverse_law_random_zero_mean(self, rng):
        u = random_band_limited(rng, N_DEFAULT, T_MIN, DT)
        vals = u.values - np.mean(u.values, axis=0)
        u = u.with_values(vals)
        back = left_derivative(left_integral(u, A75), A75)
        assert np.max(np.abs(back.values - u.values)) <= 1e-8 * np.max(np.abs(u.values))

    def test_nonzero_mean_rejected(self):
        u = SampledSignal(T_MIN, DT, np.ones(N_DEFAULT))
        with pytest.raises(ValueError, match="zero-frequency"):
            left_integral(u, A75)


class TestRieszComposition:
    def test_tone_eigenfunction(self):
        out = riesz_composition(tone(), A75)
        expect = W1**1.5 * np.cos(W1 * out.times)
        assert np.max(np.abs(out.values[:, 0] - expect)) <= 1e-10 * W1**1.5

    def test_matches_two_operator_path_on_gaussian(self):
        g = gaussian()
        one = riesz_composition(g, A75)
        two = right_derivative(left_derivative(g, A75), A75)
        assert np.max(np.abs(one.values - two.values)) <= 1e-10 * np.max(np.abs(one.values))

    def test_matches_two_operator_path_random(self, rng):
        u = random_band_limited(rng, N_DEFAULT, T_MIN, DT)
        one = riesz_composition(u, A75)
        two = right_derivative(left_derivative(u, A75), A75)
        assert np.max(np.abs(one.values - two.values)) <= 1e-10 * np.max(np.abs(one.values))


class TestQuadratureOracle:
    def test_zero(self):
        assert np.all(quadrature_left_derivative(zero(), A75).values == 0)

    def test_weights_match_alternating_binomial(self):
        w = grunwald_weights(0.6, 6)
        # (-1)^j C(a, j): 1, -a, a(a-1)/2, ...
        assert w[0] == 1.0
        assert w[1] == pytest.approx(-0.6, abs=1e-15)
        assert w[2] == pytest.approx(-0.6 * (1 - 0.6) / 2, abs=1e-15)
        assert w[3] == pytest.approx(w[2] * (2 - 0.6) / 3, abs=1e-15)

    def test_scaling_by_two_is_exact(self):
        g = gaussian()
        doubled = g.with_values(2.0 * g.values)
        assert np.array_equal(
            quadrature_left_derivative(doubled, A75).values,
            2.0 * quadrature_left_derivative(g, A75).values,
        )

    def test_general_scaling(self):
        g = gaussian()
        scaled = g.with_values(1.7 * g.values)
        out = quadrature_left_derivative(scaled, A75).values
        ref = 1.7 * quadrature_left_derivative(g, A75).values
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_non_decaying_rejected(self):
        u = SampledSignal(T_MIN, DT, np.ones(N_DEFAULT))
        with pytest.raises(ValueError, match="decay"):
            quadrature_left_derivative(u, A75)

    def test_fft_convolution_matches_direct_sum(self):
        # the oracle convolves by FFT at every size; the direct sum is the reference
        for n in (4096, 16384):
            t_min, dt = midpoint_grid(n, 64.0)
            times = t_min + dt * np.arange(n)
            vals = np.stack([np.exp(-(times**2)), np.exp(-((times - 1) ** 2))], axis=1)
            u = SampledSignal(t_min, dt, vals)
            weights = grunwald_weights(0.75, n + 1)
            out = quadrature_left_derivative(u, A75).values
            for c in range(2):
                conv = np.convolve(weights, u.values[:, c])[: n + 1]
                ref = ((1 - 0.375) * conv[:n] + 0.375 * conv[1:]) / dt**0.75
                assert np.max(np.abs(out[:, c] - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_agreement_half_order_at_dt_hundredth(self):
        # self-convergence: dt = 1e-2, then dt and the truncation both refined
        a = FracOrder(0.5)
        errs = []
        for n, dt in ((32768, 1e-2), (131072, 5e-3)):
            g = signal_from_function(
                lambda t: np.exp(-(t**2)), n, -n * dt / 2 + dt / 2, dt
            )
            spec = left_derivative(g, a)
            quad = quadrature_left_derivative(g, a)
            mid = np.abs(g.times) <= n * dt / 4
            ref = np.max(np.abs(spec.values[mid, 0]))
            errs.append(np.max(np.abs(spec.values[mid, 0] - quad.values[mid, 0])) / ref)
        assert errs[0] <= 1e-3
        assert errs[1] < errs[0]

    def test_agreement_three_quarters_order_tight(self):
        # frozen from the oracle study: 8.0e-5 at dt = 7.8e-3 on a 256-long domain
        g = gaussian(n=32768, domain=256.0)
        spec = left_derivative(g, A75)
        quad = quadrature_left_derivative(g, A75)
        mid = np.abs(g.times) <= 64.0
        ref = np.max(np.abs(spec.values[mid, 0]))
        err = np.max(np.abs(spec.values[mid, 0] - quad.values[mid, 0])) / ref
        assert err <= 1e-4


class TestSeminorm:
    def test_zero(self):
        assert seminorm_alpha(zero(), A75) == 0.0

    def test_tone_hand_computation(self):
        # Parseval on a pure tone: |u|_a = w^a * ||u||_L2 with ||u||_L2^2 = T/2
        u = tone()
        mass = N_DEFAULT * DT / 2
        expect = W1**0.75 * np.sqrt(mass)
        assert seminorm_alpha(u, A75) == pytest.approx(expect, rel=1e-12, abs=0)

    def test_matches_derivative_l2(self, rng):
        u = random_band_limited(rng, N_DEFAULT, T_MIN, DT, n_components=2)
        sn = seminorm_alpha(u, A75)
        assert abs(sn - l2_norm(left_derivative(u, A75))) <= 1e-10 * sn

    @pytest.mark.parametrize("n_components", [1, 2])
    def test_half_spectrum_sum_matches_full_spectrum(self, np_rng, n_components):
        # noise plus the Nyquist tone (-1)^j: the half-spectrum holds that bin once
        nyquist = (-1.0) ** np.arange(N_DEFAULT)
        values = np_rng.standard_normal((N_DEFAULT, n_components)) + nyquist[:, None]
        u = SampledSignal(T_MIN, DT, values)
        freqs = 2 * np.pi * np.fft.fftfreq(N_DEFAULT, d=DT)
        power = np.abs(np.fft.fft(values, axis=0)) ** 2
        full = np.sum(np.abs(freqs)[:, None] ** 1.5 * power) * DT / N_DEFAULT
        assert seminorm_alpha(u, A75) == pytest.approx(np.sqrt(full), rel=1e-13, abs=0)
