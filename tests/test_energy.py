import random

import numpy as np
import pytest
from scipy.linalg import solve_circulant
from scipy.optimize import minimize_scalar

from frachs import (
    AdmissibilityError,
    BoundError,
    HypothesisError,
    PotentialMatrix,
    Problem,
    ResolutionError,
    SampledSignal,
    SolverConfig,
    WeightError,
    WitnessError,
    default_problem,
    directional_derivative,
    evaluate_energy,
    gradient,
    l2_norm,
    lambda_norm,
    lower_bound,
    lower_bound_minimum,
    midpoint_grid,
    minimize,
    negative_energy_witness,
    pointwise_dot,
    power_nonlinearity,
    random_band_limited,
    riesz_composition,
    rotated_well_potential,
    signal_from_function,
    smooth_bump,
    solve_bvp,
    standard_normal,
    vanishing_well_potential,
    verify_growth,
    verify_potential,
    zero_nonlinearity,
)
from frachs.nonlinearity import Nonlinearity
from frachs.spaces import CheckReport, CheckResult

from conftest import DT, N_DEFAULT, T_MIN, full_spectrum_apply, wall_on_rotated_axes, zero_signal

TIMES = T_MIN + DT * np.arange(N_DEFAULT)


def _reference_verdict(name, slacks, magnitudes, times, amps, detail):
    """One check over all its ``(sample, t)`` slacks at once: it passes when each is at least
    -1e-12 times its magnitude; the least slack and its first ``(sample, t)`` give the
    margin, the location and the amplitude that ``detail`` names."""
    slacks, magnitudes = np.array(slacks), np.array(magnitudes)
    i, j = np.unravel_index(int(np.argmin(slacks)), slacks.shape)
    return CheckResult(
        name, bool(np.all(slacks >= -1e-12 * magnitudes)), float(slacks[i, j]),
        float(times[j]), detail.format(amps[i]),
    )


def _reference_growth_report(nl, times, core, n_components, seed):
    """``verify_growth`` as separate W1, W2 and difference loops, each evaluating
    its own gradients on ``(N, n)`` copies and judging the stacked samples at once:
    the reference the one-pass check must match."""
    dirs = standard_normal(random.Random(seed), 4 * n_components).reshape(4, n_components)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    amps = np.linspace(0.0, 2.0, 25)[1:]
    xi_vals = nl.xi_at(times)
    checks = []

    slacks, mags, sampled = [], [], []
    for d in dirs:
        for s in amps:
            u = np.broadcast_to(s * d, (len(times), n_components))
            g = nl.gradient(times, u)
            gmag = np.sqrt(pointwise_dot(g, g))
            bound = xi_vals * s ** (nl.p - 1.0)
            slacks.append(bound - gmag)
            mags.append(np.maximum(bound, gmag))
            sampled.append(s)
    checks.append(_reference_verdict(
        "W1-growth", slacks, mags, times, sampled,
        "|grad W| <= xi(t)|u|^(p-1); worst at |u| = {:.3g}",
    ))

    t_core = times[(times >= core[0]) & (times <= core[1])]
    small = amps[amps <= nl.delta]
    if small.size == 0:
        small = np.array([nl.delta / 2.0])
    slacks, mags, sampled = [], [], []
    for d in dirs:
        for s in small:
            u = np.broadcast_to(s * d, (len(t_core), n_components))
            w = np.abs(nl.density(t_core, u))
            lower = nl.eta * s**nl.nu
            slacks.append(w - lower)
            mags.append(np.maximum(w, lower))
            sampled.append(s)
    checks.append(_reference_verdict(
        "W2-lower-bound", slacks, mags, t_core, sampled,
        "|W| >= eta |u|^nu on the core; worst at |u| = {:.3g}",
    ))

    h = 1e-5
    slacks, sampled = [], []
    for d in dirs:
        for s in amps[amps >= 0.25]:
            u = np.broadcast_to(s * d, (len(times), n_components)).copy()
            g = nl.gradient(times, u)
            gmag = np.sqrt(pointwise_dot(g, g))
            gscale = max(float(np.max(gmag)), 1e-300)
            fd = np.empty_like(g)
            for c in range(n_components):
                up, dn = u.copy(), u.copy()
                up[:, c] += h
                dn[:, c] -= h
                fd[:, c] = (nl.density(times, up) - nl.density(times, dn)) / (2.0 * h)
            diff = fd - g
            err = np.sqrt(pointwise_dot(diff, diff))
            den = np.maximum(gmag, 1e-4 * gscale)
            slacks.append(1e-5 - err / den)
            sampled.append(s)
    checks.append(_reference_verdict(
        "gradient-consistency", slacks, np.full_like(np.array(slacks), 1e-5), times, sampled,
        "declared gradient vs centered differences of W away from u = 0",
    ))
    return CheckReport(tuple(checks))


class TestGrowthChecks:
    def test_default_family_passes_with_saturated_w1(self):
        nl = power_nonlinearity()
        report = verify_growth(nl, TIMES, (0.0, 0.5))
        assert report.passed, report.failed_names()
        w1 = next(c for c in report.checks if c.name == "W1-growth")
        # the default family meets the bound with equality
        assert abs(w1.worst_margin) <= 1e-12

    def test_large_weight_passes_saturated_w1(self):
        # the family meets W1 with equality, so at xi_scale = 1e4 the slack is rounding of
        # a bound near 1e4, beyond 1e-12 in absolute terms but not relative to the bound
        report = verify_growth(power_nonlinearity(xi_scale=1e4), TIMES, (0.0, 0.5))
        assert report.passed, report.failed_names()
        w1 = next(c for c in report.checks if c.name == "W1-growth")
        assert w1.worst_margin < -1e-12

    @pytest.mark.parametrize("xi_scale", [1.0, 1e4])
    def test_gradient_barely_too_large_fails_w1(self, xi_scale):
        # a gradient 1e-9 too large, relatively, is a violation at every scale
        base = power_nonlinearity(xi_scale=xi_scale)
        steep = Nonlinearity(
            density=base.density,
            gradient=lambda t, u: (1.0 + 1e-9) * base.gradient(t, u),
            p=base.p, xi=base.xi, eta=base.eta, delta=base.delta, nu=base.nu,
        )
        assert "W1-growth" in verify_growth(steep, TIMES, (0.0, 0.5)).failed_names()

    def test_regularized_variant_passes(self):
        nl = power_nonlinearity(eps=1e-6)
        report = verify_growth(nl, TIMES, (0.0, 0.5))
        assert report.passed, report.failed_names()

    def test_quadratic_density_fails_gradient_growth(self):
        nl = Nonlinearity(
            density=lambda t, u: np.sum(u**2, axis=1),
            gradient=lambda t, u: 2.0 * u,
            p=1.5,
            xi=lambda t: np.exp(-(t**2) / 10.0),
            eta=0.1,
            delta=1.0,
            nu=1.5,
        )
        report = verify_growth(nl, TIMES, (0.0, 0.5))
        assert "W1-growth" in report.failed_names()

    def test_zero_density_fails_lower_bound(self):
        report = verify_growth(zero_nonlinearity(), TIMES, (0.0, 0.5))
        assert "W2-lower-bound" in report.failed_names()

    def test_inconsistent_gradient_detected(self):
        base = power_nonlinearity()
        lying = Nonlinearity(
            density=base.density,
            gradient=lambda t, u: 1.5 * base.gradient(t, u),
            p=base.p, xi=base.xi, eta=base.eta, delta=base.delta, nu=base.nu,
        )
        report = verify_growth(lying, TIMES, (0.0, 0.5))
        assert "gradient-consistency" in report.failed_names()

    def test_sample_evaluation_counts(self):
        # one gradient per (direction, amplitude) sample; the difference check
        # adds two full-grid densities per component at the 22 amplitudes >= 0.25
        base = power_nonlinearity()
        n, calls = 2, {"gradient": 0, "full": 0, "core": 0}

        def gradient(t, u):
            calls["gradient"] += 1
            return base.gradient(t, u)

        def density(t, u):
            calls["full" if len(t) == N_DEFAULT else "core"] += 1
            return base.density(t, u)

        counted = Nonlinearity(
            density=density, gradient=gradient,
            p=base.p, xi=base.xi, eta=base.eta, delta=base.delta, nu=base.nu,
        )
        verify_growth(counted, TIMES, (0.0, 0.5), n_components=n)
        # W2 samples the 12 amplitudes <= delta = 1 on the core
        assert calls == {"gradient": 4 * 24, "full": 4 * 22 * 2 * n, "core": 4 * 12}

    @staticmethod
    def sampled_directions(n, seed):
        """The directions ``verify_growth`` samples, and the W1 rows ``s * d`` it evaluates."""
        base, rows = power_nonlinearity(), []

        def gradient(t, u):
            rows.append(u[0].copy())
            return base.gradient(t, u)

        recorder = Nonlinearity(
            density=base.density, gradient=gradient,
            p=base.p, xi=base.xi, eta=base.eta, delta=base.delta, nu=base.nu,
        )
        verify_growth(recorder, TIMES, (0.0, 0.5), n_components=n, seed=seed)
        amps = np.linspace(0.0, 2.0, 25)[1:]
        rows = np.array(rows).reshape(4, len(amps), n)
        return rows[:, -1] / amps[-1], rows

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_directions_have_unit_norm(self, n):
        dirs, rows = self.sampled_directions(n, seed=0)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=1e-15, atol=0.0)
        amps = np.linspace(0.0, 2.0, 25)[1:]
        # every amplitude scales the same direction
        assert np.array_equal(rows, amps[None, :, None] * dirs[:, None, :])

    @pytest.mark.parametrize("n", [1, 2])
    def test_same_seed_gives_equal_directions(self, n):
        a, b = (self.sampled_directions(n, seed=3)[1] for _ in range(2))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, self.sampled_directions(n, seed=4)[1])

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", ["power", "power-regularized", "zero", "lying"])
    def test_matches_reference_loops(self, name, n, seed):
        base = power_nonlinearity()
        nl = {
            "power": base,
            "power-regularized": power_nonlinearity(eps=0.3),
            "zero": zero_nonlinearity(),
            "lying": Nonlinearity(
                density=base.density,
                gradient=lambda t, u: 1.5 * base.gradient(t, u),
                p=base.p, xi=base.xi, eta=base.eta, delta=base.delta, nu=base.nu,
            ),
        }[name]
        t_min, dt = midpoint_grid(1024, 32.0)
        times = t_min + dt * np.arange(1024)
        got = verify_growth(nl, times, (0.0, 0.5), n_components=n, seed=seed)
        ref = _reference_growth_report(nl, times, (0.0, 0.5), n, seed)
        assert len(got.checks) == len(ref.checks)
        for a, b in zip(got.checks, ref.checks):
            assert (a.name, a.passed, a.detail) == (b.name, b.passed, b.detail)
            assert a.worst_margin == b.worst_margin
            assert a.location == b.location

    def test_nu_below_p_rejected(self):
        with pytest.raises(ValueError, match="nu"):
            power_nonlinearity(p=1.5, nu=1.2)


class TestPowerFamily:
    @pytest.mark.parametrize("n", [1, 2])
    def test_unregularized_matches_closed_form_bits(self, np_rng, n):
        # eps = 0: xi |u|^p / p and xi |u|^(p-2) u in the same operation order, and
        # exact zeros on the rows where u = 0, at which |u|^(p-2) is singular
        nl = power_nonlinearity()
        u = np_rng.standard_normal((N_DEFAULT, n))
        zero = np.zeros(N_DEFAULT, dtype=bool)
        zero[::7] = True
        u[zero] = 0.0
        u[::14] = -0.0
        xi = nl.xi_at(TIMES)
        mag2 = np.sum(u**2, axis=1)
        density = xi * mag2 ** (nl.p / 2.0) / nl.p
        factor = np.where(zero, 0.0, np.where(zero, 1.0, mag2) ** ((nl.p - 2.0) / 2.0))
        grad = (xi * factor)[:, None] * u
        got_density, got_grad = nl.density(TIMES, u), nl.gradient(TIMES, u)
        assert np.array_equal(got_density, density)
        assert np.array_equal(got_grad, grad)
        assert np.all(got_density[zero] == 0.0) and np.all(got_grad[zero] == 0.0)

    @pytest.mark.parametrize("eps", [1e-160, 1e-6, 1e-3, 0.3, 1e120])
    @pytest.mark.parametrize("p", [1.2, 1.5, 1.95])
    def test_regularized_density_of_zero_is_exactly_zero(self, p, eps):
        # (eps^2)^(p/2) and eps^p round apart: at (1e-3, 1.2) their difference is negative
        density = power_nonlinearity(p=p, eps=eps).density(TIMES, np.zeros((N_DEFAULT, 2)))
        assert np.all(density == 0.0) and not np.any(np.signbit(density))

    def test_regularized_window_has_no_outside_energy(self):
        prob = default_problem(nonlinearity=power_nonlinearity(eps=0.3))
        assert prob.restricted(prob.potential.core).outside == 0.0


class TestHessianAt:
    """``hessian_at`` coefficients against centered differences of ``gradient``."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize(
        "nl",
        [power_nonlinearity(), power_nonlinearity(eps=0.3), zero_nonlinearity()],
        ids=["power", "power-regularized", "zero"],
    )
    def test_matches_centered_differences(self, nl, n, np_rng):
        # |u| in [0.5, 1.5]: away from the power family's singular point u = 0
        dirs = np_rng.standard_normal((N_DEFAULT, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        u = np_rng.uniform(0.5, 1.5, (N_DEFAULT, 1)) * dirs
        v = np_rng.standard_normal((N_DEFAULT, n))
        f, g = nl.hessian_at(TIMES, u)
        assert f.shape == g.shape == (N_DEFAULT,)
        action = f[:, None] * v + (g * np.sum(u * v, axis=1))[:, None] * u
        h = 1e-6
        fd = (nl.gradient(TIMES, u + h * v) - nl.gradient(TIMES, u - h * v)) / (2.0 * h)
        scale = np.max(np.abs(fd))
        if scale == 0.0:
            assert np.all(action == 0.0)
        else:
            assert np.max(np.abs(action - fd)) <= 1e-6 * scale

    def test_missing_hessian_named_when_used(self):
        nl = Nonlinearity(
            density=lambda t, u: np.zeros(len(t)),
            gradient=lambda t, u: np.zeros_like(u),
            p=1.5, xi=lambda t: np.zeros_like(t), eta=1.0, delta=1.0, nu=1.5,
        )
        with pytest.raises(NotImplementedError, match="hessian_at"):
            nl.hessian_at(TIMES, np.ones((N_DEFAULT, 1)))


class TestEnergy:
    def test_zero_signal_zero_energy(self, prob):
        assert evaluate_energy(zero_signal(prob), prob) == 0.0

    def test_scaling_identity_term_by_term(self, prob):
        u0, s = negative_energy_witness(prob)
        scaled = u0.with_values(s * u0.values)
        total = evaluate_energy(scaled, prob)
        quad = 0.5 * s**2 * prob.form(u0.values, u0.values)
        w_term = prob.dt * np.sum(prob.nonlinearity.density(prob.times, s * u0.values))
        assert total == pytest.approx(quad - w_term, abs=1e-12 * max(abs(total), 1.0))

    def test_nan_density_reported_with_location(self, prob):
        bad = Nonlinearity(
            density=lambda t, u: np.where(np.abs(t) < 0.1, np.nan, 0.0),
            gradient=lambda t, u: np.zeros_like(u),
            p=1.5, xi=lambda t: np.zeros_like(t), eta=1.0, delta=1.0, nu=1.5,
        )
        from frachs import Problem

        bad_prob = Problem(
            prob.order, prob.n_samples, prob.t_min, prob.dt,
            prob.potential, bad, prob.lam, prob.constants,
        )
        with pytest.raises(ValueError, match="not finite at t"):
            evaluate_energy(zero_signal(bad_prob), bad_prob)


class TestDirectionalDerivative:
    def test_zero_base_point(self, prob, rng):
        phi = random_band_limited(rng, N_DEFAULT, T_MIN, DT)
        assert directional_derivative(zero_signal(prob), phi, prob) == pytest.approx(0.0, abs=1e-15)

    def test_direction_equal_to_point(self, prob, rng):
        u = random_band_limited(rng, N_DEFAULT, T_MIN, DT)
        lhs = directional_derivative(u, u, prob)
        grad_w = prob.nonlinearity.gradient(prob.times, u.values)
        rhs = prob.form(u.values, u.values) - prob.dt * np.sum(grad_w * u.values)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=0)

    def test_matches_central_differences(self, prob, rng):
        h = 1e-5
        for _ in range(10):
            u = random_band_limited(rng, N_DEFAULT, T_MIN, DT)
            phi = random_band_limited(rng, N_DEFAULT, T_MIN, DT)
            dd = directional_derivative(u, phi, prob)
            up = evaluate_energy(u.with_values(u.values + h * phi.values), prob)
            dn = evaluate_energy(u.with_values(u.values - h * phi.values), prob)
            fd = (up - dn) / (2 * h)
            assert abs(fd - dd) <= 1e-5 * max(abs(dd), 1e-6)

    def test_grid_mismatch_rejected(self, prob):
        phi = SampledSignal(0.0, 0.5, np.zeros(8))
        with pytest.raises(ValueError):
            directional_derivative(zero_signal(prob), phi, prob)

    def test_component_mismatch_rejected(self):
        # phi is checked by the rule u is: one component on the two-component preset
        rotated = default_problem(n_samples=1024, potential=rotated_well_potential())
        phi = SampledSignal(rotated.t_min, rotated.dt, np.zeros(rotated.n_samples))
        with pytest.raises(ValueError, match="^signal has 1 components, problem has 2$"):
            directional_derivative(zero_signal(rotated), phi, rotated)


class TestGradient:
    def test_zero_point(self, prob):
        g = gradient(zero_signal(prob), prob)
        assert np.all(g.values == 0)

    def test_nan_gradient_reported_with_location(self, prob):
        bad = Nonlinearity(
            density=lambda t, u: np.zeros(len(t)),
            gradient=lambda t, u: np.where(np.abs(t)[:, None] < 0.1, np.nan, 0.0),
            p=1.5, xi=lambda t: np.zeros_like(t), eta=1.0, delta=1.0, nu=1.5,
        )
        from frachs import Problem

        bad_prob = Problem(
            prob.order, prob.n_samples, prob.t_min, prob.dt,
            prob.potential, bad, prob.lam, prob.constants,
        )
        with pytest.raises(ValueError, match=r"non-finite sample at t=-0\.0976"):
            gradient(zero_signal(bad_prob), bad_prob)

    def test_riesz_representation(self, prob, rng):
        u = random_band_limited(rng, N_DEFAULT, T_MIN, DT)
        g = gradient(u, prob)
        for _ in range(20):
            phi = random_band_limited(
                rng, N_DEFAULT, T_MIN, DT, band_fraction=rng.uniform(0.02, 0.5)
            )
            dd = directional_derivative(u, phi, prob)
            inner = prob.dt * np.sum(g.values * phi.values)
            assert abs(inner - dd) <= 1e-8 * max(abs(dd), 1e-8)

    def test_high_tone_dominated_by_principal_term(self, prob):
        # bound from the growth data: the weight and nonlinear parts are
        # controlled by lam*max|L| and max(xi)*|u|^(p-2), both << w1^(2a)
        m = 1600
        w1 = 2 * np.pi * m / (N_DEFAULT * DT)
        u = signal_from_function(lambda t: np.cos(w1 * t), N_DEFAULT, T_MIN, DT)
        g = gradient(u, prob)
        principal = riesz_composition(u, prob.order)
        wall = float(np.max(np.abs(prob.potential.matrix_at(prob.times))))
        bound = (prob.lam * wall + np.max(prob.nonlinearity.xi_at(prob.times))) / w1**1.5
        rel = l2_norm(g.with_values(g.values - principal.values)) / l2_norm(principal)
        assert rel <= bound
        assert bound < 0.12


@pytest.fixture(scope="module", params=["default", "rotated"])
def operator_case(request, prob, rng):
    """A problem and two full-band random signals (Nyquist bin included) on its grid,
    for the 1x1 and the 2x2 preset."""
    if request.param == "rotated":
        prob = default_problem(potential=rotated_well_potential())
    u, v = (
        random_band_limited(rng, N_DEFAULT, T_MIN, DT, prob.n_components, band_fraction=1.0)
        for _ in range(2)
    )
    return prob, u, v


def _mean_wall_shift(prob):
    """``max(1, mean of lam diag L(t))`` over the whole grid, from the potential itself."""
    matrix = prob.potential.matrix_at(prob.times)
    diag = np.stack([matrix[:, i, i] for i in range(prob.n_components)], axis=1)
    return max(1.0, prob.lam * float(np.mean(diag)))


def _rel_err(x, ref):
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


class TestOperator:
    """``Problem.form``/``apply``/``precondition`` against the signal-level references."""

    def test_form_matches_lambda_norm(self, operator_case):
        prob, u, _ = operator_case
        ref = lambda_norm(u, prob.potential, prob.lam, prob.order) ** 2
        assert prob.form(u.values, u.values) == pytest.approx(ref, rel=1e-12, abs=0)

    def test_apply_matches_riesz_composition(self, operator_case):
        # the Riesz composition |w|^(2a) over the full complex spectrum, plus lam L u
        prob, u, _ = operator_case
        weighted = np.einsum("nij,nj->ni", prob.potential.matrix_at(u.times), u.values)
        kinetic = full_spectrum_apply(u, lambda w: np.abs(w) ** prob.order.doubled)
        ref = kinetic + prob.lam * weighted
        assert _rel_err(prob.apply(u.values), ref) <= 1e-12

    def test_kinetic_block_is_riesz_composition(self, operator_case):
        # riesz_composition applies the very table the operator's kinetic block holds
        prob, u, _ = operator_case
        kinetic = np.fft.irfft(prob.kinetic * np.fft.rfft(u.values, axis=0), prob.n_samples, axis=0)
        assert np.array_equal(riesz_composition(u, prob.order).values, kinetic)

    def test_apply_represents_form(self, operator_case):
        prob, u, v = operator_case
        form = prob.form(u.values, v.values)
        assert form == pytest.approx(prob.form(v.values, u.values), rel=1e-12, abs=0)
        assert form == pytest.approx(
            prob.dt * np.sum(u.values * prob.apply(v.values)), rel=1e-10, abs=0
        )

    def test_precondition_sums_block_inverses(self, operator_case):
        # P x = (c + |w|^(2a))^(-1) x + R (1 + |w|^(2a))^(-1) R x, R the samples where
        # diag L = 0; each block is solved as the circulant whose first column is
        # riesz_composition of a unit impulse, plus the shift
        prob, u, _ = operator_case
        impulse = np.zeros((prob.n_samples, 1))
        impulse[0] = 1.0
        column = riesz_composition(SampledSignal(T_MIN, DT, impulse), prob.order).values[:, 0]

        def block_inverse(shift, x):
            return solve_circulant(column + shift * impulse[:, 0], x)

        wall_free = _wall_free(prob)
        assert 0 < np.count_nonzero(wall_free) < wall_free.size
        x = u.values
        core = block_inverse(1.0, np.where(wall_free, x, 0.0))
        ref = block_inverse(_mean_wall_shift(prob), x) + np.where(wall_free, core, 0.0)
        assert _rel_err(prob.precondition(x), ref) <= 1e-12

    def test_precondition_matches_the_masked_formula(self, operator_case):
        # the line's second block on its window against the same block taken over all N
        # samples behind masks: rounding apart, the window block is the masked one
        prob, u, _ = operator_case
        assert _rel_err(prob.precondition(u.values), _masked_precondition(prob, u.values)) <= 1e-13

    def test_shift_is_the_mean_wall_over_free_samples(self, operator_case):
        # c = max(1, mean lam diag L) over every (N, n) entry: far above 1 where the
        # wall fills the line, 1 on the core where L = 0
        prob, _, _ = operator_case
        c = _mean_wall_shift(prob)
        assert c > 100.0
        assert prob.shift() == pytest.approx(c, rel=1e-14, abs=0)
        assert np.array_equal(prob.precond, 1.0 / (prob.shift() + prob.kinetic))
        assert prob.restricted((0.0, 0.5)).shift() == 1.0
        assert prob.with_lam(1e-6).shift() == 1.0

    @pytest.mark.parametrize("factor", [1.0, 1000.0])
    def test_precondition_symmetric_positive(self, operator_case, factor):
        # in the L2(dt) inner product, also at a weight where the wall dominates the Hessian
        prob, u, v = operator_case
        prob = prob.with_lam(factor * prob.lam)
        x, y = u.values, v.values
        xpy = prob.dt * np.sum(x * prob.precondition(y))
        assert xpy == pytest.approx(prob.dt * np.sum(prob.precondition(x) * y), rel=1e-12, abs=0)
        assert prob.dt * np.sum(x * prob.precondition(x)) > 0.0
        assert prob.dt * np.sum(y * prob.precondition(y)) > 0.0

    def test_with_lam_shares_arrays(self, prob):
        other = prob.with_lam(3.0 * prob.lam)
        assert other.lam == 3.0 * prob.lam
        assert other.matrix_entries is prob.matrix_entries
        assert other.kinetic is prob.kinetic
        with pytest.raises(ValueError, match="positive"):
            prob.with_lam(0.0)

    def test_with_lam_reweights_the_free_window(self, prob):
        # the block window keeps its rows and weight-free arrays and takes the new weight
        other = prob.with_lam(3.0 * prob.lam)
        assert other.free is not prob.free and other.free.lam == other.lam
        assert other.free.rows == prob.free.rows and other.free.line is prob
        assert other.free.kinetic is prob.free.kinetic
        assert np.array_equal(other.free.precond, prob.free.precond)  # c = 1 at every weight
        assert prob.free.lam == prob.lam


class TestRestricted:
    """``Problem.restricted``: the same functional on the signals vanishing outside the core,
    as a problem on the window of samples inside it."""

    def test_derivatives_vanish_outside_the_open_core(self, prob, rng):
        restricted = prob.restricted((0.0, 0.5))
        outside = (prob.times <= 0.0) | (prob.times >= 0.5)
        assert np.array_equal(restricted.times, prob.times[~outside])
        u, v = (random_band_limited(rng, N_DEFAULT, T_MIN, DT).values for _ in range(2))
        vals = 0.1 * np.where(outside[:, None], 0.0, u)
        window, v_window = vals[restricted.rows], v[restricted.rows]
        for out in (
            restricted.grad(window), restricted.hessian(window)(v_window),
            restricted.precondition(v_window),
        ):
            extended = restricted.extend(out).values
            assert np.all(extended[outside] == 0.0)
            assert np.any(extended[~outside] != 0.0)
        # the same functional: on the core the restriction changes nothing
        assert restricted.energy(window) == pytest.approx(prob.energy(vals), rel=1e-13, abs=0)
        assert _rel_err(restricted.grad(window), prob.grad(vals)[~outside]) <= 1e-13

    def test_with_lam_keeps_free_and_leaves_the_parent(self, prob):
        # the weight is the only change: the window and its weight-free arrays are shared
        restricted = prob.restricted((0.0, 0.5))
        other = restricted.with_lam(100.0 * prob.lam)
        assert other.rows == restricted.rows and other.line is restricted.line is prob
        for name in ("times", "matrix_entries", "kinetic"):
            assert getattr(other, name) is getattr(restricted, name)
            assert not getattr(other, name).flags.writeable
        assert prob.line is None and prob.rows is None
        assert restricted.free is None and other.free is None  # a window has no block window
        assert other.shift() == 1.0
        assert np.array_equal(prob.precond, 1.0 / (prob.shift() + prob.kinetic))

    def test_precond_is_the_unshifted_kinetic_inverse(self, prob):
        # on the core L = 0, so the shift is 1 and the shifted block is the core block
        restricted = prob.restricted((0.0, 0.5))
        assert restricted.shift() == 1.0
        assert np.array_equal(
            restricted.precond, restricted._window_symbol(1.0 / (1.0 + prob.kinetic))
        )

    def test_precondition_is_the_one_block(self, operator_case):
        # a window holds no block window: its preconditioner is its shifted block alone
        prob, u, _ = operator_case
        restricted = prob.restricted((0.0, 0.5))
        assert restricted.free is None
        x = u.values[restricted.rows]
        m, n_fft = restricted.n_samples, restricted.n_fft
        spectrum = restricted.precond * np.fft.rfft(x, n_fft, axis=0)
        block = np.fft.irfft(spectrum, n_fft, axis=0)[:m]
        assert np.array_equal(restricted.precondition(x), block)

    def test_interval_without_samples_raises(self, prob):
        # dt = 1/128 puts no sample strictly inside (0.001, 0.002)
        with pytest.raises(ResolutionError, match="holds no grid sample"):
            prob.restricted((0.001, 0.002))


@pytest.fixture(
    scope="module",
    params=["default", "rotated", "off-origin", "one-sample", "wider-than-half"],
)
def window_case(request, prob):
    """A whole-line problem, the interval of its window and the expected
    ``(m, n_fft)``: the smallest power of two >= 2m - 1, or N."""
    interval, expected = (0.0, 0.5), (64, 128)
    if request.param == "rotated":
        prob = default_problem(potential=rotated_well_potential(), n_samples=8192)
        expected = (128, 256)
    elif request.param == "off-origin":
        interval, expected = (0.1, 0.5), (51, 128)
        prob = default_problem(
            potential=vanishing_well_potential(core=interval),
            nonlinearity=power_nonlinearity(core=interval),
        )
    elif request.param == "one-sample":
        interval, expected = (0.0, DT), (1, 1)
    elif request.param == "wider-than-half":
        # 2m - 1 >= N, and the window reaches into the wall
        interval, expected = (-10.0, 10.0), (2560, N_DEFAULT)
    return prob, interval, expected


class TestWindow:
    """The window problem's kernels are the whole line's restricted to the window:
    the whole-line kernel on the zero-extended input, sliced to the window."""

    @staticmethod
    def _signals(prob, window, count, seed):
        """``count`` random signals that vanish outside the window, whole-line and window-sized."""
        rng = random.Random(seed)
        inside = np.zeros((prob.n_samples, 1), dtype=bool)
        inside[window.rows] = True
        out = []
        for _ in range(count):
            u = random_band_limited(
                rng, prob.n_samples, prob.t_min, prob.dt, prob.n_components, band_fraction=0.3
            ).values
            u = np.where(inside, u, 0.0)
            out.append((u, u[window.rows]))
        return out

    def test_window_and_embedding_length(self, window_case):
        prob, interval, expected = window_case
        window = prob.restricted(interval)
        assert (window.n_samples, window.n_fft) == expected
        inside = np.flatnonzero((prob.times > interval[0]) & (prob.times < interval[1]))
        assert (window.rows.start, window.rows.stop) == (inside[0], inside[-1] + 1)
        assert window.kinetic.shape == (window.n_fft // 2 + 1, prob.n_components)
        assert window.coercivity == prob.coercivity  # the floor stays the whole line's

    def test_kernels_match_the_whole_line(self, window_case):
        prob, interval, _ = window_case
        window = prob.restricted(interval)
        (x, xw), (v, vw) = self._signals(prob, window, 2, seed=7)
        vals, vals_w = 0.1 * x, 0.1 * xw
        rows = window.rows
        assert _rel_err(window.apply(xw), prob.apply(x)[rows]) <= 1e-13
        assert _rel_err(window.grad(vals_w), prob.grad(vals)[rows]) <= 1e-13
        assert _rel_err(window.hessian(vals_w)(vw), prob.hessian(vals)(v)[rows]) <= 1e-13
        assert window.energy(vals_w) == pytest.approx(prob.energy(vals), rel=1e-13, abs=0)
        ref = _whole_line_restricted_precondition(prob, window, x)[rows]
        assert _rel_err(window.precondition(xw), ref) <= 1e-13

    def test_back_to_back_preconditions(self, window_case):
        # one scratch for both calls: the second transform must see zero padding,
        # whatever the first left in the work arrays
        prob, interval, _ = window_case
        window = prob.restricted(interval)
        (x, xw), (y, yw) = self._signals(prob, window, 2, seed=11)
        work, out = window._scratch(), np.empty_like(xw)
        for full, part in ((x, xw), (y, yw), (x, xw)):
            ref = _whole_line_restricted_precondition(prob, window, full)[window.rows]
            assert _rel_err(window._precondition_into(part, out, work), ref) <= 1e-13

    def test_minimizer_energy_matches_the_whole_line(self):
        # a smooth minimizer's form is about 700 times below the kinetic kernel's
        # largest entry times ||u||^2 at N = 8192, and the window's symbol carries that
        # entry's rounding: 3.0e-13 measured, against 1e-12 allowed for c_tilde
        prob = default_problem(n_samples=8192)
        res = solve_bvp(prob, SolverConfig())
        assert res.energy == pytest.approx(prob.energy(res.u.values), rel=1e-12, abs=0)

    def test_outside_energy_is_one_constant(self, prob):
        # W(t, 0) != 0: the samples outside the window add their integral to every energy
        nl = prob.nonlinearity
        lifted = Nonlinearity(
            density=lambda t, u: nl.density(t, u) + nl.xi(t), gradient=nl.gradient,
            hessian_at=nl.hessian_at, p=nl.p, xi=nl.xi, eta=nl.eta, delta=nl.delta, nu=nl.nu,
        )
        line = Problem(
            prob.order, prob.n_samples, prob.t_min, prob.dt,
            prob.potential, lifted, prob.lam, prob.constants,
        )
        window = line.restricted((0.0, 0.5))
        outside = np.ones(prob.n_samples, dtype=bool)
        outside[window.rows] = False
        ref = prob.dt * np.sum(nl.xi(prob.times[outside]))
        assert window.outside == pytest.approx(ref, rel=1e-13, abs=0)
        ((x, xw),) = self._signals(line, window, 1, seed=3)
        assert window.energy(0.1 * xw) == pytest.approx(line.energy(0.1 * x), rel=1e-13, abs=0)

    def test_extend_writes_exact_zeros(self, prob):
        window = prob.restricted((0.0, 0.5))
        vals = np.full((window.n_samples, 1), -2.5)
        u = window.extend(vals)
        assert (u.t_min, u.dt, u.n_samples) == (prob.t_min, prob.dt, prob.n_samples)
        assert np.array_equal(u.values[window.rows], vals)
        assert np.count_nonzero(u.values) == window.n_samples
        assert not np.any(np.signbit(u.values[u.values == 0.0]))

    def test_a_window_is_not_restricted_again(self, prob):
        with pytest.raises(ValueError, match="whole-line"):
            prob.restricted((0.0, 0.5)).restricted((0.1, 0.2))


def _whole_line_restricted_precondition(prob, window, x):
    """``(c + |w|^(2a))^(-1) x`` on the whole line, ``c`` the window's shift and ``x``
    zero outside the window: the window block applied with the whole line's transforms."""
    spectrum = np.fft.rfft(x, axis=0) / (window.shift() + prob.kinetic)
    return np.fft.irfft(spectrum, prob.n_samples, axis=0)


def _wall_free(prob):
    """The ``(N, n)`` mask of the entries where ``diag L(t) = 0``, from the potential itself."""
    return np.diagonal(prob.potential.matrix_at(prob.times), axis1=1, axis2=2) == 0.0


def _masked_precondition(prob, x):
    """``(c + |w|^(2a))^(-1) x + R (1 + |w|^(2a))^(-1) R x`` on the whole line, ``R`` the
    mask of :func:`_wall_free`, each block an N-point transform: the line's
    preconditioner as it was before its second block ran on the window ``free``."""
    out = np.fft.irfft(prob.precond * np.fft.rfft(x, axis=0), prob.n_samples, axis=0)
    wall_free = _wall_free(prob)
    core = np.fft.rfft(np.where(wall_free, x, 0.0), axis=0) / (1.0 + prob.kinetic)
    return out + np.where(wall_free, np.fft.irfft(core, prob.n_samples, axis=0), 0.0)


def _symmetric_3x3_potential() -> PotentialMatrix:
    """The scalar wall times a symmetric positive definite 3x3 matrix with distinct
    off-diagonal entries and a t-dependent diagonal."""
    base = vanishing_well_potential()
    m = np.array([[2.0, 0.3, -0.2], [0.3, 1.5, 0.7], [-0.2, 0.7, 3.0]])

    def matrix(t):
        wall = base.matrix_at(t)[:, 0, 0]
        return wall[:, None, None] * (m + 0.1 * np.cos(t)[:, None, None] * np.eye(3))

    return PotentialMatrix(3, matrix, base.envelope, base.threshold, base.well, base.core)


class TestEnvelopeEigenvalue:
    def test_3x3_potential_reports_the_lapack_margin(self):
        # n >= 3 has no closed form here: the L1-envelope check is eigvalsh's, bit for bit
        pot = _symmetric_3x3_potential()
        (got,) = [c for c in verify_potential(pot, TIMES).checks if c.name == "L1-envelope"]
        gaps = np.linalg.eigvalsh(pot.matrix_at(TIMES))[:, 0] - pot.envelope_at(TIMES)
        j = int(np.argmin(gaps))
        assert got == CheckResult(
            "L1-envelope", bool(gaps[j] >= -1e-12), float(gaps[j]), float(TIMES[j]), got.detail
        )
        assert got.passed


class TestColumnKernels:
    """The per-column kernels reproduce the numpy reductions and broadcasts they replace."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pointwise_dot_matches_axis_sum(self, n, np_rng):
        x, y = np_rng.standard_normal((2, N_DEFAULT, n))
        x[:7] = -0.0  # signed-zero products: numpy's sum starts from +0
        y[:7] = np.array([-1.0, 1.0, 0.0, -0.0, 2.0, -2.0, -0.0])[:, None]
        ref = np.sum(x * y, axis=1)
        got = pointwise_dot(x, y)
        assert got.shape == (N_DEFAULT,)
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))
        # a broadcast row, as verify_growth passes it, and a square
        d = np_rng.standard_normal(n)
        row = np.broadcast_to(0.7 * d, (N_DEFAULT, n))
        assert np.array_equal(pointwise_dot(row, y), np.sum(row * y, axis=1))
        assert np.array_equal(pointwise_dot(x, x), np.sum(x**2, axis=1))

    def test_apply_matches_einsum_bits(self, operator_case):
        prob, u, _ = operator_case
        x = u.values
        # the multiplier as one column broadcast over the components, as before
        kinetic = prob.kinetic[:, :1]
        spectral = np.fft.irfft(kinetic * np.fft.rfft(x, axis=0), prob.n_samples, axis=0)
        ref = spectral + prob.lam * np.einsum("nij,nj->ni", prob.potential.matrix_at(prob.times), x)
        got = prob.apply(x)
        assert got.flags.c_contiguous
        assert np.array_equal(got, ref)

    def test_apply_on_3x3_potential(self, rng):
        prob = default_problem(potential=_symmetric_3x3_potential())
        x = random_band_limited(rng, N_DEFAULT, T_MIN, DT, 3, band_fraction=1.0).values
        assert prob.matrix_entries.shape == (3, 3, N_DEFAULT)
        assert prob.kinetic.shape == prob.precond.shape == (N_DEFAULT // 2 + 1, 3)
        x_hat = np.fft.rfft(x, axis=0)
        spectral = np.fft.irfft(prob.kinetic[:, :1] * x_hat, prob.n_samples, axis=0)
        ref = spectral + prob.lam * np.einsum("nij,nj->ni", prob.potential.matrix_at(prob.times), x)
        assert _rel_err(prob.apply(x), ref) <= 1e-14

    def test_hessian_action_matches_broadcast_form(self, operator_case):
        prob, u, v = operator_case
        vals = 0.1 * u.values
        f, g = prob.nonlinearity.hessian_at(prob.times, vals)
        uv = np.sum(vals * v.values, axis=1, keepdims=True)
        ref = prob.apply(v.values) - (f[:, None] * v.values + uv * (g[:, None] * vals))
        assert np.array_equal(prob.hessian(vals)(v.values), ref)


def _allocating_precondition(prob, x):
    """:meth:`Problem.precondition` with every block on freshly allocated arrays:
    the reference the in-place kernel must match bit for bit."""

    def block(p, y):
        spectrum = p.precond * np.fft.rfft(y, p.n_fft, axis=0)
        return np.fft.irfft(spectrum, p.n_fft, axis=0)[: p.n_samples]

    out = block(prob, x)
    if prob.free is not None:
        out[prob.free.rows] += block(prob.free, x[prob.free.rows])
    return out


def _on_core(prob, restricted, values):
    """``prob`` or its window on the core, and ``values`` on that problem's grid."""
    if not restricted:
        return prob, values
    window = prob.restricted(prob.potential.core)
    return window, values[window.rows]


class TestWorkArrays:
    """The kernels write into scratch arrays; no call sees another's data."""

    @pytest.mark.parametrize("restricted", [False, True])
    def test_precondition_matches_allocating_formula(self, operator_case, restricted):
        prob, u, v = operator_case
        prob, x = _on_core(prob, restricted, u.values)
        y = v.values[: prob.n_samples]
        ref = _allocating_precondition(prob, x)
        assert np.array_equal(prob.precondition(x), ref)
        # a scratch and an output used for another input first
        work, out = prob._scratch(), np.empty_like(x)
        prob._precondition_into(y, out, work)
        assert np.array_equal(prob._precondition_into(x, out, work), ref)

    @pytest.mark.parametrize("restricted", [False, True])
    def test_energy_and_grad_match_allocating_formulas(self, operator_case, restricted):
        prob, u, _ = operator_case
        prob, vals = _on_core(prob, restricted, 0.1 * u.values)
        density = prob.nonlinearity.density(prob.times, vals)
        assert prob.energy(vals) == (
            0.5 * prob.form(vals, vals) - float(prob.dt * np.sum(density)) - prob.outside
        )
        ref = prob.apply(vals) - prob.nonlinearity.gradient(prob.times, vals)
        assert np.array_equal(prob.grad(vals), ref)

    def test_results_are_fresh_and_stay_put(self, operator_case):
        prob, u, v = operator_case
        x, vals = u.values, 0.1 * v.values
        window = prob.restricted(prob.potential.core)
        cases = (
            (prob, x, vals), (prob.with_lam(7.0 * prob.lam), x, vals),
            (window, x[window.rows], vals[window.rows]),
        )
        results, copies = [], []
        for _ in range(2):
            for p, x_p, vals_p in cases:
                for out in (p.apply(x_p), p.precondition(x_p), p.grad(vals_p), p.hessian(vals_p)(x_p)):
                    results.append(out)
                    copies.append(out.copy())
        for i, out in enumerate(results):
            assert not np.shares_memory(out, x) and not np.shares_memory(out, vals)
            assert not any(np.shares_memory(out, other) for other in results[i + 1:])
            assert np.array_equal(out, copies[i])
        # the second round repeats the first
        half = len(results) // 2
        assert all(np.array_equal(a, b) for a, b in zip(results[:half], results[half:]))


class TestHessianClosedForm:
    """For W = xi |u|^p / p, W''(u) u = (p - 1) grad W(u), so the Hessian action at
    ``u`` on ``u`` itself is ``(2 - p) A u + (p - 1) grad(u)``, on the whole line and on
    the core's window alike."""

    @staticmethod
    def _assert_closed_form(prob, u):
        p = prob.nonlinearity.p
        ref = (2.0 - p) * prob.apply(u) + (p - 1.0) * prob.grad(u)
        assert _rel_err(prob.hessian(u)(u), ref) <= 1e-13

    @pytest.mark.parametrize("restricted", [False, True])
    def test_at_random_signals(self, operator_case, restricted, rng):
        prob, _, _ = operator_case
        for band in (0.05, 0.3, 1.0):
            u = random_band_limited(
                rng, N_DEFAULT, T_MIN, DT, prob.n_components, band_fraction=band
            )
            problem, values = _on_core(prob, restricted, u.values)
            for scale in (1e-3, 0.1, 10.0):
                self._assert_closed_form(problem, scale * values)

    @pytest.mark.parametrize("restricted", [False, True])
    def test_at_the_minimizer(self, operator_case, restricted):
        prob, _, _ = operator_case
        if restricted:
            u = solve_bvp(prob, SolverConfig()).u.values
        else:
            u = minimize(prob, SolverConfig()).u.values
        self._assert_closed_form(*_on_core(prob, restricted, u))


class TestLowerBound:
    def test_zero_signal(self, prob):
        assert lower_bound(zero_signal(prob), prob) == 0.0

    def test_minimum_matches_scalar_oracle(self, prob):
        p = prob.nonlinearity.p
        xi_norm = prob.nonlinearity.xi_dual_norm(prob.times, prob.dt)
        coeff = xi_norm / (p * prob.constants.theta0 ** (p / 2))
        res = minimize_scalar(
            lambda r: 0.5 * r**2 - coeff * r**p, bounds=(1e-8, 1e4), method="bounded",
            options={"xatol": 1e-12},
        )
        r_star, value = lower_bound_minimum(prob)
        assert r_star == pytest.approx(res.x, rel=1e-6, abs=0)
        assert value == pytest.approx(res.fun, rel=1e-10, abs=0)
        assert value < 0

    def test_energy_dominates_bound(self, prob, rng):
        for _ in range(200):
            u = random_band_limited(
                rng, N_DEFAULT, T_MIN, DT, band_fraction=rng.uniform(0.02, 0.5)
            )
            scale = 10 ** rng.uniform(-3, 1.5)
            u = u.with_values(scale * u.values)
            assert evaluate_energy(u, prob) >= lower_bound(u, prob) - 1e-12

    def test_below_threshold_rejected(self, prob):
        low = prob.with_lam(0.5 * prob.constants.lambda_threshold)
        with pytest.raises(ValueError, match="lam"):
            lower_bound(zero_signal(low), low)

    def test_minimum_below_threshold_rejected(self, prob):
        # the floor bounds I only at or above the threshold, as lower_bound does
        low = prob.with_lam(0.5 * prob.constants.lambda_threshold)
        with pytest.raises(WeightError, match="the coercivity floor needs lam >= the threshold"):
            lower_bound_minimum(low)

    def test_coercivity_beyond_bound_minimizer(self, prob, rng):
        # past the scalar bound's positive root every signal has positive energy
        r_star, _ = lower_bound_minimum(prob)
        root = (2 ** (1 / (2 - prob.nonlinearity.p))) ** 2 * r_star  # (2 p A)^(1/(2-p)) scaled
        for _ in range(20):
            u = random_band_limited(rng, N_DEFAULT, T_MIN, DT)
            norm = np.sqrt(prob.form(u.values, u.values))
            u = u.with_values((1.5 * root / norm) * u.values)
            assert evaluate_energy(u, prob) > 0

    @pytest.mark.parametrize("xi_scale", [1e8, 1e250])
    def test_constant_that_overflows_raises(self, xi_scale):
        # xi^(2/(2-p)) overflows for p = 1.95: no floor of -inf, and no RuntimeWarning
        nl = power_nonlinearity(p=1.95, nu=1.95, xi_scale=xi_scale)
        big = default_problem(n_samples=1024, nonlinearity=nl)
        with pytest.raises(BoundError, match="the coercivity constant A is inf"):
            lower_bound_minimum(big)


class TestWitness:
    def test_estimate_that_overflows_starts_at_half_delta(self):
        # (2 eta int |u0|^nu / ||u0||^2)^(1/(2-nu)) is past the largest double for
        # nu = 1.95, xi_scale = 1e20: the search halves from delta/2
        nl = power_nonlinearity(nu=1.95, xi_scale=1e20)
        big = default_problem(n_samples=1024, nonlinearity=nl)
        u0, s = negative_energy_witness(big)
        mantissa, _ = np.frexp(s / (0.5 * nl.delta))
        assert s <= 0.5 * nl.delta and mantissa == 0.5  # delta/2 halved a whole number of times
        assert evaluate_energy(u0.with_values(s * u0.values), big) < 0

    def test_default_witness(self, prob):
        u0, s = negative_energy_witness(prob)
        assert u0.sup_norm() == pytest.approx(1.0, abs=1e-15)
        assert 0 < s < prob.nonlinearity.delta
        assert evaluate_energy(u0.with_values(s * u0.values), prob) < 0
        # support inside the open core
        lo, hi = prob.potential.core
        outside = (prob.times <= lo) | (prob.times >= hi)
        assert np.all(u0.values[outside] == 0)

    def test_scale_below_closed_form_estimate(self, prob):
        u0, s = negative_energy_witness(prob)
        nl = prob.nonlinearity
        mass = prob.dt * np.sum(u0.magnitude() ** nl.nu)
        s_max = (2 * nl.eta * mass / prob.form(u0.values, u0.values)) ** (1 / (2 - nl.nu))
        assert s <= s_max

    def test_energy_sign_change_bracket(self, prob):
        # direct-evaluation oracle: energy of s*u0 crosses zero near
        # s_c = (2 int xi |u0|^p / (p ||u0||^2))^(1/(2-p))
        u0, _ = negative_energy_witness(prob)
        nl = prob.nonlinearity
        mass_xi = prob.dt * np.sum(prob.nonlinearity.xi_at(prob.times) * u0.magnitude() ** nl.p)
        norm_sq = prob.form(u0.values, u0.values)
        s_c = (2 * mass_xi / (nl.p * norm_sq)) ** (1 / (2 - nl.p))
        below = evaluate_energy(u0.with_values(0.9 * s_c * u0.values), prob)
        above = evaluate_energy(u0.with_values(1.1 * s_c * u0.values), prob)
        assert below < 0 < above

    def test_weight_independence(self, prob):
        thr = prob.constants.lambda_threshold
        energies = []
        for lam in (thr, 10 * thr, 100 * thr):
            p = prob.with_lam(lam)
            u0, s = negative_energy_witness(p)
            energies.append(evaluate_energy(u0.with_values(s * u0.values), p))
        assert energies[0] == energies[1] == energies[2]

    def test_one_component_is_the_bump(self, prob):
        # for n = 1 the soft axis is e1 and the witness is the bump itself, bit for bit
        u0, s = negative_energy_witness(prob)
        assert np.array_equal(u0.values, smooth_bump(prob.times, prob.potential.core)[:, None])
        assert s == pytest.approx(0.0042672022784861945, rel=1e-12, abs=0)  # the e1 witness' scale

    @staticmethod
    def _axis(potential):
        """The witness of ``potential`` at N = 1024 is the bump along one unit axis: that axis."""
        prob = default_problem(n_samples=1024, potential=potential)
        u0, _ = negative_energy_witness(prob)
        bump = smooth_bump(prob.times, prob.potential.core)
        axis = u0.values[np.argmax(bump)]  # where the bump is exactly 1
        assert np.array_equal(u0.values, np.outer(bump, axis) + 0.0)
        assert not np.any(np.signbit(u0.values) & (u0.values == 0.0))  # no -0.0 sample
        return axis

    @pytest.mark.parametrize("potential, angle", [
        (rotated_well_potential(), np.pi / 6), (wall_on_rotated_axes(1.0, 4.0), 1.0),
    ], ids=["rotated", "rotated-1rad"])
    def test_witness_lies_on_the_soft_axis(self, potential, angle):
        axis = self._axis(potential)
        assert axis == pytest.approx([np.cos(angle), np.sin(angle)], abs=4e-16)

    def test_isotropic_wall_gives_e1(self):
        scalar = vanishing_well_potential()
        isotropic = PotentialMatrix(
            2, lambda t: scalar.matrix_at(t) * np.eye(2), scalar.envelope,
            scalar.threshold, scalar.well, scalar.core,
        )
        assert np.array_equal(self._axis(isotropic), [1.0, 0.0])

    def test_three_components_take_the_soft_axis_of_eigh(self):
        # L = wall(t) (m + 0.1 cos(t) I): every sum of samples has m's eigenvectors
        m = np.array([[2.0, 0.3, -0.2], [0.3, 1.5, 0.7], [-0.2, 0.7, 3.0]])
        ref = np.linalg.eigh(m)[1][:, 0]
        ref *= np.sign(ref[np.argmax(np.abs(ref))])
        assert self._axis(_symmetric_3x3_potential()) == pytest.approx(ref, abs=1e-14)

    def test_core_between_two_samples_is_one_resolution_error(self, prob):
        # dt = 1/128 puts no sample in the closed core [0.001, 0.002]: the admission, the
        # checks on the core, the restricted problem and the witness refuse it with the same
        # line; the unresolved problem is built past the admission, on the default's constants
        core = (0.001, 0.002)
        pot, nl = vanishing_well_potential(core=core), power_nonlinearity(core=core)
        narrow = Problem(prob.order, prob.n_samples, prob.t_min, prob.dt, pot, nl, prob.lam,
                         prob.constants)
        line = ("the core (0.001, 0.002) holds no grid sample (dt = 0.0078125): "
                "the grid does not resolve the core")
        for call in (
            lambda: default_problem(potential=pot, nonlinearity=nl),
            lambda: verify_potential(pot, narrow.times),
            lambda: verify_growth(narrow.nonlinearity, narrow.times, core),
            lambda: narrow.restricted(core),
            lambda: negative_energy_witness(narrow),
        ):
            with pytest.raises(ResolutionError) as info:
                call()
            assert str(info.value) == line

    def test_tiny_delta_fails(self, prob):
        from frachs import Problem

        nl = power_nonlinearity(delta=1e-12)
        bad = Problem(
            prob.order, prob.n_samples, prob.t_min, prob.dt,
            prob.potential, nl, prob.lam, prob.constants,
        )
        with pytest.raises(WitnessError, match="W2"):
            negative_energy_witness(bad)


class TestDefaultProblem:
    @pytest.mark.parametrize("n_samples", [8, 16, 32])
    def test_unresolved_core_is_the_core_rows_line(self, n_samples):
        # verify_potential's core_rows comes before the sublevel rule
        with pytest.raises(ResolutionError) as info:
            default_problem(n_samples=n_samples)
        assert str(info.value) == (
            f"the core (0.0, 0.5) holds no grid sample (dt = {32 / n_samples:g}): "
            "the grid does not resolve the core"
        )

    def test_l1_l3_failure_is_a_hypothesis_error(self):
        with pytest.raises(HypothesisError) as info:
            default_problem(n_samples=1024, potential=vanishing_well_potential(wall_steepness=1e300))
        assert str(info.value) == "L1-envelope"

    def test_sublevel_rule_before_l1_l3(self):
        # the sublevel set reaches the grid's ends, and L1-envelope fails as well
        pot = vanishing_well_potential(wall_steepness=1e300, envelope_steepness=1000.0)
        with pytest.raises(ResolutionError, match="touches the grid boundary"):
            default_problem(potential=pot)

    def test_weight_below_threshold_is_a_weight_error(self, prob):
        thr = prob.constants.lambda_threshold
        with pytest.raises(WeightError) as info:
            default_problem(lam=0.5 * thr)
        assert str(info.value) == f"the problem needs lam >= the threshold {thr:.6g}, got {0.5 * thr:.6g}"

    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    def test_low_order_is_inadmissible(self, alpha):
        with pytest.raises(AdmissibilityError, match="diverges for orders <= 1/2"):
            default_problem(alpha=alpha, n_samples=1024)


class TestBump:
    def test_unit_peak_and_support(self):
        b = smooth_bump(TIMES, (0.0, 0.5))
        assert np.max(b) == 1.0
        assert np.all(b[(TIMES <= 0.0) | (TIMES >= 0.5)] == 0)

    def test_multicomponent_problem_builds(self):
        from frachs import rotated_well_potential

        prob2 = default_problem(
            n_samples=1024,
            potential=rotated_well_potential(),
            nonlinearity=power_nonlinearity(core=(0.0, 0.5)),
        )
        u0, s = negative_energy_witness(prob2)
        assert u0.n_components == 2
        assert evaluate_energy(u0.with_values(s * u0.values), prob2) < 0
