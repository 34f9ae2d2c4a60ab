import warnings

import numpy as np
import pytest

from frachs import (
    FracOrder,
    SampledSignal,
    compute_embedding_constants,
    continuum_sobolev_constant,
    embedding_bounds,
    grid_sobolev_constant,
    h_alpha_norm,
    lambda_norm,
    measure_sublevel,
    midpoint_grid,
    random_band_limited,
    rotated_well_potential,
    seminorm_alpha,
    signal_from_function,
    sobolev_constant,
    vanishing_well_potential,
    verify_potential,
)
from frachs.spaces import (
    AdmissibilityError,
    BoundError,
    CheckResult,
    EmbeddingConstants,
    PotentialMatrix,
    ResolutionError,
    WeightError,
    _smallest_eigenvalue,
    _smallest_eigenvector,
    core_rows,
    finite_bound,
    judge,
)

from conftest import DT, N_DEFAULT, T_MIN, discrete_extremal, zero_signal

A75 = FracOrder(0.75)
TIMES = T_MIN + DT * np.arange(N_DEFAULT)


def _symmetric_2x2(a, b, d):
    return np.stack([np.stack([a, b], axis=-1), np.stack([b, d], axis=-1)], axis=-2)


def _random_batch(np_rng):
    return _symmetric_2x2(*np_rng.standard_normal((3, 20000)))


def _badly_scaled_batch(np_rng):
    # entries of one matrix up to 1e16 apart, matrices from 1e-100 to 1e100
    a, b, d = np_rng.standard_normal((3, 20000)) * 10.0 ** np_rng.uniform(-8, 8, (3, 20000))
    scale = 10.0 ** np_rng.uniform(-100, 100, 20000)
    return _symmetric_2x2(scale * a, scale * b, scale * d)


def _double_eigenvalue_batch(np_rng):
    # a = d and b = 0 at scales from 1e-100 to 1e100
    a = np_rng.standard_normal(1000) * 10.0 ** np_rng.uniform(-100, 100, 1000)
    return _symmetric_2x2(a, np.zeros_like(a), a)


def _lower_triangle_batch(np_rng):
    # the entry above the diagonal is junk: only the lower triangle may be read
    a, b, d, junk = np_rng.standard_normal((4, 100))
    L = _symmetric_2x2(a, b, d)
    L[:, 0, 1] = junk
    return L


class TestSmallestEigenvalue:
    """The closed form for n <= 2 against LAPACK, within 4 eps of the largest entry."""

    def _assert_matches_eigvalsh(self, L):
        got = _smallest_eigenvalue(L)
        ref = np.linalg.eigvalsh(L)[:, 0]
        scale = np.max(np.abs(L), axis=(1, 2))
        assert np.all(np.abs(got - ref) <= 4 * np.finfo(float).eps * scale)

    def test_random_batch(self, np_rng):
        self._assert_matches_eigvalsh(_random_batch(np_rng))

    def test_degenerate_batch(self, np_rng):
        # a double eigenvalue, which the closed form returns exactly
        L = _double_eigenvalue_batch(np_rng)
        assert np.array_equal(_smallest_eigenvalue(L), L[:, 0, 0])
        self._assert_matches_eigvalsh(L)

    def test_badly_scaled_batch(self, np_rng):
        self._assert_matches_eigvalsh(_badly_scaled_batch(np_rng))

    def test_one_component_is_the_entry(self, np_rng):
        L = np_rng.standard_normal((100, 1, 1))
        assert np.array_equal(_smallest_eigenvalue(L), L[:, 0, 0])

    def test_reads_the_lower_triangle(self, np_rng):
        self._assert_matches_eigvalsh(_lower_triangle_batch(np_rng))


def _eigh_soft_axes(L):
    """``eigh``'s eigenvalues and its smallest eigenvectors, signed so that the largest entry is positive."""
    vals, vecs = np.linalg.eigh(L)
    ref = vecs[:, :, 0]
    largest = np.take_along_axis(ref, np.argmax(np.abs(ref), axis=1)[:, None], axis=1)
    return vals, np.where(largest < 0, -ref, ref)


class TestSmallestEigenvector:
    """The closed form for n = 2 against LAPACK's ``eigh``, within 8 eps of the largest
    entry over the eigenvalue gap (the worst seen over 200,000 random matrices was 3.8)."""

    def _assert_matches_eigh(self, L):
        got = _smallest_eigenvector(L)
        vals, ref = _eigh_soft_axes(L)
        gap = vals[:, 1] - vals[:, 0]
        scale = np.max(np.abs(L), axis=(1, 2))
        eps = np.finfo(float).eps
        assert np.all(np.max(np.abs(got - ref), axis=1) * gap <= 8 * eps * scale)
        assert np.all(np.abs(np.linalg.norm(got, axis=1) - 1.0) <= 2 * eps)
        assert not np.any(np.signbit(got) & (got == 0.0))  # no -0.0 entry

    def test_random_batch(self, np_rng):
        self._assert_matches_eigh(_random_batch(np_rng))

    def test_diagonal_batch(self, np_rng):
        # b = 0 and a != d: exactly e1 where a < d and e2 where a > d
        a, d = np_rng.standard_normal((2, 20000))
        L = _symmetric_2x2(a, np.zeros_like(a), d)
        e1_where_a_smaller = np.where((a < d)[:, None], [1.0, 0.0], [0.0, 1.0])
        assert np.array_equal(_smallest_eigenvector(L), e1_where_a_smaller)
        self._assert_matches_eigh(L)

    def test_badly_scaled_batch(self, np_rng):
        self._assert_matches_eigh(_badly_scaled_batch(np_rng))

    def test_reads_the_lower_triangle(self, np_rng):
        self._assert_matches_eigh(_lower_triangle_batch(np_rng))

    def test_isotropic_is_e1(self, np_rng):
        # a double eigenvalue leaves the direction free; so does a rotated multiple of
        # the identity, whose off-diagonal entries are rounding noise, and L = 0
        c, s = np.cos(0.3), np.sin(0.3)
        rot = np.array([[c, -s], [s, c]])
        L = np.concatenate([
            _double_eigenvalue_batch(np_rng),
            np.stack([rot @ (w * np.eye(2)) @ rot.T for w in (1e-3, 1.0, 7.0, 1e5)]),
            np.zeros((1, 2, 2)),
        ])
        assert np.array_equal(_smallest_eigenvector(L), np.tile([1.0, 0.0], (len(L), 1)))

    def test_one_component_is_e1(self, np_rng):
        L = np_rng.standard_normal((100, 1, 1))
        assert np.array_equal(_smallest_eigenvector(L), np.ones((100, 1)))

    def test_three_components_take_eigh(self, np_rng):
        A = np_rng.standard_normal((100, 3, 3))
        L = A + A.transpose(0, 2, 1)
        _, ref = _eigh_soft_axes(L)
        assert np.allclose(_smallest_eigenvector(L), ref, rtol=0.0, atol=4 * np.finfo(float).eps)


class TestVerifyPotential:
    def test_default_passes(self):
        report = verify_potential(vanishing_well_potential(), TIMES)
        assert report.passed, report.failed_names()

    def test_rotated_preset_passes(self):
        report = verify_potential(rotated_well_potential(), TIMES)
        assert report.passed, report.failed_names()

    def test_degenerate_whole_line_well_rejected(self):
        # a well spanning the whole grid cannot be a finite interval
        with pytest.raises(ValueError, match="finite"):
            PotentialMatrix(
                1,
                lambda t: np.zeros((len(t), 1, 1)),
                lambda t: np.zeros_like(t),
                0.9,
                (-np.inf, np.inf),
                (0.0, 0.5),
            )

    def test_insufficient_margin_rejected(self):
        wide = vanishing_well_potential(well=(-12.0, 12.0), core=(0.0, 0.5))
        with pytest.raises(ResolutionError, match="margin"):
            verify_potential(wide, TIMES)

    def test_sublevel_set_touching_the_boundary_rejected(self):
        # a grid rule, so it is raised before any hypothesis is judged
        flat = vanishing_well_potential(envelope_steepness=400.0)
        with pytest.raises(ResolutionError, match="boundary"):
            verify_potential(flat, TIMES)

    @pytest.mark.parametrize("steepness", ["envelope_steepness", "wall_steepness"])
    def test_steep_preset_evaluates_without_a_warning(self, steepness):
        # dist^2 / 1e-307 overflows to inf far from the well; the cap is still exact
        pot = vanishing_well_potential(**{steepness: 1e-307})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            envelope, matrix = pot.envelope_at(TIMES), pot.matrix_at(TIMES)
        assert envelope[0] == envelope[-1] == 1.0
        assert matrix[0, 0, 0] == matrix[-1, 0, 0] == 30.0

    def test_antisymmetric_perturbation_fails_symmetry(self):
        base = rotated_well_potential()

        def skewed(t):
            m = base.matrix_at(t)
            skew = np.zeros_like(m)
            skew[:, 0, 1] = 1e-3
            skew[:, 1, 0] = -1e-3
            return m + skew

        bad = PotentialMatrix(2, skewed, base.envelope, base.threshold, base.well, base.core)
        report = verify_potential(bad, TIMES)
        assert "L1-symmetry" in report.failed_names()

    def test_rotated_matrix_matches_einsum_bits(self):
        # the two-term sum reproduces rot diag(wall, 2 wall) rot^T as numpy's einsum forms it
        pot, scalar = rotated_well_potential(), vanishing_well_potential()
        c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
        rot = np.array([[c, -s], [s, c]])
        fine_min, fine_dt = midpoint_grid(8192, 32.0)
        random_times = np.random.default_rng(5).uniform(-20.0, 20.0, 4096)
        for t in (fine_min + fine_dt * np.arange(8192), random_times):
            wall = scalar.matrix_at(t)[:, 0, 0]
            diag = np.zeros((len(t), 2, 2))
            diag[:, 0, 0] = wall
            diag[:, 1, 1] = 2.0 * wall
            assert np.array_equal(pot.matrix_at(t), np.einsum("ij,njk,lk->nil", rot, diag, rot))

    def test_envelope_violation_detected(self):
        # 0.01 * wall dips below the envelope where l has saturated to 1
        base = vanishing_well_potential()
        bad = PotentialMatrix(
            1,
            lambda t: 0.01 * base.matrix_at(t),
            lambda t: base.envelope_at(t),
            base.threshold,
            base.well,
            base.core,
        )
        report = verify_potential(bad, TIMES)
        assert "L1-envelope" in report.failed_names()

    def test_envelope_violation_off_probe_directions_detected(self):
        # the soft axis of R(0.3) diag(wall, min(wall, l/2)) R(0.3)^T sits at l/2, so
        # min (L x, x) - l = -l/2 reaches -0.5 where l has saturated to 1; random
        # unit directions see only part of that dip, or none of it
        base = vanishing_well_potential()
        c, s = np.cos(0.3), np.sin(0.3)
        rot = np.array([[c, -s], [s, c]])

        def matrix(t):
            wall = base.matrix_at(t)[:, 0, 0]
            diag = np.zeros((len(t), 2, 2))
            diag[:, 0, 0] = wall
            diag[:, 1, 1] = np.minimum(wall, 0.5 * base.envelope_at(t))
            return np.einsum("ij,njk,lk->nil", rot, diag, rot)

        bad = PotentialMatrix(2, matrix, base.envelope, base.threshold, base.well, base.core)
        report = verify_potential(bad, TIMES)
        (envelope,) = [c for c in report.checks if c.name == "L1-envelope"]
        assert not envelope.passed
        assert envelope.worst_margin == pytest.approx(-0.5, abs=1e-12)

    @pytest.mark.parametrize("n_samples", [N_DEFAULT, 8192])
    @pytest.mark.parametrize("make", [vanishing_well_potential, rotated_well_potential])
    def test_vanishing_location_lies_in_the_closed_core(self, make, n_samples):
        pot = make()
        t_min, dt = midpoint_grid(n_samples, 32.0)
        times = t_min + dt * np.arange(n_samples)
        (l3,) = [c for c in verify_potential(pot, times).checks if c.name == "L3-vanishing"]
        assert l3.passed and l3.worst_margin == 1e-14
        # L vanishes on the whole core, so the first core sample reaches the least slack
        assert l3.location == times[times >= pot.core[0]][0]
        assert pot.core[0] <= l3.location <= pot.core[1]

    def test_tall_rotated_wall_passes_symmetry(self):
        # the rotation's rounding at wall_height = 1e5 exceeds 1e-12 in absolute terms,
        # not relative to the entries it is compared at
        report = verify_potential(rotated_well_potential(wall_height=1e5), TIMES)
        assert report.passed, report.failed_names()
        (sym,) = [c for c in report.checks if c.name == "L1-symmetry"]
        assert sym.worst_margin < 0.0

    def test_nonvanishing_core_detected(self):
        base = vanishing_well_potential()
        bad = PotentialMatrix(
            1,
            lambda t: base.matrix_at(t) + 1e-6,
            base.envelope,
            base.threshold,
            base.well,
            base.core,
        )
        report = verify_potential(bad, TIMES)
        assert "L3-vanishing" in report.failed_names()


class TestCoreRows:
    def test_underflowing_bump_is_unresolved(self):
        # one core sample, at t = 0.4999, where the bump underflows to 0
        t_min, dt = midpoint_grid(32, 31.9936)
        with pytest.raises(ResolutionError) as info:
            core_rows(t_min + dt * np.arange(32), (0.0, 0.5))
        assert str(info.value) == ("the bump on the core (0.0, 0.5) vanishes at every core sample "
                                   "(dt = 0.9998): the grid does not resolve the core")


class TestMeasureSublevel:
    def test_matches_closed_form(self):
        # {l < k} = well widened by sqrt(k * steepness) on each side
        pot = vanishing_well_potential()
        m = measure_sublevel(pot, TIMES, DT)
        exact = 1.0 + 2.0 * np.sqrt(0.9 * 0.0025)
        assert abs(m - exact) <= 2 * DT

    def test_threshold_below_envelope_floor_gives_zero(self):
        pot = PotentialMatrix(
            1,
            lambda t: np.ones((len(t), 1, 1)),
            lambda t: np.ones_like(t),
            0.9,
            (-0.25, 0.75),
            (0.0, 0.5),
        )
        assert measure_sublevel(pot, TIMES, DT) == 0.0

    def test_refinement_stability(self):
        pot = vanishing_well_potential()
        m1 = measure_sublevel(pot, TIMES, DT)
        times2 = (T_MIN - DT / 4) + (DT / 2) * np.arange(2 * N_DEFAULT)
        m2 = measure_sublevel(pot, times2, DT / 2)
        assert abs(m1 - m2) <= 2 * DT


class TestSobolevConstant:
    def test_quadrature_matches_closed_form(self):
        # oracle: C^2 = (1/pi) int_0^inf dw/(1+w^(2a)), by adaptive quadrature
        from scipy.integrate import quad

        for alpha in (0.55, 0.75, 0.95):
            s = 2 * alpha
            integral, _ = quad(lambda w: 1.0 / (1.0 + w**s), 0.0, np.inf, limit=200)
            assert continuum_sobolev_constant(FracOrder(alpha)) == pytest.approx(
                np.sqrt(integral / np.pi), rel=1e-8, abs=0
            )

    def test_estimate_in_expected_window(self):
        c = sobolev_constant(A75, N_DEFAULT, DT)
        assert 0.8 <= c <= 1.0

    def test_default_grid_value(self):
        c = sobolev_constant(A75, N_DEFAULT, DT)
        assert c == continuum_sobolev_constant(A75)
        assert c == pytest.approx(0.8773826753016615, rel=1e-15, abs=0)

    def test_pure_tone_ratio_below_estimate(self):
        w1 = 2 * np.pi * 37 / (N_DEFAULT * DT)
        u = signal_from_function(lambda t: np.cos(w1 * t), N_DEFAULT, T_MIN, DT)
        # Parseval on the tone: ||u||_a^2 = (T/2)(1 + w1^(2a)); the grid sup
        # sits a fraction of a cell off the crest, so the ratio uses it as-is
        denom = np.sqrt(N_DEFAULT * DT / 2 * (1 + w1**1.5))
        assert h_alpha_norm(u, A75) == pytest.approx(denom, rel=1e-12, abs=0)
        ratio = u.sup_norm() / denom
        c = sobolev_constant(A75, N_DEFAULT, DT)
        assert ratio <= c

    def test_discrete_extremal_ratio_below_estimate(self):
        u, extremal = discrete_extremal(A75, N_DEFAULT, T_MIN, DT)
        ratio = u.sup_norm() / h_alpha_norm(u, A75)
        assert ratio == pytest.approx(extremal, rel=1e-10, abs=0)
        c = sobolev_constant(A75, N_DEFAULT, DT)
        assert ratio < c

    @pytest.mark.parametrize(
        "n, domain, alpha",
        [(4096, 8.0, 0.95), (4096, 8.0, 0.90), (8192, 8.0, 0.95), (4096, 32.0, 0.75)],
    )
    def test_sup_bound_holds_for_extremal_profile(self, n, domain, alpha):
        # on short domains the grid's sharp constant exceeds the whole-line one
        a = FracOrder(alpha)
        t_min, dt = midpoint_grid(n, domain)
        u, _ = discrete_extremal(a, n, t_min, dt)
        ratio = u.sup_norm() / h_alpha_norm(u, a)
        c = sobolev_constant(a, n, dt)
        c_grid = grid_sobolev_constant(a, n, dt)
        assert c == max(continuum_sobolev_constant(a), c_grid)
        assert ratio <= c * (1 + 1e-12)
        if c == c_grid:
            assert ratio == pytest.approx(c, rel=1e-10, abs=0)

    @pytest.mark.parametrize("n, domain", [(64, 8.0), (4096, 32.0)])
    def test_grid_constant_matches_full_spectrum_sum(self, n, domain):
        # the full spectrum holds the Nyquist bin once
        _, dt = midpoint_grid(n, domain)
        freqs = 2 * np.pi * np.fft.fftfreq(n, d=dt)
        full = np.sum(1.0 / (1.0 + np.abs(freqs) ** 1.5)) / (n * dt)
        assert grid_sobolev_constant(A75, n, dt) == pytest.approx(np.sqrt(full), rel=1e-13, abs=0)

    def test_sup_bound_holds_on_random_ensemble(self, rng):
        c = sobolev_constant(A75, N_DEFAULT, DT)
        for _ in range(100):
            u = random_band_limited(
                rng, N_DEFAULT, T_MIN, DT, band_fraction=rng.uniform(0.02, 0.9)
            )
            assert u.sup_norm() <= c * h_alpha_norm(u, A75)


class TestEmbeddingConstants:
    def test_identities_exact(self, prob):
        c = prob.constants
        q = c.c_alpha**2 * c.sublevel_measure
        assert abs(c.theta0 - (1 - q) / q) <= 1e-15 * c.theta0
        assert abs(c.lambda_threshold - 1 / (c.threshold * q)) <= 1e-15 * c.lambda_threshold

    def test_require_raises_weight_error_below_threshold(self, prob):
        c = prob.constants
        c.require(c.lambda_threshold, "a bound")
        with pytest.raises(WeightError, match="a bound needs lam >= the threshold"):
            c.require(0.5 * c.lambda_threshold, "a bound")
        assert issubclass(WeightError, ValueError)

    def test_admissibility_failure_raises(self):
        with pytest.raises(AdmissibilityError, match="L1"):
            EmbeddingConstants.from_data(c_alpha=1.0, sublevel_measure=1.2, threshold=0.9)

    def test_flattened_envelope_is_inadmissible(self):
        flat = vanishing_well_potential(envelope_steepness=1.0)
        with pytest.raises(AdmissibilityError):
            compute_embedding_constants(flat, A75, N_DEFAULT, T_MIN, DT)


class TestFiniteBound:
    def test_finite_value_passes_unchanged(self):
        assert finite_bound("x", lambda: 3.0 ** 0.5) == 3.0 ** 0.5

    @pytest.mark.parametrize(
        "compute",
        [lambda: 1e200 ** 2.0, lambda: np.float64(1e200) ** 2, lambda: np.sum(np.full(4, 1e308)),
         lambda: np.float64(np.inf) - np.inf],
        ids=["python-power", "numpy-power", "numpy-sum", "nan"],
    )
    def test_overflow_raises_without_a_warning(self, compute):
        # an overflow on the way is the same failure as a non-finite result, and warns
        # nothing (a RuntimeWarning fails the suite)
        with pytest.raises(BoundError, match="^A is (inf|nan), not a finite double: xi_scale or p"):
            finite_bound("A", compute)
        assert issubclass(BoundError, ValueError)


class TestJudge:
    def test_least_slack_and_its_first_sample(self):
        times = np.array([0.0, 1.0, 2.0, 3.0])
        got = judge("c", np.array([0.5, -1.0, 2.0, -1.0]), lambda: 1.0, times, "d")
        assert got == CheckResult("c", False, -1.0, 1.0, "d")

    def test_rounding_below_the_relative_tolerance_passes(self):
        # -1e-7 at magnitude 1e6 is 1e-13 relative; the same slack at magnitude 1 is not
        slack = np.array([1.0, -1e-7])
        assert judge("c", slack, lambda: np.array([1.0, 1e6])).passed
        assert not judge("c", slack, lambda: np.array([1e6, 1.0])).passed
        # the tolerance is scale-relative: 1e-9 relative still fails at any scale
        for scale in (1e-6, 1.0, 1e6):
            assert not judge("c", np.array([-1e-9 * scale]), lambda: scale).passed

    def test_magnitude_only_for_a_negative_slack(self):
        def unused():
            raise AssertionError("magnitude evaluated for nonnegative slack")

        got = judge("c", np.array([0.0, 3.0]), unused)
        assert got.passed and got.worst_margin == 0.0 and got.location is None

    @pytest.mark.parametrize(
        "slack", [[1.0, -np.inf], [-1.0, np.nan], [np.inf, np.inf]], ids=["-inf", "nan", "inf"]
    )
    def test_non_finite_least_slack_raises(self, slack):
        # a NaN anywhere counts, even beside a finite negative slack
        with pytest.raises(BoundError, match="^the least slack of W1-growth is (-inf|nan|inf), "):
            judge("W1-growth", np.array(slack), lambda: 1.0)

    def test_empty_slack_raises(self):
        # core_rows refuses a core without samples, so no check is judged on none
        with pytest.raises(ValueError, match="empty sequence"):
            judge("c", np.zeros(0), lambda: 1.0, np.zeros(0))


class TestWeightedNorms:
    def test_zero_signal(self, prob):
        u = zero_signal(prob)
        assert lambda_norm(u, prob.potential, 5.0, A75) == 0.0

    def test_core_supported_signal_sees_no_weight(self, prob):
        from frachs import smooth_bump

        vals = smooth_bump(TIMES, (0.0, 0.5))
        u = SampledSignal(T_MIN, DT, vals)
        semi = seminorm_alpha(u, A75)
        for lam in (1.0, 7.0, 1000.0):
            assert lambda_norm(u, prob.potential, lam, A75) == pytest.approx(semi, rel=1e-14, abs=0)

    def test_weight_difference_identity(self, prob, rng):
        # ||u||_4^2 - ||u||_1^2 = 3 int (L u, u) dt, by direct quadrature
        u = random_band_limited(rng, N_DEFAULT, T_MIN, DT)
        lhs = (
            lambda_norm(u, prob.potential, 4.0, A75) ** 2
            - lambda_norm(u, prob.potential, 1.0, A75) ** 2
        )
        L = prob.potential.matrix_at(TIMES)
        direct = DT * np.einsum("ni,nij,nj->", u.values, L, u.values)
        assert abs(lhs - 3.0 * direct) <= 1e-10 * max(abs(lhs), 1.0)

    def test_monotone_in_weight(self, prob, rng):
        u = random_band_limited(rng, N_DEFAULT, T_MIN, DT)
        norms = [lambda_norm(u, prob.potential, lam, A75) for lam in (1.0, 2.0, 8.0, 64.0)]
        assert all(b >= a for a, b in zip(norms, norms[1:]))

    def test_x_norm_below_lambda_norm(self, prob, rng):
        for _ in range(10):
            u = random_band_limited(rng, N_DEFAULT, T_MIN, DT)
            x = lambda_norm(u, prob.potential, 1.0, A75)
            assert x <= lambda_norm(u, prob.potential, 3.0, A75) + 1e-12 * x

    def test_h_alpha_controlled_by_x_norm(self, prob, rng):
        # ||u||_a^2 <= (1 + max(q, 1/k)/(1 - q)) ||u||_X^2 with q = C^2 m
        c = prob.constants
        q = c.admissibility_product
        factor = 1.0 + max(q, 1.0 / c.threshold) / (1.0 - q)
        for _ in range(20):
            u = random_band_limited(
                rng, N_DEFAULT, T_MIN, DT, band_fraction=rng.uniform(0.02, 0.5)
            )
            h2 = h_alpha_norm(u, A75) ** 2
            x2 = lambda_norm(u, prob.potential, 1.0, A75) ** 2
            assert h2 <= factor * x2 * (1 + 1e-12)


class TestEmbeddingBounds:
    def test_zero_signal_zero_margins(self, prob):
        report = embedding_bounds(zero_signal(prob), prob.with_lam(prob.constants.lambda_threshold))
        assert report.passed
        assert all(r.worst_margin == 0.0 for r in report.checks)

    def test_random_ensemble_no_violations(self, prob, rng):
        thr = prob.constants.lambda_threshold
        for lam in (thr, 10 * thr):
            at_lam = prob.with_lam(lam)
            for _ in range(50):
                u = random_band_limited(
                    rng, N_DEFAULT, T_MIN, DT, band_fraction=rng.uniform(0.02, 0.5)
                )
                report = embedding_bounds(u, at_lam)
                assert report.passed, [(r.name, r.worst_margin) for r in report.checks]

    def test_margins_nondecreasing_in_weight(self, prob, rng):
        u = random_band_limited(rng, N_DEFAULT, T_MIN, DT)
        thr = prob.constants.lambda_threshold
        r1 = embedding_bounds(u, prob.with_lam(thr))
        r2 = embedding_bounds(u, prob.with_lam(10 * thr))
        for a, b in zip(r1.checks, r2.checks):
            assert b.worst_margin >= a.worst_margin

    def test_signal_off_the_problem_grid_rejected(self, prob):
        u = SampledSignal(T_MIN, 2 * DT, np.zeros(N_DEFAULT))
        with pytest.raises(ValueError, match="grid"):
            embedding_bounds(u, prob)

    def test_below_threshold_rejected(self, prob, rng):
        u = random_band_limited(rng, N_DEFAULT, T_MIN, DT)
        with pytest.raises(ValueError, match="lam"):
            embedding_bounds(u, prob.with_lam(0.5 * prob.constants.lambda_threshold))
