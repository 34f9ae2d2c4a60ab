import numpy as np
import pytest
from scipy.optimize import brentq

from frachs import (
    DivergenceError,
    PotentialMatrix,
    Problem,
    SampledSignal,
    SolverConfig,
    WeightError,
    WitnessError,
    concentration_sweep,
    default_problem,
    directional_derivative,
    evaluate_energy,
    l2_norm,
    lower_bound_minimum,
    minimize,
    negative_energy_witness,
    power_nonlinearity,
    random_band_limited,
    rotated_well_potential,
    smooth_bump,
    solve_bvp,
    uniform_bound_constant,
    vanishing_well_potential,
    verify_potential,
    zero_nonlinearity,
)
from frachs import solver
from frachs.nonlinearity import Nonlinearity
from frachs.solver import _Work, _backtrack, _truncated_cg

from conftest import DT, N_DEFAULT, T_MIN, wall_on_rotated_axes


def _with_nonlinearity(prob, nl):
    return Problem(
        prob.order, prob.n_samples, prob.t_min, prob.dt,
        prob.potential, nl, prob.lam, prob.constants,
    )


def _counted(run, *args):
    """``run(*args)`` and the Hessian actions it took.

    The descent forms its action with ``Problem._hessian_into`` once per Newton
    step; every call of the returned action is one Hessian action.
    """
    count = [0]
    hessian_into = Problem._hessian_into

    def counting(self, vals):
        action = hessian_into(self, vals)

        def counted(v, out, work):
            count[0] += 1
            return action(v, out, work)

        return counted

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Problem, "_hessian_into", counting)
        result = run(*args)
    return result, count[0]


class TestMinimize:
    def test_default_scenario_converges(self, prob, cfg):
        res = minimize(prob, cfg)
        assert res.converged
        assert res.grad_norm <= cfg.grad_tol
        assert res.energy < 0
        assert res.u.sup_norm() > 0
        assert res.iterations < cfg.max_iters

    def test_history_strictly_decreasing_above_floor(self, prob, cfg):
        res = minimize(prob, cfg)
        energies = [e for e, _ in res.history]
        assert all(b < a for a, b in zip(energies, energies[1:]))
        _, floor = lower_bound_minimum(prob)
        assert all(e >= floor for e in energies)

    def test_below_threshold_rejected(self, prob, cfg):
        with pytest.raises(ValueError, match="lam"):
            minimize(prob.with_lam(0.5 * prob.constants.lambda_threshold), cfg)

    def test_zero_density_converges_to_trivial(self, prob, cfg):
        quad_prob = _with_nonlinearity(prob, zero_nonlinearity())
        vals = np.zeros((N_DEFAULT, 1))
        vals[:, 0] = 0.3 * smooth_bump(prob.times, (0.0, 0.5))
        start = SampledSignal(T_MIN, DT, vals)
        res = minimize(quad_prob, cfg, start=start)
        assert res.converged
        assert abs(res.energy) <= 1e-12
        assert res.u.sup_norm() <= 1e-10

    def test_seed_does_not_change_result(self, prob):
        r1 = minimize(prob, SolverConfig())
        r2 = minimize(prob, SolverConfig())
        assert np.array_equal(r1.u.values, r2.u.values)
        assert r1.energy == r2.energy
        assert r1.history == r2.history

    @pytest.mark.parametrize("preset", ["default", "rotated"])
    def test_runs_share_no_state(self, prob, cfg, preset):
        # a descent on another problem between two runs leaves the second run's bits alone
        if preset == "rotated":
            prob = default_problem(potential=rotated_well_potential())
        first = minimize(prob, cfg)
        solve_bvp(prob.with_lam(3.0 * prob.lam), cfg)
        second = minimize(prob, cfg)
        assert np.array_equal(first.u.values, second.u.values)
        assert first.history == second.history
        assert first.energy == second.energy
        assert first.grad_norm_weighted == second.grad_norm_weighted

    def test_critical_point_residual(self, prob, cfg, rng):
        res = minimize(prob, cfg)
        for _ in range(20):
            phi = random_band_limited(
                rng, N_DEFAULT, T_MIN, DT, band_fraction=rng.uniform(0.02, 0.5)
            )
            residual = directional_derivative(res.u, phi, prob)
            assert abs(residual) <= cfg.grad_tol * l2_norm(phi)

    def test_non_convergence_returns_valid_data(self, prob):
        res = minimize(prob, SolverConfig(max_iters=3))
        assert not res.converged
        assert res.iterations == 3
        assert np.isfinite(res.energy)
        assert res.energy < 0
        energies = [e for e, _ in res.history]
        assert all(b < a for a, b in zip(energies, energies[1:]))

    def test_inconsistent_energy_gradient_diverges(self, prob, cfg):
        # density overstated 60x against the declared xi: descent on the true
        # gradient punches through the floor computed from the declared weight
        base = power_nonlinearity()
        lying = Nonlinearity(
            density=lambda t, u: 60.0 * base.density(t, u),
            gradient=lambda t, u: 60.0 * base.gradient(t, u),
            hessian_at=lambda t, u: tuple(60.0 * c for c in base.hessian_at(t, u)),
            p=base.p,
            xi=base.xi,
            eta=base.eta,
            delta=base.delta,
            nu=base.nu,
        )
        bad = _with_nonlinearity(prob, lying)
        with pytest.raises(DivergenceError, match="floor"):
            minimize(bad, cfg)


class TestLineSearch:
    def test_rejects_step_that_leaves_energy_unchanged(self, prob):
        # the slope -1e-30 |g|^2 is far below the rounding of f, so every trial
        # point equals the start bit for bit and the Armijo test alone reads f <= f
        u0, s = negative_energy_witness(prob)
        vals = s * u0.values
        g = prob.grad(vals)
        cand, f = np.empty_like(vals), prob.energy(vals)
        assert _backtrack(prob, vals, f, g, -1e-30 * g, cand, prob._scratch()) is None


class TestNewtonStep:
    def test_hessian_closure_is_evaluated_at_its_iterate(self, prob, rng):
        # a closure built at a second iterate must not reuse the first one's coefficients
        u0, s = negative_energy_witness(prob)
        first = s * u0.values
        second = first + 0.3 * s * random_band_limited(rng, N_DEFAULT, T_MIN, DT).values
        v = random_band_limited(rng, N_DEFAULT, T_MIN, DT).values
        h_first, h_second = prob.hessian(first), prob.hessian(second)

        def fresh(vals):
            f, g = prob.nonlinearity.hessian_at(prob.times, vals)
            return prob.apply(v) - (f[:, None] * v + (g * np.sum(vals * v, axis=1))[:, None] * vals)

        for action, vals in ((h_second, second), (h_first, first)):
            ref = fresh(vals)
            assert np.max(np.abs(action(v) - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.max(np.abs(h_first(v) - h_second(v))) > 1e-3 * np.max(np.abs(fresh(second)))

    def test_cg_stops_on_nonpositive_rz(self, prob, monkeypatch):
        # a preconditioner that lost definiteness gives (r, z) < 0: CG returns the
        # current (zero) iterate instead of dividing by it
        monkeypatch.setattr(
            Problem, "_precondition_into", lambda self, x, out, work: np.negative(x, out=out)
        )
        u0, s = negative_energy_witness(prob)
        vals = s * u0.values
        g = prob.grad(vals)
        d = _truncated_cg(prob, prob._hessian_into(vals), g, 0.5, _Work(prob, vals))
        assert np.all(d == 0.0)

    def test_non_finite_density_reads_as_infinite_energy(self, prob):
        # +inf, not NaN or -inf, so the line search can never accept such a point
        base = power_nonlinearity()
        for bad_value in (np.nan, np.inf):
            bad = Nonlinearity(
                density=lambda t, u, b=bad_value: np.where(np.abs(t) < 0.1, b, 0.0),
                gradient=base.gradient, hessian_at=base.hessian_at,
                p=base.p, xi=base.xi, eta=base.eta, delta=base.delta, nu=base.nu,
            )
            assert _with_nonlinearity(prob, bad).energy(np.ones((N_DEFAULT, 1))) == np.inf


class TestShiftedPreconditioner:
    def test_descent_shift_follows_its_free_samples(self, prob, cfg, monkeypatch):
        # the full-grid descent shifts the kinetic block to the wall level and adds the
        # unshifted block on its wall-free window; the restricted one moves only the
        # core's window, where L = 0, so its shift is 1 and that block is all it has
        descended = []
        monkeypatch.setattr(solver, "_descend", lambda p, *args: descended.append(p))
        minimize(prob, cfg)
        solve_bvp(prob, cfg)
        full, restricted = descended
        assert full.precond is prob.precond and full.free is prob.free
        assert prob.shift() > 100.0
        assert restricted.line is prob and restricted.shift() == 1.0
        assert restricted.free is None and full.free.rows == restricted.rows
        assert np.array_equal(restricted.precond, full.free.precond)


def _wall_at_the_well() -> PotentialMatrix:
    """The default scalar potential with its wall moved out to the well: ``L``
    vanishes on all of (-0.25, 0.75), not only on the declared core (0, 0.5)."""
    base = vanishing_well_potential()
    a, b = base.well

    def matrix(t):
        dist = np.maximum(0.0, np.maximum(a - t, t - b))
        return np.minimum(30.0, dist**2 / 5e-7)[:, None, None]

    return PotentialMatrix(1, matrix, base.envelope, base.threshold, base.well, base.core)


class TestFreeWindow:
    """The line's second preconditioner block runs on the hull of the samples where
    every diagonal entry of ``L`` is 0, derived from the data, not from the declared core."""

    @pytest.mark.parametrize("case", ["default", "rotated", "off-origin", "rotated-1rad"])
    def test_block_window_is_the_zero_set(self, case):
        core = (0.1, 0.5) if case == "off-origin" else (0.0, 0.5)
        potential = {
            "default": vanishing_well_potential(),
            "rotated": rotated_well_potential(),
            "off-origin": vanishing_well_potential(core=core),
            "rotated-1rad": wall_on_rotated_axes(1.0, 4.0),
        }[case]
        prob = default_problem(potential=potential, nonlinearity=power_nonlinearity(core=core))
        diag = np.diagonal(potential.matrix_at(prob.times), axis1=1, axis2=2)
        zero = np.flatnonzero(np.all(diag == 0.0, axis=1))
        rows = prob.free.rows
        assert rows == prob.restricted(core).rows
        assert np.array_equal(zero, np.arange(rows.start, rows.stop))
        assert prob.free.shift() == 1.0

    def test_wall_at_the_well_gets_the_well_window(self):
        prob = default_problem(potential=_wall_at_the_well())
        inside = np.flatnonzero((prob.times > -0.25) & (prob.times < 0.75))
        assert (prob.free.rows.start, prob.free.rows.stop) == (inside[0], inside[-1] + 1)

    def test_wall_at_the_well_sweeps_to_grad_tol(self, cfg):
        # the block on the declared core alone stops the lam = 2 and 2000 rungs on no_descent
        potential = _wall_at_the_well()
        prob = default_problem(potential=potential)
        assert verify_potential(potential, prob.times).passed
        report = concentration_sweep(prob, LADDER, cfg)
        assert [r.stop_reason for r in report.rows] == ["grad_tol"] * len(LADDER)
        assert not report.flagged


class TestStopReason:
    def test_converged_run_stops_on_grad_tol(self, prob, cfg):
        res = minimize(prob, cfg)
        assert res.converged and res.stop_reason == "grad_tol"

    def test_starved_run_stops_on_max_iters(self, prob):
        res = minimize(prob, SolverConfig(max_iters=2))
        assert not res.converged and res.stop_reason == "max_iters"
        assert res.iterations == 2

    def test_unreachable_tolerance_stops_on_no_descent(self, prob, cfg):
        # from a converged solution no step lowers the energy by more than its rounding
        start = minimize(prob, cfg).u
        res = minimize(prob, SolverConfig(grad_tol=1e-30), start=start)
        assert not res.converged and res.stop_reason == "no_descent"
        assert res.iterations < SolverConfig().max_iters

    def test_sweep_rows_carry_the_stop_reason(self, prob):
        thr = prob.constants.lambda_threshold
        report = concentration_sweep(prob, [thr, 10 * thr, 100 * thr], SolverConfig(max_iters=2))
        assert {r.stop_reason for r in report.rows if not r.converged} == {"max_iters"}
        assert {r.stop_reason for r in report.rows if r.converged} <= {"grad_tol"}


def _short_sweep(prob, cfg):
    thr = prob.constants.lambda_threshold
    return concentration_sweep(prob, [thr, 10 * thr, 100 * thr], cfg)


class TestWitnessStart:
    """Descent starts only from a negative-energy witness; without one nothing is solved."""

    @pytest.mark.parametrize(
        "nl", [zero_nonlinearity(), power_nonlinearity(eps=0.3)], ids=["zero", "eps-0.3"]
    )
    @pytest.mark.parametrize(
        "run", [minimize, solve_bvp, _short_sweep], ids=["minimize", "solve_bvp", "sweep"]
    )
    def test_no_witness_is_refused(self, prob, cfg, run, nl):
        with pytest.raises(WitnessError, match="W2"):
            run(_with_nonlinearity(prob, nl), cfg)

    def test_rotated_minimize_starts_on_the_soft_axis(self, prob, cfg):
        # from e1 the descent spends Newton steps turning onto the soft axis:
        # 81 Hessian actions at N = 4096, against 32 on the axis and 32 on the scalar preset
        rotated = default_problem(potential=rotated_well_potential())
        result, actions = _counted(minimize, rotated, cfg)
        assert result.converged
        assert result.energy == pytest.approx(minimize(prob, cfg).energy, rel=1e-13, abs=0)
        assert actions <= 40

    def test_bvp_ends_below_the_witness(self, prob, cfg):
        u0, s = negative_energy_witness(prob)
        witness = evaluate_energy(u0.with_values(s * u0.values), prob)
        assert solve_bvp(prob, cfg).energy <= witness < 0


class TestSolveBvp:
    def test_default_scenario(self, prob, cfg):
        res = solve_bvp(prob, cfg)
        assert res.converged
        assert res.energy < 0
        assert res.u.sup_norm() > 0

    def test_below_threshold_rejected(self, prob, cfg):
        low = prob.with_lam(0.5 * prob.constants.lambda_threshold)
        with pytest.raises(WeightError, match="lam.*threshold"):
            solve_bvp(low, cfg)

    def test_boundary_pinned_exactly(self, prob, cfg):
        res = solve_bvp(prob, cfg)
        lo, hi = prob.potential.core
        outside = (prob.times <= lo) | (prob.times >= hi)
        assert np.all(res.u.values[outside] == 0.0)

    def test_energy_independent_of_weight(self, prob, cfg):
        r1 = solve_bvp(prob, cfg)
        r2 = solve_bvp(prob.with_lam(100 * prob.lam), cfg)
        assert r1.energy == pytest.approx(r2.energy, rel=1e-12, abs=0)

    def test_weak_form_residual(self, prob, cfg, np_rng):
        res = solve_bvp(prob, cfg)
        mask = (prob.times > 0.0) & (prob.times < 0.5)
        for _ in range(20):
            vals = np.zeros((N_DEFAULT, 1))
            vals[mask, 0] = np_rng.standard_normal(int(mask.sum()))
            phi = SampledSignal(T_MIN, DT, vals)
            residual = directional_derivative(res.u, phi, prob)
            assert abs(residual) <= 10 * cfg.grad_tol * l2_norm(phi)

    def test_core_away_from_zero(self, prob, cfg):
        # the core may sit anywhere inside the well: (0.1, 0.5) solves like (0, 0.5)
        core = (0.1, 0.5)
        shifted = Problem(
            prob.order, prob.n_samples, prob.t_min, prob.dt,
            vanishing_well_potential(core=core), power_nonlinearity(core=core),
            prob.lam, prob.constants,
        )
        res = solve_bvp(shifted, cfg)
        u0, s = negative_energy_witness(shifted)
        assert res.converged
        assert res.energy <= evaluate_energy(u0.with_values(s * u0.values), shifted) < 0
        inside = (prob.times > core[0]) & (prob.times < core[1])
        assert np.all(res.u.values[~inside] == 0.0)
        assert np.all(res.u.values[inside] != 0.0)

    def test_ordering_against_full_minimizer(self, prob, cfg):
        full = minimize(prob, cfg)
        restricted = solve_bvp(prob, cfg)
        assert full.energy <= restricted.energy < 0


def _preset_problem(potential, nonlinearity, alpha, n_samples):
    pot = rotated_well_potential() if potential == "rotated" else None
    eps = 1e-6 if nonlinearity == "power-regularized" else 0.0
    return default_problem(
        alpha=alpha, n_samples=n_samples, potential=pot,
        nonlinearity=power_nonlinearity(eps=eps),
    )


def _strictly_decreasing_above(history, floor):
    energies = [e for e, _ in history]
    return all(b < a for a, b in zip(energies, energies[1:])) and min(energies) >= floor


@pytest.mark.parametrize(
    "potential, nonlinearity, alpha, n_samples",
    [
        ("rotated", "power", 0.75, 256),
        ("default", "power-regularized", 0.75, 256),
        ("rotated", "power-regularized", 0.75, 256),
        ("rotated", "power", 0.95, 256),
        ("default", "power", 0.95, 1024),
    ],
)
def test_solver_guarantees_across_presets(potential, nonlinearity, alpha, n_samples, cfg):
    prob = _preset_problem(potential, nonlinearity, alpha, n_samples)
    _, floor = lower_bound_minimum(prob)
    full = minimize(prob, cfg)
    restricted = solve_bvp(prob, cfg)
    for res in (full, restricted):
        assert res.converged
        assert _strictly_decreasing_above(res.history, floor)
    lo, hi = prob.potential.core
    outside = (prob.times <= lo) | (prob.times >= hi)
    assert np.all(restricted.u.values[outside] == 0.0)
    assert full.energy <= restricted.energy < 0


class TestUniformBound:
    def test_closed_form_matches_root_finder(self, prob):
        p = prob.nonlinearity.p
        xi_norm = prob.nonlinearity.xi_dual_norm(prob.times, prob.dt)
        coeff = xi_norm / (p * prob.constants.theta0 ** (p / 2))
        root = brentq(lambda r: 0.5 * r**2 - coeff * r**p, 1e-6, 1e6)
        c = uniform_bound_constant(prob)
        assert c == pytest.approx(1.05 * root, rel=1e-10, abs=0)
        # p = 3/2 closed form: (2 A)^2
        assert root == pytest.approx((2 * coeff) ** 2, rel=1e-10, abs=0)

    def test_zero_weight_degenerates(self, prob):
        quad_prob = _with_nonlinearity(prob, zero_nonlinearity())
        with pytest.warns(UserWarning, match="degenerates"):
            assert uniform_bound_constant(quad_prob) == 0.0


@pytest.fixture(scope="module")
def short_report(prob, cfg):
    thr = prob.constants.lambda_threshold
    return concentration_sweep(prob, [thr, 10 * thr, 100 * thr], cfg)


@pytest.fixture(scope="module")
def traced_sweep(prob, cfg):
    """The short ladder, its witness calls counted and its descents recorded."""
    witnesses, descents = [0], []
    witness, descend = solver.negative_energy_witness, solver._descend

    def counted_witness(p):
        witnesses[0] += 1
        return witness(p)

    def recorded_descend(*args, **kwargs):
        descents.append(descend(*args, **kwargs))
        return descents[-1]

    thr = prob.constants.lambda_threshold
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "negative_energy_witness", counted_witness)
        mp.setattr(solver, "_descend", recorded_descend)
        report = concentration_sweep(prob, [thr, 10 * thr, 100 * thr], cfg)
    return report, witnesses[0], descents


class TestSweep:
    def test_one_witness_per_sweep(self, traced_sweep):
        # the bvp's bump is the only one: the ladder starts from its solution
        _, witnesses, _ = traced_sweep
        assert witnesses == 1

    def test_first_rung_starts_at_the_restricted_level(self, traced_sweep):
        # u_tilde vanishes where L != 0, so its energy is c_tilde at every weight
        report, _, descents = traced_sweep
        bvp, first = descents[0], descents[1]
        assert bvp is report.bvp
        assert first.history[0][0] == report.c_tilde
        assert report.rows[0].c_lambda <= report.c_tilde

    def test_rows_ordered_and_unflagged(self, short_report):
        assert not short_report.flagged
        assert short_report.c_tilde < 0
        for row in short_report.rows:
            assert row.c_lambda <= short_report.c_tilde
            assert row.converged

    def test_tail_and_distance_trends(self, short_report):
        tails = [r.tail_mass for r in short_report.rows]
        dists = [r.dist_alpha for r in short_report.rows]
        assert all(b < a for a, b in zip(tails, tails[1:]))
        assert all(b <= a for a, b in zip(dists, dists[1:]))

    def test_norms_within_uniform_bound(self, prob, short_report):
        c = uniform_bound_constant(prob)
        for row in short_report.rows:
            assert row.norm_lambda <= c

    def test_weighted_mass_bound(self, short_report):
        for row in short_report.rows:
            assert row.weighted_mass <= row.norm_lambda**2 / row.lam + 1e-18

    def test_repeated_weight_gives_identical_rows(self, prob, cfg):
        lam = 10 * prob.constants.lambda_threshold
        report = concentration_sweep(prob, [lam, lam, lam], cfg)
        r0 = report.rows[0]
        for r in report.rows[1:]:
            assert r == r0

    def test_starved_solver_flags_rows_but_completes(self, prob):
        thr = prob.constants.lambda_threshold
        report = concentration_sweep(
            prob, [thr, 10 * thr, 100 * thr], SolverConfig(max_iters=2)
        )
        assert report.flagged
        assert len(report.rows) == 3
        assert any(not r.converged for r in report.rows)

    def test_short_ladder_rejected(self, prob, cfg):
        thr = prob.constants.lambda_threshold
        with pytest.raises(ValueError, match="3"):
            concentration_sweep(prob, [thr, 10 * thr], cfg)

    def test_descending_ladder_rejected(self, prob, cfg):
        thr = prob.constants.lambda_threshold
        with pytest.raises(ValueError, match="ascending"):
            concentration_sweep(prob, [10 * thr, thr, 100 * thr], cfg)

    def test_below_threshold_rejected(self, prob, cfg):
        thr = prob.constants.lambda_threshold
        with pytest.raises(ValueError, match="threshold"):
            concentration_sweep(prob, [0.5 * thr, thr, 10 * thr], cfg)



class TestReportedEnergy:
    """``SolveResult.energy`` is the energy of the descent's last accepted iterate."""

    def test_minimize_and_bvp(self, prob, cfg):
        full, restricted = minimize(prob, cfg), solve_bvp(prob, cfg)
        for res in (full, restricted):
            assert res.energy == res.history[-1][0]
        assert full.energy == evaluate_energy(full.u, prob)
        # the bvp descends on the core's window: its energy there, bit for bit, and
        # the whole line's energy of the zero-extended solution up to rounding
        window = prob.restricted(prob.potential.core)
        assert restricted.energy == window.energy(restricted.u.values[window.rows])
        assert restricted.energy == pytest.approx(evaluate_energy(restricted.u, prob), rel=1e-13, abs=0)

    def test_every_sweep_descent(self, traced_sweep):
        report, _, descents = traced_sweep
        assert len(descents) == 1 + len(report.rows)
        for res in descents:
            assert res.energy == res.history[-1][0]
        assert [r.c_lambda for r in report.rows] == [res.energy for res in descents[1:]]


LADDER = (2.0, 20.0, 200.0, 2000.0)


def _counted_sweep(prob, cfg):
    """The sweep on ``LADDER`` and the Hessian actions its CG solves took."""
    return _counted(concentration_sweep, prob, LADDER, cfg)


@pytest.fixture(scope="module")
def ladders(cfg):
    """Sweeps on ``LADDER`` at N = 1024: the default, alpha = 0.97 and rotated
    presets, and a second rotation of the wall."""
    cases = {
        "default": default_problem(n_samples=1024),
        "alpha-0.97": default_problem(alpha=0.97, n_samples=1024),
        "rotated": default_problem(n_samples=1024, potential=rotated_well_potential()),
        "rotated-1rad": default_problem(n_samples=1024, potential=wall_on_rotated_axes(1.0, 4.0)),
    }
    return {name: _counted_sweep(prob, cfg) for name, prob in cases.items()}


class TestLadderBudget:
    """Deterministic Hessian-action budgets: the two-block preconditioner keeps CG short."""

    @pytest.mark.parametrize("name, budget", [
        ("default", 160), ("alpha-0.97", 250), ("rotated", 145), ("rotated-1rad", 190),
    ])
    def test_hessian_actions_within_budget(self, ladders, name, budget):
        report, actions = ladders[name]
        assert not report.flagged
        assert 0 < actions <= budget  # 0 would mean the counter missed the kernel

    @pytest.mark.parametrize("name", ["rotated", "rotated-1rad"])
    def test_rotated_ladder_equals_scalar_ladder(self, ladders, name):
        # the soft axis of the rotated wall is constant in t, the kinetic form is
        # rotation invariant and W is radial: the energies are the scalar preset's.
        # The witness starts on that axis, so u_tilde and every rung stay on it and
        # concentrate as the scalar ladder does (measured: dist_alpha within 2.6e-9
        # relative, tail_mass within 9.4e-8; off the axis dist_alpha stalls at 8e-3)
        scalar, _ = ladders["default"]
        rotated, _ = ladders[name]
        assert not rotated.flagged
        assert rotated.c_tilde == pytest.approx(scalar.c_tilde, rel=1e-13, abs=0)
        for a, b in zip(rotated.rows, scalar.rows):
            assert a.c_lambda == pytest.approx(b.c_lambda, rel=1e-13, abs=0)
            assert a.dist_alpha == pytest.approx(b.dist_alpha, rel=1e-6, abs=0)
            assert a.tail_mass == pytest.approx(b.tail_mass, rel=1e-5, abs=0)

    def test_low_order_fine_ladder_unflagged(self, cfg):
        # alpha = 0.7 at N = 4096: the lam = 2 rung needs the quadratic forcing term
        report = concentration_sweep(default_problem(alpha=0.7), LADDER, cfg)
        assert not report.flagged
        assert {r.stop_reason for r in report.rows} == {"grad_tol"}
