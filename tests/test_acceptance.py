"""Acceptance suite: every criterion at its stated tolerance and time budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Criteria 7-9 share the default-scenario solves through
session-scoped fixtures; all tolerances are pinned here, none are tuned at
run time.
"""

import time

import numpy as np
import pytest

from frachs import (
    FracOrder,
    SampledSignal,
    concentration_sweep,
    directional_derivative,
    embedding_bounds,
    evaluate_energy,
    gradient,
    grid_sobolev_constant,
    h_alpha_norm,
    l2_norm,
    left_derivative,
    left_integral,
    lower_bound,
    midpoint_grid,
    minimize,
    quadrature_left_derivative,
    random_band_limited,
    reflect,
    riesz_composition,
    right_derivative,
    seminorm_alpha,
    signal_from_function,
    solve_bvp,
    uniform_bound_constant,
)
from frachs.cli import main

from conftest import DT, N_DEFAULT, T_MIN, discrete_extremal


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def within(elapsed, budget):
    return f"{elapsed:.1f}s of {budget:.0f}s budget"


@pytest.fixture(scope="module")
def bvp_result(prob, cfg):
    return solve_bvp(prob, cfg)


@pytest.fixture(scope="module")
def ladder_report(prob, cfg):
    thr = prob.constants.lambda_threshold
    t0 = time.perf_counter()
    rep = concentration_sweep(prob, [thr, 10 * thr, 100 * thr, 1000 * thr], cfg)
    return rep, time.perf_counter() - t0


def test_criterion_1_operator_oracle_agreement():
    t0 = time.perf_counter()
    failures = []
    for alpha in (0.55, 0.75, 0.95):
        a = FracOrder(alpha)
        errs = []
        # base grid at dt ~ 7.8e-3; one refinement improves both grid
        # parameters (dt halved, truncation doubled)
        for n, domain in ((32768, 256.0), (131072, 512.0)):
            t_min, dt = midpoint_grid(n, domain)
            g = signal_from_function(lambda t: np.exp(-(t**2)), n, t_min, dt)
            spec = left_derivative(g, a)
            quad = quadrature_left_derivative(g, a)
            mid = np.abs(g.times) <= domain / 4
            ref = np.max(np.abs(spec.values[mid, 0]))
            errs.append(float(np.max(np.abs(spec.values[mid, 0] - quad.values[mid, 0])) / ref))
        if not (errs[0] <= 1e-3 and errs[1] < errs[0]):
            failures.append((alpha, errs))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 5.0
    report(1, "operator-oracle", ok, f"worst cases {failures or 'none'}, {within(elapsed, 5)}")


def test_criterion_2_operator_laws(rng):
    t0 = time.perf_counter()
    a = FracOrder(0.75)
    worst = {"inverse": 0.0, "reflection": 0.0, "symbol": 0.0, "parseval": 0.0, "linearity": 0.0}
    for _ in range(50):
        u = random_band_limited(rng, N_DEFAULT, T_MIN, DT, band_fraction=rng.uniform(0.02, 0.5))
        scale = np.max(np.abs(u.values))
        zm = u.with_values(u.values - np.mean(u.values, axis=0))
        back = left_derivative(left_integral(zm, a), a)
        worst["inverse"] = max(worst["inverse"], np.max(np.abs(back.values - zm.values)) / scale)
        dual = reflect(left_derivative(reflect(u), a))
        rd = right_derivative(u, a)
        worst["reflection"] = max(
            worst["reflection"], np.max(np.abs(dual.values - rd.values)) / np.max(np.abs(rd.values))
        )
        one = riesz_composition(u, a)
        two = right_derivative(left_derivative(u, a), a)
        worst["symbol"] = max(
            worst["symbol"], np.max(np.abs(one.values - two.values)) / np.max(np.abs(one.values))
        )
        sn = seminorm_alpha(u, a)
        worst["parseval"] = max(worst["parseval"], abs(sn - l2_norm(left_derivative(u, a))) / sn)
        v = random_band_limited(rng, N_DEFAULT, T_MIN, DT)
        combo = left_derivative(u.with_values(2 * u.values + 3 * v.values), a)
        ref = 2 * left_derivative(u, a).values + 3 * left_derivative(v, a).values
        worst["linearity"] = max(
            worst["linearity"], np.max(np.abs(combo.values - ref)) / np.max(np.abs(ref))
        )
    elapsed = time.perf_counter() - t0
    ok = (
        worst["inverse"] <= 1e-8
        and worst["reflection"] <= 1e-10
        and worst["symbol"] <= 1e-10
        and worst["parseval"] <= 1e-10
        and worst["linearity"] <= 1e-12
        and elapsed < 10.0
    )
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    report(2, "operator-laws", ok, f"{detail}, {within(elapsed, 10)}")


def test_criterion_3_sup_norm_bound(prob, rng):
    # the random ensemble reaches at most about a fifth of C_alpha; the grid's
    # extremal profile attains C_grid, so a constant set too low fails on it
    t0 = time.perf_counter()
    c_alpha = prob.constants.c_alpha
    violations = 0
    for _ in range(500):
        u = random_band_limited(rng, N_DEFAULT, T_MIN, DT, band_fraction=rng.uniform(0.02, 0.9))
        if u.sup_norm() > c_alpha * h_alpha_norm(u, prob.order):
            violations += 1
    extremal, _ = discrete_extremal(prob.order, N_DEFAULT, T_MIN, DT)
    ratio = extremal.sup_norm() / h_alpha_norm(extremal, prob.order)
    c_grid = grid_sobolev_constant(prob.order, N_DEFAULT, DT)
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and 0.999 * c_grid <= ratio <= c_alpha and elapsed < 10.0
    report(
        3, "sup-norm-bound", ok,
        f"{violations} violations in 500, extremal ratio {ratio / c_alpha:.4f} C_alpha "
        f"({ratio / c_grid:.6f} C_grid), {within(elapsed, 10)}",
    )


def test_criterion_4_embedding_inequalities(prob, rng):
    t0 = time.perf_counter()
    thr = prob.constants.lambda_threshold
    violations = 0
    for lam in (thr, 10 * thr):
        at_lam = prob.with_lam(lam)
        for _ in range(200):
            u = random_band_limited(
                rng, N_DEFAULT, T_MIN, DT, band_fraction=rng.uniform(0.02, 0.5)
            )
            rep = embedding_bounds(u, at_lam)
            if not rep.passed:
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 20.0
    report(4, "embedding-bounds", ok, f"{violations} violations in 400, {within(elapsed, 20)}")


def test_criterion_5_gradient_checks(prob, rng):
    t0 = time.perf_counter()
    h = 1e-5
    worst_fd, worst_riesz = 0.0, 0.0
    for _ in range(50):
        u = random_band_limited(rng, N_DEFAULT, T_MIN, DT, band_fraction=rng.uniform(0.02, 0.5))
        phi = random_band_limited(rng, N_DEFAULT, T_MIN, DT, band_fraction=rng.uniform(0.02, 0.5))
        dd = directional_derivative(u, phi, prob)
        up = evaluate_energy(u.with_values(u.values + h * phi.values), prob)
        dn = evaluate_energy(u.with_values(u.values - h * phi.values), prob)
        fd = (up - dn) / (2 * h)
        worst_fd = max(worst_fd, abs(fd - dd) / max(abs(dd), 1e-6))
        g = gradient(u, prob)
        inner = prob.dt * np.sum(g.values * phi.values)
        worst_riesz = max(worst_riesz, abs(inner - dd) / max(abs(dd), 1e-8))
    elapsed = time.perf_counter() - t0
    ok = worst_fd <= 1e-5 and worst_riesz <= 1e-8 and elapsed < 20.0
    report(
        5, "gradient-checks", ok,
        f"fd={worst_fd:.2e} riesz={worst_riesz:.2e}, {within(elapsed, 20)}",
    )


def test_criterion_6_coercivity_certificate(prob, rng):
    t0 = time.perf_counter()
    c_bound = uniform_bound_constant(prob)
    targets = np.logspace(np.log10(1e-3), np.log10(10 * c_bound), 500)
    violations = 0
    for target in targets:
        u = random_band_limited(rng, N_DEFAULT, T_MIN, DT, band_fraction=rng.uniform(0.02, 0.5))
        norm = np.sqrt(prob.form(u.values, u.values))
        u = u.with_values((target / norm) * u.values)
        if evaluate_energy(u, prob) < lower_bound(u, prob) - 1e-12:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 20.0
    report(6, "coercivity", ok, f"{violations} violations in 500, {within(elapsed, 20)}")


def test_criterion_7_existence(prob, cfg, bvp_result):
    t0 = time.perf_counter()
    thr = prob.constants.lambda_threshold
    c_tilde = bvp_result.energy
    rows = []
    ok = c_tilde < 0
    for mult in (2, 10, 100):
        res = minimize(prob.with_lam(mult * thr), cfg)
        rows.append((mult, res.converged, res.energy, res.grad_norm))
        ok = ok and res.converged and res.grad_norm <= 1e-8
        ok = ok and res.energy < 0 and res.u.sup_norm() > 0
        ok = ok and res.energy <= c_tilde
    elapsed = time.perf_counter() - t0
    detail = "; ".join(f"{m}x: c={c:.3e} |g|={g:.1e}" for m, _, c, g in rows)
    report(
        7, "existence", ok and elapsed < 120.0,
        f"c_tilde={c_tilde:.3e}, {detail}, {within(elapsed, 120)}",
    )


def test_criterion_8_concentration(prob, ladder_report):
    rep, elapsed = ladder_report
    tails = [r.tail_mass for r in rep.rows]
    dists = [r.dist_alpha for r in rep.rows]
    norm_tilde = h_alpha_norm(rep.bvp.u, prob.order)
    a_ok = all(b < a for a, b in zip(tails, tails[1:])) and tails[-1] < 0.05
    b_ok = all(r.weighted_mass <= r.norm_lambda**2 / r.lam + 1e-18 for r in rep.rows)
    top = rep.rows[-1]
    b_ok = b_ok and top.norm_lambda**2 / top.lam <= 1e-3 * top.norm_lambda**2
    c_ok = all(b <= a for a, b in zip(dists, dists[1:])) and dists[-1] <= 0.1 * norm_tilde
    d_ok = all(r.norm_lambda <= rep.norm_bound for r in rep.rows)
    ok = a_ok and b_ok and c_ok and d_ok and not rep.flagged and elapsed < 300.0
    report(
        8, "concentration", ok,
        f"(a) tails={['%.2e' % t for t in tails]} {a_ok}; (b) {b_ok}; "
        f"(c) final dist {dists[-1]:.2e} <= {0.1 * norm_tilde:.2e} {c_ok}; "
        f"(d) {d_ok}, {within(elapsed, 300)}",
    )


def test_criterion_9_bvp_weak_residual(prob, cfg, bvp_result, np_rng):
    t0 = time.perf_counter()
    u_tilde = bvp_result.u
    lo, hi = prob.potential.core
    interior = (prob.times > lo) & (prob.times < hi)
    worst = 0.0
    for _ in range(20):
        vals = np.zeros((N_DEFAULT, prob.n_components))
        vals[interior, 0] = np_rng.standard_normal(int(interior.sum()))
        phi = SampledSignal(T_MIN, DT, vals)
        residual = directional_derivative(u_tilde, phi, prob)
        worst = max(worst, abs(residual) / l2_norm(phi))
    elapsed = time.perf_counter() - t0
    ok = worst <= 10 * cfg.grad_tol and elapsed < 30.0
    report(
        9, "bvp-weak-residual", ok,
        f"worst residual/||phi|| = {worst:.2e} vs {10 * cfg.grad_tol:.0e}, {within(elapsed, 30)}",
    )


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg_text = "[scenario]\npreset = default\nlambdas = 2,20,200\n"
    cfg_path = tmp_path / "det.ini"
    cfg_path.write_text(cfg_text)
    payloads = {}
    for label in ("one", "two"):
        out = tmp_path / label
        assert main(["solve", "--config", str(cfg_path), "--out", str(out), "--seed", "0"]) == 0
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out), "--seed", "0"]) == 0
        blobs = {}
        for name in sorted(out.iterdir()):
            if name.name.startswith("manifest-"):
                continue  # manifests carry wall-clock timestamps
            blobs[name.name] = name.read_bytes()
        payloads[label] = blobs
    same_names = set(payloads["one"]) == set(payloads["two"])
    identical = same_names and all(
        payloads["one"][k] == payloads["two"][k] for k in payloads["one"]
    )
    elapsed = time.perf_counter() - t0
    ok = identical and elapsed < 60.0
    report(
        10, "determinism", ok,
        f"{len(payloads['one'])} artifacts byte-identical={identical}, {within(elapsed, 60)}",
    )
