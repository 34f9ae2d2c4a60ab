"""Command-line front end: hypothesis checks, solves, sweeps, operator selftest.

Commands
--------
check        run the structural and growth hypothesis checks, write a JSON report
solve        minimize the energy at one weight, write solution CSV + report JSON
bvp          solve the restricted Dirichlet problem on the core interval
sweep        run the ascending-weight ladder and report concentration
ops-selftest validate the spectral operators on the configured grid

Exit codes: 0 success, 1 hypothesis/selftest failure (including solve, bvp
or sweep on a problem without a negative-energy witness, which writes no
artifacts), 2 config error (including a grid too coarse to resolve the core,
a domain too short to cover the well or the sublevel set, an unreadable
config, an output path that is not a directory and an artifact that cannot
be written), 3 solver non-convergence, 4 flagged sweep row; exit 3 and every
flagged row name the stop reason on stderr.  Artifacts are stamped with the
config hash; identical config + seed reproduces byte-identical CSV/JSON
payloads (timestamps live only in the manifest).  Only ``check`` samples the
growth hypotheses W1-W2; the other reports leave them to its report of the
same hash.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import datetime
import json
import math
import os
import random
import sys

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, parse_config
from .energy import Problem, WitnessError, default_problem
from .fracops import (
    left_derivative,
    left_integral,
    quadrature_left_derivative,
    right_derivative,
    riesz_composition,
    seminorm_alpha,
)
from .grid import (
    FracOrder,
    l2_norm,
    midpoint_grid,
    random_band_limited,
    reflect,
    signal_from_function,
)
from .nonlinearity import power_nonlinearity, verify_growth, zero_nonlinearity
from .solver import SolverConfig, concentration_sweep, minimize, solve_bvp
from .spaces import (
    AdmissibilityError,
    ResolutionError,
    compute_embedding_constants,
    rotated_well_potential,
    vanishing_well_potential,
    verify_potential,
)

EXIT_OK = 0
EXIT_HYPOTHESIS = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_SWEEP_FLAG = 4


def build_potential(cfg: ExperimentConfig):
    kwargs = dict(
        well=(cfg.j_min, cfg.j_max),
        core=(cfg.i_min, cfg.i_max),
        threshold=cfg.k,
        envelope_steepness=cfg.envelope_steepness,
        wall_height=cfg.wall_height,
        wall_steepness=cfg.wall_steepness,
    )
    if cfg.preset == "rotated":
        return rotated_well_potential(**kwargs)
    return vanishing_well_potential(**kwargs)


def build_nonlinearity(cfg: ExperimentConfig):
    if cfg.nonlinearity == "zero":
        return zero_nonlinearity(p=cfg.p, delta=cfg.delta)
    eps = cfg.eps if cfg.nonlinearity == "power-regularized" else 0.0
    return power_nonlinearity(
        p=cfg.p, nu=cfg.nu, xi_scale=cfg.xi_scale, xi_width=cfg.xi_width,
        delta=cfg.delta, core=(cfg.i_min, cfg.i_max), eps=eps,
    )


def solver_config(cfg: ExperimentConfig) -> SolverConfig:
    return SolverConfig(max_iters=cfg.max_iters, grad_tol=cfg.grad_tol)


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


class ArtifactError(Exception):
    """An artifact could not be written; the message names its path and the OS reason."""


@contextlib.contextmanager
def _open_artifact(path: str):
    """``path`` opened for writing UTF-8 text; any ``OSError`` becomes an :class:`ArtifactError`."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise ArtifactError(f"cannot write {path!r} ({exc.strerror or exc})") from None


def _write_json(path: str, payload: dict):
    with _open_artifact(path) as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=_json_default)
        fh.write("\n")


def _write_manifest(out_dir: str, cfg: ExperimentConfig, command: str):
    payload = {
        "command": command,
        "config_hash": cfg.config_hash(),
        "config": cfg.canonical_text(),
        "out_dir": cfg.out_dir,
        "versions": {"frachs": __version__, "numpy": np.__version__},
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    _write_json(os.path.join(out_dir, f"manifest-{cfg.config_hash()}.json"), payload)


CSV_BLOCK_ROWS = 256  # rows formatted per block: bounded memory, few Python calls


def _write_solution_csv(path: str, u):
    """``t,u_1,...,u_n`` with every value as ``%.17g``, which round-trips a double.

    Each block of rows is formatted by one ``%`` of the row template
    repeated once per row; the whole table as Python floats at once would
    cost about a MiB at N = 8192.
    """
    cols = ["t"] + [f"u_{i + 1}" for i in range(u.n_components)]
    row_template = ",".join(["%.17g"] * len(cols)) + "\n"
    times = u.times
    with _open_artifact(path) as fh:
        fh.write(",".join(cols) + "\n")
        for start in range(0, u.n_samples, CSV_BLOCK_ROWS):
            rows = slice(start, start + CSV_BLOCK_ROWS)
            block = np.column_stack([times[rows], u.values[rows]])
            fh.write((row_template * len(block)) % tuple(block.ravel().tolist()))


def _check_section(report) -> dict:
    """JSON section of one :class:`~frachs.spaces.CheckReport`."""
    return {"passed": report.passed, "checks": [dataclasses.asdict(c) for c in report.checks]}


def cmd_check(cfg: ExperimentConfig, out_dir: str) -> int:
    """W1-W2, L1-L3 and L1 admissibility on the configured grid, as one JSON report.

    The growth checks run first, so a grid too coarse for the core keeps their message.
    The ``resolution`` section is a diagnostic, not a check: whether ``dt`` resolves
    the distance ``sqrt(wall_height * wall_steepness)`` over which the wall rises
    from 0 on the core to ``wall_height``.
    """
    pot, nl = build_potential(cfg), build_nonlinearity(cfg)
    t_min, dt = midpoint_grid(cfg.grid_n, cfg.domain)
    times = t_min + dt * np.arange(cfg.grid_n)
    growth = verify_growth(nl, times, pot.core, pot.n_components, seed=cfg.seed)
    pot_report = verify_potential(pot, times)
    failed = pot_report.failed_names() + growth.failed_names()
    try:
        constants = compute_embedding_constants(pot, FracOrder(cfg.alpha), cfg.grid_n, t_min, dt)
    except ValueError as exc:  # AdmissibilityError, or alpha <= 1/2
        admissibility = {"name": "L1-admissibility", "passed": False, "reason": str(exc)}
        failed.append("L1-admissibility")
    else:
        admissibility = {
            "name": "L1-admissibility",
            "passed": True,
            "c_alpha": constants.c_alpha,
            "sublevel_measure": constants.sublevel_measure,
            "product": constants.admissibility_product,
            "margin": constants.admissibility_margin,
            "theta0": constants.theta0,
            "lambda_threshold": constants.lambda_threshold,
        }
    wall_width = math.sqrt(cfg.wall_height * cfg.wall_steepness)
    h = cfg.config_hash()
    report = {
        "config_hash": h,
        "potential": _check_section(pot_report),
        "growth": _check_section(growth),
        "admissibility": admissibility,
        "resolution": {"dt": dt, "wall_width": wall_width, "resolved": dt <= wall_width},
        "passed": not failed,
    }
    _write_manifest(out_dir, cfg, "check")
    _write_json(os.path.join(out_dir, f"check-{h}.json"), report)
    if failed:
        print("check: FAIL (" + ", ".join(failed) + ")")
        return EXIT_HYPOTHESIS
    print("check: PASS")
    return EXIT_OK


def _gated_problem(cfg: ExperimentConfig) -> tuple[int, Problem | None]:
    """The problem of solve/bvp/sweep at 10x the threshold, or the exit status that stops them.

    Alpha must admit the variational setting and the potential must pass
    L1-L3 and L1 admissibility; a failure is reported on stderr.
    """
    if not FracOrder(cfg.alpha).variational_ok:
        print(f"config error: the solver needs alpha in (1/2, 1), got {cfg.alpha}", file=sys.stderr)
        return EXIT_CONFIG, None
    potential = build_potential(cfg)
    t_min, dt = midpoint_grid(cfg.grid_n, cfg.domain)
    pot_report = verify_potential(potential, t_min + dt * np.arange(cfg.grid_n))
    if not pot_report.passed:
        print("hypothesis failure: " + ", ".join(pot_report.failed_names()), file=sys.stderr)
        return EXIT_HYPOTHESIS, None
    try:
        return EXIT_OK, default_problem(
            alpha=cfg.alpha, n_samples=cfg.grid_n, domain=cfg.domain,
            potential=potential, nonlinearity=build_nonlinearity(cfg),
        )
    except AdmissibilityError as exc:
        print(f"hypothesis failure: L1-admissibility ({exc})", file=sys.stderr)
        return EXIT_HYPOTHESIS, None


def _solve_common(cfg: ExperimentConfig, out_dir: str, restricted: bool) -> int:
    status, prob = _gated_problem(cfg)
    if status != EXIT_OK:
        return status
    constants = prob.constants
    lam = cfg.lam if cfg.lam > 0 else prob.lam
    if lam < constants.lambda_threshold:
        print(
            f"config error: lambda = {lam:.6g} is below the threshold "
            f"{constants.lambda_threshold:.6g}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    prob = prob.with_lam(lam)
    scfg = solver_config(cfg)
    result = solve_bvp(prob, scfg) if restricted else minimize(prob, scfg)

    tag = "bvp" if restricted else "solve"
    h = cfg.config_hash()
    report = {
        "config_hash": h,
        "command": tag,
        "lambda": lam,
        "lambda_threshold": constants.lambda_threshold,
        "theta0": constants.theta0,
        "c_alpha": constants.c_alpha,
        "sublevel_measure": constants.sublevel_measure,
        "energy": result.energy,
        "grad_norm": result.grad_norm,
        "grad_norm_weighted": result.grad_norm_weighted,
        "iterations": result.iterations,
        "converged": result.converged,
        "sup_norm": result.u.sup_norm(),
        "history": [[e, g] for e, g in result.history],
    }
    if restricted:
        report["c_tilde"] = result.energy
    _write_manifest(out_dir, cfg, tag)
    _write_solution_csv(os.path.join(out_dir, f"{tag}-solution-{h}.csv"), result.u)
    _write_json(os.path.join(out_dir, f"{tag}-report-{h}.json"), report)
    print(
        f"{tag}: lambda={lam:.6g} energy={result.energy:.6e} "
        f"grad_norm={result.grad_norm:.3e} iters={result.iterations} "
        f"converged={result.converged}"
    )
    if not result.converged:
        print(
            f"{tag}: not converged, stop reason {result.stop_reason} "
            f"(grad_norm {result.grad_norm:.3e} > grad_tol {scfg.grad_tol:.3e})",
            file=sys.stderr,
        )
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_solve(cfg, out_dir) -> int:
    return _solve_common(cfg, out_dir, restricted=False)


def cmd_bvp(cfg, out_dir) -> int:
    return _solve_common(cfg, out_dir, restricted=True)


def cmd_sweep(cfg: ExperimentConfig, out_dir: str) -> int:
    if len(cfg.lambdas) < 3:
        print("config error: a sweep needs at least 3 ascending weights in 'lambdas'",
              file=sys.stderr)
        return EXIT_CONFIG
    status, prob = _gated_problem(cfg)
    if status != EXIT_OK:
        return status
    constants = prob.constants
    if cfg.lambdas[0] < constants.lambda_threshold:
        print(
            f"config error: all weights must be >= the threshold "
            f"{constants.lambda_threshold:.6g}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    report = concentration_sweep(prob, cfg.lambdas, solver_config(cfg))
    h = cfg.config_hash()
    csv_path = os.path.join(out_dir, f"sweep-{h}.csv")
    cols = ["lambda", "c_lambda", "c_tilde", "tail_mass", "weighted_mass",
            "dist_alpha", "norm_lambda"]
    with _open_artifact(csv_path) as fh:
        fh.write(",".join(cols) + "\n")
        for row in report.rows:
            cells = [row.lam, row.c_lambda, report.c_tilde, row.tail_mass,
                     row.weighted_mass, row.dist_alpha, row.norm_lambda]
            fh.write(",".join(format(x, ".17g") for x in cells) + "\n")
    payload = {
        "config_hash": h,
        "command": "sweep",
        "c_tilde": report.c_tilde,
        "norm_bound": report.norm_bound,
        "lambda_threshold": constants.lambda_threshold,
        "theta0": constants.theta0,
        "c_alpha": constants.c_alpha,
        "rows": [
            {"lambda": r.lam, "c_lambda": r.c_lambda, "tail_mass": r.tail_mass,
             "weighted_mass": r.weighted_mass, "dist_alpha": r.dist_alpha,
             "norm_lambda": r.norm_lambda, "converged": r.converged,
             "ordering_ok": r.ordering_ok, "bound_ok": r.bound_ok,
             "flagged": r.flagged}
            for r in report.rows
        ],
        "flagged": report.flagged,
    }
    _write_manifest(out_dir, cfg, "sweep")
    _write_json(os.path.join(out_dir, f"sweep-report-{h}.json"), payload)
    for r in report.rows:
        print(
            f"sweep: lambda={r.lam:.6g} c={r.c_lambda:.6e} tail={r.tail_mass:.3e} "
            f"dist={r.dist_alpha:.3e}" + ("  [FLAGGED]" if r.flagged else "")
        )
        if r.flagged:
            print(
                f"sweep: lambda={r.lam:.6g} [FLAGGED] stop reason {r.stop_reason} "
                f"converged={r.converged} ordering_ok={r.ordering_ok} bound_ok={r.bound_ok}",
                file=sys.stderr,
            )
    return EXIT_SWEEP_FLAG if report.flagged else EXIT_OK


def cmd_ops_selftest(cfg: ExperimentConfig) -> int:
    """Operator law suite at the configured grid; prints worst-case errors."""
    n, domain = cfg.grid_n, cfg.domain
    t_min, dt = midpoint_grid(n, domain)
    a = FracOrder(cfg.alpha)
    rng = random.Random(cfg.seed)
    results = []

    def record(name, err, tol):
        results.append((name, err, tol, err <= tol))

    u = random_band_limited(rng, n, t_min, dt, band_fraction=0.2)

    m = max(1, n // 16)
    w1 = 2.0 * np.pi * m / (n * dt)
    tone = signal_from_function(lambda t: np.cos(w1 * t), n, t_min, dt)
    ld = left_derivative(tone, a)
    expect = w1**a.alpha * np.cos(w1 * tone.times + a.alpha * np.pi / 2.0)
    record("tone-left-derivative", np.max(np.abs(ld.values[:, 0] - expect)) / w1**a.alpha, 1e-8)
    rd = right_derivative(tone, a)
    expect_r = w1**a.alpha * np.cos(w1 * tone.times - a.alpha * np.pi / 2.0)
    record("tone-right-derivative", np.max(np.abs(rd.values[:, 0] - expect_r)) / w1**a.alpha, 1e-8)

    sine = signal_from_function(lambda t: np.sin(w1 * t), n, t_min, dt)
    back = left_derivative(left_integral(sine, a), a)
    record("inverse-law", np.max(np.abs(back.values - sine.values)), 1e-8)

    dual = reflect(left_derivative(reflect(u), a))
    rdu = right_derivative(u, a)
    record(
        "reflection-duality",
        np.max(np.abs(dual.values - rdu.values)) / max(np.max(np.abs(rdu.values)), 1e-300),
        1e-10,
    )

    two_step = right_derivative(left_derivative(u, a), a)
    one_step = riesz_composition(u, a)
    record(
        "symbol-product",
        np.max(np.abs(two_step.values - one_step.values))
        / max(np.max(np.abs(one_step.values)), 1e-300),
        1e-10,
    )

    sn = seminorm_alpha(u, a)
    record("parseval-seminorm", abs(sn - l2_norm(left_derivative(u, a))) / max(sn, 1e-300), 1e-10)

    w = random_band_limited(rng, n, t_min, dt, band_fraction=0.2)
    lin = left_derivative(u.with_values(2.0 * u.values + 3.0 * w.values), a)
    lin_ref = 2.0 * left_derivative(u, a).values + 3.0 * left_derivative(w, a).values
    record("linearity", np.max(np.abs(lin.values - lin_ref)) / max(np.max(np.abs(lin_ref)), 1e-300), 1e-12)

    gauss = signal_from_function(lambda t: np.exp(-(t**2)), n, t_min, dt)
    spec_d = left_derivative(gauss, a)
    try:
        quad_d = quadrature_left_derivative(gauss, a)
        mid = np.abs(gauss.times) <= domain / 4.0
        ref = np.max(np.abs(spec_d.values[mid, 0]))
        if ref == 0.0:
            raise ValueError(
                f"the derivative of exp(-t^2) is 0 on |t| <= domain/4 at dt = {dt:.3g}: "
                "no sample resolves the Gaussian"
            )
        err = np.max(np.abs(spec_d.values[mid, 0] - quad_d.values[mid, 0])) / ref
        # tolerance covers the half-line kernel's periodization mismatch at
        # desk-scale domains, not just the quadrature's own O(dt^2) error
        record("quadrature-oracle", err, 5e-3)
    except ValueError as exc:
        print(f"quadrature-oracle: ERROR ({exc})")
        results.append(("quadrature-oracle", np.inf, 5e-3, False))

    ok = True
    for name, err, tol, passed in results:
        status = "ok" if passed else "FAIL"
        print(f"{name:24s} worst error {err:.3e}  (tol {tol:.0e})  {status}")
        ok = ok and passed
    if not ok:
        print(
            "selftest: FAIL - the grid is too coarse or too short for the "
            "requested tolerances (truncation/resolution diagnostics above)"
        )
        return EXIT_HYPOTHESIS
    print("selftest: PASS")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="frachs",
        description="Fractional Hamiltonian systems: hypothesis checks, energy "
        "minimization and concentration sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("check", "solve", "bvp", "sweep", "ops-selftest"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the INI config")
        p.add_argument("--out", default=None, help="output directory (overrides [output])")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--lambda", dest="lam", type=float, default=None)
        p.add_argument("--lambdas", type=str, default=None, help="comma-separated ascending list")
        p.add_argument("--grid-n", type=int, default=None)
        p.add_argument("--domain", type=float, default=None)
    args = parser.parse_args(argv)

    overrides: dict[str, object] = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.lam is not None:
        overrides["lam"] = args.lam
    if args.lambdas is not None:
        try:
            overrides["lambdas"] = tuple(float(x) for x in args.lambdas.split(","))
        except ValueError:
            print(f"config error: cannot parse --lambdas {args.lambdas!r}", file=sys.stderr)
            return EXIT_CONFIG
    if args.grid_n is not None:
        overrides["grid_n"] = args.grid_n
    if args.domain is not None:
        overrides["domain"] = args.domain
    if args.out is not None:
        overrides["out_dir"] = args.out

    try:
        cfg = parse_config(args.config, overrides)
    except FileNotFoundError:
        print(f"config error: no such file {args.config!r}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "ops-selftest":
        return cmd_ops_selftest(cfg)

    out_dir = cfg.out_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:  # e.g. --out names an existing file
        print(f"config error: cannot create the output directory {out_dir!r} ({exc.strerror})",
              file=sys.stderr)
        return EXIT_CONFIG
    commands = {"check": cmd_check, "solve": cmd_solve, "bvp": cmd_bvp, "sweep": cmd_sweep}
    try:
        return commands[args.command](cfg, out_dir)
    except ResolutionError as exc:
        print(f"config error: {exc} (grid_n = {cfg.grid_n}, domain = {cfg.domain:g})",
              file=sys.stderr)
        return EXIT_CONFIG
    except WitnessError as exc:
        print(f"hypothesis failure: W2-witness ({exc})", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ArtifactError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
