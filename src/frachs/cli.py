"""Command-line front end: hypothesis checks, solves, sweeps, operator selftest.

Commands
--------
check        run the structural and growth hypothesis checks, write a JSON report
solve        minimize the energy at one weight, write solution CSV + report JSON
bvp          solve the restricted Dirichlet problem on the core interval
sweep        run the ascending-weight ladder and report concentration
ops-selftest validate the spectral operators on the configured grid

Exit codes: 0 success, 1 hypothesis/selftest failure (including alpha <= 1/2,
L1-admissibility on every command, and solve, bvp or sweep on a problem
without a negative-energy witness, which writes no artifacts), 2 config error
(including a grid with no core sample where the witness's bump is positive, the
rule of :func:`~frachs.spaces.core_rows`, a domain too short to cover the well or the
sublevel set, a weight below the threshold, a sweep ladder without at least 3
ascending weights, nonlinearity constants the power family rejects, constants
so large that a coercivity bound or the least slack of a hypothesis check is
not a finite double, an unreadable config, an output path that is not a
directory and an artifact that cannot be written), 3 solver non-convergence,
4 flagged sweep row.  Every command reports a config error before a hypothesis failure:
:func:`~frachs.spaces.verify_potential` applies the grid rules (the well's margin, ``core_rows``,
``l >= k`` at the grid's ends) first, and ``check`` runs it before it samples W1-W2, in the
order :func:`~frachs.energy.default_problem` admits the others' problem, which also checks a
given weight (``check`` takes none); every descent computes its floor before it seeks the witness.
A hypothesis check fails (exit 1) by the one rule of
:func:`~frachs.spaces.judge`: some slack below ``-1e-12`` times the magnitude
its sample compares.  A failure is raised where it is found, and :func:`main`
alone maps it to its code and its one stderr line; exit 3 and every flagged
row name the stop reason on stderr instead.  Artifacts are stamped with the
config hash; identical config + seed reproduces byte-identical CSV/JSON
payloads (timestamps live only in the manifest).  Only ``check`` samples the
growth hypotheses W1-W2; the other reports leave them to its report of the
same hash.

``python -m frachs.cli`` and the ``frachs`` console script both enter through
:func:`run`, which freezes the heap built by the imports before it runs the
command; in-process callers use :func:`main`.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import datetime
import gc
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
from .solver import (
    SolveResult,
    SolverConfig,
    SweepRow,
    columns,
    concentration_sweep,
    minimize,
    solve_bvp,
)
from .spaces import (
    AdmissibilityError,
    BoundError,
    HypothesisError,
    ResolutionError,
    WeightError,
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
    """The configured nonlinearity; constants its family rejects raise :class:`ConfigError`."""
    try:
        if cfg.nonlinearity == "zero":
            return zero_nonlinearity(p=cfg.p, delta=cfg.delta)
        eps = cfg.eps if cfg.nonlinearity == "power-regularized" else 0.0
        return power_nonlinearity(
            p=cfg.p, nu=cfg.nu, xi_scale=cfg.xi_scale, xi_width=cfg.xi_width,
            delta=cfg.delta, core=(cfg.i_min, cfg.i_max), eps=eps,
        )
    except ValueError as exc:
        raise ConfigError(f"nonlinearity {cfg.nonlinearity!r}: {exc}") from None


def solver_config(cfg: ExperimentConfig) -> SolverConfig:
    return SolverConfig(max_iters=cfg.max_iters, grad_tol=cfg.grad_tol)


@contextlib.contextmanager
def _open_artifact(path: str):
    """``path`` opened for writing UTF-8 text; an ``OSError`` becomes a :class:`ConfigError`."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r} ({exc.strerror or exc})") from None


def _write_json(path: str, payload: dict):
    """``payload`` as strict JSON: a non-finite number is a bug and raises ``ValueError``."""
    with _open_artifact(path) as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, allow_nan=False)
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


def _write_csv(path: str, names, arrays):
    """A header of ``names``, then the rows of ``arrays`` side by side, every value as ``%.17g``.

    ``%.17g`` round-trips a double and renders it as ``format(x, ".17g")``
    does.  Each block of rows is formatted by one ``%`` of the row template
    repeated once per row; the whole table as Python floats at once would
    cost about a MiB at N = 8192.
    """
    row_template = ",".join(["%.17g"] * len(names)) + "\n"
    with _open_artifact(path) as fh:
        fh.write(",".join(names) + "\n")
        for start in range(0, len(arrays[0]), CSV_BLOCK_ROWS):
            rows = slice(start, start + CSV_BLOCK_ROWS)
            block = np.column_stack([a[rows] for a in arrays])
            fh.write((row_template * len(block)) % tuple(block.ravel().tolist()))


def _check_section(report) -> dict:
    """JSON section of one :class:`~frachs.spaces.CheckReport`."""
    return {"passed": report.passed, "checks": [dataclasses.asdict(c) for c in report.checks]}


def cmd_check(cfg: ExperimentConfig, out_dir: str) -> int:
    """L1-L3 (after the grid rules), W1-W2 and L1 admissibility on the configured grid, as one JSON report.

    The ``resolution`` section is a diagnostic, not a check: whether ``dt`` resolves
    the distance ``sqrt(wall_height * wall_steepness)`` over which the wall rises
    from 0 on the core to ``wall_height``.
    """
    pot, nl = build_potential(cfg), build_nonlinearity(cfg)
    t_min, dt = midpoint_grid(cfg.grid_n, cfg.domain)
    times = t_min + dt * np.arange(cfg.grid_n)
    pot_report = verify_potential(pot, times)
    growth = verify_growth(nl, times, pot.core, pot.n_components, seed=cfg.seed)
    failed = pot_report.failed_names() + growth.failed_names()
    try:
        constants = compute_embedding_constants(pot, FracOrder(cfg.alpha), cfg.grid_n, t_min, dt)
    except AdmissibilityError as exc:
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


def _problem(cfg: ExperimentConfig) -> Problem:
    """The nonlinearity (a :class:`ConfigError` first), then :func:`~frachs.energy.default_problem`."""
    nl = build_nonlinearity(cfg)
    return default_problem(lam=cfg.lam or None, alpha=cfg.alpha, n_samples=cfg.grid_n,
                           domain=cfg.domain, potential=build_potential(cfg), nonlinearity=nl)


def _solve_common(cfg: ExperimentConfig, out_dir: str, restricted: bool) -> int:
    prob = _problem(cfg)
    scfg = solver_config(cfg)
    result = solve_bvp(prob, scfg) if restricted else minimize(prob, scfg)

    tag = "bvp" if restricted else "solve"
    h = cfg.config_hash()
    report = {
        "config_hash": h,
        "command": tag,
        "lambda": prob.lam,
        "lambda_threshold": prob.constants.lambda_threshold,
        "theta0": prob.constants.theta0,
        "c_alpha": prob.constants.c_alpha,
        "sublevel_measure": prob.constants.sublevel_measure,
        **{name: getattr(result, attr) for name, attr in columns(SolveResult, "json")},
        "sup_norm": result.u.sup_norm(),
    }
    if restricted:
        report["c_tilde"] = result.energy
    _write_manifest(out_dir, cfg, tag)
    u = result.u
    names = ["t"] + [f"u_{i + 1}" for i in range(u.n_components)]
    _write_csv(os.path.join(out_dir, f"{tag}-solution-{h}.csv"), names, [u.times, u.values])
    _write_json(os.path.join(out_dir, f"{tag}-report-{h}.json"), report)
    print(
        f"{tag}: lambda={prob.lam:.6g} energy={result.energy:.6e} "
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
    prob = _problem(cfg)
    report = concentration_sweep(prob, cfg.lambdas, solver_config(cfg))
    h = cfg.config_hash()
    csv_columns = columns(SweepRow, "csv")
    table = np.array([[getattr(r, attr) for _, attr in csv_columns] for r in report.rows])
    _write_csv(os.path.join(out_dir, f"sweep-{h}.csv"), [name for name, _ in csv_columns], [table])
    payload = {
        "config_hash": h,
        "command": "sweep",
        "c_tilde": report.c_tilde,
        "norm_bound": report.norm_bound,
        "lambda_threshold": prob.constants.lambda_threshold,
        "theta0": prob.constants.theta0,
        "c_alpha": prob.constants.c_alpha,
        "rows": [
            {name: getattr(r, attr) for name, attr in columns(SweepRow, "json")}
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

    def relative_error(x, ref):  # sup |x - ref| / sup |ref|
        return np.max(np.abs(x - ref)) / max(np.max(np.abs(ref)), 1e-300)

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
    record("reflection-duality", relative_error(dual.values, rdu.values), 1e-10)

    two_step = right_derivative(left_derivative(u, a), a)
    one_step = riesz_composition(u, a)
    record("symbol-product", relative_error(two_step.values, one_step.values), 1e-10)

    sn = seminorm_alpha(u, a)
    record("parseval-seminorm", abs(sn - l2_norm(left_derivative(u, a))) / max(sn, 1e-300), 1e-10)

    w = random_band_limited(rng, n, t_min, dt, band_fraction=0.2)
    lin = left_derivative(u.with_values(2.0 * u.values + 3.0 * w.values), a)
    lin_ref = 2.0 * left_derivative(u, a).values + 3.0 * left_derivative(w, a).values
    record("linearity", relative_error(lin.values, lin_ref), 1e-12)

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


def _output_dir(path: str) -> str:
    """``path``, created if missing; one that cannot be raises :class:`ConfigError`."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:  # e.g. --out names an existing file
        raise ConfigError(f"cannot create the output directory {path!r} ({exc.strerror})") from None
    return path


# Each flag replaces one config field; its value is parsed as the field's would be.
_OVERRIDE_FLAGS = (
    ("--out", "out_dir", "output directory (overrides [output])"),
    ("--seed", "seed", None),
    ("--lambda", "lam", None),
    ("--lambdas", "lambdas", "comma-separated ascending list"),
    ("--grid-n", "grid_n", None),
    ("--domain", "domain", None),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="frachs",
        description="Fractional Hamiltonian systems: hypothesis checks, energy "
        "minimization and concentration sweeps.",
    )
    commands = {"check": cmd_check, "solve": cmd_solve, "bvp": cmd_bvp, "sweep": cmd_sweep}
    parser.add_argument("command", choices=[*commands, "ops-selftest"])
    parser.add_argument("--config", required=True, help="path to the INI config")
    for flag, field, help_text in _OVERRIDE_FLAGS:
        parser.add_argument(flag, dest=field, help=help_text)
    args = parser.parse_args(argv)
    overrides = {
        field: raw for _, field, _ in _OVERRIDE_FLAGS if (raw := getattr(args, field)) is not None
    }
    try:
        cfg = parse_config(args.config, overrides)
        if args.command == "ops-selftest":
            return cmd_ops_selftest(cfg)
        return commands[args.command](cfg, _output_dir(cfg.out_dir))
    except ResolutionError as exc:  # parse_config never raises it, so cfg is bound
        line, code = f"config error: {exc} (grid_n = {cfg.grid_n}, domain = {cfg.domain:g})", EXIT_CONFIG
    except (ConfigError, WeightError, BoundError) as exc:
        line, code = f"config error: {exc}", EXIT_CONFIG
    except HypothesisError as exc:
        line, code = f"hypothesis failure: {exc}", EXIT_HYPOTHESIS
    except AdmissibilityError as exc:
        line, code = f"hypothesis failure: L1-admissibility ({exc})", EXIT_HYPOTHESIS
    except WitnessError as exc:
        line, code = f"hypothesis failure: W2-witness ({exc})", EXIT_HYPOTHESIS
    print(line, file=sys.stderr)
    return code


def run() -> int:
    """Process entry of ``python -m frachs.cli`` and the ``frachs`` script: :func:`main` on ``sys.argv``.

    ``gc.freeze()`` first moves every object the imports created (numpy's
    module graph, mostly) to the collector's permanent generation, so neither
    the command's collections nor the collections of the interpreter's exit
    traverse them again; at exit that cuts the teardown of a command from
    about 28 ms to 8 ms (Python 3.11, 2 shared vCPUs).  Atexit handlers,
    stream flushing and the exit code are unchanged.  In-process callers of
    :func:`main` never freeze their heap.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
