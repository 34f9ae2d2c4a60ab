"""Correctness gate applied to every command the benchmark runs.

``check`` returns the list of problems found in one command's exit code,
printed output and artifacts; an empty list means the command passed.
Energies must match ``reference.json`` to ``ENERGY_RTOL`` relative; the other
reported numbers to ``LOOSE_RTOL`` relative plus ``LOOSE_ATOL`` absolute,
because a solver that stops at the same gradient tolerance by another path
moves them at first order while the energy moves at second order.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

ENERGY_RTOL = 1e-10
LOOSE_RTOL = 1e-4
LOOSE_ATOL = 1e-9
ENERGY_FIELDS = ("energy", "c_tilde", "c_lambda")

# The open core (i_min, i_max) of both benchmark configs: bvp solutions must
# be exactly zero at every grid point outside it.
CORE = (0.0, 0.5)

_ARTIFACTS = {
    "check": ("manifest-*.json", "check-*.json"),
    "solve": ("manifest-*.json", "solve-report-*.json", "solve-solution-*.csv"),
    "bvp": ("manifest-*.json", "bvp-report-*.json", "bvp-solution-*.csv"),
    "sweep": ("manifest-*.json", "sweep-report-*.json", "sweep-*.csv"),
    "ops-selftest": (),
}
_CONSTANTS = ("c_alpha", "sublevel_measure", "theta0", "lambda_threshold")
_ROW_FIELDS = ("lambda", "c_lambda", "tail_mass", "weighted_mass", "dist_alpha", "norm_lambda")


def _one(out: Path, pattern: str) -> Path:
    found = sorted(out.glob(pattern))
    if len(found) != 1:
        raise FileNotFoundError(f"expected one {pattern} in {out}, found {len(found)}")
    return found[0]


def _csv_rows(path: Path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [[float(x) for x in row] for row in reader]


def observed(cmd: str, out: Path) -> dict:
    """The numbers of one command's artifacts that are compared with the reference."""
    if cmd == "check":
        adm = json.loads(_one(out, "check-*.json").read_text())["admissibility"]
        return {k: adm[k] for k in _CONSTANTS}
    if cmd in ("solve", "bvp"):
        report = json.loads(_one(out, f"{cmd}-report-*.json").read_text())
        return {k: report[k] for k in ("energy", "lambda", "sup_norm", *_CONSTANTS)}
    if cmd == "sweep":
        report = json.loads(_one(out, "sweep-report-*.json").read_text())
        values = {k: report[k] for k in ("c_tilde", "norm_bound", "lambda_threshold",
                                          "theta0", "c_alpha")}
        values["rows"] = [{k: row[k] for k in _ROW_FIELDS} for row in report["rows"]]
        return values
    return {}


def _compare(label: str, got, want, problems: list[str]):
    if isinstance(want, dict):
        for key in want:
            _compare(f"{label}.{key}", got.get(key) if isinstance(got, dict) else None,
                     want[key], problems)
        return
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{label}: expected {len(want)} entries, got {got!r}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(f"{label}[{i}]", g, w, problems)
        return
    if not isinstance(got, (int, float)):
        problems.append(f"{label}: expected a number, got {got!r}")
        return
    if label.rsplit(".", 1)[-1] in ENERGY_FIELDS:
        ok = abs(got - want) <= ENERGY_RTOL * abs(want)
    else:
        ok = abs(got - want) <= LOOSE_RTOL * abs(want) + LOOSE_ATOL
    if not ok:
        problems.append(f"{label}: {got!r} differs from the reference {want!r}")


def _check_solution(cmd: str, out: Path, problems: list[str]):
    report = json.loads(_one(out, f"{cmd}-report-*.json").read_text())
    if report.get("converged") is not True:
        problems.append(f"{cmd}: converged is {report.get('converged')!r}")
    energies = [e for e, _ in report["history"]]
    if not all(b < a for a, b in zip(energies, energies[1:])):
        problems.append(f"{cmd}: the energy history is not strictly decreasing")
    header, rows = _csv_rows(_one(out, f"{cmd}-solution-*.csv"))
    if header[0] != "t" or not rows:
        problems.append(f"{cmd}: malformed solution CSV")
    elif cmd == "bvp":
        lo, hi = CORE
        outside = [row for row in rows if not lo < row[0] < hi]
        if not outside or any(x != 0.0 for row in outside for x in row[1:]):
            problems.append("bvp: the solution is not exactly zero outside the open core")


def _check_sweep(out: Path, problems: list[str]):
    report = json.loads(_one(out, "sweep-report-*.json").read_text())
    if report.get("flagged") is not False:
        problems.append("sweep: the report is flagged")
    for row in report["rows"]:
        if row.get("converged") is not True or row.get("flagged") is not False:
            problems.append(f"sweep: row lambda={row.get('lambda')} not converged or flagged")
    header, rows = _csv_rows(_one(out, "sweep-*.csv"))
    c_lam, c_tilde = header.index("c_lambda"), header.index("c_tilde")
    if len(rows) != len(report["rows"]):
        problems.append("sweep: the CSV and the report disagree on the number of rows")
    for row in rows:
        if not row[c_lam] <= row[c_tilde] < 0.0:
            problems.append(f"sweep: c_lambda <= c_tilde < 0 fails at lambda={row[0]}")


def check(cmd: str, out: Path, returncode: int, output: str, reference: dict) -> list[str]:
    """Problems found in one command's results; ``reference`` is its reference.json entry."""
    problems: list[str] = []
    if returncode != 0:
        problems.append(f"{cmd}: exit code {returncode}")
    try:
        for pattern in _ARTIFACTS[cmd]:
            _one(out, pattern)
        if cmd == "check":
            if json.loads(_one(out, "check-*.json").read_text()).get("passed") is not True:
                problems.append("check: the hypothesis report did not pass")
        elif cmd in ("solve", "bvp"):
            _check_solution(cmd, out, problems)
        elif cmd == "sweep":
            _check_sweep(out, problems)
        elif "selftest: PASS" not in output:
            problems.append("ops-selftest: no 'selftest: PASS' line")
        _compare(cmd, observed(cmd, out), reference, problems)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"{cmd}: unreadable artifacts ({type(exc).__name__}: {exc})")
    return problems
