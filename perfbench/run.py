#!/usr/bin/env python3
"""frachs benchmark: CLI wall time on three workloads, or a traced run.

Run from the root of a checkout; the package is taken from its ``src/``:

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 33 --trace 0

With ``--trace 0`` the workload's commands run as the CLI user runs them:
one client, a closed loop, each command a fresh ``python -m frachs.cli``
process started after the previous one exits.  The loop repeats the workload
in rounds for ``--seconds`` seconds and reports medians over the rounds, and
``setup_s`` is the median of several fresh-interpreter imports of
``frachs.cli``; both times are scaled to a reference speed (``calibrate``).  With ``--trace 1`` the same commands run inside this process
through ``frachs.cli.main``, alternately plain and with every watched layer
wrapped (tracing.py), and the per-layer metrics are reported.  Every command
passes the correctness gate (gate.py) or counts as failed.  The metric names
and units are those of BENCHMARK.json; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

import gate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

# Why each workload exists is recorded in README.md.  Entries are
# (command, config file, extra flags); every command also gets --seed.
WORKLOADS = {
    "ladder": [("sweep", "default.ini", ("--lambdas", "2,20,200,2000"))],
    "desk": [(cmd, "default.ini", ()) for cmd in ("check", "solve", "bvp", "ops-selftest")],
    "fine-rotated": [(cmd, "rotated.ini", ("--grid-n", "8192"))
                     for cmd in ("check", "solve", "bvp")],
}
SETUP_REPEATS = 5
CAL_REF_S = 0.2  # calibrate() at the reference speed; scaled times read as seconds at it
IMPORTTIME_REPEATS = 3
DEADLINE_S = 170.0  # the whole run, set-up included, ends well inside 180 s
COMMAND_METRIC = {"check": "check_s", "solve": "solve_s", "bvp": "bvp_s",
                  "sweep": "sweep_s", "ops-selftest": "selftest_s"}


def calibrate() -> float:
    """Wall time of a fixed mix of numpy FFTs and interpreted Python, in this process.

    The speed of a shared machine drifts with the load of its other tenants,
    by up to 1.6x within minutes.  A child's wall time scaled by CAL_REF_S over
    the calibrations right before and after it no longer carries that drift;
    the benchmark never runs program code here, so a change to the program
    moves only the numerator.
    """
    start = time.perf_counter()
    x = np.cos(np.arange(4096.0))[:, None]
    for _ in range(800):
        x = np.fft.ifft(np.fft.fft(x, axis=0), axis=0).real
    total = 0
    for i in range(1_000_000):
        total += i * i
    return time.perf_counter() - start


class Bench:
    """One benchmark run: its workload, seed, scratch directory and clock."""

    def __init__(self, workload: str, seed: int, reference: dict):
        self.commands = WORKLOADS[workload]
        self.workload = workload
        self.seed = seed
        self.reference = reference[workload]
        self.work = RUNS / f"work-{os.getpid()}"
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.last_cal: float | None = None
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        # children cache bytecode as an installed package does, whatever the caller's setting
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env = env

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def argv(self, cmd: str, config: str, extra, out: Path) -> list[str]:
        return [cmd, "--config", str(BENCH_DIR / "configs" / config),
                "--seed", str(self.seed), *extra, "--out", str(out)]

    def out_dir(self, cmd: str) -> Path:
        out = self.work / cmd
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        return out

    def judge(self, cmd: str, out: Path, returncode: int, output: str):
        problems = gate.check(cmd, out, returncode, output, self.reference[cmd])
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"gate: {self.workload}/{cmd} failed: " + "; ".join(problems), file=sys.stderr)

    def child(self, argv: list[str], log: Path) -> tuple[float, int, float]:
        """Run one process to its end; returns (wall s, exit code, peak RSS MiB)."""
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            killer = threading.Timer(max(1.0, self.remaining()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    def scaled_child(self, argv: list[str], log: Path) -> tuple[float, float, int, float]:
        """child() between two calibrations; returns (scaled wall s, wall s, code, RSS MiB)."""
        before = self.last_cal if self.last_cal is not None else calibrate()
        wall, code, peak = self.child(argv, log)
        self.last_cal = calibrate()
        return wall * CAL_REF_S / (0.5 * (before + self.last_cal)), wall, code, peak

    def check_origin(self):
        """Import once, untimed (fills the bytecode cache), from this checkout's src/."""
        log = self.work / "origin.log"
        _, code, _ = self.child(
            [sys.executable, "-c", "import frachs.cli; print(frachs.cli.__file__)"], log)
        origin = log.read_text().strip()
        if code != 0 or Path(origin).resolve() != SRC / "frachs" / "cli.py":
            sys.exit(f"run.py: frachs.cli does not import from {SRC}: {origin}")

    def setup_s(self) -> tuple[float, float]:
        """Medians of the scaled and the plain wall time of fresh-interpreter imports."""
        log = self.work / "setup.log"
        runs = [self.scaled_child([sys.executable, "-c", "import frachs.cli"], log)
                for _ in range(SETUP_REPEATS)]
        return statistics.median(r[0] for r in runs), statistics.median(r[1] for r in runs)

    def cli_rounds(self, seconds: float) -> tuple[dict, dict]:
        """Closed-loop rounds of the workload; returns (metrics, info with per-command medians)."""
        rounds, raw_rounds, rss, durations = [], [], [], []
        per_cmd = {cmd: [] for cmd, _, _ in self.commands}
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            round_wall, raw_wall, round_rss = 0.0, 0.0, 0.0
            for cmd, config, extra in self.commands:
                out = self.out_dir(cmd)
                log = self.work / f"{cmd}.log"
                argv = [sys.executable, "-m", "frachs.cli", *self.argv(cmd, config, extra, out)]
                scaled, wall, code, peak = self.scaled_child(argv, log)
                self.judge(cmd, out, code, log.read_text(errors="replace"))
                per_cmd[cmd].append(scaled)
                round_wall += scaled
                raw_wall += wall
                round_rss = max(round_rss, peak)
            rounds.append(round_wall)
            raw_rounds.append(raw_wall)
            rss.append(round_rss)
            durations.append(time.perf_counter() - round_start)
            next_round = statistics.median(durations)  # calibrations and gate included
            if (time.perf_counter() - start + next_round > seconds
                    or next_round * 1.5 > self.remaining()):
                break
        metrics = {"wall_s": statistics.median(rounds), "peak_rss_mb": statistics.median(rss)}
        info = {COMMAND_METRIC[cmd]: statistics.median(walls) for cmd, walls in per_cmd.items()}
        return metrics, {**info, "rounds": len(rounds), "round_wall_s": rounds,
                         "unscaled_round_wall_s": raw_rounds}

    def import_breakdown(self) -> dict:
        """cli.import_s and spaces.import_scipy_s from ``python -X importtime``."""
        runs = []
        for _ in range(IMPORTTIME_REPEATS):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import frachs.cli"],
                                  env=self.env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1.0, self.remaining()), check=True)
            runs.append({"cli.import_s": _subtree_s(proc.stderr, "frachs"),
                         "spaces.import_scipy_s": _subtree_s(proc.stderr, "scipy")})
        return {key: statistics.median(r[key] for r in runs) for key in runs[0]}

    def inprocess_pass(self, cli) -> float:
        """The workload once through frachs.cli.main in this process; returns its wall time."""
        wall = 0.0
        for cmd, config, extra in self.commands:
            out = self.out_dir(cmd)
            buf = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                    code = cli.main(self.argv(cmd, config, extra, out))
            except Exception:  # a crashing command fails the gate; the run goes on
                code = -1
                buf.write(traceback.format_exc())
            wall += time.perf_counter() - start
            self.judge(cmd, out, code, buf.getvalue())
        return wall

    def traced_run(self, seconds: float) -> tuple[dict, dict]:
        """Plain and traced in-process passes in turn; returns (metrics, info)."""
        metrics = self.import_breakdown()
        sys.path.insert(0, str(SRC))
        import frachs.cli as cli

        import tracing

        plain, traced, first = [], [], None
        start = time.perf_counter()
        while True:
            plain.append(self.inprocess_pass(cli))
            tracer = tracing.Tracer()
            patches, missing = tracing.install(tracer)
            try:
                traced.append(self.inprocess_pass(cli))
            finally:
                patches.undo()
            first = first or (tracer, missing)
            pair = plain[-1] + traced[-1]
            if time.perf_counter() - start + pair > seconds or pair * 1.5 > self.remaining():
                break
        tracer, missing = first
        trace_file = RUNS / "traces" / f"{self.workload}-seed{self.seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(trace_file)

        layers = tracer.metrics()
        layers.setdefault("solver.iterations", 0)
        layers.setdefault("fracops.fft.points", 0)
        calls = layers.get("fracops.fft.calls", 0)
        if calls:
            layers["fracops.fft.us_per_call"] = 1e6 * layers["fracops.fft.busy_s"] / calls
        for layer in ("cli", "solver"):
            layers[f"{layer}.self_s"] = sum(
                v for k, v in layers.items() if k.startswith(f"{layer}.") and k.endswith(".self_s"))
        energy_calls = layers.get("nonlinearity.density.calls", 0)
        if energy_calls:
            layers["solver.accept_ratio"] = layers["nonlinearity.gradient.calls"] / energy_calls
        layers["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        metrics.update(layers)
        info = {"passes": len(plain), "plain_s": plain, "traced_s": traced,
                "spans": len(tracer.spans), "trace_file": str(trace_file.relative_to(ROOT)),
                "missing": missing}
        return metrics, info


def _subtree_s(importtime: str, package: str) -> float:
    """Cumulative seconds of the outermost imports of ``package`` in -X importtime output."""
    entries = []
    for line in importtime.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        module = name.strip()
        if module == package or module.startswith(package + "."):
            entries.append((len(name) - len(name.lstrip()), int(fields[1])))
    if not entries:
        return 0.0
    top = min(depth for depth, _ in entries)
    return sum(us for depth, us in entries if depth == top) / 1e6


def _report(spec: list[dict], values: dict, bench: Bench):
    metrics = {}
    for entry in spec:
        name = entry["name"]
        if name in values:
            metrics[name] = {"value": values[name], "unit": entry["unit"]}
        else:
            print(f"run.py: metric {name} is missing", file=sys.stderr)
    print(json.dumps({"correct": bench.attempted > 0 and bench.failed == 0,
                      "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "frachs" / "cli.py").is_file():
        sys.exit(f"run.py: no frachs package at {SRC}; run from the root of a checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    bench = Bench(args.workload, args.seed, reference)
    bench.work.mkdir(parents=True, exist_ok=True)
    try:
        bench.check_origin()
        if args.trace:
            values, info = bench.traced_run(args.seconds)
            section = "per_layer"
        else:
            setup, unscaled_setup = bench.setup_s()
            values, info = bench.cli_rounds(args.seconds)
            values["setup_s"] = setup
            info["unscaled_setup_s"] = unscaled_setup
            section = "end_to_end"
        info["failed_frac"] = bench.failed / bench.attempted
        print("info: " + json.dumps(info))
        _report(spec[section], values, bench)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
