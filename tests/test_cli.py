import gc
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from frachs import SampledSignal, cli
from frachs.cli import _write_csv, main
from frachs.config import ConfigError, parse_config, parse_config_text
from frachs.grid import midpoint_grid
from frachs.solver import SolveResult, SweepRow, columns

BASE = "[scenario]\npreset = default\n"
CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"


def write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def artifact(out_dir, prefix, suffix=".json"):
    names = [
        f for f in os.listdir(out_dir)
        if f.startswith(prefix) and f.endswith(suffix)
        and not (prefix == "sweep-" and f.startswith("sweep-report-"))
    ]
    assert len(names) == 1, names
    return os.path.join(out_dir, names[0])


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def read_text(path):
    return Path(path).read_text(encoding="utf-8")


class TestSolutionCsv:
    @pytest.mark.parametrize("n_samples", [8, 1024])
    def test_matches_per_value_format(self, tmp_path, n_samples):
        # per-value format(x, ".17g") was the writer's definition; 1024 rows span blocks
        special = [0.0, -0.0, 5e-324, 1e300, -1.5]
        rng = np.random.default_rng(3)
        values = rng.standard_normal((n_samples, 2))
        values[: len(special), 0] = special
        values[: len(special), 1] = special[::-1]
        u = SampledSignal(-0.1, 0.025, values)
        path = tmp_path / "solution.csv"
        _write_csv(str(path), ["t", "u_1", "u_2"], [u.times, u.values])
        expected = "t,u_1,u_2\n" + "".join(
            ",".join(format(x, ".17g") for x in [t, *row]) + "\n"
            for t, row in zip(u.times, u.values)
        )
        assert path.read_text(encoding="utf-8") == expected

    def test_matches_per_row_template(self, tmp_path):
        # 300 rows leave a ragged last block of 44; no power of two, so no SampledSignal
        times = -0.1 + 0.025 * np.arange(300)
        values = np.random.default_rng(4).standard_normal((300, 2))
        path = tmp_path / "solution.csv"
        _write_csv(str(path), ["t", "u_1", "u_2"], [times, values])
        template = "%.17g,%.17g,%.17g\n"
        expected = "t,u_1,u_2\n" + "".join(
            template % (t, *row) for t, row in zip(times.tolist(), values.tolist())
        )
        assert path.read_bytes() == expected.encode("utf-8")

    def test_short_table_like_the_sweeps(self, tmp_path):
        # a sweep's table: 4 rows of 7 columns, one 2-D array, shorter than one block
        table = np.random.default_rng(5).standard_normal((4, 7))
        table[0, :3] = [-0.0, 5e-324, 1e300]
        names = [f"c{i}" for i in range(7)]
        path = tmp_path / "table.csv"
        _write_csv(str(path), names, [table])
        expected = ",".join(names) + "\n" + "".join(
            ",".join(format(x, ".17g") for x in row) + "\n" for row in table.tolist()
        )
        assert path.read_bytes() == expected.encode("utf-8")


class TestNoLapack:
    @pytest.mark.parametrize("preset", ["default", "rotated"])
    def test_commands_run_without_lapack(self, tmp_path, monkeypatch, preset):
        # the presets have one or two components: their eigenvalues are closed forms
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK eigensolver called on the command path")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        config = str(CONFIGS / f"{preset}.ini")
        for cmd, extra in (("check", []), ("solve", []), ("bvp", []),
                           ("sweep", ["--lambdas", "2,20,200"])):
            argv = [cmd, "--config", config, "--grid-n", "1024", *extra,
                    "--out", str(tmp_path / cmd)]
            assert main(argv) == 0, cmd


class TestConfigParsing:
    def test_round_trips_canonically(self):
        cfg = parse_config_text(BASE)
        canon = cfg.canonical_text()
        again = parse_config_text(canon)
        assert again.canonical_text() == canon
        assert again.config_hash() == cfg.config_hash()

    def test_missing_preset_rejected(self):
        with pytest.raises(ConfigError, match="preset"):
            parse_config_text("[scenario]\nalpha = 0.75\n")

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown field"):
            parse_config_text(BASE + "coolness = 11\n")

    def test_out_of_range_value_rejected(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config_text(BASE + "alpha = 1.5\n")

    def test_unsorted_ladder_rejected(self):
        with pytest.raises(ConfigError, match="ascending"):
            parse_config_text(BASE + "lambdas = 5,2,9\n")

    def test_hash_tracks_content(self):
        a = parse_config_text(BASE)
        b = parse_config_text(BASE + "alpha = 0.8\n")
        assert a.config_hash() != b.config_hash()

    @pytest.mark.parametrize(
        "text", [BASE, "[scenario]\npreset = rotated\n", BASE + "lambdas = 2,20,200,2000\n"]
    )
    def test_hash_is_the_hashlib_digest(self, text):
        cfg = parse_config_text(text)
        expected = hashlib.sha256(cfg.canonical_text().encode("utf-8")).hexdigest()[:16]
        assert cfg.config_hash() == expected

    def test_benchmark_config_hashes_are_pinned(self):
        # every artifact name of the benchmark's runs carries these
        assert parse_config(str(CONFIGS / "default.ini")).config_hash() == "1e6c1f489e46c1bb"
        assert parse_config(str(CONFIGS / "rotated.ini")).config_hash() == "4e8d02ab67caad08"

    def test_key_in_any_section_hashes_the_same(self):
        in_scenario = parse_config_text(BASE + "max_iters = 7\n")
        in_solver = parse_config_text(BASE + "[solver]\nmax_iters = 7\n")
        assert in_scenario.max_iters == 7
        assert in_scenario.canonical_text() == in_solver.canonical_text()
        assert in_scenario.config_hash() == in_solver.config_hash()
        solver_part = in_scenario.canonical_text().split("[solver]\n")[1]
        assert "max_iters = 7\n" in solver_part

    @pytest.mark.parametrize("section", ["solver", "output"])
    def test_unknown_field_rejected_in_every_section(self, section):
        with pytest.raises(ConfigError, match=f"unknown field 'coolness' in section \\[{section}\\]"):
            parse_config_text(BASE + f"[{section}]\ncoolness = 11\n")

    @pytest.mark.parametrize("section", ["bogus", "DEFAULT"])
    def test_unknown_section_rejected(self, section):
        with pytest.raises(ConfigError, match=f"unknown section \\[{section}\\]"):
            parse_config_text(f"[{section}]\nalpha = 0.8\n" + BASE)

    def test_key_in_two_sections_rejected(self):
        text = BASE + "max_iters = 7\n[solver]\nmax_iters = 2\n"
        with pytest.raises(ConfigError, match=r"'max_iters'.*\[scenario\].*\[solver\]"):
            parse_config_text(text)

    def test_preset_accepted_in_any_section(self):
        in_solver = parse_config_text("[solver]\npreset = rotated\n")
        in_scenario = parse_config_text("[scenario]\npreset = rotated\n")
        assert in_solver.canonical_text() == in_scenario.canonical_text()


# One case per row of main's handler, each with the exact stderr line and exit code:
# (command and flags, config lines or None for a missing config, code, line).
L1_L3 = ("wall_steepness = 1e300\n", 1, "hypothesis failure: L1-envelope")
# xi^(2/(2-p)) overflows in the coercivity constant A
BOUND = ("p = 1.95\nnu = 1.95\nxi_scale = 1e8\n", 2,
         "config error: the coercivity constant A is inf, not a finite double: "
         "xi_scale or p is too large")
WEIGHT = "config error: the problem needs lam >= the threshold 1.31966, got 0.5"
# the one line of a grid with no sample strictly inside the core (0, 0.5), for every command
UNRESOLVED = ("config error: the core (0.0, 0.5) holds no grid sample (dt = {dt:g}): "
              "the grid does not resolve the core (grid_n = {n}, domain = 32)")
SUBLEVEL = ("config error: sublevel set {{l < k}} touches the grid boundary; enlarge the domain "
            "(l = 0.248 / 0.232 at the ends, k = 0.9) (grid_n = 4096, domain = 32)")
# grid rules that each command applies before any hypothesis: (flags, config lines, line)
GRID_RULES = {
    # one core sample, at t = 0.4999, where the bump underflows to 0
    "underflow": (["--grid-n", "32", "--domain", "31.9936"], "",
                  "config error: the bump on the core (0.0, 0.5) vanishes at every core sample "
                  "(dt = 0.9998): the grid does not resolve the core (grid_n = 32, domain = 31.9936)"),
    # the sublevel set reaches the grid's ends, and L1-envelope or the alpha rule fails as well
    "sublevel-l1": ([], "wall_steepness = 1e300\nenvelope_steepness = 1000\n", SUBLEVEL),
    "sublevel-alpha": ([], "alpha = 0.3\nenvelope_steepness = 1000\n", SUBLEVEL),
}
HANDLER_ROWS = {
    "resolution": (["solve", "--grid-n", "16"], "", 2, UNRESOLVED.format(dt=2, n=16)),
    **{f"{rule}-{command}": ([command, *flags], lines, 2, line)
       for rule, (flags, lines, line) in GRID_RULES.items()
       for command in ("check", "solve", "bvp", "sweep")},
    # alpha <= 1/2 fails L1 admissibility on every command (check reports it on stdout)
    "config-alpha": (["solve"], "alpha = 0.3\n", 1,
                     "hypothesis failure: L1-admissibility "
                     "(the multiplier integral diverges for orders <= 1/2)"),
    "config-missing-selftest": (["ops-selftest"], None, 2, "config error: no such file {cfg!r}"),
    # admission checks a given weight, so every command that takes one prints this line
    **{f"weight{suffix}": ([command, "--lambda", "0.5"], "", 2, WEIGHT)
       for command, suffix in (("solve", ""), ("bvp", "-bvp"), ("sweep", "-sweep"))},
    "admissibility": (["solve"], "alpha = 0.51\n", 1,
                      "hypothesis failure: L1-admissibility "
                      "(L1 admissibility fails: C_alpha^2 * |{{l<k}}| = 17.418586 >= 1)"),
    "witness": (["solve"], "nonlinearity = power-regularized\neps = 0.3\n", 1,
                "hypothesis failure: W2-witness (no scale below delta makes the bump energy "
                "negative (hypothesis W2 violated numerically))"),
    **{f"l1-l3-{command}": ([command], *L1_L3) for command in ("solve", "bvp", "sweep")},
    # a rejected nonlinearity and an L1 failure: the config error comes first on every command
    **{f"double-fault-{command}": ([command], "nu = 1.7\ndelta = 2\n" + L1_L3[0], 2,
                                   "config error: nonlinearity 'power': "
                                   "for nu > p the lower bound needs delta <= 1")
       for command in ("check", "solve", "bvp", "sweep")},
    **{f"bound-{command}": ([command], *BOUND) for command in ("solve", "bvp", "sweep")},
    # every descent computes the coercivity floor before it seeks the witness
    **{f"overflow-no-witness-{command}": (
        [command], BOUND[0] + "nonlinearity = power-regularized\neps = 1e120\n", *BOUND[1:])
       for command in ("solve", "bvp", "sweep")},
    # the witness's scale estimate overflows too; the bound still ends the run
    "bound-1e250": (["solve"], "p = 1.95\nnu = 1.95\nxi_scale = 1e250\n", *BOUND[1:]),
    # check computes no coercivity bound, but its growth sampling overflows
    "check-1e250": (["check"], "p = 1.95\nnu = 1.95\nxi_scale = 1e250\n", 2,
                    "config error: the least slack of W1-growth is -inf, not a finite double: "
                    "a constant of the config is too large"),
    # check applies the grid rules before it samples W1-W2, as the other commands admit
    **{f"grid-before-growth-{command}": (
        [command, "--domain", "1"], "p = 1.95\nnu = 1.95\nxi_scale = 1e250\n", 2,
        "config error: grid [-0.5, 0.5] must cover the well with margin >= 1 on each side "
        "(grid_n = 4096, domain = 1)") for command in ("check", "solve")},
}


class TestExitCodes:
    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["check", "--config", str(tmp_path / "nope.ini")]) == 2

    @pytest.mark.parametrize("row", list(HANDLER_ROWS))
    def test_handler_row(self, tmp_path, capsys, recwarn, row):
        argv, lines, code, line = HANDLER_ROWS[row]
        cfg, out = str(tmp_path / "missing.ini"), tmp_path / "o"
        if lines is not None:
            cfg = write(tmp_path, BASE + "lambdas = 2,20,200\n" + lines)
        flags = [] if argv[0] == "ops-selftest" else ["--out", str(out)]
        assert main([argv[0], "--config", cfg, *flags, *argv[1:]]) == code
        assert capsys.readouterr().err == line.format(cfg=cfg) + "\n"
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not out.exists() or os.listdir(out) == []

    @pytest.mark.parametrize("command,code", [("solve", 3), ("bvp", 3), ("sweep", 4)])
    def test_witness_estimate_overflow_is_a_solver_outcome(
        self, tmp_path, capsys, recwarn, command, code
    ):
        # the witness's closed-form scale estimate overflows a double, so its search starts
        # at delta/2; the descent then stops without converging, one stderr line per solve
        cfg = write(tmp_path, BASE + "lambdas = 2,20,200\nnu = 1.95\nxi_scale = 1e20\n")
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out), "--grid-n", "1024"]) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == (3 if command == "sweep" else 1)
        assert all("stop reason no_descent" in line for line in err)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        for name in os.listdir(out):
            text = read_text(out / name)
            assert "Infinity" not in text and "NaN" not in text

    @pytest.mark.parametrize(
        "case", ["out-is-a-file", "config-is-a-directory", "config-not-utf8", "config-under-a-file"]
    )
    def test_unusable_path_is_config_error(self, tmp_path, capsys, case):
        cfg, out = write(tmp_path, BASE), tmp_path / "o"
        if case == "out-is-a-file":
            out.write_text("")
        elif case == "config-is-a-directory":
            cfg = str(tmp_path / "cfg.d")
            os.mkdir(cfg)
        elif case == "config-under-a-file":
            cfg = os.path.join(cfg, "cfg.ini")  # open() fails with NotADirectoryError
        else:
            cfg = str(tmp_path / "latin1.ini")
            with open(cfg, "wb") as fh:
                fh.write((BASE + "# caf\xe9\n").encode("latin-1"))
        before = sorted(os.listdir(tmp_path))
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize(
        "command,name",
        [("check", "manifest-{}.json"), ("solve", "solve-solution-{}.csv"),
         ("bvp", "bvp-report-{}.json"), ("sweep", "sweep-{}.csv")],
        ids=["check-manifest", "solve-csv", "bvp-report", "sweep-csv"],
    )
    def test_unwritable_artifact_is_config_error(self, tmp_path, capsys, command, name):
        # a directory where the artifact goes makes open() fail with IsADirectoryError
        text = BASE + "grid_n = 1024\nlambdas = 2,20,200\n"
        cfg, out = write(tmp_path, text), tmp_path / "o"
        blocked = out / name.format(parse_config_text(text).config_hash())
        blocked.mkdir(parents=True)
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: cannot write {str(blocked)!r} (Is a directory)\n"

    def test_missing_required_field(self, tmp_path):
        cfg = write(tmp_path, "[scenario]\nalpha = 0.75\n")
        assert main(["check", "--config", cfg]) == 2

    def test_bad_field_value(self, tmp_path):
        cfg = write(tmp_path, BASE + "grid_n = 1000\n")
        assert main(["check", "--config", cfg]) == 2

    def test_removed_sobolev_trials_key(self, tmp_path, capsys):
        # the embedding constant has a closed form, so no ensemble size is configurable
        cfg = write(tmp_path, BASE + "sobolev_trials = 200\n")
        assert main(["check", "--config", cfg]) == 2
        assert "unknown field 'sobolev_trials'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        ["memory = 10", "newton_switch_tol = 1e-5", "parallel = true",
         "armijo = 1e-4", "shrink = 0.5", "max_cg = 250", "warm_start = false"],
    )
    def test_removed_solver_keys(self, tmp_path, capsys, line):
        # Newton-CG is the only descent method and the sweep runs sequentially,
        # so neither the quasi-Newton memory, the phase switch nor threads are configurable;
        # the line-search constants and the CG cap are fixed in the solver, and
        # every sweep rung after the first starts from the one before
        cfg = write(tmp_path, BASE + line + "\n")
        assert main(["check", "--config", cfg]) == 2
        assert f"unknown field '{line.split()[0]}'" in capsys.readouterr().err

    def test_bad_lambdas_flag(self, tmp_path):
        cfg = write(tmp_path, BASE)
        assert main(["sweep", "--config", cfg, "--lambdas", "a,b,c"]) == 2

    @pytest.mark.parametrize(
        "flag,value,field",
        [("--grid-n", "1024.0", "grid_n"), ("--seed", "1.5", "seed"), ("--lambda", "ten", "lambda"),
         ("--lambdas", "2,x,200", "lambdas"), ("--domain", "long", "domain")],
    )
    def test_malformed_flag_names_the_field(self, tmp_path, capsys, flag, value, field):
        # flags are parsed by the config file's own value parser, not by argparse
        cfg, out = write(tmp_path, BASE + "lambdas = 2,20,200\n"), tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: field '{field}': cannot parse {value!r}")
        assert err.count("\n") == 1 and not out.exists()

    def test_sweep_needs_three_weights(self, tmp_path):
        cfg = write(tmp_path, BASE)
        out = str(tmp_path / "out")
        assert main(["sweep", "--config", cfg, "--out", out, "--lambdas", "2,20"]) == 2

    def test_low_alpha_rejected_for_solve(self, tmp_path):
        # alpha <= 1/2 is L1-admissibility, as in check
        cfg = write(tmp_path, BASE + "alpha = 0.4\ngrid_n = 512\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "command,n,code",
        [("solve", 8, 2), ("solve", 16, 2), ("solve", 32, 2), ("solve", 64, 1),
         ("check", 8, 2), ("check", 16, 2), ("check", 32, 2), ("sweep", 8, 2), ("sweep", 16, 2),
         ("sweep", 32, 2), ("bvp", 8, 2), ("bvp", 16, 2), ("bvp", 32, 2)],
    )
    def test_grid_too_coarse_for_the_core(self, tmp_path, capsys, recwarn, command, n, code):
        # N = 8, 16, 32: the open core (0, 0.5) holds no sample (at N = 32, t = 0.5 is one),
        # and every command says so in the same line; N = 64 resolves the core but fails
        # L1 admissibility
        for preset in ("default", "rotated"):
            cfg = write(tmp_path, f"[scenario]\npreset = {preset}\nlambdas = 2,20,200\n")
            out = tmp_path / preset
            assert main([command, "--config", cfg, "--out", str(out), "--grid-n", str(n)]) == code
            err = capsys.readouterr().err
            if code == 2:
                assert err == UNRESOLVED.format(dt=32 / n, n=n) + "\n"
                assert os.listdir(out) == []
            else:
                assert "L1-admissibility" in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("command", ["check", "solve", "bvp", "sweep"])
    def test_domain_too_short_for_the_well(self, tmp_path, capsys, command):
        # the grid must cover the well (-0.25, 0.75) with one well width to spare
        cfg = write(tmp_path, BASE + "lambdas = 2,20,200\ngrid_n = 512\n")
        out = str(tmp_path / "o")
        assert main([command, "--config", cfg, "--out", out, "--domain", "2"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "must cover the well" in err and "domain = 2" in err
        assert "Traceback" not in err
        assert main([command, "--config", cfg, "--out", out, "--domain", "4"]) == 0

    @pytest.mark.parametrize("command", ["check", "solve", "bvp", "sweep"])
    def test_domain_too_short_for_the_sublevel_set(self, tmp_path, capsys, command):
        # the grid covers the well with margin, but l < k still holds at its right end
        cfg = write(tmp_path, BASE + "envelope_steepness = 2\nlambdas = 2,20,200\n")
        out = tmp_path / "o"
        argv = [command, "--config", cfg, "--out", str(out), "--domain", "4", "--grid-n", "512"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: sublevel set {l < k} touches the grid boundary")
        assert "(grid_n = 512, domain = 4)" in err and "Traceback" not in err
        assert os.listdir(out) == []

    @pytest.mark.parametrize(
        "argv,line",
        [
            (["solve", "--lambda", "nan"], ""),
            (["solve", "--lambda", "inf"], ""),
            (["sweep", "--lambdas", "2,20,nan"], ""),
            (["sweep", "--lambdas", "2,20,inf"], ""),
            (["check", "--seed", "-1"], ""),
            (["solve", "--seed", "-1"], ""),
            (["ops-selftest", "--seed", "-1"], ""),
            (["check"], "wall_height = inf\n"),
        ],
        ids=["lambda-nan", "lambda-inf", "lambdas-nan", "lambdas-inf", "check-seed",
             "solve-seed", "selftest-seed", "wall-height-inf"],
    )
    def test_non_finite_or_negative_values_rejected(self, tmp_path, capsys, argv, line):
        cfg = write(tmp_path, BASE + line)
        out = ["--out", str(tmp_path / "o")] if argv[0] != "ops-selftest" else []
        assert main([argv[0], "--config", cfg, *out, *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: field '") and "Traceback" not in err

    def test_alpha_near_half_fails_admissibility(self, tmp_path, capsys):
        # C^2 = 1/(2a sin(pi/(2a))) is about 15.9 at a = 0.51, so C^2 |{l<k}| > 1
        cfg = write(tmp_path, BASE + "alpha = 0.51\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "L1-admissibility" in capsys.readouterr().err


class TestImport:
    @staticmethod
    def run_fresh(code, *args):
        """``code`` in a fresh interpreter that imports this frachs; asserts it exits 0."""
        import frachs

        src = os.path.dirname(os.path.dirname(os.path.abspath(frachs.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

    def test_cli_import_loads_no_scipy(self):
        self.run_fresh(
            "import frachs.cli, sys; "
            "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"
        )

    def test_no_command_loads_openssl(self, tmp_path):
        # hashlib maps libcrypto, and numpy.random imports it through secrets and hmac:
        # the config hash takes the built-in SHA-256 and the draws random.Random
        cfg, out = write(tmp_path, BASE), str(tmp_path / "o")
        code = (
            "import sys\n"
            "from frachs.cli import main\n"
            "cfg, out = sys.argv[1:]\n"
            "for argv in (['check'], ['solve'], ['bvp'], ['sweep', '--lambdas', '2,20,200,2000'],\n"
            "             ['ops-selftest']):\n"
            "    common = ['--config', cfg, '--out', out, '--grid-n', '1024']\n"
            "    assert main([argv[0], *common, *argv[1:]]) == 0, argv\n"
            "loaded = {'numpy.random', 'secrets', '_hashlib', 'hashlib'} & set(sys.modules)\n"
            "assert not loaded, loaded\n"
        )
        self.run_fresh(code, cfg, out)


class TestEntry:
    """The process entries freeze the imported heap; in-process ``main`` calls never do."""

    CHECK = ["check", "--config", str(CONFIGS / "default.ini"), "--grid-n", "1024"]

    def test_in_process_main_does_not_freeze(self, tmp_path):
        before = gc.get_freeze_count()
        assert main([*self.CHECK, "--out", str(tmp_path)]) == 0
        assert gc.get_freeze_count() == before

    def test_module_entry_freezes(self, tmp_path):
        # runpy.run_module(..., run_name="__main__") is what python -m runs
        code = (
            "import gc, runpy, sys\n"
            "assert gc.get_freeze_count() == 0\n"
            "sys.argv = ['frachs', *sys.argv[1:]]\n"
            "try:\n"
            "    runpy.run_module('frachs.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "else:\n"
            "    raise AssertionError('the __main__ block did not exit')\n"
            "assert gc.get_freeze_count() > 0\n"
        )
        TestImport.run_fresh(code, *self.CHECK, "--out", str(tmp_path))

    def test_console_script_freezes(self, tmp_path):
        # the target the [project.scripts] entry names, called as the generated script calls it
        text = (CONFIGS.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        match = re.search(r'^\[project\.scripts\]\nfrachs = "([\w.]+):(\w+)"$', text, re.M)
        assert match, "no frachs entry under [project.scripts]"
        module, function = match.groups()
        code = (
            "import gc, importlib, sys\n"
            "assert gc.get_freeze_count() == 0\n"
            f"entry = getattr(importlib.import_module({module!r}), {function!r})\n"
            "sys.argv = ['frachs', *sys.argv[1:]]\n"
            "assert entry() == 0\n"
            "assert gc.get_freeze_count() > 0\n"
        )
        TestImport.run_fresh(code, *self.CHECK, "--out", str(tmp_path))


class TestCheck:
    @pytest.mark.parametrize("grid_n, resolved", [(4096, False), (16384, True)])
    @pytest.mark.parametrize("preset", ["default", "rotated"])
    def test_resolution_diagnostic(self, tmp_path, preset, grid_n, resolved):
        # the wall rises to wall_height within sqrt(30 * 5e-7) = 3.87e-3 of the core;
        # dt = 32 / N is 7.8e-3 at N = 4096 and 1.95e-3 at N = 16384
        out = str(tmp_path / "out")
        argv = ["check", "--config", str(CONFIGS / f"{preset}.ini"), "--out", out,
                "--grid-n", str(grid_n)]
        assert main(argv) == 0  # a diagnostic, not a failure
        report = read_json(artifact(out, "check-"))
        assert report["resolution"] == {
            "dt": 32.0 / grid_n, "wall_width": np.sqrt(30.0 * 5e-7), "resolved": resolved,
        }
        assert report["passed"] is True

    def test_default_passes(self, tmp_path):
        cfg = write(tmp_path, BASE + "grid_n = 2048\n")
        out = str(tmp_path / "out")
        assert main(["check", "--config", cfg, "--out", out]) == 0
        report = read_json(artifact(out, "check-"))
        assert report["passed"] is True
        assert report["admissibility"]["passed"] is True

    def test_flattened_envelope_fails_admissibility(self, tmp_path):
        cfg = write(
            tmp_path,
            BASE + "envelope_steepness = 1.0\ngrid_n = 2048\n",
        )
        out = str(tmp_path / "out")
        assert main(["check", "--config", cfg, "--out", out]) == 1
        report = read_json(artifact(out, "check-"))
        assert report["admissibility"]["passed"] is False
        assert report["admissibility"]["name"] == "L1-admissibility"

    def test_zero_density_fails_growth(self, tmp_path):
        cfg = write(tmp_path, BASE + "nonlinearity = zero\ngrid_n = 2048\n")
        out = str(tmp_path / "out")
        assert main(["check", "--config", cfg, "--out", out]) == 1
        report = read_json(artifact(out, "check-"))
        assert report["growth"]["passed"] is False

    def test_report_schema(self, tmp_path):
        # the potential and growth sections share one shape, on passing and failing configs
        names = {
            "potential": ["L1-symmetry", "L1-envelope", "L2-kernel", "L3-vanishing"],
            "growth": ["W1-growth", "W2-lower-bound", "gradient-consistency"],
        }
        for nonlinearity, passed in (("power", True), ("zero", False)):
            cfg = write(tmp_path, BASE + f"nonlinearity = {nonlinearity}\ngrid_n = 2048\n")
            out = str(tmp_path / nonlinearity)
            main(["check", "--config", cfg, "--out", out])
            report = read_json(artifact(out, "check-"))
            for section, expected in names.items():
                assert set(report[section]) == {"passed", "checks"}
                checks = report[section]["checks"]
                assert [c["name"] for c in checks] == expected
                for c in checks:
                    assert set(c) == {"name", "passed", "worst_margin", "location", "detail"}
                assert report[section]["passed"] is all(c["passed"] for c in checks)
            assert report["growth"]["passed"] is passed


class TestSolve:
    def test_default_solve(self, tmp_path):
        cfg = write(tmp_path, BASE)
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        report = read_json(artifact(out, "solve-report-"))
        assert report["converged"] is True
        assert report["energy"] < 0
        csv_path = artifact(out, "solve-solution-", ".csv")
        header = read_text(csv_path).splitlines()[0]
        assert header == "t,u_1"

    def test_non_convergence_exits_3_with_artifacts(self, tmp_path):
        cfg = write(tmp_path, BASE + "max_iters = 2\n")
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--out", out]) == 3
        report = read_json(artifact(out, "solve-report-"))
        assert report["converged"] is False
        assert os.path.exists(artifact(out, "solve-solution-", ".csv"))

    def test_non_convergence_names_stop_reason(self, tmp_path, capsys):
        cfg = write(tmp_path, BASE + "max_iters = 2\n")
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--out", out]) == 3
        assert "stop reason max_iters" in capsys.readouterr().err
        assert "stop_reason" not in read_text(artifact(out, "solve-report-"))

    def test_lambda_below_threshold_is_config_error(self, tmp_path):
        cfg = write(tmp_path, BASE)
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--out", out, "--lambda", "0.5"]) == 2

    def test_bvp_lambda_below_threshold_is_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path, BASE)
        out = tmp_path / "out"
        assert main(["bvp", "--config", cfg, "--out", str(out), "--lambda", "0.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "threshold" in err and err.count("\n") == 1
        assert os.listdir(out) == []

    def test_bvp_reports_restricted_level(self, tmp_path):
        cfg = write(tmp_path, BASE)
        out = str(tmp_path / "out")
        assert main(["bvp", "--config", cfg, "--out", out]) == 0
        report = read_json(artifact(out, "bvp-report-"))
        assert report["c_tilde"] == report["energy"] < 0

    @pytest.mark.parametrize("command", ["solve", "bvp"])
    def test_report_schema(self, tmp_path, command):
        # the growth hypotheses live in the check report of the same config hash
        cfg = write(tmp_path, BASE)
        out = str(tmp_path / "out")
        assert main([command, "--config", cfg, "--out", out]) == 0
        report = read_json(artifact(out, f"{command}-report-"))
        keys = {
            "config_hash", "command", "lambda", "lambda_threshold", "theta0", "c_alpha",
            "sublevel_measure", "energy", "grad_norm", "grad_norm_weighted", "iterations",
            "converged", "sup_norm", "history",
        }
        assert set(report) == keys | ({"c_tilde"} if command == "bvp" else set())
        # a SolveResult field the JSON carries reaches the report with no CLI edit
        assert {name for name, _ in columns(SolveResult, "json")} <= set(report)

    def test_only_check_samples_growth(self, tmp_path, monkeypatch):
        calls = []
        sample = cli.verify_growth

        def counted(*args, **kwargs):
            calls.append(1)
            return sample(*args, **kwargs)

        monkeypatch.setattr(cli, "verify_growth", counted)
        cfg = write(tmp_path, BASE)
        out = str(tmp_path / "out")
        for command, expected in (("solve", 0), ("bvp", 0), ("check", 1)):
            calls.clear()
            assert main([command, "--config", cfg, "--out", out]) == 0
            assert len(calls) == expected, command


def read_strict_json(path):
    """``path`` parsed as RFC 8259 JSON, which has no ``NaN`` or ``Infinity``."""

    def reject(constant):
        raise ValueError(f"{path} holds {constant}")

    return json.loads(read_text(path), parse_constant=reject)


STRICT_CONFIGS = {
    "default": BASE,
    "rotated": "[scenario]\npreset = rotated\n",
    "zero": BASE + "nonlinearity = zero\n",
    "witness-overflow": BASE + "nu = 1.95\nxi_scale = 1e20\n",
    "bound-overflow": BASE + "p = 1.95\nnu = 1.95\nxi_scale = 1e250\n",
}


class TestStrictJson:
    @pytest.mark.parametrize("config", list(STRICT_CONFIGS))
    @pytest.mark.parametrize("command", ["check", "solve", "bvp", "sweep"])
    def test_every_artifact_parses_strictly(self, tmp_path, command, config):
        # whatever the exit code, a JSON artifact holds only finite numbers
        cfg = write(tmp_path, STRICT_CONFIGS[config] + "lambdas = 2,20,200\n")
        out = tmp_path / "out"
        main([command, "--config", cfg, "--out", str(out)])
        for name in os.listdir(out):
            if name.endswith(".json"):
                read_strict_json(out / name)

    def test_zero_nonlinearity_locates_every_check(self, tmp_path):
        # every relative difference is 0, so the first sample reaches the least slack
        cfg, out = write(tmp_path, STRICT_CONFIGS["zero"]), str(tmp_path / "out")
        assert main(["check", "--config", cfg, "--out", out]) == 1
        report = read_strict_json(artifact(out, "check-"))
        (fd,) = [c for c in report["growth"]["checks"] if c["name"] == "gradient-consistency"]
        assert fd["passed"] is True and fd["worst_margin"] == 1e-5
        assert fd["location"] == midpoint_grid(4096, 32.0)[0]


ROUNDING = {
    "tall-wall": "[scenario]\npreset = rotated\nwall_height = 1e5\n",
    "xi-scale-1e4": BASE + "xi_scale = 1e4\n",
}


class TestRoundingIsNoFailure:
    """Checks whose slack is rounding of large entries pass: the tolerance is relative."""

    @pytest.mark.parametrize(
        "config,command",
        [("tall-wall", "check"), ("tall-wall", "bvp"), ("tall-wall", "solve"),
         ("xi-scale-1e4", "check")],
    )
    def test_exits_0(self, tmp_path, capsys, config, command):
        cfg, out = write(tmp_path, ROUNDING[config]), str(tmp_path / "out")
        assert main([command, "--config", cfg, "--out", out]) == 0
        assert capsys.readouterr().err == ""


NO_WITNESS = {
    "zero": "nonlinearity = zero\n",
    "eps-0.3": "nonlinearity = power-regularized\neps = 0.3\n",
    "eps-0.01": "nonlinearity = power-regularized\neps = 0.01\n",
}


class TestNoWitness:
    """solve, bvp and sweep refuse a problem whose core bump has no negative-energy scale."""

    @pytest.mark.parametrize("config", list(NO_WITNESS))
    @pytest.mark.parametrize("command", ["solve", "bvp", "sweep"])
    def test_exits_1_without_artifacts(self, tmp_path, capsys, command, config):
        cfg = write(tmp_path, BASE + "lambdas = 2,20,200,2000\n" + NO_WITNESS[config])
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "hypothesis failure: W2-witness (" in err and "Traceback" not in err
        assert os.listdir(out) == []

    def test_small_eps_ladder_stays_negative(self, tmp_path):
        # eps = 1e-3 fails the sampled W2 check, but its witness exists
        cfg = write(
            tmp_path, BASE + "lambdas = 2,20,200,2000\nnonlinearity = power-regularized\neps = 1e-3\n"
        )
        out = str(tmp_path / "out")
        assert main(["sweep", "--config", cfg, "--out", out]) == 0
        report = read_json(artifact(out, "sweep-report-"))
        assert report["flagged"] is False
        assert all(r["c_lambda"] <= report["c_tilde"] < 0 for r in report["rows"])


REJECTED_NONLINEARITY = {
    "nu-above-p-delta-2": ("nu = 1.7\ndelta = 2\n", "needs delta <= 1"),
    "xi-width-1e-4": ("xi_width = 1e-4\n", "eta and delta must be positive"),
    "eps-1e200": ("nonlinearity = power-regularized\neps = 1e200\n", "eps^2 must be finite"),
}


class TestRejectedNonlinearity:
    """Constants the power family rejects are a config error, not a traceback."""

    @pytest.mark.parametrize("config", list(REJECTED_NONLINEARITY))
    @pytest.mark.parametrize("command", ["check", "solve", "bvp"])
    def test_exits_2_without_artifacts(self, tmp_path, capsys, command, config):
        line, reason = REJECTED_NONLINEARITY[config]
        cfg, out = write(tmp_path, BASE + line), tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: nonlinearity ") and reason in err
        assert err.count("\n") == 1
        assert os.listdir(out) == []


class TestSweepCommand:
    def test_short_ladder_runs_clean(self, tmp_path):
        cfg = write(tmp_path, BASE + "lambdas = 2,20,200\n")
        out = str(tmp_path / "out")
        assert main(["sweep", "--config", cfg, "--out", out]) == 0
        rows = read_text(artifact(out, "sweep-", ".csv")).strip().splitlines()
        assert rows[0] == "lambda,c_lambda,c_tilde,tail_mass,weighted_mass,dist_alpha,norm_lambda"
        assert len(rows) == 4
        report = read_json(artifact(out, "sweep-report-"))
        assert report["flagged"] is False

    def test_csv_is_the_per_value_format_of_its_rows(self, tmp_path, monkeypatch):
        # per-value format(x, ".17g") is the sweep CSV's definition, 3 rows inside one block
        reports, sweep = [], cli.concentration_sweep

        def recorded(*args):
            reports.append(sweep(*args))
            return reports[-1]

        monkeypatch.setattr(cli, "concentration_sweep", recorded)
        cfg = write(tmp_path, BASE + "lambdas = 2,20,200\ngrid_n = 1024\n")
        out = str(tmp_path / "out")
        assert main(["sweep", "--config", cfg, "--out", out]) == 0
        csv_columns = columns(SweepRow, "csv")
        expected = ",".join(name for name, _ in csv_columns) + "\n" + "".join(
            ",".join(format(getattr(row, attr), ".17g") for _, attr in csv_columns) + "\n"
            for row in reports[0].rows
        )
        assert Path(artifact(out, "sweep-", ".csv")).read_bytes() == expected.encode("utf-8")

    def test_ladder_below_threshold_rejected(self, tmp_path):
        cfg = write(tmp_path, BASE + "lambdas = 0.5,2,20\n")
        out = str(tmp_path / "out")
        assert main(["sweep", "--config", cfg, "--out", out]) == 2

    def test_starved_rows_exit_4_with_complete_csv(self, tmp_path):
        cfg = write(
            tmp_path,
            BASE + "lambdas = 2,20,200\nmax_iters = 2\n",
        )
        out = str(tmp_path / "out")
        assert main(["sweep", "--config", cfg, "--out", out]) == 4
        rows = read_text(artifact(out, "sweep-", ".csv")).strip().splitlines()
        assert len(rows) == 4


    def test_flagged_rows_name_stop_reason(self, tmp_path, capsys):
        cfg = write(tmp_path, BASE + "lambdas = 2,20,200\nmax_iters = 2\n")
        out = str(tmp_path / "out")
        assert main(["sweep", "--config", cfg, "--out", out]) == 4
        err = capsys.readouterr().err
        assert "[FLAGGED] stop reason max_iters" in err
        for path in (artifact(out, "sweep-", ".csv"), artifact(out, "sweep-report-")):
            assert "stop_reason" not in read_text(path)


class TestCoreAwayFromZero:
    """bvp and sweep on a core that does not start at 0."""

    def test_bvp_vanishes_outside_the_core(self, tmp_path):
        cfg = write(tmp_path, BASE + "i_min = 0.1\n")
        out = str(tmp_path / "out")
        assert main(["bvp", "--config", cfg, "--out", out]) == 0
        report = read_json(artifact(out, "bvp-report-"))
        assert report["converged"] is True
        assert report["c_tilde"] == report["energy"] < 0
        t, u = np.loadtxt(artifact(out, "bvp-solution-", ".csv"), delimiter=",", skiprows=1).T
        inside = (t > 0.1) & (t < 0.5)
        assert np.all(u[~inside] == 0.0) and np.all(u[inside] != 0.0)

    def test_sweep_rows_unflagged(self, tmp_path):
        cfg = write(tmp_path, BASE + "i_min = 0.1\nlambdas = 2,20,200,2000\n")
        out = str(tmp_path / "out")
        assert main(["sweep", "--config", cfg, "--out", out]) == 0
        report = read_json(artifact(out, "sweep-report-"))
        assert report["flagged"] is False
        assert all(r["c_lambda"] <= report["c_tilde"] < 0 for r in report["rows"])


class TestSelftest:
    def test_default_grid_passes(self, tmp_path):
        cfg = write(tmp_path, BASE)
        assert main(["ops-selftest", "--config", cfg]) == 0

    def test_high_order_passes(self, tmp_path):
        cfg = write(tmp_path, BASE + "alpha = 0.999\n")
        assert main(["ops-selftest", "--config", cfg]) == 0

    def test_coarse_grid_fails(self, tmp_path):
        cfg = write(tmp_path, BASE)
        assert main(["ops-selftest", "--config", cfg, "--grid-n", "8"]) == 1

    def test_unresolved_gaussian_is_an_oracle_error(self, tmp_path, capsys):
        # at domain 1e6 (dt = 244) every sample of exp(-t^2) is 0, so the oracle's
        # relative error would be 0/0
        cfg = write(tmp_path, BASE)
        assert main(["ops-selftest", "--config", cfg, "--domain", "1e6"]) == 1
        out = capsys.readouterr().out
        assert "quadrature-oracle: ERROR (" in out
        assert "nan" not in out and "selftest: FAIL" in out


def test_no_command_uses_the_complex_transform(tmp_path, monkeypatch):
    # every spectral operator runs on the real-FFT half-spectrum
    def refuse(*args, **kwargs):
        raise AssertionError("the complex full-spectrum transform was called")

    for name in ("fft", "ifft", "fftfreq"):
        monkeypatch.setattr(np.fft, name, refuse)
    common = ["--config", str(CONFIGS / "default.ini"), "--out", str(tmp_path / "o")]
    for argv in (["check"], ["solve"], ["bvp"], ["sweep", "--lambdas", "2,20,200"],
                 ["ops-selftest"]):
        assert main([argv[0], *common, *argv[1:]]) == 0, argv
