"""Experiment configuration: flat key = value sections, canonical text, hash.

Configs are INI-style with up to three sections, ``[scenario]``, ``[solver]``
and ``[output]``.  Field names form one flat namespace: any known key may go
in any of the three sections, but each key may appear only once in the file,
and ``preset`` is required.  Unknown keys and any other section (``[DEFAULT]``
included) are rejected.  Every effective parameter, default or not, appears
in the canonical serialization, which is always sectioned by ``_SECTION_OF``
(sections and keys sorted) wherever the key was written; its SHA-256 prefix
is the config hash stamped into every artifact.  Parsing a canonical
serialization reproduces it byte for byte.

The SHA-256 is the interpreter's built-in one: it gives the digest of
``hashlib.sha256`` without mapping OpenSSL's ``libcrypto`` into every solve,
bvp and sweep process.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, fields

try:  # as CPython's random.py does: hashlib is heavy to load
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # an interpreter built without either
        from hashlib import sha256

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "parse_config_text"]

_POTENTIAL_PRESETS = ("default", "rotated")
_NONLINEARITY_PRESETS = ("power", "power-regularized", "zero")


class ConfigError(ValueError):
    """Unparseable or out-of-range configuration; carries field diagnostics."""


@dataclass(frozen=True)
class ExperimentConfig:
    # [scenario]
    preset: str = "default"
    alpha: float = 0.75
    j_min: float = -0.25
    j_max: float = 0.75
    i_min: float = 0.0
    i_max: float = 0.5
    k: float = 0.9
    envelope_steepness: float = 0.0025
    wall_height: float = 30.0
    wall_steepness: float = 5e-7
    nonlinearity: str = "power"
    p: float = 1.5
    nu: float = 1.5
    delta: float = 1.0
    xi_scale: float = 1.0
    xi_width: float = 10.0
    eps: float = 1e-6
    lam: float = 0.0  # 0 means "10x the computed threshold"
    lambdas: tuple[float, ...] = ()
    grid_n: int = 4096
    domain: float = 32.0
    # [solver]
    max_iters: int = 5000
    grad_tol: float = 1e-8
    seed: int = 0
    # [output]
    out_dir: str = "runs"

    def canonical_text(self) -> str:
        """Every effective numerical parameter, sections and keys sorted.

        The output location is excluded: the hash identifies the experiment,
        not where its artifacts land.
        """
        sections = {"scenario": {}, "solver": {}}
        for f in fields(self):
            section = _SECTION_OF[f.name]
            if section == "output":
                continue
            key = "lambda" if f.name == "lam" else f.name
            sections[section][key] = _render(getattr(self, f.name))
        out = io.StringIO()
        for section in sorted(sections):
            out.write(f"[{section}]\n")
            for key in sorted(sections[section]):
                out.write(f"{key} = {sections[section][key]}\n")
        return out.getvalue()

    def config_hash(self) -> str:
        return sha256(self.canonical_text().encode("utf-8")).hexdigest()[:16]


_SECTION_OF = {
    "preset": "scenario", "alpha": "scenario", "j_min": "scenario", "j_max": "scenario",
    "i_min": "scenario", "i_max": "scenario", "k": "scenario",
    "envelope_steepness": "scenario", "wall_height": "scenario",
    "wall_steepness": "scenario", "nonlinearity": "scenario", "p": "scenario",
    "nu": "scenario", "delta": "scenario", "xi_scale": "scenario",
    "xi_width": "scenario", "eps": "scenario", "lam": "scenario",
    "lambdas": "scenario", "grid_n": "scenario", "domain": "scenario",
    "max_iters": "solver", "grad_tol": "solver", "seed": "solver",
    "out_dir": "output",
}


def _render(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, tuple):
        return ",".join(format(v, ".17g") for v in value)
    return str(value)


def _parse_value(name: str, raw: str):
    raw = raw.strip()
    kind = ExperimentConfig.__dataclass_fields__[name].type
    try:
        if name == "lambdas":
            if raw == "":
                return ()
            return tuple(float(x) for x in raw.split(","))
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"field '{name}': cannot parse {raw!r} ({exc})") from exc


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    def fail(msg):
        raise ConfigError(msg)

    if cfg.preset not in _POTENTIAL_PRESETS:
        fail(f"field 'preset': unknown preset {cfg.preset!r}, choose from {_POTENTIAL_PRESETS}")
    if cfg.nonlinearity not in _NONLINEARITY_PRESETS:
        fail(
            f"field 'nonlinearity': unknown preset {cfg.nonlinearity!r}, "
            f"choose from {_NONLINEARITY_PRESETS}"
        )
    if not (0.0 < cfg.alpha < 1.0):
        fail(f"field 'alpha': must lie in (0, 1), got {cfg.alpha}")
    if not (cfg.j_min < cfg.j_max):
        fail("fields 'j_min'/'j_max': the well must be a nonempty interval")
    if not (cfg.j_min <= cfg.i_min < cfg.i_max <= cfg.j_max):
        fail("fields 'i_min'/'i_max': the core must be contained in the well")
    if cfg.k <= 0:
        fail(f"field 'k': must be positive, got {cfg.k}")
    for name in ("envelope_steepness", "wall_height", "wall_steepness", "domain",
                 "delta", "xi_scale", "xi_width"):
        if getattr(cfg, name) <= 0:
            fail(f"field '{name}': must be positive, got {getattr(cfg, name)}")
    if not (1.0 < cfg.p < 2.0):
        fail(f"field 'p': must lie in (1, 2), got {cfg.p}")
    if not (cfg.p <= cfg.nu < 2.0):
        fail(f"field 'nu': must lie in [p, 2), got {cfg.nu}")
    if cfg.eps < 0:
        fail(f"field 'eps': must be nonnegative, got {cfg.eps}")
    n = cfg.grid_n
    if n < 8 or (n & (n - 1)) != 0:
        fail(f"field 'grid_n': must be a power of two >= 8, got {n}")
    if cfg.lam < 0:
        fail(f"field 'lambda': must be positive (or 0 for the default), got {cfg.lam}")
    if any(x <= 0 for x in cfg.lambdas):
        fail("field 'lambdas': all weights must be positive")
    if any(b < a for a, b in zip(cfg.lambdas, cfg.lambdas[1:])):
        fail("field 'lambdas': weights must be ascending")
    for name in ("max_iters", "grad_tol"):
        if getattr(cfg, name) <= 0:
            fail(f"field '{name}': must be positive, got {getattr(cfg, name)}")
    if cfg.seed < 0:
        fail(f"field 'seed': must be nonnegative, got {cfg.seed}")
    # last, so a value some check above already rejects keeps that diagnostic
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.type == "float" and not math.isfinite(value):
            fail(f"field '{'lambda' if f.name == 'lam' else f.name}': must be finite, got {value}")
    if not all(math.isfinite(x) for x in cfg.lambdas):
        fail("field 'lambdas': all weights must be finite")
    return cfg


def parse_config_text(text: str, overrides: dict[str, object] | None = None) -> ExperimentConfig:
    """Parse INI text into a validated config; ``preset`` is required.

    ``overrides`` maps field names to already-typed values (CLI flags) and is
    applied before validation.
    """
    # No header can name the empty section, so ``[DEFAULT]`` is an ordinary
    # (and therefore unknown) section instead of keys copied into every other.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    known = {"lambda" if name == "lam" else name for name in _SECTION_OF}
    values, section_of_key = {}, {}
    for section in parser.sections():
        if section not in _SECTION_OF.values():
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(f"unknown field '{key}' in section [{section}]")
            if key in section_of_key:
                raise ConfigError(
                    f"field '{key}' given twice, in sections "
                    f"[{section_of_key[key]}] and [{section}]"
                )
            section_of_key[key] = section
            name = "lam" if key == "lambda" else key
            values[name] = _parse_value(name, raw)
    if "preset" not in section_of_key:
        raise ConfigError("missing required field 'preset' (in any section)")
    if overrides:
        values.update(overrides)
    return _validate(ExperimentConfig(**values))


def parse_config(path: str, overrides: dict[str, object] | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except IsADirectoryError:
        raise ConfigError(f"{path!r} is a directory, not a config file") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path!r} is not UTF-8 text ({exc})") from None
    return parse_config_text(text, overrides)
