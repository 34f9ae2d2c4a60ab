import importlib.util
from pathlib import Path

import numpy as np

import frachs
from frachs import energy, fracops, grid, nonlinearity, solver, spaces

from conftest import zero_signal

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# the package root's exports before it re-exported each module's __all__
ROOT_NAMES = {
    "AdmissibilityError", "CheckReport", "DivergenceError", "EmbeddingConstants", "FracOrder",
    "Nonlinearity", "PotentialMatrix", "Problem", "ResolutionError", "SampledSignal",
    "SolveResult", "SolverConfig", "SweepReport", "SweepRow", "WitnessError",
    "compute_embedding_constants", "concentration_sweep", "continuum_sobolev_constant",
    "default_problem", "directional_derivative", "embedding_bounds", "energy",
    "evaluate_energy", "fracops", "gradient", "grid", "grid_sobolev_constant",
    "grunwald_weights", "h_alpha_norm", "l2_norm", "lambda_norm", "left_derivative",
    "left_integral", "lower_bound", "lower_bound_minimum", "measure_sublevel",
    "midpoint_grid", "minimize", "negative_energy_witness", "nonlinearity", "pointwise_dot",
    "power_nonlinearity", "quadrature_left_derivative", "random_band_limited", "reflect",
    "riesz_composition", "right_derivative", "rotated_well_potential", "seminorm_alpha",
    "signal_from_function", "smooth_bump", "sobolev_constant", "solve_bvp", "solver",
    "spaces", "uniform_bound_constant", "vanishing_well_potential", "verify_growth",
    "verify_potential", "zero_nonlinearity",
}


def test_root_exports_every_module_all():
    assert len(ROOT_NAMES) == 60
    exported = set(frachs.__all__)
    assert ROOT_NAMES <= exported
    for module in (energy, fracops, grid, nonlinearity, solver, spaces):
        assert set(module.__all__) <= exported
        for name in module.__all__:
            assert getattr(frachs, name) is getattr(module, name)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("frachs_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_tracer_finds_every_watched_name(prob):
    # a watched name the package lost leaves its per-layer metrics out of the benchmark result
    tracing = _load_tracing()
    einsum, rfft = np.einsum, np.fft.rfft
    tracer = tracing.Tracer()
    patches, missing = tracing.install(tracer)
    try:
        assert missing == []
        assert frachs.evaluate_energy(zero_signal(prob), prob) == 0.0
    finally:
        patches.undo()
    assert np.einsum is einsum and np.fft.rfft is rfft
    metrics = tracer.metrics()
    assert metrics["energy.evaluate_energy.calls"] == 1
    assert metrics["fracops.fft.calls"] >= 1  # the FFTs are looked up as np.fft.<name> per call
