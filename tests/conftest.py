import random

import numpy as np
import pytest

from frachs import SampledSignal, SolverConfig, default_problem, midpoint_grid

# default desk-scale grid
N_DEFAULT = 4096
DOMAIN_DEFAULT = 32.0
T_MIN, DT = midpoint_grid(N_DEFAULT, DOMAIN_DEFAULT)


def zero_signal(prob):
    """The zero signal on the grid of ``prob``."""
    return SampledSignal(prob.t_min, prob.dt, np.zeros((prob.n_samples, prob.n_components)))


@pytest.fixture(scope="session")
def prob():
    """Default scenario at lam = 10x the embedding threshold."""
    return default_problem()


@pytest.fixture(scope="session")
def cfg():
    return SolverConfig()


@pytest.fixture(scope="session")
def rng():
    """The stdlib generator that ``random_band_limited`` draws from."""
    return random.Random(20240811)


@pytest.fixture(scope="session")
def np_rng():
    """numpy's generator, for the tests' own array draws."""
    return np.random.default_rng(20240811)
