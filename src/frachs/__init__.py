"""Fractional Hamiltonian systems with a degenerate potential well.

Spectral whole-line fractional operators on truncated periodic grids, the
weighted energy functional of the sub-quadratic problem, a monotone-descent
minimizer for its nontrivial negative-energy critical points, and a
weight-sweep harness exhibiting the concentration of minimizers onto the
interval where the potential matrix vanishes.
"""

__version__ = "0.1.0"

from .energy import *
from .fracops import *
from .grid import *
from .nonlinearity import *
from .solver import *
from .spaces import *

__all__ = [name for name in dir() if not name.startswith("_")]
