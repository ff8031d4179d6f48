"""Differentially private counting queries, and what a Bayes corrector recovers.

The package answers counting queries under epsilon-differential privacy with
Laplace output perturbation, applies a posterior-mean correction that an
analyst holding the population model (n, p) could compute from a single
noisy response, and ships a Monte Carlo harness comparing the corrected and
raw estimators across privacy levels.
"""

from . import estimators, mechanism, prior, querydb, simulation
from .estimators import *
from .mechanism import *
from .prior import *
from .querydb import *
from .simulation import *

# Each module's __all__ is its public API; the package exports their union.
__all__ = [
    name
    for module in (estimators, mechanism, prior, querydb, simulation)
    for name in module.__all__
]
