"""Fisher-information-optimal measuring geometry for RSSD source localization.

Core entry points:

* :func:`rssdgeom.admm.optimize` computes optimal sensor angles under a
  spread-angle constraint, starting from :func:`rssdgeom.admm.uniform_init`;
  :func:`rssdgeom.admm.optimal_distance` gives the best per-sensor distances;
* :func:`rssdgeom.fim.fim_full` scores a placement (FIM, reduced matrix T,
  LB-RMSE);
* :func:`rssdgeom.estimator.mle_estimate` refines a source estimate from
  measurements;
* :mod:`rssdgeom.experiments` and the ``rssdgeom`` CLI run the bundled
  benchmark studies and write CSV tables.

Scenarios, placements and source parameters come from :mod:`rssdgeom.model`
(:func:`load_scenario` reads the JSON files, :func:`case_a` builds the first
benchmark case). Everything else is importable from its own module.
"""

from .admm import optimal_distance, optimize, uniform_init
from .estimator import mle_estimate
from .fim import fim_full
from .model import Placement, Scenario, SourceParams, case_a, load_scenario

__all__ = [
    "Placement",
    "Scenario",
    "SourceParams",
    "case_a",
    "fim_full",
    "load_scenario",
    "mle_estimate",
    "optimal_distance",
    "optimize",
    "uniform_init",
]

__version__ = "0.1.0"
