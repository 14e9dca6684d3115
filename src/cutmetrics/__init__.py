"""Cutpoint-additive graph distances on connected weighted multigraphs.

The package builds four families of vertex distances (path, reliability,
logarithmic forest, walk) whose triangle equality d(i,j) + d(j,k) = d(i,k)
holds exactly when j is a cutpoint between i and k, alongside the classical
shortest-path and resistance distances and the limiting long-walk distance.
Brute-force oracles certify the closed-form pipelines on small graphs.
"""

# Each module's __all__ is the one declaration of its public names, and the
# package republishes them, in this order, as its own.
from . import distances, errors, graph, linalg, measures, oracle, types
from .distances import *
from .errors import *
from .graph import *
from .linalg import *
from .measures import *
from .oracle import *
from .types import *

__version__ = "0.1.0"

__all__ = [name for module in (graph, linalg, measures, distances, oracle, types, errors) for name in module.__all__]
