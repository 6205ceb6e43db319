"""Noisy projected SGD on strict-saddle problems.

Orthogonal 4th-order tensor decomposition posed as optimization over
products of unit spheres, stochastic gradient estimators for it (atomic
and ICA sign-source models), and a verification layer that certifies
the saddle structure numerically: tangent gradients, Lagrangian
Hessians, minima enumeration, escape statistics, and exact coupling to
the local quadratic model.
"""

__version__ = "0.1.0"

from . import analysis, cli, ica, manifold, objectives, sgd, tensor4

# the names the benchmark's problem set-ups (perfbench/workloads.py) read
from .ica import IcaModel, IcaSampler, SimpleSampler
from .objectives import correlation_objective, maxeig_objective, reconstruction_objective
from .tensor4 import OrthoBasis, make_orthogonal_tensor

__all__ = [
    "__version__",
    "analysis",
    "cli",
    "ica",
    "manifold",
    "objectives",
    "sgd",
    "tensor4",
    "IcaModel",
    "IcaSampler",
    "SimpleSampler",
    "correlation_objective",
    "maxeig_objective",
    "reconstruction_objective",
    "OrthoBasis",
    "make_orthogonal_tensor",
]
