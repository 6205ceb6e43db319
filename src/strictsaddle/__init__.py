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
from .analysis import (
    CheckResult,
    MinimaCatalog,
    coupling_closed_form,
    enumerate_minima,
    escape_statistics,
    fd_gradient,
    fd_hessian,
    run_checks,
)
from .ica import IcaModel, IcaSampler, SimpleSampler, gen_ica_samples
from .manifold import SphereProduct, lagrange_multipliers, min_tangent_eig, tangent_gradient
from .objectives import (
    ConstrainedProblem,
    QuadraticObjective,
    correlation_objective,
    maxeig_objective,
    reconstruction_objective,
)
from .sgd import RunRecord, SgdConfig, noisy_sgd, projected_noisy_sgd, projected_trials
from .tensor4 import OrthoBasis, Tensor4, make_orthogonal_tensor

__all__ = [
    "__version__",
    "analysis",
    "cli",
    "ica",
    "manifold",
    "objectives",
    "sgd",
    "tensor4",
    "CheckResult",
    "MinimaCatalog",
    "coupling_closed_form",
    "enumerate_minima",
    "escape_statistics",
    "fd_gradient",
    "fd_hessian",
    "run_checks",
    "IcaModel",
    "IcaSampler",
    "SimpleSampler",
    "gen_ica_samples",
    "SphereProduct",
    "lagrange_multipliers",
    "min_tangent_eig",
    "tangent_gradient",
    "ConstrainedProblem",
    "QuadraticObjective",
    "correlation_objective",
    "maxeig_objective",
    "reconstruction_objective",
    "RunRecord",
    "SgdConfig",
    "noisy_sgd",
    "projected_noisy_sgd",
    "projected_trials",
    "OrthoBasis",
    "Tensor4",
    "make_orthogonal_tensor",
]
