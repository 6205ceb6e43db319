"""Equality-constraint machinery for products of unit spheres.

The feasible set is W = {w : c_i(w) = 0, i in [m]} with one constraint per
block, c_i(w) = ||w_i||^2 - 1.  This module provides projection onto W,
least-squares Lagrange multipliers, the tangent component of the gradient,
the Lagrangian Hessian, orthonormal tangent frames, and the minimum
singular value of the constraint-gradient matrix (the robustness measure
for constraint qualification).

C(w) is block diagonal with columns 2 w_i, so the multipliers and
sigma_min(C) have exact blockwise closed forms (Absil, Mahony &
Sepulchre, *Optimization Algorithms on Matrix Manifolds*, 2008, ch. 3-5).
The generic pseudo-inverse solve survives only as the test oracle in
:mod:`strictsaddle.analysis`.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SphereProduct",
    "TangentFrame",
    "SaddleParams",
    "lagrange_multipliers",
    "tangent_gradient",
    "lagrangian_hessian",
    "tangent_frame",
    "min_tangent_eig",
    "rlicq_sigma_min",
]

FEASIBLE_TOL = 1e-10
DEGENERATE_BLOCK_NORM = 1e-12
# constraint qualification floor on sigma_min(C(w)) for the multipliers
CQ_SIGMA_MIN = 1e-8


class SphereProduct:
    """Product of m unit spheres, embedded blockwise in R^n.

    Every kernel is one array expression over all blocks: per-block sums
    are ``np.add.reduceat`` at the block starts and per-block scalars are
    repeated back over the block dimensions, so equal and unequal blocks
    take the same path.  The kernels act on the last axis, so a (..., n)
    stack of points is handled row by row in one call; a row's result
    does not depend on the other rows.

    Parameters
    ----------
    block_dims : sequence of int
        Dimension of each block; n = sum(block_dims).
    """

    __slots__ = ("block_dims", "offsets", "m", "n", "_starts", "_dims")

    def __init__(self, block_dims):
        dims = np.array(block_dims, dtype=int)
        if dims.ndim != 1 or dims.size == 0 or dims.min() < 1:
            raise ValueError(f"invalid block dimensions {block_dims}")
        self.block_dims = tuple(dims.tolist())
        self.offsets = tuple(np.cumsum([0, *self.block_dims]).tolist())
        self.m = dims.size
        self.n = self.offsets[-1]
        self._starts = np.array(self.offsets[:-1])
        self._dims = dims

    @classmethod
    def spheres(cls, m, block_dim):
        """m unit spheres of equal dimension block_dim."""
        return cls([block_dim] * m)

    def blocks(self):
        """Iterate (start, stop) index pairs of the blocks."""
        for i in range(self.m):
            yield self.offsets[i], self.offsets[i + 1]

    def _block_sums(self, x):
        """Per-block sums along the last axis: (..., n) -> (..., m)."""
        return np.add.reduceat(x, self._starts, axis=-1)

    def _per_entry(self, x):
        """Repeat one value per block over its entries: (..., m) -> (..., n)."""
        return x.repeat(self._dims, axis=-1)

    def block_norms(self, w):
        w = np.asarray(w, dtype=float)
        return np.sqrt(self._block_sums(w * w))

    def c(self, w):
        """Constraint values c_i(w) = ||w_i||^2 - 1."""
        w = np.asarray(w, dtype=float)
        return self._block_sums(w * w) - 1.0

    def feasible(self, w, tol=FEASIBLE_TOL):
        return bool(np.max(np.abs(self.c(w))) <= tol)

    def constraint_gradients(self, w):
        """The n x m matrix C(w) whose i-th column is grad c_i(w) = 2 w_i."""
        w = np.asarray(w, dtype=float)
        C = np.zeros((self.n, self.m))
        C[np.arange(self.n), self._per_entry(np.arange(self.m))] = 2.0 * w
        return C

    def weighted_constraint_hessian(self, lam):
        """sum_i lam_i * hess c_i, a diagonal matrix with 2*lam_i per block."""
        return np.diag(self._per_entry(2.0 * np.asarray(lam, dtype=float)))

    def project(self, v):
        """Closest feasible point: each block rescaled to unit norm.

        Raises
        ------
        ValueError
            If any block norm is below 1e-12; the projection is not
            unique there and the caller must treat it as a failure.
        """
        v = np.asarray(v, dtype=float)
        nrm = self.block_norms(v)
        # min() is nan when any row is nan; the per-entry test then decides
        if not nrm.min() >= DEGENERATE_BLOCK_NORM and (nrm < DEGENERATE_BLOCK_NORM).any():
            i = int(np.nanargmin(nrm)) % self.m
            raise ValueError(f"degenerate projection: block [{self.offsets[i]}:{self.offsets[i + 1]}]"
                             f" has norm {np.nanmin(nrm):.3e}")
        return v / self._per_entry(nrm)

    def random_point(self, rng):
        """Uniform draw from the product of spheres (normalized Gaussians)."""
        w = rng.standard_normal(self.n)
        return self.project(w)

    def tangent_project(self, w, v):
        """P_T(w) v at a feasible w: drop each block's radial component."""
        w = np.asarray(w, dtype=float)
        v = np.asarray(v, dtype=float)
        return v - self._per_entry(self._block_sums(v * w)) * w

    def normal_project(self, w, v):
        """P_T(w)^c v at a feasible w (complement of tangent_project)."""
        return np.asarray(v, dtype=float) - self.tangent_project(w, v)

    def __repr__(self):
        return f"SphereProduct(blocks={self.block_dims})"


class TangentFrame:
    """Orthonormal frame of the tangent space at a feasible point.

    Attributes
    ----------
    w : ndarray
        Base point.
    tangent_basis : ndarray, shape (n, n-m)
        Orthonormal columns spanning T(w) = {v : grad c_i(w).v = 0}.
    normal_basis : ndarray, shape (n, m)
        Orthonormal columns spanning the complement span{grad c_i(w)}.
    """

    __slots__ = ("w", "tangent_basis", "normal_basis")

    def __init__(self, w, tangent_basis, normal_basis):
        self.w = w
        self.tangent_basis = tangent_basis
        self.normal_basis = normal_basis

    def project_tangent(self, v):
        b = self.tangent_basis
        return b @ (b.T @ v)

    def project_normal(self, v):
        b = self.normal_basis
        return b @ (b.T @ v)


def tangent_frame(constraints, w):
    """Orthonormal completion of the constraint gradients at w.

    Runs a full QR factorization of C(w); the first m columns of Q span
    the normal space, the rest span the tangent space.  Deterministic
    given the input.

    Raises
    ------
    ValueError
        If C(w) is numerically rank deficient.
    """
    w = np.asarray(w, dtype=float)
    C = constraints.constraint_gradients(w)
    q, r = np.linalg.qr(C, mode="complete")
    diag = np.abs(np.diag(r[: constraints.m, : constraints.m]))
    if np.min(diag) < 1e-10:
        raise ValueError("constraint gradients are rank deficient at this point")
    return TangentFrame(w, q[:, constraints.m :], q[:, : constraints.m])


def rlicq_sigma_min(constraints, w):
    """Smallest singular value of C(w), in closed form.

    C(w)^T C(w) = diag(4 ||w_i||^2), so sigma_min(C) = 2 min_i ||w_i||
    exactly; it equals 2 on feasible sphere products.
    """
    return 2.0 * float(np.min(constraints.block_norms(w)))


def _multipliers(constraints, w, g):
    """lambda_i = <g_i, w_i> / (2 ||w_i||^2), the exact least-squares
    solution of C(w) lambda = g for the block-diagonal C(w); per row of a
    (..., n) stack, checked against the constraint qualification floor
    on every row."""
    sigma = rlicq_sigma_min(constraints, w)
    if sigma < CQ_SIGMA_MIN:
        raise ValueError(f"constraint qualification failure: sigma_min(C) = {sigma:.3e}")
    return constraints._block_sums(g * w) / (2.0 * constraints._block_sums(w * w))


def lagrange_multipliers(problem, w):
    """Least-squares multipliers lambda* = argmin ||grad f(w) - C(w) lambda||.

    Closed form per block (see :func:`_multipliers`); requires C(w) to
    have full column rank, i.e. no block norm below CQ_SIGMA_MIN / 2.
    """
    w = np.asarray(w, dtype=float)
    return _multipliers(problem.constraints, w, problem.gradient(w))


def tangent_gradient(problem, w):
    """Gradient of the Lagrangian at the least-squares multipliers.

    chi(w) = grad f(w) - sum_i lambda*_i grad c_i(w) = g - 2 lambda_i w_i
    per block.  For sphere products this equals the tangent-space
    projection of grad f(w).  Takes one point or a (..., n) stack.
    """
    w = np.asarray(w, dtype=float)
    constraints = problem.constraints
    g = problem.gradient(w)
    lam = _multipliers(constraints, w, g)
    return g - constraints._per_entry(2.0 * lam) * w


def lagrangian_hessian(problem, w):
    """M(w) = hess f(w) - sum_i lambda*_i hess c_i(w), symmetric."""
    lam = lagrange_multipliers(problem, w)
    H = problem.hessian(w) - problem.constraints.weighted_constraint_hessian(lam)
    return 0.5 * (H + H.T)


def min_tangent_eig(problem, w, frame=None):
    """Smallest eigenvalue of the Lagrangian Hessian on the tangent space.

    Reduces M(w) to the (n-m) x (n-m) matrix B^T M B in an orthonormal
    tangent frame B and solves it densely.

    Returns
    -------
    (eigenvalue, direction)
        The eigenvalue and a unit witness direction in T(w).
    """
    if frame is None:
        frame = tangent_frame(problem.constraints, w)
    B = frame.tangent_basis
    M = lagrangian_hessian(problem, w)
    reduced = B.T @ M @ B
    vals, vecs = np.linalg.eigh(reduced)
    direction = B @ vecs[:, 0]
    return float(vals[0]), direction / np.linalg.norm(direction)


@dataclass(frozen=True)
class SaddleParams:
    """Quantitative strict-saddle thresholds.

    alpha: strong-convexity floor near local minima; gamma: required
    negative-curvature magnitude; epsilon: large-gradient threshold;
    delta: matching radius to a catalogued minimum.
    """

    alpha: float
    gamma: float
    epsilon: float
    delta: float

    def __post_init__(self):
        for name in ("alpha", "gamma", "epsilon", "delta"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
