"""Equality-constraint machinery for products of unit spheres.

The feasible set is W = {w : c_i(w) = 0, i in [m]} with one constraint per
block, c_i(w) = ||w_i||^2 - 1.  This module provides projection onto W,
least-squares Lagrange multipliers, the tangent component of the gradient,
the Lagrangian Hessian, an orthonormal tangent basis, the smallest
tangent curvature, and the minimum singular value of the
constraint-gradient matrix (the robustness measure for constraint
qualification).

C(w) is block diagonal with columns 2 w_i, so the multipliers,
sigma_min(C) and the tangent basis have exact blockwise closed forms: the
basis is one Householder reflector per block (Absil, Mahony & Sepulchre,
*Optimization Algorithms on Matrix Manifolds*, 2008, ch. 3-5).  The
multipliers, tangent gradient, Lagrangian Hessian, tangent basis and
curvature take one point (n,) or a (..., n) stack and treat each row
alone.  The generic pseudo-inverse solve survives only as the test oracle
in :mod:`strictsaddle.analysis`.
"""

import numbers

import numpy as np

__all__ = [
    "SphereProduct",
    "lagrange_multipliers",
    "tangent_gradient",
    "chi_from_gradient",
    "lagrangian_hessian",
    "tangent_basis",
    "min_tangent_eig",
]

FEASIBLE_TOL = 1e-10
DEGENERATE_BLOCK_NORM = 1e-12
# constraint qualification floor on sigma_min(C(w)) for the multipliers
CQ_SIGMA_MIN = 1e-8


class SphereProduct:
    """Product of m unit spheres in R^k, embedded blockwise in R^n, n = m k.

    Every kernel is one array expression over all blocks: per-block sums
    are ``np.add.reduceat`` at the block starts and per-block scalars are
    repeated back over the k entries of their block.  The kernels act on
    the last axis, so a (..., n) stack of points is handled row by row in
    one call; a row's result does not depend on the other rows.
    """

    __slots__ = ("m", "k", "n", "_starts")

    def __init__(self, m, k):
        if not all(isinstance(x, numbers.Integral) and x >= 1 for x in (m, k)):
            raise ValueError(f"a sphere product needs integers m, k >= 1, got m={m!r}, k={k!r}")
        self.m, self.k, self.n = int(m), int(k), int(m * k)
        self._starts = np.arange(0, self.n, self.k)

    def _block_sums(self, x):
        """Per-block sums along the last axis: (..., n) -> (..., m)."""
        return np.add.reduceat(x, self._starts, axis=-1)

    def _per_entry(self, x):
        """Repeat one value per block over its entries: (..., m) -> (..., n)."""
        return x.repeat(self.k, axis=-1)

    def block_norms(self, w):
        w = np.asarray(w, dtype=float)
        return np.sqrt(self._block_sums(w * w))

    def c(self, w):
        """Constraint values c_i(w) = ||w_i||^2 - 1."""
        w = np.asarray(w, dtype=float)
        return self._block_sums(w * w) - 1.0

    def feasible(self, w):
        """True when every constraint holds to FEASIBLE_TOL."""
        return bool(np.max(np.abs(self.c(w))) <= FEASIBLE_TOL)

    def constraint_gradients(self, w):
        """The n x m matrix C(w) whose i-th column is grad c_i(w) = 2 w_i."""
        w = np.asarray(w, dtype=float)
        C = np.zeros((self.n, self.m))
        C[np.arange(self.n), np.arange(self.n) // self.k] = 2.0 * w
        return C

    def weighted_constraint_hessian(self, lam):
        """sum_i lam_i * hess c_i, a diagonal matrix with 2*lam_i per block;
        one matrix per row of a (..., m) stack."""
        return np.eye(self.n) * self._per_entry(2.0 * np.asarray(lam, dtype=float))[..., None, :]

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
        if not nrm.min(initial=np.inf) >= DEGENERATE_BLOCK_NORM and (nrm < DEGENERATE_BLOCK_NORM).any():
            i = int(np.nanargmin(nrm)) % self.m
            raise ValueError(f"degenerate projection: block [{i * self.k}:{(i + 1) * self.k}]"
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
        return f"SphereProduct(m={self.m}, k={self.k})"


def _check_cq(ss):
    """Raise unless sigma_min(C(w)) >= CQ_SIGMA_MIN on every row, given the
    squared block norms ``ss`` of w.  C(w)^T C(w) = diag(4 ||w_i||^2), so
    sigma_min(C) = 2 min_i ||w_i|| exactly (2 on feasible sphere products),
    and 2 sqrt(min ss) is that bit for bit: sqrt is monotone and correctly
    rounded, so the sqrt of the least sum is the least norm."""
    sigma = 2.0 * float(np.sqrt(np.min(ss, initial=np.inf)))
    if sigma < CQ_SIGMA_MIN:
        raise ValueError(f"constraint qualification failure: sigma_min(C) = {sigma:.3e}")


def _multipliers(constraints, w, g):
    """lambda_i = <g_i, w_i> / (2 ||w_i||^2), the exact least-squares
    solution of C(w) lambda = g for the block-diagonal C(w); per row of a
    (..., n) stack, checked against the constraint qualification floor
    on every row."""
    ss = constraints._block_sums(w * w)
    _check_cq(ss)
    return constraints._block_sums(g * w) / (2.0 * ss)


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
    return chi_from_gradient(problem.constraints, w, problem.gradient(w))


def chi_from_gradient(constraints, w, g):
    """chi = g - 2 lambda_i w_i per block, from a gradient g already taken at w.

    The least-squares multipliers of :func:`_multipliers`; one point or a
    (..., n) stack with one gradient per row.
    """
    lam = _multipliers(constraints, w, g)
    return g - constraints._per_entry(2.0 * lam) * w


def lagrangian_hessian(problem, w):
    """M(w) = hess f(w) - sum_i lambda*_i hess c_i(w), symmetric."""
    lam = lagrange_multipliers(problem, w)
    H = problem.hessian(w) - problem.constraints.weighted_constraint_hessian(lam)
    return 0.5 * (H + H.swapaxes(-1, -2))


def tangent_basis(constraints, w):
    """Orthonormal basis of T(w), as the columns of an n x (n-m) matrix.

    Block by block: w_i is normalised to v, and the Householder reflector
    Q = I - 2 h h^T / (h^T h) with h = v + s e_1 (s the sign of v's first
    entry, so h never cancels) maps v onto -s e_1.  Q is symmetric and
    orthogonal, so its first column is -s v and its other columns span
    the complement of w_i in the block; they are kept.

    Raises
    ------
    ValueError
        If a block norm is below CQ_SIGMA_MIN / 2.
    """
    w = np.asarray(w, dtype=float)
    ss = constraints._block_sums(w * w)
    _check_cq(ss)
    starts = constraints._starts
    h = w / constraints._per_entry(np.sqrt(ss))
    h[..., starts] += np.copysign(1.0, h[..., starts])
    u = h * constraints._per_entry(np.sqrt(2.0 / constraints._block_sums(h * h)))
    block = np.arange(constraints.n) // constraints.k
    Q = np.eye(constraints.n) - (block[:, None] == block) * (u[..., :, None] * u[..., None, :])
    return np.delete(Q, starts, axis=-1)


def min_tangent_eig(problem, w):
    """Smallest eigenvalue of the Lagrangian Hessian on the tangent space.

    Reduces M(w) to the (n-m) x (n-m) matrix B^T M B in the tangent basis
    B of :func:`tangent_basis` and solves it densely; a (..., n) stack is
    solved by one batched ``eigh``.

    Returns
    -------
    (eigenvalue, direction)
        The eigenvalue and a unit witness direction in T(w): a float and
        an (n,) vector for one point, (...,) and (..., n) for a stack.
    """
    w = np.asarray(w, dtype=float)
    B = tangent_basis(problem.constraints, w)
    M = lagrangian_hessian(problem, w)
    reduced = np.einsum("...pi,...pj->...ij", B, np.einsum("...pq,...qj->...pj", M, B))
    vals, vecs = np.linalg.eigh(reduced)
    direction = np.einsum("...pi,...i->...p", B, vecs[..., 0])
    direction /= np.sqrt(np.einsum("...p,...p->...", direction, direction))[..., None]
    return (float(vals[0]) if w.ndim == 1 else vals[..., 0]), direction
