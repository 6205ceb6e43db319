"""Dense oracle for the decomposition-basis fast paths.

The library evaluates every tensor form through the decomposition basis
and never forms the d^4 tensor.  This module keeps the dense path the
basis forms replaced, for the tests to compare against:

* the multilinear forms as contractions of a dense (d, d, d, d) tensor,
  on one vector or a (..., d) stack;
* the normalized reconstruction error from the dense residual;
* the three problems built from the dense forms of a fully symmetric T,
  through the same builders the library's factories use;
* closed forms of the certification quantities in decomposition
  coordinates, and the nearest signed component of one sphere.
"""

import math

import numpy as np

from strictsaddle.objectives import _correlation, _maxeig, _reconstruction, correlation_multipliers_coords
from strictsaddle.tensor4 import Tensor4


def _as_tensor_entries(T):
    return T.entries if isinstance(T, Tensor4) else np.asarray(T, dtype=float)


def _check_last_axis(t, **vecs):
    """Each vector must be (d,) or a (..., d) stack."""
    for name, vec in vecs.items():
        if np.shape(vec)[-1:] != (t.shape[0],):
            raise ValueError(f"vector {name} has shape {np.shape(vec)}, expected (..., {t.shape[0]})")


def _outer_flat(u, v):
    """Row-wise outer products u (x) v, flattened to (..., d*d)."""
    uv = np.asarray(u, dtype=float)[..., :, None] * np.asarray(v, dtype=float)[..., None, :]
    return uv.reshape(*uv.shape[:-2], -1)


def _scalar(s):
    return float(s) if np.ndim(s) == 0 else s


# The forms contract through u (x) v, so no d^3 temporary is formed, and
# with einsum only, so each row's result does not depend on its stack.


def form_scalar(T, u, v, w, z):
    """Full contraction T(u, v, w, z) = sum T[p,q,r,s] u_p v_q w_r z_s.

    Vectors (d,) give a float; (..., d) stacks give one value per row.
    """
    t = _as_tensor_entries(T)
    _check_last_axis(t, u=u, v=v, w=w, z=z)
    d = t.shape[0]
    m = np.einsum("mn,...n->...m", t.reshape(d * d, d * d), _outer_flat(w, z))
    return _scalar(np.einsum("...m,...m->...", _outer_flat(u, v), m))


def form_vector(T, u):
    """One free slot: the vector T(I, u, u, u), per row of a (..., d) stack."""
    t = _as_tensor_entries(T)
    _check_last_axis(t, u=u)
    d = t.shape[0]
    y = np.einsum("pqm,...m->...pq", t.reshape(d, d, d * d), _outer_flat(u, u))
    return np.einsum("...pq,...q->...p", y, u)


def form_matrix(T, u):
    """Two free slots: the matrix T(I, I, u, u), per row of a (..., d) stack."""
    t = _as_tensor_entries(T)
    _check_last_axis(t, u=u)
    d = t.shape[0]
    return np.einsum("pqm,...m->...pq", t.reshape(d, d, d * d), _outer_flat(u, u))


def reconstruction_error(T, U):
    """Normalized reconstruction error ||T - sum_i u_i^{(x)4}||_F^2 / ||T||_F^2.

    Raises ValueError when T has zero norm (the metric is undefined).
    """
    t = _as_tensor_entries(T)
    rows = np.asarray(U, dtype=float)
    denom = float(np.sum(t * t))
    if denom == 0.0:
        raise ValueError("reconstruction error undefined for a zero tensor")
    approx = np.einsum("ip,iq,ir,is->pqrs", rows, rows, rows, rows, optimize=True)
    diff = t - approx
    return float(np.sum(diff * diff)) / denom


class DenseForms:
    """T(.) by contracting the dense entries of a fully symmetric T; the
    forms the problem builders of :mod:`strictsaddle.objectives` read.

    The forms contract the points themselves, so the builders' coordinate
    map and cross weights are the identity here.
    """

    def __init__(self, T):
        T = T if isinstance(T, Tensor4) else Tensor4(T)
        if not T.is_symmetric(tol=1e-10):
            raise ValueError("objective requires a fully symmetric tensor")
        self.T = T
        self.d = T.d
        self.norm2 = float(np.sum(T.entries * T.entries))

    def recon_error(self, U):
        return reconstruction_error(self.T, U)

    def coords(self, U):
        return U

    def cross_weights(self, U):
        return U

    def quartic(self, u):
        return form_scalar(self.T, u, u, u, u)

    def cubic(self, u):
        return form_vector(self.T, u)

    def matrix(self, u):
        return form_matrix(self.T, u)

    def pair_matrices(self, U):
        """T(I,u_i,u_j,I) for every pair of rows, contracting one slot at a time."""
        y = np.einsum("pqrs,...jr->...jpqs", self.T.entries, U)
        return np.einsum("...jpqs,...iq->...ijps", y, U)

    def cross_vectors(self, U):
        """sum_l T(I,u_i,u_l,u_l) - T(I,u_i,u_i,u_i), through T(I,I,U^T U)."""
        outer = np.einsum("...lr,...ls->...rs", U, U)
        m = np.einsum("pqrs,...rs->...pq", self.T.entries, outer)
        return np.einsum("...pq,...iq->...ip", m, U) - self.cubic(U)

    def cross_value(self, U):
        return np.einsum("...ip,...ip->...", U, self.cross_vectors(U))


# The library's factories under the same names, built from dense T alone.


def maxeig_objective(T):
    return _maxeig(DenseForms(T))


def reconstruction_objective(T):
    return _reconstruction(DenseForms(T))


def correlation_objective(T, halved=False):
    return _correlation(DenseForms(T), halved)


# Closed forms in the decomposition basis, for feasible points (unit-norm
# blocks) given in coordinates x = A u.


def maxeig_value_coords(x):
    """f(x) = -sum_i x_i^4 for coordinates x on the unit sphere."""
    return -float(np.sum(np.asarray(x, dtype=float) ** 4))


def correlation_value_coords(U, halved=False):
    """Coordinate value sum_{i != j} h(u_i, u_j), optionally halved."""
    sq = np.asarray(U, dtype=float) ** 2
    h = sq @ sq.T
    total = float(np.sum(h) - np.trace(h))
    return 0.5 * total if halved else total


def correlation_psi(U):
    """psi_ik = sum_{j != i} (U_jk^2 - h(u_j, u_i)), the halved-problem stencil."""
    sq = np.asarray(U, dtype=float) ** 2
    return (sq.sum(axis=0)[None, :] - sq) - correlation_multipliers_coords(U)[:, None]


def correlation_lagrangian_hessian_coords(U):
    """Lagrangian Hessian of the halved problem.

    Entry ((i,k), (i',k')): 2 psi_ik when (i,k)=(i',k'); 4 U_{i'k} U_{ik}
    when k=k' and i != i'; zero otherwise.
    """
    U = np.asarray(U, dtype=float)
    d = U.shape[0]
    psi = correlation_psi(U)
    M = np.zeros((d * d, d * d))
    for k in range(d):
        idx = np.arange(d) * d + k
        block = 4.0 * np.outer(U[:, k], U[:, k])
        np.fill_diagonal(block, 2.0 * psi[:, k])
        M[np.ix_(idx, idx)] = block
    return M


class AxisMatcher:
    """Nearest candidate among the signed components {+-a_i} (one sphere)."""

    def __init__(self, basis):
        self.basis = basis

    def nearest(self, u):
        u = np.asarray(u, dtype=float)
        coeff = self.basis.vectors @ u
        i = int(np.argmax(np.abs(coeff)))
        cand = math.copysign(1.0, coeff[i]) * self.basis.vectors[i]
        return cand, float(np.linalg.norm(u - cand))
