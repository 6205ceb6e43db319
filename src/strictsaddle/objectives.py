"""Objectives for orthogonal 4th-order tensor decomposition.

Three equality-constrained problems over products of unit spheres:

* ``maxeig``: minimize f(u) = -T(u,u,u,u) on one sphere; the minima are
  the components +-a_i.
* ``reconstruction``: minimize f(U) = ||T - sum_i u_i^{(x)4}||_F^2 with
  every row of U on the sphere.
* ``correlation``: minimize the cross-component correlations
  sum_{i != j} T(u_i,u_i,u_j,u_j), again with unit-norm rows.  The sum
  runs over ordered pairs; ``halved=True`` builds the view scaled by 1/2
  (the unordered-pair sum), which is the scaling whose closed-form
  multipliers and Lagrangian Hessian take the simplest form and which
  the per-sample gradient oracles in :mod:`strictsaddle.ica` estimate.

Each problem exposes analytic value/gradient/Hessian in ambient
coordinates; value and gradient accept a (..., n) stack of points.  A
problem is built from the decomposition basis (``basis=``) and works in
the coordinates X = U A^T, never forming the d^4 tensor.  Given only a
dense tensor ``T`` it contracts the entries instead (the forms of
:mod:`strictsaddle.tensor4`); that path checks T's symmetry and is the
oracle the basis path is tested against.  The coordinate closed forms
of the certification quantities (``*_coords`` functions) are
cross-checked in tests.
"""

import numpy as np

from .manifold import SphereProduct
from .tensor4 import (
    Tensor4,
    basis_coords,
    basis_form_matrix,
    basis_form_scalar,
    basis_form_vector,
    form_matrix,
    form_pair_matrix,
    form_scalar,
    form_vector,
    reconstruction_error,
    reconstruction_error_from_basis,
)

__all__ = [
    "ConstrainedProblem",
    "QuadraticObjective",
    "maxeig_objective",
    "reconstruction_objective",
    "correlation_objective",
    "maxeig_value_coords",
    "maxeig_multiplier_coords",
    "correlation_value_coords",
    "correlation_psi",
    "correlation_multipliers_coords",
    "correlation_lagrangian_hessian_coords",
]


class ConstrainedProblem:
    """Equality-constrained objective with analytic derivatives.

    ``value`` and ``gradient`` take one point (n,) or a stack (..., n) and
    act on each row alone, so a row's result does not depend on the rest
    of the stack; ``value`` returns a float for one point.  ``hessian``
    takes one point.

    Attributes
    ----------
    name : str
    constraints : SphereProduct
    dim : int
        Ambient dimension (constraints.n).
    """

    def __init__(self, name, constraints, value_fn, gradient_fn, hessian_fn, recon_metric=None):
        self.name = name
        self.constraints = constraints
        self._value = value_fn
        self._gradient = gradient_fn
        self._hessian = hessian_fn
        self._recon = recon_metric

    @property
    def dim(self):
        return self.constraints.n

    def value(self, w):
        w = np.asarray(w, dtype=float)
        f = self._value(w)
        return float(f) if w.ndim == 1 else f

    def gradient(self, w):
        return self._gradient(np.asarray(w, dtype=float))

    def hessian(self, w):
        return self._hessian(np.asarray(w, dtype=float))

    def recon_error(self, w):
        """Normalized reconstruction error at w, or None when undefined."""
        if self._recon is None:
            return None
        return float(self._recon(np.asarray(w, dtype=float)))

    def random_feasible(self, rng):
        return self.constraints.random_point(rng)

    def __repr__(self):
        return f"ConstrainedProblem({self.name!r}, dim={self.dim})"


# Value and gradient take (..., n) stacks.  The forms come from tensor4;
# the cross terms of the correlation problem are contracted here.  Every
# stack contraction is an einsum or a last-axis reduction, never BLAS
# matmul: gemm and gemv round a row differently, and gemm's rounding
# depends on the stack height, so only these keep each row's result
# independent of the rows around it.  Hessian forms take one point.


def _rows(w, d):
    """View a (..., d*d) stack as (..., d, d) component rows."""
    return w.reshape(*w.shape[:-1], d, d)


class _BasisForms:
    """T(.) through the decomposition basis (rows a_j), in coordinates X = U A^T.

    ``norm2`` is ||T||_F^2 = sum_ij (a_i.a_j)^4 = d for orthonormal rows.
    """

    def __init__(self, basis):
        self.basis = basis
        self.d = basis.d
        self.norm2 = float(basis.d)

    def recon_error(self, U):
        return reconstruction_error_from_basis(self.basis, U)

    def quartic(self, u):
        return basis_form_scalar(self.basis, u, u, u, u)

    def cubic(self, u):
        return basis_form_vector(self.basis, u)

    def matrix(self, u):
        return basis_form_matrix(self.basis, u)

    def pair_matrix(self, u, v):
        a = self.basis.vectors
        return (a.T * ((a @ u) * (a @ v))) @ a

    def _cross_weights(self, U):
        x = basis_coords(self.basis, U)
        x2 = x * x
        return x, x2, np.einsum("...ij->...j", x2)[..., None, :] - x2

    def cross_value(self, U):
        """sum_i sum_{l != i} T(u_i,u_i,u_l,u_l) = sum_ij X_ij^2 (S_j - X_ij^2)."""
        _, x2, rest = self._cross_weights(U)
        return np.einsum("...ij,...ij->...", x2, rest)

    def cross_vectors(self, U):
        """Rows sum_{l != i} T(I,u_i,u_l,u_l) = ((S - X^2) o X) A."""
        x, _, rest = self._cross_weights(U)
        return np.einsum("...ij,jk->...ik", rest * x, self.basis.vectors)


class _DenseForms:
    """T(.) by contracting the dense entries of a fully symmetric T."""

    def __init__(self, T):
        T = T if isinstance(T, Tensor4) else Tensor4(T)
        if not T.is_symmetric(tol=1e-10):
            raise ValueError("objective requires a fully symmetric tensor")
        self.T = T
        self.d = T.d
        self.norm2 = T.norm() ** 2

    def recon_error(self, U):
        return reconstruction_error(self.T, U)

    def quartic(self, u):
        return form_scalar(self.T, u, u, u, u)

    def cubic(self, u):
        return form_vector(self.T, u)

    def matrix(self, u):
        return form_matrix(self.T, u)

    def pair_matrix(self, u, v):
        return form_pair_matrix(self.T, u, v)

    def cross_vectors(self, U):
        """sum_l T(I,u_i,u_l,u_l) - T(I,u_i,u_i,u_i), through T(I,I,U^T U)."""
        outer = np.einsum("...lr,...ls->...rs", U, U)
        m = np.einsum("pqrs,...rs->...pq", self.T.entries, outer)
        return np.einsum("...pq,...iq->...ip", m, U) - self.cubic(U)

    def cross_value(self, U):
        return np.einsum("...ip,...ip->...", U, self.cross_vectors(U))


def _forms(T, basis):
    """The tensor's forms: through the basis when given (T is then not read),
    else through the dense entries of T."""
    if basis is not None:
        return _BasisForms(basis)
    if T is None:
        raise ValueError("objective needs the decomposition basis or a dense tensor T")
    return _DenseForms(T)


def maxeig_objective(T=None, basis=None):
    """Single-component problem: minimize -T(u,u,u,u) on the unit sphere.

    gradient -4 T(I,u,u,u); Hessian -12 T(I,I,u,u).
    """
    forms = _forms(T, basis)
    constraints = SphereProduct([forms.d])

    def value(u):
        return -forms.quartic(u)

    def gradient(u):
        return -4.0 * forms.cubic(u)

    def hessian(u):
        return -12.0 * forms.matrix(u)

    return ConstrainedProblem("maxeig", constraints, value, gradient, hessian)


def reconstruction_objective(T=None, basis=None):
    """Full-decomposition problem: minimize ||T - sum_i u_i^{(x)4}||_F^2.

    Expanded as ||T||^2 - 2 sum_i T(u_i,u_i,u_i,u_i) + sum_{i,l} (u_i.u_l)^4,
    so no dense d^4 residual is ever formed.
    """
    forms = _forms(T, basis)
    d = forms.d
    constraints = SphereProduct.spheres(d, d)

    def gram(U):
        return np.einsum("...ik,...lk->...il", U, U)

    def value(w):
        U = _rows(w, d)
        g2 = gram(U) ** 2
        return forms.norm2 - 2.0 * forms.quartic(U).sum(axis=-1) + np.einsum("...il,...il->...", g2, g2)

    def gradient(w):
        U = _rows(w, d)
        out = -8.0 * forms.cubic(U) + 8.0 * np.einsum("...il,...lk->...ik", gram(U) ** 3, U)
        return out.reshape(w.shape)

    def hessian(w):
        U = w.reshape(d, d)
        gram = U @ U.T
        H = np.zeros((d * d, d * d))
        for i in range(d):
            si = slice(i * d, (i + 1) * d)
            diag = -24.0 * forms.matrix(U[i])
            for l in range(d):
                if l == i:
                    continue
                diag += 24.0 * gram[i, l] ** 2 * np.outer(U[l], U[l])
            diag += 48.0 * gram[i, i] ** 2 * np.outer(U[i], U[i])
            diag += 8.0 * gram[i, i] ** 3 * np.eye(d)
            H[si, si] = diag
            for j in range(i + 1, d):
                sj = slice(j * d, (j + 1) * d)
                block = 8.0 * (3.0 * gram[i, j] ** 2 * np.outer(U[j], U[i]) + gram[i, j] ** 3 * np.eye(d))
                H[si, sj] = block
                H[sj, si] = block.T
        return H

    return ConstrainedProblem("reconstruction", constraints, value, gradient, hessian,
                              recon_metric=lambda w: forms.recon_error(w.reshape(d, d)))


def correlation_objective(T=None, basis=None, halved=False):
    """Cross-correlation problem: minimize sum_{i != j} T(u_i,u_i,u_j,u_j).

    The default value sums over ordered pairs.  ``halved=True`` scales the
    whole problem by 1/2 (the unordered-pair sum); all derivatives scale
    with it.  The halved view is the one whose least-squares multipliers
    equal sum_{j != i} h(u_j, u_i) exactly and whose gradient the ICA
    oracle estimates without bias.
    """
    forms = _forms(T, basis)
    d = forms.d
    constraints = SphereProduct.spheres(d, d)
    scale = 0.5 if halved else 1.0

    def value(w):
        return scale * forms.cross_value(_rows(w, d))

    def gradient(w):
        return (scale * 4.0 * forms.cross_vectors(_rows(w, d))).reshape(w.shape)

    def hessian(w):
        U = w.reshape(d, d)
        Ms = [forms.matrix(U[i]) for i in range(d)]
        M_tot = sum(Ms)
        H = np.zeros((d * d, d * d))
        for i in range(d):
            si = slice(i * d, (i + 1) * d)
            H[si, si] = scale * 4.0 * (M_tot - Ms[i])
            for j in range(i + 1, d):
                sj = slice(j * d, (j + 1) * d)
                block = scale * 8.0 * forms.pair_matrix(U[i], U[j])
                H[si, sj] = block
                H[sj, si] = block.T
        return H

    name = "correlation-halved" if halved else "correlation"
    return ConstrainedProblem(name, constraints, value, gradient, hessian,
                              recon_metric=lambda w: forms.recon_error(w.reshape(d, d)))


class QuadraticObjective:
    """Quadratic model f(w) = f0 + g.(w-w0) + (1/2)(w-w0).H(w-w0).

    Serves as the local second-order surrogate in the coupling analysis.
    ``stochastic_gradient(w, sample)`` treats the sample as an additive
    gradient perturbation, so a recorded perturbation stream can be
    replayed exactly.
    """

    def __init__(self, w0, g, H, f0=0.0, oracle_bound=None):
        w0 = np.asarray(w0, dtype=float)
        g = np.asarray(g, dtype=float)
        H = np.asarray(H, dtype=float)
        if H.shape != (w0.size, w0.size):
            raise ValueError(f"H has shape {H.shape}, expected {(w0.size, w0.size)}")
        if np.max(np.abs(H - H.T)) > 1e-12:
            raise ValueError("H must be symmetric")
        self.w0 = w0
        self.g = g
        self.H = H
        self.f0 = float(f0)
        self.oracle_bound = oracle_bound

    @property
    def dim(self):
        return self.w0.size

    def value(self, w):
        """f at one point (float) or at each row of a (..., n) stack."""
        delta = np.asarray(w, dtype=float) - self.w0
        hd = np.einsum("ij,...j->...i", self.H, delta)
        f = self.f0 + np.einsum("i,...i->...", self.g, delta) + 0.5 * np.einsum("...i,...i->...", delta, hd)
        return float(f) if delta.ndim == 1 else f

    def gradient(self, w):
        delta = np.asarray(w, dtype=float) - self.w0
        return self.g + np.einsum("ij,...j->...i", self.H, delta)

    def hessian(self, w):
        return self.H

    def stochastic_gradient(self, w, sample):
        if sample is None:
            return self.gradient(w)
        return self.gradient(w) + np.asarray(sample, dtype=float)


# ---------------------------------------------------------------------------
# Closed forms in the decomposition basis.  All of them assume the point is
# feasible (unit-norm blocks); they are the cross-check targets for the
# generic machinery in strictsaddle.manifold.
# ---------------------------------------------------------------------------


def maxeig_value_coords(x):
    """f(x) = -sum_i x_i^4 for coordinates x on the unit sphere."""
    x = np.asarray(x, dtype=float)
    return -float(np.sum(x**4))


def maxeig_multiplier_coords(x):
    """Least-squares multiplier on the sphere: -2 sum_i x_i^4."""
    x = np.asarray(x, dtype=float)
    return -2.0 * float(np.sum(x**4))


def _pairwise_h(U):
    """H[j, i] = h(u_j, u_i) = sum_k U_jk^2 U_ik^2."""
    sq = U**2
    return sq @ sq.T


def correlation_value_coords(U, halved=False):
    """Coordinate value sum_{i != j} h(u_i, u_j), optionally halved."""
    U = np.asarray(U, dtype=float)
    h = _pairwise_h(U)
    total = float(np.sum(h) - np.trace(h))
    return 0.5 * total if halved else total


def correlation_multipliers_coords(U):
    """Multipliers of the halved problem: lambda_i = sum_{j != i} h(u_j, u_i)."""
    U = np.asarray(U, dtype=float)
    h = _pairwise_h(U)
    return h.sum(axis=0) - np.diag(h)


def correlation_psi(U):
    """psi_ik = sum_{j != i} (U_jk^2 - h(u_j, u_i)), the halved-problem stencil."""
    U = np.asarray(U, dtype=float)
    sq = U**2
    col = sq.sum(axis=0)
    lam = correlation_multipliers_coords(U)
    return (col[None, :] - sq) - lam[:, None]


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
