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
coordinates, each on a (..., n) stack of points, and ``value_and_gradient``,
the pair from one evaluation of the point: its coordinate map X = U A^T
(and, for reconstruction, its Gram matrix) is formed once and read by
both formulas, so the pair is bit for bit the two separate calls.  A
problem is built from the decomposition basis (``basis=``) and works in
the coordinates X, never forming the d^4 tensor.  The factories still take a
first argument ``T``, which is never read.  The dense contractions the
basis forms replace are the test oracle in ``tests/dense_oracle.py``,
which builds the same problems from its own forms.
"""

import numpy as np

from .manifold import SphereProduct
from .tensor4 import (
    basis_coords,
    coords_form_matrix,
    coords_form_scalar,
    coords_form_vector,
    reconstruction_error_from_basis,
)

__all__ = [
    "ConstrainedProblem",
    "QuadraticObjective",
    "maxeig_objective",
    "reconstruction_objective",
    "correlation_objective",
    "maxeig_multiplier_coords",
    "correlation_multipliers_coords",
]


class ConstrainedProblem:
    """Equality-constrained objective with analytic derivatives.

    ``value``, ``gradient``, ``value_and_gradient`` and ``hessian`` take
    one point (n,) or a stack (..., n) and act on each row alone, so a
    row's result does not depend on the rest of the stack; ``value``
    returns a float for one point and ``hessian`` one (n, n) matrix per
    row.  Each call evaluates the point once with ``point_fn`` (the
    coordinate map and what else the formulas share), and the value and
    gradient formulas read that evaluation; ``hessian_fn`` takes the point.

    Attributes
    ----------
    name : str
    constraints : SphereProduct or None
    dim : int
        Ambient dimension (constraints.n; w0.size for the quadratic model).
    oracle_bound : float or None
        Bound Q on ||SG - grad f||, checked on a run's recorded steps (None: unchecked).
    """

    oracle_bound = None

    def __init__(self, name, constraints, point_fn, value_fn, gradient_fn, hessian_fn, recon_metric=None):
        self.name = name
        self.constraints = constraints
        self._point = point_fn
        self._value = value_fn
        self._gradient = gradient_fn
        self._hessian = hessian_fn
        self._recon = recon_metric

    @property
    def dim(self):
        return self.constraints.n

    def value(self, w):
        w = np.asarray(w, dtype=float)
        return self._f(w, self._point(w))

    def gradient(self, w):
        return self._gradient(self._point(np.asarray(w, dtype=float)))

    def value_and_gradient(self, w):
        """(value(w), gradient(w)) from one evaluation of the point."""
        w = np.asarray(w, dtype=float)
        p = self._point(w)
        return self._f(w, p), self._gradient(p)

    def hessian(self, w):
        return self._hessian(np.asarray(w, dtype=float))

    def _f(self, w, p):
        f = self._value(p)
        return float(f) if w.ndim == 1 else f

    def recon_error(self, w):
        """Normalized reconstruction error at w, or None when undefined."""
        if self._recon is None:
            return None
        return float(self._recon(np.asarray(w, dtype=float)))

    def random_feasible(self, rng):
        return self.constraints.random_point(rng)


# Value, gradient and Hessian take (..., n) stacks.  The forms come from
# tensor4; the cross terms and pair forms of the correlation problem are
# contracted here.  Every stack contraction is an einsum or a last-axis
# reduction, never BLAS matmul: gemm and gemv round a row differently, and
# gemm's rounding depends on the stack height, so only these keep each
# row's result independent of the rows around it.


def _rows(w, d):
    """View a (..., d*d) stack as (..., d, d) component rows."""
    return w.reshape(*w.shape[:-1], d, d)


def _flat(U):
    """View (..., d, d) component rows as a (..., d*d) stack."""
    return U.reshape(*U.shape[:-2], U.shape[-2] * U.shape[-1])


def _block_hessian(blocks, diag):
    """The (..., d*d, d*d) Hessian at a d x d point from its d x d blocks:
    ``blocks[..., i, j]`` off the diagonal, ``diag[..., i]`` on it."""
    d = diag.shape[-1]
    H = np.where(np.eye(d, dtype=bool)[:, :, None, None], diag[..., :, None, :, :], blocks)
    return H.swapaxes(-3, -2).reshape(*H.shape[:-4], d * d, d * d)


class _BasisForms:
    """T(.) through the decomposition basis (rows a_j), in coordinates X = U A^T.

    ``coords`` maps points to X once; every other form reads X (the cross
    terms read ``cross_weights(X)``).  ``norm2`` is ||T||_F^2 =
    sum_ij (a_i.a_j)^4 = d for orthonormal rows.
    """

    def __init__(self, basis):
        if basis is None:
            raise ValueError("objective needs the decomposition basis (basis=)")
        self.basis = basis
        self.d = basis.d
        self.norm2 = float(basis.d)

    def recon_error(self, U):
        return reconstruction_error_from_basis(self.basis, U)

    def coords(self, U):
        return basis_coords(self.basis, U)

    def quartic(self, x):
        return coords_form_scalar(x, x, x, x)

    def cubic(self, x):
        return coords_form_vector(self.basis, x)

    def matrix(self, x):
        return coords_form_matrix(self.basis, x)

    def pair_matrices(self, x):
        """T(I,u_i,u_j,I) = sum_k X_ik X_jk a_k a_k^T for every pair of rows: (..., i, j, p, q)."""
        a = self.basis.vectors
        xx = x[..., :, None, :, None] * x[..., None, :, :, None]
        return np.einsum("...ijkp,kq->...ijpq", xx * a, a)

    def cross_weights(self, x):
        """X, X^2 and S - X^2, with S_j = sum_i X_ij^2: what the cross terms read."""
        x2 = x * x
        return x, x2, np.einsum("...ij->...j", x2)[..., None, :] - x2

    def cross_value(self, weights):
        """sum_i sum_{l != i} T(u_i,u_i,u_l,u_l) = sum_ij X_ij^2 (S_j - X_ij^2)."""
        _, x2, rest = weights
        return np.einsum("...ij,...ij->...", x2, rest)

    def cross_vectors(self, weights):
        """Rows sum_{l != i} T(I,u_i,u_l,u_l) = ((S - X^2) o X) A."""
        x, _, rest = weights
        return np.einsum("...ij,jk->...ik", rest * x, self.basis.vectors)


# Each factory passes _BasisForms to the builder that follows it; the
# dense oracle of the tests passes its own forms to the same builders.


def maxeig_objective(T=None, basis=None):
    """Single-component problem: minimize -T(u,u,u,u) on the unit sphere.

    gradient -4 T(I,u,u,u); Hessian -12 T(I,I,u,u).  ``T`` is never read:
    the problem is built from ``basis``, which is required.
    """
    return _maxeig(_BasisForms(basis))


def _maxeig(forms):
    constraints = SphereProduct(1, forms.d)

    def value(x):
        return -forms.quartic(x)

    def gradient(x):
        return -4.0 * forms.cubic(x)

    def hessian(u):
        return -12.0 * forms.matrix(forms.coords(u))

    return ConstrainedProblem("maxeig", constraints, forms.coords, value, gradient, hessian)


def reconstruction_objective(T=None, basis=None):
    """Full-decomposition problem: minimize ||T - sum_i u_i^{(x)4}||_F^2.

    Expanded as ||T||^2 - 2 sum_i T(u_i,u_i,u_i,u_i) + sum_{i,l} (u_i.u_l)^4,
    so no dense d^4 residual is ever formed.  ``T`` is never read: the
    problem is built from ``basis``, which is required.
    """
    return _reconstruction(_BasisForms(basis))


def _reconstruction(forms):
    d = forms.d
    constraints = SphereProduct(d, d)

    def point(w):
        """The rows U, their coordinates and their Gram matrix."""
        U = _rows(w, d)
        return U, forms.coords(U), np.einsum("...ik,...lk->...il", U, U)

    def value(p):
        _, x, g = p
        g2 = g**2
        return forms.norm2 - 2.0 * forms.quartic(x).sum(axis=-1) + np.einsum("...il,...il->...", g2, g2)

    def gradient(p):
        U, x, g = p
        return _flat(-8.0 * forms.cubic(x) + 8.0 * np.einsum("...il,...lk->...ik", g**3, U))

    def hessian(w):
        U, x, g = point(w)
        g2 = g * g
        # block (i, j) is 8 (3 G_ij^2 u_j u_i^T + G_ij^3 I); the diagonal
        # blocks add -24 T(I,I,u_i,u_i) + 24 sum_l G_il^2 u_l u_l^T
        blocks = (np.einsum("...ij,...jp,...iq->...ijpq", 24.0 * g2, U, U)
                  + (8.0 * g2 * g)[..., None, None] * np.eye(d))
        diag = (np.einsum("...iipq->...ipq", blocks) - 24.0 * forms.matrix(x)
                + np.einsum("...il,...lp,...lq->...ipq", 24.0 * g2, U, U))
        return _block_hessian(blocks, diag)

    return ConstrainedProblem("reconstruction", constraints, point, value, gradient, hessian,
                              recon_metric=lambda w: forms.recon_error(w.reshape(d, d)))


def correlation_objective(T=None, basis=None, halved=False):
    """Cross-correlation problem: minimize sum_{i != j} T(u_i,u_i,u_j,u_j).

    The default value sums over ordered pairs.  ``halved=True`` scales the
    whole problem by 1/2 (the unordered-pair sum); all derivatives scale
    with it.  The halved view is the one whose least-squares multipliers
    equal sum_{j != i} h(u_j, u_i) exactly and whose gradient the ICA
    oracle estimates without bias.  ``T`` is never read: the problem is
    built from ``basis``, which is required.
    """
    return _correlation(_BasisForms(basis), halved)


def _correlation(forms, halved):
    d = forms.d
    constraints = SphereProduct(d, d)
    scale = 0.5 if halved else 1.0

    def point(w):
        return forms.cross_weights(forms.coords(_rows(w, d)))

    def value(weights):
        return scale * forms.cross_value(weights)

    def gradient(weights):
        return _flat(scale * 4.0 * forms.cross_vectors(weights))

    def hessian(w):
        # block (i, j) is 8 T(I,u_i,u_j,I); block (i, i) is
        # 4 sum_{l != i} T(I,I,u_l,u_l), with T(I,u_i,u_i,I) = T(I,I,u_i,u_i)
        pairs = forms.pair_matrices(forms.coords(_rows(w, d)))
        M = np.einsum("...iipq->...ipq", pairs)
        return _block_hessian(scale * 8.0 * pairs, scale * 4.0 * (M.sum(axis=-3, keepdims=True) - M))

    name = "correlation-halved" if halved else "correlation"
    return ConstrainedProblem(name, constraints, point, value, gradient, hessian,
                              recon_metric=lambda w: forms.recon_error(w.reshape(d, d)))


class QuadraticObjective(ConstrainedProblem):
    """Quadratic model f(w) = f0 + g.(w-w0) + (1/2)(w-w0).H(w-w0), unconstrained.

    Serves as the local second-order surrogate in the coupling analysis,
    where :class:`strictsaddle.sgd.RecordedPerturbations` adds a recorded
    perturbation stream to its gradient.
    """

    def __init__(self, w0, g, H, f0=0.0, oracle_bound=None):
        w0 = np.asarray(w0, dtype=float)
        g = np.asarray(g, dtype=float)
        H = np.asarray(H, dtype=float)
        f0 = float(f0)
        if H.shape != (w0.size, w0.size):
            raise ValueError(f"H has shape {H.shape}, expected {(w0.size, w0.size)}")
        if np.max(np.abs(H - H.T)) > 1e-12:
            raise ValueError("H must be symmetric")
        self.oracle_bound = oracle_bound

        def point(w):
            """w - w0 and H (w - w0), what f and its gradient read."""
            delta = w - w0
            return delta, np.einsum("ij,...j->...i", H, delta)

        def value(p):
            delta, hd = p
            return f0 + np.einsum("i,...i->...", g, delta) + 0.5 * np.einsum("...i,...i->...", delta, hd)

        super().__init__("quadratic", None, point, value, lambda p: g + p[1],
                         lambda w: np.broadcast_to(H, w.shape[:-1] + H.shape))


# ---------------------------------------------------------------------------
# Closed-form multipliers in the decomposition basis.  Both assume the point
# is feasible (unit-norm blocks); the verify battery checks the multipliers
# of strictsaddle.manifold against them.
# ---------------------------------------------------------------------------


def maxeig_multiplier_coords(x):
    """Least-squares multiplier on the sphere: -2 sum_i x_i^4."""
    x = np.asarray(x, dtype=float)
    return -2.0 * float(np.sum(x**4))


def correlation_multipliers_coords(U):
    """Multipliers of the halved problem: lambda_i = sum_{j != i} h(u_j, u_i),
    where h(u_j, u_i) = sum_k U_jk^2 U_ik^2."""
    sq = np.asarray(U, dtype=float) ** 2
    h = sq @ sq.T
    return h.sum(axis=0) - np.diag(h)
