"""Sample generators and per-sample gradient oracles.

The ICA observation model is y = A x with A orthonormal and x uniform on
{-1, +1}^d.  Fourth-order statistics of y recover the orthogonal tensor
T = sum_i a_i^{(x)4} (a_i the columns of A) through the identity

    E[ (1/2) (Z - y^{(x)4}) ] = T,

where Z is the fixed pairing-pattern tensor with Z[i,i,i,i] = 3 and
Z[i,i,j,j] = Z[i,j,i,j] = Z[i,j,j,i] = 1 for i != j.  Z is never
materialized; every use goes through the closed form

    Z(u,u,v,v) = ||u||^2 ||v||^2 + 2 (u.v)^2.

``ica_stochastic_gradient`` is the per-sample gradient of the unordered
pair loss sum_{i<j} (Z - y^{(x)4})(u_i,u_i,u_j,u_j), i.e. an unbiased
estimate of the gradient of the halved correlation objective; multiply
by 2 for the ordered-pair objective.  The same convention holds for the
``simple`` rank-one sampler oracles.
"""

import functools

import numpy as np

from .tensor4 import OrthoBasis

__all__ = [
    "IcaModel",
    "gen_ica_samples",
    "z_minus_y4_form",
    "ica_stochastic_gradient",
    "minibatch_gradient",
    "gen_simple_sample",
    "simple_correlation_gradient",
    "simple_maxeig_gradient",
    "simple_reconstruction_gradient",
    "IcaSampler",
    "SimpleSampler",
]


class IcaModel:
    """Orthonormal mixing model y = A x, sources x uniform on {-1,+1}^d.

    The tensor components are the columns of A.
    """

    __slots__ = ("A", "d")

    def __init__(self, A):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"mixing matrix must be square, got {A.shape}")
        if not np.isfinite(A).all():
            raise ValueError("mixing matrix has non-finite entries")
        err = np.max(np.abs(A @ A.T - np.eye(A.shape[0])))
        if not err <= 1e-12:
            raise ValueError(f"mixing matrix not orthonormal: max deviation {err:.3e}")
        self.A = A
        self.d = A.shape[0]

    @classmethod
    def random(cls, d, rng):
        q, r = np.linalg.qr(rng.standard_normal((d, d)))
        return cls(q * np.sign(np.diag(r)))

    def component_basis(self):
        """The columns of A as an OrthoBasis (rows of the returned basis)."""
        return OrthoBasis(self.A.T)


def gen_ica_samples(model, k, rng):
    """(k, d) array of independent observations."""
    X = rng.integers(0, 2, size=(k, model.d)) * 2.0 - 1.0
    return X @ model.A.T


def z_minus_y4_form(y, u_i, u_j):
    """(1/2)(Z - y^{(x)4})(u_i, u_i, u_j, u_j), without any d^4 work."""
    y = np.asarray(y, dtype=float)
    u = np.asarray(u_i, dtype=float)
    v = np.asarray(u_j, dtype=float)
    z_part = float(u @ u) * float(v @ v) + 2.0 * float(u @ v) ** 2
    y_part = float(u @ y) ** 2 * float(v @ y) ** 2
    return 0.5 * (z_part - y_part)


def _rows_or_flat(oracle):
    """Let an oracle on (d, d) rows U also take a flat length-d^2 vector,
    returning its blocks flat in that case."""

    @functools.wraps(oracle)
    def wrapper(U, *args):
        U = np.asarray(U, dtype=float)
        if U.ndim != 1:
            return oracle(U, *args)
        d = round(U.size**0.5)
        return oracle(U.reshape(d, d), *args).reshape(-1)

    return wrapper


@_rows_or_flat
def ica_stochastic_gradient(U, y):
    """Per-sample gradient blocks for one observation y.

    Block i is sum_{j != i} ( <u_j,u_j> u_i + 2 <u_i,u_j> u_j
    - <u_j,y>^2 <u_i,y> y ).  Cost O(d^3) for a single sample; the
    Gram-matrix terms do not depend on y and are shared by a batch.

    Parameters
    ----------
    U : (d, d) array (rows u_i) or flat length-d^2 vector.
    y : (d,) observation.

    Returns
    -------
    (d, d) array of gradient blocks (row i is the block for u_i).
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (U.shape[1],):
        raise ValueError(f"sample has shape {y.shape}, expected ({U.shape[1]},)")
    return _gram_terms(U) + _sample_terms(U, y.reshape(1, -1))


def _gram_terms(U):
    """sum_{j != i}( <u_j,u_j> u_i + 2 <u_i,u_j> u_j ), all blocks at once."""
    gram = U @ U.T
    s = np.diag(gram).copy()
    term1 = (s.sum() - s)[:, None] * U
    term2 = 2.0 * (gram @ U - s[:, None] * U)
    return term1 + term2


def _sample_terms(U, Y):
    """Mean over rows y of -sum_{j != i} <u_j,y>^2 <u_i,y> y per block."""
    P = Y @ U.T  # P[s, i] = <u_i, y_s>
    coeff = ((P**2).sum(axis=1, keepdims=True) - P**2) * P
    return -(coeff.T @ Y) / Y.shape[0]


@_rows_or_flat
def minibatch_gradient(U, samples):
    """Mean per-sample gradient over a batch, sharing the O(d^3) terms.

    Cost O(d^3 + k d^2) for k samples.  Equals the arithmetic mean of
    :func:`ica_stochastic_gradient` over the batch.
    """
    Y = np.asarray(samples, dtype=float)
    if Y.ndim == 1:
        Y = Y.reshape(1, -1)
    if Y.shape[0] == 0:
        raise ValueError("empty mini-batch")
    if Y.shape[1] != U.shape[1]:
        raise ValueError(f"samples have dimension {Y.shape[1]}, expected {U.shape[1]}")
    return _gram_terms(U) + _sample_terms(U, Y)


def gen_simple_sample(basis, rng):
    """Rank-one sampler: x = d^{1/4} a_i with i uniform; E[x^{(x)4}] = T."""
    d = basis.d
    i = rng.integers(d)
    return d**0.25 * basis.vectors[i]


@_rows_or_flat
def simple_correlation_gradient(U, x):
    """Halved-correlation per-sample gradient for a rank-one sample x.

    Block i: 2 <u_i,x> (sum_{j != i} <u_j,x>^2) x.
    """
    x = np.asarray(x, dtype=float)
    p = U @ x
    coeff = 2.0 * p * (np.sum(p**2) - p**2)
    return coeff[:, None] * x[None, :]


def simple_maxeig_gradient(u, x):
    """Per-sample gradient of -<u,x>^4: block -4 <u,x>^3 x."""
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    return -4.0 * float(u @ x) ** 3 * x


@_rows_or_flat
def simple_reconstruction_gradient(U, x):
    """Reconstruction per-sample gradient for a rank-one sample x.

    Block i: -8 <u_i,x>^3 x + 8 sum_l <u_i,u_l>^3 u_l; the second term is
    exact (it does not involve the tensor).
    """
    x = np.asarray(x, dtype=float)
    p = U @ x
    gram = U @ U.T
    return -8.0 * (p**3)[:, None] * x[None, :] + 8.0 * (gram**3) @ U


class IcaSampler:
    """Draws mini-batches y = Ax and evaluates their gradient oracle.

    The oracle estimates the gradient of the HALVED correlation
    objective; pair it with ``correlation_objective(..., halved=True)``.
    """

    def __init__(self, model, batch_size=100):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.model = model
        self.batch_size = batch_size

    def draw(self, rng):
        return gen_ica_samples(self.model, self.batch_size, rng)

    def gradient(self, w, samples):
        return minibatch_gradient(w, samples)


class SimpleSampler:
    """Draws rank-one samples x = d^{1/4} a_i and their gradient oracle.

    ``kind`` selects the per-sample loss: 'correlation' (halved
    convention), 'reconstruction', or 'maxeig'.
    """

    KINDS = ("correlation", "reconstruction", "maxeig")

    def __init__(self, basis, kind="correlation"):
        if kind not in self.KINDS:
            raise ValueError(f"kind must be one of {self.KINDS}")
        self.basis = basis
        self.kind = kind

    def draw(self, rng):
        return gen_simple_sample(self.basis, rng)

    def gradient(self, w, x):
        if self.kind == "correlation":
            return simple_correlation_gradient(w, x)
        if self.kind == "reconstruction":
            return simple_reconstruction_gradient(w, x)
        return simple_maxeig_gradient(w, x)

