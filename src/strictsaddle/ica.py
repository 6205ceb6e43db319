"""Sample generators and per-sample gradient oracles.

The ICA observation model is y = A x with A orthonormal and x uniform on
{-1, +1}^d.  Fourth-order statistics of y recover the orthogonal tensor
T = sum_i a_i^{(x)4} (a_i the columns of A) through the identity

    E[ (1/2) (Z - y^{(x)4}) ] = T,

where Z is the fixed pairing-pattern tensor with Z[i,i,i,i] = 3 and
Z[i,i,j,j] = Z[i,j,i,j] = Z[i,j,j,i] = 1 for i != j.  Z is never
materialized; every use goes through the closed form

    Z(u,u,v,v) = ||u||^2 ||v||^2 + 2 (u.v)^2.

``minibatch_gradient`` averages the per-sample gradient of the unordered
pair loss sum_{i<j} (Z - y^{(x)4})(u_i,u_i,u_j,u_j), i.e. an unbiased
estimate of the gradient of the halved correlation objective; multiply
by 2 for the ordered-pair objective.  The same convention holds for the
``simple`` rank-one sampler oracles.

Every oracle takes a stack of points and one sample (or batch) per point.
Products of per-point matrices and vectors are ``np.matmul`` or
``np.vecdot`` with the stack as the leading batch axis, which make one
BLAS call per point, the call a single point makes; so a point's
gradient is bit for bit the same alone or in a stack of any height.
"""

import numbers

import numpy as np

from .sgd import fill_steps
from .tensor4 import OrthoBasis

__all__ = [
    "IcaModel",
    "gen_ica_samples",
    "z_minus_y4_form",
    "minibatch_gradient",
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
        return cls(OrthoBasis.random(d, rng).vectors.T)

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


def minibatch_gradient(U, samples):
    """Mean per-sample gradient of each point's batch, sharing the O(d^3) terms.

    ``U`` is a (..., d, d) stack of points (rows u_i) and ``samples`` a
    (..., k, d) stack holding one batch of k observations per point; one
    observation is a batch of one.  Block i of a sample y's gradient is
    sum_{j != i} ( <u_j,u_j> u_i + 2 <u_i,u_j> u_j - <u_j,y>^2 <u_i,y> y ).
    Cost O(d^3 + k d^2) per point: the Gram terms do not depend on y.
    """
    Y = np.asarray(samples, dtype=float)
    if Y.ndim < 2 or Y.shape[-1] != U.shape[-1]:
        raise ValueError(f"samples have shape {Y.shape}, expected (..., k, {U.shape[-1]})")
    if Y.shape[-2] == 0:
        raise ValueError("empty mini-batch")
    return _gram_terms(U) + _sample_terms(U, Y)


def _gram_terms(U):
    """sum_{j != i}( <u_j,u_j> u_i + 2 <u_i,u_j> u_j ), all blocks at once."""
    gram = np.matmul(U, U.swapaxes(-1, -2))
    s = np.diagonal(gram, axis1=-2, axis2=-1).copy()
    term1 = (np.add.reduce(s, axis=-1, keepdims=True) - s)[..., None] * U
    term2 = 2.0 * (np.matmul(gram, U) - s[..., None] * U)
    return term1 + term2


def _sample_terms(U, Y):
    """Mean over rows y of -sum_{j != i} <u_j,y>^2 <u_i,y> y per block."""
    P = np.matmul(Y, U.swapaxes(-1, -2))  # P[..., s, i] = <u_i, y_s>
    P2 = P**2
    coeff = (np.add.reduce(P2, axis=-1, keepdims=True) - P2) * P
    return -np.matmul(coeff.swapaxes(-1, -2), Y) / Y.shape[-2]


def _row_products(U, x):
    """<u_i, x> for every row u_i of each point: (..., d)."""
    return np.matmul(U, x[..., None])[..., 0]


def simple_correlation_gradient(U, x):
    """Halved-correlation per-sample gradient for rank-one samples x.

    ``U`` is a (..., d, d) stack of points and ``x`` a (..., d) stack of
    samples.  Block i: 2 <u_i,x> (sum_{j != i} <u_j,x>^2) x.
    """
    p = _row_products(U, x)
    p2 = p**2
    coeff = 2.0 * p * (np.add.reduce(p2, axis=-1, keepdims=True) - p2)
    return coeff[..., :, None] * x[..., None, :]


def simple_maxeig_gradient(u, x):
    """Per-sample gradient of -<u,x>^4 on (..., d) stacks: block -4 <u,x>^3 x."""
    # float_power cubes with libm's pow, as ``**`` does for one float; ``**``
    # on an array takes a vectorised pow that rounds some cubes differently
    return (-4.0 * np.float_power(np.vecdot(u, x), 3))[..., None] * x


def simple_reconstruction_gradient(U, x):
    """Reconstruction per-sample gradient for rank-one samples x, on stacks
    as in :func:`simple_correlation_gradient`.

    Block i: -8 <u_i,x>^3 x + 8 sum_l <u_i,u_l>^3 u_l; the second term is
    exact (it does not involve the tensor).
    """
    p = _row_products(U, x)
    gram = np.matmul(U, U.swapaxes(-1, -2))
    return -8.0 * (p**3)[..., :, None] * x[..., None, :] + 8.0 * np.matmul(gram**3, U)


class IcaSampler:
    """Draws mini-batches y = Ax and evaluates their gradient oracle.

    The oracle estimates the gradient of the HALVED correlation
    objective; pair it with ``correlation_objective(..., halved=True)``.
    ``gradient(W, samples)`` takes the (K, d*d) stack of points and a
    (K, batch, d) stack of draws, one batch per row.
    """

    def __init__(self, model, batch_size=100):
        if not isinstance(batch_size, numbers.Integral):
            raise ValueError("batch_size must be an integer")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.model = model
        self.batch_size = batch_size
        self.sample_shape = (batch_size, model.d)

    def draw(self, rng):
        return gen_ica_samples(self.model, self.batch_size, rng)

    def fill(self, rng, samples, noise):
        fill_steps(self.draw, rng, samples, noise)

    def gradient(self, W, samples):
        d = self.model.d
        return minibatch_gradient(W.reshape(-1, d, d), samples).reshape(W.shape)


class SimpleSampler:
    """Draws rank-one samples x = d^{1/4} a_i and their gradient oracle.

    ``kind`` selects the per-sample loss: 'correlation' (halved
    convention), 'reconstruction', or 'maxeig'.  ``gradient(W, samples)``
    takes the (K, n) stack of points and a (K, d) stack of draws, one
    per row.
    """

    KINDS = ("correlation", "reconstruction", "maxeig")

    def __init__(self, basis, kind="correlation"):
        if kind not in self.KINDS:
            raise ValueError(f"kind must be one of {self.KINDS}")
        self.basis = basis
        self.kind = kind
        # every d^{1/4} a_i, bit for bit the product a draw of a_i would form
        self.atoms = basis.d**0.25 * basis.vectors
        self.atoms.flags.writeable = False
        self.sample_shape = (basis.d,)

    def draw(self, rng):
        """x = d^{1/4} a_i with i = ``rng.integers(d)``; E[x^{(x)4}] = T."""
        return self.atoms[rng.integers(self.basis.d)]

    def fill(self, rng, samples, noise):
        """Fill ``samples`` (h, d) and ``noise`` (h, n) or None in stream
        order, step j's sample and then its n normals: the values of h
        (``draw``, ``standard_normal(n)``) pairs, with the generator left
        where those pairs leave it.

        On a PCG64 generator the indices come from raw words, by the rule
        numpy 2.x's ``integers(d)`` follows (Lemire's method): a 32-bit
        draw u gives m = u d, drawn again while m mod 2^32 < 2^32 mod d,
        and the index is m >> 32; d = 1 draws nothing.  PCG64 serves its
        32-bit draws as the low half of a 64-bit word, then its high half,
        kept as ``has_uint32``/``uinteger`` in the bit generator; normals
        read whole words and never touch the spare half.  So when step
        j + 1's index comes from the spare half with no rejection, steps j
        and j + 1 share one word and one ``standard_normal`` call.  This
        rests on numpy's algorithm, not on its documented interface; the
        property tests in tests/test_ica.py compare it with ``integers``.
        The noise is left as drawn, a degenerate draw included: the run
        loop's refill normalizes it, a degenerate draw to zero.  Any other
        generator takes the per-step :func:`sgd.fill_steps`.
        """
        bitgen = getattr(rng, "bit_generator", None)
        if not isinstance(bitgen, np.random.PCG64):
            fill_steps(self.draw, rng, samples, noise)
            return
        d, h = self.basis.d, len(samples)
        if d == 1:
            samples[:] = self.atoms[0]
            if noise is not None:
                rng.standard_normal(out=noise)
            return
        begun = bitgen.state
        has, spare = begun["has_uint32"], begun["uinteger"]
        below = (1 << 32) % d  # a product whose low half is below this is drawn again
        raw, index, j = bitgen.random_raw, [0] * h, 0
        while j < h:
            while True:
                if has:
                    u, has = spare, 0
                else:
                    w = raw()
                    u, spare, has = w & 0xFFFFFFFF, w >> 32, 1
                m = u * d
                if m & 0xFFFFFFFF >= below:
                    break
            index[j], step = m >> 32, 1
            if has and j + 1 < h and (spare * d) & 0xFFFFFFFF >= below:
                index[j + 1], has, step = (spare * d) >> 32, 0, 2
            if noise is not None:
                rng.standard_normal(out=noise[j : j + step])
            j += step
        samples[:] = self.atoms[index]
        if (has, spare) != (begun["has_uint32"], begun["uinteger"]):
            state = bitgen.state
            state["has_uint32"], state["uinteger"] = has, spare
            bitgen.state = state

    def gradient(self, W, samples):
        if self.kind == "maxeig":
            return simple_maxeig_gradient(W, samples)
        d = self.basis.d
        oracle = simple_correlation_gradient if self.kind == "correlation" else simple_reconstruction_gradient
        return oracle(W.reshape(-1, d, d), samples).reshape(W.shape)

