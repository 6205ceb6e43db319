"""Symmetric 4th-order tensors given by their orthogonal decomposition.

The tensors of interest here have an orthogonal decomposition

    T = sum_i a_i (x) a_i (x) a_i (x) a_i,

with orthonormal a_1..a_d, and are fully symmetric under all 24 index
permutations.  The multilinear forms T(u,v,w,z), T(I,u,u,u) and
T(I,I,u,u) and the reconstruction error are closed forms in the
decomposition basis, so no d^4 array is formed; each form also takes
(..., d) stacks of vectors, one result per row.  The ``coords_form_*``
kernels take the coordinates x = A u instead, so a caller that needs
several forms at one point maps it once.  The dense contractions
they replace are kept as the test oracle in ``tests/dense_oracle.py``.
"""

from itertools import permutations

import numpy as np

__all__ = [
    "Tensor4",
    "OrthoBasis",
    "make_orthogonal_tensor",
    "basis_coords",
    "coords_form_scalar",
    "coords_form_vector",
    "coords_form_matrix",
    "basis_form_vector",
    "basis_form_matrix",
    "reconstruction_error_from_basis",
]

ORTHO_TOL = 1e-10


class Tensor4:
    """Dense 4th-order tensor on R^d.

    The library itself never builds one: every problem is built from the
    decomposition basis.  The type remains for callers that want the
    d^4 entries, such as the benchmark's set-ups and the tests' dense
    oracle.

    Parameters
    ----------
    entries : array_like
        A (d, d, d, d) array.

    Attributes
    ----------
    entries : ndarray
        The dense (d, d, d, d) entry array.  Treated as immutable.
    d : int
        Ambient dimension.
    """

    __slots__ = ("entries", "d")

    def __init__(self, entries):
        arr = np.asarray(entries, dtype=float)
        if arr.ndim != 4 or len(set(arr.shape)) != 1:
            raise ValueError(f"expected a (d,d,d,d) array, got shape {arr.shape}")
        self.entries = arr
        self.d = arr.shape[0]

    def is_symmetric(self, tol=1e-12):
        """True when entries are finite and invariant under all 24 index permutations."""
        base = self.entries
        if not np.isfinite(base).all():
            return False
        for perm in permutations(range(4)):
            if not np.max(np.abs(np.transpose(base, perm) - base)) <= tol:
                return False
        return True


class OrthoBasis:
    """Orthonormal component vectors a_1..a_d, stored as rows.

    Parameters
    ----------
    vectors : array_like
        (d, d) array whose i-th row is a_i.

    Raises
    ------
    ValueError
        If an entry is not finite or the rows are not orthonormal to
        within ORTHO_TOL.
    """

    __slots__ = ("vectors", "d")

    def __init__(self, vectors):
        arr = np.asarray(vectors, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square (d,d) array, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("basis has non-finite entries")
        gram = arr @ arr.T
        err = np.max(np.abs(gram - np.eye(arr.shape[0])))
        if not err <= ORTHO_TOL:
            raise ValueError(f"rows are not orthonormal: max Gram deviation {err:.3e} > {ORTHO_TOL:.1e}")
        self.vectors = arr
        self.d = arr.shape[0]

    @classmethod
    def random(cls, d, rng):
        """Haar-ish random orthonormal basis via QR of a Gaussian matrix."""
        q, r = np.linalg.qr(rng.standard_normal((d, d)))
        # fix the sign convention so the draw is deterministic given the rng
        q = q * np.sign(np.diag(r))
        return cls(q.T)

    @classmethod
    def standard(cls, d):
        return cls(np.eye(d))


def make_orthogonal_tensor(basis):
    """Build the dense T = sum_i a_i^{(x)4} from an orthonormal basis.

    The library itself never calls this; see :class:`Tensor4`.

    Parameters
    ----------
    basis : OrthoBasis

    Returns
    -------
    Tensor4
        Fully symmetric by construction.
    """
    a = basis.vectors
    entries = np.einsum("ip,iq,ir,is->pqrs", a, a, a, a, optimize=True)
    return Tensor4(entries)


def _scalar(s):
    return float(s) if np.ndim(s) == 0 else s


# The forms contract with einsum only, never BLAS, so each row's result
# does not depend on the rows stacked with it.


def basis_coords(basis, u):
    """Coordinates x_i = a_i.u of a vector or of each row of a (..., d) stack."""
    return np.einsum("...k,jk->...j", u, basis.vectors)


def coords_form_scalar(xu, xv, xw, xz):
    """T(u,v,w,z) = sum_i x^u_i x^v_i x^w_i x^z_i from the coordinates of the four arguments."""
    return _scalar(np.einsum("...j,...j->...", xu * xv, xw * xz))


def coords_form_vector(basis, x):
    """T(I,u,u,u) = sum_i x_i^3 a_i from the coordinates x of u."""
    return np.einsum("...j,jk->...k", x * x * x, basis.vectors)


def coords_form_matrix(basis, x):
    """T(I,I,u,u) = sum_i x_i^2 a_i a_i^T from the coordinates x of u."""
    a = basis.vectors
    return np.einsum("...jp,jq->...pq", (x * x)[..., None] * a, a)


def basis_form_vector(basis, u):
    """Decomposition-aware T(I,u,u,u) = sum_i (a_i.u)^3 a_i, per row of a (..., d) stack."""
    return coords_form_vector(basis, basis_coords(basis, u))


def basis_form_matrix(basis, u):
    """Decomposition-aware T(I,I,u,u) = sum_i (a_i.u)^2 a_i a_i^T, per row of a (..., d) stack."""
    return coords_form_matrix(basis, basis_coords(basis, u))


def reconstruction_error_from_basis(basis, U):
    """O(d^3) reconstruction error when the decomposition basis is known.

    Expands ||T - S||^2 = ||T||^2 - 2<T,S> + ||S||^2 with
    <T, u^{(x)4}> = sum_i (a_i.u)^4 and <u^{(x)4}, v^{(x)4}> = (u.v)^4,
    avoiding any dense d^4 work.
    """
    a = basis.vectors
    rows = np.asarray(U, dtype=float)
    d = a.shape[0]
    coeff = rows @ a.T  # coeff[i, j] = u_i . a_j
    cross = float(np.sum(coeff**4))
    gram = rows @ rows.T
    ss = float(np.sum(gram**4))
    return (d - 2.0 * cross + ss) / d

