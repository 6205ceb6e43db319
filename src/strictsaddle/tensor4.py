"""Dense symmetric 4th-order tensors and orthogonal decompositions.

A 4th-order tensor over R^d is stored as a dense (d, d, d, d) array.  The
tensors of interest here have an orthogonal decomposition

    T = sum_i a_i (x) a_i (x) a_i (x) a_i,

with orthonormal a_1..a_d, and are fully symmetric under all 24 index
permutations.  Multilinear forms T(u,v,w,z), T(I,u,u,u) and T(I,I,u,u) are
provided both as dense contractions (the oracle path) and as O(d^2)
closed forms that use the known decomposition basis.  The scalar and
vector forms also take (..., d) stacks of vectors, one result per row.
"""

from itertools import permutations

import numpy as np

__all__ = [
    "Tensor4",
    "OrthoBasis",
    "make_orthogonal_tensor",
    "form_scalar",
    "form_vector",
    "form_matrix",
    "form_pair_vector",
    "form_pair_matrix",
    "basis_coords",
    "basis_form_scalar",
    "basis_form_vector",
    "basis_form_matrix",
    "reconstruction_error",
    "reconstruction_error_from_basis",
]

ORTHO_TOL = 1e-10


class Tensor4:
    """Dense 4th-order tensor on R^d.

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

    def norm(self):
        """Frobenius norm sqrt(sum of squared entries)."""
        return float(np.linalg.norm(self.entries.ravel()))

    def is_symmetric(self, tol=1e-12):
        """True when entries are finite and invariant under all 24 index permutations."""
        base = self.entries
        if not np.isfinite(base).all():
            return False
        for perm in permutations(range(4)):
            if not np.max(np.abs(np.transpose(base, perm) - base)) <= tol:
                return False
        return True

    def __repr__(self):
        return f"Tensor4(d={self.d})"


class OrthoBasis:
    """Orthonormal component vectors a_1..a_d, stored as rows.

    Parameters
    ----------
    vectors : array_like
        (d, d) array whose i-th row is a_i.
    tol : float
        Orthonormality tolerance on input validation.

    Raises
    ------
    ValueError
        If an entry is not finite or the rows are not orthonormal to
        within ``tol``.
    """

    __slots__ = ("vectors", "d")

    def __init__(self, vectors, tol=ORTHO_TOL):
        arr = np.asarray(vectors, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square (d,d) array, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("basis has non-finite entries")
        gram = arr @ arr.T
        err = np.max(np.abs(gram - np.eye(arr.shape[0])))
        if not err <= tol:
            raise ValueError(f"rows are not orthonormal: max Gram deviation {err:.3e} > {tol:.1e}")
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

    def __repr__(self):
        return f"OrthoBasis(d={self.d})"


def make_orthogonal_tensor(basis):
    """Build T = sum_i a_i^{(x)4} from an orthonormal basis.

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


# The forms below that take (..., d) stacks contract with einsum only, never
# BLAS, so each row's result does not depend on the rows stacked with it;
# the dense ones contract through u (x) v, so no d^3 temporary is formed.


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
    """Two free slots: the matrix T(I, I, u, u)."""
    t = _as_tensor_entries(T)
    if np.shape(u) != (t.shape[0],):
        raise ValueError(f"vector has shape {np.shape(u)}, expected ({t.shape[0]},)")
    return np.einsum("pqrs,r,s->pq", t, u, u, optimize=True)


def form_pair_vector(T, a, b):
    """Mixed contraction T(I, a, b, b); equals T(I,I,b,b) @ a for symmetric T."""
    t = _as_tensor_entries(T)
    return np.einsum("pqrs,q,r,s->p", t, a, b, b, optimize=True)


def form_pair_matrix(T, a, b):
    """Mixed contraction T(I, a, b, I); symmetric for fully symmetric T."""
    t = _as_tensor_entries(T)
    return np.einsum("pqrs,q,r->ps", t, a, b, optimize=True)


def basis_coords(basis, u):
    """Coordinates x_i = a_i.u of a vector or of each row of a (..., d) stack."""
    return np.einsum("...k,jk->...j", u, basis.vectors)


def basis_form_scalar(basis, u, v, w, z):
    """Decomposition-aware T(u,v,w,z) = sum_i (a_i.u)(a_i.v)(a_i.w)(a_i.z).

    Vectors (d,) give a float; (..., d) stacks give one value per row.  An
    argument passed in several slots is mapped to coordinates once, so
    T(u,u,u,u) costs one coordinate map.
    """
    coords = {}
    for vec in (u, v, w, z):
        if id(vec) not in coords:
            coords[id(vec)] = basis_coords(basis, vec)
    xu, xv, xw, xz = (coords[id(vec)] for vec in (u, v, w, z))
    return _scalar(np.einsum("...j,...j->...", xu * xv, xw * xz))


def basis_form_vector(basis, u):
    """Decomposition-aware T(I,u,u,u) = sum_i (a_i.u)^3 a_i, per row of a (..., d) stack."""
    x = basis_coords(basis, u)
    return np.einsum("...j,jk->...k", x * x * x, basis.vectors)


def basis_form_matrix(basis, u):
    """Decomposition-aware T(I,I,u,u) = sum_i (a_i.u)^2 a_i a_i^T."""
    a = basis.vectors
    c = a @ u
    return (a.T * c**2) @ a


def reconstruction_error(T, U):
    """Normalized reconstruction error of a candidate decomposition.

    epsilon = ||T - sum_i u_i^{(x)4}||_F^2 / ||T||_F^2

    Parameters
    ----------
    T : Tensor4
    U : (d, d) array of candidate rows.

    Raises
    ------
    ValueError
        If T has zero norm (the metric is undefined).
    """
    t = _as_tensor_entries(T)
    rows = np.asarray(U, dtype=float)
    denom = float(np.sum(t * t))
    if denom == 0.0:
        raise ValueError("reconstruction error undefined for a zero tensor")
    approx = np.einsum("ip,iq,ir,is->pqrs", rows, rows, rows, rows, optimize=True)
    diff = t - approx
    return float(np.sum(diff * diff)) / denom


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

