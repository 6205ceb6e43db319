"""Tests for 4th-order tensors, their multilinear forms and the dense oracle.

The quadruple-loop contractions below are the ground-truth oracle for
the dense einsum forms of tests/dense_oracle.py, which in turn are the
oracle for the decomposition-basis forms of the library; the loops are
deliberately slow and obvious.
"""

import itertools

import numpy as np
import pytest

from dense_oracle import form_matrix, form_scalar, form_vector, reconstruction_error
from strictsaddle.tensor4 import (
    OrthoBasis,
    Tensor4,
    basis_coords,
    basis_form_matrix,
    basis_form_vector,
    coords_form_scalar,
    make_orthogonal_tensor,
    reconstruction_error_from_basis,
)

# ------------------------------------------------------------------ #
# Brute-force oracles                                                 #
# ------------------------------------------------------------------ #


def loop_form_scalar(T, u, v, w, z):
    """Quadruple loop over all d^4 index tuples."""
    d = T.d
    total = 0.0
    for i, j, k, l in itertools.product(range(d), repeat=4):
        total += T.entries[i, j, k, l] * u[i] * v[j] * w[k] * z[l]
    return total


def loop_form_vector(T, u):
    d = T.d
    out = np.zeros(d)
    for i, j, k, l in itertools.product(range(d), repeat=4):
        out[i] += T.entries[i, j, k, l] * u[j] * u[k] * u[l]
    return out


def loop_form_matrix(T, u):
    d = T.d
    out = np.zeros((d, d))
    for i, j, k, l in itertools.product(range(d), repeat=4):
        out[i, j] += T.entries[i, j, k, l] * u[k] * u[l]
    return out


def loop_frobenius_error(T, rows):
    d = T.d
    total = 0.0
    denom = 0.0
    for idx in itertools.product(range(d), repeat=4):
        approx = sum(
            rows[i, idx[0]] * rows[i, idx[1]] * rows[i, idx[2]] * rows[i, idx[3]]
            for i in range(d)
        )
        diff = T.entries[idx] - approx
        total += diff * diff
        denom += T.entries[idx] ** 2
    return total / denom


def random_tensor_and_basis(d, seed):
    rng = np.random.default_rng(seed)
    basis = OrthoBasis.random(d, rng)
    return make_orthogonal_tensor(basis), basis


# ------------------------------------------------------------------ #
# Construction                                                        #
# ------------------------------------------------------------------ #


class TestConstruction:
    def test_ctor_rejects_ragged_shape(self):
        with pytest.raises(ValueError, match="shape"):
            Tensor4(np.zeros((2, 2, 2, 3)))

    def test_standard_basis_tensor_is_diagonal(self):
        """Sum of e_i^{x4} has ones exactly on the (i,i,i,i) diagonal."""
        d = 4
        T = make_orthogonal_tensor(OrthoBasis.standard(d))
        expect = np.zeros((d, d, d, d))
        for i in range(d):
            expect[i, i, i, i] = 1.0
        np.testing.assert_array_equal(T.entries, expect)

    def test_d1_tensor_is_scalar_one(self):
        T = make_orthogonal_tensor(OrthoBasis(np.array([[1.0]])))
        assert T.entries.shape == (1, 1, 1, 1)
        assert T.entries[0, 0, 0, 0] == 1.0

    def test_random_basis_self_contraction(self):
        """T(a_i,a_i,a_i,a_i)=1 and T(a_i,a_i,a_j,a_j)=0 for i != j."""
        T, basis = random_tensor_and_basis(3, seed=7)
        for i in range(3):
            ai = basis.vectors[i]
            np.testing.assert_allclose(form_scalar(T, ai, ai, ai, ai), 1.0, atol=1e-12)
            for j in range(3):
                if j == i:
                    continue
                aj = basis.vectors[j]
                np.testing.assert_allclose(
                    form_scalar(T, ai, ai, aj, aj), 0.0, atol=1e-12
                )

    @pytest.mark.filterwarnings("error")
    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(ValueError):
            OrthoBasis(np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            OrthoBasis(np.array([[2.0, 0.0], [0.0, 1.0]]))
        for shape in ((2, 3), (4,), (2, 2, 2)):
            with pytest.raises(ValueError, match="expected a square"):
                OrthoBasis(np.ones(shape))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                OrthoBasis(np.full((2, 2), bad))
            with pytest.raises(ValueError, match="non-finite"):
                OrthoBasis(np.array([[1.0, 0.0], [0.0, bad]]))

    def test_symmetry_all_24_permutations(self):
        T, _ = random_tensor_and_basis(3, seed=11)
        assert T.is_symmetric(tol=1e-12)
        for perm in itertools.permutations(range(4)):
            np.testing.assert_allclose(
                np.transpose(T.entries, perm), T.entries, atol=1e-12
            )

    @pytest.mark.filterwarnings("error")
    def test_asymmetric_tensor_detected(self):
        arr = np.zeros((2, 2, 2, 2))
        arr[0, 1, 0, 0] = 1.0
        assert not Tensor4(arr).is_symmetric()
        for bad in (np.nan, np.inf):
            assert not Tensor4(np.full((2,) * 4, bad)).is_symmetric()


# ------------------------------------------------------------------ #
# Multilinear forms                                                   #
# ------------------------------------------------------------------ #


class TestForms:
    def test_scalar_form_standard_basis(self):
        T = make_orthogonal_tensor(OrthoBasis.standard(3))
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        assert form_scalar(T, e1, e1, e1, e1) == 1.0
        assert form_scalar(T, e1, e1, e2, e2) == 0.0

    def test_scalar_form_is_fourth_power_sum(self):
        """T(u,u,u,u) = sum_i x_i^4 where x_i are basis coefficients."""
        T, basis = random_tensor_and_basis(4, seed=3)
        rng = np.random.default_rng(4)
        u = rng.standard_normal(4)
        x = basis.vectors @ u
        np.testing.assert_allclose(
            form_scalar(T, u, u, u, u), np.sum(x**4), rtol=1e-12
        )

    def test_vector_form_standard_basis_fixed_point(self):
        T = make_orthogonal_tensor(OrthoBasis.standard(4))
        e1 = np.eye(4)[0]
        np.testing.assert_allclose(form_vector(T, e1), e1, atol=1e-15)

    def test_vector_form_diagonal_direction(self):
        """u = (e_1+e_2)/sqrt(2) gives coefficients (u.a_i)^3 = 2^{-3/2}."""
        T = make_orthogonal_tensor(OrthoBasis.standard(4))
        u = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
        expect = np.array([2.0**-1.5, 2.0**-1.5, 0.0, 0.0])
        np.testing.assert_allclose(form_vector(T, u), expect, atol=1e-15)

    def test_matrix_form_standard_basis_fixed_point(self):
        T = make_orthogonal_tensor(OrthoBasis.standard(3))
        e1 = np.eye(3)[0]
        expect = np.zeros((3, 3))
        expect[0, 0] = 1.0
        np.testing.assert_array_equal(form_matrix(T, e1), expect)

    def test_matrix_form_zero_vector(self):
        T, _ = random_tensor_and_basis(3, seed=5)
        np.testing.assert_array_equal(form_matrix(T, np.zeros(3)), np.zeros((3, 3)))

    def test_forms_match_brute_force(self):
        T, _ = random_tensor_and_basis(3, seed=19)
        rng = np.random.default_rng(20)
        for _ in range(5):
            u, v, w, z = rng.standard_normal((4, 3))
            np.testing.assert_allclose(
                form_scalar(T, u, v, w, z), loop_form_scalar(T, u, v, w, z), rtol=1e-12
            )
            np.testing.assert_allclose(form_vector(T, u), loop_form_vector(T, u), rtol=1e-12)
            np.testing.assert_allclose(form_matrix(T, u), loop_form_matrix(T, u), rtol=1e-12)

    def test_form_dimension_mismatch(self):
        T, _ = random_tensor_and_basis(3, seed=2)
        bad = np.ones(4)
        with pytest.raises(ValueError):
            form_scalar(T, bad, bad, bad, bad)
        with pytest.raises(ValueError):
            form_vector(T, bad)
        with pytest.raises(ValueError):
            form_matrix(T, bad)

    def test_multilinearity_in_first_slot(self):
        T, _ = random_tensor_and_basis(4, seed=23)
        rng = np.random.default_rng(24)
        for _ in range(10):
            u, up, v, w, z = rng.standard_normal((5, 4))
            a, b = rng.standard_normal(2)
            left = form_scalar(T, a * u + b * up, v, w, z)
            right = a * form_scalar(T, u, v, w, z) + b * form_scalar(T, up, v, w, z)
            np.testing.assert_allclose(left, right, rtol=1e-10, atol=1e-12)

    def test_consistency_chain(self):
        """T(u,u,u,u) = u.T(I,u,u,u) = u.T(I,I,u,u).u."""
        T, _ = random_tensor_and_basis(4, seed=29)
        rng = np.random.default_rng(30)
        for _ in range(10):
            u = rng.standard_normal(4)
            s = form_scalar(T, u, u, u, u)
            np.testing.assert_allclose(u @ form_vector(T, u), s, rtol=1e-10)
            np.testing.assert_allclose(u @ form_matrix(T, u) @ u, s, rtol=1e-10)


# ------------------------------------------------------------------ #
# Basis-coordinate fast paths                                         #
# ------------------------------------------------------------------ #


def basis_scalar(basis, u, v, w, z):
    """T(u,v,w,z) through the basis: the scalar form over each argument's coordinates."""
    return coords_form_scalar(*(basis_coords(basis, x) for x in (u, v, w, z)))


class TestBasisFastPaths:
    def test_fast_paths_match_dense(self):
        T, basis = random_tensor_and_basis(5, seed=31)
        rng = np.random.default_rng(32)
        for _ in range(5):
            u, v, w, z = rng.standard_normal((4, 5))
            np.testing.assert_allclose(
                basis_scalar(basis, u, v, w, z),
                form_scalar(T, u, v, w, z),
                rtol=1e-10,
                atol=1e-12,
            )
            np.testing.assert_allclose(
                basis_form_vector(basis, u), form_vector(T, u), rtol=1e-10, atol=1e-12
            )
            np.testing.assert_allclose(
                basis_form_matrix(basis, u), form_matrix(T, u), rtol=1e-10, atol=1e-12
            )


class TestStackedForms:
    @pytest.mark.parametrize("d", [1, 3, 6])
    def test_stack_rows_equal_row_calls(self, d):
        """The scalar and vector forms on a (K, d) stack equal the per-row
        calls bit for bit, on the dense and the basis path."""
        T, basis = random_tensor_and_basis(d, seed=41 + d)
        rng = np.random.default_rng(42)
        U, V, W, Z = rng.standard_normal((4, 7, d))
        scalars = (
            (form_scalar(T, U, V, W, Z), lambda i: form_scalar(T, U[i], V[i], W[i], Z[i])),
            (form_scalar(T, U, U, U, U), lambda i: form_scalar(T, U[i], U[i], U[i], U[i])),
            (basis_scalar(basis, U, V, W, Z), lambda i: basis_scalar(basis, U[i], V[i], W[i], Z[i])),
            (basis_scalar(basis, U, U, U, U), lambda i: basis_scalar(basis, U[i], U[i], U[i], U[i])),
        )
        for stacked, row in scalars:
            assert stacked.shape == (7,)
            for i in range(7):
                assert isinstance(row(i), float) and row(i) == stacked[i]
        for fn, arg in ((form_vector, T), (basis_form_vector, basis)):
            stacked = fn(arg, U)
            for i in range(7):
                np.testing.assert_array_equal(fn(arg, U[i]), stacked[i])

    def test_stacked_forms_match_brute_force(self):
        T, basis = random_tensor_and_basis(3, seed=43)
        U = np.random.default_rng(44).standard_normal((2, 5, 3))
        s = form_scalar(T, U, U, U, U)
        v = basis_form_vector(basis, U)
        assert s.shape == (2, 5) and v.shape == (2, 5, 3)
        for i, j in itertools.product(range(2), range(5)):
            u = U[i, j]
            np.testing.assert_allclose(s[i, j], loop_form_scalar(T, u, u, u, u), rtol=1e-12)
            np.testing.assert_allclose(v[i, j], loop_form_vector(T, u), rtol=1e-10, atol=1e-12)


# ------------------------------------------------------------------ #
# Reconstruction error                                                #
# ------------------------------------------------------------------ #


class TestReconstructionError:
    def test_exact_decomposition_is_zero(self):
        T, basis = random_tensor_and_basis(4, seed=37)
        err = reconstruction_error(T, basis.vectors)
        assert err <= 1e-12

    def test_sign_flip_invariance_exact(self):
        """Flipping row signs leaves every summand of the tensor unchanged."""
        T, basis = random_tensor_and_basis(3, seed=41)
        flipped = basis.vectors * np.array([[-1.0], [1.0], [-1.0]])
        assert reconstruction_error(T, flipped) == reconstruction_error(T, basis.vectors)

    def test_row_permutation_invariance(self):
        # Permutation reorders the float sum, so equality is near-exact
        # rather than bitwise.
        T, basis = random_tensor_and_basis(3, seed=41)
        rng = np.random.default_rng(42)
        rows = rng.standard_normal((3, 3))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        base = reconstruction_error(T, rows)
        np.testing.assert_allclose(
            reconstruction_error(T, rows[[2, 0, 1]]), base, rtol=1e-12
        )

    def test_matches_brute_force_frobenius(self):
        T = make_orthogonal_tensor(OrthoBasis.standard(2))
        rng = np.random.default_rng(43)
        rows = rng.standard_normal((2, 2))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        np.testing.assert_allclose(
            reconstruction_error(T, rows), loop_frobenius_error(T, rows), rtol=1e-12
        )

    def test_zero_tensor_rejected(self):
        with pytest.raises(ValueError, match="zero tensor"):
            reconstruction_error(Tensor4(np.zeros((2, 2, 2, 2))), np.eye(2))

    def test_basis_shortcut_matches_dense(self):
        T, basis = random_tensor_and_basis(4, seed=47)
        rng = np.random.default_rng(48)
        rows = rng.standard_normal((4, 4))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        np.testing.assert_allclose(
            reconstruction_error_from_basis(basis, rows),
            reconstruction_error(T, rows),
            rtol=1e-10,
            atol=1e-12,
        )
