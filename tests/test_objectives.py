"""Tests for the three tensor objectives and the quadratic surrogate."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle as dense
from dense_oracle import correlation_value_coords, form_matrix, maxeig_value_coords
from strictsaddle.analysis import fd_gradient
from strictsaddle.objectives import (
    correlation_objective,
    maxeig_objective,
    QuadraticObjective,
    reconstruction_objective,
)
from strictsaddle.tensor4 import OrthoBasis, make_orthogonal_tensor

# ------------------------------------------------------------------ #
# Fixtures                                                             #
# ------------------------------------------------------------------ #


def random_problemset(d, seed):
    rng = np.random.default_rng(seed)
    basis = OrthoBasis.random(d, rng)
    T = make_orthogonal_tensor(basis)
    return T, basis, rng


# The block-by-block Hessians below are the oracle for the einsum Hessians
# of the objectives and of the dense oracle's problems; they contract the
# dense tensor one point at a time.


def loop_reconstruction_hessian(T, w):
    d = T.d
    U = w.reshape(d, d)
    gram = U @ U.T
    H = np.zeros((d * d, d * d))
    for i in range(d):
        si = slice(i * d, (i + 1) * d)
        diag = -24.0 * form_matrix(T, U[i])
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


def loop_correlation_hessian(T, w, scale):
    d = T.d
    U = w.reshape(d, d)
    Ms = [form_matrix(T, U[i]) for i in range(d)]
    M_tot = sum(Ms)
    H = np.zeros((d * d, d * d))
    for i in range(d):
        si = slice(i * d, (i + 1) * d)
        H[si, si] = scale * 4.0 * (M_tot - Ms[i])
        for j in range(i + 1, d):
            sj = slice(j * d, (j + 1) * d)
            block = scale * 8.0 * np.einsum("pqrs,q,r->ps", T.entries, U[i], U[j])
            H[si, sj] = block
            H[sj, si] = block.T
    return H


# ------------------------------------------------------------------ #
# maxeig objective                                                     #
# ------------------------------------------------------------------ #


class TestMaxeig:
    def test_value_at_component(self):
        _, basis, _ = random_problemset(4, 0)
        prob = maxeig_objective(basis=basis)
        np.testing.assert_allclose(prob.value(basis.vectors[0]), -1.0, atol=1e-12)

    def test_value_at_balanced_two_support(self):
        _, basis, _ = random_problemset(4, 1)
        prob = maxeig_objective(basis=basis)
        u = (basis.vectors[0] + basis.vectors[1]) / np.sqrt(2.0)
        np.testing.assert_allclose(prob.value(u), -0.5, atol=1e-12)

    def test_gradient_matches_finite_difference(self):
        _, basis, rng = random_problemset(4, 2)
        prob = maxeig_objective(basis=basis)
        for _ in range(10):
            u = prob.random_feasible(rng)
            fd = fd_gradient(prob.value, u)
            got = prob.gradient(u)
            assert np.linalg.norm(got - fd) / np.linalg.norm(fd) <= 1e-6

    def test_coordinate_closed_form(self):
        """Ambient value equals -||x||_4^4 in decomposition coordinates."""
        _, basis, rng = random_problemset(5, 3)
        prob = maxeig_objective(basis=basis)
        for _ in range(10):
            u = prob.random_feasible(rng)
            x = basis.vectors @ u
            np.testing.assert_allclose(
                prob.value(u), maxeig_value_coords(x), rtol=1e-10, atol=1e-12
            )

    def test_basis_shortcut_matches_dense(self):
        T, basis, rng = random_problemset(4, 4)
        dense_prob = dense.maxeig_objective(T)
        fast = maxeig_objective(basis=basis)
        u = dense_prob.random_feasible(rng)
        np.testing.assert_allclose(fast.value(u), dense_prob.value(u), rtol=1e-10)
        np.testing.assert_allclose(fast.gradient(u), dense_prob.gradient(u), rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(fast.hessian(u), dense_prob.hessian(u), rtol=1e-9, atol=1e-12)


# ------------------------------------------------------------------ #
# reconstruction objective                                             #
# ------------------------------------------------------------------ #


class TestReconstruction:
    def test_zero_at_ground_truth(self):
        _, basis, _ = random_problemset(3, 5)
        prob = reconstruction_objective(basis=basis)
        np.testing.assert_allclose(prob.value(basis.vectors.ravel()), 0.0, atol=1e-12)

    def test_d1_sign_flip_is_exact(self):
        _, basis, _ = random_problemset(1, 6)
        prob = reconstruction_objective(basis=basis)
        np.testing.assert_allclose(prob.value(-basis.vectors.ravel()), 0.0, atol=1e-12)

    def test_gradient_matches_finite_difference(self):
        _, basis, rng = random_problemset(3, 7)
        prob = reconstruction_objective(basis=basis)
        for _ in range(5):
            w = prob.random_feasible(rng)
            fd = fd_gradient(prob.value, w)
            got = prob.gradient(w)
            assert np.linalg.norm(got - fd) / np.linalg.norm(fd) <= 1e-6

    def test_recon_metric_attached(self):
        _, basis, rng = random_problemset(3, 8)
        prob = reconstruction_objective(basis=basis)
        assert prob.recon_error(basis.vectors.ravel()) <= 1e-12
        w = prob.random_feasible(rng)
        assert prob.recon_error(w) >= 0.0


# ------------------------------------------------------------------ #
# correlation objective                                                #
# ------------------------------------------------------------------ #


class TestCorrelation:
    def test_zero_at_signed_permutation(self):
        _, basis, _ = random_problemset(3, 9)
        prob = correlation_objective(basis=basis, halved=True)
        rows = basis.vectors[[1, 2, 0]] * np.array([[-1.0], [1.0], [-1.0]])
        np.testing.assert_allclose(prob.value(rows.ravel()), 0.0, atol=1e-12)

    def test_coincident_rows_d2(self):
        """u_1 = u_2 = a_1 contributes h=1 from both ordered pairs: twice
        the halved value is 2."""
        _, basis, _ = random_problemset(2, 10)
        rows = np.vstack([basis.vectors[0], basis.vectors[0]])
        half = correlation_objective(basis=basis, halved=True).value(rows.ravel())
        np.testing.assert_allclose(2.0 * half, 2.0, atol=1e-12)

    def test_nonnegative(self):
        _, basis, rng = random_problemset(3, 11)
        prob = correlation_objective(basis=basis, halved=True)
        for _ in range(20):
            assert prob.value(prob.random_feasible(rng)) >= 0.0

    def test_default_is_twice_halved(self):
        _, basis, rng = random_problemset(3, 12)
        full = correlation_objective(basis=basis)
        half = correlation_objective(basis=basis, halved=True)
        w = full.random_feasible(rng)
        np.testing.assert_allclose(full.value(w), 2.0 * half.value(w), rtol=1e-12)

    def test_gradient_matches_finite_difference(self):
        _, basis, rng = random_problemset(3, 13)
        prob = correlation_objective(basis=basis, halved=True)
        for _ in range(10):
            w = prob.random_feasible(rng)
            fd = fd_gradient(prob.value, w)
            got = prob.gradient(w)
            assert np.linalg.norm(got - fd) / max(1.0, np.linalg.norm(fd)) <= 1e-6

    def test_coordinate_closed_form(self):
        """Twice the halved value is the ordered-pair sum in coordinates."""
        _, basis, rng = random_problemset(4, 14)
        prob = correlation_objective(basis=basis, halved=True)
        for _ in range(5):
            w = prob.random_feasible(rng)
            coords = w.reshape(4, 4) @ basis.vectors.T
            np.testing.assert_allclose(
                2.0 * prob.value(w), correlation_value_coords(coords), rtol=1e-10, atol=1e-12
            )

    def test_symmetry_under_row_relabeling(self):
        """Permuting rows permutes the sum over ordered pairs; value is equal."""
        _, basis, rng = random_problemset(3, 15)
        prob = correlation_objective(basis=basis, halved=True)
        rows = rng.standard_normal((3, 3))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        signs = np.array([[-1.0], [1.0], [-1.0]])
        base = prob.value(rows.ravel())
        np.testing.assert_allclose(
            prob.value((signs * rows[[2, 0, 1]]).ravel()), base, rtol=1e-12
        )


# ------------------------------------------------------------------ #
# quadratic surrogate                                                  #
# ------------------------------------------------------------------ #


class TestQuadratic:
    def test_gradient_at_center(self):
        obj = QuadraticObjective(np.zeros(3), np.zeros(3), np.eye(3))
        np.testing.assert_array_equal(obj.gradient(np.zeros(3)), np.zeros(3))

    def test_indefinite_gradient(self):
        g = np.array([0.5, -0.5])
        obj = QuadraticObjective(np.zeros(2), g, np.diag([1.0, -1.0]))
        np.testing.assert_allclose(obj.gradient(np.array([1.0, 1.0])), g + np.array([1.0, -1.0]))

    @pytest.mark.parametrize("shape", [(3, 3), (2,), (2, 3), (1, 2, 2)])
    def test_hessian_of_the_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="H has shape"):
            QuadraticObjective(np.zeros(2), np.zeros(2), np.zeros(shape))

    def test_non_symmetric_hessian_rejected(self):
        H = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticObjective(np.zeros(2), np.zeros(2), H)

    def test_value_closed_form(self):
        rng = np.random.default_rng(16)
        w0 = rng.standard_normal(4)
        g = rng.standard_normal(4)
        A = rng.standard_normal((4, 4))
        H = A + A.T
        obj = QuadraticObjective(w0, g, H, f0=2.5)
        w = rng.standard_normal(4)
        d = w - w0
        np.testing.assert_allclose(obj.value(w), 2.5 + g @ d + 0.5 * d @ H @ d, rtol=1e-12)


# ------------------------------------------------------------------ #
# Stacks of points                                                     #
# ------------------------------------------------------------------ #

BUILDERS = {
    "maxeig": maxeig_objective,
    "reconstruction": reconstruction_objective,
    "correlation": lambda T=None, basis=None: correlation_objective(T, basis=basis, halved=True),
}
# the same problems built from the dense tensor by the dense oracle
DENSE_BUILDERS = {
    "maxeig": dense.maxeig_objective,
    "reconstruction": dense.reconstruction_objective,
    "correlation": lambda T: dense.correlation_objective(T, halved=True),
}
# a problem's inputs: the dense tensor (the oracle) or the basis (the library)
SOURCES = ("dense", "basis")


def build(kind, source, T, basis):
    return DENSE_BUILDERS[kind](T) if source == "dense" else BUILDERS[kind](basis=basis)


# BUILDERS' correlation problem is the halved one
LOOP_HESSIANS = {
    "reconstruction": loop_reconstruction_hessian,
    "correlation": lambda T, w: loop_correlation_hessian(T, w, 0.5),
}


class TestStacks:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(BUILDERS)), st.sampled_from(SOURCES), st.integers(1, 4), st.integers(1, 8),
           st.integers(0, 2**32 - 1))
    def test_stack_rows_equal_row_calls_and_fd(self, kind, source, d, k, seed):
        """value/gradient/hessian of a (K, n) stack equal the per-row calls
        bit for bit, on the basis path and the dense oracle's, and each
        row's gradient matches finite differences at the tolerances used
        above."""
        T, basis, rng = random_problemset(d, seed)
        prob = build(kind, source, T, basis)
        W = np.array([prob.random_feasible(rng) for _ in range(k)])
        values, grads, hessians = prob.value(W), prob.gradient(W), prob.hessian(W)
        assert values.shape == (k,) and grads.shape == W.shape and hessians.shape == (k, prob.dim, prob.dim)
        for i in range(k):
            assert prob.value(W[i]) == values[i]
            np.testing.assert_array_equal(prob.gradient(W[i]), grads[i])
            np.testing.assert_array_equal(prob.hessian(W[i]), hessians[i])
            fd = fd_gradient(prob.value, W[i])
            assert np.linalg.norm(grads[i] - fd) / max(1.0, np.linalg.norm(fd)) <= 1e-6

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(BUILDERS)), st.integers(1, 5), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_basis_path_matches_dense_oracle(self, kind, d, k, seed):
        """On a (K, n) stack the basis-built problem's value, gradient,
        Hessian and reconstruction error match the dense oracle's at the
        tolerance of TestBasisFastPaths (rtol 1e-10, atol 1e-12)."""
        T, basis, rng = random_problemset(d, seed)
        fast, slow = build(kind, "basis", T, basis), build(kind, "dense", T, basis)
        W = np.array([fast.random_feasible(rng) for _ in range(k)])
        for method in ("value", "gradient", "hessian"):
            np.testing.assert_allclose(getattr(fast, method)(W), getattr(slow, method)(W), rtol=1e-10, atol=1e-12)
        for w in W:
            if kind == "maxeig":
                assert fast.recon_error(w) is None and slow.recon_error(w) is None
            else:
                np.testing.assert_allclose(fast.recon_error(w), slow.recon_error(w), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("kind", sorted(LOOP_HESSIANS))
    def test_hessian_matches_block_loop(self, kind, source):
        """The einsum Hessians equal the block-by-block loop to 1e-12 relative."""
        for d in range(1, 6):
            T, basis, rng = random_problemset(d, 40 + d)
            prob = build(kind, source, T, basis)
            for _ in range(3):
                w = prob.random_feasible(rng)
                want = LOOP_HESSIANS[kind](T, w)
                assert np.linalg.norm(prob.hessian(w) - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_factory_rejects_bad_inputs(self, kind):
        """A factory needs the basis, even given the dense tensor."""
        T, _, _ = random_problemset(2, 17)
        with pytest.raises(ValueError, match="basis"):
            BUILDERS[kind](T)
        with pytest.raises(ValueError, match="basis"):
            BUILDERS[kind]()

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_first_argument_is_never_read(self, kind):
        """Given a basis, a factory builds the same problem bit for bit
        whatever its first argument is."""
        _, basis, rng = random_problemset(3, 18)
        prob, unread = BUILDERS[kind](basis=basis), BUILDERS[kind](object(), basis=basis)
        W = np.array([prob.random_feasible(rng) for _ in range(4)])
        for method in ("value", "gradient", "hessian"):
            np.testing.assert_array_equal(getattr(unread, method)(W), getattr(prob, method)(W))
        for w in W:
            assert unread.recon_error(w) == prob.recon_error(w)

    @pytest.mark.parametrize("kind", sorted(DENSE_BUILDERS))
    def test_dense_oracle_rejects_asymmetric_tensor(self, kind):
        asymmetric = np.zeros((2,) * 4)
        asymmetric[0, 1, 0, 0] = 1.0
        with pytest.raises(ValueError, match="fully symmetric"):
            DENSE_BUILDERS[kind](asymmetric)

    @pytest.mark.parametrize("build", [dense.reconstruction_objective, dense.correlation_objective])
    def test_dense_stack_memory_is_cubic_per_point(self, build):
        """On the dense oracle's path a stack of K points at d=32 needs at
        most 4 d^3 floats of temporaries per point (one d^4 temporary would
        be 32)."""
        d, k = 32, 4
        T, _, rng = random_problemset(d, 5)
        prob = build(T)
        W = np.array([prob.random_feasible(rng) for _ in range(k)])
        tracemalloc.start()
        try:
            values, grads = prob.value(W), prob.gradient(W)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.shape == (k,) and grads.shape == W.shape
        assert peak <= 4 * k * d**3 * 8

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_quadratic_stack_rows_equal_row_calls(self, n, k, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n))
        obj = QuadraticObjective(rng.standard_normal(n), rng.standard_normal(n), A + A.T, f0=0.5)
        W = rng.standard_normal((k, n))
        values, grads, hessians = obj.value(W), obj.gradient(W), obj.hessian(W)
        assert hessians.shape == (k, n, n)
        for i in range(k):
            assert obj.value(W[i]) == values[i]
            np.testing.assert_array_equal(obj.gradient(W[i]), grads[i])
            np.testing.assert_array_equal(obj.hessian(W[i]), hessians[i])


# every problem the library builds, the ordered-pair correlation included
PAIR_BUILDERS = {
    "maxeig": maxeig_objective,
    "reconstruction": reconstruction_objective,
    "correlation": correlation_objective,
    "correlation-halved": lambda basis: correlation_objective(basis=basis, halved=True),
}


class TestValueAndGradient:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([*sorted(PAIR_BUILDERS), "quadratic"]), st.integers(1, 5), st.integers(1, 8),
           st.integers(0, 2**32 - 1))
    def test_pair_is_the_separate_calls(self, kind, d, k, seed):
        """value_and_gradient equals (value, gradient) bit for bit, on a
        (K, n) stack and on one point, where f is a float as from value."""
        rng = np.random.default_rng(seed)
        if kind == "quadratic":
            A = rng.standard_normal((d, d))
            prob = QuadraticObjective(rng.standard_normal(d), rng.standard_normal(d), A + A.T, f0=0.5)
            W = rng.standard_normal((k, d))
        else:
            prob = PAIR_BUILDERS[kind](basis=OrthoBasis.random(d, rng))
            W = np.array([prob.random_feasible(rng) for _ in range(k)])
        for w in (W, W[0]):
            f, G = prob.value_and_gradient(w)
            assert np.array_equal(f, prob.value(w)) and np.array_equal(G, prob.gradient(w))
        assert isinstance(prob.value_and_gradient(W[0])[0], float)
