"""Tests for the three tensor objectives and the quadratic surrogate."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strictsaddle.analysis import fd_gradient
from strictsaddle.objectives import (
    correlation_objective,
    correlation_value_coords,
    maxeig_objective,
    maxeig_value_coords,
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


# ------------------------------------------------------------------ #
# maxeig objective                                                     #
# ------------------------------------------------------------------ #


class TestMaxeig:
    def test_value_at_component(self):
        T, basis, _ = random_problemset(4, 0)
        prob = maxeig_objective(T)
        np.testing.assert_allclose(prob.value(basis.vectors[0]), -1.0, atol=1e-12)

    def test_value_at_balanced_two_support(self):
        T, basis, _ = random_problemset(4, 1)
        prob = maxeig_objective(T)
        u = (basis.vectors[0] + basis.vectors[1]) / np.sqrt(2.0)
        np.testing.assert_allclose(prob.value(u), -0.5, atol=1e-12)

    def test_gradient_matches_finite_difference(self):
        T, _, rng = random_problemset(4, 2)
        prob = maxeig_objective(T)
        for _ in range(10):
            u = prob.random_feasible(rng)
            fd = fd_gradient(prob.value, u)
            got = prob.gradient(u)
            assert np.linalg.norm(got - fd) / np.linalg.norm(fd) <= 1e-6

    def test_coordinate_closed_form(self):
        """Ambient value equals -||x||_4^4 in decomposition coordinates."""
        T, basis, rng = random_problemset(5, 3)
        prob = maxeig_objective(T)
        for _ in range(10):
            u = prob.random_feasible(rng)
            x = basis.vectors @ u
            np.testing.assert_allclose(
                prob.value(u), maxeig_value_coords(x), rtol=1e-10, atol=1e-12
            )

    def test_basis_shortcut_matches_dense(self):
        T, basis, rng = random_problemset(4, 4)
        dense = maxeig_objective(T)
        fast = maxeig_objective(T, basis=basis)
        u = dense.random_feasible(rng)
        np.testing.assert_allclose(fast.value(u), dense.value(u), rtol=1e-10)
        np.testing.assert_allclose(fast.gradient(u), dense.gradient(u), rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(fast.hessian(u), dense.hessian(u), rtol=1e-9, atol=1e-12)


# ------------------------------------------------------------------ #
# reconstruction objective                                             #
# ------------------------------------------------------------------ #


class TestReconstruction:
    def test_zero_at_ground_truth(self):
        T, basis, _ = random_problemset(3, 5)
        prob = reconstruction_objective(T)
        np.testing.assert_allclose(prob.value(basis.vectors.ravel()), 0.0, atol=1e-12)

    def test_d1_sign_flip_is_exact(self):
        T, basis, _ = random_problemset(1, 6)
        prob = reconstruction_objective(T)
        np.testing.assert_allclose(prob.value(-basis.vectors.ravel()), 0.0, atol=1e-12)

    def test_gradient_matches_finite_difference(self):
        T, _, rng = random_problemset(3, 7)
        prob = reconstruction_objective(T)
        for _ in range(5):
            w = prob.random_feasible(rng)
            fd = fd_gradient(prob.value, w)
            got = prob.gradient(w)
            assert np.linalg.norm(got - fd) / np.linalg.norm(fd) <= 1e-6

    def test_recon_metric_attached(self):
        T, basis, rng = random_problemset(3, 8)
        prob = reconstruction_objective(T)
        assert prob.recon_error(basis.vectors.ravel()) <= 1e-12
        w = prob.random_feasible(rng)
        assert prob.recon_error(w) >= 0.0


# ------------------------------------------------------------------ #
# correlation objective                                                #
# ------------------------------------------------------------------ #


class TestCorrelation:
    def test_zero_at_signed_permutation(self):
        T, basis, _ = random_problemset(3, 9)
        prob = correlation_objective(T)
        rows = basis.vectors[[1, 2, 0]] * np.array([[-1.0], [1.0], [-1.0]])
        np.testing.assert_allclose(prob.value(rows.ravel()), 0.0, atol=1e-12)

    def test_coincident_rows_d2(self):
        """u_1 = u_2 = a_1 contributes h=1 from both ordered pairs."""
        T, basis, _ = random_problemset(2, 10)
        rows = np.vstack([basis.vectors[0], basis.vectors[0]])
        np.testing.assert_allclose(
            correlation_objective(T).value(rows.ravel()), 2.0, atol=1e-12
        )
        np.testing.assert_allclose(
            correlation_objective(T, halved=True).value(rows.ravel()), 1.0, atol=1e-12
        )

    def test_nonnegative(self):
        T, _, rng = random_problemset(3, 11)
        prob = correlation_objective(T)
        for _ in range(20):
            assert prob.value(prob.random_feasible(rng)) >= 0.0

    def test_default_is_twice_halved(self):
        T, _, rng = random_problemset(3, 12)
        full = correlation_objective(T)
        half = correlation_objective(T, halved=True)
        w = full.random_feasible(rng)
        np.testing.assert_allclose(full.value(w), 2.0 * half.value(w), rtol=1e-12)

    def test_gradient_matches_finite_difference(self):
        T, _, rng = random_problemset(3, 13)
        for halved in (False, True):
            prob = correlation_objective(T, halved=halved)
            for _ in range(5):
                w = prob.random_feasible(rng)
                fd = fd_gradient(prob.value, w)
                got = prob.gradient(w)
                assert np.linalg.norm(got - fd) / max(1.0, np.linalg.norm(fd)) <= 1e-6

    def test_coordinate_closed_form(self):
        T, basis, rng = random_problemset(4, 14)
        prob = correlation_objective(T)
        for _ in range(5):
            w = prob.random_feasible(rng)
            coords = w.reshape(4, 4) @ basis.vectors.T
            np.testing.assert_allclose(
                prob.value(w), correlation_value_coords(coords), rtol=1e-10, atol=1e-12
            )

    def test_symmetry_under_row_relabeling(self):
        """Permuting rows permutes the sum over ordered pairs; value is equal."""
        T, _, rng = random_problemset(3, 15)
        prob = correlation_objective(T)
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

    def test_non_symmetric_hessian_rejected(self):
        H = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticObjective(np.zeros(2), np.zeros(2), H)

    def test_stochastic_gradient_adds_sample(self):
        obj = QuadraticObjective(np.zeros(2), np.ones(2), np.eye(2))
        w = np.array([1.0, 2.0])
        xi = np.array([0.1, -0.2])
        np.testing.assert_allclose(obj.stochastic_gradient(w, xi), obj.gradient(w) + xi)
        np.testing.assert_allclose(obj.stochastic_gradient(w, None), obj.gradient(w))

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
# a problem's inputs: the dense tensor alone, tensor and basis, or the basis alone
SOURCES = ("dense", "both", "basis")


def build(kind, source, T, basis):
    return BUILDERS[kind](None if source == "basis" else T, basis=None if source == "dense" else basis)


class TestStacks:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(BUILDERS)), st.sampled_from(SOURCES), st.integers(1, 4), st.integers(1, 8),
           st.integers(0, 2**32 - 1))
    def test_stack_rows_equal_row_calls_and_fd(self, kind, source, d, k, seed):
        """value/gradient of a (K, n) stack equal the per-row calls bit for
        bit, on the basis and the dense path, and each row's gradient
        matches finite differences at the tolerances used above.  Built
        from the basis alone, a problem equals the (T, basis) build bit
        for bit: given a basis, T is not read."""
        T, basis, rng = random_problemset(d, seed)
        prob = build(kind, source, T, basis)
        W = np.array([prob.random_feasible(rng) for _ in range(k)])
        values, grads = prob.value(W), prob.gradient(W)
        assert values.shape == (k,) and grads.shape == W.shape
        for i in range(k):
            assert prob.value(W[i]) == values[i]
            np.testing.assert_array_equal(prob.gradient(W[i]), grads[i])
            fd = fd_gradient(prob.value, W[i])
            assert np.linalg.norm(grads[i] - fd) / max(1.0, np.linalg.norm(fd)) <= 1e-6
        if source == "basis":
            both = build(kind, "both", T, basis)
            np.testing.assert_array_equal(both.value(W), values)
            np.testing.assert_array_equal(both.gradient(W), grads)
            for w in W:
                np.testing.assert_array_equal(both.hessian(w), prob.hessian(w))
                assert both.recon_error(w) == prob.recon_error(w)

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_factory_rejects_bad_inputs(self, kind):
        asymmetric = np.zeros((2,) * 4)
        asymmetric[0, 1, 0, 0] = 1.0
        with pytest.raises(ValueError, match="fully symmetric"):
            BUILDERS[kind](asymmetric)
        with pytest.raises(ValueError, match="basis"):
            BUILDERS[kind]()

    @pytest.mark.parametrize("build", [reconstruction_objective, correlation_objective])
    def test_dense_stack_memory_is_cubic_per_point(self, build):
        """On the dense path a stack of K points at d=32 needs at most 4 d^3
        floats of temporaries per point (one d^4 temporary would be 32)."""
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
        values, grads = obj.value(W), obj.gradient(W)
        for i in range(k):
            assert obj.value(W[i]) == values[i]
            np.testing.assert_array_equal(obj.gradient(W[i]), grads[i])
