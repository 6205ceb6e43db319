"""Tests for sphere-product constraints, multipliers, and tangent geometry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import correlation_lagrangian_hessian_coords, correlation_psi
from strictsaddle.analysis import fd_hessian
from strictsaddle.manifold import (
    CQ_SIGMA_MIN,
    SphereProduct,
    lagrange_multipliers,
    lagrangian_hessian,
    min_tangent_eig,
    tangent_basis,
    tangent_gradient,
)
from strictsaddle.objectives import (
    correlation_multipliers_coords,
    correlation_objective,
    maxeig_multiplier_coords,
    maxeig_objective,
)
from strictsaddle.tensor4 import OrthoBasis


def maxeig_problem(d, seed=None):
    """Standard-basis tensor so ambient coordinates equal basis coordinates."""
    if seed is None:
        basis = OrthoBasis.standard(d)
    else:
        basis = OrthoBasis.random(d, np.random.default_rng(seed))
    return maxeig_objective(basis=basis), basis


def correlation_problem(d, seed=None):
    if seed is None:
        basis = OrthoBasis.standard(d)
    else:
        basis = OrthoBasis.random(d, np.random.default_rng(seed))
    return correlation_objective(basis=basis, halved=True), basis


# ------------------------------------------------------------------ #
# Projection                                                           #
# ------------------------------------------------------------------ #


class TestProjection:
    def test_single_sphere(self):
        cs = SphereProduct(1, 3)
        np.testing.assert_array_equal(
            cs.project(np.array([2.0, 0.0, 0.0])), np.array([1.0, 0.0, 0.0])
        )

    def test_two_blocks(self):
        cs = SphereProduct(2, 2)
        got = cs.project(np.array([0.0, 3.0, -2.0, 0.0]))
        np.testing.assert_array_equal(got, np.array([0.0, 1.0, -1.0, 0.0]))

    def test_minimizes_distance_over_random_candidates(self):
        cs = SphereProduct(2, 3)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(6)
        best = cs.project(v)
        base = np.linalg.norm(best - v)
        candidates = rng.standard_normal((100_000, 6))
        for cand in candidates:
            w = cs.project(cand)
            assert np.linalg.norm(w - v) >= base - 1e-12

    def test_zero_block_rejected(self):
        cs = SphereProduct(2, 2)
        with pytest.raises(ValueError, match=r"block \[2:4\]"):
            cs.project(np.array([1.0, 0.0, 0.0, 0.0]))

    @pytest.mark.parametrize("m, k", [(0, 3), (3, 0), (-1, 3), (3, -2), (2.5, 3), (3, 2.0), (None, 3), ("3", 3)])
    def test_invalid_shape_rejected(self, m, k):
        with pytest.raises(ValueError, match="sphere product"):
            SphereProduct(m, k)

    def test_shape(self):
        cs = SphereProduct(np.int64(3), 4)
        assert (cs.m, cs.k, cs.n) == (3, 4, 12)
        assert repr(cs) == "SphereProduct(m=3, k=4)"

    def test_feasibility_and_constraints(self):
        cs = SphereProduct(2, 3)
        rng = np.random.default_rng(1)
        w = cs.random_point(rng)
        assert cs.feasible(w)
        np.testing.assert_allclose(cs.c(w), np.zeros(2), atol=1e-12)
        assert not cs.feasible(2.0 * w)


# ------------------------------------------------------------------ #
# Lagrange multipliers                                                 #
# ------------------------------------------------------------------ #


class TestMultipliers:
    def test_maxeig_at_component(self):
        prob, _ = maxeig_problem(4)
        lam = lagrange_multipliers(prob, np.eye(4)[0])
        np.testing.assert_allclose(lam, np.array([-2.0]), atol=1e-12)

    def test_correlation_signed_permutation(self):
        prob, basis = correlation_problem(3)
        rows = basis.vectors[[1, 0, 2]] * np.array([[-1.0], [1.0], [1.0]])
        lam = lagrange_multipliers(prob, rows.ravel())
        np.testing.assert_allclose(lam, np.zeros(3), atol=1e-12)

    def test_generic_solve_matches_closed_forms(self):
        """Least-squares multipliers agree with the per-problem formulas."""
        rng = np.random.default_rng(2)
        prob, basis = maxeig_problem(5, seed=11)
        for _ in range(20):
            u = prob.random_feasible(rng)
            lam = lagrange_multipliers(prob, u)
            want = maxeig_multiplier_coords(basis.vectors @ u)
            assert abs(lam[0] - want) <= 1e-8
        cprob, cbasis = correlation_problem(4, seed=12)
        for _ in range(20):
            w = cprob.random_feasible(rng)
            lam = lagrange_multipliers(cprob, w)
            want = correlation_multipliers_coords(w.reshape(4, 4) @ cbasis.vectors.T)
            assert np.max(np.abs(lam - want)) <= 1e-8

    def test_rank_deficient_rejected(self):
        prob, _ = maxeig_problem(3)
        with pytest.raises(ValueError):
            lagrange_multipliers(prob, np.zeros(3))


# ------------------------------------------------------------------ #
# Tangent gradient                                                     #
# ------------------------------------------------------------------ #


class TestTangentGradient:
    def test_zero_at_component(self):
        prob, _ = maxeig_problem(4)
        np.testing.assert_allclose(
            tangent_gradient(prob, np.eye(4)[0]), np.zeros(4), atol=1e-12
        )

    def test_zero_at_balanced_saddle(self):
        prob, _ = maxeig_problem(4)
        u = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
        np.testing.assert_allclose(tangent_gradient(prob, u), np.zeros(4), atol=1e-12)

    def test_correlation_entries_are_2_u_psi(self):
        """Blockwise chi equals 2 U_ik psi_ik in decomposition coordinates."""
        prob, basis = correlation_problem(3, seed=13)
        rng = np.random.default_rng(4)
        for _ in range(10):
            w = prob.random_feasible(rng)
            got = tangent_gradient(prob, w)
            coords = w.reshape(3, 3) @ basis.vectors.T
            want_coords = 2.0 * coords * correlation_psi(coords)
            want = (want_coords @ basis.vectors).ravel()
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_equals_tangent_projection_of_gradient(self):
        prob, _ = correlation_problem(3, seed=14)
        rng = np.random.default_rng(5)
        for _ in range(10):
            w = prob.random_feasible(rng)
            cs = prob.constraints
            want = cs.tangent_project(w, prob.gradient(w))
            got = tangent_gradient(prob, w)
            assert np.linalg.norm(got - want) <= 1e-9
            # chi itself lies in the tangent space
            assert np.linalg.norm(cs.normal_project(w, got)) <= 1e-9


# ------------------------------------------------------------------ #
# Lagrangian Hessian                                                   #
# ------------------------------------------------------------------ #


class TestLagrangianHessian:
    def test_maxeig_at_component(self):
        prob, _ = maxeig_problem(5)
        M = lagrangian_hessian(prob, np.eye(5)[0])
        np.testing.assert_allclose(M, np.diag([-8.0, 4.0, 4.0, 4.0, 4.0]), atol=1e-12)

    def test_maxeig_general_closed_form(self):
        """M = -12 diag(x^2) + 4 ||x||_4^4 I in decomposition coordinates."""
        prob, _ = maxeig_problem(4)
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = prob.random_feasible(rng)
            M = lagrangian_hessian(prob, x)
            want = -12.0 * np.diag(x**2) + 4.0 * np.sum(x**4) * np.eye(4)
            np.testing.assert_allclose(M, want, rtol=1e-10, atol=1e-10)

    def test_correlation_block_structure(self):
        prob, _ = correlation_problem(3)
        rng = np.random.default_rng(7)
        w = prob.random_feasible(rng)
        U = w.reshape(3, 3)
        M = lagrangian_hessian(prob, w)
        want = correlation_lagrangian_hessian_coords(U)
        np.testing.assert_allclose(M, want, rtol=1e-10, atol=1e-10)
        psi = correlation_psi(U)
        d = 3
        for i in range(d):
            for ip in range(d):
                for k in range(d):
                    for kp in range(d):
                        entry = M[i * d + k, ip * d + kp]
                        if k != kp:
                            assert entry == 0.0
                        elif i == ip:
                            np.testing.assert_allclose(entry, 2.0 * psi[i, k], rtol=1e-12)
                        else:
                            np.testing.assert_allclose(
                                entry, 4.0 * U[ip, k] * U[i, k], rtol=1e-12
                            )

    def test_symmetric(self):
        prob, _ = correlation_problem(3, seed=15)
        rng = np.random.default_rng(8)
        w = prob.random_feasible(rng)
        M = lagrangian_hessian(prob, w)
        assert np.max(np.abs(M - M.T)) <= 1e-12

    def test_matches_fd_hessian_of_fixed_multiplier_lagrangian(self):
        """With multipliers frozen at w0, the FD Hessian of the Lagrangian
        matches the analytic matrix at w0."""
        prob, _ = maxeig_problem(4, seed=16)
        rng = np.random.default_rng(9)
        w0 = prob.random_feasible(rng)
        lam = lagrange_multipliers(prob, w0)

        def lagrangian(W):
            return prob.value(W) - np.einsum("...i,i->...", prob.constraints.c(W), lam)

        M = lagrangian_hessian(prob, w0)
        fd = fd_hessian(lagrangian, w0)
        assert np.linalg.norm(M - fd) / np.linalg.norm(M) <= 1e-4


# ------------------------------------------------------------------ #
# Tangent frame                                                        #
# ------------------------------------------------------------------ #


class TestTangentFrame:
    def test_single_sphere_at_pole(self):
        cs = SphereProduct(1, 4)
        B = tangent_basis(cs, np.eye(4)[0])
        assert B.shape == (4, 3)
        # tangent vectors have no e_1 component
        np.testing.assert_allclose(B[0, :], np.zeros(3), atol=1e-12)

    def test_tangent_orthogonal_to_constraint_gradients(self):
        cs = SphereProduct(3, 3)
        rng = np.random.default_rng(10)
        w = cs.random_point(rng)
        C = cs.constraint_gradients(w)
        assert np.max(np.abs(tangent_basis(cs, w).T @ C)) <= 1e-12

    def test_projector_algebra(self):
        """The tangent basis and the unit constraint gradients complete each other."""
        cs = SphereProduct(2, 4)
        rng = np.random.default_rng(11)
        w = cs.random_point(rng)
        B, Q = tangent_basis(cs, w), 0.5 * cs.constraint_gradients(w)
        P, N = B @ B.T, Q @ Q.T
        np.testing.assert_allclose(P + N, np.eye(8), atol=1e-12)
        np.testing.assert_allclose(P @ P, P, atol=1e-12)
        np.testing.assert_allclose(N @ N, N, atol=1e-12)
        np.testing.assert_allclose(P, P.T, atol=1e-12)
        for _ in range(10):
            v = rng.standard_normal(8)
            lhs = np.linalg.norm(v) ** 2
            rhs = np.linalg.norm(P @ v) ** 2 + np.linalg.norm(N @ v) ** 2
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_blockwise_projection_identity(self):
        """For sphere products P_T v removes each block's radial component."""
        cs = SphereProduct(2, 3)
        rng = np.random.default_rng(12)
        w = cs.random_point(rng)
        v = rng.standard_normal(6)
        B = tangent_basis(cs, w)
        got = B @ (B.T @ v)
        want = v.copy()
        for b in block_slices(cs):
            want[b] -= (w[b] @ v[b]) * w[b]
        np.testing.assert_allclose(got, want, atol=1e-12)


# ------------------------------------------------------------------ #
# Tangent eigenvalues                                                  #
# ------------------------------------------------------------------ #


class TestMinTangentEig:
    def test_maxeig_at_component_is_4(self):
        prob, _ = maxeig_problem(5)
        eig, v = min_tangent_eig(prob, np.eye(5)[0])
        np.testing.assert_allclose(eig, 4.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(v), 1.0, atol=1e-12)

    def test_balanced_saddle_d2(self):
        prob, _ = maxeig_problem(2)
        u = np.array([1.0, 1.0]) / np.sqrt(2.0)
        eig, v = min_tangent_eig(prob, u)
        np.testing.assert_allclose(eig, -4.0, atol=1e-10)
        witness = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert min(np.linalg.norm(v - witness), np.linalg.norm(v + witness)) <= 1e-8

    def test_witness_is_tangent_and_attains(self):
        prob, _ = maxeig_problem(4, seed=17)
        rng = np.random.default_rng(13)
        u = prob.random_feasible(rng)
        eig, v = min_tangent_eig(prob, u)
        assert np.linalg.norm(prob.constraints.normal_project(u, v)) <= 1e-10
        np.testing.assert_allclose(v @ lagrangian_hessian(prob, u) @ v, eig, rtol=1e-10)

    def test_correlation_minimum_is_strongly_convex(self):
        prob, basis = correlation_problem(3, seed=18)
        rows = basis.vectors[[2, 1, 0]] * np.array([[1.0], [-1.0], [1.0]])
        eig, _ = min_tangent_eig(prob, rows.ravel())
        assert eig >= 1.0 - 1e-9


# ------------------------------------------------------------------ #
# RLICQ and geometry bounds                                            #
# ------------------------------------------------------------------ #


def rlicq_sigma_min(constraints, w):
    """Smallest singular value of C(w), in closed form.

    C(w)^T C(w) = diag(4 ||w_i||^2), so sigma_min(C) = 2 min_i ||w_i||
    exactly; it equals 2 on feasible sphere products.
    """
    return 2.0 * float(np.min(constraints.block_norms(w), initial=np.inf))


class TestRlicq:
    def test_sphere_product_sigma_is_2(self):
        cs = SphereProduct(3, 4)
        rng = np.random.default_rng(14)
        for _ in range(10):
            w = cs.random_point(rng)
            np.testing.assert_allclose(rlicq_sigma_min(cs, w), 2.0, atol=1e-12)

    def test_matches_svd_oracle(self):
        cs = SphereProduct(2, 3)
        rng = np.random.default_rng(15)
        w = rng.standard_normal(6)  # not feasible; value still defined
        want = np.linalg.svd(cs.constraint_gradients(w), compute_uv=False)[-1]
        np.testing.assert_allclose(rlicq_sigma_min(cs, w), want, rtol=1e-12)


class TestGeometryBounds:
    def test_curvature_drift_and_projection_inequalities(self):
        """Normal leakage, tangent drift, and projection displacement obey
        the sphere-product bounds (radius 1)."""
        cs = SphereProduct(2, 3)
        rng = np.random.default_rng(16)
        for _ in range(200):
            w0 = cs.random_point(rng)
            w = cs.random_point(rng)
            delta = np.linalg.norm(w - w0)
            assert (
                np.linalg.norm(cs.normal_project(w0, w - w0))
                <= 0.5 * delta**2 + 1e-12
            )
            v_t = cs.tangent_project(w0, rng.standard_normal(6))
            v_t /= np.linalg.norm(v_t)
            assert np.linalg.norm(cs.normal_project(w, v_t)) <= delta + 1e-12
            v_n = cs.normal_project(w0, rng.standard_normal(6))
            v_n /= np.linalg.norm(v_n)
            assert np.linalg.norm(cs.tangent_project(w, v_n)) <= delta + 1e-12
            for eta in (1e-1, 1e-2, 1e-3):
                v = rng.standard_normal(6)
                v /= np.linalg.norm(v)
                moved = cs.project(w0 + eta * v)
                surrogate = w0 + eta * cs.tangent_project(w0, v)
                assert np.linalg.norm(moved - surrogate) <= 4.0 * eta**2 + 1e-12


# ------------------------------------------------------------------ #
# Properties over random block shapes                                  #
# ------------------------------------------------------------------ #

SHAPES = st.tuples(st.integers(1, 5), st.integers(1, 6))  # (m, k)
SEEDS = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=60, deadline=None)


def block_slices(cs):
    """The slice of each block's k entries."""
    return [slice(a, a + cs.k) for a in range(0, cs.n, cs.k)]


class LinearProblem:
    """f(w) = g.w: the gradient is g everywhere, so the multipliers are
    the least-squares coefficients of g on the constraint gradients."""

    def __init__(self, constraints, g):
        self.constraints = constraints
        self.g = g

    def gradient(self, w):
        return self.g


class QuadraticProblem:
    """f(w) = g.w + w.A.w / 2 on a sphere product: Hessian A everywhere."""

    def __init__(self, constraints, g, A):
        self.constraints = constraints
        self.g = g
        self.A = A

    def gradient(self, w):
        return self.g + np.einsum("ij,...j->...i", self.A, w)

    def hessian(self, w):
        return np.broadcast_to(self.A, np.shape(w)[:-1] + self.A.shape)


def qr_min_tangent_eig(problem, w):
    """Oracle: the tangent frame from a full QR of C(w), then a dense eigh."""
    cs = problem.constraints
    q, _ = np.linalg.qr(cs.constraint_gradients(w), mode="complete")
    B = q[:, cs.m:]
    return np.linalg.eigh(B.T @ lagrangian_hessian(problem, w) @ B)[0][0]


def lstsq_multipliers(problem, w):
    C = problem.constraints.constraint_gradients(w)
    lam, *_ = np.linalg.lstsq(C, problem.gradient(w), rcond=None)
    return lam


class TestSphereProductProperties:
    @PROPERTY
    @given(SHAPES, SEEDS)
    def test_project_is_feasible_and_idempotent(self, shape, seed):
        cs = SphereProduct(*shape)
        v = np.random.default_rng(seed).standard_normal(cs.n)
        w = cs.project(v)
        loop = np.concatenate([v[b] / np.linalg.norm(v[b]) for b in block_slices(cs)])
        np.testing.assert_allclose(w, loop, rtol=0.0, atol=1e-15)
        assert cs.feasible(w)
        np.testing.assert_allclose(cs.project(w), w, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(rlicq_sigma_min(cs, w), 2.0, atol=1e-12)

    @PROPERTY
    @given(SHAPES, SEEDS)
    def test_tangent_and_normal_parts_are_orthogonal(self, shape, seed):
        cs = SphereProduct(*shape)
        rng = np.random.default_rng(seed)
        w = cs.random_point(rng)
        v = rng.standard_normal(cs.n)
        t, n = cs.tangent_project(w, v), cs.normal_project(w, v)
        loop = np.concatenate([v[b] - (v[b] @ w[b]) * w[b] for b in block_slices(cs)])
        np.testing.assert_allclose(t, loop, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(t + n, v, atol=1e-14)
        assert abs(t @ n) <= 1e-12 * (v @ v)
        assert np.max(np.abs(cs.constraint_gradients(w).T @ t)) <= 1e-12 * np.linalg.norm(v)

    @PROPERTY
    @given(SHAPES, SEEDS)
    def test_closed_form_multipliers_match_lstsq(self, shape, seed):
        cs = SphereProduct(*shape)
        rng = np.random.default_rng(seed)
        # off the manifold too: the closed form holds for any nonzero blocks
        w = cs.random_point(rng) * np.repeat(rng.uniform(0.5, 2.0, cs.m), cs.k)
        problem = LinearProblem(cs, rng.standard_normal(cs.n))
        lam = lstsq_multipliers(problem, w)
        np.testing.assert_allclose(lagrange_multipliers(problem, w), lam, rtol=0.0, atol=1e-10)
        C = cs.constraint_gradients(w)
        np.testing.assert_allclose(tangent_gradient(problem, w), problem.g - C @ lam, rtol=0.0, atol=1e-10)

    @PROPERTY
    @given(st.integers(1, 6), st.lists(st.sampled_from([0.0, 1e-12, 1e-10, 1e-6, 1.0]), min_size=1, max_size=5),
           SEEDS)
    def test_multipliers_raise_exactly_below_threshold(self, k, scales, seed):
        cs = SphereProduct(len(scales), k)
        rng = np.random.default_rng(seed)
        w = cs.random_point(rng) * np.repeat(scales, k)
        problem = LinearProblem(cs, rng.standard_normal(cs.n))
        norms = [np.linalg.norm(w[b]) for b in block_slices(cs)]
        if 2.0 * min(norms) < CQ_SIGMA_MIN:
            with pytest.raises(ValueError, match="constraint qualification") as failure:
                lagrange_multipliers(problem, w)
            # the check reports sigma_min(C) as the closed form gives it
            assert str(failure.value).endswith(f" = {rlicq_sigma_min(cs, w):.3e}")
        else:
            assert np.all(np.isfinite(lagrange_multipliers(problem, w)))

    @PROPERTY
    @given(SHAPES, st.integers(1, 8), SEEDS)
    def test_stack_kernels_equal_row_calls(self, shape, height, seed):
        """Each row of a (K, n) call equals the call on that row alone, bit for bit."""
        cs = SphereProduct(*shape)
        rng = np.random.default_rng(seed)
        V = rng.standard_normal((height, cs.n))
        W = cs.project(V)
        problem = LinearProblem(cs, rng.standard_normal(cs.n))
        stacked = (cs.block_norms(V), cs.c(V), W, cs.tangent_project(W, V),
                   lagrange_multipliers(problem, W), tangent_gradient(problem, W))
        for i in range(height):
            rows = (cs.block_norms(V[i]), cs.c(V[i]), cs.project(V[i]), cs.tangent_project(W[i], V[i]),
                    lagrange_multipliers(problem, W[i]), tangent_gradient(problem, W[i]))
            for got, want in zip(stacked, rows):
                np.testing.assert_array_equal(got[i], want)

    @PROPERTY
    @given(SHAPES, st.integers(1, 8), SEEDS)
    def test_tangent_basis_and_curvature(self, shape, height, seed):
        """The Householder basis is orthonormal, tangent and spans T(w);
        the curvature it gives matches the QR frame; stacks equal rows."""
        cs = SphereProduct(*shape)
        rng = np.random.default_rng(seed)
        W = cs.project(rng.standard_normal((height, cs.n)))
        A = rng.standard_normal((cs.n, cs.n))
        problem = QuadraticProblem(cs, rng.standard_normal(cs.n), A + A.T)
        bases = tangent_basis(cs, W)
        assert bases.shape == (height, cs.n, cs.n - cs.m)
        curved = cs.n > cs.m
        if curved:
            eigs, dirs = min_tangent_eig(problem, W)
        for i, (w, B) in enumerate(zip(W, bases)):
            np.testing.assert_array_equal(tangent_basis(cs, w), B)
            np.testing.assert_allclose(B.T @ B, np.eye(cs.n - cs.m), rtol=0.0, atol=1e-12)
            assert np.max(np.abs(B.T @ cs.constraint_gradients(w)), initial=0.0) <= 1e-12
            v = rng.standard_normal(cs.n)
            np.testing.assert_allclose(B @ (B.T @ v), cs.tangent_project(w, v), rtol=0.0, atol=1e-12)
            if curved:
                eig, direction = min_tangent_eig(problem, w)
                assert eig == eigs[i]
                np.testing.assert_array_equal(direction, dirs[i])
                assert abs(eig - qr_min_tangent_eig(problem, w)) <= 1e-10
