"""Tests for the sign-source sampling model and its gradient estimators.

The pairing and unbiasedness checks enumerate the full sign-vector
sample space, so the expectations here are exact up to round-off.
"""

import itertools
import time

import numpy as np
import pytest

from strictsaddle.ica import (
    IcaModel,
    IcaSampler,
    SimpleSampler,
    gen_ica_samples,
    gen_simple_sample,
    ica_stochastic_gradient,
    minibatch_gradient,
    simple_correlation_gradient,
    simple_maxeig_gradient,
    simple_reconstruction_gradient,
    z_minus_y4_form,
)
from strictsaddle.objectives import (
    correlation_objective,
    maxeig_objective,
    reconstruction_objective,
)
from strictsaddle.tensor4 import OrthoBasis, make_orthogonal_tensor

# ------------------------------------------------------------------ #
# Oracles                                                              #
# ------------------------------------------------------------------ #


def dense_z(d):
    """The pairing tensor materialized entry by entry."""
    Z = np.zeros((d, d, d, d))
    for i in range(d):
        Z[i, i, i, i] = 3.0
        for j in range(d):
            if j == i:
                continue
            Z[i, i, j, j] = 1.0
            Z[i, j, i, j] = 1.0
            Z[i, j, j, i] = 1.0
    return Z


def dense_pair_form(arr, u, v):
    """arr(u,u,v,v) by direct contraction of a dense (d,d,d,d) array."""
    return float(np.einsum("abcd,a,b,c,d->", arr, u, u, v, v))


def all_signs(d):
    return np.array(list(itertools.product((-1.0, 1.0), repeat=d)))


def random_feasible_rows(d, rng):
    rows = rng.standard_normal((d, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


# ------------------------------------------------------------------ #
# Model and samples                                                    #
# ------------------------------------------------------------------ #


class TestIcaModel:
    @pytest.mark.filterwarnings("error")
    def test_rejects_non_orthonormal_mixing(self):
        with pytest.raises(ValueError):
            IcaModel(np.array([[1.0, 0.0], [1.0, 0.0]]))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                IcaModel(np.full((2, 2), bad))
            with pytest.raises(ValueError, match="non-finite"):
                IcaModel(np.array([[1.0, 0.0], [0.0, bad]]))

    def test_random_model_is_orthonormal(self):
        model = IcaModel.random(5, np.random.default_rng(0))
        np.testing.assert_allclose(model.A @ model.A.T, np.eye(5), atol=1e-12)

    def test_component_basis_holds_columns(self):
        model = IcaModel.random(4, np.random.default_rng(1))
        basis = model.component_basis()
        np.testing.assert_allclose(basis.vectors, model.A.T, atol=1e-15)


class TestSamples:
    def test_sample_is_signed_column_sum(self):
        model = IcaModel(np.eye(3))
        rng = np.random.default_rng(2)
        y = gen_ica_samples(model, 1, rng)[0]
        assert set(np.unique(y)) <= {-1.0, 1.0}
        assert float(y @ y) == 3.0  # exact for A = I

    def test_sample_norm_is_sqrt_d(self):
        model = IcaModel.random(6, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        for _ in range(50):
            y = gen_ica_samples(model, 1, rng)[0]
            np.testing.assert_allclose(y @ y, 6.0, atol=1e-12)

    def test_d1_sign_frequency(self):
        model = IcaModel(np.array([[1.0]]))
        rng = np.random.default_rng(5)
        ys = np.array([gen_ica_samples(model, 1, rng)[0, 0] for _ in range(10_000)])
        assert abs(np.mean(ys > 0) - 0.5) <= 0.05

    def test_identity_mixing_coordinates_uncorrelated(self):
        model = IcaModel(np.eye(4))
        Y = gen_ica_samples(model, 10_000, np.random.default_rng(6))
        corr = np.corrcoef(Y.T)
        off = corr[~np.eye(4, dtype=bool)]
        assert np.max(np.abs(off)) <= 0.05

    def test_batch_shape(self):
        model = IcaModel.random(3, np.random.default_rng(7))
        Y = gen_ica_samples(model, 17, np.random.default_rng(8))
        assert Y.shape == (17, 3)


# ------------------------------------------------------------------ #
# Pairing tensor                                                       #
# ------------------------------------------------------------------ #


class TestPairingForm:
    def test_form_pair_matches_dense_contraction(self):
        """At y = 0 the pairing form reduces to Z(u,u,v,v) / 2."""
        rng = np.random.default_rng(9)
        dense = dense_z(4)
        for _ in range(10):
            u, v = rng.standard_normal((2, 4))
            np.testing.assert_allclose(
                2.0 * z_minus_y4_form(np.zeros(4), u, v), dense_pair_form(dense, u, v), rtol=1e-12
            )

    def test_z_minus_y4_matches_dense_contraction(self):
        rng = np.random.default_rng(10)
        d = 3
        dense = dense_z(d)
        model = IcaModel.random(d, rng)
        for _ in range(10):
            y = gen_ica_samples(model, 1, rng)[0]
            u, v = rng.standard_normal((2, d))
            want = 0.5 * (
                dense_pair_form(dense, u, v)
                - dense_pair_form(np.einsum("a,b,c,d->abcd", y, y, y, y), u, v)
            )
            np.testing.assert_allclose(z_minus_y4_form(y, u, v), want, rtol=1e-12)

    def test_zero_arguments(self):
        assert z_minus_y4_form(np.ones(3), np.zeros(3), np.zeros(3)) == 0.0

    def test_exhaustive_mean_reproduces_tensor_form(self):
        """Averaged over all sign sources, the pairing form equals the
        orthogonal tensor's (u,u,v,v) form, to round-off."""
        for d in (1, 2, 3, 4):
            rng = np.random.default_rng(11 + d)
            model = IcaModel.random(d, rng)
            T = make_orthogonal_tensor(model.component_basis())
            ys = all_signs(d) @ model.A.T
            for _ in range(5):
                u, v = rng.standard_normal((2, d))
                mean = np.mean([z_minus_y4_form(y, u, v) for y in ys])
                want = dense_pair_form(T.entries, u, v)
                assert abs(mean - want) <= 1e-12

    def test_d1_pairing_value(self):
        # y^4 = 1 for either sign, so the halved difference is exactly 1
        assert z_minus_y4_form(np.array([1.0]), np.ones(1), np.ones(1)) == 1.0
        assert z_minus_y4_form(np.array([-1.0]), np.ones(1), np.ones(1)) == 1.0


# ------------------------------------------------------------------ #
# Stochastic gradient                                                  #
# ------------------------------------------------------------------ #


class TestIcaGradient:
    def test_zero_sample_on_orthonormal_rows(self):
        """With y=0 only the Gram terms survive: block i is (d-1) u_i."""
        d = 5
        U = np.linalg.qr(np.random.default_rng(12).standard_normal((d, d)))[0]
        got = ica_stochastic_gradient(U, np.zeros(d))
        np.testing.assert_allclose(got, (d - 1.0) * U, atol=1e-12)

    def test_flat_and_matrix_inputs_agree(self):
        rng = np.random.default_rng(13)
        U = random_feasible_rows(3, rng)
        y = gen_ica_samples(IcaModel.random(3, rng), 1, rng)[0]
        flat = ica_stochastic_gradient(U.ravel(), y)
        assert flat.shape == (9,)
        np.testing.assert_array_equal(flat, ica_stochastic_gradient(U, y).ravel())

    def test_rejects_mismatched_sample(self):
        U = np.eye(3)
        with pytest.raises(ValueError, match="shape"):
            ica_stochastic_gradient(U, np.zeros(4))

    def test_exhaustive_unbiasedness(self):
        """The sign-source mean of the estimator is the analytic gradient of
        the halved pairwise-correlation objective."""
        for d in (2, 3):
            rng = np.random.default_rng(14 + d)
            model = IcaModel.random(d, rng)
            basis = model.component_basis()
            problem = correlation_objective(
                make_orthogonal_tensor(basis), basis=basis, halved=True
            )
            ys = all_signs(d) @ model.A.T
            for _ in range(5):
                w = problem.random_feasible(rng)
                mean = np.mean([ica_stochastic_gradient(w, y) for y in ys], axis=0)
                assert np.max(np.abs(mean - problem.gradient(w))) <= 1e-10

    def test_cubic_cost_scaling(self):
        """Doubling d multiplies the single-sample cost by about 8 once the
        cubic term dominates the fixed call overhead.

        The two sizes are timed round by round, interleaved, and each
        takes its minimum over the same rounds, so a slow spell of the
        host falls on both sizes rather than on one."""

        def inputs(d):
            rng = np.random.default_rng(15)
            model = IcaModel.random(d, rng)
            U = np.linalg.qr(rng.standard_normal((d, d)))[0]
            return U, gen_ica_samples(model, 1, rng)[0]

        def per_call(args, reps):
            t0 = time.perf_counter()
            for _ in range(reps):
                ica_stochastic_gradient(*args)
            return (time.perf_counter() - t0) / reps

        large, small = inputs(512), inputs(256)
        best_large = best_small = float("inf")
        for _ in range(5):
            best_large = min(best_large, per_call(large, reps=10))
            best_small = min(best_small, per_call(small, reps=20))
        ratio = best_large / best_small
        assert 4.0 <= ratio <= 12.0


class TestMinibatch:
    def test_matches_naive_averaging(self):
        rng = np.random.default_rng(16)
        model = IcaModel.random(4, rng)
        U = random_feasible_rows(4, rng)
        Y = gen_ica_samples(model, 25, rng)
        naive = np.mean([ica_stochastic_gradient(U, y) for y in Y], axis=0)
        np.testing.assert_allclose(minibatch_gradient(U, Y), naive, atol=1e-12)

    def test_single_sample_batch_is_exact(self):
        rng = np.random.default_rng(17)
        model = IcaModel.random(3, rng)
        U = random_feasible_rows(3, rng)
        y = gen_ica_samples(model, 1, rng)[0]
        np.testing.assert_array_equal(
            minibatch_gradient(U, y.reshape(1, -1)), ica_stochastic_gradient(U, y)
        )

    def test_duplicated_sample_equals_single(self):
        rng = np.random.default_rng(18)
        model = IcaModel.random(3, rng)
        U = random_feasible_rows(3, rng)
        y = gen_ica_samples(model, 1, rng)[0]
        batch = np.tile(y, (7, 1))
        np.testing.assert_allclose(
            minibatch_gradient(U, batch), ica_stochastic_gradient(U, y), atol=1e-13
        )

    def test_rejects_empty_or_mismatched(self):
        U = np.eye(3)
        with pytest.raises(ValueError, match="empty"):
            minibatch_gradient(U, np.zeros((0, 3)))
        with pytest.raises(ValueError, match="dimension"):
            minibatch_gradient(U, np.zeros((2, 4)))


# ------------------------------------------------------------------ #
# Simple (atomic) sampler                                              #
# ------------------------------------------------------------------ #


class TestSimpleSampler:
    def test_draw_norm(self):
        basis = OrthoBasis.random(5, np.random.default_rng(19))
        rng = np.random.default_rng(20)
        for _ in range(50):
            x = gen_simple_sample(basis, rng)
            np.testing.assert_allclose(np.linalg.norm(x), 5.0**0.25, atol=1e-12)

    def test_two_point_mean_is_tensor(self):
        """d=2: the two equiprobable atoms average to T entrywise."""
        basis = OrthoBasis.random(2, np.random.default_rng(21))
        T = make_orthogonal_tensor(basis)
        atoms = 2.0**0.25 * basis.vectors
        mean = np.mean(
            [np.einsum("a,b,c,d->abcd", x, x, x, x) for x in atoms], axis=0
        )
        np.testing.assert_allclose(mean, T.entries, atol=1e-12)

    def test_index_frequencies_uniform(self):
        basis = OrthoBasis.standard(10)
        rng = np.random.default_rng(22)
        counts = np.zeros(10)
        for _ in range(10_000):
            x = gen_simple_sample(basis, rng)
            counts[np.argmax(np.abs(x))] += 1
        np.testing.assert_allclose(counts / 10_000, 0.1, atol=0.02)

    def test_correlation_estimator_exact_mean(self):
        d = 3
        basis = OrthoBasis.random(d, np.random.default_rng(23))
        problem = correlation_objective(make_orthogonal_tensor(basis), halved=True)
        rng = np.random.default_rng(24)
        atoms = d**0.25 * basis.vectors
        for _ in range(5):
            w = problem.random_feasible(rng)
            mean = np.mean(
                [simple_correlation_gradient(w.reshape(d, d), x).ravel() for x in atoms],
                axis=0,
            )
            assert np.max(np.abs(mean - problem.gradient(w))) <= 1e-12

    def test_maxeig_estimator_exact_mean(self):
        d = 4
        basis = OrthoBasis.random(d, np.random.default_rng(25))
        problem = maxeig_objective(make_orthogonal_tensor(basis))
        rng = np.random.default_rng(26)
        atoms = d**0.25 * basis.vectors
        for _ in range(5):
            u = problem.random_feasible(rng)
            mean = np.mean([simple_maxeig_gradient(u, x) for x in atoms], axis=0)
            np.testing.assert_allclose(mean, problem.gradient(u), atol=1e-12)

    def test_reconstruction_estimator_exact_mean(self):
        d = 3
        basis = OrthoBasis.random(d, np.random.default_rng(27))
        problem = reconstruction_objective(make_orthogonal_tensor(basis))
        rng = np.random.default_rng(28)
        atoms = d**0.25 * basis.vectors
        for _ in range(5):
            w = problem.random_feasible(rng)
            mean = np.mean(
                [simple_reconstruction_gradient(w.reshape(d, d), x).ravel() for x in atoms],
                axis=0,
            )
            assert np.max(np.abs(mean - problem.gradient(w))) <= 1e-12


# ------------------------------------------------------------------ #
# Sampler plumbing                                                     #
# ------------------------------------------------------------------ #


class TestSamplerObjects:
    def test_ica_sampler_draw_and_gradient(self):
        rng = np.random.default_rng(29)
        model = IcaModel.random(3, rng)
        sampler = IcaSampler(model, batch_size=5)
        batch = sampler.draw(rng)
        assert batch.shape == (5, 3)
        U = random_feasible_rows(3, rng)
        np.testing.assert_array_equal(
            sampler.gradient(U.ravel(), batch), minibatch_gradient(U.ravel(), batch)
        )

    def test_ica_sampler_rejects_bad_batch(self):
        model = IcaModel(np.eye(2))
        with pytest.raises(ValueError):
            IcaSampler(model, batch_size=0)

    def test_simple_sampler_kinds(self):
        basis = OrthoBasis.standard(3)
        rng = np.random.default_rng(30)
        for kind in SimpleSampler.KINDS:
            sampler = SimpleSampler(basis, kind=kind)
            x = sampler.draw(rng)
            assert x.shape == (3,)
        with pytest.raises(ValueError):
            SimpleSampler(basis, kind="deflation")
