"""Tests for the sign-source sampling model and its gradient estimators.

The pairing and unbiasedness checks enumerate the full sign-vector
sample space, so the expectations here are exact up to round-off.
"""

import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strictsaddle.ica import (
    IcaModel,
    IcaSampler,
    SimpleSampler,
    gen_ica_samples,
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
        for shape in ((2, 3), (4,), (2, 2, 2)):
            with pytest.raises(ValueError, match="mixing matrix must be square"):
                IcaModel(np.ones(shape))
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


def single_sample_gradient(U, y):
    """The stochastic gradient of one observation y: a batch of one."""
    return minibatch_gradient(U, y.reshape(1, -1))


class TestIcaGradient:
    def test_zero_sample_on_orthonormal_rows(self):
        """With y=0 only the Gram terms survive: block i is (d-1) u_i."""
        d = 5
        U = np.linalg.qr(np.random.default_rng(12).standard_normal((d, d)))[0]
        got = single_sample_gradient(U, np.zeros(d))
        np.testing.assert_allclose(got, (d - 1.0) * U, atol=1e-12)

    def test_rejects_mismatched_sample(self):
        U = np.eye(3)
        with pytest.raises(ValueError, match="shape"):
            single_sample_gradient(U, np.zeros(4))
        with pytest.raises(ValueError, match="shape"):
            minibatch_gradient(U, np.zeros(3))

    def test_exhaustive_unbiasedness(self):
        """The sign-source mean of the estimator is the analytic gradient of
        the halved pairwise-correlation objective."""
        for d in (2, 3):
            rng = np.random.default_rng(14 + d)
            model = IcaModel.random(d, rng)
            basis = model.component_basis()
            problem = correlation_objective(basis=basis, halved=True)
            ys = all_signs(d) @ model.A.T
            for _ in range(5):
                w = problem.random_feasible(rng)
                U = w.reshape(d, d)
                mean = np.mean([single_sample_gradient(U, y) for y in ys], axis=0)
                assert np.max(np.abs(mean.ravel() - problem.gradient(w))) <= 1e-10

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
                single_sample_gradient(*args)
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
        naive = np.mean([single_sample_gradient(U, y) for y in Y], axis=0)
        np.testing.assert_allclose(minibatch_gradient(U, Y), naive, atol=1e-12)

    def test_single_sample_batch_is_exact(self):
        """A batch of one gives the per-sample formula, block by block."""
        rng = np.random.default_rng(17)
        model = IcaModel.random(3, rng)
        U = random_feasible_rows(3, rng)
        y = gen_ica_samples(model, 1, rng)[0]
        want = np.zeros_like(U)
        for i in range(3):
            for j in range(3):
                if j != i:
                    want[i] += (U[j] @ U[j]) * U[i] + 2.0 * (U[i] @ U[j]) * U[j]
                    want[i] -= (U[j] @ y) ** 2 * (U[i] @ y) * y
        np.testing.assert_allclose(single_sample_gradient(U, y), want, rtol=1e-12, atol=1e-14)

    def test_stack_rows_equal_solo_calls(self):
        """A stack of points, each with its own batch, equals one call per
        point bit for bit."""
        rng = np.random.default_rng(31)
        model = IcaModel.random(4, rng)
        U = np.array([random_feasible_rows(4, rng) for _ in range(5)])
        Y = np.array([gen_ica_samples(model, 7, rng) for _ in range(5)])
        stacked = minibatch_gradient(U, Y)
        for k in range(5):
            np.testing.assert_array_equal(stacked[k], minibatch_gradient(U[k], Y[k]))

    def test_duplicated_sample_equals_single(self):
        rng = np.random.default_rng(18)
        model = IcaModel.random(3, rng)
        U = random_feasible_rows(3, rng)
        y = gen_ica_samples(model, 1, rng)[0]
        batch = np.tile(y, (7, 1))
        np.testing.assert_allclose(
            minibatch_gradient(U, batch), single_sample_gradient(U, y), atol=1e-13
        )

    def test_rejects_empty_or_mismatched(self):
        U = np.eye(3)
        with pytest.raises(ValueError, match="empty"):
            minibatch_gradient(U, np.zeros((0, 3)))
        with pytest.raises(ValueError, match="shape"):
            minibatch_gradient(U, np.zeros((2, 4)))


# ------------------------------------------------------------------ #
# Simple (atomic) sampler                                              #
# ------------------------------------------------------------------ #

PCG64_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


def crafted_generator(seed, word):
    """A PCG64 generator whose next 64-bit word is ``word``.  PCG64 steps
    its 128-bit state s to s * multiplier + inc and outputs the XSL-RR of
    the new state, so a new state with that output is stepped back once."""
    inc = np.random.PCG64(seed).state["state"]["inc"]
    high = (seed * 0x9E3779B97F4A7C15) % 2**64
    rot = high >> 58
    low = high ^ (((word << rot) | (word >> (64 - rot))) % 2**64 if rot else word)
    after = (high << 64) | low
    state = ((after - inc) * pow(PCG64_MULTIPLIER, -1, 2**128)) % 2**128
    bitgen = np.random.PCG64()
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    probe = np.random.PCG64()
    probe.state = bitgen.state
    assert probe.random_raw() == word
    return np.random.Generator(bitgen)


def assert_fill_matches_pairs(sampler, samples, noise, rng, twin):
    """``samples`` and ``noise`` hold what per-step (draw, normals) pairs on
    ``twin`` give, and ``rng`` stands where ``twin`` does after them."""
    for j in range(len(samples)):
        np.testing.assert_array_equal(samples[j], sampler.draw(twin))
        if noise is not None:
            np.testing.assert_array_equal(noise[j], twin.standard_normal(noise.shape[1]))
    assert rng.bit_generator.state == twin.bit_generator.state
    np.testing.assert_array_equal(rng.integers(7, size=3), twin.integers(7, size=3))
    np.testing.assert_array_equal(rng.standard_normal(3), twin.standard_normal(3))



class TestSimpleSampler:
    def test_draw_norm(self):
        basis = OrthoBasis.random(5, np.random.default_rng(19))
        rng = np.random.default_rng(20)
        sampler = SimpleSampler(basis)
        for _ in range(50):
            x = sampler.draw(rng)
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
        sampler = SimpleSampler(basis)
        counts = np.zeros(10)
        for _ in range(10_000):
            x = sampler.draw(rng)
            counts[np.argmax(np.abs(x))] += 1
        np.testing.assert_allclose(counts / 10_000, 0.1, atol=0.02)

    def test_draw_is_the_scaled_basis_vector(self):
        """A draw is d^{1/4} a_i with i = rng.integers(d), bit for bit."""
        for d in (1, 2, 7):
            basis = OrthoBasis.random(d, np.random.default_rng(d))
            sampler = SimpleSampler(basis)
            rng, twin = np.random.default_rng(40 + d), np.random.default_rng(40 + d)
            for _ in range(20):
                np.testing.assert_array_equal(sampler.draw(rng), d**0.25 * basis.vectors[twin.integers(d)])
        with pytest.raises(ValueError):
            sampler.draw(rng)[0] = 1.0  # the atoms are shared and read-only

    @settings(max_examples=300, deadline=None)
    @given(d=st.integers(1, 40), h=st.integers(1, 11), n=st.sampled_from([None, 1, 3, 17]),
           seed=st.integers(0, 2**32 - 1), spare=st.booleans())
    def test_fill_equals_per_step_pairs(self, d, h, n, seed, spare):
        """``fill`` from raw words gives the values of h per-step (draw,
        standard_normal(n)) pairs and leaves the generator where they do:
        its PCG64 state, its spare 32-bit half and what it draws next, with
        h odd or even, with or without a spare half at the start, with d = 1
        (no index draws) and with no noise."""
        sampler = SimpleSampler(OrthoBasis.random(d, np.random.default_rng(seed)))
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        if spare:  # an odd count of 32-bit draws leaves the high half spare
            rng.integers(2**31, size=3, dtype=np.int32)
            twin.integers(2**31, size=3, dtype=np.int32)
        samples = np.empty((h, d))
        noise = None if n is None else np.empty((h, n))
        assert sampler.fill(rng, samples, noise) is None
        assert_fill_matches_pairs(sampler, samples, noise, rng, twin)

    @pytest.mark.parametrize("d", [3, 10, 40])
    @pytest.mark.parametrize("halves", [(0, 1), (1, 0), (0, 0)], ids=["low", "high", "both"])
    @pytest.mark.parametrize("spare", [False, True])
    def test_fill_redraws_rejected_halves(self, d, halves, spare):
        """A 32-bit half u with u*d mod 2^32 < 2^32 mod d is drawn again, as
        ``integers(d)`` does: crafted generators whose next word has its low
        half, its high half or both rejected (u = 0), at a step's own draw
        or at the shared word of two steps, before and after the normals."""
        sampler = SimpleSampler(OrthoBasis.random(d, np.random.default_rng(d)))
        for h in (1, 2, 3, 4):
            for n in (None, 2):
                low, high = (0 if reject else 12345 + 678 * h for reject in halves)
                rng, twin = crafted_generator(d, (high << 32) | low), crafted_generator(d, (high << 32) | low)
                if spare:
                    rng.integers(2**31, dtype=np.int32)
                    twin.integers(2**31, dtype=np.int32)
                samples, noise = np.empty((h, d)), None if n is None else np.empty((h, n))
                sampler.fill(rng, samples, noise)
                assert_fill_matches_pairs(sampler, samples, noise, rng, twin)

    def test_fill_takes_per_step_draws_on_other_generators(self):
        """A generator that is not PCG64 gets the per-step pairs."""
        sampler = SimpleSampler(OrthoBasis.random(5, np.random.default_rng(1)))
        rng, twin = (np.random.Generator(np.random.Philox(7)) for _ in range(2))
        samples, noise = np.empty((6, 5)), np.empty((6, 4))
        assert sampler.fill(rng, samples, noise) is None
        for j in range(6):
            np.testing.assert_array_equal(samples[j], sampler.draw(twin))
            np.testing.assert_array_equal(noise[j], twin.standard_normal(4))
        np.testing.assert_array_equal(rng.integers(2**32, size=3), twin.integers(2**32, size=3))

    def test_correlation_estimator_exact_mean(self):
        d = 3
        basis = OrthoBasis.random(d, np.random.default_rng(23))
        problem = correlation_objective(basis=basis, halved=True)
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
        problem = maxeig_objective(basis=basis)
        rng = np.random.default_rng(26)
        atoms = d**0.25 * basis.vectors
        for _ in range(5):
            u = problem.random_feasible(rng)
            mean = np.mean([simple_maxeig_gradient(u, x) for x in atoms], axis=0)
            np.testing.assert_allclose(mean, problem.gradient(u), atol=1e-12)

    def test_reconstruction_estimator_exact_mean(self):
        d = 3
        basis = OrthoBasis.random(d, np.random.default_rng(27))
        problem = reconstruction_objective(basis=basis)
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
        batches = np.array([sampler.draw(rng) for _ in range(2)])
        assert batches.shape == (2, 5, 3)
        U = np.array([random_feasible_rows(3, rng) for _ in range(2)])
        got = sampler.gradient(U.reshape(2, 9), batches)
        assert got.shape == (2, 9)
        np.testing.assert_array_equal(got, minibatch_gradient(U, batches).reshape(2, 9))

    def test_ica_sampler_rejects_bad_batch(self):
        model = IcaModel(np.eye(2))
        with pytest.raises(ValueError):
            IcaSampler(model, batch_size=0)
        with pytest.raises(ValueError, match="batch_size must be an integer"):
            IcaSampler(model, batch_size=2.5)

    def test_simple_sampler_kinds(self):
        basis = OrthoBasis.standard(3)
        rng = np.random.default_rng(30)
        for kind in SimpleSampler.KINDS:
            sampler = SimpleSampler(basis, kind=kind)
            x = sampler.draw(rng)
            assert x.shape == (3,)
        with pytest.raises(ValueError):
            SimpleSampler(basis, kind="deflation")
