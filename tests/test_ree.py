"""Relative entropy of entanglement solver and data-processing check."""

import math

import numpy as np
import pytest

from entmon.channels import LocalKrausChannel, random_channel, unitary_mixture_channel
from entmon.measures import wootters_eof
from entmon.ree import GAP_TOL, ree_data_processing_check, ree_minimize
from entmon.sampling import haar_unitary, random_mixed, random_pure, random_separable
from entmon.states import (
    DensityMatrix,
    Dims,
    bell_state,
    partial_trace,
    partial_transpose,
    relative_entropy,
    von_neumann_entropy,
)
from entmon.verify import derived_seed


class TestReeMinimize:
    def test_separable_input_is_feasible(self):
        rng = np.random.default_rng(1)
        rho = random_separable(Dims(2, 2), 4, rng)
        res = ree_minimize(rho, rng=np.random.default_rng(0))
        assert res.value <= 1e-4

    def test_bell_matches_log_two(self):
        res = ree_minimize(bell_state().density(), rng=np.random.default_rng(1))
        assert res.value == pytest.approx(math.log(2), abs=1e-2)
        assert res.value >= math.log(2) - 1e-6  # upper bound

    def test_pure_state_coincidence(self):
        rng = np.random.default_rng(2)
        for t in range(3):
            psi = random_pure(Dims(2, 2), rng)
            oracle = von_neumann_entropy(partial_trace(psi.density(), "A"))
            res = ree_minimize(psi.density(), rng=np.random.default_rng(10 + t))
            assert res.value == pytest.approx(oracle, abs=1e-2)

    def test_value_consistent_with_relative_entropy(self):
        rho = random_mixed(Dims(2, 2), 2, np.random.default_rng(3))
        res = ree_minimize(rho, rng=np.random.default_rng(4))
        assert res.value == pytest.approx(
            relative_entropy(rho, res.closest_separable), abs=1e-9
        )

    def test_closest_separable_is_ppt(self):
        rho = bell_state().density()
        res = ree_minimize(rho, rng=np.random.default_rng(5))
        pt = partial_transpose(res.closest_separable, "A")
        assert np.linalg.eigvalsh(pt)[0] >= -1e-9

    def test_below_eof_on_mixed_states(self):
        rng = np.random.default_rng(6)
        for t in range(3):
            rho = random_mixed(Dims(2, 2), 3, rng)
            res = ree_minimize(rho, rng=np.random.default_rng(20 + t))
            assert res.value <= wootters_eof(rho) + 2e-2

    def test_deterministic(self):
        rho = random_mixed(Dims(2, 2), 2, np.random.default_rng(7))
        a = ree_minimize(rho, rng=np.random.default_rng(3))
        b = ree_minimize(rho, rng=np.random.default_rng(3))
        assert a.value == b.value
        assert a.iterations == b.iterations

    def test_monotone_descent_trace(self):
        # The objective never increases along the run: re-check by probing
        # the final value against a truncated run.
        rho = random_mixed(Dims(2, 2), 2, np.random.default_rng(8))
        short = ree_minimize(rho, max_iters=40, rng=np.random.default_rng(9))
        long = ree_minimize(rho, max_iters=400, rng=np.random.default_rng(9))
        assert long.value <= short.value + 1e-10

    @pytest.mark.parametrize("f", [0.6, 0.7, 0.8, 0.95])
    def test_bell_diagonal_oracle(self, f):
        # Vedral & Plenio: E_R = ln 2 - H2(F) for the largest Bell weight F >= 1/2.
        rng = np.random.default_rng(int(100 * f))
        bell = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / math.sqrt(2)
        weights = np.concatenate([[f], (1.0 - f) * rng.dirichlet(np.ones(3))])
        rho = DensityMatrix((bell.T * weights) @ bell + 0j, Dims(2, 2))
        oracle = math.log(2) + f * math.log(f) + (1 - f) * math.log(1 - f)
        res = ree_minimize(rho, rng=np.random.default_rng(30))
        assert res.converged is True
        assert res.value == pytest.approx(oracle, abs=1e-4)

    @pytest.mark.parametrize("dims,t", [((2, 2), 0), ((2, 2), 1), ((2, 2), 2), ((2, 3), 0)])
    def test_converges_at_default_max_iters(self, dims, t):
        # Criterion-7-style mixed inputs: rank 2 + t % 3, solver seeded alike.
        seed = derived_seed(7, 3, t)
        rho = random_mixed(Dims(*dims), 2 + t % 3, np.random.default_rng(seed))
        res = ree_minimize(rho, rng=np.random.default_rng(seed))
        assert res.converged is True
        assert res.duality_gap_estimate < GAP_TOL

    def test_dimension_cap(self):
        from entmon.states import DimensionMismatchError

        rho = random_mixed(Dims(5, 5), 2, np.random.default_rng(10))
        with pytest.raises(DimensionMismatchError):
            ree_minimize(rho)

    def test_upper_bound_flag(self):
        res = ree_minimize(random_mixed(Dims(3, 3), 2, np.random.default_rng(11)),
                           max_iters=50, rng=np.random.default_rng(0))
        assert res.upper_bound_only
        res = ree_minimize(random_mixed(Dims(2, 3), 2, np.random.default_rng(12)),
                           max_iters=50, rng=np.random.default_rng(0))
        assert not res.upper_bound_only


class TestDataProcessing:
    def test_unitary_channel_preserves_divergence(self):
        rng = np.random.default_rng(20)
        rho = random_mixed(Dims(2, 2), None, rng)
        sigma = random_mixed(Dims(2, 2), None, rng)
        channel = LocalKrausChannel("B", (haar_unitary(2, rng),))
        rep = ree_data_processing_check(rho, sigma, channel)
        assert rep.skipped_reason is None
        assert rep.gap == pytest.approx(0.0, abs=1e-10)
        np.testing.assert_allclose(rep.p, rep.q, atol=1e-12)
        np.testing.assert_allclose(rep.p, [1.0], atol=1e-12)

    def test_general_channel_satisfies_inequality(self):
        rng = np.random.default_rng(21)
        for t in range(20):
            rho = random_mixed(Dims(2, 2), None, rng)
            sigma = random_mixed(Dims(2, 2), None, rng)
            channel = random_channel(2, 2 + t % 3, rng)
            rep = ree_data_processing_check(rho, sigma, channel)
            assert rep.skipped_reason is None
            assert rep.gap >= -1e-9

    def test_equal_states_give_zero(self):
        rho = random_mixed(Dims(2, 2), None, np.random.default_rng(22))
        channel = random_channel(2, 2, np.random.default_rng(23))
        rep = ree_data_processing_check(rho, rho, channel)
        assert rep.total_divergence == pytest.approx(0.0, abs=1e-10)
        assert rep.outcome_divergence == pytest.approx(0.0, abs=1e-9)

    def test_unitary_mixture_equality_forces_equal_probs(self):
        rng = np.random.default_rng(24)
        rho = random_mixed(Dims(2, 2), None, rng)
        sigma = random_mixed(Dims(2, 2), None, rng)
        channel = unitary_mixture_channel(
            [0.4, 0.6], [haar_unitary(2, rng), haar_unitary(2, rng)]
        )
        rep = ree_data_processing_check(rho, sigma, channel)
        assert abs(rep.gap) < 1e-9
        assert rep.max_prob_deviation < 1e-9

    def test_rank_deficient_sigma_is_skipped(self):
        rng = np.random.default_rng(25)
        rho = random_mixed(Dims(2, 2), None, rng)
        sigma = random_mixed(Dims(2, 2), 2, rng)
        channel = random_channel(2, 2, rng)
        rep = ree_data_processing_check(rho, sigma, channel)
        assert rep.skipped_reason is not None
