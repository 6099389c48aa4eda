"""Convex-roof optimizer against the two-qubit Wootters oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmon.measures import ENTROPY, NEGATIVITY_H, negativity, pure_measure, wootters_eof
from entmon.roof import (
    Decomposition,
    _qubit_reduced_spectrum,
    _RoofObjective,
    decomposition_from_isometry,
    default_n_terms,
    roof_minimize,
)
from entmon.sampling import haar_unitary, random_mixed, random_pure, random_separable
from entmon.states import DensityMatrix, Dims, PureState, bell_state


class TestDecompositionFromIsometry:
    def test_identity_recovers_eigendecomposition(self):
        rho = random_mixed(Dims(2, 2), 2, np.random.default_rng(0))
        dec = decomposition_from_isometry(rho, np.eye(2))
        vals = np.linalg.eigvalsh(rho.matrix)
        np.testing.assert_allclose(sorted(dec.weights), sorted(vals[vals > 1e-9]), atol=1e-10)
        np.testing.assert_allclose(dec.reconstruct(), rho.matrix, atol=1e-10)

    def test_rank_one_single_term(self):
        rho = bell_state().density()
        dec = decomposition_from_isometry(rho, np.eye(1))
        assert len(dec.states) == 1
        np.testing.assert_allclose(dec.weights, [1.0], atol=1e-12)

    def test_random_isometry_reconstructs(self):
        rng = np.random.default_rng(1)
        rho = random_mixed(Dims(2, 2), 2, rng)
        v = haar_unitary(4, rng)[:, :2]
        dec = decomposition_from_isometry(rho, v)
        assert np.linalg.norm(dec.reconstruct() - rho.matrix) < 1e-10

    def test_non_isometry_rejected(self):
        rho = random_mixed(Dims(2, 2), 2, np.random.default_rng(2))
        with pytest.raises(ValueError):
            decomposition_from_isometry(rho, np.eye(2) * 1.1)

    def test_decomposition_validates_weights(self):
        psi = random_pure(Dims(2, 2), np.random.default_rng(3))
        with pytest.raises(ValueError):
            Decomposition(np.array([0.7, 0.7]), (psi, psi))


class TestRoofMinimize:
    def test_pure_input_short_circuits(self):
        psi = random_pure(Dims(2, 2), np.random.default_rng(4))
        res = roof_minimize(ENTROPY, psi.density(), rng=np.random.default_rng(0))
        assert res.value == pytest.approx(pure_measure(ENTROPY, psi).value, abs=1e-12)
        assert len(res.best.states) == 1
        assert res.converged

    def test_separable_mixture_reaches_zero(self):
        # A three-term product mixture admits an explicit zero-measure
        # decomposition; n_terms at least the term count suffices.
        for s in range(4):
            rng = np.random.default_rng(200 + s)
            rho = random_separable(Dims(2, 2), 3, rng)
            rank = int(np.sum(np.linalg.eigvalsh(rho.matrix) > 1e-9))
            res = roof_minimize(NEGATIVITY_H, rho, n_terms=max(3, rank), restarts=20,
                                rng=np.random.default_rng(s))
            assert res.value <= 1e-4

    def test_rank_two_neg_roof_matches_half_concurrence(self):
        # Second closed-form oracle: the two-qubit roof of the negativity
        # h-function is half the Wootters concurrence.
        from entmon.measures import wootters_concurrence

        rng = np.random.default_rng(31)
        for t in range(4):
            rho = random_mixed(Dims(2, 2), 2, rng)
            res = roof_minimize(NEGATIVITY_H, rho, 4, 20, np.random.default_rng(t))
            assert res.value == pytest.approx(wootters_concurrence(rho) / 2, abs=1e-3)

    def test_rank_two_matches_wootters(self):
        rng = np.random.default_rng(6)
        for t in range(5):
            rho = random_mixed(Dims(2, 2), 2, rng)
            res = roof_minimize(ENTROPY, rho, n_terms=4, restarts=20,
                                rng=np.random.default_rng(10 + t))
            assert res.value == pytest.approx(wootters_eof(rho), abs=5e-3)
            assert res.value >= wootters_eof(rho) - 1e-9

    def test_value_matches_decomposition_average(self):
        rho = random_mixed(Dims(2, 2), 3, np.random.default_rng(7))
        res = roof_minimize(ENTROPY, rho, restarts=6, rng=np.random.default_rng(2))
        assert res.value == pytest.approx(res.best.average_value(ENTROPY), abs=1e-10)
        assert np.linalg.norm(res.best.reconstruct() - rho.matrix) < 1e-8

    def test_upper_bound_sanity(self):
        # Chain 0 starts at the eigendecomposition, so the result never
        # exceeds the eigen-ensemble average.
        rng = np.random.default_rng(8)
        for t in range(5):
            rho = random_mixed(Dims(2, 2), 3, rng)
            vals, vecs = np.linalg.eigh(rho.matrix)
            eig_avg = sum(
                lam * pure_measure(ENTROPY, PureState(vec, rho.dims)).value
                for lam, vec in zip(vals, vecs.T)
                if lam > 1e-9
            )
            res = roof_minimize(ENTROPY, rho, restarts=4, rng=np.random.default_rng(t))
            assert res.value <= eig_avg + 1e-10

    def test_n_terms_below_rank_rejected(self):
        rho = random_mixed(Dims(2, 2), 3, np.random.default_rng(9))
        with pytest.raises(ValueError):
            roof_minimize(ENTROPY, rho, n_terms=2, rng=np.random.default_rng(0))

    def test_default_n_terms(self):
        assert default_n_terms(random_mixed(Dims(2, 2), 4, np.random.default_rng(0))) == 4
        assert default_n_terms(random_mixed(Dims(2, 3), 2, np.random.default_rng(1))) == 4
        assert default_n_terms(random_mixed(Dims(2, 3), 6, np.random.default_rng(2))) == 8


class TestRoofProperties:
    def test_monotone_in_restarts_and_terms(self):
        # Same master seed: more restarts reuse the earlier chains, and a
        # larger ansatz must not end higher than a smaller one.
        rng = np.random.default_rng(10)
        for t in range(3):
            rho = random_mixed(Dims(2, 2), 2, rng)
            v_small = roof_minimize(ENTROPY, rho, 4, 8, np.random.default_rng(t)).value
            v_more_restarts = roof_minimize(ENTROPY, rho, 4, 14, np.random.default_rng(t)).value
            v_more_terms = roof_minimize(ENTROPY, rho, 6, 8, np.random.default_rng(t)).value
            assert v_more_restarts <= v_small + 1e-10
            assert v_more_terms <= v_small + 1e-10

    def test_convexity_witness(self):
        rng = np.random.default_rng(11)
        for t in range(3):
            r1 = random_mixed(Dims(2, 2), 2, rng)
            r2 = random_mixed(Dims(2, 2), 2, rng)
            lam = float(rng.uniform(0.2, 0.8))
            mix = DensityMatrix(lam * r1.matrix + (1 - lam) * r2.matrix, r1.dims)
            v_mix = roof_minimize(ENTROPY, mix, 4, 12, np.random.default_rng(t)).value
            v1 = roof_minimize(ENTROPY, r1, 4, 12, np.random.default_rng(t)).value
            v2 = roof_minimize(ENTROPY, r2, 4, 12, np.random.default_rng(t)).value
            assert v_mix <= lam * v1 + (1 - lam) * v2 + 2e-3

    def test_roof_negativity_dominates_negativity(self):
        rng = np.random.default_rng(12)
        for t in range(4):
            rho = random_mixed(Dims(2, 2), 2, rng)
            res = roof_minimize(NEGATIVITY_H, rho, 4, 12, np.random.default_rng(t))
            assert res.value >= negativity(rho).value - 1e-6

    def test_deterministic_given_seed(self):
        rho = random_mixed(Dims(2, 2), 3, np.random.default_rng(13))
        a = roof_minimize(ENTROPY, rho, 4, 6, np.random.default_rng(5))
        b = roof_minimize(ENTROPY, rho, 4, 6, np.random.default_rng(5))
        assert a.value == b.value


class TestQubitReducedSpectrum:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dB=st.integers(2, 4))
    def test_matches_eigvalsh(self, seed, dB):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((7, 2, dB)) + 1j * rng.standard_normal((7, 2, dB))
        m /= np.linalg.norm(m, axis=(-2, -1), keepdims=True)
        ref = np.clip(np.linalg.eigvalsh(m @ np.swapaxes(m, -2, -1).conj()), 0.0, None)
        np.testing.assert_allclose(_qubit_reduced_spectrum(m), ref, rtol=0, atol=1e-14)

    def test_product_and_maximally_entangled_members(self):
        rng = np.random.default_rng(0)
        a, b = haar_unitary(2, rng)[:, 0], haar_unitary(3, rng)[:, 0]
        np.testing.assert_allclose(_qubit_reduced_spectrum(np.outer(a, b)), [0.0, 1.0],
                                   atol=1e-15)
        bell = bell_state().amplitudes.reshape(2, 2)
        np.testing.assert_allclose(_qubit_reduced_spectrum(bell), [0.5, 0.5], atol=1e-15)

    def test_zero_row_is_a_dead_member(self):
        rho = random_mixed(Dims(2, 2), 2, np.random.default_rng(1))
        objective = _RoofObjective(ENTROPY, rho, 4)
        phi = objective.members(np.eye(4, 2))
        assert np.all(phi[2:] == 0)
        vals = objective.member_values(phi)
        np.testing.assert_array_equal(vals[2:], [0.0, 0.0])
        assert np.all(vals[:2] > 0)
