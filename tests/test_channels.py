"""Local Kraus channels: application, classification, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmon.channels import (
    ChannelValidationError,
    LocalKrausChannel,
    TAG_GENERAL,
    TAG_LOCAL_UNITARY,
    TAG_UNITARY_MIXTURE,
    apply_channel,
    apply_channel_to_pure,
    _outcome_stack,
    classify,
    random_channel,
    unitary_mixture_channel,
)
from entmon.sampling import haar_unitary, random_mixed, random_pure
from entmon.states import DensityMatrix, Dims, PureState, bell_state, partial_trace

X_FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])


def projective_b(d=2):
    eye = np.eye(d)
    return LocalKrausChannel("B", tuple(np.outer(eye[i], eye[i]) for i in range(d)))


class TestConstruction:
    def test_completeness_enforced(self):
        with pytest.raises(ChannelValidationError):
            LocalKrausChannel("B", (np.eye(2) * 0.5,))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ChannelValidationError):
            LocalKrausChannel("B", (np.eye(2), np.eye(3)))

    def test_bad_side_rejected(self):
        with pytest.raises(ChannelValidationError):
            LocalKrausChannel("C", (np.eye(2),))


class TestApply:
    def test_single_unitary(self):
        rng = np.random.default_rng(0)
        u = haar_unitary(2, rng)
        rho = random_mixed(Dims(2, 2), None, rng)
        ens = apply_channel(LocalKrausChannel("B", (u,)), rho)
        assert len(ens.outcomes) == 1
        p, sigma = ens.outcomes[0]
        assert p == pytest.approx(1.0, abs=1e-12)
        op = np.kron(np.eye(2), u)
        np.testing.assert_allclose(sigma.matrix, op @ rho.matrix @ op.conj().T, atol=1e-12)

    def test_side_a_embedding(self):
        rng = np.random.default_rng(1)
        u = haar_unitary(2, rng)
        rho = random_mixed(Dims(2, 3), None, rng)
        ens = apply_channel(LocalKrausChannel("A", (u,)), rho)
        op = np.kron(u, np.eye(3))
        np.testing.assert_allclose(
            ens.outcomes[0][1].matrix, op @ rho.matrix @ op.conj().T, atol=1e-12
        )

    def test_projective_measurement_on_bell(self):
        # Direct matrix computation: outcomes |00> and |11> with p = 1/2.
        ens = apply_channel(projective_b(), bell_state().density())
        assert len(ens.outcomes) == 2
        for (p, sigma), idx in zip(ens.outcomes, (0, 3)):
            assert p == pytest.approx(0.5, abs=1e-12)
            expected = np.zeros((4, 4))
            expected[idx, idx] = 1.0
            np.testing.assert_allclose(sigma.matrix, expected, atol=1e-12)

    def test_cptp_average(self):
        rng = np.random.default_rng(2)
        rho = random_mixed(Dims(2, 2), None, rng)
        channel = random_channel(2, 3, rng)
        ens = apply_channel(channel, rho)
        total = sum(
            np.kron(np.eye(2), m) @ rho.matrix @ np.kron(np.eye(2), m).conj().T
            for m in channel.kraus
        )
        np.testing.assert_allclose(ens.average_state().matrix, total, atol=1e-10)

    def test_probability_conservation(self):
        rng = np.random.default_rng(3)
        for t in range(50):
            rho = random_mixed(Dims(2, 3), None, rng)
            channel = random_channel(3, 2 + t % 3, rng)
            probs = apply_channel(channel, rho).probabilities
            assert abs(float(np.sum(probs)) - 1.0) <= 1e-9

    def test_purity_preservation(self):
        rng = np.random.default_rng(4)
        for t in range(30):
            psi = random_pure(Dims(2, 3), rng)
            channel = random_channel(3, 2 + t % 3, rng)
            for _, sigma in apply_channel(channel, psi.density()).outcomes:
                ev = np.linalg.eigvalsh(sigma.matrix)
                assert ev[-2] <= 1e-9  # second-largest eigenvalue

    def test_pure_path_matches_density_path(self):
        rng = np.random.default_rng(5)
        psi = random_pure(Dims(2, 2), rng)
        channel = random_channel(2, 2, rng)
        dense = apply_channel(channel, psi.density())
        fast = apply_channel_to_pure(channel, psi)
        for (p1, sigma), (p2, out) in zip(dense.outcomes, fast):
            assert p1 == pytest.approx(p2, abs=1e-12)
            np.testing.assert_allclose(sigma.matrix, out.density().matrix, atol=1e-10)

    def test_dimension_mismatch(self):
        from entmon.states import DimensionMismatchError

        rho = random_mixed(Dims(2, 3), None, np.random.default_rng(6))
        with pytest.raises(DimensionMismatchError):
            apply_channel(LocalKrausChannel("B", (np.eye(2),)), rho)


    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), c=st.floats(0.05, 1.0),
           log_eps=st.floats(-7.0, -3.0))
    def test_near_annihilating_kraus_outcome_is_a_state(self, seed, c, log_eps):
        # sqrt(c)|w><w| nearly annihilates a state whose B support is w-perp
        # plus noise eps: its outcome probability is ~eps^2, just above
        # P_FLOOR, and the outcome must still be a valid density matrix.
        rng = np.random.default_rng(seed)
        u = haar_unitary(2, rng)
        w, perp = u[:, 0], u[:, 1:]
        proj = np.outer(w, w.conj())
        channel = LocalKrausChannel("B", (math.sqrt(c) * proj,
                                          np.eye(2) - (1.0 - math.sqrt(1.0 - c)) * proj))
        g = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi = (g @ perp.T).reshape(-1)
        psi = psi / np.linalg.norm(psi) + 10.0 ** log_eps * z / np.linalg.norm(z)
        rho = PureState(psi / np.linalg.norm(psi), Dims(2, 2)).density()
        ens = apply_channel(channel, rho)
        avg = sum(np.kron(np.eye(2), m) @ rho.matrix @ np.kron(np.eye(2), m).conj().T
                  for m in channel.kraus)
        np.testing.assert_allclose(ens.average_state().matrix, avg, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), n_kraus=st.integers(1, 4),
           dims=st.sampled_from([(2, 2), (2, 3), (3, 2)]), side=st.sampled_from("AB"))
    def test_outcome_stack_matches_apply_channel(self, seed, n, n_kraus, dims, side):
        rng = np.random.default_rng(seed)
        dims = Dims(*dims)
        states = [random_mixed(dims, 1 + i % dims.total, rng) for i in range(n)]
        channel = random_channel(dims.factors[0 if side == "A" else 1], n_kraus, rng, side)
        probs, keep, outs = _outcome_stack(channel, np.stack([s.matrix for s in states]), dims)
        rows = np.cumsum(keep.sum(axis=1))
        for i, rho in enumerate(states):
            ens = apply_channel(channel, rho)
            mine = outs[rows[i] - keep[i].sum():rows[i]]
            assert ens.probabilities.tolist() == probs[i][keep[i]].tolist()
            assert all(np.array_equal(a, s.matrix) for a, s in zip(mine, ens.states))

    def test_dropped_outcomes_raise_no_warning(self):
        # An annihilated outcome (p = 0) is dropped without dividing by p;
        # pytest turns RuntimeWarnings into errors.
        rho = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]), Dims(2, 2))
        probs, keep, outs = _outcome_stack(projective_b(), rho.matrix[None], rho.dims)
        assert keep.tolist() == [[True, False]]
        assert probs.tolist() == [[1.0, 0.0]]
        assert len(outs) == 1


class TestClassify:
    def test_identity_is_local_unitary(self):
        assert classify(LocalKrausChannel("B", (np.eye(2),))).tag == TAG_LOCAL_UNITARY

    def test_weighted_unitaries(self):
        rng = np.random.default_rng(7)
        u1, u2 = haar_unitary(2, rng), haar_unitary(2, rng)
        channel = unitary_mixture_channel([0.3, 0.7], [u1, u2])
        cls = classify(channel)
        assert cls.tag == TAG_UNITARY_MIXTURE
        np.testing.assert_allclose(cls.details["weights"], [0.3, 0.7], atol=1e-12)

    def test_proportional_unitaries_collapse_to_local_unitary(self):
        u = haar_unitary(2, np.random.default_rng(8))
        channel = unitary_mixture_channel([0.5, 0.5], [u, 1j * u])
        assert classify(channel).tag == TAG_LOCAL_UNITARY

    def test_projectors_are_general(self):
        assert classify(projective_b()).tag == TAG_GENERAL

    def test_single_weight_is_local_unitary(self):
        u = haar_unitary(3, np.random.default_rng(9))
        assert classify(unitary_mixture_channel([1.0], [u])).tag == TAG_LOCAL_UNITARY


class TestRandomChannel:
    def test_single_kraus_is_unitary(self):
        channel = random_channel(2, 1, np.random.default_rng(10))
        assert classify(channel).tag == TAG_LOCAL_UNITARY

    def test_completeness_residual(self):
        channel = random_channel(2, 2, np.random.default_rng(11))
        total = sum(m.conj().T @ m for m in channel.kraus)
        assert np.linalg.norm(total - np.eye(2)) < 1e-12

    @pytest.mark.parametrize("n_kraus", [2, 3, 4])
    def test_multi_kraus_classifies_general(self, n_kraus):
        # 1000 seeded draws across the three outcome counts.
        rng = np.random.default_rng(100 + n_kraus)
        for _ in range(334):
            assert classify(random_channel(2, n_kraus, rng)).tag == TAG_GENERAL

    def test_unitary_mixture_validation(self):
        with pytest.raises(ChannelValidationError):
            unitary_mixture_channel([0.6, 0.6], [np.eye(2), X_FLIP])
        with pytest.raises(ChannelValidationError):
            unitary_mixture_channel([1.0], [np.diag([1.0, 0.5])])


class TestUnitaryMixtureInvariance:
    def test_outcomes_preserve_measures(self):
        # Each outcome is a local rotation, so every unitary-invariant
        # measure is preserved and the average equals the input value.
        from entmon.measures import negativity

        rng = np.random.default_rng(12)
        rho = random_mixed(Dims(2, 2), None, rng)
        channel = unitary_mixture_channel(
            [0.5, 0.5], [np.eye(2), X_FLIP]
        )
        ens = apply_channel(channel, rho)
        base = negativity(rho).value
        avg = sum(p * negativity(s).value for p, s in ens.outcomes)
        assert avg == pytest.approx(base, abs=1e-10)

    def test_mixture_outcomes_fix_reduced_state(self):
        rng = np.random.default_rng(13)
        rho = random_mixed(Dims(2, 2), None, rng)
        channel = unitary_mixture_channel(
            [0.25, 0.75], [haar_unitary(2, rng), haar_unitary(2, rng)], side="B"
        )
        rho_a = partial_trace(rho, "A").matrix
        for _, sigma in apply_channel(channel, rho).outcomes:
            np.testing.assert_allclose(partial_trace(sigma, "A").matrix, rho_a, atol=1e-10)
