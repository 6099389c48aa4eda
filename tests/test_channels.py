"""Local Kraus channels: application, classification, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmon.channels import (
    P_FLOOR,
    ChannelValidationError,
    LocalKrausChannel,
    TAG_GENERAL,
    TAG_LOCAL_UNITARY,
    TAG_UNITARY_MIXTURE,
    apply_channel,
    apply_channel_to_pure,
    _embedded_kraus,
    _outcome_stack,
    _padded_kraus,
    classify,
    random_channel,
    unitary_mixture_channel,
)
from entmon.registry import PURITY_TOL
from entmon.sampling import haar_unitary, random_mixed, random_pure, random_pure_stack
from entmon.states import DensityMatrix, Dims, PureState, bell_state, partial_trace

X_FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])


def projective_b(d=2):
    eye = np.eye(d)
    return LocalKrausChannel("B", tuple(np.outer(eye[i], eye[i]) for i in range(d)))


class TestConstruction:
    def test_value_equality_is_a_bool(self):
        # Known defect 11: equal families built from distinct arrays.
        assert (LocalKrausChannel("B", (np.eye(2),)) == LocalKrausChannel("B", (np.eye(2),))) is True
        assert (LocalKrausChannel("A", (np.eye(2),)) == LocalKrausChannel("B", (np.eye(2),))) is False
        assert (LocalKrausChannel("B", (X_FLIP,)) == LocalKrausChannel("B", (np.eye(2),))) is False
        assert (projective_b() == LocalKrausChannel("B", (np.eye(2),))) is False

    def test_completeness_enforced(self):
        with pytest.raises(ChannelValidationError):
            LocalKrausChannel("B", (np.eye(2) * 0.5,))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ChannelValidationError):
            LocalKrausChannel("B", (np.eye(2), np.eye(3)))

    def test_bad_side_rejected(self):
        with pytest.raises(ChannelValidationError):
            LocalKrausChannel("C", (np.eye(2),))


def _near_annihilating(dims, side, eps, rng):
    """A family sqrt(c)|w><w|, sqrt(1 - c)|w><w| + w-perp projector on
    ``side``, and a pure state whose support there is w-perp up to
    amplitude noise ``eps``."""
    d = dims.factors[0 if side == "A" else 1]
    other = dims.total // d
    u = haar_unitary(d, rng)
    w, perp = u[:, 0], u[:, 1:]
    c = float(rng.uniform(0.05, 1.0))
    proj = np.outer(w, w.conj())
    channel = LocalKrausChannel(side, (math.sqrt(c) * proj,
                                       np.eye(d) - (1.0 - math.sqrt(1.0 - c)) * proj))
    g = rng.standard_normal((other, d - 1)) + 1j * rng.standard_normal((other, d - 1))
    psi = g @ perp.T  # (other, d): rows over the other factor
    psi = (psi if side == "B" else psi.T).reshape(-1)
    z = rng.standard_normal(dims.total) + 1j * rng.standard_normal(dims.total)
    psi = psi / np.linalg.norm(psi) + eps * z / np.linalg.norm(z)
    psi = psi / np.linalg.norm(psi)
    return channel, np.outer(psi, psi.conj())


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
        # A pure input has pure outcomes, within the purity tolerance of the
        # pure-state measures, however small their probability.
        for s in ens.states:
            assert 1.0 - np.linalg.eigvalsh(s.matrix)[-1] <= PURITY_TOL

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_kraus=st.integers(1, 4),
           dims=st.sampled_from([(2, 2), (2, 3), (3, 2)]), side=st.sampled_from("AB"))
    def test_embedded_kraus_equals_kron(self, seed, n_kraus, dims, side):
        d = dims[0 if side == "A" else 1]
        channel = random_channel(d, n_kraus, np.random.default_rng(seed), side)
        eye = np.eye(dims[1] if side == "A" else dims[0])
        kron = [np.kron(m, eye) if side == "A" else np.kron(eye, m) for m in channel.kraus]
        assert np.array_equal(_embedded_kraus(np.stack(channel.kraus), side, Dims(*dims)),
                              np.stack(kron))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), n_kraus=st.integers(1, 4),
           dims=st.sampled_from([(2, 2), (2, 3), (3, 2)]), side=st.sampled_from("AB"))
    def test_outcome_stack_matches_apply_channel(self, seed, n, n_kraus, dims, side):
        rng = np.random.default_rng(seed)
        dims = Dims(*dims)
        states = [random_mixed(dims, 1 + i % dims.total, rng) for i in range(n)]
        channel = random_channel(dims.factors[0 if side == "A" else 1], n_kraus, rng, side)
        probs, keep, outs = _outcome_stack(np.stack(channel.kraus), side,
                                           np.stack([s.matrix for s in states]), dims)
        rows = np.cumsum(keep.sum(axis=1))
        for i, rho in enumerate(states):
            ens = apply_channel(channel, rho)
            mine = outs[rows[i] - keep[i].sum():rows[i]]
            assert ens.probabilities.tolist() == probs[i][keep[i]].tolist()
            assert all(np.array_equal(a, s.matrix) for a, s in zip(mine, ens.states))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
           dims=st.sampled_from([(2, 2), (2, 3), (3, 2)]), side=st.sampled_from("AB"))
    def test_padded_kraus_stack_matches_one_call_per_channel(self, seed, n, dims, side):
        # Every state gets its own channel, of 1-4 operators; the first is
        # near-annihilating on its state (outcomes of p ~ 1e-20 to 1e-6,
        # some dropped).  Padding to the largest family adds zero operators,
        # whose outcomes (p = 0) are dropped, and changes no bit elsewhere.
        rng = np.random.default_rng(seed)
        dims = Dims(*dims)
        d = dims.factors[0 if side == "A" else 1]
        states, channels = [], []
        for i in range(n):
            if i == 0:
                channel, rho = _near_annihilating(dims, side, 10.0 ** rng.uniform(-10, -3), rng)
            else:
                channel = random_channel(d, int(rng.integers(1, 5)), rng, side)
                rho = random_mixed(dims, 1 + i % dims.total, rng).matrix
            states.append(rho)
            channels.append(channel)
        kraus = _padded_kraus([c.kraus for c in channels])
        probs, keep, outs = _outcome_stack(kraus, side, np.stack(states), dims)
        assert kraus.shape[1] == max(len(c.kraus) for c in channels)
        start = 0
        for i, (channel, rho) in enumerate(zip(channels, states)):
            p1, k1, o1 = _outcome_stack(np.stack(channel.kraus), side, rho[None], dims)
            k = len(channel.kraus)
            assert keep[i, :k].tolist() == k1[0].tolist() and not keep[i, k:].any()
            assert probs[i, :k].tobytes() == p1[0].tobytes() and not probs[i, k:].any()
            assert outs[start:start + len(o1)].tobytes() == o1.tobytes()
            start += len(o1)
        assert start == len(outs)

    def test_dropped_outcomes_raise_no_warning(self):
        # An annihilated outcome (p = 0) is dropped without dividing by p;
        # pytest turns RuntimeWarnings into errors.
        rho = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]), Dims(2, 2))
        probs, keep, outs = _outcome_stack(np.stack(projective_b().kraus), "B", rho.matrix[None],
                                           rho.dims)
        assert keep.tolist() == [[True, False]]
        assert probs.tolist() == [[1.0, 0.0]]
        assert len(outs) == 1


class TestNonFiniteInputs:
    """Non-finite entries are refused before any matrix product; pytest
    turns the product's RuntimeWarning into an error."""

    def test_kraus_family(self):
        with pytest.raises(ChannelValidationError, match="non-finite"):
            LocalKrausChannel("B", (np.full((2, 2), np.nan),))

    def test_mixture_unitary(self):
        bad = np.eye(2)
        bad[0, 1] = np.nan
        with pytest.raises(ChannelValidationError, match="must be finite"):
            unitary_mixture_channel([0.5, 0.5], [np.eye(2), bad])

    def test_mixture_weight(self):
        u = haar_unitary(2, np.random.default_rng(5))
        with pytest.raises(ChannelValidationError, match="must be finite"):
            unitary_mixture_channel([np.nan, 1.0], [u, u])


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


# ---------------------------------------------------------------------------
# The stacked channel build.  Each draw takes its Ginibre matrices from its
# own generator; ``_build_channels`` then builds all draws of one kind and
# shape with one stacked QR.  The references below build one channel at a
# time, as the per-channel code did: one ``np.linalg.qr`` per matrix, a
# copied block per Kraus operator, one ``sqrt(w) U`` per mixture operator.


def _reference_haar(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _reference_general(d, n_kraus, rng):
    v = _reference_haar(n_kraus * d, rng)[:, :d]
    return [v[k * d:(k + 1) * d, :].copy() for k in range(n_kraus)]


def _reference_mixture(d, n_unitaries, rng):
    w = rng.dirichlet(np.ones(n_unitaries))
    us = [_reference_haar(d, rng) for _ in range(n_unitaries)]
    return [np.sqrt(wk) * u for wk, u in zip(w, us) if wk > 1e-15]


# A draw spec: (mixture, d, K).
DRAW_SPECS = st.lists(st.tuples(st.booleans(), st.sampled_from([2, 3]), st.integers(1, 4)),
                      min_size=1, max_size=12)


def _assert_same_family(channel, reference):
    assert len(channel.kraus) == len(reference)
    for m, ref in zip(channel.kraus, reference):
        assert m.dtype == np.complex128 and m.shape == ref.shape
        assert np.array_equal(m, ref)


class TestStackedChannelBuildMatchesPerDrawReferences:
    @settings(max_examples=60, deadline=None)
    @given(specs=DRAW_SPECS, seed=st.integers(0, 2**32 - 1))
    def test_build(self, specs, seed):
        from entmon.channels import _build_channels, _draw_channel, _draw_mixture

        gens = [np.random.default_rng([seed, i]) for i in range(len(specs))]
        refs = [np.random.default_rng([seed, i]) for i in range(len(specs))]
        draws = [(_draw_mixture if mixture else _draw_channel)(d, k, rng)
                 for (mixture, d, k), rng in zip(specs, gens)]
        channels = _build_channels(draws)
        for (mixture, d, k), channel, rng, ref_rng in zip(specs, channels, gens, refs):
            reference = (_reference_mixture if mixture else _reference_general)(d, k, ref_rng)
            _assert_same_family(channel, reference)
            assert channel.side == "B"
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        # A built draw keeps its channel; a channel passes as it is.
        again = _build_channels(draws + channels[:1])
        assert all(a is b for a, b in zip(again, channels + channels[:1]))

    @settings(max_examples=40, deadline=None)
    @given(mixture=st.booleans(), d=st.sampled_from([2, 3]), k=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1), side=st.sampled_from(["A", "B"]))
    def test_one_draw_cases(self, mixture, d, k, seed, side):
        from entmon.channels import _build_channels, _draw_mixture

        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        channel = _build_channels([_draw_mixture(d, k, rng, side)])[0] if mixture \
            else random_channel(d, k, rng, side=side)
        _assert_same_family(channel, (_reference_mixture if mixture else _reference_general)(
            d, k, ref_rng))
        assert channel.side == side
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestStackChecksKeepTodaysMessages:
    """A fault in one member of a stack raises what the per-channel check
    raised on that member alone."""

    def test_completeness(self):
        from entmon.channels import _check_families

        kraus = np.stack([np.stack(random_channel(2, 3, np.random.default_rng(s)).kraus)
                          for s in range(5)])
        kraus[3, 1] *= 1.01
        total = sum(m.conj().T @ m for m in kraus[3])
        residual = float(np.linalg.norm(total - np.eye(2)))  # the per-channel residual
        with pytest.raises(ChannelValidationError, match="completeness residual") as stacked:
            _check_families("B", kraus)
        number = float(str(stacked.value).split()[2])
        assert number == pytest.approx(residual, rel=1e-12)
        assert str(stacked.value) == f"completeness residual {number} exceeds 1e-08"
        with pytest.raises(ChannelValidationError, match="completeness residual"):
            LocalKrausChannel("B", tuple(kraus[3]))
        with pytest.raises(ChannelValidationError, match="side must be 'A' or 'B'"):
            _check_families("C", kraus[:1])

    def test_mixture_unitarity_and_weights(self):
        from entmon.channels import _unitary_mixtures

        rng = np.random.default_rng(3)
        weights = rng.dirichlet(np.ones(2), size=4)
        unitaries = np.stack([[haar_unitary(2, rng) for _ in range(2)] for _ in range(4)])
        assert len(_unitary_mixtures(weights, unitaries, "B")) == 4
        dropped = _unitary_mixtures(np.array([[1.0, 0.0], [0.5, 0.5]]), unitaries[:2], "B")
        assert [len(c.kraus) for c in dropped] == [1, 2]  # a zero weight drops its operator
        _assert_same_family(dropped[0], [unitaries[0, 0]])
        bad = unitaries.copy()
        bad[2, 1] *= 1.001
        with pytest.raises(ChannelValidationError) as per_channel:
            unitary_mixture_channel(weights[2], list(bad[2]))
        with pytest.raises(ChannelValidationError) as stacked:
            _unitary_mixtures(weights, bad, "B")
        assert str(stacked.value) == str(per_channel.value) == \
            "all operators must be unitary within 1e-10"
        bad_w = weights.copy()
        bad_w[1] = [0.6, 0.6]
        with pytest.raises(ChannelValidationError) as per_channel:
            unitary_mixture_channel(bad_w[1], list(unitaries[1]))
        with pytest.raises(ChannelValidationError) as stacked:
            _unitary_mixtures(bad_w, unitaries, "B")
        assert str(stacked.value) == str(per_channel.value) == \
            "weights must be nonnegative and sum to 1"

    def test_public_mixture_shapes(self):
        with pytest.raises(ChannelValidationError, match="equal length"):
            unitary_mixture_channel([0.5, 0.5], [np.eye(2)])

    @pytest.mark.parametrize("ops", [[np.ones((2, 3))], [np.eye(2), np.eye(3)],
                                     [np.eye(2)[None]]], ids=["non-square", "unequal", "3-d"])
    def test_one_shape_rule_for_both_constructors(self, ops):
        # A shape fault is named as one, before any product: a non-square
        # operator once read as "not unitary" in a mixture.
        with pytest.raises(ChannelValidationError, match="square and equal-sized"):
            LocalKrausChannel("B", tuple(ops))
        with pytest.raises(ChannelValidationError, match="square and equal-sized"):
            unitary_mixture_channel(np.full(len(ops), 1.0 / len(ops)), ops)


def _reference_classify(channel):
    """``classify`` as it was before the stack kernel: one operator at a time."""
    from entmon.channels import PROPORTIONALITY_TOL, ChannelClass, _proportional

    d = channel.dim
    constants = []
    for m in channel.kraus:
        g = m.conj().T @ m
        c = float(np.real(np.trace(g))) / d
        if c <= 0.0 or float(np.linalg.norm(g - c * np.eye(d))) > PROPORTIONALITY_TOL:
            return ChannelClass(TAG_GENERAL)
        constants.append(c)
    if len(channel.kraus) == 1 or all(_proportional(channel.kraus[0], m, PROPORTIONALITY_TOL)
                                      for m in channel.kraus[1:]):
        return ChannelClass(TAG_LOCAL_UNITARY, {"weights": constants})
    return ChannelClass(TAG_UNITARY_MIXTURE, {"weights": constants})


class TestClassifyStack:
    """Each channel is classified by the check of the stack it was built in."""

    @settings(max_examples=60, deadline=None)
    @given(specs=DRAW_SPECS, seed=st.integers(0, 2**32 - 1))
    def test_stack_drawn_channels(self, specs, seed):
        from entmon.channels import _build_channels, _draw_channel, _draw_mixture

        draws = [(_draw_mixture if mixture else _draw_channel)(d, k, np.random.default_rng([seed, i]))
                 for i, (mixture, d, k) in enumerate(specs)]
        channels = _build_channels(draws)
        classes = [classify(c) for c in channels]
        assert classes == [_reference_classify(c) for c in channels]
        for (mixture, _, k), cls in zip(specs, classes):
            if mixture:  # a drawn mixture is never called general
                assert cls.tag in (TAG_UNITARY_MIXTURE, TAG_LOCAL_UNITARY)
            elif k >= 2:  # a drawn general family is never called a mixture
                assert cls.tag == TAG_GENERAL

    def test_hand_made_channels(self):
        rng = np.random.default_rng(30)
        u = haar_unitary(2, rng)
        channels = [LocalKrausChannel("B", (np.eye(2),)), projective_b(), projective_b(3),
                    unitary_mixture_channel([0.3, 0.7], [u, haar_unitary(2, rng)]),
                    unitary_mixture_channel([0.5, 0.5], [u, 1j * u]),
                    LocalKrausChannel("B", (np.eye(2), np.zeros((2, 2))))]
        assert [classify(c) for c in channels] == [_reference_classify(c) for c in channels]
        assert [classify(c).tag for c in channels] == [
            TAG_LOCAL_UNITARY, TAG_GENERAL, TAG_GENERAL, TAG_UNITARY_MIXTURE, TAG_LOCAL_UNITARY,
            TAG_GENERAL]

    def test_dropped_weight_leaves_no_padding_in_the_class(self):
        # The stack check sees the zero operator padded in for the dropped
        # weight; the class holds the kept operator's weight only.
        rng = np.random.default_rng(31)
        u1, u2, u3 = (haar_unitary(2, rng) for _ in range(3))
        for weights, tag in (([0.4, 1e-16, 0.6], TAG_UNITARY_MIXTURE),
                             ([1.0, 1e-15], TAG_LOCAL_UNITARY)):
            channel = unitary_mixture_channel(weights, [u1, u2, u3][:len(weights)])
            cls = classify(channel)
            assert len(channel.kraus) == len(cls.details["weights"]) == len(weights) - 1
            assert cls == _reference_classify(channel)  # tag and exact weights
            assert cls.tag == tag

    def test_explicit_zero_operator_stays_general(self):
        u = haar_unitary(2, np.random.default_rng(32))
        channel = LocalKrausChannel("B", (u, np.zeros((2, 2))))
        assert classify(channel) == _reference_classify(channel)
        assert classify(channel).tag == TAG_GENERAL
        assert classify(channel).details == {}

    @pytest.mark.parametrize("mixture", [False, True])
    def test_build_paths_agree(self, mixture):
        from entmon.channels import _build_channels, _draw_channel, _draw_mixture

        draws = [(_draw_mixture if mixture else _draw_channel)(d, k, np.random.default_rng(k))
                 for d in (2, 3) for k in (1, 2, 3)]
        for built in _build_channels(draws):
            user = LocalKrausChannel(built.side, built.kraus)
            assert user == built
            assert classify(user) == classify(built) == _reference_classify(built)

    def test_class_is_no_part_of_repr_or_equality(self):
        channel = projective_b()
        assert "channel_class" not in repr(channel)
        assert "general" not in repr(channel)
        other = LocalKrausChannel("B", channel.kraus)
        object.__setattr__(other, "channel_class", None)
        assert other == channel


# ---------------------------------------------------------------------------
# The vector kernel: ``apply_channel_to_pure`` is its one-state case.


def _former_apply_channel_to_pure(channel, psi):
    """``apply_channel_to_pure`` as it was before the stacked vector kernel, one
    matrix-vector product per channel; kept as the reference that the
    kernel's one-state case must match bit for bit."""
    vs = _embedded_kraus(np.stack(channel.kraus), channel.side, psi.dims) @ psi.amplitudes
    p = (vs.conj()[:, None, :] @ vs[:, :, None])[:, 0, 0].real
    keep = p >= P_FLOOR
    total = float(sum(p[keep]))
    return [(float(pk) / total, PureState(v / np.sqrt(pk), psi.dims))
            for pk, v in zip(p[keep], vs[keep])]


class TestVectorOutcomes:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]),
           side=st.sampled_from("AB"), kind=st.sampled_from(["general", "mixture", "annihilating"]),
           k=st.integers(1, 4))
    def test_one_state_case_is_bit_identical_to_the_former_body(self, seed, dims, side, kind, k):
        rng = np.random.default_rng(seed)
        dims = Dims(*dims)
        d = dims.factors["AB".index(side)]
        if kind == "annihilating":  # outcomes of p ~ 1e-20 to 1e-6, some dropped
            channel, proj = _near_annihilating(dims, side, 10.0 ** rng.uniform(-10, -3), rng)
            psi = PureState(np.linalg.eigh(proj)[1][:, -1], dims)
        else:
            psi = random_pure(dims, rng)
            channel = random_channel(d, k, rng, side) if kind == "general" else \
                unitary_mixture_channel(rng.dirichlet(np.ones(k)),
                                        [haar_unitary(d, rng) for _ in range(k)], side)
        former = _former_apply_channel_to_pure(channel, psi)
        now = apply_channel_to_pure(channel, psi)
        assert [p for p, _ in now] == [p for p, _ in former]
        assert all(np.array_equal(a.amplitudes, b.amplitudes) for (_, a), (_, b) in zip(now, former))

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_stack_of_families_matches_one_state_at_a_time(self, dims):
        # Each state carries its own family of 1-4 operators, zero-padded.
        rng = np.random.default_rng(sum(dims))
        dims = Dims(*dims)
        channels = [random_channel(dims.dB, 1 + t % 4, rng) for t in range(9)]
        amps = random_pure_stack(dims, 9, rng)
        probs, keep, vectors = _outcome_stack(_padded_kraus([c.kraus for c in channels]), "B",
                                                amps, dims)
        one_by_one = [apply_channel_to_pure(c, PureState(a, dims)) for c, a in zip(channels, amps)]
        assert probs[keep].tolist() == [p for outs in one_by_one for p, _ in outs]
        assert np.array_equal(vectors, [o.amplitudes for outs in one_by_one for _, o in outs])
        assert np.array_equal(probs.sum(axis=1) > 0, np.ones(9, bool))

    def test_tripartite_state_is_refused(self):
        from entmon.states import DimensionMismatchError

        with pytest.raises(DimensionMismatchError, match="bipartite"):
            _outcome_stack(np.eye(2)[None], "B", np.eye(8)[:1], Dims(2, 2, 2))


def test_general_families_of_one_side_and_dimension_are_checked_once(monkeypatch):
    # Families of 2-4 operators on one (side, d) are one zero-padded stack
    # for _check_families, with the classes each family's own check gives.
    from entmon import channels
    from entmon.channels import _build_channels, _draw_channel, _draw_mixture

    rng = np.random.default_rng(33)
    draws = [_draw_channel(3, 2 + t % 3, rng) for t in range(7)]
    draws += [_draw_channel(2, 3, rng), _draw_channel(3, 2, rng, side="A"),
              _draw_mixture(3, 2, rng), _draw_mixture(3, 3, rng)]
    calls = []
    check = channels._check_families

    def counted(side, kraus, live=None):
        calls.append((side, kraus.shape, live is not None))
        return check(side, kraus, live)

    monkeypatch.setattr(channels, "_check_families", counted)
    built = _build_channels(draws)
    general = [("B", (7, 4, 3, 3), True), ("B", (1, 3, 2, 2), True), ("A", (1, 2, 3, 3), True)]
    mixtures = [("B", (1, 2, 3, 3), True), ("B", (1, 3, 3, 3), True)]
    assert sorted(calls) == sorted(general + mixtures)
    monkeypatch.undo()
    for channel in built:
        alone = LocalKrausChannel(channel.side, channel.kraus)
        assert classify(alone) == classify(channel)
