"""h-functions, pure-state measures, and mixed-state closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmon.measures import (
    CONCURRENCE,
    ENTROPY,
    G_CONCURRENCE,
    HFunction,
    MeasureValue,
    NEGATIVITY_H,
    TANGLE,
    h_eval,
    h_of_spectrum,
    log_negativity,
    log_negativity_of_norms,
    negativity,
    negativity_of_norms,
    pt_trace_norms,
    pure_measure,
    pure_measure_stack,
    pure_pt_trace_norms,
    renyi,
    tsallis,
    wootters_concurrence,
    wootters_concurrence_stack,
    wootters_eof,
    wootters_eof_stack,
)
from entmon.sampling import haar_unitary, random_mixed, random_product_pure, random_pure
from entmon.states import (
    DensityMatrix,
    DimensionMismatchError,
    Dims,
    PureState,
    TOL_NORM,
    bell_state,
    max_entangled,
    partial_transpose,
    product_pure,
    projector_stack,
    trace_norm,
    werner_state,
)

ALL_H = (ENTROPY, CONCURRENCE, G_CONCURRENCE, TANGLE, NEGATIVITY_H,
         renyi(0.3), renyi(0.7), tsallis(0.5), tsallis(2.0), tsallis(3.0))


def qubit_dm(*diag):
    return DensityMatrix(np.diag(diag), Dims(len(diag)))


class TestHFunction:
    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            HFunction("renyi", 0.0)
        with pytest.raises(ValueError):
            HFunction("renyi", 1.2)
        with pytest.raises(ValueError):
            HFunction("tsallis", 1.0)
        with pytest.raises(ValueError):
            HFunction("tsallis", -0.5)
        with pytest.raises(ValueError):
            HFunction("entropy", 2.0)
        with pytest.raises(ValueError):
            HFunction("spooky")
        assert renyi(1.0).param == 1.0  # closed endpoint reduces to entropy
        mu = np.array([[0.0, 0.2, 0.8], [1e-14, 0.5, 0.5], [0.3, 0.3, 0.4]])
        assert np.array_equal(h_of_spectrum(renyi(1.0), mu), h_of_spectrum(ENTROPY, mu))

    @pytest.mark.parametrize("kind,param", [("tsallis", math.nan), ("tsallis", math.inf),
                                            ("tsallis", -math.inf), ("renyi", math.nan),
                                            ("renyi", math.inf)])
    def test_non_finite_orders_rejected(self, kind, param):
        with pytest.raises(ValueError, match=f"{kind} order must"):
            HFunction(kind, param)

    def test_measure_ids(self):
        assert ENTROPY.measure_id == "eof"
        assert renyi(0.5).measure_id == "renyi:0.5"
        assert tsallis(2.0).measure_id == "tsallis:2"


class TestHEval:
    def test_maximally_mixed_closed_forms(self):
        half = qubit_dm(0.5, 0.5)
        assert h_eval(ENTROPY, half) == pytest.approx(math.log(2), abs=1e-12)
        assert h_eval(CONCURRENCE, half) == pytest.approx(1.0, abs=1e-12)
        assert h_eval(TANGLE, half) == pytest.approx(1.0, abs=1e-12)
        third = qubit_dm(1 / 3, 1 / 3, 1 / 3)
        assert h_eval(G_CONCURRENCE, third) == pytest.approx(1.0, abs=1e-12)

    def test_renyi_oracle(self):
        # Direct formula evaluation as the oracle.
        val = h_eval(renyi(0.5), qubit_dm(0.9, 0.1))
        assert val == pytest.approx(2.0 * math.log(math.sqrt(0.9) + math.sqrt(0.1)), abs=1e-12)

    def test_tsallis_oracle(self):
        val = h_eval(tsallis(2.0), qubit_dm(0.9, 0.1))
        assert val == pytest.approx(1.0 - (0.81 + 0.01), abs=1e-12)

    def test_zero_exactly_on_pure(self):
        pure = qubit_dm(1.0, 0.0)
        mixed = qubit_dm(0.999, 0.001)
        for h in ALL_H:
            assert abs(h_eval(h, pure)) <= 1e-10
            assert h_eval(h, mixed) > 1e-10 or h.kind == "g-concurrence"
        assert h_eval(G_CONCURRENCE, mixed) > 1e-10

    def test_unitary_invariance(self):
        rng = np.random.default_rng(8)
        rho = random_mixed(Dims(3), None, rng)
        u = haar_unitary(3, rng)
        rotated = DensityMatrix(u @ rho.matrix @ u.conj().T, rho.dims)
        for h in ALL_H:
            assert h_eval(h, rotated) == pytest.approx(h_eval(h, rho), abs=1e-9)

    def test_renyi_limit_approaches_entropy(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            rho = random_mixed(Dims(3), None, rng)
            assert h_eval(renyi(0.999), rho) == pytest.approx(
                h_eval(ENTROPY, rho), abs=1e-2
            )


class TestLocalUnitaryInvariance:
    def test_every_measure_is_invariant(self):
        from entmon.registry import evaluate_measure

        rng = np.random.default_rng(23)
        mixed_ids = ("negativity", "log-negativity", "eof", "concurrence")
        pure_ids = ("tangle", "g-concurrence", "renyi:0.5", "tsallis:2")
        for _ in range(10):
            u = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
            rho = random_mixed(Dims(2, 2), None, rng)
            rotated = DensityMatrix(u @ rho.matrix @ u.conj().T, rho.dims)
            for mid in mixed_ids:
                assert evaluate_measure(mid, rotated).value == pytest.approx(
                    evaluate_measure(mid, rho).value, abs=1e-9
                )
            psi = random_pure(Dims(2, 2), rng)
            psi_rot = DensityMatrix(
                u @ psi.density().matrix @ u.conj().T, psi.dims
            )
            for mid in mixed_ids + pure_ids:
                assert evaluate_measure(mid, psi_rot).value == pytest.approx(
                    evaluate_measure(mid, psi.density()).value, abs=1e-9
                )


class TestPureMeasures:
    def test_bell_entropy(self):
        assert pure_measure(ENTROPY, bell_state()).value == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_product_state_is_zero_for_every_h(self):
        psi = product_pure(np.array([0.6, 0.8j]), np.array([1.0, 1.0]))
        for h in ALL_H:
            assert pure_measure(h, psi).value == pytest.approx(0.0, abs=1e-10)

    def test_bell_negativity_h(self):
        # ((sqrt(1/2) + sqrt(1/2))^2 - 1) / 2 = 1/2, cross-checked against
        # the mixed-state negativity below.
        val = pure_measure(NEGATIVITY_H, bell_state()).value
        assert val == pytest.approx(0.5, abs=1e-12)
        assert val == pytest.approx(negativity(bell_state().density()).value, abs=1e-10)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_negativity_consistency_on_haar_states(self, dims):
        rng = np.random.default_rng(sum(dims))
        for _ in range(10):
            psi = random_pure(Dims(*dims), rng)
            assert pure_measure(NEGATIVITY_H, psi).value == pytest.approx(
                negativity(psi.density()).value, abs=1e-10
            )


class TestNegativity:
    def test_separable_is_zero(self):
        from entmon.sampling import random_separable

        rng = np.random.default_rng(4)
        for _ in range(10):
            rho = random_separable(Dims(2, 2), 4, rng)
            assert negativity(rho).value <= 1e-10

    def test_bell_value(self):
        assert negativity(bell_state().density()).value == pytest.approx(0.5, abs=1e-12)

    def test_max_entangled_3x3(self):
        # ((sum_{i<=3} 1/sqrt(3))^2 - 1)/2 = 1 via the Schmidt formula.
        assert negativity(max_entangled(3).density()).value == pytest.approx(1.0, abs=1e-10)

    def test_measure_value_clips_roundoff(self):
        assert MeasureValue(-5e-13, "negativity").value == 0.0
        with pytest.raises(ValueError):
            MeasureValue(-1e-6, "negativity")


class TestLogNegativity:
    def test_bell_is_one_bit(self):
        assert log_negativity(bell_state().density()).value == pytest.approx(1.0, abs=1e-12)

    def test_separable_is_zero(self):
        from entmon.sampling import random_separable

        rho = random_separable(Dims(2, 2), 4, np.random.default_rng(6))
        assert log_negativity(rho).value == pytest.approx(0.0, abs=1e-9)

    def test_trace_norm_identity(self):
        # Werner p = 0.6 has N = (3p-1)/4 = 0.2, so E_N = log2(1.4).
        rho = werner_state(0.6)
        assert negativity(rho).value == pytest.approx(0.2, abs=1e-12)
        assert log_negativity(rho).value == pytest.approx(math.log2(1.4), abs=1e-12)


class TestWootters:
    def test_bell_state(self):
        dm = bell_state().density()
        assert wootters_concurrence(dm) == pytest.approx(1.0, abs=1e-10)
        assert wootters_eof(dm) == pytest.approx(math.log(2), abs=1e-10)

    def test_werner_oracle(self):
        # C = (3p - 1)/2 for Werner states with p > 1/3.
        assert wootters_concurrence(werner_state(0.9)) == pytest.approx(0.85, abs=1e-10)

    def test_separable_diagonal(self):
        dm = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]), Dims(2, 2))
        assert wootters_concurrence(dm) == 0.0
        assert wootters_eof(dm) == 0.0

    def test_pure_states_match_entropy(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            psi = random_pure(Dims(2, 2), rng)
            assert wootters_eof(psi.density()) == pytest.approx(
                pure_measure(ENTROPY, psi).value, abs=1e-10
            )

    def test_requires_two_qubits(self):
        with pytest.raises(DimensionMismatchError):
            wootters_concurrence(random_mixed(Dims(2, 3), None, np.random.default_rng(0)))


def _random_stack(dims, n, rng):
    """States of every rank, so clipped and degenerate spectra occur."""
    total = dims.total
    return [random_mixed(dims, 1 + i % total, rng) for i in range(n)]


class TestStackKernels:
    """Each stack kernel returns, member by member, exactly the per-state value."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9),
           dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]))
    def test_pt_trace_norm_bit_for_bit(self, seed, n, dims):
        states = _random_stack(Dims(*dims), n, np.random.default_rng(seed))
        stacked = pt_trace_norms(np.stack([s.matrix for s in states]), Dims(*dims))
        pts = [partial_transpose(s, "A") for s in states]
        assert stacked.tolist() == [trace_norm(pt) / np.sum(np.linalg.eigvalsh(pt)) for pt in pts]
        assert negativity_of_norms(stacked).tolist() == [negativity(s).value for s in states]
        assert log_negativity_of_norms(stacked).tolist() == \
            [log_negativity(s).value for s in states]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9))
    def test_wootters_bit_for_bit(self, seed, n):
        states = _random_stack(Dims(2, 2), n, np.random.default_rng(seed))
        mats = np.stack([s.matrix for s in states])
        assert wootters_concurrence_stack(mats).tolist() == \
            [wootters_concurrence(s) for s in states]
        assert wootters_eof_stack(mats).tolist() == [wootters_eof(s) for s in states]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
           dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]),
           h=st.sampled_from(ALL_H))
    def test_pure_measure_bit_for_bit(self, seed, n, dims, h):
        rng = np.random.default_rng(seed)
        states = [random_pure(Dims(*dims), rng) for _ in range(n)]
        stacked = pure_measure_stack(h, np.stack([s.amplitudes for s in states]), Dims(*dims))
        assert stacked.tolist() == [pure_measure(h, s).value for s in states]

    def test_stack_leading_axes_are_free(self):
        states = _random_stack(Dims(2, 3), 6, np.random.default_rng(3))
        mats = np.stack([s.matrix for s in states])
        flat = pt_trace_norms(mats, Dims(2, 3))
        assert np.array_equal(pt_trace_norms(mats.reshape(2, 3, 6, 6), Dims(2, 3)),
                              flat.reshape(2, 3))

    def test_roundoff_floor_applies_to_every_member(self):
        norms = np.array([1.5, 1.0 - 1e-13, 1.0])
        assert negativity_of_norms(norms).tolist() == [0.25, 0.0, 0.0]
        with pytest.raises(ValueError, match="roundoff floor"):
            negativity_of_norms(np.array([1.5, 1.0 - 1e-6, 1.0]))
        with pytest.raises(ValueError, match="roundoff floor"):
            log_negativity_of_norms(np.array([2.0, 1.0 - 1e-6]))

    def test_bipartite_required(self):
        psi = random_pure(Dims(2, 2, 2), np.random.default_rng(0))
        with pytest.raises(DimensionMismatchError):
            pt_trace_norms(psi.density().matrix, psi.dims)
        with pytest.raises(DimensionMismatchError):
            pure_measure(ENTROPY, psi)


PURE_NORM_DIMS = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)]


def _schmidt_vectors(dims, n, small, rng):
    """``n`` vectors U_A diag(sigma) U_B^T with Haar U_A, U_B and Schmidt
    coefficients sigma ~ (1, small, below small, ...) before normalization;
    Haar vectors where ``small`` is None."""
    dA, dB = dims
    if small is None:
        return np.stack([random_pure(Dims(dA, dB), rng).amplitudes for _ in range(n)])
    rows = []
    for _ in range(n):
        sigma = np.zeros(min(dA, dB))
        sigma[0], sigma[1] = 1.0, small
        sigma[2:] = small * rng.uniform(0.0, 1.0, len(sigma) - 2)
        m = haar_unitary(dA, rng)[:, :len(sigma)] * (sigma / np.linalg.norm(sigma)) \
            @ haar_unitary(dB, rng)[:, :len(sigma)].T
        rows.append(m.reshape(-1))
    return np.stack(rows)


class TestPurePtTraceNorms:
    """The pure-state kernel against the partial transpose of the projector."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9),
           dims=st.sampled_from(PURE_NORM_DIMS),
           small=st.one_of(st.none(), st.floats(1e-9, 0.5)),
           scale=st.floats(-TOL_NORM, TOL_NORM))
    def test_matches_the_partial_transpose(self, seed, n, dims, small, scale):
        amps = (1.0 + scale) * _schmidt_vectors(dims, n, small, np.random.default_rng(seed))
        norms = pure_pt_trace_norms(amps, Dims(*dims))
        assert (norms >= 1.0).all()
        assert np.abs(norms - pt_trace_norms(projector_stack(amps), Dims(*dims))).max() <= 1e-14

    def test_bell_state_is_exact(self):
        from entmon.registry import evaluate_measure

        assert evaluate_measure("negativity", bell_state()).value == 0.5
        assert evaluate_measure("log-negativity", bell_state()).value == 1.0

    @pytest.mark.parametrize("dims", PURE_NORM_DIMS)
    def test_products_read_zero(self, dims):
        from entmon.registry import evaluate_measure

        rng = np.random.default_rng(7)
        for _ in range(20):
            psi = random_product_pure(Dims(*dims), rng)
            assert evaluate_measure("negativity", psi).value <= 1e-15
            assert evaluate_measure("log-negativity", psi).value <= 1e-15

    @pytest.mark.parametrize("dims", [(1, 3), (3, 1), (1, 1)])
    def test_a_factor_of_dimension_one_reads_exactly_zero(self, dims):
        from entmon.registry import evaluate_measure

        psi = random_pure(Dims(*dims), np.random.default_rng(8))
        assert pure_pt_trace_norms(psi.amplitudes, psi.dims) == 1.0
        assert evaluate_measure("negativity", psi).value == 0.0
        assert evaluate_measure("log-negativity", psi).value == 0.0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from(PURE_NORM_DIMS),
           small=st.one_of(st.none(), st.floats(1e-9, 0.5)),
           measure_id=st.sampled_from(["negativity", "log-negativity"]))
    def test_evaluate_measure_takes_no_full_spectrum(self, seed, dims, small, measure_id):
        from entmon.registry import evaluate_measure

        amps = _schmidt_vectors(dims, 1, small, np.random.default_rng(seed))[0]
        psi = PureState(amps / np.linalg.norm(amps), Dims(*dims))
        calls = []

        def traced(fn):
            return lambda a, *args, **kw: calls.append(a.shape[-1]) or fn(a, *args, **kw)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "eigh", traced(np.linalg.eigh))
            mp.setattr(np.linalg, "eigvalsh", traced(np.linalg.eigvalsh))
            value = evaluate_measure(measure_id, psi).value
        assert psi.dims.total not in calls
        assert abs(value - evaluate_measure(measure_id, psi.density()).value) <= 1e-14


class TestStrictConcavity:
    @pytest.mark.parametrize("h", ALL_H, ids=lambda h: h.measure_id)
    def test_random_pairs_have_positive_gap(self, h):
        rng = np.random.default_rng(99)
        for _ in range(50):
            d = 2 if rng.integers(2) else 3
            rank = d if h.kind == "g-concurrence" else int(rng.integers(1, d + 1))
            r1 = random_mixed(Dims(d), rank, rng)
            r2 = random_mixed(Dims(d), rank, rng)
            if np.linalg.norm(r1.matrix - r2.matrix) <= 1e-3:
                continue
            mix = DensityMatrix(0.5 * (r1.matrix + r2.matrix), r1.dims)
            gap = h_eval(h, mix) - 0.5 * h_eval(h, r1) - 0.5 * h_eval(h, r2)
            assert gap > 1e-12

    def test_tangle_gap_identity(self):
        # Exact algebraic identity: gap = 2 lam (1-lam) ||r1 - r2||_F^2.
        rng = np.random.default_rng(21)
        for _ in range(50):
            lam = float(rng.uniform(0.1, 0.9))
            r1 = random_mixed(Dims(3), None, rng)
            r2 = random_mixed(Dims(3), None, rng)
            mix = DensityMatrix(lam * r1.matrix + (1 - lam) * r2.matrix, r1.dims)
            gap = h_eval(TANGLE, mix) - lam * h_eval(TANGLE, r1) - (1 - lam) * h_eval(TANGLE, r2)
            dist2 = np.linalg.norm(r1.matrix - r2.matrix) ** 2
            assert gap == pytest.approx(2 * lam * (1 - lam) * dist2, abs=1e-10)


def test_g_concurrence_refused_on_a_factor_of_dimension_one():
    # A reduced state of dimension 1 would read 1 on every state.
    from entmon.roof import Decomposition
    from entmon.states import PureState

    psi = PureState([0.6, 0.8, 0.0], Dims(1, 3))
    with pytest.raises(ValueError, match="dimension 1"):
        pure_measure(G_CONCURRENCE, psi)
    with pytest.raises(ValueError, match="dimension 1"):
        h_eval(G_CONCURRENCE, DensityMatrix(np.eye(1), Dims(1)))
    with pytest.raises(ValueError, match="dimension 1"):
        Decomposition(np.array([1.0]), (psi,)).average_value(G_CONCURRENCE)
    assert pure_measure(TANGLE, psi).value == 0.0
