"""Core state types, partial trace/transpose, Schmidt form, entropies."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmon.sampling import random_mixed, random_pure, random_pure_stack, random_separable
from entmon.states import (
    TOL_NORM,
    TOL_TRACE,
    DensityMatrix,
    DimensionMismatchError,
    Dims,
    PureState,
    StateValidationError,
    bell_state,
    max_entangled,
    partial_trace,
    partial_transpose,
    product_pure,
    relative_entropy,
    schmidt_decompose,
    trace_norm,
    validate_density_stack,
    validate_pure_stack,
    von_neumann_entropy,
    werner_state,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestTypes:
    def test_dims_factors_and_total(self):
        assert Dims(2, 3).factors == (2, 3)
        assert Dims(2, 3, 4).total == 24
        assert Dims(5).factors == (5,)

    def test_dims_rejects_bad_values(self):
        with pytest.raises(DimensionMismatchError):
            Dims(0, 2)
        with pytest.raises(DimensionMismatchError):
            Dims(2, None, 3)

    @pytest.mark.parametrize("args", [(2.5,), (2, "3"), (2, 3, 4.0)])
    def test_dims_rejects_non_integers(self, args):
        # The raw values are checked, not the int() of them in ``factors``.
        with pytest.raises(DimensionMismatchError):
            Dims(*args)

    def test_dims_accepts_numpy_integers(self):
        assert Dims(np.int64(2), 3).factors == (2, 3)

    @pytest.mark.parametrize("args", [(True, 2), (2, False), (np.bool_(True),)])
    def test_dims_rejects_booleans(self, args):
        # bool is an int subclass: True once passed as a factor of 1.
        with pytest.raises(DimensionMismatchError, match="positive integers"):
            Dims(*args)

    @settings(max_examples=200, deadline=None)
    @given(factors=st.lists(st.integers(1, 50), min_size=1, max_size=3),
           other=st.lists(st.integers(1, 50), min_size=1, max_size=3))
    def test_dims_store_what_they_checked(self, factors, other):
        dims = Dims(*factors)
        assert dims.factors == tuple(factors)
        assert all(type(d) is int for d in dims.factors)
        assert dims.total == math.prod(factors)
        assert (dims.dA, dims.dB, dims.dC) == tuple(factors) + (None,) * (3 - len(factors))
        assert Dims(*map(np.int64, factors)) == dims
        assert hash(Dims(*factors)) == hash(dims)
        assert (Dims(*other) == dims) == (tuple(other) == tuple(factors))

    @given(bad=st.one_of(st.integers(max_value=0), st.floats(allow_nan=True), st.booleans(),
                         st.text(max_size=2), st.none()),
           position=st.integers(0, 2))
    def test_dims_refuse_every_non_positive_integer(self, bad, position):
        factors = [2, 3, 4]
        factors[position] = bad
        with pytest.raises(DimensionMismatchError):
            Dims(*factors)

    @pytest.mark.parametrize("factors", [(), (2, 2, 2, 2), (1, 1, 1, 1, 1)])
    def test_dims_hold_one_to_three_factors(self, factors):
        with pytest.raises(DimensionMismatchError, match="1 to 3 factors"):
            Dims(*factors)

    def test_pure_state_requires_normalization(self):
        with pytest.raises(StateValidationError):
            PureState(np.array([1.0, 1.0, 0.0, 0.0]), Dims(2, 2))

    def test_pure_state_requires_matching_length(self):
        with pytest.raises(DimensionMismatchError):
            PureState(np.array([1.0, 0.0]), Dims(2, 2))

    def test_density_matrix_validation(self):
        good = DensityMatrix(np.eye(4) / 4, Dims(2, 2))
        assert good.is_pure() is False
        with pytest.raises(StateValidationError):
            DensityMatrix(np.eye(4) / 2, Dims(2, 2))  # trace 2
        with pytest.raises(StateValidationError):
            DensityMatrix(np.diag([1.5, -0.5, 0.0, 0.0]), Dims(2, 2))  # not PSD
        bad_herm = np.eye(4) / 4
        bad_herm[0, 1] = 0.3
        with pytest.raises(StateValidationError):
            DensityMatrix(bad_herm, Dims(2, 2))


class TestValueEquality:
    """Known defect 11: states compare by dims and entries, as a bool."""

    def test_equal_states_compare_equal(self):
        assert (bell_state() == bell_state()) is True
        assert (werner_state(0.3) == werner_state(0.3)) is True

    def test_different_states_compare_unequal(self):
        assert (bell_state() == max_entangled(3)) is False
        assert (bell_state() == product_pure(np.array([1.0, 0.0]), np.array([1.0, 0.0]))) is False
        assert (werner_state(0.3) == werner_state(0.4)) is False
        assert (bell_state() == bell_state().density()) is False
        # Same entries on other factors.
        assert (PureState(np.eye(6)[0], Dims(2, 3)) == PureState(np.eye(6)[0], Dims(3, 2))) is False

    def test_states_are_unhashable(self):
        # Equal states must hash alike; none is safer than one over floats.
        for state in (bell_state(), werner_state(0.3)):
            with pytest.raises(TypeError):
                hash(state)


def test_is_pure_reads_the_largest_eigenvalue():
    # Tr rho^2 = 1 - 1.6e-10 here, outside the former |Tr rho^2 - 1| <= 1e-10,
    # while 1 - lambda_max = 8e-11 is within PURITY_TOL: the rule by which
    # the pure-state measures accept the same matrix.
    from entmon.registry import evaluate_measure
    from entmon.sampling import haar_unitary

    u = haar_unitary(4, np.random.default_rng(0))
    rho = DensityMatrix((u * [1.0 - 8e-11, 8e-11, 0.0, 0.0]) @ u.conj().T, Dims(2, 2))
    assert rho.is_pure() is True
    assert evaluate_measure("tangle", rho).value >= 0.0
    mixed = DensityMatrix((u * [1.0 - 2e-10, 2e-10, 0.0, 0.0]) @ u.conj().T, Dims(2, 2))
    assert mixed.is_pure() is False


class TestNormTolerance:
    def test_bell_state_beyond_tolerance_rejected(self):
        # Norm off by 8e-11: the density's trace would be off by 1.6e-10,
        # beyond TOL_TRACE, so the vector itself must be refused.
        with pytest.raises(StateValidationError):
            PureState(bell_state().amplitudes * (1.0 + 0.8e-10), Dims(2, 2))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_boundary(self, sign):
        amps = bell_state().amplitudes
        PureState(amps * (1.0 + sign * 0.99 * TOL_NORM), Dims(2, 2))
        with pytest.raises(StateValidationError):
            PureState(amps * (1.0 + sign * 1.01 * TOL_NORM), Dims(2, 2))

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, frac=st.floats(-0.99, 0.99),
           dims=st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2)]))
    def test_every_accepted_vector_has_a_valid_density(self, seed, frac, dims):
        psi = random_pure(Dims(*dims), np.random.default_rng(seed))
        state = PureState(psi.amplitudes * (1.0 + frac * TOL_NORM), psi.dims)
        rho = state.density()
        assert abs(np.trace(rho.matrix) - 1.0) <= TOL_TRACE


class TestValidateDensityStack:
    def _stack(self, n=6):
        rng = np.random.default_rng(8)
        return np.stack([random_mixed(Dims(2, 2), 1 + i % 4, rng).matrix for i in range(n)])

    def test_returns_each_members_spectrum(self):
        mats = self._stack()
        vals = validate_density_stack(mats)
        for m, v in zip(mats, vals):
            assert np.array_equal(v, np.clip(np.linalg.eigvalsh(m), 0.0, None))

    def test_one_non_psd_member_raises(self):
        mats = self._stack()
        mats[3] = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(StateValidationError, match="negative eigenvalue -0.5"):
            validate_density_stack(mats)

    def test_one_bad_trace_member_raises(self):
        mats = self._stack()
        mats[4] = mats[4] * 2.0
        with pytest.raises(StateValidationError, match="trace"):
            validate_density_stack(mats)

    def test_one_non_hermitian_member_raises(self):
        mats = self._stack().reshape(2, 3, 4, 4)
        mats[1, 2, 0, 1] += 0.3
        with pytest.raises(StateValidationError, match="hermiticity deviation"):
            validate_density_stack(mats)

    def test_density_matrix_uses_the_same_rules(self):
        with pytest.raises(StateValidationError, match="negative eigenvalue -0.5"):
            DensityMatrix(np.diag([1.5, -0.5, 0.0, 0.0]), Dims(2, 2))


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(1)
        rho_a = random_mixed(Dims(2), None, rng)
        rho_b = random_mixed(Dims(3), None, rng)
        joint = DensityMatrix(np.kron(rho_a.matrix, rho_b.matrix), Dims(2, 3))
        np.testing.assert_allclose(partial_trace(joint, "A").matrix, rho_a.matrix, atol=1e-12)
        np.testing.assert_allclose(partial_trace(joint, "B").matrix, rho_b.matrix, atol=1e-12)

    def test_bell_state_reduces_to_maximally_mixed(self):
        red = partial_trace(bell_state().density(), "A")
        np.testing.assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_haar_2x3_schmidt_symmetry(self):
        # Eigenvalues of the two reductions agree up to zero padding.
        psi = random_pure(Dims(2, 3), np.random.default_rng(7))
        rho = psi.density()
        ev_a = np.linalg.eigvalsh(partial_trace(rho, "A").matrix)
        ev_b = np.linalg.eigvalsh(partial_trace(rho, "B").matrix)
        np.testing.assert_allclose(sorted(ev_a, reverse=True),
                                   sorted(ev_b, reverse=True)[:2], atol=1e-10)
        assert abs(sorted(ev_b)[0]) < 1e-10

    def test_tripartite_keep_pairs(self):
        rng = np.random.default_rng(3)
        psi = random_pure(Dims(2, 2, 2), rng)
        rho = psi.density()
        ab = partial_trace(rho, "AB")
        assert ab.dims.factors == (2, 2)
        ac = partial_trace(rho, "AC")
        assert abs(np.trace(ac.matrix) - 1.0) < 1e-12
        # keeping everything is the identity
        np.testing.assert_allclose(partial_trace(rho, "ABC").matrix, rho.matrix, atol=0)

    def test_unknown_label_rejected(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace(bell_state().density(), "C")

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds)
    def test_trace_preserving(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_mixed(Dims(2, 3), None, rng)
        for keep in ("A", "B"):
            assert abs(np.trace(partial_trace(rho, keep).matrix) - 1.0) <= 1e-12


class TestPartialTranspose:
    def test_bell_eigenvalues(self):
        # Brute-force eigendecomposition of the 4x4 partial transpose.
        pt = partial_transpose(bell_state().density(), "A")
        np.testing.assert_allclose(np.linalg.eigvalsh(pt), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_separable_stays_psd(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rho = random_separable(Dims(2, 2), 4, rng)
            assert np.linalg.eigvalsh(partial_transpose(rho, "A"))[0] >= -1e-9

    def test_involution_is_bit_exact(self):
        rho = random_mixed(Dims(2, 3), None, np.random.default_rng(11))
        twice = partial_transpose(partial_transpose(rho, "B"), "B", dims=rho.dims)
        assert np.array_equal(twice, rho.matrix)

    def test_trace_preserved_and_hermitian(self):
        rho = random_mixed(Dims(3, 2), None, np.random.default_rng(2))
        pt = partial_transpose(rho, "A")
        assert abs(np.trace(pt) - 1.0) < 1e-12
        assert np.max(np.abs(pt - pt.conj().T)) < 1e-12

    def test_requires_bipartite(self):
        psi = random_pure(Dims(2, 2, 2), np.random.default_rng(0))
        with pytest.raises(DimensionMismatchError):
            partial_transpose(psi.density(), "A")

    def test_raw_array_must_match_the_dims(self):
        with pytest.raises(DimensionMismatchError, match=r"shape \(3, 3\).*dims \(2, 2\)"):
            partial_transpose(np.eye(3), "A", Dims(2, 2))

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds)
    def test_trace_norm_at_least_one(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_mixed(Dims(2, 2), None, rng)
        assert trace_norm(partial_transpose(rho, "A")) >= 1.0 - 1e-12


class TestSchmidt:
    def test_product_state_single_coefficient(self):
        form = schmidt_decompose(product_pure(np.array([1, 0]), np.array([0, 1])))
        np.testing.assert_allclose(form.coefficients, [1.0, 0.0], atol=1e-12)

    def test_bell_state_coefficients(self):
        form = schmidt_decompose(bell_state())
        np.testing.assert_allclose(form.coefficients, [1 / math.sqrt(2)] * 2, atol=1e-12)

    def test_random_3x3_matches_reduction_spectrum(self):
        # Independent eigendecomposition oracle for the squared coefficients.
        psi = random_pure(Dims(3, 3), np.random.default_rng(13))
        form = schmidt_decompose(psi)
        ev = np.linalg.eigvalsh(partial_trace(psi.density(), "A").matrix)[::-1]
        np.testing.assert_allclose(form.coefficients**2, ev, atol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds)
    def test_reconstruction_and_orthonormality(self, seed):
        psi = random_pure(Dims(2, 3), np.random.default_rng(seed))
        form = schmidt_decompose(psi)
        assert abs(np.sum(form.coefficients**2) - 1.0) <= 1e-10
        assert np.all(np.diff(form.coefficients) <= 1e-15)
        np.testing.assert_allclose(form.reconstruct(), psi.amplitudes, atol=1e-8)
        gram = form.left_vectors.conj().T @ form.left_vectors
        np.testing.assert_allclose(gram, np.eye(gram.shape[0]), atol=1e-12)


class TestTraceNorm:
    def test_identity(self):
        assert trace_norm(np.eye(5)) == pytest.approx(5.0)

    def test_any_density_matrix_is_one(self):
        rho = random_mixed(Dims(2, 2), 3, np.random.default_rng(3))
        assert trace_norm(rho.matrix) == pytest.approx(1.0, abs=1e-12)

    def test_signed_diagonal(self):
        assert trace_norm(np.diag([0.7, -0.3])) == pytest.approx(1.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(StateValidationError):
            trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries_without_warning(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(StateValidationError, match="finite"):
                trace_norm(np.array([[bad]]))


class TestEntropies:
    def test_pure_projector_zero(self):
        assert von_neumann_entropy(bell_state().density()) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_qubit(self):
        dm = DensityMatrix(np.eye(2) / 2, Dims(2))
        assert von_neumann_entropy(dm) == pytest.approx(math.log(2), abs=1e-12)

    def test_diagonal_oracle(self):
        dm = DensityMatrix(np.diag([0.75, 0.25]), Dims(2))
        expected = -0.75 * math.log(0.75) - 0.25 * math.log(0.25)
        assert von_neumann_entropy(dm) == pytest.approx(expected, abs=1e-12)

    def test_relative_entropy_self_is_zero(self):
        rho = random_mixed(Dims(2, 2), None, np.random.default_rng(4))
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_relative_entropy_pure_vs_mixed(self):
        pure = DensityMatrix(np.diag([1.0, 0.0]), Dims(2))
        mixed = DensityMatrix(np.eye(2) / 2, Dims(2))
        assert relative_entropy(pure, mixed) == pytest.approx(math.log(2), abs=1e-12)

    def test_relative_entropy_disjoint_supports(self):
        p0 = DensityMatrix(np.diag([1.0, 0.0]), Dims(2))
        p1 = DensityMatrix(np.diag([0.0, 1.0]), Dims(2))
        assert relative_entropy(p0, p1) == math.inf

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds)
    def test_relative_entropy_nonnegative_and_faithful(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_mixed(Dims(2, 2), None, rng)
        sigma = random_mixed(Dims(2, 2), None, rng)
        val = relative_entropy(rho, sigma)
        assert val >= 0.0
        dist = np.linalg.norm(rho.matrix - sigma.matrix)
        if dist > 1e-3:
            # Pinsker gives S >= dist^2 / 2 in trace norm, weaker in Frobenius.
            assert val > 1e-8

    def test_werner_state_requires_valid_parameter(self):
        with pytest.raises(ValueError):
            werner_state(1.5)

    def test_max_entangled_reduction(self):
        red = partial_trace(max_entangled(3).density(), "B")
        np.testing.assert_allclose(red.matrix, np.eye(3) / 3, atol=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_non_finite_entries_are_refused_alike_by_state_and_stack(bad):
    import warnings

    from entmon.states import StateValidationError, validate_density_stack

    mats = np.stack([np.eye(4, dtype=complex) / 4] * 3)
    mats[1, 0, 2] = bad
    mats[1, 2, 0] = np.conj(bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateValidationError) as from_stack:
            validate_density_stack(mats)
        with pytest.raises(StateValidationError) as from_state:
            DensityMatrix(mats[1], Dims(2, 2))
    assert str(from_stack.value) == str(from_state.value) == "matrix contains non-finite entries"


@pytest.mark.parametrize("fault", ["nan", "inf", "norm above", "norm below"])
def test_vector_stack_refuses_what_a_pure_state_refuses(fault):
    # validate_pure_stack is PureState's check on a stack: the first
    # offending member raises the message its PureState would.
    amps = random_pure_stack(Dims(2, 3), 4, np.random.default_rng(41))
    if fault in ("nan", "inf"):
        amps[2, 1] = {"nan": math.nan, "inf": complex(0.0, math.inf)}[fault]
    else:
        amps[2] *= 1.0 + (1.01 if fault == "norm above" else -1.01) * TOL_NORM
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateValidationError) as from_stack:
            validate_pure_stack(amps)
        with pytest.raises(StateValidationError) as from_state:
            PureState(amps[2], Dims(2, 3))
    assert str(from_stack.value) == str(from_state.value)
    assert ("finite" if fault in ("nan", "inf") else "norm") in str(from_stack.value)
    validate_pure_stack(np.delete(amps, 2, axis=0))
    validate_pure_stack(amps[:2] * (1.0 + 0.99 * TOL_NORM))


def _bipartite_entries():
    from entmon.channels import apply_channel, apply_channel_to_pure, random_channel
    from entmon.measures import ENTROPY, negativity, pure_measure
    from entmon.ree import ree_minimize
    from entmon.roof import roof_minimize
    from entmon.verify import check_monogamy_product, check_reduced_state_condition

    channel = random_channel(2, 2, np.random.default_rng(0))
    return {
        "partial_transpose": lambda psi: partial_transpose(psi.density()),
        "schmidt_decompose": schmidt_decompose,
        "pure_measure": lambda psi: pure_measure(ENTROPY, psi),
        "negativity": lambda psi: negativity(psi.density()),
        "apply_channel": lambda psi: apply_channel(channel, psi.density()),
        "apply_channel_to_pure": lambda psi: apply_channel_to_pure(channel, psi),
        "roof_minimize": lambda psi: roof_minimize(ENTROPY, psi.density()),
        "ree_minimize": lambda psi: ree_minimize(psi.density()),
        "check_reduced_state_condition":
            lambda psi: check_reduced_state_condition(ENTROPY, psi, channel),
        "check_monogamy_product": lambda psi: check_monogamy_product(psi, bell_state(), ENTROPY),
    }


@pytest.mark.parametrize("entry", list(_bipartite_entries()))
def test_every_bipartite_entry_refuses_a_tripartite_state(entry):
    # One rule, Dims.bipartite, decides this for every entry.
    psi = random_pure(Dims(2, 2, 2), np.random.default_rng(0))
    with pytest.raises(DimensionMismatchError, match="requires a bipartite state"):
        _bipartite_entries()[entry](psi)
