"""Relative entropy of entanglement solver and data-processing check."""

import decimal
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmon import ree
from entmon.channels import LocalKrausChannel, random_channel, unitary_mixture_channel
from entmon.measures import wootters_eof
from entmon.ree import (
    GAP_TOL,
    _assemble,
    _atom_minimize,
    _caratheodory,
    _nonnegative_qp,
    _reoptimize_weights,
    _weight_objective,
    ree_data_processing_check,
    ree_minimize,
)
from entmon.sampling import haar_unitary, random_mixed, random_pure, random_separable
from entmon.states import (
    DensityMatrix,
    Dims,
    bell_state,
    partial_trace,
    partial_transpose,
    relative_entropy,
    von_neumann_entropy,
    werner_state,
)
from entmon.verify import CHECK_IDS, SweepConfig, _ree_input, _trials, derived_seed


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

    def test_bell_converges_in_two_iterations(self):
        # The first weight re-optimization runs from I/n to KKT, as one
        # Newton step from that far start would leave it unconverged.
        res = _atom_minimize(bell_state().density(), rng=np.random.default_rng(1))
        assert res.converged is True
        assert res.iterations <= 2
        assert abs(res.value - math.log(2)) <= 1e-9

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
        a = _atom_minimize(rho, rng=np.random.default_rng(3))
        b = _atom_minimize(rho, rng=np.random.default_rng(3))
        assert a.value == b.value
        assert a.iterations == b.iterations

    def test_monotone_descent_trace(self):
        # The objective never increases along the run: re-check by probing
        # the final value against a truncated run.
        rho = random_mixed(Dims(2, 2), 2, np.random.default_rng(8))
        short = _atom_minimize(rho, max_iters=40, rng=np.random.default_rng(9))
        long = _atom_minimize(rho, max_iters=400, rng=np.random.default_rng(9))
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
        res = _atom_minimize(rho, rng=np.random.default_rng(seed))
        assert res.converged is True
        assert res.duality_gap_estimate < GAP_TOL

    def test_full_rank_3x3_takes_fewer_iterations(self):
        # One product atom per iteration took 381 iterations on this input.
        rho = random_mixed(Dims(3, 3), None, np.random.default_rng(3))
        res = ree_minimize(rho)
        assert res.converged is True
        assert res.duality_gap_estimate < GAP_TOL
        assert res.iterations < 381
        assert 1 <= res.atoms <= 2 * 9 * 9

    def test_full_rank_3x3_carries_the_product_search(self, monkeypatch):
        # Each search starts from the last one's RESTARTS best A factors, so
        # INNER_ROUNDS rounds resume it: the call makes at most half the
        # 1,848 partial expectations that 12 rounds from one warm row made.
        calls, partial_expectation = [], ree._partial_expectation

        def counted(g4, x):
            calls.append(len(x))
            return partial_expectation(g4, x)

        monkeypatch.setattr(ree, "_partial_expectation", counted)
        res = ree_minimize(random_mixed(Dims(3, 3), None, np.random.default_rng(3)))
        assert res.converged is True
        assert res.duality_gap_estimate < GAP_TOL
        assert len(calls) <= 924

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3)])
    def test_sigma_is_diagonalized_once_per_new_point(self, monkeypatch, dims):
        # Every n x n eigendecomposition of a run is of sigma, by
        # _eigensystem, except the entropy offset (the spectrum of rho) and
        # the validation of the returned closest separable state.  Sigma is
        # diagonalized at most at the start, at each Armijo trial point and
        # after each Caratheodory cut; every _weight_objective call (the
        # rescaled iterate, each Hessian) is at a point diagonalized before,
        # up to scale, and diagonalizes nothing.
        n = dims[0] * dims[1]
        rho = random_mixed(Dims(*dims), None, np.random.default_rng(3))
        callers, trials, cuts, objective_calls = [], [], [], []

        def recording(decompose):
            def recorded(a, *args, **kwargs):
                if np.shape(a) == (n, n):
                    callers.append(sys._getframe(1).f_code.co_name)
                return decompose(a, *args, **kwargs)
            return recorded

        def counting(f, calls, only_from=None):
            def call(*args, **kwargs):
                if only_from in (None, sys._getframe(1).f_code.co_name):
                    before = len(callers)
                    result = f(*args, **kwargs)
                    calls.append(len(callers) - before)
                    return result
                return f(*args, **kwargs)
            return call

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
        monkeypatch.setattr(ree, "_objective_value",
                            counting(ree._objective_value, trials, "_reoptimize_weights"))
        monkeypatch.setattr(ree, "_caratheodory", counting(ree._caratheodory, cuts))
        monkeypatch.setattr(ree, "_weight_objective",
                            counting(ree._weight_objective, objective_calls))
        res = _atom_minimize(rho, rng=np.random.default_rng(0))
        others = sorted(c for c in callers if c != "_eigensystem")
        assert others == ["eigenvalues", "validate_density_stack"]
        assert callers.count("_eigensystem") <= 1 + len(trials) + len(cuts)
        assert len(objective_calls) >= 2 * res.iterations
        assert not any(objective_calls)

    @settings(max_examples=10, deadline=None)
    @given(dims=st.sampled_from([(2, 2), (2, 3)]), rank=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_value_between_coherent_and_mutual_information(self, dims, rank, seed):
        # E_r >= S(X) - S(AB) for either marginal X, and E_r <= S(rho ||
        # rho_A x rho_B), a separable candidate; on 2x2 and 2x3 the
        # returned state is separable exactly when it is PPT.
        d = Dims(*dims)
        rho = random_mixed(d, 1 + (rank - 1) % d.total, np.random.default_rng(seed))
        res = ree_minimize(rho, rng=np.random.default_rng(seed))
        rho_a, rho_b = partial_trace(rho, "A"), partial_trace(rho, "B")
        coherent = max(von_neumann_entropy(rho_a), von_neumann_entropy(rho_b)) \
            - von_neumann_entropy(rho)
        mutual = relative_entropy(rho, DensityMatrix(np.kron(rho_a.matrix, rho_b.matrix), d))
        assert res.converged is True
        assert max(0.0, coherent) - 1e-9 <= res.value <= mutual + GAP_TOL
        assert np.linalg.eigvalsh(partial_transpose(res.closest_separable, "A"))[0] >= -1e-9

    @pytest.mark.parametrize("max_iters", [0, -1, 2.0, 2.5, "2", None, True, False])
    def test_refuses_a_max_iters_that_is_not_a_positive_integer(self, max_iters):
        # Refused before any work: even a state over the dimension cap gets
        # the max_iters error.  0 and -1 used to return the I/n start.
        with pytest.raises(ValueError, match="max_iters"):
            ree_minimize(bell_state().density(), max_iters=max_iters)
        with pytest.raises(ValueError, match="max_iters"):
            ree_minimize(random_mixed(Dims(5, 5), 2, np.random.default_rng(10)),
                         max_iters=max_iters)

    def test_accepts_numpy_integer_max_iters(self):
        res = ree_minimize(bell_state().density(), max_iters=np.int64(1),
                           rng=np.random.default_rng(1))
        assert res.iterations == 1

    def test_dimension_cap(self):
        from entmon.states import DimensionMismatchError

        rho = random_mixed(Dims(5, 5), 2, np.random.default_rng(10))
        with pytest.raises(DimensionMismatchError):
            ree_minimize(rho)

    def test_upper_bound_flag(self):
        res = _atom_minimize(random_mixed(Dims(3, 3), 2, np.random.default_rng(11)),
                             max_iters=50, rng=np.random.default_rng(0))
        assert res.upper_bound_only
        res = _atom_minimize(random_mixed(Dims(2, 3), 2, np.random.default_rng(12)),
                             max_iters=50, rng=np.random.default_rng(0))
        assert not res.upper_bound_only


def _vedral_plenio(weights):
    """E_r of the Bell-diagonal state with ``weights`` (Vedral & Plenio, PRA 57,
    1619 (1998)): ln 2 - H2(F) for the largest weight F > 1/2, else 0."""
    f = float(np.max(weights))
    return 0.0 if f <= 0.5 else math.log(2) + f * math.log(f) + (1 - f) * math.log(1 - f)


_BELL = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / math.sqrt(2)


class TestBarrierPath:
    """``ree_minimize`` on n = dA dB <= 6: the PPT barrier path and its bracket
    [value - duality_gap_estimate, value]."""

    @staticmethod
    def _bracket_holds(res, oracle):
        # The value is S(rho || sigma) of a separable sigma, computed to
        # roundoff; the lower bound carries its own roundoff margin.
        return res.value - res.duality_gap_estimate <= oracle <= res.value + 1e-12

    def test_known_defect_5_pure_inputs_lie_inside_their_brackets(self):
        # The default sweep's pure-coincidence inputs t = 0, 1, 2 and the 20
        # criterion-7 pure inputs, each solved with its generator as there.  The
        # atom solver's gap estimates on them are 2e-5 to 8e-5 wide, and were
        # no certificate.
        inputs = [(_ree_input("pure-coincidence", rng, t)[0], rng) for t, _, rng in
                  _trials(SweepConfig(), 3, CHECK_IDS.index("ree"), 1)]
        for t in range(20):
            seed = derived_seed(7, 1, t)
            inputs.append((random_pure(Dims(2, 2), np.random.default_rng(seed)).density(),
                           np.random.default_rng(seed)))
        for rho, rng in inputs:
            res = ree_minimize(rho, rng=rng)
            oracle = von_neumann_entropy(partial_trace(rho, "A"))
            assert res.converged and res.duality_gap_estimate <= 1e-6
            assert self._bracket_holds(res, oracle), (res.value - oracle, res.duality_gap_estimate)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(dims=st.sampled_from([(2, 2), (2, 3), (3, 2)]),
           kind=st.sampled_from(["bell-diagonal", "werner", "pure", "separable"]),
           seed=st.integers(0, 2**32 - 1))
    def test_every_bracket_holds_its_oracle(self, dims, kind, seed):
        rng = np.random.default_rng(seed)
        if kind in ("bell-diagonal", "werner") and dims != (2, 2):
            kind = "pure"  # both families live on two qubits
        if kind == "bell-diagonal":
            weights = rng.dirichlet(np.ones(4))
            rho, oracle = DensityMatrix((_BELL.T * weights) @ _BELL + 0j, Dims(2, 2)), \
                _vedral_plenio(weights)
        elif kind == "werner":
            p = float(rng.uniform(-1 / 3, 1))
            rho, oracle = werner_state(p), _vedral_plenio([(1 + 3 * p) / 4, (1 - p) / 4])
        elif kind == "pure":
            rho = random_pure(Dims(*dims), rng).density()
            oracle = von_neumann_entropy(partial_trace(rho, "A"))
        else:
            rho, oracle = random_separable(Dims(*dims), int(rng.integers(2, 8)), rng), 0.0
        res = ree_minimize(rho)
        assert res.converged is True
        assert self._bracket_holds(res, oracle), (res.value - oracle, res.duality_gap_estimate)

    @pytest.mark.parametrize("dims,seed", [((2, 2), 0), ((2, 2), 1), ((2, 3), 2), ((3, 2), 3)])
    def test_no_worse_than_the_atom_solver(self, dims, seed):
        rho = random_mixed(Dims(*dims), None, np.random.default_rng(seed))
        barrier = ree_minimize(rho)
        atom = _atom_minimize(rho, rng=np.random.default_rng(seed))
        assert barrier.value <= atom.value + 1e-9
        assert barrier.value - barrier.duality_gap_estimate <= atom.value

    def test_contract_of_the_result_fields(self, monkeypatch):
        # iterations counts Newton steps (one _barrier_newton per point, the
        # start included), max_iters caps them, converged means a certified
        # width of at most GAP_TOL, and no atoms are built.
        calls = []
        newton = ree._barrier_newton
        monkeypatch.setattr(ree, "_barrier_newton", lambda *a: calls.append(1) or newton(*a))
        rho = random_mixed(Dims(2, 2), 3, np.random.default_rng(6))
        res = ree_minimize(rho)
        assert len(calls) == res.iterations + 1
        assert res.converged is (res.duality_gap_estimate <= GAP_TOL) is True
        assert res.atoms == 0 and res.upper_bound_only is False
        for cap in (1, 5):
            capped = ree_minimize(rho, max_iters=cap)
            assert capped.iterations == cap and capped.converged is False
            assert capped.duality_gap_estimate > GAP_TOL
            assert capped.value >= res.value - 1e-12
            assert capped.value - capped.duality_gap_estimate <= res.value

    def test_one_by_one_state_has_zero_ree(self):
        # n = 1: the traceless basis is empty, and the path certifies at once.
        res = ree_minimize(DensityMatrix(np.ones((1, 1), dtype=complex), Dims(1, 1)))
        assert res.value == 0.0 and res.converged is True and res.iterations == 0
        assert 0.0 <= res.duality_gap_estimate <= GAP_TOL

    def test_max_iters_one_is_a_valid_upper_bound(self):
        res = ree_minimize(bell_state().density(), max_iters=1)
        assert res.iterations == 1 and res.converged is False
        assert res.value >= math.log(2)
        assert res.value == pytest.approx(relative_entropy(bell_state().density(),
                                                           res.closest_separable), abs=1e-12)

    def test_draws_nothing_from_rng(self):
        rng = np.random.default_rng(5)
        ree_minimize(random_mixed(Dims(2, 3), None, np.random.default_rng(7)), rng=rng)
        assert rng.random() == np.random.default_rng(5).random()

    def test_dims_pick_the_path(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("wrong path")

        with monkeypatch.context() as m:
            m.setattr(ree, "_min_product_expectation", refuse)
            for dims in ((2, 2), (2, 3), (3, 2)):
                res = ree_minimize(random_mixed(Dims(*dims), None, np.random.default_rng(8)))
                assert res.converged is True
        with monkeypatch.context() as m:
            for name in ("_traceless_basis", "_barrier_point", "_barrier_newton"):
                m.setattr(ree, name, refuse)
            res = ree_minimize(random_mixed(Dims(3, 3), 2, np.random.default_rng(9)), max_iters=3)
            assert res.upper_bound_only and res.atoms >= 1

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
    def test_basis_is_orthonormal_traceless_hermitian(self, dims):
        basis, transposes = ree._traceless_basis(*dims)
        n = dims[0] * dims[1]
        assert basis.shape == (n * n - 1, n, n)
        np.testing.assert_array_equal(basis, basis.conj().swapaxes(1, 2))
        np.testing.assert_allclose(np.trace(basis, axis1=1, axis2=2), 0.0, atol=1e-15)
        for stack in (basis, transposes):  # the partial transpose is an isometry
            gram = np.einsum("kij,lji->kl", stack, stack)
            np.testing.assert_allclose(gram, np.eye(n * n - 1), atol=1e-15)

    @pytest.mark.parametrize("dims,seed", [((2, 2), 0), ((2, 3), 1), ((3, 2), 2)])
    def test_newton_pieces_match_central_differences(self, dims, seed):
        # f = -Tr[rho ln sigma] and the barrier -ln det sigma sigma^{T_B} along
        # the basis directions, at an interior PPT point.
        rng = np.random.default_rng(seed)
        n = dims[0] * dims[1]
        rho = random_mixed(Dims(*dims), None, rng).matrix
        sigma = (random_mixed(Dims(*dims), None, rng).matrix + np.eye(n)) / (n + 1)
        basis = ree._traceless_basis(*dims)
        grad_f, hess_f, grad_b, hess_b, _ = ree._barrier_newton(
            ree._barrier_point(sigma, rho, *dims), basis)

        def values(s):
            point = ree._barrier_point(s, rho, *dims)
            return np.array([point[3], -point[4]])

        def gradients(s):
            grads = ree._barrier_newton(ree._barrier_point(s, rho, *dims), basis)
            return np.array([grads[0], grads[2]])

        h = 1e-5
        for k, e in enumerate(basis[0]):
            fd = (values(sigma + h * e) - values(sigma - h * e)) / (2 * h)
            np.testing.assert_allclose(fd, [grad_f[k], grad_b[k]], rtol=1e-6, atol=1e-7)
            fd = (gradients(sigma + h * e) - gradients(sigma - h * e)) / (2 * h)
            np.testing.assert_allclose(fd, [hess_f[:, k], hess_b[:, k]], rtol=1e-6, atol=1e-6)


def _log_divided_difference(a, b):
    """(ln b - ln a) / (b - a), 1 / a where a = b, at 60 digits."""
    a, b = decimal.Decimal(a), decimal.Decimal(b)
    return 1 / a if a == b else (b.ln() - a.ln()) / (b - a)


def test_log_kernel_matches_a_60_digit_reference_at_every_gap():
    # Pairs mu and mu (1 + r) with r near the 1e-12 relative gap where a
    # difference of logarithms loses every digit, and far from it.
    rs = [0.0, *(10.0 ** e for e in range(-16, 4)), 1.5e-12, 2e-12, 5e-12, 3e-11]
    worst = 0.0
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for mu in (1e-14, 1e-10, 1e-6, 1e-3, 0.3, 1.0):
            for r in [*rs, *(-r for r in rs if r < 1)]:
                pair = np.array([mu, mu * (1 + r)])
                kernel = ree._log_kernel(pair)
                for i, j in np.ndindex(2, 2):
                    exact = _log_divided_difference(pair[i], pair[j])
                    err = abs(decimal.Decimal(kernel[i, j]) - exact)
                    worst = max(worst, float(err) / np.spacing(float(exact)))
    assert worst <= 2.0


def _random_atoms(dims, k, rng):
    dA, dB = dims
    a = rng.standard_normal((k, dA)) + 1j * rng.standard_normal((k, dA))
    b = rng.standard_normal((k, dB)) + 1j * rng.standard_normal((k, dB))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    return (a[:, :, None] * b[:, None, :]).reshape(k, -1)


class TestWeightStep:
    @settings(max_examples=40, deadline=None)
    @given(dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]), seed=st.integers(0, 2**32 - 1),
           zeros=st.integers(1, 4))
    def test_gradient_matches_central_differences(self, dims, seed, zeros):
        rng = np.random.default_rng(seed)
        n = dims[0] * dims[1]
        rho = random_mixed(Dims(*dims), None, rng).matrix
        atoms = _random_atoms(dims, 2 * n + zeros, rng)
        v = rng.uniform(0.5, 1.5, len(atoms))
        v[rng.choice(len(atoms), zeros, replace=False)] = 0.0  # new atoms enter at 0
        _, grad, _ = _weight_objective(v, rho, atoms)
        h = 1e-6
        fd = np.array([
            (_weight_objective(v + h * e, rho, atoms)[0]
             - _weight_objective(v - h * e, rho, atoms)[0]) / (2 * h)
            for e in np.eye(len(v))
        ])
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]), seed=st.integers(0, 2**32 - 1),
           zeros=st.integers(1, 4))
    def test_hessian_matches_central_differences(self, dims, seed, zeros):
        rng = np.random.default_rng(seed)
        n = dims[0] * dims[1]
        rho = random_mixed(Dims(*dims), None, rng).matrix
        atoms = _random_atoms(dims, 2 * n + zeros, rng)
        v = rng.uniform(0.5, 1.5, len(atoms))
        v[rng.choice(len(atoms), zeros, replace=False)] = 0.0
        _, _, _, hess, _ = _weight_objective(v, rho, atoms, hessian=True)
        h = 1e-6
        fd = np.array([
            (_weight_objective(v + h * e, rho, atoms)[1]
             - _weight_objective(v - h * e, rho, atoms)[1]) / (2 * h)
            for e in np.eye(len(v))
        ])
        np.testing.assert_allclose(hess, fd, rtol=1e-6, atol=1e-6 * np.max(np.abs(hess)))

    @settings(max_examples=40, deadline=None)
    @given(dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]), seed=st.integers(0, 2**32 - 1),
           zeros=st.integers(1, 4))
    def test_g_is_the_frechet_derivative_at_sigma(self, dims, seed, zeros):
        # G is the derivative of sigma -> -Tr[rho ln sigma] along Hermitian
        # directions, and at weights summing to 1 the gradient gives the
        # linearization level Tr[G sigma] as v . grad - 1.
        rng = np.random.default_rng(seed)
        n = dims[0] * dims[1]
        rho = random_mixed(Dims(*dims), None, rng).matrix
        atoms = _random_atoms(dims, 2 * n + zeros, rng)
        v = rng.uniform(0.5, 1.5, len(atoms))
        v[rng.choice(len(atoms), zeros, replace=False)] = 0.0
        v /= np.sum(v)
        _, grad, g = _weight_objective(v, rho, atoms)
        sigma = _assemble(atoms, v)
        np.testing.assert_array_equal(g, g.conj().T)

        def objective(s):
            mu, u = np.linalg.eigh(s)
            return -float(np.real(np.trace(rho @ (u * np.log(mu)) @ u.conj().T)))

        h = 1e-6 * np.linalg.eigvalsh(sigma)[0]
        for _ in range(3):
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            d = (z + z.conj().T) / np.linalg.norm(z + z.conj().T)
            fd = (objective(sigma + h * d) - objective(sigma - h * d)) / (2 * h)
            assert float(np.real(np.trace(g @ d))) == pytest.approx(fd, rel=1e-6, abs=1e-6)
        assert abs(float(v @ grad) - 1.0 - float(np.real(np.trace(g @ sigma)))) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]), seed=st.integers(0, 2**32 - 1),
           zeros=st.integers(0, 4), scale=st.floats(0.5, 2.0))
    def test_passed_eigensystem_matches_a_fresh_one(self, dims, seed, zeros, scale):
        # The solver hands sigma's eigensystem (mu, u) along to sigma / s as
        # (mu / s, u), with new atoms at weight 0: every output matches the
        # one from a fresh diagonalization.
        rng = np.random.default_rng(seed)
        n = dims[0] * dims[1]
        rho = random_mixed(Dims(*dims), None, rng).matrix
        atoms = _random_atoms(dims, 2 * n + zeros, rng)
        v = rng.uniform(0.5, 1.5, 2 * n)
        mu, u = ree._eigensystem(v, atoms[:2 * n])
        w = np.append(v, np.zeros(zeros)) / scale
        passed = _weight_objective(w, rho, atoms, hessian=True, eig=(mu / scale, u))
        fresh = _weight_objective(w, rho, atoms, hessian=True)
        for x, y in zip(passed, fresh):
            np.testing.assert_allclose(x, y, rtol=1e-12, atol=1e-12 * np.max(np.abs(y)))

    @settings(max_examples=40, deadline=None)
    @given(dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]), seed=st.integers(0, 2**32 - 1),
           zeros=st.integers(1, 4), rank=st.integers(1, 3))
    def test_step_keeps_weights_nonnegative_and_never_raises_the_objective(
            self, dims, seed, zeros, rank):
        # As in the solver: the previous atoms carry normalized weights and
        # the new ones enter at 0; rho may be rank-deficient.
        rng = np.random.default_rng(seed)
        n = dims[0] * dims[1]
        rho = random_mixed(Dims(*dims), None if rank == 3 else rank, rng).matrix
        atoms = _random_atoms(dims, n + 2 + zeros, rng)
        v0 = np.append(rng.dirichlet(np.ones(n + 2)), np.zeros(zeros))
        v, (mu, _) = _reoptimize_weights(rho, atoms, v0, ree._eigensystem(v0, atoms))
        assert np.all(v >= 0.0)
        np.testing.assert_array_equal(mu, ree._eigensystem(v, atoms)[0])
        assert _weight_objective(v, rho, atoms)[0] <= _weight_objective(v0, rho, atoms)[0]

    @settings(max_examples=30, deadline=None)
    @given(dims=st.sampled_from([(2, 2), (2, 3)]), seed=st.integers(0, 2**32 - 1),
           zeros=st.integers(1, 4))
    def test_step_run_to_the_end_meets_kkt(self, dims, seed, zeros):
        # KKT of min over v >= 0: gradient >= 0, and = 0 where v > 0; the
        # projected gradient v - max(v - g, 0) measures both.  Random atoms
        # start far from the optimum, where Newton on ln at most doubles a
        # small eigenvalue of sigma per step, so the run gets many steps.
        rng = np.random.default_rng(seed)
        n = dims[0] * dims[1]
        rho = random_mixed(Dims(*dims), None, rng).matrix
        atoms = _random_atoms(dims, n + zeros, rng)
        v0 = np.append(rng.dirichlet(np.ones(n)), np.zeros(zeros))
        v, _ = _reoptimize_weights(rho, atoms, v0, ree._eigensystem(v0, atoms), steps=100)
        _, g, _ = _weight_objective(v, rho, atoms)
        assert np.linalg.norm(v - np.maximum(v - g, 0.0)) <= 1e-6

    @pytest.mark.parametrize("dims,steps", [((2, 2), 1), ((2, 3), 2), ((3, 3), 5)])
    def test_one_hessian_per_step_taken_and_none_after_the_last(self, monkeypatch, dims, steps):
        # Random atoms start far from the optimum, so every step is taken.
        rng = np.random.default_rng(50 + steps)
        n = dims[0] * dims[1]
        rho = random_mixed(Dims(*dims), None, rng).matrix
        atoms = _random_atoms(dims, n + 2, rng)
        v0 = np.append(rng.dirichlet(np.ones(n)), np.zeros(2))
        points = []

        def counted(v, *args, hessian=False, **kwargs):
            if hessian:
                points.append(v.copy())
            return _weight_objective(v, *args, hessian=hessian, **kwargs)

        monkeypatch.setattr(ree, "_weight_objective", counted)
        v, _ = _reoptimize_weights(rho, atoms, v0, ree._eigensystem(v0, atoms), steps=steps)
        iterates = points + [v]
        assert len(points) == steps
        np.testing.assert_array_equal(points[0], v0)
        assert all(not np.array_equal(p, q) for p, q in zip(iterates, iterates[1:]))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 40))
    def test_nonnegative_qp_meets_kkt(self, seed, k):
        # The Newton step's subproblem, from a feasible start with zeros.
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((k, k))
        a = m @ m.T + 1e-3 * np.eye(k)
        b = rng.standard_normal(k)
        x0 = rng.uniform(0.0, 1.0, k) * (rng.uniform(size=k) < 0.7)
        x0[0] = 1.0
        x = _nonnegative_qp(a, b, x0)
        grad = a @ x - b
        assert np.all(x >= 0.0)
        np.testing.assert_allclose(grad[x > 0.0], 0.0, atol=1e-8 * (1.0 + np.abs(b).max()))
        assert np.all(grad[x == 0.0] >= -1e-8)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 40))
    def test_nonnegative_qp_warm_free_set_matches_the_positive_start(self, seed, k):
        # The zero weights that would enter start free; the solution is the
        # one reached from the positive weights alone.
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((k, k))
        a = m @ m.T + 1e-3 * np.eye(k)
        b = rng.standard_normal(k)
        x0 = rng.uniform(0.0, 1.0, k) * (rng.uniform(size=k) < 0.7)
        x0[0] = 1.0
        x = _nonnegative_qp(a, b, x0)
        ref = _nonnegative_qp_from_positive_weights(a, b, x0)
        np.testing.assert_allclose(x, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))
        grad = a @ x - b
        np.testing.assert_allclose(grad[x > 0.0], 0.0, atol=1e-8 * (1.0 + np.abs(b).max()))
        assert np.all(x >= 0.0) and np.all(grad[x == 0.0] >= -1e-8)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 162),
           log_ridge=st.floats(-8.0, 0.0), zeros=st.floats(0.0, 1.0))
    def test_nonnegative_qp_matches_lawson_hanson_bit_for_bit(self, seed, k, log_ridge, zeros):
        # a = H + s diag(1 + diag H) as in a weight step, for a Wishart H,
        # and a warm start with zero weights.  Both methods end with the
        # solve on the same free set, so the weights agree in every bit.
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((k, k))
        h = m @ m.T
        a = h + 10.0 ** log_ridge * np.diag(1.0 + np.diag(h))
        x0 = rng.uniform(0.0, 1.0, k) * (rng.uniform(size=k) >= zeros)
        b = a @ x0 - rng.standard_normal(k)
        np.testing.assert_array_equal(_nonnegative_qp(a, b, x0), _lawson_hanson(a, b, x0))

    @settings(max_examples=40, deadline=None)
    @given(dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]), seed=st.integers(0, 2**32 - 1),
           extra=st.floats(0.0, 1.0), log_ridge=st.floats(-8.0, 0.0), zeros=st.floats(0.0, 1.0))
    def test_nonnegative_qp_matches_lawson_hanson_on_weight_steps(
            self, dims, seed, extra, log_ridge, zeros):
        # The QPs the solver poses: n to 2 n^2 atoms (up to 162 on 3x3), so
        # H is singular beyond n^2, the first n weights positive and the
        # rest with zeros, and b = a v - g from the weight objective.
        rng = np.random.default_rng(seed)
        n = dims[0] * dims[1]
        k = n + int(extra * (2 * n * n - n))
        rho = random_mixed(Dims(*dims), None, rng).matrix
        atoms = _random_atoms(dims, k, rng)
        v = rng.uniform(0.5, 1.5, k)
        v[n:] *= rng.uniform(size=k - n) >= zeros
        _, g, _, h, _ = _weight_objective(v, rho, atoms, hessian=True)
        a = h + 10.0 ** log_ridge * np.diag(1.0 + np.diag(h))
        b = a @ v - g
        np.testing.assert_array_equal(_nonnegative_qp(a, b, v), _lawson_hanson(a, b, v))

    @pytest.mark.parametrize("k", [1, 2, 7, 40])
    def test_nonnegative_qp_is_zero_when_b_is_nowhere_positive(self, k):
        rng = np.random.default_rng(k)
        m = rng.standard_normal((k, k))
        a = m @ m.T + 1e-3 * np.eye(k)
        b = -rng.uniform(0.0, 1.0, k)
        b[0] = 0.0
        x0 = rng.uniform(0.0, 1.0, k) * (rng.uniform(size=k) < 0.7)
        np.testing.assert_array_equal(_nonnegative_qp(a, b, x0), np.zeros(k))

    @pytest.mark.parametrize("k", [1, 2, 7, 40])
    def test_nonnegative_qp_of_a_diagonal_a_clips_b_over_its_diagonal(self, k):
        # k = 1 is the scalar case: max(b / a, 0).
        rng = np.random.default_rng(100 + k)
        d = 10.0 ** rng.uniform(-8.0, 2.0, k)
        b = rng.standard_normal(k)
        x0 = rng.uniform(0.0, 1.0, k) * (rng.uniform(size=k) < 0.5)
        np.testing.assert_array_equal(_nonnegative_qp(np.diag(d), b, x0), np.maximum(b / d, 0.0))

    def test_nonnegative_qp_swaps_many_weights_per_solve(self, monkeypatch):
        # Each solve swaps every infeasible weight.  Active sets that free
        # or fix one weight per solve (Lawson-Hanson) take 706 solves in
        # the 85 QPs of this run, mean 8.31 and at most 25 in one.
        solve, qp, solves, counts = np.linalg.solve, _nonnegative_qp, [], []

        def counted_solve(*args):
            solves.append(1)
            return solve(*args)

        def counted_qp(*args):
            before = len(solves)
            x = qp(*args)
            counts.append(len(solves) - before)
            return x

        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        monkeypatch.setattr(ree, "_nonnegative_qp", counted_qp)
        ree_minimize(random_mixed(Dims(3, 3), None, np.random.default_rng(3)))
        assert counts and sum(counts) <= 4 * len(counts)
        assert max(counts) <= 10

    @settings(max_examples=40, deadline=None)
    @given(dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]), seed=st.integers(0, 2**32 - 1),
           extra=st.integers(1, 40))
    def test_caratheodory_keeps_sigma_with_at_most_n_squared_atoms(self, dims, seed, extra):
        rng = np.random.default_rng(seed)
        n = dims[0] * dims[1]
        atoms = _random_atoms(dims, n * n + extra, rng)
        weights = rng.dirichlet(np.ones(len(atoms)))
        kept, w = _caratheodory(atoms, weights)
        assert len(kept) <= n * n
        assert np.all(w >= 0.0) and math.isclose(float(np.sum(w)), 1.0, abs_tol=1e-12)
        np.testing.assert_allclose(_assemble(kept, w), _assemble(atoms, weights), atol=1e-13)


def _nonnegative_qp_from_positive_weights(a, b, x):
    """``_lawson_hanson`` started with only the positive weights free."""
    return _lawson_hanson(a, b, x, x > 0.0)


def _lawson_hanson(a, b, x, free=None):
    """argmin over x >= 0 of x.a.x / 2 - b.x by Lawson-Hanson active sets, from
    the feasible ``x`` with ``free`` free, by default as ``_nonnegative_qp``
    starts: solve on the free set; step back to the first weight the solve
    sends below 0 and fix it at 0, or else free the fixed weight whose
    gradient is most negative.  One weight enters or leaves per solve."""
    entry = 1e-14 * (1.0 + np.abs(b).max())
    if free is None:
        free = (x > 0.0) | (b - a @ x > entry)
    for _ in range(3 * len(b)):
        z = np.zeros_like(x)
        z[free] = zf = np.linalg.solve(a[free][:, free], b[free])
        if np.all(zf > 0.0):
            x = z
            r = np.where(free, -np.inf, b - a @ x)
            j = int(np.argmax(r))
            if r[j] <= entry:
                break
            free[j] = True
        else:
            neg = np.flatnonzero(free & (z <= 0.0))
            ratio = x[neg] / (x[neg] - z[neg])
            x = x + ratio.min() * (z - x)
            x[neg[np.argmin(ratio)]] = 0.0
            free &= x > 0.0
            x[~free] = 0.0
    return x


def _new_atoms_pairwise(a, b, vals, level):
    """``_new_atoms`` by one overlap per pair of candidates."""
    cands = (a[:, :, None] * b[:, None, :]).reshape(len(vals), -1)
    taken = []
    for r in np.argsort(vals):
        if vals[r] >= level:
            break
        if all(abs(np.vdot(cands[q], cands[r])) ** 2 < ree.DEDUPE_OVERLAP for q in taken):
            taken.append(int(r))
    return cands[taken]


def _random_hermitian(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return z + z.conj().T


def _random_rows(k, d, rng):
    x = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class TestProductSearch:
    @settings(max_examples=40, deadline=None)
    @given(dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]),
           seed=st.integers(0, 2**32 - 1), k=st.integers(1, 73))
    def test_partial_expectations_match_the_einsum_reference(self, dims, seed, k):
        rng = np.random.default_rng(seed)
        dA, dB = dims
        g4 = _random_hermitian(dA * dB, rng).reshape(dA, dB, dA, dB)
        a, b = _random_rows(k, dA, rng), _random_rows(k, dB, rng)
        for got, ref in [
            (ree._partial_expectation(g4, a), np.einsum("ri,ijkl,rk->rjl", a.conj(), g4, a)),
            (ree._partial_expectation(np.ascontiguousarray(g4.transpose(1, 0, 3, 2)), b),
             np.einsum("rj,ijkl,rl->rik", b.conj(), g4, b)),
        ]:
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))

    @settings(max_examples=40, deadline=None)
    @given(dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]),
           seed=st.integers(0, 2**32 - 1), k=st.integers(0, ree.RESTARTS))
    def test_each_value_is_its_product_expectation(self, dims, seed, k):
        # k carried rows go first.  Each alternating half-step is
        # nonincreasing, so a carried row ends at or below the value its
        # first half-step reaches, lambda_min(<a|G|a>) at its start: carrying
        # the last search's rows can only resume it.
        rng = np.random.default_rng(seed)
        dA, dB = dims
        g = _random_hermitian(dA * dB, rng)
        atol = 1e-12 * np.abs(g).max()
        carried = _random_rows(k, dA, rng)
        a, b, vals = ree._min_product_expectation(g, dA, dB, ree.RESTARTS, rng, carried)
        assert len(vals) == ree.RESTARTS + k
        ab = (a[:, :, None] * b[:, None, :]).reshape(len(vals), -1)
        expect = np.einsum("ri,ij,rj->r", ab.conj(), g, ab)
        np.testing.assert_allclose(vals, expect.real, rtol=0, atol=atol)
        np.testing.assert_allclose(expect.imag, 0.0, atol=atol)
        start = np.einsum("ri,ijkl,rk->rjl", carried.conj(), g.reshape(dA, dB, dA, dB), carried)
        assert np.all(vals[:k] <= np.linalg.eigvalsh(start)[:, 0] + atol)

    @settings(max_examples=60, deadline=None)
    @given(dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]), seed=st.integers(0, 2**32 - 1),
           k=st.integers(1, 40), repeats=st.integers(0, 10))
    def test_new_atoms_match_the_pairwise_reference(self, dims, seed, k, repeats):
        # Candidates repeat exactly, up to a phase, or nearly, as restarts
        # that reach the same local minimizer do.
        rng = np.random.default_rng(seed)
        a, b = _random_rows(k, dims[0], rng), _random_rows(k, dims[1], rng)
        vals = rng.standard_normal(k)
        for _ in range(repeats):
            i, j = rng.integers(k, size=2)
            a[j] = a[i] * np.exp(1j * rng.uniform(0, 2 * np.pi)) + rng.choice([0.0, 0.05])
            b[j] = b[i] / np.linalg.norm(b[i])
            a[j] /= np.linalg.norm(a[j])
            vals[j] = vals[i] + rng.choice([0.0, 1e-9])
        level = float(rng.uniform(-1.0, 2.0))
        np.testing.assert_array_equal(ree._new_atoms(a, b, vals, level),
                                      _new_atoms_pairwise(a, b, vals, level))


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


def _reference_dpi(rho, sigma, channel):
    """``ree_data_processing_check`` as it was before its outcomes came from
    the channels kernel: each outcome as the sandwich K rho K^dag."""
    from entmon.channels import _embedded_kraus
    from entmon.ree import DataProcessingReport
    from entmon.states import _rel_entropy_psd

    sig_min = float(np.linalg.eigvalsh(sigma.matrix)[0])
    if sig_min < 1e-12:
        return DataProcessingReport(
            math.nan, math.nan, math.nan, np.array([]), np.array([]), math.nan,
            skipped_reason="sigma is not full rank",
        )
    total = _rel_entropy_psd(rho.matrix, sigma.matrix)
    ops = _embedded_kraus(np.stack(channel.kraus), channel.side, rho.dims)
    ops_dag = ops.conj().swapaxes(-1, -2)
    xs = ops @ rho.matrix @ ops_dag
    ys = ops @ sigma.matrix @ ops_dag
    p = xs.trace(axis1=-2, axis2=-1).real
    q = ys.trace(axis1=-2, axis2=-1).real
    terms = [0.0 if pk < 1e-15 else _rel_entropy_psd(x, y) for pk, x, y in zip(p, xs, ys)]
    outcome = float(sum(terms))
    if math.isinf(outcome) or math.isinf(total):
        return DataProcessingReport(
            outcome, total, math.nan, p, q, math.nan,
            skipped_reason="support violation produced an infinite divergence",
        )
    return DataProcessingReport(
        outcome_divergence=outcome,
        total_divergence=total,
        gap=total - outcome,
        p=p,
        q=q,
        max_prob_deviation=float(np.max(np.abs(p - q))),
    )


def _dpi_channel(kind, d, side, rng):
    if kind == "unitary":
        return LocalKrausChannel(side, (haar_unitary(d, rng),))
    if kind == "mixture":
        return unitary_mixture_channel([0.3, 0.7], [haar_unitary(d, rng) for _ in range(2)], side)
    if kind == "projective":  # rank-deficient outcomes of rho and sigma
        return LocalKrausChannel(side, tuple(np.diag(row) for row in np.eye(d)))
    return random_channel(d, 2 + int(rng.integers(3)), rng, side=side)


class TestDataProcessingMatchesSandwichReference:
    @pytest.mark.parametrize("sigma_rank", ["full", "deficient"])
    @pytest.mark.parametrize("kind", ["unitary", "mixture", "general", "projective"])
    @pytest.mark.parametrize("dims_pair,side", [((2, 2), "B"), ((2, 3), "B"), ((2, 3), "A")])
    def test_reports_match(self, dims_pair, side, kind, sigma_rank):
        dims = Dims(*dims_pair)
        d = dims.factors["AB".index(side)]
        for seed in range(4):
            rng = np.random.default_rng(70 + seed)
            rho = random_mixed(dims, 1 + seed if seed < 2 else None, rng)
            sigma = random_mixed(dims, None if sigma_rank == "full" else dims.total - 1, rng)
            channel = _dpi_channel(kind, d, side, rng)
            rep = ree_data_processing_check(rho, sigma, channel)
            ref = _reference_dpi(rho, sigma, channel)
            assert rep.skipped_reason == ref.skipped_reason
            assert (rep.skipped_reason is None) == (sigma_rank == "full")
            np.testing.assert_allclose(
                [rep.outcome_divergence, rep.total_divergence, rep.gap, rep.max_prob_deviation],
                [ref.outcome_divergence, ref.total_divergence, ref.gap, ref.max_prob_deviation],
                rtol=0, atol=1e-10)
            np.testing.assert_allclose(rep.p, ref.p, rtol=0, atol=1e-10)
            np.testing.assert_allclose(rep.q, ref.q, rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# The data-processing check as one stack of pairs.  The references are the
# per-pair code it replaced: ``_rel_entropy_psd`` with masked sums, and the
# check with an ``eigvalsh`` full-rank guard and one divergence per outcome.


def _reference_rel_entropy(x, y):
    from entmon.states import TOL_SUPPORT

    xv = np.clip(np.linalg.eigvalsh(x), 0.0, None)
    pos = xv[xv > TOL_SUPPORT]
    tr_x_ln_x = float(np.sum(pos * np.log(pos)))
    yv, yu = np.linalg.eigh(y)
    yv = np.clip(yv, 0.0, None)
    weights = np.clip(np.real(np.einsum("ij,jk,ki->i", yu.conj().T, x, yu)), 0.0, None)
    kernel = yv <= TOL_SUPPORT
    if float(np.sum(weights[kernel])) > 1e-10:
        return math.inf
    supp = ~kernel
    return tr_x_ln_x - float(np.sum(weights[supp] * np.log(yv[supp])))


def _reference_dpi_check(rho, sigma, channel):
    from entmon.channels import _gram_outcomes
    from entmon.ree import DataProcessingReport

    if float(np.linalg.eigvalsh(sigma.matrix)[0]) < 1e-12:
        return DataProcessingReport(math.nan, math.nan, math.nan, np.array([]), np.array([]),
                                    math.nan, skipped_reason="sigma is not full rank")
    total = _reference_rel_entropy(rho.matrix, sigma.matrix)
    outs = _gram_outcomes(np.stack(channel.kraus), channel.side,
                          np.stack([rho.matrix, sigma.matrix]), rho.dims)[0]
    p, q = outs.trace(axis1=-2, axis2=-1).real
    outcome = float(sum(_reference_rel_entropy(x, y) for x, y in zip(*outs)))
    if math.isinf(outcome) or math.isinf(total):
        return DataProcessingReport(outcome, total, math.nan, p, q, math.nan,
                                    skipped_reason="support violation produced an infinite "
                                                   "divergence")
    return DataProcessingReport(outcome, total, total - outcome, p, q,
                                float(np.max(np.abs(p - q))))


def _same_bits(a, b):
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and np.array_equal(a, b)
    return a == b or (math.isnan(a) and math.isnan(b))


def _assert_same_dpi(rep, ref):
    for name in ("outcome_divergence", "total_divergence", "gap", "p", "q",
                 "max_prob_deviation", "skipped_reason"):
        assert _same_bits(getattr(rep, name), getattr(ref, name)), name


def _psd(n, rank, rng):
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return g @ g.conj().T * rng.uniform(0.1, 2.0)


class TestDataProcessingStack:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 9), m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_rel_entropy_stack_matches_per_pair_reference(self, n, m, seed, data):
        from entmon.states import _rel_entropy_psd, _rel_entropy_stack

        rng = np.random.default_rng(seed)
        ranks = data.draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n)),
                                   min_size=m, max_size=m))
        x = np.stack([_psd(n, rx, rng) for rx, _ in ranks])
        y = np.stack([_psd(n, ry, rng) for _, ry in ranks])
        stacked = _rel_entropy_stack(x, *np.linalg.eigh(y)).tolist()
        assert stacked == [_reference_rel_entropy(a, b) for a, b in zip(x, y)]
        assert stacked == [_rel_entropy_psd(a, b) for a, b in zip(x, y)]

    @pytest.mark.parametrize("n", [8, 9, 12])
    def test_rel_entropy_stack_sums_each_support_alone(self, n):
        # From 8 terms up, numpy sums pairwise, so a sum over a zero-filled
        # row rounds unlike the same sum over the support alone: the stack
        # must sum each member's support as its own call does.
        from entmon.states import _rel_entropy_stack

        rng = np.random.default_rng(n)
        x = np.stack([_psd(n, int(r), rng) for r in rng.integers(1, n + 1, 200)])
        y = np.stack([_psd(n, int(r), rng) for r in rng.integers(n - 1, n + 1, 200)])
        stacked = _rel_entropy_stack(x, *np.linalg.eigh(y)).tolist()
        assert stacked == [_reference_rel_entropy(a, b) for a, b in zip(x, y)]

    @pytest.mark.parametrize("dims_pair,side", [((2, 2), "B"), ((2, 3), "B"), ((2, 3), "A"),
                                                ((3, 3), "B")])
    def test_stack_matches_per_pair_reference(self, dims_pair, side):
        from entmon.ree import _data_processing_stack

        dims = Dims(*dims_pair)
        d = dims.factors["AB".index(side)]
        rng = np.random.default_rng(80)
        mats, channels = [], []
        for kind in ("unitary", "mixture", "general", "projective"):
            for seed in range(4):
                rho = random_mixed(dims, 1 + seed if seed < 2 else None, rng)
                sigma = random_mixed(dims, None if seed % 3 else dims.total - 1, rng)
                mats.append([rho.matrix, sigma.matrix])
                channels.append(_dpi_channel(kind, d, side, rng))
        refs = [_reference_dpi_check(DensityMatrix(r, dims), DensityMatrix(s, dims), channel)
                for (r, s), channel in zip(mats, channels)]
        assert {ref.skipped_reason for ref in refs} == {None, "sigma is not full rank"}
        for rep, ref in zip(_data_processing_stack(np.array(mats), channels, dims), refs):
            _assert_same_dpi(rep, ref)
        for (r, s), channel, ref in zip(mats, channels, refs):
            _assert_same_dpi(ree_data_processing_check(DensityMatrix(r, dims),
                                                       DensityMatrix(s, dims), channel), ref)

    @pytest.mark.parametrize("n_kraus", [2, 4])
    def test_sigma_is_decomposed_once(self, monkeypatch, n_kraus):
        # The parent decomposed sigma three times per call (the guard's
        # eigvalsh, the divergence's eigh and the Gram kernel's eigh), in
        # 2 K + 4 calls; now one eigh of [rho, sigma] serves all three.
        rng = np.random.default_rng(81)
        rho, sigma = random_mixed(Dims(2, 3), None, rng), random_mixed(Dims(2, 3), None, rng)
        channel = random_channel(3, n_kraus, rng)
        calls = []
        for name in ("eigh", "eigvalsh"):
            def recording(a, *args, _f=getattr(np.linalg, name), _name=name, **kwargs):
                calls.append((_name, np.array(a)))
                return _f(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, recording)
        rep = ree_data_processing_check(rho, sigma, channel)
        assert rep.skipped_reason is None
        with_sigma = [name for name, a in calls
                      for m in a.reshape(-1, 6, 6) if np.array_equal(m, sigma.matrix)]
        assert with_sigma == ["eigh"]
        assert len(calls) == 4


def _reference_sweep_ree_dpi(config):
    """The ``ree-dpi`` sweep as it was: per trial two validated states, one
    channel and one per-pair check."""
    from entmon.channels import _build_channels, classify
    from entmon.verify import CHECK_IDS, EQUALITY_TOL, _report, _trial_draw

    check_idx = CHECK_IDS.index("ree-dpi")
    reports = []
    for t in range(config.trials):
        seed = derived_seed(config.seed, check_idx, t)
        rng = np.random.default_rng(seed)
        dims_pair = config.dims[t % len(config.dims)]
        dims = Dims(*dims_pair)
        rho, sigma = random_mixed(dims, None, rng), random_mixed(dims, None, rng)
        channel = _build_channels([_trial_draw(config, t, dims_pair[1], rng, 4, 2)])[0]
        rep = _reference_dpi_check(rho, sigma, channel)
        if rep.skipped_reason is not None:
            lhs, rhs, metadata = 0.0, 0.0, {"reason": rep.skipped_reason}
        else:
            equality = bool(rep.gap < EQUALITY_TOL)
            lhs, rhs = rep.total_divergence, rep.outcome_divergence
            metadata = {"rule": "gap >= -tolerance and probabilities unchanged" if equality
                        else "gap >= -tolerance",
                        "max_prob_deviation": rep.max_prob_deviation, "equality_case": equality}
        reports.append(_report("ree-dpi", "ree", classify(channel).tag, lhs, rhs, EQUALITY_TOL,
                               seed, metadata))
    return reports


class TestReeDpiSweepMatchesPerTrialReference:
    @pytest.mark.parametrize("seed,trials,small", [(seed, trials, seed == 1) for seed in range(3)
                                                   for trials in (0, 1, 7, 24)])
    def test_sweep(self, seed, trials, small, monkeypatch):
        from entmon import verify

        if small:  # many batches, a dims of several trials in each
            monkeypatch.setattr(verify, "_BATCH_STATES", 9)
        config = verify.SweepConfig(dims=((2, 2), (2, 3), (3, 2)), trials=trials,
                                    n_kraus=2 + seed, seed=seed)
        stacked = verify._sweep_ree_dpi(config, verify.CHECK_IDS.index("ree-dpi"))
        reference = _reference_sweep_ree_dpi(config)
        assert [verify.report_to_json(r) for r in stacked] == \
            [verify.report_to_json(r) for r in reference]
        if trials == 24:
            assert {r.channel_class for r in stacked} == {"general", "mixture-of-local-unitaries"}


@settings(max_examples=60, deadline=None)
@given(d_b=st.sampled_from([2, 3]), c=st.floats(0.05, 1.0), log_eps=st.floats(-12.0, -3.0),
       seed=st.integers(0, 2**32 - 1))
def test_dpi_holds_on_rank_one_inputs_under_near_annihilating_families(d_b, c, log_eps, seed):
    # The families of the benchmark's known-defect probe, sqrt(c)|w><w| and
    # I - (1 - sqrt(1 - c))|w><w|, on a pure rho whose B support is w-perp
    # up to amplitude noise eps: the first outcome of rho nearly vanishes.
    from entmon.states import PureState
    from entmon.verify import EQUALITY_TOL

    rng = np.random.default_rng(seed)
    u = haar_unitary(d_b, rng)
    w, perp = u[:, 0], u[:, 1:]
    proj = np.outer(w, w.conj())
    channel = LocalKrausChannel("B", (math.sqrt(c) * proj,
                                      np.eye(d_b) - (1.0 - math.sqrt(1.0 - c)) * proj))
    g = rng.standard_normal((2, d_b - 1)) + 1j * rng.standard_normal((2, d_b - 1))
    psi = (g @ perp.T).reshape(-1)
    z = rng.standard_normal(2 * d_b) + 1j * rng.standard_normal(2 * d_b)
    psi = psi / np.linalg.norm(psi) + 10.0 ** log_eps * z / np.linalg.norm(z)
    rho = PureState(psi / np.linalg.norm(psi), Dims(2, d_b)).density()
    sigma = random_mixed(Dims(2, d_b), None, rng)
    rep = ree_data_processing_check(rho, sigma, channel)
    assert rep.gap >= -EQUALITY_TOL


def test_importing_the_package_leaves_scipy_optimize_unloaded():
    # No scipy module is loaded, by the import or by a solve.
    import entmon

    src = str(Path(entmon.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    code = ("import sys, numpy as np, entmon\n"
            "from entmon.sampling import random_mixed\n"
            "from entmon.states import Dims\n"
            "entmon.ree.ree_minimize(random_mixed(Dims(2, 2), 3, np.random.default_rng(0)))\n"
            "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"
