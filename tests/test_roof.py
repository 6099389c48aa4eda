"""Convex-roof optimizer against the two-qubit Wootters oracle."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entmon.measures import (
    CONCURRENCE,
    ENTROPY,
    G_CONCURRENCE,
    NEGATIVITY_H,
    TANGLE,
    negativity,
    pure_measure,
    renyi,
    tsallis,
    wootters_concurrence,
    wootters_eof,
)
from entmon.registry import evaluate_measure
from entmon.roof import (
    VALUE_FLOOR,
    WEIGHT_FLOOR,
    Decomposition,
    _inner,
    _qubit_reduction,
    _RoofObjective,
    _spectral_gradient,
    _tangent,
    decomposition_from_isometry,
    default_n_terms,
    is_kinked,
    roof_minimize,
)
from entmon.sampling import _haar_stack, haar_unitary, random_mixed, random_pure, random_separable
from entmon.states import (
    TOL_PSD,
    DensityMatrix,
    DimensionMismatchError,
    Dims,
    PureState,
    StateValidationError,
    bell_state,
    partial_trace,
    von_neumann_entropy,
    werner_state,
)
from entmon.verify import derived_seed


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

    @pytest.mark.parametrize("kwargs", [
        {"restarts": 2.5}, {"restarts": True}, {"restarts": "3"}, {"restarts": 0},
        {"restarts": None}, {"n_terms": 4.0}, {"n_terms": True}, {"n_terms": "4"},
        {"n_terms": 0}, {"n_terms": -1},
    ], ids=repr)
    def test_counts_must_be_integers_of_at_least_one(self, kwargs, monkeypatch):
        # Refused before any work: the objective, which diagonalizes the
        # input, is never built.  Floats and bools were read deep inside the
        # call (a TypeError, or n_terms=True taken as 1).
        from entmon import roof

        def no_work(*args):
            raise AssertionError("the call started work")

        rho = random_mixed(Dims(2, 2), 3, np.random.default_rng(9))
        monkeypatch.setattr(roof, "_RoofObjective", no_work)
        with pytest.raises(ValueError, match="integers of at least 1"):
            roof_minimize(ENTROPY, rho, **kwargs)

    def test_numpy_integer_counts_are_accepted(self):
        rho = random_mixed(Dims(2, 2), 3, np.random.default_rng(9))
        ref = roof_minimize(ENTROPY, rho, 4, 2, rng=np.random.default_rng(0))
        res = roof_minimize(ENTROPY, rho, np.int64(4), np.int32(2), rng=np.random.default_rng(0))
        assert res.value == ref.value and res.restarts_used == 2

    def test_g_concurrence_on_a_larger_a_factor_matches_its_swap(self):
        # Known defect 9: every member's A marginal on 3x2 has a zero
        # eigenvalue, which the G-concurrence reads as 0; the objective now
        # reads the smaller marginals, so the call equals its 2x3 swap's.
        rho = random_mixed(Dims(3, 2), 2, np.random.default_rng(1))
        swap = rho.matrix.reshape(3, 2, 3, 2).transpose(1, 0, 3, 2).reshape(6, 6)
        res = roof_minimize(G_CONCURRENCE, rho, restarts=4, rng=np.random.default_rng(0))
        ref = roof_minimize(G_CONCURRENCE, DensityMatrix(swap, Dims(2, 3)), restarts=4,
                            rng=np.random.default_rng(0))
        assert res.converged and res.value > 0.5
        assert res.value == pytest.approx(ref.value, abs=1e-9)
        assert res.best.average_value(G_CONCURRENCE) == pytest.approx(res.value, abs=1e-12)
        assert np.linalg.norm(res.best.reconstruct() - rho.matrix) < 1e-8

    def test_default_n_terms(self):
        assert default_n_terms(random_mixed(Dims(2, 2), 4, np.random.default_rng(0))) == 4
        assert default_n_terms(random_mixed(Dims(2, 3), 2, np.random.default_rng(1))) == 4
        assert default_n_terms(random_mixed(Dims(2, 3), 6, np.random.default_rng(2))) == 8

    @pytest.mark.parametrize("dims_pair", [(3, 3), (2, 5), (3, 4)])
    def test_default_n_terms_covers_the_rank(self, dims_pair):
        # Known defect 1: the default was capped at 8, below every rank of 9
        # or more, so roof_minimize refused its own default.
        dims = Dims(*dims_pair)
        for rank in range(1, dims.total + 1):
            rho = random_mixed(dims, rank, np.random.default_rng(rank))
            assert default_n_terms(rho) == max(rank, min(rank * rank, 2 * rank, 8))

    def test_full_rank_3x3_input_runs_at_the_default_n_terms(self):
        rho = random_mixed(Dims(3, 3), None, np.random.default_rng(0))
        res = roof_minimize(ENTROPY, rho, None, 1)
        assert np.isfinite(res.value) and res.value >= 0.0
        assert len(res.best.weights) <= 9


class TestSmoothPath:
    def test_converged_wherever_criterion_4_is_accurate(self):
        # converged is the winner's stopping rule, so every input on which
        # the value matches Wootters to 1e-8 must report it.
        for t in range(100):
            seed = derived_seed(99, t)
            rho = random_mixed(Dims(2, 2), 1 + t % 4, np.random.default_rng(seed))
            res = roof_minimize(ENTROPY, rho, n_terms=4, restarts=20,
                                rng=np.random.default_rng(seed))
            if abs(res.value - wootters_eof(rho)) < 1e-8:
                assert res.converged, f"trial {t}: accurate value {res.value} not converged"

    def test_leaves_the_random_search_plateau(self):
        # The random-step search stopped at 0.12883 on this 2x3 rank-4 state.
        rho = random_mixed(Dims(2, 3), 4, np.random.default_rng(7))
        res = roof_minimize(ENTROPY, rho, rng=np.random.default_rng(7))
        assert res.value <= 0.1265
        vals, vecs = np.linalg.eigh(rho.matrix)
        eig_avg = sum(lam * pure_measure(ENTROPY, PureState(vec, rho.dims)).value
                      for lam, vec in zip(vals, vecs.T) if lam > 1e-9)
        coherent = max(von_neumann_entropy(partial_trace(rho, side))
                       for side in ("A", "B")) - von_neumann_entropy(rho)
        assert coherent - 1e-12 <= res.value <= eig_avg + 1e-12

    def test_nonmonotone_armijo_takes_fewer_steps(self, monkeypatch):
        # Each lockstep step retracts its trial isometries with one QR call.
        # With the monotone Armijo test this input takes 208 steps; with the
        # nonmonotone one it takes 176, at the same accuracy.
        from entmon import roof

        steps = []
        qr = roof._haar_stack

        def counting(x):
            steps.append(1)
            return qr(x)

        rho = random_mixed(Dims(2, 2), 4, np.random.default_rng(0))
        monkeypatch.setattr(roof, "_haar_stack", counting)
        res = roof_minimize(ENTROPY, rho, n_terms=4, restarts=20, rng=np.random.default_rng(0))
        assert len(steps) - 1 < 190  # one call builds the starting isometries
        assert res.converged
        assert abs(res.value - wootters_eof(rho)) < 1e-12

    def test_full_rank_3x3_input_converges_at_any_restart_count(self):
        # Known defect 8: with the long Barzilai-Borwein step neither call
        # converged, and the two upper bounds were 7.5e-5 apart (0.0357511
        # and 0.0356766).
        rho = random_mixed(Dims(3, 3), None, np.random.default_rng(0))
        few, many = (roof_minimize(ENTROPY, rho, None, restarts, rng=np.random.default_rng(0))
                     for restarts in (4, 20))
        assert few.converged and many.converged
        assert abs(few.value - many.value) < 1e-8

    def test_chains_stop_once_one_reaches_the_value_floor(self, monkeypatch):
        # On this separable input the winning chain stops at about 5e-13
        # within ~100 steps, which ends the search; without the floor five
        # other chains run to the 2000-step cap (some 17000 evaluated
        # isometries).
        evaluated = []
        evaluate = _RoofObjective.evaluate

        def counting(self, q, *args, **kwargs):
            evaluated.append(int(np.prod(q.shape[:-2])))
            return evaluate(self, q, *args, **kwargs)

        monkeypatch.setattr(_RoofObjective, "evaluate", counting)
        rho = random_separable(Dims(2, 2), 3, np.random.default_rng(200))
        res = roof_minimize(TANGLE, rho, restarts=10, rng=np.random.default_rng(200))
        assert res.value <= VALUE_FLOOR
        assert res.converged
        assert sum(evaluated) < 3000


# Two-qubit roofs of the kinked kinds in closed form: the concurrence
# (Wootters), the negativity h-function at C/2 (Lee et al., PRA 68, 062304
# (2003)) and the G-concurrence, which equals C on two qubits (Gour, PRA
# 71, 012318 (2005)).
KINKED_ORACLES = [(CONCURRENCE, 1.0), (NEGATIVITY_H, 0.5), (G_CONCURRENCE, 1.0)]
KINKED_IDS = [h.measure_id for h, _ in KINKED_ORACLES]


class TestKinkedPath:
    @pytest.mark.parametrize("h,scale", KINKED_ORACLES, ids=KINKED_IDS)
    def test_matches_two_qubit_oracle(self, h, scale):
        for t in range(6):
            rho = random_mixed(Dims(2, 2), 2 + t % 3, np.random.default_rng(100 + t))
            res = roof_minimize(h, rho, rng=np.random.default_rng(t))
            assert res.value == pytest.approx(scale * wootters_concurrence(rho), abs=1e-8)

    @pytest.mark.parametrize("h,scale", KINKED_ORACLES, ids=KINKED_IDS)
    # C = 1e-2 just above the separability threshold, and C = 0 on it.
    @pytest.mark.parametrize("p,c,seed", [(0.34, 1e-2, s) for s in range(5)] + [(1.0 / 3.0, 0.0, 0)])
    def test_werner_states_at_the_threshold(self, h, scale, p, c, seed):
        rho = werner_state(p)
        assert wootters_concurrence(rho) == pytest.approx(c, abs=1e-14)
        res = roof_minimize(h, rho, rng=np.random.default_rng(seed))
        assert res.value == pytest.approx(scale * c, abs=1e-8)
        assert res.converged

    @staticmethod
    def _record_stages(monkeypatch, regress_last=False):
        """Exact values at the end of every stage; with ``regress_last`` the
        last stage ends at the eigendecomposition instead."""
        from entmon import roof

        descent = roof._riemannian_descent
        stage_values = []

        def recorded(objective, q, eps=0.0, step=None):
            q, exact, converged, step = descent(objective, q, eps, step)
            if regress_last and eps == roof.SMOOTHING[-1]:
                q = _haar_stack(np.broadcast_to(np.eye(*q.shape[-2:]), q.shape).copy())
                exact = objective.evaluate(q)[0]
            stage_values.append(objective.evaluate(q)[0])
            return q, exact, converged, step

        monkeypatch.setattr(roof, "_riemannian_descent", recorded)
        return stage_values

    def test_keeps_a_stage_that_ends_below_the_last(self, monkeypatch):
        # With the nonmonotone test a stage can end above the one before:
        # on this input the best chain's last stage ends 1.5e-8 above its
        # best earlier one.
        stage_values = self._record_stages(monkeypatch)
        rho = random_mixed(Dims(2, 3), 3, np.random.default_rng(1003))
        res = roof_minimize(NEGATIVITY_H, rho, restarts=4, rng=np.random.default_rng(3))
        assert res.value == np.min(stage_values)
        assert res.value < stage_values[-1].min() - 1e-9
        assert res.best.average_value(NEGATIVITY_H) == pytest.approx(res.value, abs=1e-12)

    def test_returns_the_least_value_over_the_stages(self, monkeypatch):
        # The last stage is made to end at the eigendecomposition, far above
        # the earlier stages; each chain must keep its best stage.
        from entmon.roof import SMOOTHING

        stage_values = self._record_stages(monkeypatch, regress_last=True)
        rho = random_mixed(Dims(2, 2), 3, np.random.default_rng(100))
        res = roof_minimize(CONCURRENCE, rho, restarts=4, rng=np.random.default_rng(0))
        assert len(stage_values) == len(SMOOTHING)
        assert res.value < stage_values[-1].min()
        assert res.value == np.min(stage_values)
        assert res.value == pytest.approx(wootters_concurrence(rho), abs=1e-8)
        assert res.best.average_value(CONCURRENCE) == pytest.approx(res.value, abs=1e-12)
        np.testing.assert_allclose(res.best.reconstruct(), rho.matrix, atol=1e-12)

    @staticmethod
    def _count_evaluations(monkeypatch):
        """(eps, grad, isometries) of every ``_RoofObjective.evaluate`` call."""
        calls = []
        evaluate = _RoofObjective.evaluate

        def counting(self, q, eps=0.0, grad=False):
            calls.append((eps, grad, int(np.prod(np.shape(q)[:-2]))))
            return evaluate(self, q, eps, grad)

        monkeypatch.setattr(_RoofObjective, "evaluate", counting)
        return calls

    def test_each_chain_has_one_exact_value_per_stage(self, monkeypatch):
        # A chain's exact value is taken when it stops, or when the stage
        # ends with it still active, and serves both the stage's early end
        # and the chain's best value over the stages.
        from entmon.roof import SMOOTHING

        calls = self._count_evaluations(monkeypatch)
        rho = random_mixed(Dims(2, 2), 3, np.random.default_rng(100))
        res = roof_minimize(CONCURRENCE, rho, restarts=4, rng=np.random.default_rng(0))
        assert res.converged
        exact = sum(n for eps, grad, n in calls if eps == 0.0 and not grad)
        assert 0 < exact <= 4 * len(SMOOTHING)

    def test_a_stage_rerun_from_its_end_stops_at_once(self, monkeypatch):
        # Each chain enters a stage with the step it left the last one with.
        # Re-entered at STEP_INIT / |gradient| instead, a stopped chain
        # backtracks about 25 times before it stops again.
        from entmon.roof import SMOOTHING, _riemannian_descent

        rho = random_mixed(Dims(2, 2), 3, np.random.default_rng(101))
        objective = _RoofObjective(CONCURRENCE, rho)
        q = _haar_stack(np.random.default_rng(1).standard_normal((4, 4, 3)) + 0j)
        step = None
        calls = self._count_evaluations(monkeypatch)
        for eps in SMOOTHING:
            q, exact, converged, step = _riemannian_descent(objective, q, eps, step)
            for c in range(len(q)):
                calls.clear()
                _riemannian_descent(objective, q[c:c + 1], eps, step[c:c + 1])
                assert len(calls) <= 3, (eps, c, len(calls))

    def test_many_member_call_leaves_the_step_cap_in_the_late_stages(self, monkeypatch):
        # Known defect 4: with the long Barzilai-Borwein step the stages
        # eps = 1e-3 to 1e-6 of this call each ran to DESCENT_ITERS steps,
        # 11,180 steps in all.  With the short step it takes about 6,200 and
        # the stages eps <= 1e-5 stop on their own; eps = 1e-3 and 1e-4
        # still reach the cap.
        from entmon import roof

        descent, qr = roof._riemannian_descent, roof._haar_stack
        retractions, stage_steps = [0], []

        def counting(x):
            retractions[0] += 1
            return qr(x)

        def recorded(objective, q, eps=0.0, step=None):
            before = retractions[0]
            out = descent(objective, q, eps, step)
            stage_steps.append(retractions[0] - before)
            return out

        monkeypatch.setattr(roof, "_haar_stack", counting)
        monkeypatch.setattr(roof, "_riemannian_descent", recorded)
        rho = random_mixed(Dims(2, 3), 4, np.random.default_rng(1))
        res = roof_minimize(CONCURRENCE, rho, restarts=4, rng=np.random.default_rng(0))
        assert res.converged
        assert len(stage_steps) == len(roof.SMOOTHING)
        assert sum(stage_steps) < 8000
        assert max(stage_steps[roof.SMOOTHING.index(1e-5):]) < roof.DESCENT_ITERS

    def test_one_exact_evaluation_per_stage(self, monkeypatch):
        # h_eps <= h, so only a chain that stops at a smoothed value at most
        # VALUE_FLOOR can end the stage on its exact value; every other
        # chain's exact value waits for the one batched call at the stage's
        # end.  Taking each at once cost 73 value-only calls on this input.
        from entmon import roof

        descent, evaluate = roof._riemannian_descent, _RoofObjective.evaluate
        stage, extra = [], {}

        def counting(self, q, eps=0.0, grad=False):
            if stage and not grad and eps == 0.0:
                smoothed = evaluate(self, q, stage[-1])[0]
                extra[stage[-1]] += int(np.any(smoothed > VALUE_FLOOR))
            return evaluate(self, q, eps, grad)

        def recorded(objective, q, eps=0.0, step=None):
            stage.append(eps)
            extra[eps] = 0
            out = descent(objective, q, eps, step)
            stage.pop()
            return out

        monkeypatch.setattr(_RoofObjective, "evaluate", counting)
        monkeypatch.setattr(roof, "_riemannian_descent", recorded)
        rho = random_mixed(Dims(2, 2), 3, np.random.default_rng(100))
        res = roof_minimize(CONCURRENCE, rho, rng=np.random.default_rng(0))
        assert res.value == pytest.approx(wootters_concurrence(rho), abs=1e-8)
        assert len(extra) == len(roof.SMOOTHING)
        assert max(extra.values()) <= 1

    def test_converged_wherever_concurrence_is_accurate(self):
        # As for the entropy: converged is the winner's stopping rule in
        # the final smoothing stage.
        for t in range(30):
            seed = derived_seed(98, t)
            rho = random_mixed(Dims(2, 2), 1 + t % 4, np.random.default_rng(seed))
            res = roof_minimize(CONCURRENCE, rho, n_terms=4, restarts=20,
                                rng=np.random.default_rng(seed))
            if abs(res.value - wootters_concurrence(rho)) < 1e-8:
                assert res.converged, f"trial {t}: accurate value {res.value} not converged"


def _marginal_purities(rho: DensityMatrix) -> tuple[float, float]:
    return tuple(float(np.real(np.trace(r @ r)))
                 for r in (partial_trace(rho, "B").matrix, partial_trace(rho, "A").matrix))


# 2x2 of rank 2-4 and 2x3 of rank 2-3: a 2x3 rank-4 call takes seconds.
LOWER_BOUND_INPUTS = st.sampled_from([(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])


class TestRoofLowerBounds:
    # Any convex function equal to h on pure states bounds its roof from
    # below, so every decomposition found must lie above it.
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dims_rank=LOWER_BOUND_INPUTS)
    def test_concurrence_above_mintert_buchleitner(self, seed, dims_rank):
        # C(rho)^2 >= 2 Tr rho^2 - Tr rho_A^2 - Tr rho_B^2 (Mintert &
        # Buchleitner, PRL 98, 140505 (2007)).
        dB, rank = dims_rank
        rho = random_mixed(Dims(2, dB), rank, np.random.default_rng(seed))
        pa, pb = _marginal_purities(rho)
        bound = np.sqrt(max(0.0, 2.0 * float(np.real(np.trace(rho.matrix @ rho.matrix)))
                            - pa - pb))
        res = roof_minimize(CONCURRENCE, rho, n_terms=rank, restarts=2,
                            rng=np.random.default_rng(seed))
        assert res.value >= bound - 1e-12

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dims_rank=LOWER_BOUND_INPUTS)
    def test_negativity_roof_above_negativity(self, seed, dims_rank):
        dB, rank = dims_rank
        rho = random_mixed(Dims(2, dB), rank, np.random.default_rng(seed))
        roof_value = roof_minimize(NEGATIVITY_H, rho, n_terms=rank, restarts=2,
                                   rng=np.random.default_rng(seed)).value
        assert roof_value >= negativity(rho).value - 1e-12


def test_kinked_kinds_are_those_not_differentiable_at_products():
    kinked = [CONCURRENCE, NEGATIVITY_H, G_CONCURRENCE, renyi(0.5), renyi(0.3), tsallis(0.5)]
    smooth = [ENTROPY, TANGLE, renyi(0.7), renyi(1.0), tsallis(0.7), tsallis(2.0)]
    assert all(is_kinked(h) for h in kinked)
    assert not any(is_kinked(h) for h in smooth)


# Every h kind with an analytic gradient.  The order-1/2 ones are routed
# to the derivative-free search but are differentiable away from products.
GRADIENT_H = [ENTROPY, TANGLE, renyi(0.5), renyi(0.7), renyi(1.0), tsallis(2.0), tsallis(0.5)]
# The kinked kinds' smoothed h_eps, which their descent follows.
KINKED_H = [CONCURRENCE, NEGATIVITY_H, G_CONCURRENCE, renyi(0.5), renyi(0.2), tsallis(0.3)]


class TestRoofGradient:
    @pytest.mark.parametrize("h", GRADIENT_H, ids=lambda h: h.measure_id)
    # 3x2 takes the eigvalsh path for the values, with a zero in every
    # reduced spectrum.
    @pytest.mark.parametrize("dA,dB", [(2, 2), (2, 3), (3, 2)])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_central_difference(self, h, dA, dB, seed):
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(2, dA * dB + 1))
        n = rank + int(rng.integers(0, 3))
        objective = _RoofObjective(h, random_mixed(Dims(dA, dB), rank, rng))
        q = haar_unitary(n, rng)[:, :rank]
        z = _tangent(q, rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank)))
        z /= np.sqrt(_inner(z, z))
        # QR retraction is q + t z to first order; d/dt F = 2 Re Tr(E^dag z).
        t = 1e-6
        fd = (objective.evaluate(_haar_stack(q + t * z))[0]
              - objective.evaluate(_haar_stack(q - t * z))[0]) / (2 * t)
        analytic = 2.0 * _inner(objective.evaluate(q, grad=True)[1], z)
        assert analytic == pytest.approx(fd, rel=1e-5, abs=1e-7)

    @pytest.mark.parametrize("h", KINKED_H, ids=lambda h: h.measure_id)
    @pytest.mark.parametrize("eps", [1e-1, 1e-3])
    @pytest.mark.parametrize("dA,dB", [(2, 2), (2, 3), (3, 2)])
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_smoothed_matches_central_difference(self, h, eps, dA, dB, seed):
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(2, dA * dB + 1))
        n = rank + int(rng.integers(0, 3))
        objective = _RoofObjective(h, random_mixed(Dims(dA, dB), rank, rng))
        q = haar_unitary(n, rng)[:, :rank]
        z = _tangent(q, rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank)))
        z /= np.sqrt(_inner(z, z))
        t = 1e-6
        fd = (objective.evaluate(_haar_stack(q + t * z), eps)[0]
              - objective.evaluate(_haar_stack(q - t * z), eps)[0]) / (2 * t)
        analytic = 2.0 * _inner(objective.evaluate(q, eps, grad=True)[1], z)
        assert analytic == pytest.approx(fd, rel=1e-5, abs=1e-7)

    @pytest.mark.parametrize("h", KINKED_H, ids=lambda h: h.measure_id)
    def test_smoothed_value_is_below_h(self, h):
        rho = random_mixed(Dims(3, 3), 4, np.random.default_rng(14))
        objective = _RoofObjective(h, rho)
        q = haar_unitary(6, np.random.default_rng(15))[:, :4]
        exact = objective.evaluate(q)[0]
        for eps in (1e-1, 1e-4, 1e-30):
            assert 0.0 <= objective.evaluate(q, eps)[0] <= exact + 1e-15
        # The power kinds converge like eps^a, the root kinds like eps.
        assert objective.evaluate(q, 1e-30)[0] == pytest.approx(exact, abs=1e-5)

    @pytest.mark.parametrize("h", GRADIENT_H, ids=lambda h: h.measure_id)
    def test_product_members_are_clipped(self, h):
        # The eigenmembers of this state are products (zero reduced
        # eigenvalues); the gradient stays finite, without RuntimeWarning.
        rho = DensityMatrix(np.diag([0.6, 0.0, 0.0, 0.4]), Dims(2, 2))  # |00>, |11>
        objective = _RoofObjective(h, rho)
        grad = objective.evaluate(np.eye(3, 2), grad=True)[1]
        assert np.all(np.isfinite(grad))
        np.testing.assert_allclose(grad, 0.0, atol=1e-8)


def _eigh_gradient(objective, q, eps=0.0):
    """dF/d conj(q) from an eigh of every member's reduced state, the form
    the solver used for every dA before the closed form for dA = 2."""
    phi = objective.members(q)
    m = phi.reshape(*phi.shape[:-1], objective.dA, objective.dB)
    lam, u = np.linalg.eigh(m @ np.swapaxes(m, -2, -1).conj())
    p = np.sum(np.abs(phi) ** 2, axis=-1)
    live = p > WEIGHT_FLOOR
    mu = np.where(live[..., None], lam / np.where(live, p, 1.0)[..., None], 1.0 / objective.dA)
    g = np.where(live[..., None], _spectral_gradient(objective.h, mu, eps), 0.0)
    gm = (u * g[..., None, :]) @ (np.swapaxes(u, -2, -1).conj() @ m)
    return gm.reshape(phi.shape) @ objective._weighted.conj()


# Every kind with the smoothing parameters at which its descent takes gradients.
GRADIENT_CASES = ([(h, 0.0) for h in GRADIENT_H]
                  + [(h, eps) for h in KINKED_H for eps in (1e-1, 1e-4)])
GRADIENT_CASE_IDS = [f"{h.measure_id}-eps{eps:g}" for h, eps in GRADIENT_CASES]


def _special_objective(h, case):
    """An objective and an isometry whose members are products, maximally
    entangled (reduced spectrum [1/2, 1/2], rad = 0 exactly) or dead."""
    if case == "product":  # |00>, |11>
        return _RoofObjective(h, DensityMatrix(np.diag([0.6, 0.0, 0.0, 0.4]), Dims(2, 2))), np.eye(2)
    if case == "dead":
        return _RoofObjective(h, random_mixed(Dims(2, 3), 2, np.random.default_rng(5))), np.eye(4, 2)
    objective = _RoofObjective(h, random_mixed(Dims(2, 2), 2, np.random.default_rng(5)))
    # sqrt(1/2) times (|00> + |11>)/sqrt(2) and (|01> + |10>)/sqrt(2).
    objective._weighted = 0.5 * np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    return objective, np.eye(2)


class TestOnePass:
    @pytest.mark.parametrize("h,eps", GRADIENT_CASES, ids=GRADIENT_CASE_IDS)
    @pytest.mark.parametrize("dB", [2, 3, 4])
    def test_closed_form_gradient_matches_the_eigh_form(self, h, eps, dB):
        rng = np.random.default_rng(dB)
        for rank in range(2, 2 * dB + 1):
            objective = _RoofObjective(h, random_mixed(Dims(2, dB), rank, rng))
            n = rank + 2
            q = np.stack([haar_unitary(n, rng)[:, :rank] for _ in range(3)])
            ref = _eigh_gradient(objective, q, eps)
            grad = objective.evaluate(q, eps, grad=True)[1]
            assert np.all(np.abs(grad - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.parametrize("h,eps", GRADIENT_CASES, ids=GRADIENT_CASE_IDS)
    @pytest.mark.parametrize("case", ["product", "maximally-entangled", "dead"])
    def test_special_members(self, h, eps, case):
        objective, q = _special_objective(h, case)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            vals, grad = objective.evaluate(q, eps, grad=True)
        assert np.isfinite(vals) and np.all(np.isfinite(grad))
        if case == "product" and eps == 0.0 and is_kinked(h):
            return  # orders at most 1/2 have a kink at products
        z = _tangent(q, np.random.default_rng(6).standard_normal(q.shape) + 0.5j)
        z /= np.sqrt(_inner(z, z))
        t = 1e-6
        fd = (objective.evaluate(_haar_stack(q + t * z), eps)[0]
              - objective.evaluate(_haar_stack(q - t * z), eps)[0]) / (2 * t)
        assert 2.0 * _inner(grad, z) == pytest.approx(fd, rel=1e-5, abs=1e-7)

    @pytest.mark.parametrize("h", [ENTROPY, CONCURRENCE], ids=lambda h: h.measure_id)
    def test_two_qubit_call_diagonalizes_rho_alone(self, h, monkeypatch):
        # The eigendecompositions of rho (solver set-up, objective and the
        # returned decomposition); the members' gradients take no eigh.
        calls = []
        eigh = np.linalg.eigh

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        rho = random_mixed(Dims(2, 2), 3, np.random.default_rng(8))
        res = roof_minimize(h, rho, rng=np.random.default_rng(8))
        assert res.converged
        assert len(calls) <= 3


class TestProductStage:
    # werner_state(1/3) is separable, so every roof of it is 0.
    @pytest.mark.parametrize("h", [CONCURRENCE, NEGATIVITY_H, G_CONCURRENCE, TANGLE, ENTROPY],
                             ids=lambda h: h.measure_id)
    @pytest.mark.parametrize("seed", range(10))
    def test_separable_werner_state_reaches_zero(self, h, seed):
        rho = werner_state(1.0 / 3.0)
        res = roof_minimize(h, rho, rng=np.random.default_rng(seed))
        assert res.value <= 1e-12
        assert res.converged
        assert np.max(np.abs(res.best.reconstruct() - rho.matrix)) <= 1e-12

    @pytest.mark.parametrize("h", [h for h, _ in KINKED_ORACLES], ids=KINKED_IDS)
    def test_ppt_input_goes_to_the_product_stage_first(self, h, monkeypatch):
        # The stage certifies 0 from chain 0's start, so no descent runs.
        from entmon import roof

        descents = []
        descent = roof._riemannian_descent
        monkeypatch.setattr(roof, "_riemannian_descent",
                            lambda *args, **kwargs: descents.append(args) or descent(*args, **kwargs))
        res = roof_minimize(h, werner_state(1.0 / 3.0), rng=np.random.default_rng(0))
        assert descents == []
        assert res.value <= 1e-12
        assert res.converged

    @pytest.mark.parametrize("dims", [Dims(2, 2), Dims(2, 3), Dims(3, 2)],
                             ids=lambda d: "x".join(map(str, d.factors)))
    def test_converged_means_zero_on_ppt_inputs(self, dims):
        # On 2x2 and 2x3, PPT is separable (Peres-Horodecki), so converged
        # may only come with a value at most VALUE_FLOOR.
        for seed in range(4):
            rng = np.random.default_rng(seed)
            rho = random_separable(dims, int(rng.integers(2, 7)), rng)
            for h in (ENTROPY, TANGLE):
                res = roof_minimize(h, rho, restarts=4, rng=np.random.default_rng(seed))
                assert res.value <= VALUE_FLOOR or not res.converged, (seed, h.measure_id, res.value)
                np.testing.assert_allclose(res.best.reconstruct(), rho.matrix, atol=1e-12)

    def test_non_bipartite_input_rejected(self):
        rho = random_mixed(Dims(2, 2, 2), 3, np.random.default_rng(0))
        with pytest.raises(DimensionMismatchError, match="bipartite"):
            roof_minimize(NEGATIVITY_H, rho)


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
        np.testing.assert_allclose(_qubit_reduction(m)[0], ref, rtol=0, atol=1e-14)

    def test_product_and_maximally_entangled_members(self):
        rng = np.random.default_rng(0)
        a, b = haar_unitary(2, rng)[:, 0], haar_unitary(3, rng)[:, 0]
        np.testing.assert_allclose(_qubit_reduction(np.outer(a, b))[0], [0.0, 1.0],
                                   atol=1e-15)
        bell = bell_state().amplitudes.reshape(2, 2)
        np.testing.assert_allclose(_qubit_reduction(bell)[0], [0.5, 0.5], atol=1e-15)

    def test_zero_row_is_a_dead_member(self):
        rho = random_mixed(Dims(2, 2), 2, np.random.default_rng(1))
        objective = _RoofObjective(ENTROPY, rho)
        phi = objective.members(np.eye(4, 2))
        assert np.all(phi[2:] == 0)
        vals, grad = objective.evaluate(np.eye(4, 2), grad=True)
        live_vals, live_grad = objective.evaluate(np.eye(2, 2), grad=True)
        assert vals == live_vals > 0
        np.testing.assert_array_equal(grad[2:], 0.0)
        np.testing.assert_array_equal(grad[:2], live_grad)


def _edge_state(dims: Dims, small, seed: int) -> DensityMatrix:
    """U diag(spectrum) U^dag with Haar U: two random eigenvalues making the
    trace 1, the ``small`` ones (each in [-TOL_PSD, TOL_PSD]) and zeros.  A
    valid rank-deficient state whose spectrum sits at the support edge."""
    rng = np.random.default_rng(seed)
    spectrum = np.zeros(dims.total)
    spectrum[:2] = rng.dirichlet(np.ones(2)) * (1.0 - sum(small))
    spectrum[2:2 + len(small)] = small
    u = haar_unitary(dims.total, rng)
    return DensityMatrix((u * spectrum) @ u.conj().T, dims)


def _crash_input(delta: float) -> DensityMatrix:
    u = haar_unitary(4, np.random.default_rng(0))
    return DensityMatrix((u * [0.6, 0.4 - delta, delta, 0.0]) @ u.conj().T, Dims(2, 2))


EVERY_KIND = [ENTROPY, CONCURRENCE, NEGATIVITY_H, TANGLE, G_CONCURRENCE, renyi(0.7), tsallis(2.0)]


class TestSupportEdge:
    """Inputs with eigenvalues within TOL_PSD of 0 are valid states; the
    roof keeps eigenvalues above TOL_SUPPORT and forms its weights as the
    members' squared norms over their sum, so each yields a decomposition."""

    @pytest.mark.parametrize("delta", [5e-10, -5e-10])
    def test_eigenvalue_at_the_edge_gives_a_value(self, delta):
        rho = _crash_input(delta)
        res = roof_minimize(ENTROPY, rho, None, 4, np.random.default_rng(1))
        assert np.isfinite(res.value) and res.value >= 0.0
        assert np.max(np.abs(res.best.reconstruct() - rho.matrix)) <= 1e-8
        value = evaluate_measure("negativity-roof", rho).value
        assert np.isfinite(value) and value >= 0.0

    @settings(max_examples=10, deadline=None)
    @given(dims=st.sampled_from([(2, 2), (2, 3), (3, 2)]),
           small=st.lists(st.floats(-TOL_PSD, TOL_PSD), min_size=1, max_size=2),
           seed=st.integers(0, 2**32 - 1))
    def test_every_kind_decomposes_inputs_at_the_edge(self, dims, small, seed):
        try:
            rho = _edge_state(Dims(*dims), small, seed)
        except StateValidationError:
            assume(False)  # roundoff took an eigenvalue below -TOL_PSD
        for h in EVERY_KIND:
            res = roof_minimize(h, rho, None, 1, np.random.default_rng(seed))
            assert np.isfinite(res.value) and res.value >= 0.0, h.measure_id
            assert np.max(np.abs(res.best.reconstruct() - rho.matrix)) <= 1e-8, h.measure_id
            assert abs(float(np.sum(res.best.weights)) - 1.0) <= 1e-10, h.measure_id
        value = evaluate_measure("negativity-roof", rho, np.random.default_rng(seed)).value
        assert np.isfinite(value) and value >= 0.0

    @pytest.mark.parametrize("dims_pair", [(2, 2), (2, 3), (3, 3)])
    def test_one_diagonalization_of_the_input_per_call(self, dims_pair, monkeypatch):
        rho = random_mixed(Dims(*dims_pair), 2, np.random.default_rng(3))
        eigh = np.linalg.eigh
        calls = []

        def counting(a, *args, **kwargs):
            if np.shape(a) == rho.matrix.shape and np.array_equal(a, rho.matrix):
                calls.append(1)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        roof_minimize(ENTROPY, rho, None, 1, np.random.default_rng(0))
        assert len(calls) == 1
