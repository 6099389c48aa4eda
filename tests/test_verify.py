"""Verification checks and sweep machinery."""

import json
import math
import re
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmon.channels import random_channel, unitary_mixture_channel
from entmon.measures import ENTROPY, NEGATIVITY_H, TANGLE, renyi
from entmon.sampling import (
    haar_unitary,
    random_mixed,
    random_mixed_stack,
    random_product_pure_stack,
    random_pure,
    random_pure_stack,
    random_separable,
)
from entmon.states import (
    DensityMatrix,
    Dims,
    bell_state,
    max_entangled,
    projector_stack,
    werner_state,
)
from entmon.verify import (
    SweepConfig,
    check_logneg_nonconvexity,
    check_monogamy_product,
    check_monotone,
    check_negativity_decomposition,
    check_reduced_state_condition,
    check_strict,
    check_strict_concavity,
    recompute_verdict,
    run_sweep,
    summarize,
    write_reports_jsonl,
    write_summary_csv,
    _projective_channel,
)


def _sweep(check_id, config):
    """The reports of one check's ``_SWEEPS`` row on ``config``."""
    return run_sweep(replace(config, checks=(check_id,)))


class TestCheckMonotone:
    def test_bell_projective_measurement(self):
        rep = check_monotone("negativity", bell_state().density(), _projective_channel(2))
        assert rep.verdict == "pass"
        assert rep.lhs == pytest.approx(0.5, abs=1e-10)
        assert rep.rhs == pytest.approx(0.0, abs=1e-10)

    def test_unitary_mixture_has_zero_gap(self):
        rng = np.random.default_rng(0)
        rho = random_mixed(Dims(2, 2), None, rng)
        channel = unitary_mixture_channel(
            [0.5, 0.5], [haar_unitary(2, rng), haar_unitary(2, rng)]
        )
        for measure in ("negativity", "log-negativity", "eof", "concurrence"):
            rep = check_monotone(measure, rho, channel)
            assert rep.verdict == "pass"
            assert abs(rep.gap) < 1e-9

    def test_werner_random_channel(self):
        rng = np.random.default_rng(1)
        rep = check_monotone("eof", werner_state(0.9), random_channel(2, 3, rng))
        assert rep.verdict == "pass"
        assert rep.gap >= -1e-9

    def test_optimizer_measures_use_slack_tolerances(self):
        rng = np.random.default_rng(2)
        rho = random_mixed(Dims(2, 2), 2, rng)
        channel = random_channel(2, 2, rng)
        rep = check_monotone("negativity-roof", rho, channel, rng=np.random.default_rng(0))
        assert rep.tolerance == 2e-3
        assert rep.verdict == "pass"
        assert rep.metadata["lhs_diagnostics"]["restarts_used"] == 20
        assert len(rep.metadata["outcome_diagnostics"]) == rep.metadata["n_outcomes"]
        rep = check_monotone("ree", rho, channel, rng=np.random.default_rng(1))
        assert rep.tolerance == 2e-2
        assert rep.verdict == "pass"
        assert rep.metadata["lhs_diagnostics"]["converged"] is True
        assert all(d["iterations"] >= 0 for d in rep.metadata["outcome_diagnostics"])

    def test_solver_diagnostics_only_on_optimizer_tiers(self):
        rng = np.random.default_rng(3)
        psi = random_pure(Dims(3, 3), rng).density()
        channel = random_channel(3, 3, rng)
        rep = check_monotone("eof", psi, channel, rng=np.random.default_rng(0))
        assert rep.verdict == "pass"
        assert set(rep.metadata) == {"rule", "n_outcomes", "tier"}
        rep = check_monotone("negativity-roof", psi, channel, rng=np.random.default_rng(0))
        assert rep.verdict == "pass"
        assert rep.metadata["lhs_diagnostics"] == {"restarts_used": 0, "converged": True}
        assert len(rep.metadata["outcome_diagnostics"]) == rep.metadata["n_outcomes"]
        assert all(d["converged"] for d in rep.metadata["outcome_diagnostics"])


class TestCheckStrict:
    def test_general_channel_on_entangled_pure_states(self):
        rng = np.random.default_rng(2)
        channel = random_channel(2, 2, rng)
        sampler = _stack_sampler("pure", Dims(2, 2))
        rep = check_strict("negativity", sampler, channel, 50, rng)
        assert rep.verdict == "pass"
        assert rep.metadata["max_gap"] > 1e-6

    def test_unitary_mixture_shows_no_gap(self):
        rng = np.random.default_rng(3)
        channel = unitary_mixture_channel(
            [0.3, 0.7], [haar_unitary(2, rng), haar_unitary(2, rng)]
        )
        sampler = _stack_sampler("mixed", Dims(2, 2))
        rep = check_strict("negativity", sampler, channel, 20, rng)
        assert rep.verdict == "pass"
        assert abs(rep.gap) < 1e-9

    def test_equality_report_ignores_roundoff_in_other_gaps(self, monkeypatch):
        # Which gap of a unitary mixture is largest is decided by roundoff;
        # the reported pair is state 0's, so a 1e-17 change elsewhere moves
        # only the gap statistics.
        from entmon import verify

        evaluate_closed_stack = verify.evaluate_closed_stack

        def run(bump):
            calls = []

            def bumped(measure_id, mats, dims):
                vals = evaluate_closed_stack(measure_id, mats, dims)
                if not calls:  # the first call gives the input values
                    vals = vals.copy()
                    vals[2] += bump
                calls.append(measure_id)
                return vals

            monkeypatch.setattr(verify, "evaluate_closed_stack", bumped)
            rng = np.random.default_rng(3)
            channel = unitary_mixture_channel(
                [0.3, 0.7], [haar_unitary(2, rng), haar_unitary(2, rng)]
            )
            sampler = _stack_sampler("product", Dims(2, 2))
            return check_strict("eof", sampler, channel, 5, rng)

        base, bumped = run(0.0), run(1e-17)
        assert bumped.metadata["max_gap"] == base.metadata["max_gap"] + 1e-17
        fields = lambda rep: (rep.lhs, rep.rhs, rep.gap, rep.verdict)
        assert fields(bumped) == fields(base)
        assert recompute_verdict(bumped) == bumped.verdict == "pass"

    @pytest.mark.parametrize("measure_id", ["ree", "negativity-roof"])
    def test_optimizer_measures_are_refused_before_sampling(self, measure_id):
        from entmon.registry import MeasureError

        def sampler(rng, n):
            raise AssertionError("the sampler ran")

        channel = random_channel(2, 2, np.random.default_rng(5))
        with pytest.raises(MeasureError, match="closed-form"):
            check_strict(measure_id, sampler, channel, 4, np.random.default_rng(6))

    def test_product_sampler_is_uninformative(self):
        rng = np.random.default_rng(4)
        channel = random_channel(2, 2, rng)
        sampler = _stack_sampler("product", Dims(2, 2))
        rep = check_strict("negativity", sampler, channel, 20, rng)
        assert rep.verdict == "pass"
        assert "uninformative" in rep.metadata["note"]


class TestConcavity:
    def test_classical_mixing_of_orthogonal_pure_states(self):
        r1 = DensityMatrix(np.diag([1.0, 0.0]), Dims(2))
        r2 = DensityMatrix(np.diag([0.0, 1.0]), Dims(2))
        rep = check_strict_concavity(ENTROPY, r1, r2, 0.5)
        assert rep.verdict == "pass"
        assert rep.gap == pytest.approx(math.log(2), abs=1e-12)

    def test_equal_states_have_zero_gap(self):
        rho = random_mixed(Dims(3), None, np.random.default_rng(5))
        rep = check_strict_concavity(TANGLE, rho, rho, 0.3)
        assert rep.verdict == "pass"
        assert abs(rep.gap) <= 1e-10

    def test_tangle_identity_recorded(self):
        rng = np.random.default_rng(6)
        r1 = random_mixed(Dims(2), None, rng)
        r2 = random_mixed(Dims(2), None, rng)
        rep = check_strict_concavity(TANGLE, r1, r2, 0.25)
        assert rep.metadata["tangle_identity_dev"] <= 1e-10

    def test_g_concurrence_rank_deficient_is_skipped(self):
        rng = np.random.default_rng(7)
        from entmon.measures import G_CONCURRENCE

        r1 = random_mixed(Dims(3), 1, rng)
        r2 = random_mixed(Dims(3), 2, rng)
        rep = check_strict_concavity(G_CONCURRENCE, r1, r2, 0.5)
        assert rep.verdict == "skipped"

    def test_lambda_bounds(self):
        rho = random_mixed(Dims(2), None, np.random.default_rng(8))
        with pytest.raises(ValueError):
            check_strict_concavity(ENTROPY, rho, rho, 0.0)

    @settings(max_examples=100, deadline=None)
    @given(d=st.sampled_from([2, 3]), rank=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           pair=st.sampled_from(["equal", "just past", "random"]),
           past=st.floats(1e-9, 1e-2), lam=st.floats(0.01, 0.99))
    def test_no_failure_at_measure_zero_corners(self, d, rank, seed, pair, past, lam):
        # Rank-deficient pairs (rank < d), pairs a relative ``past`` beyond
        # CONCAVITY_DISTANCE and equal pairs, for every h of the sweep.
        from entmon.verify import (CONCAVITY_DISTANCE, CONCAVITY_EQUAL_TOL, DEFAULT_H_SET,
                                   _concavity_reports)

        rho1, sigma = random_mixed_stack(Dims(d), min(rank, d), 2, np.random.default_rng(seed))
        if pair == "equal":
            rho2 = rho1.copy()
        elif pair == "just past":
            step = sigma - rho1
            rho2 = rho1 + CONCAVITY_DISTANCE * (1.0 + past) / np.linalg.norm(step) * step
        else:
            rho2 = sigma
        reports = _concavity_reports([(h, np.stack([rho1, rho2]), None, 0, Dims(d), lam)
                                      for h in DEFAULT_H_SET])
        assert [r.verdict for r in reports if r.verdict == "fail"] == []
        if pair == "equal":
            assert all(abs(r.gap) <= CONCAVITY_EQUAL_TOL for r in reports)
        if pair == "just past":
            assert all(r.metadata["distance"] > CONCAVITY_DISTANCE for r in reports)


class TestReducedState:
    def test_bell_projective_gives_h_of_maximally_mixed(self):
        rep = check_reduced_state_condition(ENTROPY, bell_state(), _projective_channel(2))
        assert rep.verdict == "pass"
        assert rep.gap == pytest.approx(math.log(2), abs=1e-10)
        rep = check_reduced_state_condition(NEGATIVITY_H, bell_state(), _projective_channel(2))
        assert rep.gap == pytest.approx(0.5, abs=1e-10)

    def test_unitary_mixture_keeps_reduced_state(self):
        rng = np.random.default_rng(9)
        psi = random_pure(Dims(2, 2), rng)
        channel = unitary_mixture_channel(
            [0.5, 0.5], [haar_unitary(2, rng), haar_unitary(2, rng)]
        )
        rep = check_reduced_state_condition(ENTROPY, psi, channel)
        assert rep.verdict == "pass"
        assert rep.metadata["branch"] == "equal"
        assert abs(rep.gap) < 1e-8

    def test_product_input_passes_with_note(self):
        from entmon.sampling import random_product_pure

        rng = np.random.default_rng(10)
        psi = random_product_pure(Dims(2, 2), rng)
        rep = check_reduced_state_condition(ENTROPY, psi, random_channel(2, 2, rng))
        assert rep.verdict == "pass"
        assert rep.metadata["note"] == "unentangled input"

    def test_side_a_channel_rejected(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            check_reduced_state_condition(
                ENTROPY, bell_state(), random_channel(2, 2, rng, side="A")
            )


class TestMonogamy:
    def test_bell_bell_construction(self):
        rep = check_monogamy_product(bell_state(), bell_state(), ENTROPY)
        assert rep.verdict == "pass"
        assert rep.lhs == pytest.approx(math.log(2), abs=1e-12)
        assert rep.metadata["cut_dev"] <= 1e-9
        assert rep.metadata["ac_product_dev"] <= 1e-9
        assert rep.metadata["ac_negativity"] <= 1e-9
        assert rep.metadata["max_marginal_dev"] <= 1e-9

    def test_product_factors_all_zero(self):
        from entmon.sampling import random_product_pure

        rng = np.random.default_rng(12)
        phi = random_product_pure(Dims(2, 2), rng)
        eta = random_product_pure(Dims(2, 2), rng)
        rep = check_monogamy_product(phi, eta, ENTROPY)
        assert rep.verdict == "pass"
        assert rep.lhs == pytest.approx(0.0, abs=1e-10)

    def test_random_factors(self):
        rng = np.random.default_rng(13)
        phi = random_pure(Dims(2, 2), rng)
        eta = random_pure(Dims(2, 2), rng)
        rep = check_monogamy_product(phi, eta, renyi(0.5))
        assert rep.verdict == "pass"
        assert rep.metadata["ac_negativity"] < 1e-9

    def test_dimension_cap(self):
        from entmon.states import DimensionMismatchError

        rng = np.random.default_rng(14)
        with pytest.raises(DimensionMismatchError):
            check_monogamy_product(
                random_pure(Dims(3, 3), rng), random_pure(Dims(3, 3), rng), ENTROPY
            )


class TestNegativityDecomposition:
    def test_werner_point_nine(self):
        rep = check_negativity_decomposition(werner_state(0.9))
        assert rep.verdict == "pass"
        assert rep.lhs == pytest.approx(0.425, abs=1e-10)

    def test_bell_singlet_direction(self):
        rep = check_negativity_decomposition(bell_state().density())
        assert rep.verdict == "pass"
        assert rep.lhs == pytest.approx(0.5, abs=1e-12)
        assert rep.metadata["orthogonality_residual"] < 1e-12
        assert rep.metadata["n_negative_eigenvalues"] == 1

    def test_ppt_input_skipped(self):
        rho = random_separable(Dims(2, 2), 4, np.random.default_rng(15))
        rep = check_negativity_decomposition(rho)
        assert rep.verdict == "skipped"


class TestLognegNonconvexity:
    def test_witness_found_and_control_clean(self):
        rep = check_logneg_nonconvexity(np.random.default_rng(16), trials=2000)
        assert rep.verdict == "pass"
        assert rep.metadata["witness"] is not None
        assert rep.metadata["control_violations"] == 0
        assert rep.gap > 1e-6

    def test_scan_of_no_triples_is_skipped(self):
        rep = check_logneg_nonconvexity(np.random.default_rng(16), trials=0)
        assert rep.verdict == "skipped"
        assert rep.metadata["reason"] == "no triples scanned"
        with pytest.raises(ValueError, match="nonnegative"):
            check_logneg_nonconvexity(np.random.default_rng(16), trials=-1)


class TestGenericStrictness:
    def test_strict_decrease_is_generic_not_just_existential(self):
        # Over 1000 Haar-random entangled pure states and a general channel,
        # at least 99% of trials show a gap above the strict floor.
        from entmon.measures import negativity
        from entmon.channels import apply_channel

        rng = np.random.default_rng(17)
        channel = random_channel(2, 2, rng)
        hits = 0
        for _ in range(1000):
            rho = random_pure(Dims(2, 2), rng).density()
            lhs = negativity(rho).value
            rhs = sum(p * negativity(s).value
                      for p, s in apply_channel(channel, rho).outcomes)
            if lhs - rhs > 1e-6:
                hits += 1
        assert hits >= 990


class TestSweep:
    def test_zero_trials_minimal_reports(self):
        cfg = SweepConfig(checks=("monotone",), trials=0)
        assert run_sweep(cfg) == []

    def test_unknown_ids_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(checks=("nope",))
        with pytest.raises(ValueError):
            SweepConfig(measures=("nope",))
        with pytest.raises(ValueError):
            SweepConfig(trials=-1)

    def test_check_ids_keep_their_order(self):
        # A check's index here seeds its trials: a new check is appended, and
        # no check moves.
        from entmon.verify import CHECK_IDS

        assert CHECK_IDS == ("monotone", "strict", "concavity", "reduced-state", "roof-oracle",
                             "ree", "ree-dpi", "neg-decomposition", "logneg-nonconvexity",
                             "monogamy")

    def test_numpy_integer_counts_are_stored_as_int(self):
        cfg = SweepConfig(trials=np.int64(10), n_kraus=np.int32(3), seed=np.uint16(2),
                          dims=((np.int64(2), np.int8(3)),))
        assert (cfg.trials, cfg.n_kraus, cfg.seed, cfg.dims) == (10, 3, 2, ((2, 3),))
        assert all(type(v) is int for v in (cfg.trials, cfg.n_kraus, cfg.seed, *cfg.dims[0]))
        json.dumps(asdict(cfg))
        assert run_sweep(SweepConfig(checks=("concavity",), trials=np.int64(2))) == \
            run_sweep(SweepConfig(checks=("concavity",), trials=2))

    @pytest.mark.parametrize("kwargs,message", [
        ({"trials": True}, "trials must be an integer, got True"),
        ({"n_kraus": 2.0}, "n_kraus must be an integer, got 2.0"),
        ({"seed": np.float64(1.0)}, "seed must be an integer, got "),
        ({"dims": ((2, True),)}, "dims entries must be pairs of integers >= 2"),
        ({"dims": ((2, 3.0),)}, "dims entries must be pairs of integers >= 2"),
        ({"dims": ((2, np.int64(1)),)}, "dims entries must be pairs of integers >= 2"),
        ({"n_kraus": np.int64(0)}, "n_kraus must be at least 2"),
        ({"n_kraus": 1}, "n_kraus must be at least 2"),
    ])
    def test_bools_floats_and_small_counts_keep_their_errors(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SweepConfig(**kwargs)

    def test_identical_configs_are_bit_identical(self, tmp_path):
        cfg = SweepConfig(checks=("monotone", "concavity"), trials=5, seed=3)
        a, b = run_sweep(cfg), run_sweep(cfg)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_reports_jsonl(a, p1)
        write_reports_jsonl(b, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_reports_verdicts_recomputable(self, tmp_path):
        from entmon.verify import VerificationReport

        reports = run_sweep(SweepConfig(trials=3, seed=1))
        path = tmp_path / "r.jsonl"
        write_reports_jsonl(reports, path)
        read_back = [VerificationReport(**json.loads(line))
                     for line in path.read_text().splitlines()]
        assert read_back == reports
        for rep, back in zip(reports, read_back):
            assert recompute_verdict(rep) == recompute_verdict(back) == rep.verdict

    def test_ree_reports_carry_solver_status(self):
        from entmon.ree import GAP_TOL

        reports = run_sweep(SweepConfig(checks=("ree",), trials=1, seed=0))
        assert len(reports) == 4
        for rep in reports:
            assert rep.metadata["converged"] is True
            assert rep.metadata["duality_gap_estimate"] < GAP_TOL
            assert rep.metadata["iterations"] >= 1
            assert rep.metadata["atoms"] == 0  # the barrier path builds no decomposition

    def test_summary_and_csv(self, tmp_path):
        cfg = SweepConfig(checks=("concavity",), trials=4, seed=0)
        reports = run_sweep(cfg)
        rows = summarize(reports)
        assert all(r["passes"] == r["trials"] for r in rows)
        path = tmp_path / "summary.csv"
        write_summary_csv(reports, path)
        header = path.read_text().splitlines()[0]
        assert header == "check_id,measure_id,trials,passes,skipped,min_gap,mean_gap,max_gap"

    def test_jsonl_fields(self, tmp_path):
        cfg = SweepConfig(checks=("neg-decomposition",), trials=2, seed=0)
        reports = run_sweep(cfg)
        path = tmp_path / "r.jsonl"
        write_reports_jsonl(reports, path)
        first = json.loads(path.read_text().splitlines()[0])
        assert list(first) == ["check_id", "measure_id", "channel_class", "lhs", "rhs",
                               "gap", "tolerance", "verdict", "seed", "metadata"]

    def test_unknown_rule_rejected(self):
        rep = check_monotone("negativity", bell_state().density(), _projective_channel(2))
        with pytest.raises(ValueError, match="unknown decision rule"):
            recompute_verdict(replace(rep, metadata={**rep.metadata, "rule": "gap is small"}))

    def test_report_json_equals_the_asdict_dump(self):
        # report_to_json dumps a shallow field dict; the bytes must equal
        # those of the deep-copying dataclasses.asdict.
        from dataclasses import asdict

        from entmon.verify import report_to_json

        reports = run_sweep(SweepConfig(trials=2, seed=4))
        reports.append(check_monotone("negativity-roof", werner_state(0.8),
                                      random_channel(2, 2, np.random.default_rng(0))))
        reports.append(check_negativity_decomposition(werner_state(0.2)))
        assert {r.verdict for r in reports} == {"pass", "skipped"}
        for rep in reports:
            assert report_to_json(rep) == json.dumps(asdict(rep))


class TestDecisionRules:
    def test_misclassified_mixture_fails_on_recompute(self):
        from entmon.verify import _strict_reports

        rng = np.random.default_rng(0)
        mats = _stack_sampler("pure", Dims(2, 2))(rng, 4)
        item = ("negativity", mats, random_channel(2, 3, rng), 0, Dims(2, 2), True)
        rep, = _strict_reports([item])
        assert rep.metadata["note"] == "misclassified unitary mixture"
        assert rep.verdict == recompute_verdict(rep) == "fail"

    def test_strict_sweep_classifies_each_channel_once(self, monkeypatch):
        from entmon import channels, verify

        calls = []
        check_families = channels._check_families
        monkeypatch.setattr(channels, "_check_families",
                            lambda side, kraus, *live: calls.extend(kraus)
                            or check_families(side, kraus, *live))
        monkeypatch.setattr(verify, "_BATCH_STATES", 4)  # a channel's items straddle batches
        config = SweepConfig(trials=10, seed=0)
        reports = _sweep("strict", config)
        assert len(reports) == 84
        assert len(calls) == len(config.dims) * (config.trials // 4 + config.trials)

    def test_ree_dpi_equality_case_needs_equal_probabilities(self, monkeypatch):
        from entmon import verify
        from entmon.ree import DataProcessingReport

        def moved_probabilities(mats, channels, dims):
            p, q = np.array([0.5, 0.5]), np.array([0.501, 0.499])
            return [DataProcessingReport(0.25, 0.25, 0.0, p, q, 1e-3)] * len(channels)

        monkeypatch.setattr(verify, "_data_processing_stack", moved_probabilities)
        rep, = _sweep("ree-dpi", SweepConfig(trials=1))
        assert rep.gap == 0.0
        assert rep.metadata["equality_case"] is True
        assert rep.metadata["max_prob_deviation"] == 1e-3
        assert rep.verdict == recompute_verdict(rep) == "fail"

    def test_ree_dpi_rule_names_the_equality_case(self):
        reports = run_sweep(SweepConfig(checks=("ree-dpi",), trials=8, seed=0))
        assert {r.metadata["equality_case"] for r in reports} == {False, True}
        for rep in reports:
            assert rep.verdict == "pass"
            assert rep.metadata["rule"] == ("gap >= -tolerance and probabilities unchanged"
                                            if rep.metadata["equality_case"]
                                            else "gap >= -tolerance")


# ---------------------------------------------------------------------------
# Per-state references for the stacked checks.  These loops evaluate one
# state at a time through the public per-state functions; the stacked
# checks must return equal reports.  Each reference keeps its own verdict
# decision and checks it against the one ``RULES`` gives its report.


def _judged(report, ok):
    assert report.verdict == ("pass" if ok else "fail")
    return report


def _outcomes(channel, state):
    """The outcome ensemble of one state: by ``apply_channel_to_pure`` for a
    ``PureState``, as the sweeps keep pure inputs as vectors, and by
    ``apply_channel`` for a density matrix."""
    from entmon.channels import apply_channel, apply_channel_to_pure
    from entmon.states import PureState

    if isinstance(state, PureState):
        return apply_channel_to_pure(channel, state)
    return apply_channel(channel, state).outcomes


def _reference_strict(measure_id, state_sampler, channel, n_states, rng, seed=0):
    from entmon.channels import classify
    from entmon.registry import evaluate_measure
    from entmon.verify import EQUALITY_TOL, STRICT_FLOOR, TAG_GENERAL, _report

    cls = classify(channel)
    gaps = np.empty(n_states)
    lhs_vals = np.empty(n_states)
    rhs_vals = np.empty(n_states)
    for i in range(n_states):
        state = state_sampler(rng)
        lhs = evaluate_measure(measure_id, state, rng=rng).value
        rhs = sum(p * evaluate_measure(measure_id, s, rng=rng).value
                  for p, s in _outcomes(channel, state))
        lhs_vals[i], rhs_vals[i], gaps[i] = lhs, rhs, lhs - rhs
    metadata = {
        "n_states": n_states,
        "max_gap": float(np.max(gaps)),
        "min_gap": float(np.min(gaps)),
        "mean_gap": float(np.mean(gaps)),
    }
    if cls.tag == TAG_GENERAL:
        if float(np.max(lhs_vals)) < 1e-12 and float(np.max(np.abs(gaps))) < 1e-12:
            metadata["note"] = "unentangled inputs are uninformative"
            metadata["rule"] = "all values zero"
            return _judged(_report("strict", measure_id, cls.tag, lhs_vals[0], rhs_vals[0],
                                   STRICT_FLOOR, seed, metadata), True)
        i = int(np.argmax(gaps))
        metadata["rule"] = "max gap > tolerance"
        return _judged(_report("strict", measure_id, cls.tag, lhs_vals[i], rhs_vals[i],
                               STRICT_FLOOR, seed, metadata), gaps[i] > STRICT_FLOOR)
    metadata["rule"] = "max |gap| < tolerance"
    return _judged(_report("strict", measure_id, cls.tag, lhs_vals[0], rhs_vals[0],
                           EQUALITY_TOL, seed, metadata),
                   float(np.max(np.abs(gaps))) < EQUALITY_TOL)


def _reference_monotone(measure_id, rho, channel, rng=None, seed=0):
    from entmon.channels import classify
    from entmon.registry import evaluate_measure, measure_tier
    from entmon.verify import MONOTONE_TOL, _report

    tier = measure_tier(measure_id)
    tol = MONOTONE_TOL[tier]
    if rng is None and tier != "closed":
        rng = np.random.default_rng(seed)
    lhs = evaluate_measure(measure_id, rho, rng=rng)
    outs = [(p, evaluate_measure(measure_id, s, rng=rng)) for p, s in _outcomes(channel, rho)]
    rhs = sum(p * v.value for p, v in outs)
    metadata = {"rule": "gap >= -tolerance", "n_outcomes": len(outs), "tier": tier}
    if tier != "closed":
        metadata["lhs_diagnostics"] = lhs.diagnostics
        metadata["outcome_diagnostics"] = [v.diagnostics for _, v in outs]
    return _judged(_report("monotone", measure_id, classify(channel).tag, lhs.value, rhs, tol,
                           seed, metadata), lhs.value - rhs >= -tol)


def _reference_n_kraus(config, t):
    options = tuple(range(2, max(2, config.n_kraus) + 1))
    return options[t % len(options)]


def _reference_sweep_monotone(config):
    """The ``monotone`` sweep as one ``_reference_monotone`` per trial."""
    from entmon.registry import measure_state_kind
    from entmon.verify import CHECK_IDS, derived_seed

    check_idx = CHECK_IDS.index("monotone")
    reports = []
    for di, dims_pair in enumerate(config.dims):
        dims = Dims(*dims_pair)
        for mi, measure_id in enumerate(config.measures):
            kind = measure_state_kind(measure_id, dims)
            if kind is None:
                continue
            for t in range(config.trials):
                seed = derived_seed(config.seed, check_idx, di, mi, t)
                rng = np.random.default_rng(seed)
                rho = _sweep_sampler(kind, dims)(rng)
                channel = random_channel(dims_pair[1], _reference_n_kraus(config, t), rng)
                reports.append(_reference_monotone(measure_id, rho, channel, rng=rng, seed=seed))
    return reports


def _reference_sweep_strict(config):
    """The ``strict`` sweep as one ``_reference_strict`` per report."""
    from entmon.channels import (TAG_LOCAL_UNITARY, TAG_UNITARY_MIXTURE, _build_channels,
                                 _draw_mixture)
    from entmon.registry import measure_state_kind, measure_tier
    from entmon.verify import CHECK_IDS, _report, derived_seed

    check_idx = CHECK_IDS.index("strict")
    reports = []
    for di, dims_pair in enumerate(config.dims):
        for c in range(max(1, config.trials // 4)):
            seed = derived_seed(config.seed, check_idx, 0, di, c)
            rng = np.random.default_rng(seed)
            channel = random_channel(dims_pair[1], _reference_n_kraus(config, c), rng)
            reports.append(_reference_strict("negativity",
                                             _sweep_sampler("pure", Dims(*dims_pair)),
                                             channel, 100, rng, seed=seed))
    for di, dims_pair in enumerate(config.dims):
        for t in range(config.trials):
            seed = derived_seed(config.seed, check_idx, 1, di, t)
            rng = np.random.default_rng(seed)
            channel = _build_channels([_draw_mixture(dims_pair[1], 1 + t % 3, rng)])[0]
            for measure_id in config.measures:
                kind = measure_state_kind(measure_id, Dims(*dims_pair))
                if kind is None or measure_tier(measure_id) != "closed":
                    continue
                rep = _reference_strict(measure_id, _sweep_sampler(kind, Dims(*dims_pair)),
                                        channel, 3, rng, seed=seed)
                if rep.channel_class not in (TAG_LOCAL_UNITARY, TAG_UNITARY_MIXTURE):
                    rep = _judged(_report(rep.check_id, rep.measure_id, rep.channel_class,
                                          rep.lhs, rep.rhs, rep.tolerance, seed,
                                          {**rep.metadata, "note": "misclassified unitary mixture",
                                           "rule": "always fails"}), False)
                reports.append(rep)
    return reports


def _reference_logneg(rng, trials, seed=0):
    # The pure states go through the vector path, as the sweeps keep them.
    from entmon.measures import log_negativity, negativity
    from entmon.registry import evaluate_measure
    from entmon.sampling import random_product_pure
    from entmon.verify import _report

    dims = Dims(2, 2)
    witness = None
    control_violations = 0
    for t in range(trials):
        lam = float(rng.uniform(0.05, 0.95))
        psi1 = random_pure(dims, rng)
        psi2 = random_product_pure(dims, rng)
        r1, r2 = psi1.density(), psi2.density()
        mix = DensityMatrix(lam * r1.matrix + (1.0 - lam) * r2.matrix, dims)
        en1, en2 = (evaluate_measure("log-negativity", psi).value for psi in (psi1, psi2))
        n1, n2 = (evaluate_measure("negativity", psi).value for psi in (psi1, psi2))
        en_mix = log_negativity(mix).value
        en_avg = lam * en1 + (1.0 - lam) * en2
        n_mix = negativity(mix).value
        n_avg = lam * n1 + (1.0 - lam) * n2
        if n_mix > n_avg + 1e-6:
            control_violations += 1
        if witness is None and en_mix > en_avg + 1e-6:
            witness = {
                "trial": t,
                "lambda": lam,
                "en_mix": en_mix,
                "en_avg": en_avg,
                "psi1": [[float(z.real), float(z.imag)] for z in psi1.amplitudes],
                "psi2": [[float(z.real), float(z.imag)] for z in psi2.amplitudes],
            }
    metadata = {
        "rule": "witness found and control clean",
        "trials": trials,
        "control_violations": control_violations,
        "witness": witness,
    }
    if witness is None:
        return _judged(_report("logneg-nonconvexity", "log-negativity", None, 0.0, 0.0,
                               1e-6, seed, metadata), False)
    return _judged(_report("logneg-nonconvexity", "log-negativity", None, witness["en_mix"],
                           witness["en_avg"], 1e-6, seed, metadata), control_violations == 0)


def _sampler(kind, dims):
    from entmon.sampling import random_product_pure

    if kind == "mixed":
        return lambda r: random_mixed(dims, None, r)
    if kind == "pure":
        return lambda r: random_pure(dims, r).density()
    return lambda r: random_product_pure(dims, r).density()


def _sweep_sampler(kind, dims):
    """What the sweeps draw per state: Haar pure states as ``PureState``
    vectors, mixed ones as ``_sampler`` draws them."""
    return (lambda r: random_pure(dims, r)) if kind == "pure" else _sampler(kind, dims)


def _stack_sampler(kind, dims):
    """``check_strict`` sampler drawing what n calls of ``_sampler`` draw."""
    if kind == "mixed":
        return lambda r, n: random_mixed_stack(dims, None, n, r)
    if kind == "pure":
        return lambda r, n: projector_stack(random_pure_stack(dims, n, r))
    return lambda r, n: projector_stack(random_product_pure_stack(dims, n, r))


def _channel(kind, d, rng):
    if kind == "general":
        return random_channel(d, 3, rng)
    return _stack_drawn_channel(True, d, 2, rng)


# (measure, dims, sampler): eof and concurrence need pure states outside 2x2.
STRICT_CASES = [
    (m, d, s)
    for m in ("negativity", "log-negativity", "eof", "concurrence")
    for d in ((2, 2), (2, 3))
    for s in ("mixed", "pure", "product")
    if not (d != (2, 2) and m in ("eof", "concurrence") and s == "mixed")
]


CLOSED_MEASURES = ("negativity", "log-negativity", "eof", "concurrence", "g-concurrence",
                   "tangle", "renyi:0.5", "renyi:1", "tsallis:2")


def _monotone_inputs(measure_id, dims, rng):
    """Input states of a closed measure on ``dims``: mixed ones where it has
    a mixed-state form, pure ones always."""
    states = [random_pure(dims, rng).density() for _ in range(2)]
    if measure_id in ("negativity", "log-negativity") or (
            measure_id in ("eof", "concurrence") and dims.factors == (2, 2)):
        states += [random_mixed(dims, rank, rng) for rank in (2, None)]
    return states


def _probe_channel_and_state(eps, rng):
    """A near-annihilating side-B family sqrt(c)|w><w| on a two-qubit pure
    state whose B support is w-perp up to amplitude noise ``eps``."""
    from entmon.channels import LocalKrausChannel
    from entmon.states import PureState

    u = haar_unitary(2, rng)
    w, perp = u[:, 0], u[:, 1:]
    c = float(rng.uniform(0.05, 1.0))
    proj = np.outer(w, w.conj())
    channel = LocalKrausChannel("B", (math.sqrt(c) * proj,
                                      np.eye(2) - (1.0 - math.sqrt(1.0 - c)) * proj))
    g = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
    psi = (g @ perp.T).reshape(-1)
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi = psi / np.linalg.norm(psi) + eps * z / np.linalg.norm(z)
    return channel, PureState(psi / np.linalg.norm(psi), Dims(2, 2)).density()


class TestStackedMonotoneMatchesPerOutcomeLoop:
    @pytest.mark.parametrize("channel_kind", ["general", "mixture"])
    @pytest.mark.parametrize("dims_pair", [(2, 2), (2, 3)])
    @pytest.mark.parametrize("measure_id", CLOSED_MEASURES)
    def test_closed_measures(self, measure_id, dims_pair, channel_kind):
        dims = Dims(*dims_pair)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            channel = _channel(channel_kind, dims_pair[1], rng)
            for rho in _monotone_inputs(measure_id, dims, rng):
                assert check_monotone(measure_id, rho, channel, seed=seed) == \
                    _reference_monotone(measure_id, rho, channel, seed=seed)

    @pytest.mark.parametrize("measure_id", CLOSED_MEASURES)
    def test_near_annihilating_probe(self, measure_id):
        # Outcomes of probability ~3e-11 (eps 1e-5) must stay pure enough
        # for the h-only measures, which reject mixed states.
        for t, eps in enumerate((1e-7, 1e-5, 1e-3)):
            channel, rho = _probe_channel_and_state(eps, np.random.default_rng(40 + t))
            rep = check_monotone(measure_id, rho, channel, seed=t)
            assert rep == _reference_monotone(measure_id, rho, channel, seed=t)
            assert rep.verdict == "pass"

    def test_side_a_channel(self):
        rng = np.random.default_rng(9)
        channel = random_channel(2, 3, rng, side="A")
        rho = random_mixed(Dims(2, 3), None, rng)
        for measure_id in ("negativity", "log-negativity"):
            assert check_monotone(measure_id, rho, channel) == \
                _reference_monotone(measure_id, rho, channel)


# (seed, trials, n_kraus): every seed meets every trial count, and n_kraus
# 2-5 each appear.
BATCHED_SWEEP_CASES = [
    (seed, trials, max(2, 1 + (3 * seed + i) % 5))
    for seed in range(3)
    for i, trials in enumerate((0, 1, 7))
]


class TestBatchedSweepsMatchPerTrialReferences:
    @pytest.mark.parametrize("seed,trials,n_kraus", BATCHED_SWEEP_CASES)
    def test_closed_sweeps(self, seed, trials, n_kraus, monkeypatch):
        from entmon import verify

        if seed == 1:  # many kernel calls per (dims, measure) and per dims
            monkeypatch.setattr(verify, "_BATCH_STATES", 4)
        config = SweepConfig(dims=((2, 2), (2, 3), (3, 3)), trials=trials, n_kraus=n_kraus,
                             seed=seed)
        for check_id, reference in (("monotone", _reference_sweep_monotone),
                                    ("strict", _reference_sweep_strict)):
            batched, loop = _sweep(check_id, config), reference(config)
            assert len(batched) == len(loop)
            for a, b in zip(batched, loop):
                assert a == b

    def test_optimizer_tier_keeps_its_per_trial_path(self):
        config = SweepConfig(measures=("negativity-roof",), dims=((2, 2),), trials=1, seed=5)
        batched = _sweep("monotone", config)
        assert batched == _reference_sweep_monotone(config)


class TestStrictInputStack:
    def test_sampled_stack_is_validated(self):
        from entmon.states import StateValidationError

        rng = np.random.default_rng(11)
        channel = random_channel(2, 2, rng)
        pure = _stack_sampler("pure", Dims(2, 2))
        bad_trace = lambda r, n: 1.01 * pure(r, n)
        with pytest.raises(StateValidationError):
            check_strict("negativity", bad_trace, channel, 4, rng)

        def one_bad_member(r, n):
            mats = pure(r, n)
            mats[2] = np.diag([1.5, -0.5, 0.0, 0.0])
            return mats

        with pytest.raises(StateValidationError):
            check_strict("negativity", one_bad_member, channel, 4, rng)

    @pytest.mark.parametrize("fault", ["hermiticity", "trace", "negative eigenvalue"])
    def test_batch_driver_keeps_every_input_check(self, fault):
        from entmon.states import StateValidationError
        from entmon.verify import _batch_reports, _strict_reports

        rng = np.random.default_rng(14)
        mats = _stack_sampler("pure", Dims(2, 2))(rng, 4)
        mats[2] = {"hermiticity": np.diag([0.5, 0.5, 0.0, 0.0]) + 1e-3 * np.eye(4, k=1),
                   "trace": np.diag([0.6, 0.5, 0.0, 0.0]),
                   "negative eigenvalue": np.diag([1.5, -0.5, 0.0, 0.0])}[fault]
        items = [("negativity", mats, random_channel(2, 2, rng), 0, Dims(2, 2), False)]
        with pytest.raises(StateValidationError, match=fault):
            list(_batch_reports(items, _strict_reports))

    def test_sampler_shape_must_fit_the_channel(self):
        from entmon.states import DimensionMismatchError

        rng = np.random.default_rng(12)
        channel = random_channel(3, 2, rng)
        with pytest.raises(DimensionMismatchError):  # N = 4 is no multiple of 3
            check_strict("negativity", _stack_sampler("pure", Dims(2, 2)), channel, 4, rng)
        with pytest.raises(DimensionMismatchError):  # 3 states for n_states = 4
            check_strict("negativity", lambda r, n: _stack_sampler("pure", Dims(2, 3))(r, 3),
                         channel, 4, rng)

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_dims_follow_the_channel_side(self, side):
        dims = Dims(2, 3)
        reports = []
        for check, sampler in ((check_strict, _stack_sampler("mixed", dims)),
                               (_reference_strict, _sampler("mixed", dims))):
            rng = np.random.default_rng(13)
            channel = random_channel(dims.factors["AB".index(side)], 2, rng, side=side)
            reports.append(check("negativity", sampler, channel, 6, rng))
        assert reports[0] == reports[1]


class TestStackedChecksMatchPerStateLoops:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("channel_kind", ["general", "mixture"])
    @pytest.mark.parametrize("measure_id,dims_pair,sampler_kind", STRICT_CASES)
    def test_strict(self, measure_id, dims_pair, sampler_kind, channel_kind, seed):
        dims = Dims(*dims_pair)
        reports = []
        for check, sampler in ((check_strict, _stack_sampler(sampler_kind, dims)),
                               (_reference_strict, _sampler(sampler_kind, dims))):
            rng = np.random.default_rng(seed)
            channel = _channel(channel_kind, dims_pair[1], rng)
            reports.append(check(measure_id, sampler, channel, 12, rng, seed=seed))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("measure_id", ["tangle", "renyi:0.5", "g-concurrence"])
    def test_strict_pure_only_measures(self, measure_id):
        dims = Dims(2, 3)
        reports = []
        for check, sampler in ((check_strict, _stack_sampler("pure", dims)),
                               (_reference_strict, _sampler("pure", dims))):
            rng = np.random.default_rng(5)
            channel = random_channel(3, 2, rng)
            reports.append(check(measure_id, sampler, channel, 10, rng))
        assert reports[0] == reports[1]

    def test_strict_rejects_mixed_input_to_pure_only_measure(self):
        from entmon.registry import MeasureError

        rng = np.random.default_rng(6)
        channel = random_channel(2, 2, rng)
        with pytest.raises(MeasureError):
            check_strict("tangle", _stack_sampler("mixed", Dims(2, 2)), channel, 4, rng)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("trials", [1, 7, "block+37"])
    def test_logneg(self, trials, seed):
        from entmon.verify import _LOGNEG_BLOCK

        if trials == "block+37":
            trials = _LOGNEG_BLOCK + 37  # a partial last block
        stacked = check_logneg_nonconvexity(np.random.default_rng(seed), trials, seed=seed)
        loop = _reference_logneg(np.random.default_rng(seed), trials, seed=seed)
        assert stacked == loop


# ---------------------------------------------------------------------------
# Per-state references for the concavity and reduced-state kernels: the
# checks as they were before their stack kernels, one validated state and
# one ``h_eval`` at a time.


def _reference_concavity(h, rho1, rho2, lam, seed=0):
    from entmon.measures import h_eval
    from entmon.verify import (CONCAVITY_DISTANCE, CONCAVITY_EQUAL_TOL, CONCAVITY_STRICT_TOL,
                               _report)

    mix = DensityMatrix(lam * rho1.matrix + (1.0 - lam) * rho2.matrix, rho1.dims)
    lhs = h_eval(h, mix)
    rhs = lam * h_eval(h, rho1) + (1.0 - lam) * h_eval(h, rho2)
    dist = float(np.linalg.norm(rho1.matrix - rho2.matrix))
    metadata = {"distance": dist, "lambda": float(lam)}
    if h.kind == "tangle":
        metadata["tangle_identity_dev"] = abs(lhs - rhs - 2.0 * lam * (1.0 - lam) * dist * dist)
    if dist <= 1e-12:
        tol, branch, rule = CONCAVITY_EQUAL_TOL, "equal-states", "|gap| <= tolerance"
        ok = abs(lhs - rhs) <= tol
    elif dist > CONCAVITY_DISTANCE:
        if h.kind == "g-concurrence":
            lo = min(float(rho1.eigenvalues()[0]), float(rho2.eigenvalues()[0]))
            if lo <= 1e-9:
                metadata["reason"] = "g-concurrence strictness needs full-rank inputs"
                rep = _report("concavity", h.measure_id, None, 0.0, 0.0, CONCAVITY_STRICT_TOL,
                              seed, metadata)
                assert rep.verdict == "skipped"
                return rep
        tol, branch, rule = CONCAVITY_STRICT_TOL, "strict", "gap > tolerance"
        ok = lhs - rhs > tol
    else:
        tol, branch, rule = CONCAVITY_STRICT_TOL, "near-equal", "gap >= -tolerance"
        ok = lhs - rhs >= -tol
    metadata.update(branch=branch, rule=rule)
    return _judged(_report("concavity", h.measure_id, None, lhs, rhs, tol, seed, metadata), ok)


def _reference_sweep_concavity(config):
    """The ``concavity`` sweep as one ``_reference_concavity`` per trial."""
    from entmon.verify import CHECK_IDS, CONCAVITY_DISTANCE, DEFAULT_H_SET, derived_seed

    check_idx = CHECK_IDS.index("concavity")
    reports = []
    for hi, h in enumerate(DEFAULT_H_SET):
        for t in range(config.trials):
            seed = derived_seed(config.seed, check_idx, hi, t)
            rng = np.random.default_rng(seed)
            d = 2 if t % 2 == 0 else 3
            dims = Dims(d)
            rank = d if h.kind == "g-concurrence" else (1 + t % d if t % 5 else d)
            rho1 = random_mixed(dims, rank, rng)
            rho2 = random_mixed(dims, rank, rng)
            while float(np.linalg.norm(rho1.matrix - rho2.matrix)) <= CONCAVITY_DISTANCE:
                rho2 = random_mixed(dims, rank, rng)
            reports.append(_reference_concavity(h, rho1, rho2, 0.5, seed=seed))
    return reports


def _reference_reduced_state(h, psi, channel, seed=0):
    from entmon.channels import apply_channel_to_pure, classify
    from entmon.measures import h_eval
    from entmon.states import partial_trace
    from entmon.verify import EQUALITY_TOL, REDUCED_DEV_EQUAL, REDUCED_DEV_STRICT, _report

    rho_a = partial_trace(psi.density(), "A")
    lhs = h_eval(h, rho_a)
    outcomes = apply_channel_to_pure(channel, psi)
    rhs = 0.0
    max_dev = 0.0
    for p, out in outcomes:
        out_a = partial_trace(out.density(), "A")
        rhs += p * h_eval(h, out_a)
        max_dev = max(max_dev, float(np.linalg.norm(out_a.matrix - rho_a.matrix)))
    metadata = {"max_reduced_dev": max_dev, "n_outcomes": len(outcomes)}
    if lhs < 1e-12:
        metadata["note"] = "unentangled input"
    tag = classify(channel).tag
    if max_dev > REDUCED_DEV_STRICT:
        tol, branch, rule = EQUALITY_TOL, "strict", "gap > tolerance"
        ok = lhs - rhs > tol
    elif max_dev < REDUCED_DEV_EQUAL:
        tol, branch, rule = REDUCED_DEV_EQUAL, "equal", "|gap| < tolerance"
        ok = abs(lhs - rhs) < tol
    else:
        metadata["reason"] = "reduced-state deviation falls between the decision thresholds"
        rep = _report("reduced-state", h.measure_id, tag, 0.0, 0.0, EQUALITY_TOL, seed, metadata)
        assert rep.verdict == "skipped"
        return rep
    metadata.update(branch=branch, rule=rule)
    return _judged(_report("reduced-state", h.measure_id, tag, lhs, rhs, tol, seed, metadata), ok)


def _reference_sweep_reduced_state(config):
    """The ``reduced-state`` sweep as one ``_reference_reduced_state`` per trial."""
    from entmon.measures import CONCURRENCE
    from entmon.channels import _build_channels
    from entmon.verify import CHECK_IDS, _trial_draw, derived_seed

    check_idx = CHECK_IDS.index("reduced-state")
    reports = [_reference_reduced_state(ENTROPY, bell_state(), _projective_channel(2),
                                        seed=derived_seed(config.seed, check_idx, 0))]
    h_cycle = (ENTROPY, NEGATIVITY_H, TANGLE, CONCURRENCE)
    for t in range(config.trials):
        seed = derived_seed(config.seed, check_idx, 1, t)
        rng = np.random.default_rng(seed)
        dims_pair = config.dims[t % len(config.dims)]
        psi = random_pure(Dims(*dims_pair), rng)
        channel = _build_channels([_trial_draw(config, t, dims_pair[1], rng, 3, 3)])[0]
        reports.append(_reference_reduced_state(h_cycle[t % 4], psi, channel, seed=seed))
    return reports


def _json_lines(reports):
    from entmon.verify import report_to_json

    return [report_to_json(r) for r in reports]


def _concavity_branch_items(rng):
    """``_concavity_reports`` items of every branch, for every h of the
    default set, each at its own lambda: in dimensions 2 and 3, a state of
    every rank paired with itself, with a state 1e-4 away (near-equal) and,
    in both orders, with a full-rank state (strict), so g-concurrence meets
    a rank-deficient first and second state."""
    from entmon.verify import DEFAULT_H_SET

    items = []
    for d in (2, 3):
        for rank in range(1, d + 1):
            rho = random_mixed_stack(Dims(d), rank, 1, rng)[0]
            sigma = random_mixed_stack(Dims(d), None, 1, rng)[0]
            near = rho + 1e-4 / np.linalg.norm(sigma - rho) * (sigma - rho)
            for rho1, rho2 in ((rho, rho), (rho, near), (rho, sigma), (sigma, rho)):
                for h in DEFAULT_H_SET:
                    items.append((h, np.stack([rho1, rho2]), None, len(items), Dims(d),
                                  float(rng.uniform(0.05, 0.95))))
    return items


def _reference_concavity_items(items):
    return [_reference_concavity(h, DensityMatrix(r1, dims), DensityMatrix(r2, dims), lam, s)
            for h, (r1, r2), _, s, dims, lam in items]


def _reduced_state_branch_inputs(rng):
    """``(h, psi, channel)`` inputs of every reduced-state branch: strict
    (Bell state under a projective measurement, random channels), equal (a
    unitary mixture), a product input (note), an outcome of probability 0
    that ``P_FLOOR`` drops, and a deviation between the two thresholds
    (skipped)."""
    from entmon.channels import LocalKrausChannel
    from entmon.measures import CONCURRENCE
    from entmon.sampling import random_product_pure
    from entmon.states import PureState

    eps = 1e-7
    nudged = LocalKrausChannel("B", (np.diag(np.sqrt([0.5 + eps, 0.5 - eps])),
                                     np.diag(np.sqrt([0.5 - eps, 0.5 + eps]))))
    bell_23 = PureState(np.array([1, 0, 0, 0, 1, 0]) / math.sqrt(2), Dims(2, 3))
    dropping = LocalKrausChannel("B", (np.diag([0.0, 0.0, 1.0]), np.diag([1.0, 1.0, 0.0])))
    inputs = [(ENTROPY, bell_state(), _projective_channel(2)),
              (NEGATIVITY_H, bell_state(), nudged),
              (TANGLE, bell_23, dropping),
              (CONCURRENCE, bell_23, random_channel(3, 3, rng))]
    for h in (ENTROPY, NEGATIVITY_H, TANGLE, CONCURRENCE):
        for dims_pair in ((2, 2), (2, 3)):
            dims = Dims(*dims_pair)
            psi = random_pure(dims, rng)
            inputs.append((h, psi, random_channel(dims_pair[1], 2, rng)))
            inputs.append((h, psi, unitary_mixture_channel(
                [0.3, 0.7], [haar_unitary(dims_pair[1], rng) for _ in range(2)])))
            inputs.append((h, random_product_pure(dims, rng), random_channel(dims_pair[1], 3, rng)))
    return inputs


# (seed, trials): every seed meets every trial count.
KERNEL_SWEEP_CASES = [(seed, trials) for seed in range(4) for trials in (0, 1, 7, 24)]


class TestConcavityAndReducedStateMatchPerStateReferences:
    @pytest.mark.parametrize("seed,trials", KERNEL_SWEEP_CASES)
    def test_sweeps(self, seed, trials):
        config = SweepConfig(dims=((2, 2), (2, 3), (3, 3)), trials=trials, n_kraus=2 + seed,
                             seed=seed)
        assert _json_lines(_sweep("concavity", config)) == \
            _json_lines(_reference_sweep_concavity(config))
        assert _json_lines(_sweep("reduced-state", config)) == \
            _json_lines(_reference_sweep_reduced_state(config))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_concavity_branches(self, seed):
        from entmon.verify import _concavity_reports

        items = _concavity_branch_items(np.random.default_rng(seed))
        reference = _reference_concavity_items(items)
        assert _json_lines(_concavity_reports(items)) == _json_lines(reference)
        one_item = [check_strict_concavity(h, DensityMatrix(r1, dims), DensityMatrix(r2, dims),
                                           lam, s)
                    for h, (r1, r2), _, s, dims, lam in items]
        assert _json_lines(one_item) == _json_lines(reference)
        branches = {r.metadata.get("branch", r.metadata.get("reason")) for r in reference}
        assert branches == {"equal-states", "near-equal", "strict",
                            "g-concurrence strictness needs full-rank inputs"}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_concavity_reports_do_not_depend_on_the_batch_size(self, seed, monkeypatch):
        # The branch items of d = 2 and d = 3 through the batch driver: two
        # items per kernel call, and all of them in one.
        from entmon import verify

        items = _concavity_branch_items(np.random.default_rng(seed))
        assert {dims.dA for *_, dims, _ in items} == {2, 3}
        reference = _json_lines(_reference_concavity_items(items))
        for size in (4, 512):
            monkeypatch.setattr(verify, "_BATCH_STATES", size)
            assert _json_lines(verify._batch_reports(items, verify._concavity_reports)) == \
                reference

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reduced_state_branches(self, seed):
        inputs = _reduced_state_branch_inputs(np.random.default_rng(seed))
        reports = [check_reduced_state_condition(h, psi, channel, seed=i)
                   for i, (h, psi, channel) in enumerate(inputs)]
        reference = [_reference_reduced_state(h, psi, channel, seed=i)
                     for i, (h, psi, channel) in enumerate(inputs)]
        assert _json_lines(reports) == _json_lines(reference)
        branches = {r.metadata.get("branch", r.metadata.get("reason")) for r in reference}
        assert branches == {"strict", "equal",
                            "reduced-state deviation falls between the decision thresholds"}
        assert reference[2].metadata["n_outcomes"] == 1  # the zero-probability outcome
        assert any(r.metadata.get("note") == "unentangled input" for r in reference)


_FAULTS = {"hermiticity": np.diag([0.5, 0.5]) + 1e-3 * np.eye(2, k=1),
           "trace": np.diag([0.6, 0.5]),
           "negative eigenvalue": np.diag([1.5, -0.5])}


class TestConcavityAndReducedStateKeepEveryInputCheck:
    @pytest.mark.parametrize("member", [1, 2])
    @pytest.mark.parametrize("fault", list(_FAULTS))
    def test_concavity_kernel(self, fault, member):
        from entmon.states import StateValidationError
        from entmon.verify import DEFAULT_H_SET, _concavity_reports

        rng = np.random.default_rng(15)
        items = [(h, random_mixed_stack(Dims(2), None, 2, rng), None, s, Dims(2), 0.5)
                 for s, h in enumerate(DEFAULT_H_SET)]
        items[3][1][member - 1] = _FAULTS[fault]
        with pytest.raises(StateValidationError, match=fault) as per_state:
            DensityMatrix(_FAULTS[fault], Dims(2))  # as the sampler validated each state
        with pytest.raises(StateValidationError) as stacked:
            _concavity_reports(items)
        assert str(stacked.value) == str(per_state.value)

    @pytest.mark.parametrize("member", ["input", "outcome"])
    def test_reduced_state_norm_faults(self, member, monkeypatch):
        # A vector off the unit sphere, input or outcome, is refused by the
        # check of its A marginal, with the message a DensityMatrix gives.
        from entmon import verify
        from entmon.states import StateValidationError

        rng = np.random.default_rng(16)
        psi = random_pure(Dims(2, 3), rng)
        channel = random_channel(3, 3, rng)
        off = []
        if member == "input":
            object.__setattr__(psi, "amplitudes", 1.001 * psi.amplitudes)  # bypasses the check
            off.append(psi.amplitudes)
        else:
            exact = verify._outcome_stack

            def one_off_outcome(*args):
                probs, keep, vectors = exact(*args)
                vectors[1] *= 1.001
                off.append(vectors[1])
                return probs, keep, vectors

            monkeypatch.setattr(verify, "_outcome_stack", one_off_outcome)
        with pytest.raises(StateValidationError) as stacked:
            check_reduced_state_condition(ENTROPY, psi, channel)
        marginal = np.trace(projector_stack(off[0]).reshape(2, 3, 2, 3), axis1=1, axis2=3)
        with pytest.raises(StateValidationError, match="trace") as per_state:
            DensityMatrix(marginal, Dims(2))
        assert str(stacked.value) == str(per_state.value)


# ---------------------------------------------------------------------------
# Per-outcome reference for the monogamy check: the check as it was before
# its contractions on C and its eigendecomposition average came from the
# channels kernel and one ``pure_measure_stack`` call, one ``np.kron``
# contraction and one validated state per outcome.


def _reference_monogamy(phi_ab1, eta_b2c, h, seed=0):
    from entmon.measures import h_eval, negativity, pure_measure
    from entmon.states import PureState, partial_trace
    from entmon.verify import MONOGAMY_TOL, _report

    dA, dB1 = phi_ab1.dims.factors
    dB2, dC = eta_b2c.dims.factors
    dB = dB1 * dB2
    amps = np.kron(phi_ab1.amplitudes, eta_b2c.amplitudes)
    psi = PureState(amps, Dims(dA, dB, dC))
    rho = psi.density()
    rho_a = partial_trace(rho, "A")
    rho_ab = partial_trace(rho, "AB")
    rho_ac = partial_trace(rho, "AC")
    rho_c = partial_trace(rho, "C")

    lhs = h_eval(h, rho_a)
    vals, vecs = np.linalg.eigh(rho_ab.matrix)
    rhs = 0.0
    for lamv, vec in zip(vals, vecs.T):
        if lamv > 1e-12:
            rhs += lamv * pure_measure(h, PureState(vec, Dims(dA, dB))).value
    cut_dev = abs(lhs - rhs)

    product_dev = float(np.linalg.norm(rho_ac.matrix - np.kron(rho_a.matrix, rho_c.matrix)))
    neg_ac = negativity(rho_ac).value

    resync = -rho_ab.matrix.copy()
    max_marginal_dev = 0.0
    for s in range(dC):
        bra = np.zeros((1, dC))
        bra[0, s] = 1.0
        v_s = np.kron(np.eye(dA * dB), bra)
        block = v_s @ rho.matrix @ v_s.conj().T
        resync += block
        p_s = float(np.real(np.trace(block)))
        if p_s < 1e-12:
            continue
        out = DensityMatrix(block / p_s, Dims(dA, dB))
        dev = float(np.linalg.norm(partial_trace(out, "A").matrix - rho_a.matrix))
        max_marginal_dev = max(max_marginal_dev, dev)

    metadata = {
        "rule": "all three subchecks within tolerance",
        "cut_dev": cut_dev,
        "ac_product_dev": product_dev,
        "ac_negativity": neg_ac,
        "max_marginal_dev": max_marginal_dev,
        "contraction_resync_dev": float(np.linalg.norm(resync)),
    }
    return _report("monogamy", h.measure_id, None, lhs, rhs, MONOGAMY_TOL, seed, metadata)


def _assert_reports_close(a, b, atol):
    """Equal reports up to ``atol`` in lhs, rhs, gap and every float of the
    metadata; every other field is equal."""
    assert (a.check_id, a.measure_id, a.channel_class, a.tolerance, a.verdict, a.seed) == \
        (b.check_id, b.measure_id, b.channel_class, b.tolerance, b.verdict, b.seed)
    np.testing.assert_allclose([a.lhs, a.rhs, a.gap], [b.lhs, b.rhs, b.gap], rtol=0, atol=atol)
    assert a.metadata.keys() == b.metadata.keys()
    for key, value in a.metadata.items():
        if isinstance(value, float):
            assert abs(value - b.metadata[key]) <= atol, key
        else:
            assert value == b.metadata[key], key


def _monogamy_factors(kind, dims_pair, rng):
    from entmon.sampling import random_product_pure

    if kind == "bell":
        return bell_state(), bell_state()
    draw = random_product_pure if kind == "product" else random_pure
    return draw(Dims(*dims_pair[0]), rng), draw(Dims(*dims_pair[1]), rng)


class TestMonogamyMatchesPerOutcomeReference:
    @pytest.mark.parametrize("h", [ENTROPY, NEGATIVITY_H, TANGLE, renyi(0.5)],
                             ids=lambda h: h.measure_id)
    @pytest.mark.parametrize("kind,dims_pair", [
        ("bell", ((2, 2), (2, 2))),
        ("product", ((2, 2), (2, 2))),
        ("product", ((3, 2), (2, 3))),
        ("random", ((2, 2), (2, 2))),
        ("random", ((2, 3), (2, 2))),
        ("random", ((3, 2), (2, 3))),
    ])
    def test_reports_match(self, kind, dims_pair, h):
        for seed in range(3):
            phi, eta = _monogamy_factors(kind, dims_pair, np.random.default_rng(60 + seed))
            _assert_reports_close(check_monogamy_product(phi, eta, h, seed=seed),
                                  _reference_monogamy(phi, eta, h, seed=seed), 1e-12)


def test_only_channels_applies_kraus_operators_in_the_sweeps():
    # Every Kraus application of the ree-dpi and monogamy sweeps goes
    # through the channels kernels: no other module calls _embedded_kraus.
    import sys

    from entmon import channels

    code = channels._embedded_kraus.__code__
    callers = []
    states = []  # states each call applies Kraus operators to: one per family

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            caller = frame.f_back.f_code
            callers.append((caller.co_filename, caller.co_name))
            kraus = frame.f_locals["kraus"]
            states.append(len(kraus) if kraus.ndim == 4 else 1)

    config = SweepConfig(checks=("ree-dpi", "monogamy"), trials=60, seed=3)
    sys.setprofile(profile)
    try:
        reports = run_sweep(config)
    finally:
        sys.setprofile(None)
    assert {r.check_id for r in reports} == {"ree-dpi", "monogamy"}
    assert sum(states) >= 2 * 60  # rho and sigma of every ree-dpi trial
    assert {filename for filename, _ in callers} == {code.co_filename}


class TestStrictBoundary:
    """``check_strict`` is where a caller's stack enters the library."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.inf)])
    def test_non_finite_entries_are_rejected_as_density_matrix_does(self, bad):
        import warnings

        from entmon.states import StateValidationError

        def with_bad_pair(r, n):
            mats = random_mixed_stack(Dims(2, 2), None, n, r)
            mats[3, 0, 1] = bad
            mats[3, 1, 0] = np.conj(bad)
            return mats

        mats = with_bad_pair(np.random.default_rng(16), 5)
        with pytest.raises(StateValidationError) as expected:
            DensityMatrix(mats[3], Dims(2, 2))
        rng = np.random.default_rng(16)
        channel = random_channel(2, 3, np.random.default_rng(17))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StateValidationError) as raised:
                check_strict("negativity", with_bad_pair, channel, 5, rng)
        assert str(raised.value) == str(expected.value) == "matrix contains non-finite entries"

    @pytest.mark.parametrize("n_states", [0, -1])
    def test_fewer_than_one_state_is_rejected(self, n_states):
        rng = np.random.default_rng(18)
        channel = random_channel(2, 2, rng)
        with pytest.raises(ValueError, match="n_states must be at least 1"):
            check_strict("negativity", _stack_sampler("mixed", Dims(2, 2)), channel, n_states,
                         rng)

    @pytest.mark.parametrize("count", [True, False, 2.5, "3"])
    @pytest.mark.parametrize("check", ["strict", "logneg-nonconvexity"])
    def test_count_that_is_no_integer_is_refused_before_any_draw(self, check, count):
        channel = random_channel(2, 2, np.random.default_rng(19))
        rng = np.random.default_rng(20)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="must be .*integer"):
            if check == "strict":
                check_strict("negativity", _stack_sampler("pure", Dims(2, 2)), channel, count,
                             rng)
            else:
                check_logneg_nonconvexity(rng, trials=count)
        assert rng.bit_generator.state == before

    def test_numpy_integer_counts_are_counts(self):
        channel = random_channel(2, 2, np.random.default_rng(19))
        for count in (3, np.int64(3)):
            assert check_strict("negativity", _stack_sampler("pure", Dims(2, 2)), channel,
                                count, np.random.default_rng(21)) == \
                check_strict("negativity", _stack_sampler("pure", Dims(2, 2)), channel, 3,
                             np.random.default_rng(21))
            assert check_logneg_nonconvexity(np.random.default_rng(21), trials=count) == \
                check_logneg_nonconvexity(np.random.default_rng(21), trials=3)


# ---------------------------------------------------------------------------
# reduced-state judged across trials, in batches that mix dims.
# ``tests/test_ree.py`` compares the ree-dpi sweep with its per-trial form.


# (seed, trials, small batches): every seed meets every trial count.
ACROSS_TRIALS_CASES = [(seed, trials, seed == 1) for seed in range(3) for trials in (0, 1, 7, 24)]


class TestReducedStateAcrossTrials:
    @pytest.mark.parametrize("seed,trials,small", ACROSS_TRIALS_CASES)
    def test_sweep(self, seed, trials, small, monkeypatch):
        from entmon import verify

        if small:  # many batches, a dims of several trials in each
            monkeypatch.setattr(verify, "_BATCH_STATES", 9)
        config = SweepConfig(dims=((2, 2), (2, 3), (3, 2)), trials=trials, n_kraus=2 + seed,
                             seed=seed)
        assert _json_lines(_sweep("reduced-state", config)) == \
            _json_lines(_reference_sweep_reduced_state(config))

    def test_one_trial_cases_match_the_stack(self):
        from entmon.verify import _reduced_state_reports

        inputs = _reduced_state_branch_inputs(np.random.default_rng(40))
        items = [(h, psi.amplitudes[None], channel, i, psi.dims, None)
                 for i, (h, psi, channel) in enumerate(inputs)]
        one_by_one = [check_reduced_state_condition(h, psi, channel, seed=i)
                      for i, (h, psi, channel) in enumerate(inputs)]
        assert _json_lines(_reduced_state_reports(items)) == _json_lines(one_by_one)


def _stack_drawn_channel(mixture, d, k, rng):
    from entmon.channels import _build_channels, _draw_channel, _draw_mixture

    return _build_channels([(_draw_mixture if mixture else _draw_channel)(d, k, rng)])[0]


@settings(max_examples=80, deadline=None)
@given(dims_pair=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]), mixture=st.booleans(),
       k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_tangle_gap_is_the_reduced_state_spread(dims_pair, mixture, k, seed):
    # Direction 5: for a side-B channel on a pure input the A marginals
    # average to the input's, so tau(psi) - sum_k p_k tau(psi_k) equals
    # 2 sum_k p_k ||rho_A^k - rho_A||_2^2.
    from entmon.channels import apply_channel_to_pure
    from entmon.states import partial_trace

    rng = np.random.default_rng(seed)
    psi = random_pure(Dims(*dims_pair), rng)
    channel = _stack_drawn_channel(mixture, dims_pair[1], k, rng)
    rep = check_reduced_state_condition(TANGLE, psi, channel)
    rho_a = partial_trace(psi.density(), "A").matrix
    spread = 2.0 * sum(p * np.linalg.norm(partial_trace(out.density(), "A").matrix - rho_a) ** 2
                       for p, out in apply_channel_to_pure(channel, psi))
    if "reason" not in rep.metadata:
        assert abs(rep.gap - spread) <= 1e-12
    if mixture:
        assert rep.channel_class != "general"
        assert spread <= 1e-12


# ---------------------------------------------------------------------------
# Pure inputs as amplitude vectors: the closed sweeps' vector path against
# the projector path, and its checks at the boundary.


@settings(max_examples=40, deadline=None)
@given(dims_pair=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]), mixture=st.booleans(),
       k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_closed_gaps_of_vectors_match_their_projectors(dims_pair, mixture, k, seed):
    # Every closed measure that takes states on dims_pair: the same outcome
    # counts, and values that differ by roundoff alone.
    from entmon.registry import measure_state_kind
    from entmon.verify import _closed_gaps

    dims = Dims(*dims_pair)
    rng = np.random.default_rng(seed)
    amps = random_pure_stack(dims, 3, rng)
    channel = _stack_drawn_channel(mixture, dims_pair[1], k, rng)
    ids = [m for m in CLOSED_MEASURES if measure_state_kind(m, dims) is not None]
    vectors = _closed_gaps([(m, amps, channel, 0, dims, None) for m in ids])
    projectors = _closed_gaps([(m, projector_stack(amps), channel, 0, dims, None) for m in ids])
    for (tag, lhs, rhs, n_outcomes), (tag_p, lhs_p, rhs_p, n_outcomes_p) in zip(vectors,
                                                                                projectors):
        assert tag == tag_p and n_outcomes == n_outcomes_p
        np.testing.assert_allclose(lhs, lhs_p, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(rhs, rhs_p, rtol=0.0, atol=1e-13)


class TestVectorInputs:
    @pytest.mark.parametrize("channel_kind", ["general", "mixture"])
    @pytest.mark.parametrize("measure_id,dims_pair", [("negativity", (2, 3)), ("eof", (2, 2)),
                                                      ("eof", (3, 2)), ("tangle", (3, 3))])
    def test_strict_with_a_vector_sampler_matches_the_per_state_loop(self, measure_id, dims_pair,
                                                                     channel_kind):
        dims = Dims(*dims_pair)
        reports = []
        for check, sampler in ((check_strict, lambda r, n: random_pure_stack(dims, n, r)),
                               (_reference_strict, _sweep_sampler("pure", dims))):
            rng = np.random.default_rng(21)
            channel = _channel(channel_kind, dims_pair[1], rng)
            reports.append(check(measure_id, sampler, channel, 12, rng, seed=21))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("fault,message", [("non-finite", "non-finite"), ("norm", "norm")])
    def test_faulty_amplitudes_are_refused_at_the_boundary(self, fault, message):
        from entmon.states import TOL_NORM, StateValidationError
        from entmon.verify import _batch_reports, _strict_reports

        def faulty(r, n):
            amps = random_pure_stack(Dims(2, 2), n, r)
            if fault == "norm":
                amps[2] *= 1.0 + 1.01 * TOL_NORM
            else:
                amps[2, 1] = math.nan
            return amps

        rng = np.random.default_rng(22)
        channel = random_channel(2, 2, rng)
        with pytest.raises(StateValidationError, match=message):
            check_strict("negativity", faulty, channel, 4, rng)
        items = [("negativity", random_pure_stack(Dims(2, 2), 3, rng), random_channel(2, 2, rng),
                  0, Dims(2, 2), False),
                 ("negativity", faulty(rng, 4), random_channel(2, 2, rng), 1, Dims(2, 2), False)]
        with pytest.raises(StateValidationError, match=message):
            list(_batch_reports(items, _strict_reports))

    def test_vector_sampler_shape_must_fit_the_channel(self):
        from entmon.states import DimensionMismatchError

        rng = np.random.default_rng(23)
        channel = random_channel(3, 2, rng)
        for sampler in (lambda r, n: random_pure_stack(Dims(2, 2), n, r),  # 4 is no multiple of 3
                        lambda r, n: random_pure_stack(Dims(2, 3), n, r)[0]):  # one vector
            with pytest.raises(DimensionMismatchError):
                check_strict("negativity", sampler, channel, 4, rng)


def test_strict_existence_items_decompose_no_full_state_matrix(monkeypatch):
    # The existence direction evaluates the negativity on Haar pure inputs
    # and their outcomes from their Schmidt coefficients: it takes no
    # dA dB x dA dB spectrum at all, not even a partial transpose's.
    from entmon import verify

    config = SweepConfig(checks=("strict",), dims=((2, 2), (2, 3), (3, 3)), trials=8, seed=4)
    calls = []
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

    def traced(fn, name):
        def call(a, *args, **kwargs):
            calls.append((name, a.shape[-1]))
            return fn(a, *args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "eigh", traced(eigh, "eigh"))
    monkeypatch.setattr(np.linalg, "eigvalsh", traced(eigvalsh, "eigvalsh"))
    existence = [item for item in verify._strict_items(config, 1) if not item[5]]
    n_reports = 0
    for dims in (Dims(*dims_pair) for dims_pair in config.dims):
        calls.clear()
        n_reports += len(list(verify._batch_reports([it for it in existence if it[4] == dims],
                                                    verify._strict_reports)))
        assert [c for c in calls if c[1] == dims.total] == []
    assert n_reports == 3 * 2


def test_monotone_sweep_builds_the_channels_of_a_dims_at_once(monkeypatch):
    # The closed forms of every dims stream through one batch driver: with
    # every input in one batch, one ``_build_channels`` call in all.
    from entmon import verify

    calls = []
    build = verify._build_channels
    monkeypatch.setattr(verify, "_build_channels",
                        lambda draws: calls.append(len(draws)) or build(draws))
    config = SweepConfig(checks=("monotone",), trials=10, seed=0)
    reports = run_sweep(config)
    assert len(reports) == len(config.dims) * len(config.measures) * config.trials
    assert calls == [len(reports)]
