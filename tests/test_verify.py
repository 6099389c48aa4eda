"""Verification checks and sweep machinery."""

import json
import math

import numpy as np
import pytest

from entmon.channels import random_channel, unitary_mixture_channel
from entmon.measures import ENTROPY, NEGATIVITY_H, TANGLE, renyi
from entmon.sampling import haar_unitary, random_mixed, random_pure, random_separable
from entmon.states import DensityMatrix, Dims, bell_state, max_entangled, werner_state
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
        sampler = lambda r: random_pure(Dims(2, 2), r).density()
        rep = check_strict("negativity", sampler, channel, 50, rng)
        assert rep.verdict == "pass"
        assert rep.metadata["max_gap"] > 1e-6

    def test_unitary_mixture_shows_no_gap(self):
        rng = np.random.default_rng(3)
        channel = unitary_mixture_channel(
            [0.3, 0.7], [haar_unitary(2, rng), haar_unitary(2, rng)]
        )
        sampler = lambda r: random_mixed(Dims(2, 2), None, r)
        rep = check_strict("negativity", sampler, channel, 20, rng)
        assert rep.verdict == "pass"
        assert abs(rep.gap) < 1e-9

    def test_product_sampler_is_uninformative(self):
        from entmon.sampling import random_product_pure

        rng = np.random.default_rng(4)
        channel = random_channel(2, 2, rng)
        sampler = lambda r: random_product_pure(Dims(2, 2), r).density()
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
        with pytest.raises(ValueError):
            SweepConfig(tolerances={"closed": -1.0})
        with pytest.raises(ValueError):
            SweepConfig(tolerances={"bogus": 1.0})

    def test_identical_configs_are_bit_identical(self, tmp_path):
        cfg = SweepConfig(checks=("monotone", "concavity"), trials=5, seed=3)
        a, b = run_sweep(cfg), run_sweep(cfg)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_reports_jsonl(a, p1)
        write_reports_jsonl(b, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_reports_verdicts_recomputable(self):
        cfg = SweepConfig(trials=3, seed=1)
        for rep in run_sweep(cfg):
            assert recompute_verdict(rep) == rep.verdict

    def test_ree_reports_carry_solver_status(self):
        from entmon.ree import GAP_TOL

        reports = run_sweep(SweepConfig(checks=("ree",), trials=1, seed=0))
        assert len(reports) == 4
        for rep in reports:
            assert rep.metadata["converged"] is True
            assert rep.metadata["duality_gap_estimate"] < GAP_TOL
            assert rep.metadata["iterations"] >= 1

    def test_summary_and_csv(self, tmp_path):
        cfg = SweepConfig(checks=("concavity",), trials=4, seed=0)
        reports = run_sweep(cfg)
        rows = summarize(reports)
        assert all(r["passes"] == r["trials"] for r in rows)
        path = tmp_path / "summary.csv"
        write_summary_csv(reports, path)
        header = path.read_text().splitlines()[0]
        assert header == "check_id,measure_id,trials,passes,min_gap,mean_gap,max_gap"

    def test_jsonl_fields(self, tmp_path):
        cfg = SweepConfig(checks=("neg-decomposition",), trials=2, seed=0)
        reports = run_sweep(cfg)
        path = tmp_path / "r.jsonl"
        write_reports_jsonl(reports, path)
        first = json.loads(path.read_text().splitlines()[0])
        assert list(first) == ["check_id", "measure_id", "channel_class", "lhs", "rhs",
                               "gap", "tolerance", "verdict", "seed", "metadata"]


# ---------------------------------------------------------------------------
# Per-state references for the stacked checks.  These loops evaluate one
# state at a time through the public per-state functions; the stacked
# checks must return equal reports.


def _reference_strict(measure_id, state_sampler, channel, n_states, rng, seed=0):
    from entmon.channels import apply_channel, classify
    from entmon.registry import evaluate_measure
    from entmon.states import PureState
    from entmon.verify import EQUALITY_TOL, STRICT_FLOOR, TAG_GENERAL, _report

    cls = classify(channel)
    gaps = np.empty(n_states)
    lhs_vals = np.empty(n_states)
    rhs_vals = np.empty(n_states)
    for i in range(n_states):
        state = state_sampler(rng)
        dm = state.density() if isinstance(state, PureState) else state
        lhs = evaluate_measure(measure_id, dm, rng=rng).value
        ensemble = apply_channel(channel, dm)
        rhs = sum(p * evaluate_measure(measure_id, s, rng=rng).value for p, s in ensemble.outcomes)
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
            return _report("strict", measure_id, cls.tag, lhs_vals[0], rhs_vals[0],
                           STRICT_FLOOR, True, seed, metadata)
        i = int(np.argmax(gaps))
        metadata["rule"] = "max gap > tolerance"
        return _report("strict", measure_id, cls.tag, lhs_vals[i], rhs_vals[i],
                       STRICT_FLOOR, gaps[i] > STRICT_FLOOR, seed, metadata)
    i = int(np.argmax(np.abs(gaps)))
    metadata["rule"] = "max |gap| < tolerance"
    return _report("strict", measure_id, cls.tag, lhs_vals[i], rhs_vals[i],
                   EQUALITY_TOL, abs(gaps[i]) < EQUALITY_TOL, seed, metadata)


def _reference_logneg(rng, trials, seed=0):
    from entmon.measures import log_negativity, negativity
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
        en_mix = log_negativity(mix).value
        en_avg = lam * log_negativity(r1).value + (1.0 - lam) * log_negativity(r2).value
        n_mix = negativity(mix).value
        n_avg = lam * negativity(r1).value + (1.0 - lam) * negativity(r2).value
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
        return _report("logneg-nonconvexity", "log-negativity", None, 0.0, 0.0,
                       1e-6, False, seed, metadata)
    return _report("logneg-nonconvexity", "log-negativity", None, witness["en_mix"],
                   witness["en_avg"], 1e-6, control_violations == 0, seed, metadata)


def _sampler(kind, dims):
    from entmon.sampling import random_product_pure

    if kind == "mixed":
        return lambda r: random_mixed(dims, None, r)
    if kind == "pure":
        return lambda r: random_pure(dims, r).density()
    return lambda r: random_product_pure(dims, r).density()


def _channel(kind, d, rng):
    from entmon.verify import _random_unitary_mixture

    if kind == "general":
        return random_channel(d, 3, rng)
    return _random_unitary_mixture(d, 2, rng)


# (measure, dims, sampler): eof and concurrence need pure states outside 2x2.
STRICT_CASES = [
    (m, d, s)
    for m in ("negativity", "log-negativity", "eof", "concurrence")
    for d in ((2, 2), (2, 3))
    for s in ("mixed", "pure", "product")
    if not (d != (2, 2) and m in ("eof", "concurrence") and s == "mixed")
]


class TestStackedChecksMatchPerStateLoops:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("channel_kind", ["general", "mixture"])
    @pytest.mark.parametrize("measure_id,dims_pair,sampler_kind", STRICT_CASES)
    def test_strict(self, measure_id, dims_pair, sampler_kind, channel_kind, seed):
        dims = Dims(*dims_pair)
        reports = []
        for check in (check_strict, _reference_strict):
            rng = np.random.default_rng(seed)
            channel = _channel(channel_kind, dims_pair[1], rng)
            reports.append(check(measure_id, _sampler(sampler_kind, dims), channel, 12, rng,
                                 seed=seed))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("measure_id", ["tangle", "renyi:0.5", "g-concurrence"])
    def test_strict_pure_only_measures(self, measure_id):
        dims = Dims(2, 3)
        reports = []
        for check in (check_strict, _reference_strict):
            rng = np.random.default_rng(5)
            channel = random_channel(3, 2, rng)
            reports.append(check(measure_id, _sampler("pure", dims), channel, 10, rng))
        assert reports[0] == reports[1]

    def test_strict_rejects_mixed_input_to_pure_only_measure(self):
        from entmon.registry import MeasureError

        rng = np.random.default_rng(6)
        channel = random_channel(2, 2, rng)
        with pytest.raises(MeasureError):
            check_strict("tangle", _sampler("mixed", Dims(2, 2)), channel, 4, rng)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("trials", [1, 7, "block+37"])
    def test_logneg(self, trials, seed):
        from entmon.verify import _LOGNEG_BLOCK

        if trials == "block+37":
            trials = _LOGNEG_BLOCK + 37  # a partial last block
        stacked = check_logneg_nonconvexity(np.random.default_rng(seed), trials, seed=seed)
        loop = _reference_logneg(np.random.default_rng(seed), trials, seed=seed)
        assert stacked == loop
