"""Acceptance suite: every criterion at its stated trial count and tolerance.

Each test prints one `ACCEPTANCE n [pass]` line on success (visible with
`pytest -s` or in the captured output); a failing criterion fails its test.
Everything is seeded, so reruns are bit-identical.
"""

import math

import numpy as np
import pytest

from entmon.channels import classify, random_channel, unitary_mixture_channel
from entmon.measures import (
    CONCURRENCE,
    ENTROPY,
    G_CONCURRENCE,
    NEGATIVITY_H,
    TANGLE,
    h_eval,
    renyi,
    tsallis,
    wootters_eof,
)
from entmon.registry import evaluate_measure
from entmon.ree import ree_data_processing_check, ree_minimize
from entmon.roof import roof_minimize
from entmon.sampling import (
    haar_unitary,
    random_mixed,
    random_pure,
    random_pure_stack,
    random_separable,
)
from entmon.states import (
    DensityMatrix,
    Dims,
    bell_state,
    partial_trace,
    projector_stack,
    von_neumann_entropy,
    werner_state,
)
from entmon.verify import (
    SweepConfig,
    TAG_GENERAL,
    TAG_LOCAL_UNITARY,
    TAG_UNITARY_MIXTURE,
    check_logneg_nonconvexity,
    check_monogamy_product,
    check_monotone,
    check_negativity_decomposition,
    check_reduced_state_condition,
    check_strict,
    check_strict_concavity,
    derived_seed,
    run_sweep,
    write_reports_jsonl,
    _projective_channel,
)

H_SET = (ENTROPY, CONCURRENCE, G_CONCURRENCE, TANGLE, NEGATIVITY_H, renyi(0.5), tsallis(2.0))


def _announce(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number} [pass]: {message}")


def test_criterion_01_monotonicity_under_random_channels():
    """Eq.-style average monotonicity for the closed-form measures."""
    failures = 0
    total = 0
    for dims_pair in ((2, 2), (2, 3)):
        dims = Dims(*dims_pair)
        measures = ["negativity", "log-negativity"]
        if dims_pair == (2, 2):
            measures += ["eof", "concurrence"]
        for mi, measure in enumerate(measures):
            for t in range(500):
                seed = derived_seed(2024, dims_pair[1], mi, t)
                rng = np.random.default_rng(seed)
                rho = random_mixed(dims, None, rng)
                channel = random_channel(dims_pair[1], 2 + t % 3, rng, side="B")
                rep = check_monotone(measure, rho, channel, rng=rng, seed=seed)
                total += 1
                if rep.verdict != "pass" or rep.gap < -1e-9:
                    failures += 1
    assert failures == 0
    _announce(1, f"{total} monotonicity checks at 1e-9, zero failures")


def test_criterion_02_strictness_existence_direction():
    failures = 0
    for c in range(50):
        seed = derived_seed(77, c)
        rng = np.random.default_rng(seed)
        channel = random_channel(2, 2 + c % 3, rng, side="B")
        assert classify(channel).tag == TAG_GENERAL
        sampler = lambda r, n: projector_stack(random_pure_stack(Dims(2, 2), n, r))
        rep = check_strict("negativity", sampler, channel, 100, rng, seed=seed)
        if rep.verdict != "pass" or rep.metadata["max_gap"] <= 1e-6:
            failures += 1
    assert failures == 0
    _announce(2, "50 general channels x 100 Haar states, max negativity gap > 1e-6")


def test_criterion_03_strictness_equality_direction():
    mixed_measures = ("negativity", "log-negativity", "eof", "concurrence")
    pure_measures = ("tangle", "g-concurrence", "renyi:0.5", "tsallis:2")
    worst = 0.0
    for t in range(200):
        seed = derived_seed(88, t)
        rng = np.random.default_rng(seed)
        n_unitaries = 1 + t % 3
        channel = unitary_mixture_channel(
            rng.dirichlet(np.ones(n_unitaries)),
            [haar_unitary(2, rng) for _ in range(n_unitaries)],
        )
        tag = classify(channel).tag
        assert tag in (TAG_LOCAL_UNITARY, TAG_UNITARY_MIXTURE)
        rho = random_mixed(Dims(2, 2), None, rng)
        psi = random_pure(Dims(2, 2), rng).density()
        for measure in mixed_measures:
            rep = check_monotone(measure, rho, channel, rng=rng, seed=seed)
            worst = max(worst, abs(rep.gap))
        for measure in pure_measures:
            rep = check_monotone(measure, psi, channel, rng=rng, seed=seed)
            worst = max(worst, abs(rep.gap))
    assert worst < 1e-9
    _announce(3, f"200 unitary-mixture trials, worst |gap| = {worst:.2e} < 1e-9")


def test_criterion_04_convex_roof_matches_wootters():
    lows, highs = [], []
    for t in range(100):
        seed = derived_seed(99, t)
        rng = np.random.default_rng(seed)
        rho = random_mixed(Dims(2, 2), 1 + t % 4, rng)
        oracle = wootters_eof(rho)
        result = roof_minimize(ENTROPY, rho, n_terms=4, restarts=20,
                               rng=np.random.default_rng(seed))
        diff = result.value - oracle
        lows.append(diff)
        highs.append(diff)
        assert -1e-9 <= diff <= 5e-3, f"trial {t}: roof {result.value} vs eof {oracle}"
    _announce(4, f"100 roof values within [eof-1e-9, eof+5e-3]; "
                 f"worst high {max(highs):.2e}, worst low {min(lows):.2e}")


def test_criterion_05_strict_concavity_of_every_h():
    for h in H_SET:
        for t in range(1000):
            seed = derived_seed(111, H_SET.index(h), t)
            rng = np.random.default_rng(seed)
            d = 2 if t % 2 == 0 else 3
            rank = d if h.kind == "g-concurrence" else (1 + t % d if t % 5 else d)
            r1 = random_mixed(Dims(d), rank, rng)
            r2 = random_mixed(Dims(d), rank, rng)
            while float(np.linalg.norm(r1.matrix - r2.matrix)) <= 1e-3:
                r2 = random_mixed(Dims(d), rank, rng)
            rep = check_strict_concavity(h, r1, r2, 0.5, seed=seed)
            assert rep.verdict == "pass" and rep.gap > 1e-12, (h.measure_id, t)
            if h.kind == "tangle":
                assert rep.metadata["tangle_identity_dev"] <= 1e-10
    _announce(5, f"{len(H_SET)} h-functions x 1000 pairs, gap > 1e-12; "
                 "tangle identity within 1e-10")


def test_criterion_06_reduced_state_condition():
    rep = check_reduced_state_condition(ENTROPY, bell_state(), _projective_channel(2))
    assert rep.verdict == "pass"
    assert abs(rep.gap - math.log(2)) <= 1e-10
    rep = check_reduced_state_condition(NEGATIVITY_H, bell_state(), _projective_channel(2))
    assert rep.verdict == "pass"
    assert abs(rep.gap - 0.5) <= 1e-10
    h_cycle = (ENTROPY, NEGATIVITY_H, TANGLE, CONCURRENCE)
    for t in range(200):
        seed = derived_seed(123, t)
        rng = np.random.default_rng(seed)
        dims_pair = (2, 2) if t % 2 == 0 else (2, 3)
        psi = random_pure(Dims(*dims_pair), rng)
        if t % 3 == 2:
            n_u = 1 + t % 2
            channel = unitary_mixture_channel(
                rng.dirichlet(np.ones(n_u)),
                [haar_unitary(dims_pair[1], rng) for _ in range(n_u)],
            )
        else:
            channel = random_channel(dims_pair[1], 2 + t % 3, rng, side="B")
        rep = check_reduced_state_condition(h_cycle[t % 4], psi, channel, seed=seed)
        assert rep.verdict == "pass", (t, rep.metadata)
    _announce(6, "Bell/projective gaps exact; 200 random reduced-state checks pass")


def test_criterion_07_relative_entropy_of_entanglement():
    # Every call must also converge: a solver that stalls (a step that no
    # longer lowers the objective) can still meet the value gates.
    dims = Dims(2, 2)
    res = ree_minimize(bell_state().density(), rng=np.random.default_rng(derived_seed(7, 0)))
    assert abs(res.value - math.log(2)) <= 1e-2
    assert res.converged
    for t in range(20):
        seed = derived_seed(7, 1, t)
        rng = np.random.default_rng(seed)
        psi = random_pure(dims, rng)
        oracle = von_neumann_entropy(partial_trace(psi.density(), "A"))
        res = ree_minimize(psi.density(), rng=np.random.default_rng(seed))
        assert abs(res.value - oracle) <= 1e-2, t
        assert res.converged, t
    for t in range(5):
        seed = derived_seed(7, 2, t)
        rng = np.random.default_rng(seed)
        sep = random_separable(dims, 4 + t % 3, rng)
        res = ree_minimize(sep, rng=np.random.default_rng(seed))
        assert res.value <= 1e-4, t
        assert res.converged, t
    for t in range(20):
        seed = derived_seed(7, 3, t)
        rng = np.random.default_rng(seed)
        rho = random_mixed(dims, 2 + t % 3, rng)
        res = ree_minimize(rho, rng=np.random.default_rng(seed))
        assert res.value <= wootters_eof(rho) + 2e-2, t
        assert res.converged, t
    _announce(7, "REE: Bell=ln2 +/- 1e-2, 20 pure coincidences at 1e-2, "
                 "5 separable <= 1e-4, 20 mixed <= eof + 2e-2")


def test_criterion_08_data_processing_chain():
    worst_gap = math.inf
    for t in range(200):
        seed = derived_seed(8, t)
        rng = np.random.default_rng(seed)
        dims_pair = (2, 2) if t % 2 == 0 else (2, 3)
        dims = Dims(*dims_pair)
        rho = random_mixed(dims, None, rng)
        sigma = random_mixed(dims, None, rng)
        if t % 4 == 3:
            n_u = 1 + t % 2
            channel = unitary_mixture_channel(
                rng.dirichlet(np.ones(n_u)),
                [haar_unitary(dims_pair[1], rng) for _ in range(n_u)],
            )
        else:
            channel = random_channel(dims_pair[1], 2 + t % 3, rng, side="B")
        rep = ree_data_processing_check(rho, sigma, channel)
        assert rep.skipped_reason is None
        assert rep.gap >= -1e-9, t
        worst_gap = min(worst_gap, rep.gap)
        if rep.gap < 1e-9:
            assert rep.max_prob_deviation < 1e-6, t
    _announce(8, f"200 data-processing checks, min gap {worst_gap:.2e} >= -1e-9; "
                 "equality cases have matching outcome probabilities")


def test_criterion_09_negativity_decomposition():
    rep = check_negativity_decomposition(werner_state(0.9))
    assert rep.verdict == "pass"
    assert abs(rep.lhs - 0.425) <= 1e-10
    count = 0
    t = 0
    while count < 100:
        seed = derived_seed(9, t)
        t += 1
        rng = np.random.default_rng(seed)
        rho = random_mixed(Dims(2, 2), 1 + int(rng.integers(2)), rng)
        from entmon.measures import negativity

        if negativity(rho).value <= 1e-9:
            continue
        rep = check_negativity_decomposition(rho, seed=seed)
        assert rep.verdict == "pass", t
        count += 1
    _announce(9, "Werner(0.9) weight = 0.425 +/- 1e-10; 100 NPT decompositions pass")


def test_criterion_10_log_negativity_nonconvexity():
    rep = check_logneg_nonconvexity(np.random.default_rng(derived_seed(10, 0)), trials=10000)
    assert rep.verdict == "pass"
    assert rep.metadata["witness"] is not None
    assert rep.metadata["control_violations"] == 0
    _announce(10, f"log-negativity convexity witness at trial "
                  f"{rep.metadata['witness']['trial']}; negativity control clean")


def test_criterion_11_monogamy_product_structure():
    rep = check_monogamy_product(bell_state(), bell_state(), ENTROPY)
    assert rep.verdict == "pass"
    assert rep.metadata["cut_dev"] <= 1e-9
    assert rep.metadata["ac_product_dev"] <= 1e-9
    assert rep.metadata["ac_negativity"] <= 1e-9
    assert rep.metadata["max_marginal_dev"] <= 1e-9
    _announce(11, "Bell x Bell: equal cuts, product AC marginal, "
                  "contraction-invariant A marginals, all within 1e-9")


def test_criterion_12_default_sweep_is_deterministic(tmp_path):
    config = SweepConfig()
    first = run_sweep(config)
    second = run_sweep(config)
    p1, p2 = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    write_reports_jsonl(first, p1)
    write_reports_jsonl(second, p2)
    assert p1.read_bytes() == p2.read_bytes()
    failures = [r for r in first if r.verdict == "fail"]
    assert not failures
    _announce(12, f"default sweep ({len(first)} reports) is byte-identical across runs "
                  "with zero failures")
