"""Measure-id parsing and dispatch."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmon.registry import (
    MeasureError,
    evaluate_closed_stack,
    evaluate_measure,
    measure_state_kind,
    measure_tier,
    parse_measure_id,
    unit_of,
)
from entmon.sampling import random_mixed, random_product_pure, random_pure
from entmon.states import (
    TOL_NORM,
    TOL_TRACE,
    DensityMatrix,
    DimensionMismatchError,
    Dims,
    PureState,
    bell_state,
    max_entangled,
    werner_state,
)


def test_parse_ids():
    assert parse_measure_id("negativity") == ("negativity", None)
    assert parse_measure_id("renyi:0.5") == ("renyi", 0.5)
    assert parse_measure_id("tsallis:2") == ("tsallis", 2.0)
    with pytest.raises(MeasureError):
        parse_measure_id("nope")
    with pytest.raises(MeasureError):
        parse_measure_id("renyi:zero")
    with pytest.raises(MeasureError):
        parse_measure_id("renyi:1.5")
    with pytest.raises(MeasureError):
        parse_measure_id("negativity:2")


@pytest.mark.parametrize("measure_id", ["tsallis:nan", "tsallis:inf", "tsallis:-inf",
                                        "renyi:nan", "renyi:inf"])
def test_non_finite_orders_rejected(measure_id):
    with pytest.raises(MeasureError, match="order must"):
        parse_measure_id(measure_id)


def test_units_and_tiers():
    assert unit_of("eof") == "nats"
    assert unit_of("log-negativity") == "log2"
    assert unit_of("tangle") == "dimensionless"
    assert measure_tier("negativity") == "closed"
    assert measure_tier("negativity-roof") == "roof"
    assert measure_tier("ree") == "ree"



# Per id, the answers the registry gave before one table held them: tier,
# unit class and the id a Bell-state evaluation reports.
FAMILY_ANSWERS = [
    ("eof", "closed", "nats", "eof"),
    ("concurrence", "closed", "dimensionless", "concurrence"),
    ("g-concurrence", "closed", "dimensionless", "g-concurrence"),
    ("tangle", "closed", "dimensionless", "tangle"),
    ("renyi:0.50", "closed", "nats", "renyi:0.5"),
    ("renyi:1", "closed", "nats", "renyi:1"),
    ("tsallis:2.0", "closed", "dimensionless", "tsallis:2"),
    ("negativity", "closed", "dimensionless", "negativity"),
    ("log-negativity", "closed", "log2", "log-negativity"),
    ("negativity-roof", "roof", "dimensionless", "negativity-roof"),
    ("ree", "ree", "nats", "ree"),
]


@pytest.mark.parametrize("measure_id,tier,unit,reported", FAMILY_ANSWERS)
def test_family_table_answers(measure_id, tier, unit, reported):
    assert (measure_tier(measure_id), unit_of(measure_id)) == (tier, unit)
    value = evaluate_measure(measure_id, bell_state(), rng=np.random.default_rng(0))
    assert value.measure_id == reported
    if tier != "closed":
        with pytest.raises(MeasureError):
            evaluate_closed_stack(measure_id, bell_state().density().matrix[None], Dims(2, 2))


@pytest.mark.parametrize("measure_id", ["renyi", "tsallis", "eof:1", "ree:1", "negativity-roof:2"])
def test_parameters_only_where_the_family_takes_one(measure_id):
    with pytest.raises(MeasureError, match="unknown measure id"):
        parse_measure_id(measure_id)

def test_eof_dispatch():
    # Two-qubit mixed goes through the closed form; pure non-2x2 through
    # the reduced-state entropy.
    assert evaluate_measure("eof", werner_state(0.9)).value > 0
    val = evaluate_measure("eof", max_entangled(3))
    assert val.value == pytest.approx(math.log(3), abs=1e-10)
    with pytest.raises(MeasureError):
        evaluate_measure("eof", random_mixed(Dims(2, 3), None, np.random.default_rng(0)))


def test_pure_only_measures():
    psi = random_pure(Dims(2, 2), np.random.default_rng(1))
    assert evaluate_measure("tangle", psi.density()).value >= 0
    with pytest.raises(MeasureError):
        evaluate_measure("tangle", random_mixed(Dims(2, 2), None, np.random.default_rng(2)))


def test_bell_values_by_id():
    bell = bell_state()
    assert evaluate_measure("negativity", bell).value == pytest.approx(0.5, abs=1e-10)
    assert evaluate_measure("log-negativity", bell).value == pytest.approx(1.0, abs=1e-10)
    assert evaluate_measure("concurrence", bell.density()).value == pytest.approx(1.0, abs=1e-8)
    assert evaluate_measure("renyi:0.5", bell).value == pytest.approx(math.log(2), abs=1e-10)


def test_optimizer_measures_carry_diagnostics():
    rho = werner_state(0.8)
    val = evaluate_measure("negativity-roof", rho, rng=np.random.default_rng(0))
    assert "restarts_used" in val.diagnostics
    bell = bell_state().density()
    val = evaluate_measure("ree", bell, rng=np.random.default_rng(1))
    assert val.value == pytest.approx(math.log(2), abs=1e-2)
    assert "duality_gap_estimate" in val.diagnostics
    assert val.diagnostics["atoms"] == 0  # two qubits take the barrier path: no atoms


def test_ree_of_a_one_by_one_state_is_zero():
    val = evaluate_measure("ree", DensityMatrix(np.ones((1, 1), dtype=complex), Dims(1, 1)))
    assert val.value == 0.0 and val.diagnostics["converged"] is True


CLOSED_IDS = ("negativity", "log-negativity", "eof", "concurrence", "g-concurrence", "tangle",
              "renyi:0.5", "tsallis:2")


@pytest.mark.parametrize("measure_id", CLOSED_IDS)
@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_closed_stack_matches_evaluate_measure(measure_id, dims):
    rng = np.random.default_rng(9)
    dims = Dims(*dims)
    states = [random_pure(dims, rng).density() for _ in range(5)]
    if measure_id in ("negativity", "log-negativity") or \
            (dims.factors == (2, 2) and measure_id in ("eof", "concurrence")):
        states += [random_mixed(dims, None, rng) for _ in range(5)]
    stacked = evaluate_closed_stack(measure_id, np.stack([s.matrix for s in states]), dims)
    assert stacked.tolist() == [evaluate_measure(measure_id, s).value for s in states]


@pytest.mark.parametrize("measure_id", ["tangle", "renyi:0.5", "eof"])
def test_closed_stack_rejects_any_mixed_member(measure_id):
    rng = np.random.default_rng(10)
    dims = Dims(2, 3)
    mats = np.stack([random_pure(dims, rng).density().matrix for _ in range(4)]
                    + [random_mixed(dims, 2, rng).matrix])
    with pytest.raises(MeasureError):
        evaluate_closed_stack(measure_id, mats, dims)


def test_closed_stack_refuses_optimizer_measures():
    with pytest.raises(MeasureError):
        evaluate_closed_stack("ree", bell_state().density().matrix[None], Dims(2, 2))


# Closed forms on small and large dims; the optimizers on 2x2 and, for
# ree, beyond its dimension cap.
STATE_KIND_CASES = [
    (m, d)
    for m in ("negativity", "log-negativity", "eof", "concurrence", "g-concurrence", "tangle",
              "renyi:0.5", "tsallis:2")
    for d in ((2, 2), (2, 3), (4, 5))
] + [("negativity-roof", (2, 2)), ("ree", (2, 2)), ("ree", (4, 5))]


@pytest.mark.parametrize("measure_id,dims_pair", STATE_KIND_CASES)
def test_state_kind_matches_what_the_measure_evaluates(measure_id, dims_pair):
    dims = Dims(*dims_pair)
    rng = np.random.default_rng(17)
    mixed = random_mixed(dims, None, rng)
    pure = random_pure(dims, rng).density()
    kind = measure_state_kind(measure_id, dims)
    if kind is None:
        with pytest.raises((MeasureError, DimensionMismatchError)):
            evaluate_measure(measure_id, mixed, rng=rng)
        return
    state = mixed if kind == "mixed" else pure
    value = evaluate_measure(measure_id, state, rng=rng).value
    assert math.isfinite(value) and value >= 0.0
    if kind == "pure":
        with pytest.raises(MeasureError):
            evaluate_measure(measure_id, mixed, rng=rng)


def below_unit_trace(kind):
    """A valid two-qubit state whose norm or trace sits just below 1:
    PPT, so both negativities are 0."""
    if kind == "pure":
        return PureState((1.0 - 2e-11) * np.eye(4)[0], Dims(2, 2))
    return DensityMatrix((1.0 - 5e-11) * np.eye(4) / 4.0, Dims(2, 2))


@pytest.mark.parametrize("measure_id", ["negativity", "log-negativity"])
@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_negativities_of_ppt_states_below_unit_trace_are_zero(measure_id, kind):
    assert evaluate_measure(measure_id, below_unit_trace(kind)).value == 0.0


def test_g_concurrence_refused_with_a_factor_of_dimension_one():
    dims = Dims(1, 3)
    psi = random_pure(dims, np.random.default_rng(0))
    assert measure_state_kind("g-concurrence", dims) is None
    for state in (psi, psi.density()):
        with pytest.raises(MeasureError, match=r"not defined on a \(1, 3\) system"):
            evaluate_measure("g-concurrence", state)
    with pytest.raises(MeasureError):
        evaluate_closed_stack("g-concurrence", psi.density().matrix[None], dims)


@settings(max_examples=60, deadline=None)
@given(dims=st.sampled_from([(1, 3), (2, 2), (2, 3), (3, 2)]),
       shape=st.sampled_from(["haar", "product", "mixed", "maximally-mixed"]),
       offset=st.floats(-0.99, 0.99), seed=st.integers(0, 2**32 - 1))
def test_closed_forms_are_nonnegative_inside_the_state_tolerances(dims, shape, offset, seed):
    # Each state's norm or trace is off 1 by a share ``offset`` of its
    # tolerance; PPT ones (products, the maximally mixed state) read 0.
    dims = Dims(*dims)
    rng = np.random.default_rng(seed)
    if shape in ("haar", "product"):
        psi = (random_pure if shape == "haar" else random_product_pure)(dims, rng)
        state = PureState((1.0 + offset * TOL_NORM) * psi.amplitudes, dims)
    else:
        mat = random_mixed(dims, None, rng).matrix if shape == "mixed" else np.eye(dims.total)
        state = DensityMatrix((1.0 + offset * TOL_TRACE) * mat / np.trace(mat).real, dims)
    for measure_id in CLOSED_IDS:
        kind = measure_state_kind(measure_id, dims)
        if kind is None or (kind == "pure" and isinstance(state, DensityMatrix)):
            continue
        value = evaluate_measure(measure_id, state).value
        assert math.isfinite(value) and value >= 0.0


@settings(max_examples=40, deadline=None)
@given(dims=st.sampled_from([(2, 3), (3, 2), (2, 4), (4, 2)]), seed=st.integers(0, 2**32 - 1))
def test_pure_state_values_are_invariant_under_swapping_the_factors(dims, seed):
    dA, dB = dims
    psi = random_pure(Dims(dA, dB), np.random.default_rng(seed))
    swapped = PureState(psi.amplitudes.reshape(dA, dB).T.reshape(-1), Dims(dB, dA))
    for measure_id in CLOSED_IDS:
        assert evaluate_measure(measure_id, swapped).value == \
            pytest.approx(evaluate_measure(measure_id, psi).value, abs=1e-12)
