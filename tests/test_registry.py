"""Measure-id parsing and dispatch."""

import math

import numpy as np
import pytest

from entmon.registry import (
    MeasureError,
    as_pure,
    evaluate_closed_stack,
    evaluate_measure,
    measure_tier,
    parse_measure_id,
    unit_of,
)
from entmon.sampling import random_mixed, random_pure
from entmon.states import Dims, bell_state, max_entangled, werner_state


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


def test_units_and_tiers():
    assert unit_of("eof") == "nats"
    assert unit_of("log-negativity") == "log2"
    assert unit_of("tangle") == "dimensionless"
    assert measure_tier("negativity") == "closed"
    assert measure_tier("negativity-roof") == "roof"
    assert measure_tier("ree") == "ree"


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


def test_as_pure_extraction():
    dm = bell_state().density()
    psi = as_pure(dm)
    assert psi is not None
    assert abs(abs(np.vdot(psi.amplitudes, bell_state().amplitudes)) - 1.0) < 1e-10
    assert as_pure(random_mixed(Dims(2, 2), 2, np.random.default_rng(3))) is None


def test_bell_values_by_id():
    bell = bell_state()
    assert evaluate_measure("negativity", bell).value == pytest.approx(0.5, abs=1e-10)
    assert evaluate_measure("log-negativity", bell).value == pytest.approx(1.0, abs=1e-10)
    assert evaluate_measure("concurrence", bell.density()).value == pytest.approx(1.0, abs=1e-8)
    assert evaluate_measure("renyi:0.5", bell).value == pytest.approx(math.log(2), abs=1e-10)


def test_optimizer_measures_carry_diagnostics():
    rho = werner_state(0.8)
    val = evaluate_measure("negativity-roof", rho, rng=np.random.default_rng(0),
                           roof_restarts=6)
    assert "restarts_used" in val.diagnostics
    bell = bell_state().density()
    val = evaluate_measure("ree", bell, rng=np.random.default_rng(1))
    assert val.value == pytest.approx(math.log(2), abs=1e-2)
    assert "duality_gap_estimate" in val.diagnostics


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
