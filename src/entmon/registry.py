"""Measure identifiers and dispatch.

External identifier strings (used by the CLI and in reports):

    eof, concurrence, g-concurrence, tangle, negativity, negativity-roof,
    log-negativity, renyi:<alpha>, tsallis:<q>, ree

``eof`` and ``concurrence`` use the Wootters closed form on two-qubit
density matrices and the reduced-state h-function on pure states of any
dimensions.  The h-only measures (g-concurrence, tangle, renyi, tsallis)
are defined on pure states; a density matrix is accepted when it is pure
to within roundoff.  ``negativity-roof`` and ``ree`` call the respective
optimizers and carry solver metadata in the diagnostics.

One table, ``FAMILIES``, maps each family (the id before any
``:<parameter>``) to its tolerance tier, its unit class and the kind of
the h-function of its pure-state form; every question about a family
(``unit_of``, ``measure_tier``, which states it takes, which id a value
reports) is answered from it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import measures, ree, roof
from .measures import HFunction, MeasureValue
from .states import PURITY_TOL, DensityMatrix, Dims, PureState, projector_stack


class Family(NamedTuple):
    tier: str  # tolerance class: "closed", "roof" or "ree"
    unit: str  # "nats" (converts to bits on request), "log2" (bits) or "dimensionless"
    h: str | None  # h-function kind of the pure-state form; None if not one


FAMILIES = {
    "eof": Family("closed", "nats", "entropy"),
    "concurrence": Family("closed", "dimensionless", "concurrence"),
    "g-concurrence": Family("closed", "dimensionless", "g-concurrence"),
    "tangle": Family("closed", "dimensionless", "tangle"),
    "renyi": Family("closed", "nats", "renyi"),
    "tsallis": Family("closed", "dimensionless", "tsallis"),
    "negativity": Family("closed", "dimensionless", None),
    "log-negativity": Family("closed", "log2", None),
    "negativity-roof": Family("roof", "dimensionless", "negativity"),
    "ree": Family("ree", "nats", None),
}


class MeasureError(ValueError):
    """Unknown measure id, bad parameter, or unsupported state for a measure."""


def parse_measure_id(measure_id: str) -> tuple[str, float | None]:
    """Split an id like ``renyi:0.5`` into (family, parameter)."""
    family, colon, raw = measure_id.partition(":")
    if family not in FAMILIES or bool(colon) != (family in ("renyi", "tsallis")):
        raise MeasureError(f"unknown measure id {measure_id!r}")
    if not colon:
        return family, None
    try:
        param = float(raw)
    except ValueError as exc:
        raise MeasureError(f"bad parameter in measure id {measure_id!r}") from exc
    try:
        HFunction(family, param)
    except ValueError as exc:
        raise MeasureError(str(exc)) from exc
    return family, param


def unit_of(measure_id: str) -> str:
    return FAMILIES[parse_measure_id(measure_id)[0]].unit


def measure_tier(measure_id: str) -> str:
    """Tolerance class: 'closed', 'roof', or 'ree'."""
    return FAMILIES[parse_measure_id(measure_id)[0]].tier


def _pure_vectors(mats: np.ndarray) -> np.ndarray | None:
    """Leading eigenvectors of a ``(..., n, n)`` stack, or None if any member
    is mixed beyond ``PURITY_TOL``."""
    vals, vecs = np.linalg.eigh(mats)
    if (1.0 - vals[..., -1] > PURITY_TOL).any():
        return None
    return vecs[..., :, -1]


def _as_density(state: PureState | DensityMatrix) -> DensityMatrix:
    return state.density() if isinstance(state, PureState) else state


def _h_function(family: str, param: float | None) -> HFunction | None:
    kind = FAMILIES[family].h
    return None if kind is None else HFunction(kind, param)


def _uses_wootters(family: str, dims: Dims) -> bool:
    return family in ("eof", "concurrence") and dims.factors == (2, 2)


def measure_state_kind(measure_id: str, dims: Dims) -> str | None:
    """'mixed' or 'pure': the states a measure evaluates on ``dims``; None if none.

    The G-concurrence reads 1 on every state of a system with a factor of
    dimension 1, so it is not defined there.
    """
    family, _ = parse_measure_id(measure_id)
    if family == "ree":
        return "mixed" if dims.total <= ree.MAX_TOTAL_DIM else None
    if family == "g-concurrence" and 1 in dims.factors:
        return None
    tier, _, h = FAMILIES[family]
    if tier != "closed" or h is None or _uses_wootters(family, dims):
        return "mixed"
    return "pure"  # closed forms that are h of a pure state's reduced state


def evaluate_closed_stack(measure_id: str, states: np.ndarray, dims: Dims) -> np.ndarray:
    """A closed-form measure on an ``(M, n)`` stack of amplitude vectors or
    an ``(M, n, n)`` stack of density matrices (``states.ndim`` tells which)
    that are valid states on ``dims``.  Values carry ``MeasureValue``'s
    roundoff floor.  The reduced-state (h-function) families take vectors
    to ``pure_measure_stack`` and need every matrix pure (else
    ``MeasureError``); the negativities take vectors to
    ``pure_pt_trace_norms``, the Wootters forms take a vector's projector.
    """
    family, param = parse_measure_id(measure_id)
    if FAMILIES[family].tier != "closed":
        raise MeasureError(f"{measure_id!r} has no closed form")
    h = _h_function(family, param)
    kind = measure_state_kind(measure_id, dims)
    if kind is None:
        raise MeasureError(f"{measure_id!r} is not defined on a {dims.factors} system")
    if states.ndim == 2 and kind == "pure":
        return measures.pure_measure_stack(h, states, dims)
    pt_norms = measures.pure_pt_trace_norms if states.ndim == 2 else measures.pt_trace_norms
    if family == "negativity":
        return measures.negativity_of_norms(pt_norms(states, dims))
    if family == "log-negativity":
        return measures.log_negativity_of_norms(pt_norms(states, dims))
    mats = projector_stack(states) if states.ndim == 2 else states
    if _uses_wootters(family, dims):
        if family == "eof":
            return measures.wootters_eof_stack(mats)
        return measures.wootters_concurrence_stack(mats)
    vecs = _pure_vectors(mats)
    if vecs is None:
        if family in ("eof", "concurrence"):
            raise MeasureError(
                f"{measure_id!r} needs a two-qubit state or a pure state, "
                f"got a mixed state on {dims.factors}"
            )
        raise MeasureError(f"{measure_id!r} is a pure-state measure; input is mixed")
    return measures.pure_measure_stack(h, vecs, dims)


def evaluate_measure(
    measure_id: str,
    state: PureState | DensityMatrix,
    rng: np.random.Generator | None = None,
) -> MeasureValue:
    """Evaluate a measure by its external id on a bipartite state."""
    family, param = parse_measure_id(measure_id)
    h = _h_function(family, param)

    if family == "negativity-roof":
        result = roof.roof_minimize(h, _as_density(state), rng=rng)
        return MeasureValue(
            result.value,
            "negativity-roof",
            {"restarts_used": result.restarts_used, "converged": result.converged},
        )
    if family == "ree":
        result = ree.ree_minimize(_as_density(state), rng=rng)
        return MeasureValue(
            result.value,
            "ree",
            {
                "iterations": result.iterations,
                "duality_gap_estimate": result.duality_gap_estimate,
                "converged": result.converged,
                "upper_bound_only": result.upper_bound_only,
                "atoms": result.atoms,
            },
        )

    # A given state vector needs no eigendecomposition to find it.
    stack = state.amplitudes if isinstance(state, PureState) else state.matrix
    value = evaluate_closed_stack(measure_id, stack[None], state.dims)[0]
    return MeasureValue(float(value), family if h is None else h.measure_id)
