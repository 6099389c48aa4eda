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
"""

from __future__ import annotations

import numpy as np

from . import measures, ree, roof
from .measures import HFunction, MeasureValue
from .states import DensityMatrix, Dims, PureState

PURITY_TOL = 1e-10

CLOSED_FORM_IDS = ("eof", "concurrence", "g-concurrence", "tangle", "negativity", "log-negativity")
OPTIMIZER_IDS = ("negativity-roof", "ree")

# Unit class per measure: "nats" values convert to bits on request,
# "log2" values are already in bits, "dimensionless" values never convert.
UNITS = {
    "eof": "nats",
    "ree": "nats",
    "renyi": "nats",
    "log-negativity": "log2",
    "concurrence": "dimensionless",
    "g-concurrence": "dimensionless",
    "tangle": "dimensionless",
    "negativity": "dimensionless",
    "negativity-roof": "dimensionless",
    "tsallis": "dimensionless",
}


class MeasureError(ValueError):
    """Unknown measure id, bad parameter, or unsupported state for a measure."""


def parse_measure_id(measure_id: str) -> tuple[str, float | None]:
    """Split an id like ``renyi:0.5`` into (family, parameter)."""
    if ":" in measure_id:
        family, _, raw = measure_id.partition(":")
        if family not in ("renyi", "tsallis"):
            raise MeasureError(f"unknown measure id {measure_id!r}")
        try:
            param = float(raw)
        except ValueError as exc:
            raise MeasureError(f"bad parameter in measure id {measure_id!r}") from exc
        try:
            HFunction(family, param)
        except ValueError as exc:
            raise MeasureError(str(exc)) from exc
        return family, param
    if measure_id in CLOSED_FORM_IDS or measure_id in OPTIMIZER_IDS:
        return measure_id, None
    raise MeasureError(f"unknown measure id {measure_id!r}")


def unit_of(measure_id: str) -> str:
    family, _ = parse_measure_id(measure_id)
    return UNITS[family]


def measure_tier(measure_id: str) -> str:
    """Tolerance class: 'closed', 'roof', or 'ree'."""
    family, _ = parse_measure_id(measure_id)
    if family == "negativity-roof":
        return "roof"
    if family == "ree":
        return "ree"
    return "closed"


def _pure_vectors(mats: np.ndarray) -> np.ndarray | None:
    """Leading eigenvectors of a ``(..., n, n)`` stack, or None if any member
    is mixed beyond ``PURITY_TOL``."""
    vals, vecs = np.linalg.eigh(mats)
    if (1.0 - vals[..., -1] > PURITY_TOL).any():
        return None
    return vecs[..., :, -1]


def _as_density(state: PureState | DensityMatrix) -> DensityMatrix:
    return state.density() if isinstance(state, PureState) else state


_H_BY_FAMILY = {
    "eof": measures.ENTROPY,
    "concurrence": measures.CONCURRENCE,
    "g-concurrence": measures.G_CONCURRENCE,
    "tangle": measures.TANGLE,
}


def _h_function(family: str, param: float | None) -> HFunction:
    if family in ("renyi", "tsallis"):
        return HFunction(family, param)
    return _H_BY_FAMILY[family]


def _uses_wootters(family: str, dims: Dims) -> bool:
    return family in ("eof", "concurrence") and dims.factors == (2, 2)


def measure_state_kind(measure_id: str, dims: Dims) -> str | None:
    """'mixed' or 'pure': the states a measure evaluates on ``dims``; None if none."""
    family, _ = parse_measure_id(measure_id)
    if family == "ree":
        return "mixed" if dims.total <= ree.MAX_TOTAL_DIM else None
    if family in ("negativity", "log-negativity", "negativity-roof") or _uses_wootters(family, dims):
        return "mixed"
    return "pure"  # the reduced-state (h-function) families


def _closed_id(family: str, param: float | None) -> str:
    if family in ("negativity", "log-negativity"):
        return family
    return _h_function(family, param).measure_id


def evaluate_closed_stack(measure_id: str, mats: np.ndarray, dims: Dims) -> np.ndarray:
    """A closed-form measure on a ``(..., n, n)`` stack of density matrices.

    The members must be valid states on ``dims``.  Values carry
    ``MeasureValue``'s roundoff floor.  The reduced-state (h-function)
    families need every member pure; a mixed one raises ``MeasureError``.
    """
    family, param = parse_measure_id(measure_id)
    if family in OPTIMIZER_IDS:
        raise MeasureError(f"{measure_id!r} has no closed form")
    return _closed_values(measure_id, family, param, mats, dims)


def _closed_values(measure_id, family, param, mats, dims) -> np.ndarray:
    if family == "negativity":
        return measures.negativity_of_norms(measures.pt_trace_norms(mats, dims))
    if family == "log-negativity":
        return measures.log_negativity_of_norms(measures.pt_trace_norms(mats, dims))
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
    return measures.pure_measure_stack(_h_function(family, param), vecs, dims)


def evaluate_measure(
    measure_id: str,
    state: PureState | DensityMatrix,
    rng: np.random.Generator | None = None,
) -> MeasureValue:
    """Evaluate a measure by its external id on a bipartite state."""
    family, param = parse_measure_id(measure_id)

    if family == "negativity-roof":
        result = roof.roof_minimize(measures.NEGATIVITY_H, _as_density(state), rng=rng)
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

    if isinstance(state, PureState) and measure_state_kind(measure_id, state.dims) == "pure":
        # A given state vector needs no eigendecomposition to find it.
        value = measures.pure_measure_stack(_h_function(family, param), state.amplitudes,
                                            state.dims)
    else:
        dm = _as_density(state)
        value = _closed_values(measure_id, family, param, dm.matrix, dm.dims)
    return MeasureValue(float(value), _closed_id(family, param))
