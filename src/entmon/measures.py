"""Entanglement measures: reduced-state h-functions and closed forms.

Every pure-state measure here is a unitarily invariant, strictly concave
function of the reduced state's spectrum.  Mixed-state closed forms cover
negativity, logarithmic negativity, and the two-qubit Wootters
concurrence / entanglement of formation.

Each closed form is computed by one kernel that works on a whole stack of
states at once: ``(..., n, n)`` density matrices or ``(..., n)`` amplitude
vectors, evaluated in a few batched LAPACK calls.  The kernels trust their
inputs, which were validated when their states were built (the public
dataclasses, or ``validate_density_stack`` once per stack).  The per-state
public functions are the kernels on a single state.

Values are in nats for entropic measures; logarithmic negativity alone uses
log base 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .states import (
    DensityMatrix,
    DimensionMismatchError,
    Dims,
    PureState,
    _partial_transpose_array,
    _trace_norm_stack,
    validate_density_stack,
)

H_KINDS = ("entropy", "concurrence", "g-concurrence", "tangle", "negativity", "renyi", "tsallis")


@dataclass(frozen=True)
class HFunction:
    """Concave spectral function on reduced states defining a pure-state measure.

    ``renyi`` takes an order ``alpha`` in (0, 1] (alpha = 1 reduces to the
    entropy); ``tsallis`` takes ``q > 0``, ``q != 1``.  The other kinds are
    parameter-free.
    """

    kind: str
    param: float | None = None

    def __post_init__(self):
        if self.kind not in H_KINDS:
            raise ValueError(f"unknown h-function kind {self.kind!r}")
        if self.kind == "renyi":
            if self.param is None or not 0.0 < self.param <= 1.0:
                raise ValueError("renyi order must lie in (0, 1]")
        elif self.kind == "tsallis":
            if self.param is None or self.param <= 0.0 or self.param == 1.0:
                raise ValueError("tsallis order must be positive and != 1")
        elif self.param is not None:
            raise ValueError(f"{self.kind} takes no parameter")

    @property
    def measure_id(self) -> str:
        """External identifier of the associated pure-state measure."""
        if self.kind == "entropy":
            return "eof"
        if self.kind in ("renyi", "tsallis"):
            return f"{self.kind}:{self.param:g}"
        return self.kind


ENTROPY = HFunction("entropy")
CONCURRENCE = HFunction("concurrence")
G_CONCURRENCE = HFunction("g-concurrence")
TANGLE = HFunction("tangle")
NEGATIVITY_H = HFunction("negativity")


def renyi(alpha: float) -> HFunction:
    return HFunction("renyi", alpha)


def tsallis(q: float) -> HFunction:
    return HFunction("tsallis", q)


# Measure values down to -ROUNDOFF_FLOOR are roundoff and read as 0; lower
# ones raise ValueError.
ROUNDOFF_FLOOR = 1e-12


def _floored(values: np.ndarray) -> np.ndarray:
    """``MeasureValue``'s roundoff floor on every entry of a stack."""
    low = values < -ROUNDOFF_FLOOR
    if low.any():
        raise ValueError(f"measure value {np.ravel(values)[np.flatnonzero(low)[0]]} below the "
                         "roundoff floor")
    return np.where(values > 0.0, values, 0.0)


def _elementwise(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` on every entry.  For the ``math`` functions, whose last bits
    the vectorized numpy ones do not always match."""
    return np.array([fn(x) for x in np.ravel(values).tolist()]).reshape(np.shape(values))


@dataclass(frozen=True)
class MeasureValue:
    """A measure evaluation; tiny negative roundoff is clipped to zero."""

    value: float
    measure_id: str
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        v = float(self.value)
        if v < -ROUNDOFF_FLOOR:
            raise ValueError(f"measure value {v} below the roundoff floor")
        object.__setattr__(self, "value", max(0.0, v))

    def __float__(self) -> float:
        return self.value


# Spectral weights below this floor are treated as exact zeros.  Several h
# kinds amplify roundoff hard (sqrt for the negativity function, mu^alpha
# for small Renyi orders), so without a floor a numerically pure state
# would not evaluate to 0.
SPECTRUM_FLOOR = 1e-13


def h_of_spectrum(h: HFunction, mu: np.ndarray) -> np.ndarray:
    """Evaluate ``h`` on spectra.  ``mu`` is (..., d) of nonnegative weights.

    Floored weights are renormalized so a numerically pure spectrum maps to
    exactly zero even for the roundoff-amplifying kinds (sqrt, small
    powers).
    """
    mu = np.asarray(mu, dtype=float)
    mu = np.where(mu < SPECTRUM_FLOOR, 0.0, mu)
    total = np.sum(mu, axis=-1, keepdims=True)
    mu = mu / np.where(total > 0.0, total, 1.0)
    if h.kind == "entropy":
        safe = np.where(mu > 0.0, mu, 1.0)
        return -np.sum(mu * np.log(safe), axis=-1)
    if h.kind == "concurrence":
        return np.sqrt(np.clip(2.0 * (1.0 - np.sum(mu * mu, axis=-1)), 0.0, None))
    if h.kind == "tangle":
        return np.clip(2.0 * (1.0 - np.sum(mu * mu, axis=-1)), 0.0, None)
    if h.kind == "g-concurrence":
        d = mu.shape[-1]
        # d * (prod mu)^(1/d); exactly 0 on singular spectra.
        prod = np.prod(mu, axis=-1)
        return d * np.power(prod, 1.0 / d)
    if h.kind == "negativity":
        s = np.sum(np.sqrt(mu), axis=-1)
        return np.clip((s * s - 1.0) / 2.0, 0.0, None)
    if h.kind == "renyi":
        a = float(h.param)
        if a == 1.0:
            safe = np.where(mu > 0.0, mu, 1.0)
            return -np.sum(mu * np.log(safe), axis=-1)
        return np.log(np.sum(np.power(mu, a), axis=-1)) / (1.0 - a)
    if h.kind == "tsallis":
        q = float(h.param)
        return (1.0 - np.sum(np.power(mu, q), axis=-1)) / (q - 1.0)
    raise AssertionError(h.kind)


def h_eval(h: HFunction, rho_a: DensityMatrix) -> float:
    """Value of ``h`` on a single-factor state, from its spectrum."""
    return float(h_of_spectrum(h, rho_a.eigenvalues()))


def _bipartite(dims: Dims, what: str) -> tuple[int, int]:
    if len(dims.factors) != 2:
        raise DimensionMismatchError(f"{what} requires a bipartite state")
    return dims.factors


def pure_measure_stack(h: HFunction, amps: np.ndarray, dims: Dims) -> np.ndarray:
    """``h`` on the A-side reduced states of a ``(..., n)`` stack of pure states.

    Reduced states are ``Tr_B |psi><psi|``; they are validated once, as a
    stack, and their spectra clipped at 0.
    """
    dA, dB = _bipartite(dims, "pure_measure")
    lead = amps.shape[:-1]
    proj = amps[..., :, None] * amps.conj()[..., None, :]
    reduced = np.trace(proj.reshape(lead + (dA, dB, dA, dB)), axis1=-3, axis2=-1)
    mu = np.clip(validate_density_stack(reduced), 0.0, None)
    return _floored(h_of_spectrum(h, mu))


def pure_measure(h: HFunction, psi: PureState) -> MeasureValue:
    """Measure of a bipartite pure state: ``h`` on the reduced state of A."""
    return MeasureValue(float(pure_measure_stack(h, psi.amplitudes, psi.dims)), h.measure_id)


def pt_trace_norms(mats: np.ndarray, dims: Dims) -> np.ndarray:
    """``||rho^{T_A}||_Tr`` for a ``(..., n, n)`` stack of bipartite states."""
    dA, dB = _bipartite(dims, "partial transpose")
    return _trace_norm_stack(_partial_transpose_array(mats, dA, dB, "A"))


def negativity_of_norms(norms: np.ndarray) -> np.ndarray:
    """Negativity ``(||rho^{T_A}||_Tr - 1) / 2`` from the trace norms."""
    return _floored((norms - 1.0) / 2.0)


def log_negativity_of_norms(norms: np.ndarray) -> np.ndarray:
    """Logarithmic negativity ``log2 ||rho^{T_A}||_Tr`` from the trace norms."""
    return _floored(_elementwise(math.log2, norms))


def negativity(rho: DensityMatrix) -> MeasureValue:
    """(||rho^{T_A}||_Tr - 1) / 2.  Zero exactly on PPT states."""
    val = negativity_of_norms(pt_trace_norms(rho.matrix, rho.dims))
    return MeasureValue(float(val), "negativity")


def log_negativity(rho: DensityMatrix) -> MeasureValue:
    """log2 of the trace norm of the partial transpose.

    Equals log2(1 + 2N), hence 0 exactly on PPT states and always finite;
    this is the cited trace-norm form of the logarithmic negativity.
    """
    val = log_negativity_of_norms(pt_trace_norms(rho.matrix, rho.dims))
    return MeasureValue(float(val), "log-negativity")


_SY_SY = np.kron(
    np.array([[0.0, -1.0j], [1.0j, 0.0]]), np.array([[0.0, -1.0j], [1.0j, 0.0]])
)


def wootters_concurrence_stack(mats: np.ndarray) -> np.ndarray:
    """Two-qubit concurrences of a ``(..., 4, 4)`` stack of density matrices.

    C = max(0, s1 - s2 - s3 - s4) with s_i the decreasing square roots of
    the eigenvalues of rho (sy x sy) rho* (sy x sy).  These equal the
    singular values of sqrt(rho) (sy x sy) conj(sqrt(rho)), which is the
    numerically stable way to get them (the raw product matrix is
    non-normal and its tiny eigenvalues lose half the working precision).
    """
    vals, vecs = np.linalg.eigh(mats)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    s = np.linalg.svd(root @ _SY_SY @ root.conj(), compute_uv=False)
    c = np.subtract.reduce(s, axis=-1)  # s1 - s2 - s3 - s4, left to right
    return np.where(c > 0.0, c, 0.0)


def _two_qubit(rho: DensityMatrix) -> np.ndarray:
    if rho.dims.factors != (2, 2):
        raise DimensionMismatchError("Wootters concurrence is defined for 2x2 systems")
    return rho.matrix


def wootters_concurrence(rho: DensityMatrix) -> float:
    """Two-qubit concurrence; see ``wootters_concurrence_stack``."""
    return float(wootters_concurrence_stack(_two_qubit(rho)))


def _binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)


def _eof_of_concurrence(c: float) -> float:
    return _binary_entropy((1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / 2.0)


def wootters_eof_stack(mats: np.ndarray) -> np.ndarray:
    """Two-qubit entanglement of formation in nats, for a ``(..., 4, 4)`` stack.

    E_f = H2((1 + sqrt(1 - C^2)) / 2) with C the Wootters concurrence.
    """
    return _elementwise(_eof_of_concurrence, wootters_concurrence_stack(mats))


def wootters_eof(rho: DensityMatrix) -> float:
    """Two-qubit entanglement of formation in nats; see ``wootters_eof_stack``."""
    return float(wootters_eof_stack(_two_qubit(rho)))
