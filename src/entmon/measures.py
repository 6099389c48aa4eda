"""Entanglement measures: reduced-state h-functions and closed forms.

Every pure-state measure here is a unitarily invariant, strictly concave
function h of the reduced state's spectrum: ``h_of_spectrum`` defines each
h kind, exact and smoothed, and ``h_partials`` its derivatives.  Mixed-state
closed forms cover negativity, logarithmic negativity, and the two-qubit
Wootters concurrence / entanglement of formation.

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
)

H_KINDS = ("entropy", "concurrence", "g-concurrence", "tangle", "negativity", "renyi", "tsallis")


@dataclass(frozen=True)
class HFunction:
    """Concave spectral function on reduced states defining a pure-state measure.

    ``renyi`` takes an order ``alpha`` in (0, 1] (alpha = 1 reduces to the
    entropy); ``tsallis`` takes a finite ``q > 0``, ``q != 1``.  The other
    kinds are parameter-free.
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
            if self.param is None or not 0.0 < self.param < math.inf or self.param == 1.0:
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
        object.__setattr__(self, "value", float(_floored(np.float64(self.value))))

    def __float__(self) -> float:
        return self.value


# Spectral weights below this floor are treated as exact zeros.  Several h
# kinds amplify roundoff hard (sqrt for the negativity function, mu^alpha
# for small Renyi orders), so without a floor a numerically pure state
# would not evaluate to 0.
SPECTRUM_FLOOR = 1e-13


def h_of_spectrum(h: HFunction, mu: np.ndarray, eps: float = 0.0) -> np.ndarray:
    """``h`` on (..., d) spectra ``mu`` of nonnegative weights; h_eps for ``eps`` > 0.

    At ``eps`` = 0, floored weights are renormalized so a numerically pure
    spectrum maps to exactly zero even for the roundoff-amplifying kinds
    (sqrt, small powers).  The kinked kinds take forms that are smooth for
    eps > 0 (Nesterov, Math. Program. 103, 127 (2005)) and h at eps = 0:

    - concurrence: sqrt(s + eps^2) - eps with s = 2 (1 - sum mu^2), taken
      as 4 sum_{j<k} mu_j mu_k, which does not cancel near products;
    - negativity: sum over pairs j < k of sqrt(mu_j mu_k + eps^2) - eps;
    - G-concurrence, Renyi and Tsallis: every mu^a becomes
      f(mu) = (mu + eps)^a - eps^a; for Renyi and Tsallis the power sum
      is divided by f(1), so that product spectra still read 0.

    Without weights in (0, ``SPECTRUM_FLOOR``), 0 <= h_eps <= h to roundoff
    and h_eps -> h as eps -> 0; the entropy and the tangle ignore ``eps``.
    """
    mu = np.asarray(mu, dtype=float)
    if h.kind == "g-concurrence" and mu.shape[-1] == 1:
        raise ValueError("the G-concurrence is not defined on a factor of dimension 1")
    if eps == 0.0:
        mu = np.where(mu < SPECTRUM_FLOOR, 0.0, mu)
        total = np.sum(mu, axis=-1, keepdims=True)
        mu = mu / np.where(total > 0.0, total, 1.0)
    d = mu.shape[-1]
    if h.kind == "entropy" or (h.kind == "renyi" and h.param == 1.0):
        safe = np.where(mu > 0.0, mu, 1.0)
        return -np.sum(mu * np.log(safe), axis=-1)
    if h.kind == "tangle":
        return np.clip(2.0 * (1.0 - np.sum(mu * mu, axis=-1)), 0.0, None)
    if h.kind == "concurrence":
        s = 4.0 * np.sum(mu[..., 1:] * np.cumsum(mu[..., :-1], axis=-1), axis=-1)
        return np.sqrt(s + eps * eps) - eps
    if h.kind == "negativity":
        root = np.sqrt(mu[..., :, None] * mu[..., None, :] + eps * eps) - eps
        return 0.5 * np.sum(np.where(np.eye(d, dtype=bool), 0.0, root), axis=(-2, -1))
    a = 1.0 / d if h.kind == "g-concurrence" else float(h.param)
    f = np.power(mu + eps, a) - eps**a
    if h.kind == "g-concurrence":
        return d * np.prod(f, axis=-1)  # exactly 0 on singular spectra at eps = 0
    ratio = np.sum(f, axis=-1) / ((1.0 + eps) ** a - eps**a)
    return np.log(ratio) / (1.0 - a) if h.kind == "renyi" else (ratio - 1.0) / (1.0 - a)


def h_partials(h: HFunction, mu: np.ndarray, eps: float, value: np.ndarray) -> np.ndarray:
    """d_k h_eps at (..., d) weights ``mu`` off the simplex, given ``value``
    = ``h_of_spectrum(h, mu, eps)``; ValueError for a root kind at eps = 0.

    The exact logs and negative powers alone see ``mu`` clipped below at
    ``SPECTRUM_FLOOR``, so they stay finite at zero weights.  The
    concurrence's are those of its form in 2 (1 - sum mu^2), which agree
    with the pairwise form's along every direction of zero sum.
    """
    if eps == 0.0 and h.kind in ("concurrence", "negativity", "g-concurrence"):
        raise ValueError(f"h kind {h.kind!r} has no gradient")
    d = mu.shape[-1]
    if h.kind == "entropy" or (h.kind == "renyi" and h.param == 1.0):
        return -np.log(np.maximum(mu, SPECTRUM_FLOOR)) - 1.0
    if h.kind == "tangle":
        return -4.0 * mu
    if h.kind == "concurrence":
        return -2.0 * mu / (value + eps)[..., None]  # d_k of 2 (1 - sum mu^2)
    if h.kind == "negativity":
        # d_k = sum over j != k of mu_j / (2 sqrt(mu_j mu_k + eps^2)).
        root = np.sqrt(mu[..., :, None] * mu[..., None, :] + eps * eps)
        off = ~np.eye(d, dtype=bool)
        return np.sum(np.where(off, mu[..., :, None] / (2.0 * root), 0.0), axis=-2)
    a = 1.0 / d if h.kind == "g-concurrence" else float(h.param)
    f = np.power(mu + eps, a) - eps**a
    df = a * np.power(mu + eps if eps > 0.0 else np.maximum(mu, SPECTRUM_FLOOR), a - 1.0)
    if h.kind == "g-concurrence":
        off = ~np.eye(d, dtype=bool)
        return d * df * np.prod(np.where(off, f[..., None, :], 1.0), axis=-1)
    norm = np.sum(f, axis=-1, keepdims=True) if h.kind == "renyi" else (1.0 + eps) ** a - eps**a
    return df / ((1.0 - a) * norm)


def h_eval(h: HFunction, rho_a: DensityMatrix) -> float:
    """Value of ``h`` on a single-factor state, from its spectrum."""
    return float(h_of_spectrum(h, rho_a.eigenvalues()))


def pure_measure_stack(h: HFunction, amps: np.ndarray, dims: Dims) -> np.ndarray:
    """``h`` on the reduced states of the smaller factor of a ``(..., n)``
    stack of pure states, whose spectra are the squared singular values
    (Schmidt coefficients) of each ``(dA, dB)`` amplitude matrix.

    The smaller factor's spectrum has no padding zeros, which the
    G-concurrence's d prod mu^(1/d) would read as 0.  A weight mu taken
    from the eigenvalues of the reduced state carries an error of about
    eps, one squared from a singular value about eps sqrt(mu).  So the
    kinds that amplify small weights (G-concurrence, small Renyi orders)
    give two vectors that agree to roundoff values that agree to roundoff.
    """
    dA, dB = dims.bipartite("pure_measure")
    m = amps.reshape(amps.shape[:-1] + (dA, dB))
    sigma = np.linalg.svd(m, compute_uv=False)
    return _floored(h_of_spectrum(h, sigma[..., ::-1] ** 2))  # ascending, as eigvalsh's


def pure_measure(h: HFunction, psi: PureState) -> MeasureValue:
    """Measure of a bipartite pure state: ``h`` on its smaller reduced state."""
    return MeasureValue(float(pure_measure_stack(h, psi.amplitudes, psi.dims)), h.measure_id)


def pt_trace_norms(mats: np.ndarray, dims: Dims) -> np.ndarray:
    """``||rho^{T_A}||_Tr / Tr rho`` for a ``(..., n, n)`` stack of bipartite
    states, both sums over the one spectrum of ``rho^{T_A}``.

    Dividing by the trace, which a valid state holds to ``TOL_TRACE`` only,
    gives at least 1 exactly: each |lambda| >= lambda and rounding is
    monotone.  Both negativities are then >= 0 with no floor to absorb.
    """
    dA, dB = dims.bipartite("partial transpose")
    vals = np.linalg.eigvalsh(_partial_transpose_array(mats, dA, dB, "A"))
    return np.sum(np.abs(vals), axis=-1) / np.sum(vals, axis=-1)


def _two_by_two_minors(m: np.ndarray) -> np.ndarray:
    """The 2x2 minors of a ``(..., dA, dB)`` stack, ``(..., row pairs, column pairs)``."""
    i, j = np.triu_indices(m.shape[-2], 1)
    k, l = np.triu_indices(m.shape[-1], 1)
    i, j = i[:, None], j[:, None]
    return m[..., i, k] * m[..., j, l] - m[..., i, l] * m[..., j, k]


def pure_pt_trace_norms(amps: np.ndarray, dims: Dims) -> np.ndarray:
    """``pt_trace_norms`` of the projectors of a ``(..., n)`` stack of vectors, from their
    Schmidt coefficients sigma (Vidal & Werner, PRA 65, 032314 (2002)): 1 + 2 e2 / sum sigma^2
    >= 1 exactly, e2 = sum_{i<j} sigma_i sigma_j; from the 2x2 minors (Cauchy-Binet) where a
    factor has dimension 2, else from a values-only SVD."""
    m = amps.reshape(amps.shape[:-1] + dims.bipartite("partial transpose"))
    if min(m.shape[-2:]) <= 2:  # a factor of dimension 1 has no minors: e2 = 0
        e2 = np.linalg.norm(_two_by_two_minors(m), axis=(-2, -1))
    else:
        s = np.linalg.svd(m, compute_uv=False)
        e2 = np.sum(s[..., 1:] * np.cumsum(s[..., :-1], axis=-1), axis=-1)
    return 1.0 + 2.0 * e2 / np.sum(amps.real**2 + amps.imag**2, axis=-1)


def negativity_of_norms(norms: np.ndarray) -> np.ndarray:
    """Negativity ``(||rho^{T_A}||_Tr - 1) / 2`` from ``pt_trace_norms``."""
    return _floored((norms - 1.0) / 2.0)


def log_negativity_of_norms(norms: np.ndarray) -> np.ndarray:
    """Logarithmic negativity ``log2 ||rho^{T_A}||_Tr`` from ``pt_trace_norms``."""
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
