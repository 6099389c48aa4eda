"""One-sided local Kraus families and their outcome ensembles.

A channel here is a finite family {M_k} acting on one side of a bipartite
system with sum_k M_k^dag M_k = I.  Applying it to a state produces the
outcome ensemble (p_k, sigma_k) with p_k = Tr[(I x M_k) rho (I x M_k)^dag];
such families map pure states to scalar multiples of pure states, which is
the scenario all monotonicity checks run against.

One kernel, ``_outcome_stack``, builds the outcomes of N states under K
Kraus operators as a ``(N, K, n, n)`` stack in a few batched matrix
products and validates the kept outcomes once, as one stack;
``apply_channel`` is its N = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sampling import haar_unitary
from .states import (
    DensityMatrix,
    DimensionMismatchError,
    PureState,
    _trusted_density,
    validate_density_stack,
)

COMPLETENESS_TOL = 1e-8
PROPORTIONALITY_TOL = 1e-8
P_FLOOR = 1e-12

TAG_LOCAL_UNITARY = "local-unitary"
TAG_UNITARY_MIXTURE = "mixture-of-local-unitaries"
TAG_GENERAL = "general"


class ChannelValidationError(ValueError):
    """Kraus family violates completeness or shape requirements."""


@dataclass(frozen=True)
class LocalKrausChannel:
    """Kraus family {M_k} acting on one subsystem of a bipartite state."""

    side: str
    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.side not in ("A", "B"):
            raise ChannelValidationError(f"side must be 'A' or 'B', got {self.side!r}")
        if not self.kraus:
            raise ChannelValidationError("at least one Kraus operator is required")
        ms = tuple(np.asarray(m, dtype=np.complex128) for m in self.kraus)
        d = ms[0].shape[0]
        for m in ms:
            if m.shape != (d, d):
                raise ChannelValidationError("all Kraus operators must be square and equal-sized")
        total = sum(m.conj().T @ m for m in ms)
        residual = float(np.linalg.norm(total - np.eye(d)))
        if residual > COMPLETENESS_TOL:
            raise ChannelValidationError(
                f"completeness residual {residual} exceeds {COMPLETENESS_TOL}"
            )
        object.__setattr__(self, "kraus", ms)

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]


@dataclass(frozen=True)
class OutcomeEnsemble:
    """Probabilities and post-measurement states of one channel application."""

    outcomes: tuple[tuple[float, DensityMatrix], ...]

    def __post_init__(self):
        total = sum(p for p, _ in self.outcomes)
        if abs(total - 1.0) > 1e-9:
            raise ChannelValidationError(f"outcome probabilities sum to {total}")

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([p for p, _ in self.outcomes])

    @property
    def states(self) -> tuple[DensityMatrix, ...]:
        return tuple(s for _, s in self.outcomes)

    def average_state(self) -> DensityMatrix:
        m = sum(p * s.matrix for p, s in self.outcomes)
        return DensityMatrix(m, self.outcomes[0][1].dims)


@dataclass(frozen=True)
class ChannelClass:
    """Classification tag plus per-Kraus proportionality constants when known."""

    tag: str
    details: dict = field(default_factory=dict)


def _embed(channel: LocalKrausChannel, m: np.ndarray, dims) -> np.ndarray:
    """M x I or I x M as a full operator.

    Built by applying ``m`` to the reshaped identity: the entries equal
    ``np.kron``'s, at a fraction of its cost on these small sizes.
    """
    dA, dB = dims.factors
    eye = np.eye(dA * dB)
    if channel.side == "A":
        if channel.dim != dA:
            raise DimensionMismatchError("channel dimension does not match side A")
        return (m @ eye.reshape(dA, -1)).reshape(eye.shape)
    if channel.dim != dB:
        raise DimensionMismatchError("channel dimension does not match side B")
    return (m @ eye.reshape(dA, dB, -1)).reshape(eye.shape)


def _outcome_stack(
    channel: LocalKrausChannel, mats: np.ndarray, dims
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outcome ensembles of the channel on a ``(N, n, n)`` stack of states.

    Returns ``(probs, keep, states)``: ``probs`` is ``(N, K)``, each row
    renormalized over the outcomes kept (``keep``, those with probability
    at least ``P_FLOOR``) and 0 elsewhere; ``states`` holds the kept
    outcome states, row by row in Kraus order, as one ``(M, n, n)`` stack
    that has passed ``validate_density_stack``.
    """
    if len(dims.factors) != 2:
        raise DimensionMismatchError("channels act on bipartite states")
    ops = np.stack([_embed(channel, m, dims) for m in channel.kraus])
    vals, vecs = np.linalg.eigh(mats)
    root = vecs * np.sqrt(np.maximum(vals, 0.0))[:, None, :]
    b = ops @ root[:, None]
    x = b @ b.conj().swapaxes(-1, -2)
    p = x.trace(axis1=-2, axis2=-1).real
    keep = p >= P_FLOOR
    kept_p = np.where(keep, p, 0.0)
    total = np.zeros(len(mats))
    for k in range(len(ops)):  # in Kraus order, as a running sum rounds
        total += kept_p[:, k]
    states = x[keep] / p[keep][:, None, None]
    states = 0.5 * (states + states.conj().swapaxes(-1, -2))
    validate_density_stack(states)
    return kept_p / total[:, None], keep, states


def apply_channel(channel: LocalKrausChannel, rho: DensityMatrix) -> OutcomeEnsemble:
    """Outcome ensemble of the channel on ``rho``.

    Outcomes with probability below ``P_FLOOR`` are dropped and the rest
    renormalized; the bias is far below every verification tolerance.

    Each unnormalized outcome is the Gram matrix ``B B^dag`` with
    ``B = (I x M_k) F`` for a square-root factor ``F F^dag = rho``, so it is
    PSD by construction even when ``p_k`` is tiny and dividing by it would
    amplify the cancellation roundoff of ``(I x M_k) rho (I x M_k)^dag``.
    """
    probs, keep, states = _outcome_stack(channel, rho.matrix[None], rho.dims)
    return OutcomeEnsemble(tuple(
        (float(p), _trusted_density(s, rho.dims)) for p, s in zip(probs[keep], states)
    ))


def apply_channel_to_pure(
    channel: LocalKrausChannel, psi: PureState
) -> list[tuple[float, PureState]]:
    """Pure-state fast path: each outcome is (I x M_k)|psi> renormalized."""
    if len(psi.dims.factors) != 2:
        raise DimensionMismatchError("channels act on bipartite states")
    raw: list[tuple[float, np.ndarray]] = []
    for m in channel.kraus:
        op = _embed(channel, m, psi.dims)
        v = op @ psi.amplitudes
        p = float(np.real(np.vdot(v, v)))
        if p >= P_FLOOR:
            raw.append((p, v / np.sqrt(p)))
    total = sum(p for p, _ in raw)
    return [(p / total, PureState(v, psi.dims)) for p, v in raw]


def _proportional(m1: np.ndarray, m2: np.ndarray, tol: float) -> bool:
    denom = float(np.vdot(m1, m1).real)
    if denom <= tol * tol:
        return False
    z = np.vdot(m1, m2) / denom
    return float(np.linalg.norm(m2 - z * m1)) <= tol


def classify(channel: LocalKrausChannel) -> ChannelClass:
    """Classify a channel as local-unitary, a unitary mixture, or general.

    Each M_k with M_k^dag M_k = c_k I (within tolerance, c_k > 0) is a
    scaled unitary; if every operator passes, the channel is a convex
    mixture of local unitaries with weights c_k.  A single effective
    operator (one outcome, or all operators pairwise proportional) is a
    plain local unitary.
    """
    d = channel.dim
    constants = []
    for m in channel.kraus:
        g = m.conj().T @ m
        c = float(np.real(np.trace(g))) / d
        if c <= 0.0 or float(np.linalg.norm(g - c * np.eye(d))) > PROPORTIONALITY_TOL:
            return ChannelClass(TAG_GENERAL)
        constants.append(c)
    if len(channel.kraus) == 1:
        return ChannelClass(TAG_LOCAL_UNITARY, {"weights": constants})
    first = channel.kraus[0]
    if all(_proportional(first, m, PROPORTIONALITY_TOL) for m in channel.kraus[1:]):
        return ChannelClass(TAG_LOCAL_UNITARY, {"weights": constants})
    return ChannelClass(TAG_UNITARY_MIXTURE, {"weights": constants})


def random_channel(
    d: int, n_kraus: int, rng: np.random.Generator, side: str = "B"
) -> LocalKrausChannel:
    """Random Kraus family from the column blocks of a Haar unitary.

    The first d columns of a Haar-random (n_kraus*d) x (n_kraus*d) unitary
    form an exact isometry; its d x d blocks satisfy completeness to
    machine precision.  For n_kraus >= 2 the result is general (not a
    unitary mixture) outside a measure-zero set.
    """
    if n_kraus < 1:
        raise ValueError("n_kraus must be at least 1")
    u = haar_unitary(n_kraus * d, rng)
    v = u[:, :d]
    kraus = tuple(v[k * d : (k + 1) * d, :].copy() for k in range(n_kraus))
    return LocalKrausChannel(side, kraus)


def unitary_mixture_channel(
    weights, unitaries, side: str = "B"
) -> LocalKrausChannel:
    """Channel with Kraus operators sqrt(w_k) U_k."""
    w = np.asarray(weights, dtype=float)
    if abs(float(np.sum(w)) - 1.0) > 1e-10 or np.any(w < 0.0):
        raise ChannelValidationError("weights must be nonnegative and sum to 1")
    if len(w) != len(unitaries):
        raise ChannelValidationError("weights and unitaries must have equal length")
    kraus = []
    for wk, u in zip(w, unitaries):
        u = np.asarray(u, dtype=np.complex128)
        d = u.shape[0]
        if u.shape != (d, d) or float(np.linalg.norm(u.conj().T @ u - np.eye(d))) > 1e-10:
            raise ChannelValidationError("all operators must be unitary within 1e-10")
        if wk > 1e-15:
            kraus.append(np.sqrt(wk) * u)
    return LocalKrausChannel(side, tuple(kraus))
