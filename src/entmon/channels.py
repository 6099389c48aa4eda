"""One-sided local Kraus families and their outcome ensembles.

A channel here is a finite family {M_k} acting on one side of a bipartite
system with sum_k M_k^dag M_k = I.  Applying it to a state produces the
outcome ensemble (p_k, sigma_k) with p_k = Tr[(I x M_k) rho (I x M_k)^dag];
such families map pure states to scalar multiples of pure states, which is
the scenario all monotonicity checks run against.

One kernel, ``_outcome_stack``, applies Kraus operators to N states at
once, in either input form, and keeps and renormalizes their outcomes by
one rule.  Pure states stay amplitude vectors, mapped to outcome vectors
with no eigendecomposition (``apply_channel_to_pure`` is the N = 1 case).
Density matrices go through the Gram kernel ``_gram_outcomes``, which
builds the ``(N, K, n, n)`` outcomes PSD by construction (``apply_channel``
is the N = 1 case); the REE data-processing check calls it directly.  Each
state may carry its own Kraus family (``_padded_kraus``).

Random channels are drawn in two steps.  A draw (``_draw_channel``,
``_draw_mixture``) takes a channel's Ginibre matrices from the trial's
generator; ``_build_channels`` then builds many draws at once, with one
stacked phase-fixed QR per matrix size and one check of the families
(``_check_families``, which ``LocalKrausChannel`` runs on a stack of one).
``random_channel`` is the one-draw case of ``_build_channels``; stacked
LAPACK calls give each member the bits of its own call.  The Gram stack
that checks a family's completeness also classifies it, once, when the
channel is built; ``classify`` reads that class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sampling import _ginibre, _haar_stack
from .states import (
    DensityMatrix,
    DimensionMismatchError,
    PureState,
    _check_spectra,
    _first,
    _trusted_density,
    validate_density_stack,
)

COMPLETENESS_TOL = 1e-8
PROPORTIONALITY_TOL = 1e-8
P_FLOOR = 1e-12
EIG_REL_FLOOR = 1e-14  # input eigenvalues below this times the largest are roundoff

TAG_LOCAL_UNITARY = "local-unitary"
TAG_UNITARY_MIXTURE = "mixture-of-local-unitaries"
TAG_GENERAL = "general"


class ChannelValidationError(ValueError):
    """Kraus family violates completeness or shape requirements."""


@dataclass(frozen=True)
class ChannelClass:
    """Classification tag plus per-Kraus proportionality constants when known."""

    tag: str
    details: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class LocalKrausChannel:
    """Kraus family {M_k} acting on one subsystem of a bipartite state."""

    side: str
    kraus: tuple[np.ndarray, ...]
    channel_class: ChannelClass = field(init=False, repr=False)

    def __post_init__(self):
        ms = _square_operators(self.kraus)
        cls, = _check_families(self.side, np.stack(ms)[None])
        object.__setattr__(self, "kraus", ms)
        object.__setattr__(self, "channel_class", cls)

    def __eq__(self, other):
        return (isinstance(other, LocalKrausChannel) and self.side == other.side
                and len(self.kraus) == len(other.kraus)
                and all(map(np.array_equal, self.kraus, other.kraus)))

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]


def _square_operators(ops) -> tuple[np.ndarray, ...]:
    """A family's operators as complex arrays, under the one shape rule:
    at least one, each square, all of one size."""
    ms = tuple(np.asarray(m, dtype=np.complex128) for m in ops)
    if not ms:
        raise ChannelValidationError("at least one Kraus operator is required")
    if any(m.ndim != 2 or m.shape != ms[0].shape or m.shape[0] != m.shape[1] for m in ms):
        raise ChannelValidationError("all Kraus operators must be square and equal-sized")
    return ms


def _check_families(side: str, kraus: np.ndarray, live=None) -> list[ChannelClass]:
    """The one check of Kraus families, on a ``(N, K, d, d)`` stack of them
    acting on ``side``: each must be finite and satisfy sum_k M_k^dag M_k = I
    within ``COMPLETENESS_TOL``.  Returns the ``classify`` class of each,
    from the same Gram stack.  ``live``, ``(N, K)``, marks each family's own
    operators; the others are zero padding (default: none)."""
    if side not in ("A", "B"):
        raise ChannelValidationError(f"side must be 'A' or 'B', got {side!r}")
    if not np.isfinite(kraus).all():
        raise ChannelValidationError("Kraus operators contain non-finite entries")
    d = kraus.shape[-1]
    g = kraus.conj().swapaxes(-1, -2) @ kraus
    residual = np.linalg.norm(g.sum(axis=1) - np.eye(d), axis=(-2, -1))
    if residual.max() > COMPLETENESS_TOL:
        raise ChannelValidationError(f"completeness residual "
                                     f"{_first(residual, residual > COMPLETENESS_TOL)} "
                                     f"exceeds {COMPLETENESS_TOL}")
    live = np.ones(kraus.shape[:2], bool) if live is None else live
    c = g.trace(axis1=-2, axis2=-1).real / d
    dev = np.linalg.norm(g - c[..., None, None] * np.eye(d), axis=(-2, -1))
    out = []
    for i, mixture in enumerate(((c > 0.0) & (dev <= PROPORTIONALITY_TOL) | ~live).all(axis=1)):
        if not mixture:
            out.append(ChannelClass(TAG_GENERAL))
            continue
        ops = kraus[i, live[i]]
        single = all(_proportional(ops[0], m, PROPORTIONALITY_TOL) for m in ops[1:])
        out.append(ChannelClass(TAG_LOCAL_UNITARY if single else TAG_UNITARY_MIXTURE,
                                {"weights": c[i, live[i]].tolist()}))
    return out


def _proportional(m1: np.ndarray, m2: np.ndarray, tol: float) -> bool:
    denom = float(np.vdot(m1, m1).real)
    if denom <= tol * tol:
        return False
    z = np.vdot(m1, m2) / denom
    return float(np.linalg.norm(m2 - z * m1)) <= tol


def _trusted_channel(side: str, kraus: tuple, cls: ChannelClass) -> LocalKrausChannel:
    """A LocalKrausChannel around a family that ``_check_families`` passed as ``cls``."""
    channel = object.__new__(LocalKrausChannel)
    object.__setattr__(channel, "side", side)
    object.__setattr__(channel, "kraus", kraus)
    object.__setattr__(channel, "channel_class", cls)
    return channel


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


def _embedded_kraus(kraus: np.ndarray, side: str, dims) -> np.ndarray:
    """Kraus operators ``(..., K, d, d)`` acting on ``side`` as full operators
    M_k x I or I x M_k, ``(..., K, n, n)``.

    Each ``M_k`` is copied into the diagonal blocks of a zero array: the
    entries equal ``np.kron``'s, at a fraction of its cost on these sizes.
    """
    dA, dB = dims.bipartite("a local channel")
    if kraus.shape[-1] != (dA if side == "A" else dB):
        raise DimensionMismatchError(f"channel dimension does not match side {side}")
    lead = kraus.shape[:-2]
    out = np.zeros(lead + (dA, dB, dA, dB), np.complex128)
    if side == "A":
        for j in range(dB):
            out[..., :, j, :, j] = kraus
    else:
        for i in range(dA):
            out[..., i, :, i, :] = kraus
    return out.reshape(*lead, dA * dB, dA * dB)


def _padded_kraus(families) -> np.ndarray:
    """Kraus families of one dimension, each a sequence of ``(d, d)``
    operators, as one ``(N, K, d, d)`` stack, zero-padded to the largest
    family: a zero operator's outcome has probability 0 and the outcome
    kernels drop it."""
    d = families[0][0].shape[-1]
    out = np.zeros((len(families), max(map(len, families)), d, d), np.complex128)
    for i, family in enumerate(families):
        out[i, :len(family)] = family
    return out


def _gram_outcomes(
    kraus: np.ndarray, side: str, mats: np.ndarray, dims
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All K unnormalized outcomes ``(I x M_k) rho (I x M_k)^dag`` of every
    state of a ``(N, n, n)`` stack, as a ``(N, K, n, n)`` stack, and the
    states' eigensystem ``(vals, vecs)`` that built them.

    ``kraus`` is one family ``(K, d, d)`` for every state or one per state,
    ``(N, K, d, d)``, acting on ``side``.  Each outcome is the Gram matrix
    ``B B^dag`` with ``B = (I x M_k) F`` for a square-root factor
    ``F F^dag = rho``, so it is PSD by construction even when its trace p_k
    is tiny and dividing by p_k would amplify the cancellation roundoff of
    the sandwich.  The input spectra are checked for PSD.
    """
    ops = _embedded_kraus(kraus, side, dims)
    vals, vecs = np.linalg.eigh(mats)
    _check_spectra(vals)
    # Roundoff eigenvalues of a pure input (~1e-16, root columns ~1e-8) would
    # leave an outcome of probability ~1e-11 visibly mixed once normalized.
    kept = np.where(vals > EIG_REL_FLOOR * vals[:, -1:], vals, 0.0)
    root = vecs * np.sqrt(kept)[:, None, :]
    b = ops @ root[:, None]
    return b @ b.conj().swapaxes(-1, -2), vals, vecs


def _outcome_stack(
    kraus: np.ndarray, side: str, states: np.ndarray, dims
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outcome ensembles of Kraus families on a stack of states: ``(N, n)``
    amplitudes or ``(N, n, n)`` density matrices.

    ``kraus`` as ``_gram_outcomes`` takes it.  Returns ``(probs, keep,
    outcomes)``: ``probs`` is ``(N, K)``, each row renormalized over the
    outcomes kept (``keep``, those with probability at least ``P_FLOOR``)
    and 0 elsewhere; ``outcomes`` holds the kept outcomes, row by row in
    Kraus order, as one stack of the input's form.  Outcome k of a vector
    psi is ``(I x M_k) psi`` over its norm, a unit vector and so a state
    with no spectrum taken; outcome matrices are the Gram outcomes over
    their traces, passed through ``validate_density_stack``.  Each state's
    outcomes are the same bits whatever else is in the stack.
    """
    if states.ndim == 2:
        x = (_embedded_kraus(kraus, side, dims) @ states[:, None, :, None])[..., 0]
        p = (x.conj()[..., None, :] @ x[..., :, None])[..., 0, 0].real  # rounds as np.vdot does
    else:
        x = _gram_outcomes(kraus, side, states, dims)[0]
        p = x.trace(axis1=-2, axis2=-1).real
    keep = p >= P_FLOOR
    kept_p = np.where(keep, p, 0.0)
    total = kept_p.cumsum(axis=1)[:, -1]  # in Kraus order, as a running sum rounds
    if states.ndim == 2:
        outcomes = x[keep] / np.sqrt(p[keep])[:, None]
    else:
        outcomes = x[keep] / p[keep][:, None, None]
        outcomes = 0.5 * (outcomes + outcomes.conj().swapaxes(-1, -2))
        validate_density_stack(outcomes)
    return kept_p / total[:, None], keep, outcomes


def apply_channel(channel: LocalKrausChannel, rho: DensityMatrix) -> OutcomeEnsemble:
    """Outcome ensemble of the channel on ``rho``.

    Outcomes with probability below ``P_FLOOR`` are dropped and the rest
    renormalized; the bias is far below every verification tolerance.  Each
    outcome state is PSD by construction (``_gram_outcomes``).
    """
    probs, keep, states = _outcome_stack(np.stack(channel.kraus), channel.side,
                                         rho.matrix[None], rho.dims)
    return OutcomeEnsemble(tuple(
        (float(p), _trusted_density(s, rho.dims)) for p, s in zip(probs[keep], states)
    ))


def apply_channel_to_pure(
    channel: LocalKrausChannel, psi: PureState
) -> list[tuple[float, PureState]]:
    """Pure-state fast path: each outcome is (I x M_k)|psi> renormalized.
    The one-state case of ``_outcome_stack``."""
    probs, keep, vectors = _outcome_stack(np.stack(channel.kraus), channel.side,
                                          psi.amplitudes[None], psi.dims)
    return [(float(p), PureState(v, psi.dims)) for p, v in zip(probs[keep], vectors)]


def classify(channel: LocalKrausChannel) -> ChannelClass:
    """Classify a channel as local-unitary, a unitary mixture, or general.

    Each M_k with M_k^dag M_k = c_k I (within tolerance, c_k > 0) is a
    scaled unitary; if every operator passes, the channel is a convex
    mixture of local unitaries with weights c_k.  A single effective
    operator (one outcome, or all operators pairwise proportional) is a
    plain local unitary.  ``_check_families`` classified it when it was built.
    """
    return channel.channel_class


def random_channel(
    d: int, n_kraus: int, rng: np.random.Generator, side: str = "B"
) -> LocalKrausChannel:
    """Random Kraus family from the column blocks of a Haar unitary.

    The first d columns of a Haar-random (n_kraus*d) x (n_kraus*d) unitary
    form an exact isometry; its d x d blocks satisfy completeness to
    machine precision.  For n_kraus >= 2 the result is general (not a
    unitary mixture) outside a measure-zero set.  The one-draw case of
    ``_build_channels``.
    """
    return _build_channels([_draw_channel(d, n_kraus, rng, side)])[0]


def unitary_mixture_channel(
    weights, unitaries, side: str = "B"
) -> LocalKrausChannel:
    """Channel with Kraus operators sqrt(w_k) U_k: the one-channel case of
    ``_unitary_mixtures``."""
    us = _square_operators(unitaries)
    w = np.asarray(weights, dtype=float)
    if len(w) != len(us):
        raise ChannelValidationError("weights and unitaries must have equal length")
    return _unitary_mixtures(w[None], np.stack(us)[None], side)[0]


def _unitary_mixtures(weights: np.ndarray, unitaries: np.ndarray,
                      side: str) -> list[LocalKrausChannel]:
    """The channels sqrt(w_k) U_k of an ``(N, K)`` stack of weights and an
    ``(N, K, d, d)`` stack of unitaries, operators of weight at most 1e-15
    dropped.  Weights, unitarity and completeness are checked once."""
    if not (np.isfinite(weights).all() and np.isfinite(unitaries).all()):
        raise ChannelValidationError("weights and unitaries must be finite")
    if (np.abs(weights.sum(axis=-1) - 1.0) > 1e-10).any() or (weights < 0.0).any():
        raise ChannelValidationError("weights must be nonnegative and sum to 1")
    eye = np.eye(unitaries.shape[-1])
    if (np.linalg.norm(unitaries.conj().swapaxes(-1, -2) @ unitaries - eye,
                       axis=(-2, -1)) > 1e-10).any():
        raise ChannelValidationError("all operators must be unitary within 1e-10")
    keep = weights > 1e-15
    kraus = np.where(keep[..., None, None], np.sqrt(weights)[..., None, None] * unitaries, 0.0)
    return [_trusted_channel(side, tuple(k[kept]), cls)
            for k, kept, cls in zip(kraus, keep, _check_families(side, kraus, keep))]


@dataclass
class _ChannelDraw:
    """The Ginibre draws of one random channel, built with others by
    ``_build_channels``: a general family of K operators from one
    ``(K d, K d)`` matrix, or a mixture of K Haar unitaries from K
    ``weights`` and ``(K, d, d)`` matrices."""

    side: str
    d: int
    ginibre: np.ndarray
    weights: np.ndarray | None = None
    channel: LocalKrausChannel | None = None


def _draw_channel(d: int, n_kraus: int, rng: np.random.Generator, side: str = "B"):
    """``random_channel``'s draw: one Ginibre matrix of side ``n_kraus d``."""
    if n_kraus < 1:
        raise ValueError("n_kraus must be at least 1")
    return _ChannelDraw(side, d, _ginibre(n_kraus * d, n_kraus * d, rng))


def _draw_mixture(d: int, n_unitaries: int, rng: np.random.Generator, side: str = "B"):
    """A mixture's draw: Dirichlet weights, then one d x d Ginibre matrix
    per unitary, as successive ``haar_unitary`` calls draw them."""
    weights = rng.dirichlet(np.ones(n_unitaries))
    z = rng.standard_normal((n_unitaries, 2, d, d))
    return _ChannelDraw(side, d, z[:, 0] + 1j * z[:, 1], weights)


def _build_channels(draws) -> list[LocalKrausChannel]:
    """The channel of each ``_ChannelDraw`` of a list; channels pass as they
    are.  A draw is built once.  The draws of one side, kind and shape are
    one stack for one phase-fixed QR (``_haar_stack``), and the general
    families of one side and dimension are one check (``_padded_kraus``)."""
    groups, general = {}, {}
    for draw in draws:
        if isinstance(draw, _ChannelDraw) and draw.channel is None:
            key = draw.side, draw.d, draw.weights is None, draw.ginibre.shape
            groups.setdefault(key, {})[id(draw)] = draw
    for (side, d, is_general, _), group in groups.items():
        group = list(group.values())
        u = _haar_stack(np.stack([draw.ginibre for draw in group]))
        if is_general:  # the blocks of the first d columns
            kraus = u[..., :d].reshape(len(group), -1, d, d)
            general.setdefault((side, d), []).extend(zip(group, kraus))
            continue
        weights = np.stack([draw.weights for draw in group])
        for draw, channel in zip(group, _unitary_mixtures(weights, u, side)):
            draw.channel = channel
    for (side, _), pairs in general.items():
        built, families = zip(*pairs)
        kraus = _padded_kraus(families)
        live = np.arange(kraus.shape[1]) < np.array([len(k) for k in families])[:, None]
        for draw, k, cls in zip(built, families, _check_families(side, kraus, live)):
            draw.channel = _trusted_channel(side, tuple(k), cls)
    return [draw.channel if isinstance(draw, _ChannelDraw) else draw for draw in draws]
