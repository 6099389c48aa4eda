"""Core state types and dense linear algebra for small multipartite systems.

Everything operates on plain ``numpy`` arrays wrapped in thin frozen
dataclasses that carry subsystem dimensions and validate their defining
invariants on construction.  The index convention is row-major Kronecker
order: subsystem A is the left (slow) factor, so the composite basis index
is ``a * dB * dC + b * dC + c``.  ``np.kron`` follows this convention.

All entropic quantities are in nats (natural log) unless stated otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Library-wide tolerances.  Double-precision eigensolvers on dimensions up
# to ~64 comfortably reach these.
TOL_TRACE = 1e-10
TOL_HERM = 1e-10
TOL_PSD = 1e-9
TOL_SUPPORT = 1e-12  # eigenvalues at most this are a state's kernel directions
# The trace of |psi><psi| is the squared norm, which deviates from 1 by about
# twice as much as the norm does.  A quarter of the trace tolerance leaves
# the other half for roundoff, so every accepted PureState has a valid
# density().
TOL_NORM = TOL_TRACE / 4
PURITY_TOL = 1e-10  # a state is pure when its largest eigenvalue is at least 1 minus this

_LABELS = "ABC"


def _is_count(value, least: int = 1) -> bool:
    """Whether ``value`` is an integer (Python or numpy, not bool) of at least ``least``."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer)) and value >= least


class DimensionMismatchError(ValueError):
    """Array shape or subsystem label inconsistent with the declared dims."""


class StateValidationError(ValueError):
    """Input violates a state invariant (norm, hermiticity, positivity, trace)."""


@dataclass(frozen=True, init=False)
class Dims:
    """Subsystem dimensions of a composite Hilbert space: ``Dims(dA)``,
    ``Dims(dA, dB)`` or ``Dims(dA, dB, dC)``.

    Factors are ordered A, B, C with A the slowest index.  They are checked
    once, on construction, and stored as the ``factors`` tuple of Python ints;
    ``dB`` and ``dC`` are None where the factor is absent.
    """

    factors: tuple[int, ...]

    def __init__(self, *factors: int):
        if not 1 <= len(factors) <= 3:
            raise DimensionMismatchError("supported systems have 1 to 3 factors")
        for d in factors:
            if not _is_count(d):
                raise DimensionMismatchError(f"dimensions must be positive integers, got {d!r}")
        object.__setattr__(self, "factors", tuple(int(d) for d in factors))
        object.__setattr__(self, "total", math.prod(self.factors))

    dA = property(lambda self: self.factors[0])
    dB = property(lambda self: self.factors[1] if len(self.factors) > 1 else None)
    dC = property(lambda self: self.factors[2] if len(self.factors) > 2 else None)

    @property
    def labels(self) -> str:
        return _LABELS[: len(self.factors)]

    def axis(self, label: str) -> int:
        """Index of the factor named by ``label`` ('A', 'B' or 'C')."""
        i = _LABELS.find(label)
        if i < 0 or i >= len(self.factors):
            raise DimensionMismatchError(f"no subsystem {label!r} in a {self.labels} system")
        return i

    def bipartite(self, what: str) -> tuple[int, int]:
        """``(dA, dB)``: the one check that ``what`` acts on a two-factor system."""
        if len(self.factors) != 2:
            raise DimensionMismatchError(f"{what} requires a bipartite state")
        return self.factors


# Peres-Horodecki: a bipartite state with a positive partial transpose is
# separable exactly when dA * dB is at most this.
PPT_SEPARABLE_TOTAL = 6


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector with its subsystem dimensions."""

    amplitudes: np.ndarray
    dims: Dims

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size != self.dims.total:
            raise DimensionMismatchError(
                f"amplitude vector of length {amps.size} does not match dims {self.dims.factors}"
            )
        validate_pure_stack(amps)
        object.__setattr__(self, "amplitudes", amps)

    def __eq__(self, other):
        return (isinstance(other, PureState) and self.dims == other.dims
                and np.array_equal(self.amplitudes, other.amplitudes))

    def density(self) -> "DensityMatrix":
        """Projector |psi><psi| as a DensityMatrix."""
        return DensityMatrix(projector_stack(self.amplitudes), self.dims)


def projector_stack(amps: np.ndarray) -> np.ndarray:
    """|psi><psi| for every vector of a ``(..., n)`` stack of amplitudes."""
    return amps[..., :, None] * amps.conj()[..., None, :]


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix with its subsystem dimensions."""

    matrix: np.ndarray
    dims: Dims

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.complex128)
        n = self.dims.total
        if mat.shape != (n, n):
            raise DimensionMismatchError(
                f"matrix of shape {mat.shape} does not match dims {self.dims.factors}"
            )
        validate_density_stack(mat)
        object.__setattr__(self, "matrix", mat)

    def __eq__(self, other):
        return (isinstance(other, DensityMatrix) and self.dims == other.dims
                and np.array_equal(self.matrix, other.matrix))

    def eigenvalues(self) -> np.ndarray:
        """Ascending real spectrum, roundoff negatives clipped to 0."""
        return _check_spectra(np.linalg.eigvalsh(self.matrix))

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def is_pure(self, tol: float = PURITY_TOL) -> bool:
        """Whether the largest eigenvalue is at least 1 - ``tol``."""
        return bool(1.0 - self.eigenvalues()[-1] <= tol)


@dataclass(frozen=True)
class SchmidtForm:
    """Schmidt decomposition of a bipartite pure state.

    ``coefficients`` are nonincreasing and nonnegative with squares summing
    to 1; ``left_vectors``/``right_vectors`` hold the orthonormal Schmidt
    bases as columns.
    """

    coefficients: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Sum_i lambda_i |i_a>|i_b> as a flat amplitude vector."""
        out = np.zeros(self.left_vectors.shape[0] * self.right_vectors.shape[0], dtype=complex)
        for lam, u, v in zip(self.coefficients, self.left_vectors.T, self.right_vectors.T):
            out += lam * np.kron(u, v)
        return out


def _first(values: np.ndarray, mask: np.ndarray):
    return np.ravel(values)[np.flatnonzero(mask)[0]]


def _norms(amps: np.ndarray) -> np.ndarray:
    """The norm of each vector of a ``(..., n)`` stack with the bits of
    ``np.linalg.norm``: one BLAS dot product per part, as a ``matmul`` of rows
    makes it.  Other batched norms (an axis argument, einsum) differ in the last bit."""
    re, im = amps.real[..., None, :], amps.imag[..., None, :]
    return np.sqrt(re @ amps.real[..., :, None] + im @ amps.imag[..., :, None])[..., 0, 0]


def validate_pure_stack(amps: np.ndarray) -> None:
    """Check each vector of a ``(..., n)`` stack: finite, norm 1 within ``TOL_NORM``; the
    first offender raises ``StateValidationError``.  Its projector is a state by construction."""
    if not np.isfinite(amps).all():
        raise StateValidationError("amplitudes contains non-finite entries")
    nrm = _norms(amps)
    off = np.abs(nrm - 1.0) > TOL_NORM
    if off.any():
        raise StateValidationError(
            f"state norm {_first(nrm, off)} deviates from 1 beyond {TOL_NORM}")


def validate_density_stack(mats: np.ndarray) -> np.ndarray:
    """Check every member of a ``(..., n, n)`` stack of density matrices.

    Each member must be Hermitian within ``TOL_HERM``, have unit trace
    within ``TOL_TRACE`` and no eigenvalue below ``-TOL_PSD``; the first
    offending member raises ``StateValidationError``.  Returns the
    ascending spectra ``(..., n)``, clipped at 0 (``_check_spectra``).
    """
    _check_hermitian_unit_trace(mats)
    return _check_spectra(np.linalg.eigvalsh(mats))


def _check_hermitian_unit_trace(mats: np.ndarray) -> None:
    if not np.isfinite(mats).all():
        raise StateValidationError("matrix contains non-finite entries")
    if mats.shape[-1] > 1:
        dev = np.abs(mats - mats.swapaxes(-1, -2).conj())
        if dev.max() > TOL_HERM:
            dev = dev.max(axis=(-2, -1))
            raise StateValidationError(
                f"hermiticity deviation {_first(dev, dev > TOL_HERM)} exceeds {TOL_HERM}"
            )
    tr = mats.trace(axis1=-2, axis2=-1)
    off = np.abs(tr - 1.0)
    if off.max() > TOL_TRACE:
        raise StateValidationError(
            f"trace {complex(_first(tr, off > TOL_TRACE))} deviates from 1 beyond {TOL_TRACE}"
        )


def _check_spectra(vals: np.ndarray) -> np.ndarray:
    """Ascending spectra ``(..., n)`` of a stack, possibly empty, clipped at
    0.  Values in ``[-TOL_PSD, 0)`` are roundoff; a lower one raises, since
    it marks an input that is not PSD."""
    low = vals[..., 0] < -TOL_PSD
    if low.any():
        raise StateValidationError(
            f"negative eigenvalue {_first(vals[..., 0], low)} below -{TOL_PSD}"
        )
    return np.clip(vals, 0.0, None)


def _trusted_density(mat: np.ndarray, dims: Dims) -> DensityMatrix:
    """A DensityMatrix around a member of a stack already validated by
    ``validate_density_stack``, without checking it a second time."""
    rho = object.__new__(DensityMatrix)
    object.__setattr__(rho, "matrix", mat)
    object.__setattr__(rho, "dims", dims)
    return rho


def partial_trace(rho: DensityMatrix, keep: str) -> DensityMatrix:
    """Trace out every subsystem not named in ``keep``.

    Parameters
    ----------
    rho : DensityMatrix
        State on 1 to 3 factors.
    keep : str
        Labels of the factors to keep, e.g. ``"A"``, ``"B"`` or ``"AC"``.
        Order is normalized to A, B, C.

    Returns
    -------
    DensityMatrix
        Reduced state on the kept factors, in their original order.
    """
    factors = rho.dims.factors
    n = len(factors)
    if not keep or len(set(keep)) != len(keep):
        raise DimensionMismatchError(f"invalid keep specification {keep!r}")
    keep_axes = sorted(rho.dims.axis(ch) for ch in keep)
    t = rho.matrix.reshape(factors + factors)
    nleft = n
    for ax in reversed([i for i in range(n) if i not in keep_axes]):
        t = np.trace(t, axis1=ax, axis2=ax + nleft)
        nleft -= 1
    kept = tuple(factors[i] for i in keep_axes)
    d = int(np.prod(kept))
    return DensityMatrix(t.reshape(d, d), Dims(*kept))


def _partial_transpose_array(mat: np.ndarray, dA: int, dB: int, side: str) -> np.ndarray:
    """Partial transpose of every member of a ``(..., n, n)`` stack."""
    lead = mat.shape[:-2]
    k = len(lead)
    t = mat.reshape(lead + (dA, dB, dA, dB))
    if side == "A":
        order = (k + 2, k + 1, k, k + 3)
    elif side == "B":
        order = (k, k + 3, k + 2, k + 1)
    else:
        raise DimensionMismatchError(f"side must be 'A' or 'B', got {side!r}")
    return t.transpose(tuple(range(k)) + order).reshape(lead + (dA * dB, dA * dB))


def partial_transpose(
    rho: DensityMatrix | np.ndarray, side: str = "A", dims: Dims | None = None
) -> np.ndarray:
    """Transpose the chosen factor's indices of a bipartite operator.

    Returns a Hermitian, trace-preserving ``ndarray`` (generally not PSD).
    Applying the map twice returns the original entries exactly: the
    operation is a pure permutation of matrix elements.  Raw Hermitian
    arrays are accepted alongside ``DensityMatrix`` inputs when ``dims``
    is supplied, since a partial transpose is usually not a valid state.
    A ``DensityMatrix`` is transposed across its own dims; any other
    ``dims`` raises ``DimensionMismatchError``.
    """
    if isinstance(rho, DensityMatrix):
        if dims is not None and dims != rho.dims:
            raise DimensionMismatchError(
                f"dims {dims.factors} differ from the state's dims {rho.dims.factors}")
        mat, dims = rho.matrix, rho.dims
    else:
        if dims is None:
            raise DimensionMismatchError("dims are required for raw array inputs")
        mat = np.asarray(rho, dtype=complex)
    dA, dB = dims.bipartite("partial transpose")
    if mat.shape[-2:] != (dims.total, dims.total):
        raise DimensionMismatchError(
            f"matrix of shape {mat.shape} does not match dims {dims.factors}")
    return _partial_transpose_array(mat, dA, dB, side)


def schmidt_decompose(psi: PureState) -> SchmidtForm:
    """Schmidt form of a bipartite pure state via SVD of its amplitude matrix."""
    dA, dB = psi.dims.bipartite("Schmidt decomposition")
    m = psi.amplitudes.reshape(dA, dB)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    # psi_ab = sum_i s_i u[:, i] vh[i, :], so the right Schmidt vectors are
    # the rows of vh, unconjugated.
    return SchmidtForm(coefficients=s, left_vectors=u, right_vectors=vh.T)


def trace_norm(m: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError("trace_norm expects a square matrix")
    if not np.isfinite(m).all():
        raise StateValidationError("trace_norm expects finite entries")
    if float(np.max(np.abs(m - m.conj().T))) > 1e-8:
        raise StateValidationError("trace_norm expects a Hermitian matrix")
    return float(np.sum(np.abs(np.linalg.eigvalsh(m))))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-sum mu ln mu over the spectrum, with 0 ln 0 := 0.  In nats."""
    return entropy_of_spectrum(rho.eigenvalues())


def entropy_of_spectrum(mu: np.ndarray) -> float:
    mu = np.asarray(mu, dtype=float)
    pos = mu[mu > 0.0]
    return max(0.0, float(-np.sum(pos * np.log(pos))))


def _rel_entropy_psd(x: np.ndarray, y: np.ndarray) -> float:
    """Tr[X(ln X - ln Y)] for PSD matrices, inf when supp X exceeds supp Y:
    the one-pair case of ``_rel_entropy_stack``."""
    yv, yu = np.linalg.eigh(y)
    return float(_rel_entropy_stack(x[None], yv[None], yu[None])[0])


def _rel_entropy_stack(x: np.ndarray, yv: np.ndarray, yu: np.ndarray) -> np.ndarray:
    """Tr[X(ln X - ln Y)] of each X of a ``(M, n, n)`` stack of PSD matrices
    and its Y, given by the eigensystem ``(yv, yu)`` of ``np.linalg.eigh``;
    inf when supp X exceeds supp Y.

    Works on unnormalized operators; both log terms are evaluated in the
    respective eigenbases with eigenvalues at most ``TOL_SUPPORT`` treated
    as kernel directions.  Each sum runs over one member's support, as one
    call on that member alone rounds (``_tail_sums``).
    """
    xv = _check_spectra(np.linalg.eigvalsh(x))
    pos = xv > TOL_SUPPORT
    tr_x_ln_x = _tail_sums(xv * np.log(np.where(pos, xv, 1.0)), pos)
    yv = np.clip(yv, 0.0, None)
    weights = np.real(np.einsum("bij,bjk,bki->bi", yu.conj().swapaxes(-1, -2), x, yu))
    weights = np.clip(weights, 0.0, None)
    supp = yv > TOL_SUPPORT
    out = tr_x_ln_x - _tail_sums(weights * np.log(np.where(supp, yv, 1.0)), supp)
    out[np.sum(np.where(supp, 0.0, weights), axis=-1) > 1e-10] = math.inf
    return out


def _tail_sums(terms: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Per row of ``(M, n)`` ``terms``, the ``np.sum`` of the terms that
    ``keep`` marks, a tail of the row (ascending spectra above a floor).
    From 8 terms numpy sums pairwise, so a zero-filled row would round
    unlike the tail alone; rows of one tail length are summed together."""
    start = terms.shape[-1] - keep.sum(axis=-1)
    out = np.empty(len(terms))
    for j in set(start.tolist()):
        rows = start == j
        out[rows] = np.sum(terms[rows, j:], axis=-1)
    return out


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Quantum relative entropy Tr[rho(ln rho - ln sigma)] in nats.

    Returns ``math.inf`` when the support of ``rho`` is not contained in the
    support of ``sigma``.  The value is clamped at 0 from below, which only
    absorbs roundoff at the 1e-15 level.
    """
    if rho.dims.factors != sigma.dims.factors:
        raise DimensionMismatchError("relative entropy requires matching dims")
    val = _rel_entropy_psd(rho.matrix, sigma.matrix)
    if math.isinf(val):
        return val
    return max(0.0, val)


# Standard reference states, used throughout tests and demos.

def max_entangled(d: int) -> PureState:
    """(1/sqrt(d)) sum_i |ii> on a d x d system."""
    amps = np.zeros(d * d, dtype=complex)
    for i in range(d):
        amps[i * d + i] = 1.0
    return PureState(amps / math.sqrt(d), Dims(d, d))


def bell_state() -> PureState:
    """(|00> + |11>)/sqrt(2)."""
    return max_entangled(2)


def werner_state(p: float) -> DensityMatrix:
    """p |Phi+><Phi+| + (1-p) I/4 on two qubits, -1/3 <= p <= 1."""
    if not -1.0 / 3.0 <= p <= 1.0:
        raise ValueError("Werner parameter must lie in [-1/3, 1]")
    phi = bell_state().density().matrix
    return DensityMatrix(p * phi + (1.0 - p) * np.eye(4) / 4.0, Dims(2, 2))


def product_pure(psi_a: np.ndarray, psi_b: np.ndarray) -> PureState:
    a = np.asarray(psi_a, dtype=complex)
    b = np.asarray(psi_b, dtype=complex)
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    return PureState(np.kron(a, b), Dims(a.size, b.size))
