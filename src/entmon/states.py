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
# The trace of |psi><psi| is the squared norm, which deviates from 1 by about
# twice as much as the norm does.  A quarter of the trace tolerance leaves
# the other half for roundoff, so every accepted PureState has a valid
# density().
TOL_NORM = TOL_TRACE / 4

_LABELS = "ABC"


class DimensionMismatchError(ValueError):
    """Array shape or subsystem label inconsistent with the declared dims."""


class StateValidationError(ValueError):
    """Input violates a state invariant (norm, hermiticity, positivity, trace)."""


@dataclass(frozen=True)
class Dims:
    """Subsystem dimensions of a composite Hilbert space.

    ``dB`` and ``dC`` are optional so reduced single-factor states can carry
    a ``Dims`` too.  Factors are ordered A, B, C with A the slowest index.
    """

    dA: int
    dB: int | None = None
    dC: int | None = None

    def __post_init__(self):
        if self.dB is None and self.dC is not None:
            raise DimensionMismatchError("dC given without dB")
        for d in self.factors:
            if not isinstance(d, (int, np.integer)) or d < 1:
                raise DimensionMismatchError(f"dimensions must be positive integers, got {d!r}")

    @property
    def factors(self) -> tuple[int, ...]:
        out = [self.dA]
        if self.dB is not None:
            out.append(self.dB)
        if self.dC is not None:
            out.append(self.dC)
        return tuple(int(d) for d in out)

    @property
    def total(self) -> int:
        return int(np.prod(self.factors))

    @property
    def labels(self) -> str:
        return _LABELS[: len(self.factors)]

    def axis(self, label: str) -> int:
        """Index of the factor named by ``label`` ('A', 'B' or 'C')."""
        i = _LABELS.find(label)
        if i < 0 or i >= len(self.factors):
            raise DimensionMismatchError(f"no subsystem {label!r} in a {self.labels} system")
        return i

    @staticmethod
    def of(*factors: int) -> "Dims":
        if not 1 <= len(factors) <= 3:
            raise DimensionMismatchError("supported systems have 1 to 3 factors")
        return Dims(*factors)


def _as_complex(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=np.complex128)
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise StateValidationError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class PureState:
    """Normalized state vector with subsystem dimension tags."""

    amplitudes: np.ndarray
    dims: Dims

    def __post_init__(self):
        amps = _as_complex(self.amplitudes, "amplitudes")
        if amps.ndim != 1 or amps.size != self.dims.total:
            raise DimensionMismatchError(
                f"amplitude vector of length {amps.size} does not match dims {self.dims.factors}"
            )
        nrm = float(np.linalg.norm(amps))
        if abs(nrm - 1.0) > TOL_NORM:
            raise StateValidationError(f"state norm {nrm} deviates from 1 beyond {TOL_NORM}")
        object.__setattr__(self, "amplitudes", amps)

    def density(self) -> "DensityMatrix":
        """Projector |psi><psi| as a DensityMatrix."""
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), self.dims)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix with dimension tags."""

    matrix: np.ndarray
    dims: Dims

    def __post_init__(self):
        mat = _as_complex(self.matrix, "matrix")
        n = self.dims.total
        if mat.shape != (n, n):
            raise DimensionMismatchError(
                f"matrix of shape {mat.shape} does not match dims {self.dims.factors}"
            )
        validate_density_stack(mat)
        object.__setattr__(self, "matrix", mat)

    def eigenvalues(self) -> np.ndarray:
        """Ascending real spectrum, roundoff negatives clipped to 0."""
        return clipped_eigvalsh(self.matrix)

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def is_pure(self, tol: float = 1e-10) -> bool:
        return abs(self.purity() - 1.0) <= tol


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


def validate_density_stack(mats: np.ndarray) -> np.ndarray:
    """Check every member of a ``(..., n, n)`` stack of density matrices.

    Each member must be Hermitian within ``TOL_HERM``, have unit trace
    within ``TOL_TRACE`` and no eigenvalue below ``-TOL_PSD``; the first
    offending member raises ``StateValidationError``.  Returns the
    ascending spectra ``(..., n)``, unclipped.
    """
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
    vals = np.linalg.eigvalsh(mats)
    lo = vals[..., 0]
    if lo.min() < -TOL_PSD:
        raise StateValidationError(
            f"negative eigenvalue {_first(lo, lo < -TOL_PSD)} below -{TOL_PSD}"
        )
    return vals


def _trusted_density(mat: np.ndarray, dims: Dims) -> DensityMatrix:
    """A DensityMatrix around a member of a stack already validated by
    ``validate_density_stack``, without checking it a second time."""
    rho = object.__new__(DensityMatrix)
    object.__setattr__(rho, "matrix", mat)
    object.__setattr__(rho, "dims", dims)
    return rho


def clipped_eigvalsh(mat: np.ndarray, tol: float = TOL_PSD) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix with roundoff negatives zeroed.

    Values in ``[-tol, 0)`` are clipped to 0; anything more negative raises,
    since that indicates a genuinely invalid input rather than roundoff.
    """
    vals = np.linalg.eigvalsh(mat)
    lo = float(vals[0])
    if lo < -tol:
        raise StateValidationError(f"eigenvalue {lo} below -{tol}; input not PSD")
    return np.clip(vals, 0.0, None)


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
    return DensityMatrix(t.reshape(d, d), Dims.of(*kept))


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
    """
    if isinstance(rho, DensityMatrix):
        mat, dims = rho.matrix, rho.dims
    else:
        if dims is None:
            raise DimensionMismatchError("dims are required for raw array inputs")
        mat = np.asarray(rho, dtype=complex)
    if len(dims.factors) != 2:
        raise DimensionMismatchError("partial transpose requires a bipartite state")
    dA, dB = dims.factors
    return _partial_transpose_array(mat, dA, dB, side)


def schmidt_decompose(psi: PureState) -> SchmidtForm:
    """Schmidt form of a bipartite pure state via SVD of its amplitude matrix."""
    if len(psi.dims.factors) != 2:
        raise DimensionMismatchError("Schmidt decomposition requires a bipartite state")
    dA, dB = psi.dims.factors
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
    if float(np.max(np.abs(m - m.conj().T))) > 1e-8:
        raise StateValidationError("trace_norm expects a Hermitian matrix")
    return float(_trace_norm_stack(m))


def _trace_norm_stack(m: np.ndarray) -> np.ndarray:
    """Trace norms of a ``(..., n, n)`` stack of Hermitian matrices."""
    return np.sum(np.abs(np.linalg.eigvalsh(m)), axis=-1)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-sum mu ln mu over the spectrum, with 0 ln 0 := 0.  In nats."""
    return entropy_of_spectrum(rho.eigenvalues())


def entropy_of_spectrum(mu: np.ndarray) -> float:
    mu = np.asarray(mu, dtype=float)
    pos = mu[mu > 0.0]
    return max(0.0, float(-np.sum(pos * np.log(pos))))


def _rel_entropy_psd(x: np.ndarray, y: np.ndarray, support_tol: float = 1e-12) -> float:
    """Tr[X(ln X - ln Y)] for PSD matrices, inf when supp X exceeds supp Y.

    Works on unnormalized operators; both log terms are evaluated in the
    respective eigenbases with eigenvalues below ``support_tol`` treated as
    kernel directions.
    """
    xv = clipped_eigvalsh(x, tol=1e-7 * max(1.0, float(np.abs(np.trace(x)))))
    pos = xv[xv > support_tol]
    tr_x_ln_x = float(np.sum(pos * np.log(pos)))

    yv, yu = np.linalg.eigh(y)
    yv = np.clip(yv, 0.0, None)
    weights = np.real(np.einsum("ij,jk,ki->i", yu.conj().T, x, yu))
    weights = np.clip(weights, 0.0, None)
    kernel = yv <= support_tol
    if float(np.sum(weights[kernel])) > 1e-10:
        return math.inf
    supp = ~kernel
    tr_x_ln_y = float(np.sum(weights[supp] * np.log(yv[supp])))
    return tr_x_ln_x - tr_x_ln_y


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
