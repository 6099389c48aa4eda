"""Random states and unitaries.

All samplers take an explicit ``numpy.random.Generator`` and are bit-exact
reproducible for a fixed seed.  Pure states are Haar distributed (normalized
standard complex Gaussian vectors); mixed states follow the Ginibre-induced
measure; separable states are Dirichlet-weighted mixtures of random product
projectors.
"""

from __future__ import annotations

import numpy as np

from .states import DensityMatrix, Dims, PureState


def _ginibre(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed d x d unitary via phase-fixed QR of a Ginibre matrix."""
    q, r = np.linalg.qr(_ginibre(d, d, rng))
    diag = np.diagonal(r)
    q = q * (diag / np.abs(diag))
    return q


def random_pure(dims: Dims, rng: np.random.Generator) -> PureState:
    """Haar-random pure state on the composite space."""
    v = _ginibre(dims.total, 1, rng)[:, 0]
    return PureState(v / np.linalg.norm(v), dims)


def random_mixed(dims: Dims, rank: int | None, rng: np.random.Generator) -> DensityMatrix:
    """Trace-normalized G G^dag with G a (total x rank) Ginibre matrix."""
    n = dims.total
    if rank is None:
        rank = n
    if not 1 <= rank <= n:
        raise ValueError(f"rank must lie in [1, {n}], got {rank}")
    g = _ginibre(n, rank, rng)
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityMatrix(m, dims)


def random_product_pure(dims: Dims, rng: np.random.Generator) -> PureState:
    """Product of independent Haar-random factors."""
    amps = np.ones(1, dtype=complex)
    for d in dims.factors:
        v = _ginibre(d, 1, rng)[:, 0]
        amps = np.kron(amps, v / np.linalg.norm(v))
    return PureState(amps, dims)


def random_separable(dims: Dims, n_terms: int, rng: np.random.Generator) -> DensityMatrix:
    """Convex combination of random product projectors with Dirichlet weights."""
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    weights = rng.dirichlet(np.ones(n_terms))
    n = dims.total
    m = np.zeros((n, n), dtype=complex)
    for w in weights:
        amps = random_product_pure(dims, rng).amplitudes
        m += w * np.outer(amps, amps.conj())
    return DensityMatrix(m, dims)
