"""Random states and unitaries.

All samplers take an explicit ``numpy.random.Generator`` and are bit-exact
reproducible for a fixed seed.  Pure states are Haar distributed (normalized
standard complex Gaussian vectors); mixed states follow the Ginibre-induced
measure; separable states are Dirichlet-weighted mixtures of random product
projectors.

The stack forms draw n states with one generator call, as one array, and
return exactly what n successive per-state calls return; the per-state
samplers are their n = 1 case, wrapped in a validating constructor.  The
stacks are valid by construction and are not validated here: a caller
that takes them in checks the whole stack once (``validate_density_stack``).
"""

from __future__ import annotations

import numpy as np

from .states import DensityMatrix, Dims, PureState, _norms


def _ginibre(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _haar_stack(g: np.ndarray) -> np.ndarray:
    """Phase-fixed QR of a ``(..., n, r)`` stack: Q with the phase of each
    nonzero entry of R's diagonal divided out, so I maps to I, and Haar
    unitaries from Ginibre matrices (F. Mezzadri, Notices AMS 54, 592
    (2007)).  One stacked ``np.linalg.qr`` gives each member its own bits."""
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    size = np.abs(diag)
    return q * np.where(size > 0.0, diag / np.where(size > 0.0, size, 1.0), 1.0)[..., None, :]


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed d x d unitary via phase-fixed QR of a Ginibre matrix."""
    return _haar_stack(_ginibre(d, d, rng))


def _unit_rows(z: np.ndarray) -> np.ndarray:
    """Normalized complex rows from standard normal draws ``z`` of shape
    ``(n, 2, N)``: row i is ``z[i, 0] + 1j z[i, 1]`` over the norm that
    ``np.linalg.norm`` takes (``states._norms``)."""
    v = z[:, 0] + 1j * z[:, 1]
    return v / _norms(v)[:, None]


def _product_rows(z: np.ndarray, factors: tuple[int, ...]) -> np.ndarray:
    """Product amplitudes from standard normal draws ``z`` of shape
    ``(n, 2 sum(factors))``: per factor d, d real parts then d imaginary
    parts, factor A first, joined in Kronecker order."""
    amps = None
    start = 0
    for d in factors:
        v = _unit_rows(z[:, start:start + 2 * d].reshape(-1, 2, d))
        start += 2 * d
        amps = v if amps is None else (amps[:, :, None] * v[:, None, :]).reshape(len(v), -1)
    return amps


def random_pure_stack(dims: Dims, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` Haar-random pure states as an ``(n, N)`` array of amplitudes."""
    return _unit_rows(rng.standard_normal((n, 2, dims.total)))


def random_pure(dims: Dims, rng: np.random.Generator) -> PureState:
    """Haar-random pure state on the composite space."""
    return PureState(random_pure_stack(dims, 1, rng)[0], dims)


def random_mixed_stack(
    dims: Dims, rank: int | None, n: int, rng: np.random.Generator
) -> np.ndarray:
    """``n`` trace-normalized G G^dag, G an (N x rank) Ginibre matrix, as an
    ``(n, N, N)`` array."""
    total = dims.total
    if rank is None:
        rank = total
    if not 1 <= rank <= total:
        raise ValueError(f"rank must lie in [1, {total}], got {rank}")
    z = rng.standard_normal((n, 2, total, rank))
    g = z[:, 0] + 1j * z[:, 1]
    m = g @ g.conj().swapaxes(-1, -2)
    m /= m.trace(axis1=-2, axis2=-1).real[:, None, None]
    return m


def random_mixed(dims: Dims, rank: int | None, rng: np.random.Generator) -> DensityMatrix:
    """Trace-normalized G G^dag with G a (total x rank) Ginibre matrix."""
    return DensityMatrix(random_mixed_stack(dims, rank, 1, rng)[0], dims)


def random_product_pure_stack(dims: Dims, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` products of independent Haar-random factors as an ``(n, N)``
    array of amplitudes."""
    return _product_rows(rng.standard_normal((n, 2 * sum(dims.factors))), dims.factors)


def random_product_pure(dims: Dims, rng: np.random.Generator) -> PureState:
    """Product of independent Haar-random factors."""
    return PureState(random_product_pure_stack(dims, 1, rng)[0], dims)


def random_separable(dims: Dims, n_terms: int, rng: np.random.Generator) -> DensityMatrix:
    """Convex combination of random product projectors with Dirichlet weights."""
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    weights = rng.dirichlet(np.ones(n_terms))
    n = dims.total
    m = np.zeros((n, n), dtype=complex)
    for w, amps in zip(weights, random_product_pure_stack(dims, n_terms, rng)):
        m += w * np.outer(amps, amps.conj())
    return DensityMatrix(m, dims)
