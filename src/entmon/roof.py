"""Convex-roof extension of pure-state measures over decompositions.

The roof value of a mixed state is the minimum average pure-state measure
over all decompositions rho = sum_j p_j |psi_j><psi_j|.  Decompositions
with a fixed number of terms are parameterized by isometries applied to
the eigendecomposition (the Schroedinger-HJW construction), and the
minimum is approached by derivative-free local search over isometries:
an unconstrained complex matrix is mapped to an isometry by QR, a
Gaussian-step descent with adaptive step size refines it, and a
deterministic pairwise-rotation sweep polishes the result.  The search is
derivative-free on purpose: some measures (concurrence, G-concurrence)
have kinks at rank boundaries.

The returned value is an upper bound on the true roof; restarts are
independent chains with derived seeds and the merge is a deterministic
minimum, so results are reproducible and nonincreasing in the number of
restarts.  The chains advance in lockstep: one batched objective call per
step, with accept/reject as masked array updates, and each chain takes its
step normals from blocks drawn by its own generator.  When side A is a
qubit the reduced spectra come in closed form instead of from ``eigvalsh``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .measures import HFunction, h_of_spectrum, pure_measure
from .states import DensityMatrix, PureState, TOL_PSD

ISOMETRY_TOL = 1e-8
WEIGHT_FLOOR = 1e-14

# Search schedule: broad exploration, then polish phases that continue each
# chain at progressively smaller step sizes.  The final phases push the
# winning chains to ~1e-11 so that enlarging the search space never looks
# like a regression.
EXPLORE_ITERS = 500
POLISH_PHASES = ((3e-3, 300, 1e-9), (2e-5, 200, 1e-12), (2e-7, 150, 1e-14))
EXPLORE_SIGMA = 0.3
STEP_GROW = 1.3
STEP_SHRINK = 0.92
STALL_LIMIT = 50
REL_IMPROVEMENT = 1e-9
_BLOCK = 64  # step normals drawn per chain per refill


@dataclass(frozen=True)
class Decomposition:
    """Pure-state ensemble realizing a mixed state."""

    weights: np.ndarray
    states: tuple[PureState, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.size != len(self.states):
            raise ValueError("weights and states must have equal length")
        if np.any(w < 0.0) or abs(float(np.sum(w)) - 1.0) > 1e-10:
            raise ValueError("weights must be nonnegative and sum to 1")
        object.__setattr__(self, "weights", w)

    def reconstruct(self) -> np.ndarray:
        out = 0.0
        for w, s in zip(self.weights, self.states):
            out = out + w * np.outer(s.amplitudes, s.amplitudes.conj())
        return out

    def average_value(self, h: HFunction) -> float:
        return float(
            sum(w * pure_measure(h, s).value for w, s in zip(self.weights, self.states))
        )


@dataclass(frozen=True)
class RoofResult:
    value: float
    best: Decomposition
    restarts_used: int
    converged: bool


def _eig_ensemble(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    vals, vecs = np.linalg.eigh(rho.matrix)
    keep = vals > TOL_PSD
    return vals[keep], vecs[:, keep]


def decomposition_from_isometry(rho: DensityMatrix, v: np.ndarray) -> Decomposition:
    """Decomposition induced by an isometry on the eigendecomposition.

    With eigenpairs (lam_i, e_i) of ``rho`` and an n x r isometry ``v``
    (r the rank of ``rho``), the unnormalized vectors
    ``phi_j = sum_i v[j, i] sqrt(lam_i) e_i`` define weights
    ``p_j = <phi_j|phi_j>`` and normalized states; their mixture
    reconstructs ``rho`` exactly.  Zero-weight terms are dropped.
    """
    lam, evecs = _eig_ensemble(rho)
    r = lam.size
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 2 or v.shape[0] < r or v.shape[1] != r:
        raise ValueError(f"expected an n x {r} matrix with n >= {r}, got shape {v.shape}")
    residual = float(np.linalg.norm(v.conj().T @ v - np.eye(r)))
    if residual > ISOMETRY_TOL:
        raise ValueError(f"non-isometric input: ||V^dag V - I|| = {residual}")
    phi = (evecs * np.sqrt(lam)) @ v.T  # d x n, columns are unnormalized states
    p = np.sum(np.abs(phi) ** 2, axis=0)
    keep = p > WEIGHT_FLOOR
    states = tuple(
        PureState(phi[:, j] / np.sqrt(p[j]), rho.dims) for j in np.nonzero(keep)[0]
    )
    return Decomposition(p[keep], states)


def default_n_terms(rho: DensityMatrix) -> int:
    """min(rank^2, 2 rank) capped at 8; 4 for two qubits."""
    if rho.dims.factors == (2, 2):
        return 4
    r = _eig_ensemble(rho)[0].size
    return max(1, min(r * r, 2 * r, 8))


def _qr_isometries(x: np.ndarray) -> np.ndarray:
    """Batched QR with the R-diagonal phase fixed, so x = I maps to I."""
    q, r = np.linalg.qr(x)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    phase = np.where(np.abs(diag) > 0.0, diag / np.where(np.abs(diag) > 0.0, np.abs(diag), 1.0), 1.0)
    return q * phase.conj()[..., None, :]


def _qubit_reduced_spectrum(m: np.ndarray) -> np.ndarray:
    """Ascending spectrum of ``m m^dag`` for a (..., 2, dB) stack, clipped at 0.

    The 2x2 reduced state [[a, b], [b*, d]] has eigenvalues
    (a + d)/2 -+ hypot((a - d)/2, |b|); the hypot form of the discriminant
    does not cancel.
    """
    sq = np.abs(m) ** 2
    a = sq[..., 0, :].sum(axis=-1)
    d = sq[..., 1, :].sum(axis=-1)
    b = np.abs((m[..., 0, :] * m[..., 1, :].conj()).sum(axis=-1))
    mid = 0.5 * (a + d)
    rad = np.hypot(0.5 * (a - d), b)
    mu = np.empty(mid.shape + (2,))
    mu[..., 0] = mid - rad
    mu[..., 1] = mid + rad
    return np.maximum(mu, 0.0, out=mu)


class _RoofObjective:
    """Batched average-measure evaluation over isometry parameter matrices."""

    def __init__(self, h: HFunction, rho: DensityMatrix, n_terms: int):
        self.h = h
        self.n_terms = n_terms
        self.dA, self.dB = rho.dims.factors
        lam, evecs = _eig_ensemble(rho)
        self.rank = lam.size
        self._weighted = evecs * np.sqrt(lam)  # d x r

    def members(self, q: np.ndarray) -> np.ndarray:
        """Unnormalized member vectors as rows, for an isometry ``q``."""
        return q @ self._weighted.T

    def member_values(self, phi: np.ndarray) -> np.ndarray:
        """p_j * h(psi_j) per row of unnormalized member vectors ``phi``."""
        p = np.sum(np.abs(phi) ** 2, axis=-1)
        m = phi.reshape(*phi.shape[:-1], self.dA, self.dB)
        if self.dA == 2:
            mu = _qubit_reduced_spectrum(m)
        else:
            red = m @ np.swapaxes(m, -2, -1).conj()
            mu = np.clip(np.linalg.eigvalsh(red), 0.0, None)
        live = p > WEIGHT_FLOOR
        denom = np.where(live, p, 1.0)
        mu_n = mu / denom[..., None]
        if not np.all(live):
            # Dead rows get a placeholder pure spectrum; their h value is 0
            # and their weight is 0, so they contribute nothing either way.
            pure = np.zeros(mu.shape[-1])
            pure[-1] = 1.0
            mu_n = np.where(live[..., None], mu_n, pure)
        hv = h_of_spectrum(self.h, mu_n)
        return np.where(live, p * hv, 0.0)

    def eval_isometry(self, q: np.ndarray) -> np.ndarray:
        return np.sum(self.member_values(self.members(q)), axis=-1)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """x is (..., n_terms, rank); returns the average measure per matrix."""
        return self.eval_isometry(_qr_isometries(x))


def _pair_rotation_value(objective, phi_j, phi_k, thetas, phases):
    """Batched pair cost over a rotation-angle x phase grid."""
    c = np.cos(thetas)[:, None]
    s = np.sin(thetas)[:, None]
    w = np.exp(1j * phases)[None, :]
    rows_j = (c[..., None] * phi_j - (np.conj(w) * s)[..., None] * phi_k)
    rows_k = ((w * s)[..., None] * phi_j + c[..., None] * phi_k)
    stacked = np.stack([rows_j, rows_k], axis=-2)  # (T, P, 2, d)
    vals = objective.member_values(stacked)
    return np.sum(vals, axis=-1)  # (T, P)


def _pairwise_refine(
    objective: _RoofObjective,
    q: np.ndarray,
    max_sweeps: int = 40,
    stages: int = 6,
    polish: bool = False,
) -> tuple[np.ndarray, float]:
    """Descend by rotating pairs of ensemble members.

    A 2x2 unitary acting on two rows of the isometry mixes exactly two
    members and leaves the realized state fixed; up to irrelevant member
    phases it is parameterized by a rotation angle and one relative phase.
    Sweeping all pairs with a shrinking 2-D grid search per pair escapes
    the plateaus that defeat isotropic random steps, most notably for
    measures with square-root kinks at product members, where the phase
    alignment is the hard part.  Deterministic, descent-only.
    """
    q = q.copy()
    phi = objective.members(q)
    contrib = objective.member_values(phi)
    n = q.shape[0]
    theta_grid = np.linspace(-1.0, 1.0, 17)
    phase_grid = np.linspace(-1.0, 1.0, 13)
    for _ in range(max_sweeps):
        improved = 0.0
        for j in range(n):
            for k in range(j + 1, n):
                base = float(contrib[j] + contrib[k])
                best_theta, best_phase, best_val = 0.0, 0.0, base
                t_center, t_width = 0.0, np.pi / 2
                p_center, p_width = 0.0, np.pi
                for _stage in range(stages):
                    thetas = t_center + t_width * theta_grid
                    phases = p_center + p_width * phase_grid
                    vals = _pair_rotation_value(objective, phi[j], phi[k], thetas, phases)
                    ti, pi_ = np.unravel_index(int(np.argmin(vals)), vals.shape)
                    if float(vals[ti, pi_]) < best_val:
                        best_val = float(vals[ti, pi_])
                        best_theta, best_phase = float(thetas[ti]), float(phases[pi_])
                    t_center, t_width = float(thetas[ti]), t_width / 6.0
                    p_center, p_width = float(phases[pi_]), p_width / 5.0
                if polish and best_val < base - 1e-15:
                    # Alternate 1-D scalar polishes; the grid leaves a
                    # resolution floor that matters for kinked measures.
                    for _round in range(2):
                        res = minimize_scalar(
                            lambda th: float(_pair_rotation_value(
                                objective, phi[j], phi[k],
                                np.array([th]), np.array([best_phase]))[0, 0]),
                            bounds=(best_theta - 1e-2, best_theta + 1e-2),
                            method="bounded", options={"xatol": 1e-11},
                        )
                        if float(res.fun) < best_val:
                            best_val, best_theta = float(res.fun), float(res.x)
                        res = minimize_scalar(
                            lambda ph: float(_pair_rotation_value(
                                objective, phi[j], phi[k],
                                np.array([best_theta]), np.array([ph]))[0, 0]),
                            bounds=(best_phase - 1e-2, best_phase + 1e-2),
                            method="bounded", options={"xatol": 1e-11},
                        )
                        if float(res.fun) < best_val:
                            best_val, best_phase = float(res.fun), float(res.x)
                if best_val < base - 1e-15:
                    c, s = np.cos(best_theta), np.sin(best_theta)
                    w = np.exp(1j * best_phase)
                    row_j = c * phi[j] - np.conj(w) * s * phi[k]
                    row_k = w * s * phi[j] + c * phi[k]
                    phi[j], phi[k] = row_j, row_k
                    qj = c * q[j] - np.conj(w) * s * q[k]
                    qk = w * s * q[j] + c * q[k]
                    q[j], q[k] = qj, qk
                    new = objective.member_values(np.stack([phi[j], phi[k]]))
                    contrib[j], contrib[k] = float(new[0]), float(new[1])
                    improved += base - best_val
        total = float(np.sum(contrib))
        if improved <= max(1e-13, 1e-11 * abs(total)):
            break
    return q, float(np.sum(contrib))


def roof_minimize(
    h: HFunction,
    rho: DensityMatrix,
    n_terms: int | None = None,
    restarts: int = 20,
    rng: np.random.Generator | None = None,
) -> RoofResult:
    """Upper bound on the convex roof of ``h`` at ``rho``.

    Runs ``restarts`` independent descent chains (chain 0 starts at the
    eigendecomposition, the rest at Haar-random isometries) and returns the
    lowest average found, with ties broken by the earliest restart.  Pure
    inputs short-circuit to the pure-state value.

    The chains advance in lockstep with batched linear algebra and masked
    accept/reject updates.  Each draws its step normals in blocks from its
    own generator seeded by (base seed + restart index); a generator fills
    a block in the same order as one draw per step, so the outcome is
    identical to running the chains sequentially.  For a qubit side A the
    2x2 reduced spectra are taken in closed form.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    lam, evecs = _eig_ensemble(rho)
    r = lam.size
    if n_terms is None:
        n_terms = default_n_terms(rho)
    if n_terms < r:
        raise ValueError(f"n_terms = {n_terms} is below the state rank {r}")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")

    if r == 1:
        psi = PureState(evecs[:, 0], rho.dims)
        best = Decomposition(np.array([1.0]), (psi,))
        return RoofResult(pure_measure(h, psi).value, best, 0, True)

    objective = _RoofObjective(h, rho, n_terms)
    base_seed = int(rng.integers(2**62))
    gens = [np.random.default_rng(base_seed + j) for j in range(restarts)]

    shape = (n_terms, r)
    xs = np.empty((restarts,) + shape, dtype=np.complex128)
    xs[0] = np.eye(n_terms, r)
    for j in range(1, restarts):
        z = gens[j].standard_normal((2,) + shape)
        xs[j] = (z[0] + 1j * z[1]) / np.sqrt(2.0)
    vals = objective(xs)

    sigma = np.full(restarts, EXPLORE_SIGMA)
    stall = np.zeros(restarts, dtype=int)
    active = np.ones(restarts, dtype=bool)
    converged = np.zeros(restarts, dtype=bool)
    # Step normals per chain, refilled a block at a time from its generator.
    buf = np.empty((restarts, _BLOCK, 2) + shape)
    cursor = np.full(restarts, _BLOCK)

    def run_phase(iters: int, rel_improvement: float) -> None:
        for _ in range(iters):
            idx = np.nonzero(active)[0]
            if idx.size == 0:
                break
            for j in idx[cursor[idx] == _BLOCK]:
                buf[j] = gens[j].standard_normal((_BLOCK, 2) + shape)
                cursor[j] = 0
            z = buf[idx, cursor[idx]]
            cursor[idx] += 1
            proposals = xs[idx] + sigma[idx, None, None] * (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)
            new_vals = objective(proposals)
            better = new_vals < vals[idx]
            acc, rej = idx[better], idx[~better]
            rel = (vals[acc] - new_vals[better]) / np.maximum(np.abs(vals[acc]), 1e-18)
            xs[acc] = proposals[better]
            vals[acc] = new_vals[better]
            sigma[acc] = np.minimum(sigma[acc] * STEP_GROW, 2.0)
            stall[acc] = np.where(rel < rel_improvement, stall[acc] + 1, 0)
            sigma[rej] = np.maximum(sigma[rej] * STEP_SHRINK, 1e-12)
            stall[rej] += 1
            done = idx[stall[idx] >= STALL_LIMIT]
            active[done] = False
            converged[done] = True

    run_phase(EXPLORE_ITERS, REL_IMPROVEMENT)

    # Light pairwise refinement steers every chain toward its pair-optimal
    # basin before the fine polish; the refined isometry re-enters the
    # chain as its parameter matrix (QR of an isometry is itself).  Smooth
    # h kinds do not need it; the kinked ones (square roots of the
    # spectrum) are where random steps plateau.
    if h.kind in ("concurrence", "negativity", "g-concurrence"):
        for j in range(restarts):
            q_ref, val_ref = _pairwise_refine(
                objective, _qr_isometries(xs[j]), max_sweeps=2, stages=3
            )
            if val_ref < vals[j]:
                xs[j] = q_ref
                vals[j] = val_ref

    # Polish: continue every chain at small steps to tighten the minimum.
    for phase_sigma, phase_iters, phase_rel in POLISH_PHASES:
        active[:] = True
        stall[:] = 0
        converged[:] = False
        sigma[:] = np.minimum(sigma, phase_sigma)
        run_phase(phase_iters, phase_rel)

    winner = int(np.argmin(vals))  # argmin takes the earliest index on ties
    q_best = _qr_isometries(xs[winner])
    val_best = float(vals[winner])
    q_ref, val_ref = _pairwise_refine(objective, q_best, polish=True)
    if val_ref < val_best:
        q_best, val_best = q_ref, val_ref
    best = decomposition_from_isometry(rho, q_best)
    return RoofResult(val_best, best, restarts, bool(converged[winner]))
