"""Convex-roof extension of pure-state measures over decompositions.

The roof value of a mixed state is the minimum average pure-state measure
over all decompositions rho = sum_j p_j |psi_j><psi_j|.  Decompositions
with a fixed number of terms are parameterized by isometries applied to
the eigendecomposition (the Schroedinger-HJW construction), and the
minimum is approached by local search over isometries from several
starts.  Two searches share that parameterization:

- Smooth h kinds (entropy, tangle, Renyi and Tsallis of order above 1/2):
  Riemannian gradient descent on the Stiefel manifold (Roethlisberger,
  Rehacek & Loss, PRA 80, 042301 (2009)).  The analytic gradient comes
  from the eigendecomposition of each member's reduced state; steps are
  Barzilai-Borwein with Armijo backtracking and a QR retraction.
  ``converged`` means that the winning chain's stopping rule (gradient
  norm, relative decrease or value 0; see ``GRAD_TOL``) fired before the
  iteration cap.
- Kinked h kinds (concurrence, negativity, G-concurrence, Renyi and
  Tsallis of order at most 1/2; see ``is_kinked``): derivative-free
  search.  An unconstrained complex matrix is mapped to an isometry by QR,
  a Gaussian-step descent with adaptive step size refines it, and a
  deterministic pairwise-rotation sweep polishes the result.
  ``converged`` means the winner's last polish phase stalled before its
  iteration cap.

The returned value is an upper bound on the true roof; restarts are
independent chains with derived seeds and the merge is a deterministic
minimum, so results are reproducible and nonincreasing in the number of
restarts.  The chains advance in lockstep: one batched objective call per
step, with accept/reject as masked array updates.  When side A is a qubit
the reduced spectra come in closed form instead of from ``eigvalsh``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .measures import SPECTRUM_FLOOR, HFunction, h_of_spectrum, pure_measure
from .states import DensityMatrix, PureState, TOL_PSD

ISOMETRY_TOL = 1e-8
WEIGHT_FLOOR = 1e-14

# Riemannian descent (smooth kinds).  A chain stops, converged, when its
# Riemannian gradient norm (Frobenius, of dF/d conj(V) projected on the
# tangent space) is at most GRAD_TOL, an accepted step lowers its value by
# at most REL_TOL * max(value, 1), or its value reaches 0 (h >= 0).  It
# stops unconverged when backtracking shrinks its step below STEP_MIN or
# after DESCENT_ITERS steps.  Steps start at length STEP_INIT and follow
# the Barzilai-Borwein rule within [STEP_MIN, STEP_MAX].
GRAD_TOL = 1e-7
REL_TOL = 1e-14
DESCENT_ITERS = 2000
ARMIJO = 1e-4
STEP_INIT = 0.1
STEP_MIN, STEP_MAX = 1e-14, 1e4

# Random-step search schedule (kinked kinds): broad exploration, then
# polish phases that continue each chain at progressively smaller step
# sizes.  The final phases push the winning chains to ~1e-11 so that
# enlarging the search space never looks like a regression.
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


def is_kinked(h: HFunction) -> bool:
    """Whether the average of ``h`` has kinks at product members.

    A member's smallest reduced eigenvalue is quadratic in its distance x
    from a product state, so a term mu^a of the spectrum behaves like
    |x|^(2a) and is differentiable there only for a > 1/2.  Square roots
    of the spectrum (concurrence, negativity, G-concurrence) and Renyi or
    Tsallis orders at most 1/2 are kinked and take the derivative-free
    search; the other kinds take Riemannian gradient descent.
    """
    if h.kind in ("renyi", "tsallis"):
        return float(h.param) <= 0.5
    return h.kind in ("concurrence", "negativity", "g-concurrence")


def _spectral_gradient(h: HFunction, mu: np.ndarray) -> np.ndarray:
    """dF/dlambda_k of F(lambda) = p h(lambda / p), p = sum(lambda), at mu = lambda / p.

    Equals h(mu) + d_k h(mu) - sum_l mu_l d_l h(mu); for the entropy this is
    -log mu_k.  Only the logs and negative powers see ``mu`` clipped below at
    ``SPECTRUM_FLOOR``: they stay finite at product members, where the
    gradient term they multiply vanishes.
    """
    mu = np.maximum(mu, 0.0)
    floored = np.maximum(mu, SPECTRUM_FLOOR)
    if h.kind == "entropy" or (h.kind == "renyi" and h.param == 1.0):
        return -np.log(floored)
    if h.kind == "tangle":
        return 2.0 + 2.0 * np.sum(mu * mu, axis=-1, keepdims=True) - 4.0 * mu
    if h.kind == "renyi":
        a = float(h.param)
        s = np.sum(np.power(mu, a), axis=-1, keepdims=True)
        return (np.log(s) + a * (np.power(floored, a - 1.0) / s - 1.0)) / (1.0 - a)
    if h.kind == "tsallis":
        q = float(h.param)
        s = np.sum(np.power(mu, q), axis=-1, keepdims=True)
        return (1.0 + (q - 1.0) * s - q * np.power(floored, q - 1.0)) / (q - 1.0)
    raise ValueError(f"h kind {h.kind!r} has no gradient")


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

    def gradient(self, q: np.ndarray) -> np.ndarray:
        """Euclidean gradient dF/d conj(q) of the average for a (..., n, r) stack.

        Per member M (phi reshaped dA x dB) with R = M M^dag = U diag(lambda) U^dag,
        the gradient with respect to conj(phi) is U diag(dF/dlambda) U^dag M;
        phi = q W^T then gives dF/d conj(q) = (dF/d conj(phi)) conj(W).
        Members of weight at most WEIGHT_FLOOR contribute 0.
        """
        phi = self.members(q)
        m = phi.reshape(*phi.shape[:-1], self.dA, self.dB)
        lam, u = np.linalg.eigh(m @ np.swapaxes(m, -2, -1).conj())
        p = np.sum(np.abs(phi) ** 2, axis=-1)
        live = p > WEIGHT_FLOOR
        # Dead members get a uniform placeholder spectrum and a zero gradient.
        mu = np.where(live[..., None], lam / np.where(live, p, 1.0)[..., None], 1.0 / self.dA)
        g = np.where(live[..., None], _spectral_gradient(self.h, mu), 0.0)
        gm = (u * g[..., None, :]) @ (np.swapaxes(u, -2, -1).conj() @ m)
        return gm.reshape(phi.shape) @ self._weighted.conj()

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


def _random_step_search(
    objective: _RoofObjective, xs: np.ndarray, gens: list[np.random.Generator]
) -> tuple[np.ndarray, float, bool]:
    """Derivative-free search for kinked h kinds; returns (q, value, converged).

    Every chain takes Gaussian steps on its parameter matrix with an
    adaptive step size: an exploration phase, a light pairwise refinement
    per chain, then polish phases at progressively smaller steps.  The
    winning chain is finished by the full pairwise sweep with 1-D polishes.
    ``converged`` says whether the winner's last polish phase stalled
    (``STALL_LIMIT`` steps without relative improvement) before its cap.
    """
    restarts = xs.shape[0]
    shape = xs.shape[1:]
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
    # chain as its parameter matrix (QR of an isometry is itself).  Random
    # steps plateau at the square-root kinks of these kinds.
    for j in range(restarts):
        q_ref, val_ref = _pairwise_refine(objective, _qr_isometries(xs[j]), max_sweeps=2, stages=3)
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
    return q_best, val_best, bool(converged[winner])


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Real inner product Re Tr(a^dag b) per matrix of two stacks."""
    return np.sum((a.conj() * b).real, axis=(-2, -1))


def _tangent(q: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Projection of ``e`` onto the tangent space of the Stiefel manifold at ``q``."""
    qe = np.swapaxes(q, -2, -1).conj() @ e
    return e - q @ (0.5 * (qe + np.swapaxes(qe, -2, -1).conj()))


def _riemannian_descent(
    objective: _RoofObjective, q: np.ndarray
) -> tuple[np.ndarray, float, bool]:
    """Gradient descent on the Stiefel manifold for smooth h kinds.

    ``q`` is a (chains, n, r) stack of isometries, advanced in lockstep.
    Each chain steps along its negative Riemannian gradient, retracts by
    QR, and takes a Barzilai-Borwein step size with Armijo backtracking;
    step sizes are per chain.  Chains stop by the rules stated at
    ``GRAD_TOL``.  Returns the winning chain's (q, value, converged).
    """
    q = q.copy()
    vals = objective.eval_isometry(q)
    grad = _tangent(q, objective.gradient(q))
    gnorm2 = _inner(grad, grad)
    step = STEP_INIT / np.sqrt(np.maximum(gnorm2, GRAD_TOL**2))
    converged = (gnorm2 <= GRAD_TOL**2) | (vals <= 0.0)
    active = ~converged
    for _ in range(DESCENT_ITERS):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        trial = _qr_isometries(q[idx] - step[idx, None, None] * grad[idx])
        trial_vals = objective.eval_isometry(trial)
        ok = trial_vals <= vals[idx] - ARMIJO * step[idx] * gnorm2[idx]
        bad = idx[~ok]
        step[bad] *= 0.5
        active[bad[step[bad] < STEP_MIN]] = False
        if not ok.any():
            continue
        acc, q_new, v_new = idx[ok], trial[ok], trial_vals[ok]
        g_new = _tangent(q_new, objective.gradient(q_new))
        s, y = q_new - q[acc], g_new - grad[acc]
        rel = (vals[acc] - v_new) / np.maximum(vals[acc], 1.0)
        q[acc], vals[acc], grad[acc] = q_new, v_new, g_new
        gnorm2[acc] = _inner(g_new, g_new)
        sy = np.abs(_inner(s, y))
        step[acc] = np.clip(_inner(s, s) / np.maximum(sy, 1e-300), STEP_MIN, STEP_MAX)
        done = acc[(gnorm2[acc] <= GRAD_TOL**2) | (rel <= REL_TOL) | (v_new <= 0.0)]
        active[done] = False
        converged[done] = True
    winner = int(np.argmin(vals))  # argmin takes the earliest index on ties
    return q[winner], float(vals[winner]), bool(converged[winner])


def roof_minimize(
    h: HFunction,
    rho: DensityMatrix,
    n_terms: int | None = None,
    restarts: int = 20,
    rng: np.random.Generator | None = None,
) -> RoofResult:
    """Upper bound on the convex roof of ``h`` at ``rho``.

    Runs ``restarts`` independent chains (chain 0 starts at the
    eigendecomposition, chain j at a Gaussian parameter matrix drawn by a
    generator seeded with base seed + j, the base seed being one draw from
    ``rng``) and returns the lowest average found, with ties broken by the
    earliest restart.  Pure inputs short-circuit to the pure-state value.

    Smooth h kinds run lockstep Riemannian gradient descent; ``converged``
    then means that the winning chain's stopping rule (gradient norm,
    relative decrease or value 0, stated at ``GRAD_TOL``) fired before
    ``DESCENT_ITERS`` steps.  Kinked kinds (``is_kinked``) run the
    derivative-free random-step search with pairwise-rotation sweeps;
    ``converged`` then means that the winner's last polish phase stalled
    before its iteration cap.
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

    if is_kinked(h):
        q_best, val_best, converged = _random_step_search(objective, xs, gens)
    else:
        q_best, val_best, converged = _riemannian_descent(objective, _qr_isometries(xs))
    best = decomposition_from_isometry(rho, q_best)
    return RoofResult(val_best, best, restarts, converged)
