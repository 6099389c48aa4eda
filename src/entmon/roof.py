"""Convex-roof extension of pure-state measures over decompositions.

The roof value of a mixed state is the minimum average pure-state measure
over all decompositions rho = sum_j p_j |psi_j><psi_j|.  Decompositions
with a fixed number of terms are parameterized by isometries applied to
the eigendecomposition (the Schroedinger-HJW construction), and the
minimum is approached by Riemannian gradient descent on the Stiefel
manifold of isometries (Roethlisberger, Rehacek & Loss, PRA 80, 042301
(2009)) from several starts.  The analytic gradient comes from the
eigendecomposition of each member's reduced state; steps are
Barzilai-Borwein with nonmonotone Armijo backtracking (see
``NONMONOTONE``) and a QR retraction.

Smooth h kinds (entropy, tangle, Renyi and Tsallis of order above 1/2)
descend on h itself.  Kinked h kinds (concurrence, negativity,
G-concurrence, Renyi and Tsallis of order at most 1/2; see ``is_kinked``)
are not differentiable at product members, so they descend on the smoothed
h_eps of ``measures.h_of_spectrum`` through the decreasing sequence
``SMOOTHING``, each stage warm-started from the last.  Either
way the winner is the chain of least exact (unsmoothed) average, each
chain counting the least it reached at the end of any stage, and
``converged`` means that its stopping rule (see ``GRAD_TOL``) fired in the
final stage, or that its exact value is at most ``VALUE_FLOOR``.

The returned value is an upper bound on the true roof; restarts are
independent chains with derived seeds and the merge is a deterministic
minimum, so results are reproducible and, above ``VALUE_FLOOR``,
nonincreasing in the number of restarts.  The chains advance in lockstep:
one batched objective call per step, with accept/reject as masked array
updates.  When side A is a qubit the reduced spectra come in closed form
instead of from ``eigvalsh``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import SPECTRUM_FLOOR, HFunction, h_of_spectrum, h_partials, pure_measure
from .states import DensityMatrix, PureState, TOL_PSD

ISOMETRY_TOL = 1e-8
WEIGHT_FLOOR = 1e-14

# Riemannian descent.  A chain stops, converged, when its Riemannian
# gradient norm (Frobenius, of dF/d conj(V) projected on the tangent
# space) is at most GRAD_TOL, an accepted step changes its value by at
# most REL_TOL * max(value, 1), backtracking shrinks the first-order
# decrease step * |gradient|^2 below that, or its value reaches 0
# (h >= 0).  It stops unconverged when backtracking shrinks its step below
# STEP_MIN or after DESCENT_ITERS steps.  Steps start at length STEP_INIT
# and follow the Barzilai-Borwein rule within [STEP_MIN, STEP_MAX].  Since
# h >= 0, an exact value at most VALUE_FLOOR cannot be beaten by more than
# the floor: once a stopped chain has one, every chain stops.
GRAD_TOL = 1e-7
REL_TOL = 1e-14
DESCENT_ITERS = 2000
ARMIJO = 1e-4
STEP_INIT = 0.1
STEP_MIN, STEP_MAX = 1e-14, 1e4
VALUE_FLOOR = 1e-12

# The Armijo test compares against the largest of a chain's last
# NONMONOTONE values (Grippo, Lampariello & Lucidi, SIAM J. Numer. Anal.
# 23, 707 (1986)): with a monotone test, Barzilai-Borwein steps stall in
# degenerate minima such as that of the separable Werner state at
# p = 1/3, and on smooth h they backtrack more often (on the six 2x2
# entropy inputs of the roof-oracle benchmark, 921 steps instead of 588).
NONMONOTONE = 10
# Smoothing parameters of the kinked kinds' continuation, in stage order.
SMOOTHING = tuple(10.0**-k for k in range(1, 9))


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
    Tsallis orders at most 1/2 are kinked and descend on the smoothed h_eps.
    """
    if h.kind in ("renyi", "tsallis"):
        return float(h.param) <= 0.5
    return h.kind in ("concurrence", "negativity", "g-concurrence")


def _spectral_gradient(h: HFunction, mu: np.ndarray, eps: float = 0.0) -> np.ndarray:
    """dF/dlambda_k of F(lambda) = p h(lambda / p), p = sum(lambda), at mu = lambda / p.

    Equals h(mu) + d_k h(mu) - sum_l mu_l d_l h(mu), from ``h_of_spectrum``
    and ``h_partials`` at ``eps``.  For the entropy this is -log mu_k, with
    ``mu`` clipped below at ``SPECTRUM_FLOOR``: finite at product members,
    where the gradient term it multiplies vanishes.
    """
    mu = np.maximum(mu, 0.0)
    if h.kind == "entropy" or (h.kind == "renyi" and h.param == 1.0):
        return -np.log(np.maximum(mu, SPECTRUM_FLOOR))
    value = h_of_spectrum(h, mu, eps)
    dh = h_partials(h, mu, eps, value)
    return value[..., None] + dh - np.sum(mu * dh, axis=-1, keepdims=True)


class _RoofObjective:
    """Batched average-measure evaluation over isometry parameter matrices."""

    def __init__(self, h: HFunction, rho: DensityMatrix):
        self.h = h
        self.dA, self.dB = rho.dims.factors
        lam, evecs = _eig_ensemble(rho)
        self._weighted = evecs * np.sqrt(lam)  # d x r

    def members(self, q: np.ndarray) -> np.ndarray:
        """Unnormalized member vectors as rows, for an isometry ``q``."""
        return q @ self._weighted.T

    def member_values(self, phi: np.ndarray, eps: float = 0.0) -> np.ndarray:
        """p_j * h(psi_j) per row of unnormalized member vectors ``phi``;
        h_eps of ``h_of_spectrum`` for ``eps`` > 0."""
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
        return np.where(live, p * h_of_spectrum(self.h, mu_n, eps), 0.0)

    def eval_isometry(self, q: np.ndarray, eps: float = 0.0) -> np.ndarray:
        return np.sum(self.member_values(self.members(q), eps), axis=-1)

    def gradient(self, q: np.ndarray, eps: float = 0.0) -> np.ndarray:
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
        g = np.where(live[..., None], _spectral_gradient(self.h, mu, eps), 0.0)
        gm = (u * g[..., None, :]) @ (np.swapaxes(u, -2, -1).conj() @ m)
        return gm.reshape(phi.shape) @ self._weighted.conj()


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Real inner product Re Tr(a^dag b) per matrix of two stacks."""
    return np.sum((a.conj() * b).real, axis=(-2, -1))


def _tangent(q: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Projection of ``e`` onto the tangent space of the Stiefel manifold at ``q``."""
    qe = np.swapaxes(q, -2, -1).conj() @ e
    return e - q @ (0.5 * (qe + np.swapaxes(qe, -2, -1).conj()))


def _riemannian_descent(
    objective: _RoofObjective, q: np.ndarray, eps: float = 0.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradient descent on the Stiefel manifold, on h_eps for ``eps`` > 0.

    ``q`` is a (chains, n, r) stack of isometries, advanced in lockstep.
    Each chain steps along its negative Riemannian gradient, retracts by
    QR, and takes a Barzilai-Borwein step size with nonmonotone Armijo
    backtracking (see ``NONMONOTONE``); step sizes are per chain.  Chains
    stop by the rules stated at ``GRAD_TOL``, a step's decrease counting
    by its magnitude.  Returns every chain's (q, h_eps value, converged).
    """
    q = q.copy()
    vals = objective.eval_isometry(q, eps)
    grad = _tangent(q, objective.gradient(q, eps))
    gnorm2 = _inner(grad, grad)
    step = STEP_INIT / np.sqrt(np.maximum(gnorm2, GRAD_TOL**2))
    converged = (gnorm2 <= GRAD_TOL**2) | (vals <= 0.0)
    active = ~converged
    stopped = np.nonzero(converged)[0]
    recent = np.repeat(vals[:, None], NONMONOTONE, axis=1)
    accepted = np.zeros(len(q), dtype=int)
    for _ in range(DESCENT_ITERS):
        if stopped.size and np.any(objective.eval_isometry(q[stopped]) <= VALUE_FLOOR):
            break
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        trial = _qr_isometries(q[idx] - step[idx, None, None] * grad[idx])
        trial_vals = objective.eval_isometry(trial, eps)
        ok = trial_vals <= recent[idx].max(axis=1) - ARMIJO * step[idx] * gnorm2[idx]
        bad = idx[~ok]
        step[bad] *= 0.5
        flat = step[bad] * gnorm2[bad] <= REL_TOL * np.maximum(vals[bad], 1.0)
        converged[bad[flat]] = True
        stopped = bad[flat | (step[bad] < STEP_MIN)]
        active[stopped] = False
        if not ok.any():
            continue
        acc, q_new, v_new = idx[ok], trial[ok], trial_vals[ok]
        g_new = _tangent(q_new, objective.gradient(q_new, eps))
        s, y = q_new - q[acc], g_new - grad[acc]
        rel = np.abs(vals[acc] - v_new) / np.maximum(vals[acc], 1.0)
        q[acc], vals[acc], grad[acc] = q_new, v_new, g_new
        accepted[acc] += 1
        recent[acc, accepted[acc] % recent.shape[1]] = v_new
        gnorm2[acc] = _inner(g_new, g_new)
        sy = np.abs(_inner(s, y))
        step[acc] = np.clip(_inner(s, s) / np.maximum(sy, 1e-300), STEP_MIN, STEP_MAX)
        done = acc[(gnorm2[acc] <= GRAD_TOL**2) | (rel <= REL_TOL) | (v_new <= 0.0)]
        active[done] = False
        converged[done] = True
        stopped = np.concatenate([stopped, done])
    return q, vals, converged


def roof_minimize(
    h: HFunction,
    rho: DensityMatrix,
    n_terms: int | None = None,
    restarts: int = 20,
    rng: np.random.Generator | None = None,
) -> RoofResult:
    """Upper bound on the convex roof of ``h`` at ``rho``.

    Runs ``restarts`` independent chains (chain 0 starts at the
    eigendecomposition, chain j at the QR isometry of a Gaussian matrix
    drawn by a generator seeded with base seed + j, the base seed being one
    draw from ``rng``) and returns the lowest exact average found, with
    ties broken by the earliest restart.  Pure inputs short-circuit to the
    pure-state value.

    Every kind runs lockstep Riemannian gradient descent: on h itself for
    smooth kinds, and through the smoothing stages ``SMOOTHING`` for kinked
    kinds (``is_kinked``), where each chain keeps the isometry of least
    exact value over the stage ends.  ``converged`` means that the winning
    chain's stopping rule (gradient norm, relative decrease or value 0,
    stated at ``GRAD_TOL``) fired in the final stage before
    ``DESCENT_ITERS`` steps, or that its value is at most ``VALUE_FLOOR``.  Once some chain's exact
    value is at most ``VALUE_FLOOR``, between stages or on stopping, the
    search ends.
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

    objective = _RoofObjective(h, rho)
    base_seed = int(rng.integers(2**62))
    shape = (n_terms, r)
    xs = np.empty((restarts,) + shape, dtype=np.complex128)
    xs[0] = np.eye(n_terms, r)
    for j in range(1, restarts):
        z = np.random.default_rng(base_seed + j).standard_normal((2,) + shape)
        xs[j] = (z[0] + 1j * z[1]) / np.sqrt(2.0)

    q = _qr_isometries(xs)
    # Each chain keeps its least exact value over the stages, and the
    # isometry that reached it: a later stage can end above an earlier one.
    best_vals = np.full(restarts, np.inf)
    best_q = q
    for eps in SMOOTHING if is_kinked(h) else (0.0,):
        q, vals, converged = _riemannian_descent(objective, q, eps)
        exact = objective.eval_isometry(q) if eps else vals
        lower = exact < best_vals
        best_vals = np.where(lower, exact, best_vals)
        best_q = np.where(lower[:, None, None], q, best_q)
        if np.any(exact <= VALUE_FLOOR):
            break
    winner = int(np.argmin(best_vals))  # argmin takes the earliest index on ties
    best = decomposition_from_isometry(rho, best_q[winner])
    return RoofResult(float(best_vals[winner]), best, restarts,
                      bool(converged[winner] or best_vals[winner] <= VALUE_FLOOR))
