"""Convex-roof extension of pure-state measures over decompositions.

The roof value of a mixed state is the minimum average pure-state measure
over all decompositions rho = sum_j p_j |psi_j><psi_j|.  Decompositions
with a fixed number of terms are parameterized by isometries applied to
the eigendecomposition (the Schroedinger-HJW construction), and the
minimum is approached by Riemannian gradient descent on the Stiefel
manifold of isometries (Roethlisberger, Rehacek & Loss, PRA 80, 042301
(2009)) from several starts.  Each step takes the trials' values and
analytic gradients from one pass (``_RoofObjective.evaluate``): in closed
form when side A is a qubit, otherwise from one ``eigh``.  Step lengths
are the short Barzilai-Borwein step (see ``GRAD_TOL``), with nonmonotone
Armijo backtracking (see ``NONMONOTONE``) and a QR retraction.

Smooth h kinds (entropy, tangle, Renyi and Tsallis of order above 1/2)
descend on h itself.  Kinked h kinds (concurrence, negativity,
G-concurrence, Renyi and Tsallis of order at most 1/2; see ``is_kinked``)
are not differentiable at product members, so they descend on the smoothed
h_eps of ``measures.h_of_spectrum`` through the decreasing sequence
``SMOOTHING``, each stage warm-started from the last with each chain's
last step size and ended on stationarity at a gradient norm that shrinks
with eps (see ``GRAD_TOL``).  Either way the winner is the chain of least
exact (unsmoothed) average, each chain counting the least it reached at
the end of any stage, and ``converged`` means that its stopping rule fired
in the final stage, or that its exact value is at most ``VALUE_FLOOR``.

The returned value is an upper bound on the true roof; restarts are
independent chains with derived seeds and the merge is a deterministic
minimum, so results are reproducible and, above ``VALUE_FLOOR``,
nonincreasing in the number of restarts.  The chains advance in lockstep:
one batched objective call per step, with accept/reject as masked array
updates.

On 2x2 and 2x3 inputs with a positive partial transpose, separable by
Peres-Horodecki, the product stage (``_product_stage``) runs first, from
chain 0's start, and a value at most ``VALUE_FLOOR`` there ends the call
with no descent; otherwise a winner above ``VALUE_FLOOR`` goes on to the
stage again.  On these inputs ``converged`` means a value at most
``VALUE_FLOOR``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import (SPECTRUM_FLOOR, HFunction, _two_by_two_minors, h_of_spectrum, h_partials,
                       pure_measure)
from .sampling import _haar_stack
from .states import (PPT_SEPARABLE_TOTAL, TOL_PSD, TOL_SUPPORT, DensityMatrix, PureState,
                     _is_count, partial_transpose)

ISOMETRY_TOL = 1e-8
WEIGHT_FLOOR = 1e-14

# Riemannian descent.  A chain stops, converged, when its Riemannian
# gradient norm (Frobenius, of dF/d conj(V) projected on the tangent
# space) is at most max(GRAD_TOL, STAGE_GRAD * eps) in the stage of
# smoothing eps (GRAD_TOL at eps <= 1e-6 and on smooth kinds), an accepted
# step changes its value by at most REL_TOL * max(value, 1), backtracking
# shrinks the first-order decrease step * |gradient|^2 below that, or its
# value reaches 0 (h >= 0).  The first rule is that of the smoothing
# gradient method (X. Chen, Math. Program. 134, 71 (2012)).  A chain stops
# unconverged when backtracking shrinks its step below STEP_MIN or after
# DESCENT_ITERS steps.  Steps start at length STEP_INIT in the first
# stage and at the chain's last step in later ones.  After an accepted
# step s, with y the change of the Riemannian gradient, the next length is
# the short Barzilai-Borwein step |<s,y>| / <y,y> (Barzilai & Borwein, IMA
# J. Numer. Anal. 8, 141 (1988)) within [STEP_MIN, STEP_MAX]; by
# Cauchy-Schwarz it is never longer than the long step <s,s> / |<s,y>|,
# whose trials failed the Armijo test 3 to 10 times as often on the 2x2
# roof-oracle inputs and which ran 2x3 concurrence stages to the step cap.
# Since h >= 0, an exact value at most VALUE_FLOOR cannot be beaten by more
# than the floor: once a stopped chain has one, every chain stops.  As
# h_eps <= h, only a chain stopped at a smoothed value at most the floor
# can have one, so only its exact value is taken when it stops.
GRAD_TOL = 1e-7
STAGE_GRAD = 0.1
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
# entropy inputs of the roof-oracle benchmark, 522 steps instead of 445).
NONMONOTONE = 10
# Smoothing parameters of the kinked kinds' continuation, in stage order.
SMOOTHING = tuple(10.0**-k for k in range(1, 9))
# Product stage: Levenberg-Marquardt steps and forward-difference step.
PRODUCT_ITERS = 200
FD_STEP = 1e-8


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


def decomposition_from_isometry(rho: DensityMatrix, v: np.ndarray) -> Decomposition:
    """Decomposition induced by an isometry on the eigendecomposition.

    With eigenpairs (lam_i, e_i) of ``rho``, lam_i above ``TOL_SUPPORT``, and
    an n x r isometry ``v`` (r the rank), phi_j = sum_i v[j, i] sqrt(lam_i) e_i
    gives a state phi_j / |phi_j| of weight |phi_j|^2 over the sum, zero
    weights dropped; the mixture reconstructs ``rho``.
    """
    return _RoofObjective(None, rho).decomposition(v)


def default_n_terms(rho: DensityMatrix) -> int:
    """min(rank^2, 2 rank) capped at 8, and never below the rank, which
    ``roof_minimize`` requires; 4 for two qubits."""
    return _RoofObjective(None, rho).n_terms


def _qubit_reduction(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem of the reduced states R = ``m m^dag`` of a (..., 2, dB) stack.

    R = [[a, c], [c*, d]] has eigenvalues (a + d)/2 -+ rad with
    rad = hypot((a - d)/2, |c|), a form of the discriminant that does not
    cancel.  Returns the ascending spectrum, clipped at 0, and
    N = (R - (a + d)/2 I) / rad, the upper eigenprojector minus the lower;
    N = 0 where rad = 0, since (a - d)/2 and c are then 0.
    """
    sq = np.abs(m) ** 2
    a, d = sq[..., 0, :].sum(axis=-1), sq[..., 1, :].sum(axis=-1)
    c = (m[..., 0, :] * m[..., 1, :].conj()).sum(axis=-1)
    mid, half = 0.5 * (a + d), 0.5 * (a - d)
    rad = np.hypot(half, np.abs(c))
    mu = np.empty(mid.shape + (2,))
    mu[..., 0] = mid - rad
    mu[..., 1] = mid + rad
    inv = 1.0 / np.where(rad > 0.0, rad, 1.0)
    n = np.empty(mid.shape + (2, 2), dtype=np.complex128)
    n[..., 0, 0], n[..., 0, 1] = half * inv, c * inv
    n[..., 1, 0], n[..., 1, 1] = n[..., 0, 1].conj(), -n[..., 0, 0]
    return np.maximum(mu, 0.0, out=mu), n


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
    """The one eigendecomposition of the input, and batched average-measure
    evaluation over the isometries applied to it.  ``factor`` is the d x rank
    F = (sqrt(lam_i) e_i) over the eigenvalues above ``TOL_SUPPORT``, so
    F F^dag = rho on its support; isometry q has members phi_j = (F q^T)[:, j].
    """

    def __init__(self, h: HFunction | None, rho: DensityMatrix):
        self.h, self.dims = h, rho.dims
        dA, dB = rho.dims.bipartite("the convex roof")
        vals, vecs = np.linalg.eigh(rho.matrix)
        keep = vals > TOL_SUPPORT
        self.factor = self._weighted = vecs[:, keep] * np.sqrt(vals[keep])
        r = self.rank = self.factor.shape[1]
        self.n_terms = 4 if (dA, dB) == (2, 2) else max(r, min(r * r, 2 * r, 8))
        if dA > dB:
            # Members read as transposed (B x A) matrices, so their reduced
            # states are the smaller marginals: the larger ones pad the
            # spectrum with zeros, which the G-concurrence reads as 0.
            self._weighted = self.factor.reshape(dA, dB, -1).swapaxes(0, 1).reshape(dA * dB, -1)
        self.dA, self.dB = min(dA, dB), max(dA, dB)

    def decomposition(self, v: np.ndarray) -> Decomposition:
        """``decomposition_from_isometry`` of an n x rank isometry ``v``."""
        r = self.rank
        v = np.asarray(v, dtype=np.complex128)
        if v.ndim != 2 or v.shape[0] < r or v.shape[1] != r:
            raise ValueError(f"expected an n x {r} matrix with n >= {r}, got shape {v.shape}")
        residual = float(np.linalg.norm(v.conj().T @ v - np.eye(r)))
        if residual > ISOMETRY_TOL:
            raise ValueError(f"non-isometric input: ||V^dag V - I|| = {residual}")
        phi = self.factor @ v.T  # d x n, columns are unnormalized states
        p = np.sum(np.abs(phi) ** 2, axis=0)
        keep = np.nonzero(p > WEIGHT_FLOOR)[0]
        states = tuple(PureState(phi[:, j] / np.sqrt(p[j]), self.dims) for j in keep)
        return Decomposition(p[keep] / np.sum(p[keep]), states)

    def members(self, q: np.ndarray) -> np.ndarray:
        """Unnormalized member vectors as rows, for an isometry ``q``."""
        return q @ self._weighted.T

    def evaluate(self, q: np.ndarray, eps: float = 0.0,
                 grad: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
        """Average h (h_eps for ``eps`` > 0) of a (..., n, r) isometry stack
        and, with ``grad``, its Euclidean gradient dF/d conj(q).

        Per member M (phi reshaped dA x dB) with R = M M^dag = U diag(lambda) U^dag,
        dF/d conj(phi) = G M with G = U diag(dF/dlambda) U^dag, and phi = q W^T
        gives dF/d conj(q) = (dF/d conj(phi)) conj(W).  For dA = 2,
        G = (g_- + g_+)/2 I + (g_+ - g_-)/2 N (``_qubit_reduction``), without
        eigh.  Members of weight at most WEIGHT_FLOOR contribute 0 to both.
        """
        phi = self.members(q)
        p = np.sum(np.abs(phi) ** 2, axis=-1)
        m = phi.reshape(*phi.shape[:-1], self.dA, self.dB)
        if self.dA == 2:
            lam, n_mat = _qubit_reduction(m)
        else:
            red = m @ np.swapaxes(m, -2, -1).conj()
            lam, u = np.linalg.eigh(red) if grad else (np.linalg.eigvalsh(red), None)
            lam = np.clip(lam, 0.0, None)
        live = p > WEIGHT_FLOOR
        # Dead members get a uniform placeholder spectrum; their weight and
        # gradient are 0, so they contribute nothing either way.
        mu = np.where(live[..., None], lam / np.where(live, p, 1.0)[..., None], 1.0 / self.dA)
        vals = np.sum(np.where(live, p * h_of_spectrum(self.h, mu, eps), 0.0), axis=-1)
        if not grad:
            return vals, None
        g = np.where(live[..., None], _spectral_gradient(self.h, mu, eps), 0.0)
        if self.dA == 2:
            mean, half = 0.5 * (g[..., 0] + g[..., 1]), 0.5 * (g[..., 1] - g[..., 0])
            gmat = mean[..., None, None] * np.eye(2) + half[..., None, None] * n_mat
        else:
            gmat = (u * g[..., None, :]) @ np.swapaxes(u, -2, -1).conj()
        return vals, (gmat @ m).reshape(phi.shape) @ self._weighted.conj()


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Real inner product Re Tr(a^dag b) per matrix of two stacks."""
    return np.sum((a.conj() * b).real, axis=(-2, -1))


def _tangent(q: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Projection of ``e`` onto the tangent space of the Stiefel manifold at ``q``."""
    qe = np.swapaxes(q, -2, -1).conj() @ e
    return e - q @ (0.5 * (qe + np.swapaxes(qe, -2, -1).conj()))


def _riemannian_descent(
    objective: _RoofObjective, q: np.ndarray, eps: float = 0.0, step: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradient descent on the Stiefel manifold, on h_eps for ``eps`` > 0.

    ``q`` is a (chains, n, r) stack of isometries, advanced in lockstep.
    Each chain steps along its negative Riemannian gradient, retracts by
    QR, and takes a Barzilai-Borwein step size with nonmonotone Armijo
    backtracking (see ``NONMONOTONE``); step sizes are per chain, starting
    at ``step`` when given.  Chains stop by the rules stated at
    ``GRAD_TOL``, a step's decrease counting by its magnitude.  Returns
    every chain's (q, exact value, converged, step).  For ``eps`` > 0 each
    exact value is evaluated once: when the chain stops at a smoothed
    value at most VALUE_FLOOR, and otherwise in one batched call when the
    descent ends.
    """
    q = q.copy()
    vals, egrad = objective.evaluate(q, eps, grad=True)
    grad = _tangent(q, egrad)
    gnorm2 = _inner(grad, grad)
    gtol2 = max(GRAD_TOL, STAGE_GRAD * eps) ** 2
    step = STEP_INIT / np.sqrt(np.maximum(gnorm2, GRAD_TOL**2)) if step is None else step.copy()
    converged = (gnorm2 <= gtol2) | (vals <= 0.0)
    active = ~converged
    stopped = np.nonzero(converged)[0]
    exact = vals if eps == 0.0 else np.full(len(q), np.nan)
    recent = np.repeat(vals[:, None], NONMONOTONE, axis=1)
    accepted = np.zeros(len(q), dtype=int)
    for _ in range(DESCENT_ITERS):
        low = stopped[vals[stopped] <= VALUE_FLOOR]
        if eps and low.size:
            exact[low] = objective.evaluate(q[low])[0]
        if np.any(exact[low] <= VALUE_FLOOR):
            break
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        trial = _haar_stack(q[idx] - step[idx, None, None] * grad[idx])
        trial_vals, trial_grad = objective.evaluate(trial, eps, grad=True)
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
        g_new = _tangent(q_new, trial_grad[ok])
        s, y = q_new - q[acc], g_new - grad[acc]
        rel = np.abs(vals[acc] - v_new) / np.maximum(vals[acc], 1.0)
        q[acc], vals[acc], grad[acc] = q_new, v_new, g_new
        accepted[acc] += 1
        recent[acc, accepted[acc] % recent.shape[1]] = v_new
        gnorm2[acc] = _inner(g_new, g_new)
        sy = np.abs(_inner(s, y))
        step[acc] = np.clip(sy / np.maximum(_inner(y, y), 1e-300), STEP_MIN, STEP_MAX)
        done = acc[(gnorm2[acc] <= gtol2) | (rel <= REL_TOL) | (v_new <= 0.0)]
        active[done] = False
        converged[done] = True
        stopped = np.concatenate([stopped, done])
    # The exact values of the chains still active or stopped above the floor.
    rest = np.isnan(exact)
    if rest.any():
        exact[rest] = objective.evaluate(q[rest])[0]
    return q, exact, converged, step


def _minors(objective: _RoofObjective, q: np.ndarray) -> np.ndarray:
    """Real and imaginary parts of the 2x2 minors of every member's dA x dB
    amplitude matrix, one row per isometry: all 0 exactly on product ensembles."""
    m = objective.members(q).reshape(*q.shape[:-1], objective.dA, objective.dB)
    minors = _two_by_two_minors(m).reshape(*q.shape[:-2], -1)
    return np.concatenate([minors.real, minors.imag], axis=-1)


def _product_stage(objective: _RoofObjective, q: np.ndarray) -> np.ndarray | None:
    """An isometry near ``q`` whose members are products, or None.

    Levenberg-Marquardt on ``_minors`` over the 2 n r real parameters of
    q + X, retracted by QR, with a forward-difference Jacobian from one
    batched evaluation.  Gauss-Newton steps converge fast on such
    zero-residual problems even with a rank-deficient Jacobian (Yamashita &
    Fukushima, Computing Suppl. 15, 239 (2001)), where first-order descent
    crawls.  Returns the first iterate whose sum of squared minors is at
    most VALUE_FLOOR^2, or None after PRODUCT_ITERS steps.
    """
    n, r = q.shape
    dirs = FD_STEP * np.concatenate([np.eye(n * r), 1j * np.eye(n * r)]).reshape(-1, n, r)
    res = _minors(objective, q)
    damping = 1e-3
    for _ in range(PRODUCT_ITERS):
        cost = res @ res
        if cost <= VALUE_FLOOR**2:
            return q
        jac_t = (_minors(objective, _haar_stack(q + dirs)) - res) / FD_STEP
        jtj = jac_t @ jac_t.T
        step = np.linalg.solve(jtj + damping * np.eye(len(jtj)), -(jac_t @ res)).reshape(2, n, r)
        trial = _haar_stack(q + step[0] + 1j * step[1])
        trial_res = _minors(objective, trial)
        if trial_res @ trial_res < cost:
            q, res, damping = trial, trial_res, damping / 3.0
        else:
            damping *= 2.0
    return None


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
    search ends.  A 2x2 or 2x3 PPT input goes to the product stage first,
    and after the descent again when the winner is above the floor;
    ``converged`` then means a value at most ``VALUE_FLOOR``.  A
    ``restarts`` or ``n_terms`` that is not an integer of at least 1
    raises ValueError, as does an ``n_terms`` below the rank.
    """
    if not _is_count(restarts) or not (n_terms is None or _is_count(n_terms)):
        raise ValueError("restarts and n_terms must be integers of at least 1, "
                         f"got {restarts!r} and {n_terms!r}")
    objective = _RoofObjective(h, rho)
    rng = np.random.default_rng(0) if rng is None else rng
    r = objective.rank
    n_terms = objective.n_terms if n_terms is None else n_terms
    if n_terms < r:
        raise ValueError(f"n_terms = {n_terms} is below the state rank {r}")

    if r == 1:
        best = objective.decomposition(np.eye(1))
        return RoofResult(best.average_value(h), best, 0, True)

    # Peres-Horodecki: a PPT input is separable on these dimensions, so its
    # roof is 0; the product stage tries chain 0's start before any descent.
    ppt = (rho.dims.total <= PPT_SEPARABLE_TOTAL
           and np.linalg.eigvalsh(partial_transpose(rho))[0] >= -TOL_PSD)
    base_seed = int(rng.integers(2**62))
    shape = (n_terms, r)
    xs = np.empty((restarts,) + shape, dtype=np.complex128)
    xs[0] = np.eye(n_terms, r)
    for j in range(1, restarts):
        z = np.random.default_rng(base_seed + j).standard_normal((2,) + shape)
        xs[j] = (z[0] + 1j * z[1]) / np.sqrt(2.0)

    q = _haar_stack(xs)
    if ppt:
        product = _product_stage(objective, q[0])
        value = np.inf if product is None else float(objective.evaluate(product)[0])
        if value <= VALUE_FLOOR:
            return RoofResult(value, objective.decomposition(product), restarts, True)
    # Each chain keeps its least exact value over the stages, and the
    # isometry that reached it: a later stage can end above an earlier one.
    best_vals = np.full(restarts, np.inf)
    best_q, step = q, None
    for eps in SMOOTHING if is_kinked(h) else (0.0,):
        q, exact, converged, step = _riemannian_descent(objective, q, eps, step)
        lower = exact < best_vals
        best_vals = np.where(lower, exact, best_vals)
        best_q = np.where(lower[:, None, None], q, best_q)
        if np.any(exact <= VALUE_FLOOR):
            break
    winner = int(np.argmin(best_vals))  # argmin takes the earliest index on ties
    value, q = float(best_vals[winner]), best_q[winner]
    converged = bool(converged[winner] or value <= VALUE_FLOOR)
    if value > VALUE_FLOOR and ppt:
        # The product stage again, from the winner; ``converged`` then
        # means that it certified the roof's 0.
        product = _product_stage(objective, q)
        if product is not None:
            value, q = float(objective.evaluate(product)[0]), product
        converged = value <= VALUE_FLOOR
    return RoofResult(value, objective.decomposition(q), restarts, converged)
