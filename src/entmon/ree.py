"""Relative entropy of entanglement E_r(rho), min S(rho || sigma) over separable sigma.

A factor of dimension 1 makes every state separable: E_r = 0, certified.  On n = dA dB <= 6
(``PPT_SEPARABLE_TOTAL``) separable means PPT (Horodecki, Horodecki & Horodecki, PLA 223, 1
(1996)), and ``_barrier_minimize`` follows a log-barrier path, each stage started at the center
extrapolated from the last two: each strictly PPT iterate bounds E_r from above and a dual
point from below, so the width is a certificate.  Beyond, ``_atom_minimize`` runs fully
corrective Frank-Wolfe over product projectors (Rehacek & Hradil, PRL 90, 127904 (2003);
Zinchenko, Friedland & Gour, PRA 82, 052336 (2010)), its product search resumed from the last
one's best minimizers, with inexact Newton weight steps as in blended conditional gradients
(Braun, Pokutta, Tu & Wright, ICML 2019) by block principal pivoting (Judice & Pires, Comput.
Oper. Res. 21, 587 (1994); Kim & Park, SIAM J. Sci. Comput. 33, 3261 (2011)): an upper
bound, with a duality-gap estimate that is no certificate.  Both solvers take the derivative of
-Tr[rho ln sigma] from one divided difference kernel, ``_log_kernel``, and its Hessian from one
contraction, ``_log_hessian``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import LocalKrausChannel, _gram_outcomes, _padded_kraus
from .states import (
    PPT_SEPARABLE_TOTAL,
    DensityMatrix,
    DimensionMismatchError,
    TOL_SUPPORT,
    _is_count,
    _partial_transpose_array,
    _rel_entropy_stack,
    von_neumann_entropy,
)

GAP_TOL = 1e-4
RESTARTS = 8  # random starts of the product search per iteration, and rows it carries on
EIG_FLOOR = 1e-14
INNER_ROUNDS = 3  # alternating rounds of a product search; its carried rows resume the last
CONFIRM_ROUNDS = 12  # rounds of the confirmation search that decides convergence
INNER_VAL_TOL = 1e-10
MAX_TOTAL_DIM = 16
ARMIJO = 1e-4  # sufficient-decrease fraction of a weight step
HALVINGS = 20  # weight-step halvings tried before a re-optimization ends
FLOOR_RATIO = 0.1  # lowest eigenvalue of sigma a weight step keeps, relative to its start
KKT_TOL = 1e-9  # projected-gradient norm that ends a weight re-optimization
FINAL_STEPS = 20  # Newton steps of the first iteration and of a converged run's last
DEDUPE_OVERLAP = 0.99  # |<p|q>|^2 at which a new atom repeats another
BARRIER_GROWTH = 20.0  # t's factor from one centering stage of the barrier path to the next
BARRIER_END = 1e-10  # the path ends once 2n / t, the central points' gap, is at most this
QUADRATIC = 0.25  # squared Newton decrement below which barrier steps skip the Armijo test
CENTERED = 1e-12  # squared Newton decrement that ends a centering stage


@dataclass(frozen=True)
class ReeResult:
    """Upper bound on E_r with the separable iterate that achieves it.  On n <= 6 ``iterations``
    counts Newton steps, each stage's extrapolated start among them, ``duality_gap_estimate`` is
    the certified width (value - lower bound), ``converged`` means it is at most GAP_TOL and
    ``atoms`` is 0; beyond (``upper_bound_only``) they are the atom solver's iterations, gap
    estimate, confirmed gap below GAP_TOL and atoms.  A factor of dimension 1 gives 0, certified."""

    value: float
    closest_separable: DensityMatrix
    iterations: int
    duality_gap_estimate: float
    converged: bool
    upper_bound_only: bool
    atoms: int


@dataclass(frozen=True)
class DataProcessingReport:
    """Both sides of the outcome-ensemble relative-entropy inequality."""

    outcome_divergence: float  # sum_i S(p_i rho_i || q_i sigma_i)
    total_divergence: float  # S(rho || sigma)
    gap: float  # total - outcome, >= 0 up to roundoff
    p: np.ndarray
    q: np.ndarray
    max_prob_deviation: float
    skipped_reason: str | None = None


def _log_kernel(mu: np.ndarray) -> np.ndarray:
    """First divided differences of ln at the positive ``mu``: log1p(gap / lo) / gap over each
    pair's lower value lo and its gap, 1 / lo where they are equal.  No difference of logarithms
    cancels, so at any gap each entry is within about eps of it, relative."""
    lo = np.minimum.outer(mu, mu)
    gap = np.abs(np.subtract.outer(mu, mu))
    same = gap == 0.0
    return np.where(same, 1.0 / lo, np.log1p(gap / lo) / np.where(same, 1.0, gap))


@functools.cache
def _triples(n: int) -> np.ndarray:
    """Each index triple in range(n)^3, sorted: lowest, middle, highest."""
    return np.sort(np.indices((n,) * 3), axis=0)


def _log_kernel2(mu: np.ndarray, l1: np.ndarray) -> np.ndarray:
    """Second divided differences of ln at the ascending ``mu``, from its
    ``_log_kernel`` ``l1``: each triple is divided across its outer two, and
    where those meet to 1e-4, -1/(2 m^2) at the mean m is exact to ~1e-8."""
    lo, mid, hi = _triples(len(mu))
    span = mu[hi] - mu[lo]
    near = span < 1e-4 * mu[hi]
    return np.where(near, -4.5 / (mu[lo] + mu[mid] + mu[hi]) ** 2,
                    (l1[hi, mid] - l1[mid, lo]) / np.where(near, 1.0, span))


def _log_hessian(x: np.ndarray, mu: np.ndarray, l1: np.ndarray, rho_t: np.ndarray) -> np.ndarray:
    """Hessian of sigma -> -Tr[rho ln sigma] along the (k, n, n) stack ``x`` of Hermitian
    directions in sigma's eigenbasis, where sigma has the ascending eigenvalues ``mu``, their
    ``_log_kernel`` ``l1``, and rho reads ``rho_t``."""
    k, n = x.shape[:2]
    # D^2 f[X, Y] = -2 Re sum_imj rho_t[j, i] ln[mu_i, mu_m, mu_j] X_im Y_mj
    p = x.transpose(2, 0, 1) @ (_log_kernel2(mu, l1) * rho_t.T[:, None, :]).transpose(1, 0, 2)
    p = p.transpose(1, 0, 2).reshape(k, n * n)
    h = p.view(float) @ x.conj().reshape(k, n * n).view(float).T
    return -(h + h.T)


def _partial_expectation(g4: np.ndarray, x: np.ndarray) -> np.ndarray:
    """<x|G|x> over the first factor of G as ``g4`` (dX, dY, dX, dY), one dY x dY
    matrix per row of ``x``, Hermitian up to roundoff (``eigh`` reads one triangle)."""
    t = (x.conj() @ g4.reshape(len(g4), -1)).reshape(len(x), *g4.shape[1:])
    return (x[:, None, None, :] @ t)[:, :, 0]


def _min_product_expectation(
    g: np.ndarray,
    dA: int,
    dB: int,
    restarts: int,
    rng: np.random.Generator,
    warm: np.ndarray,
    rounds: int = INNER_ROUNDS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local minimizers over product vectors of <a b|G|a b>, one per start.

    Alternates the minimal-eigenvector update of each factor for up to
    ``rounds`` rounds; all starts advance in one batched sweep.  The ``(k,
    dA)`` stack ``warm`` of A factors (the previous search's best) goes first,
    then ``restarts`` random starts.  Each half-step is nonincreasing, so a
    warm row ends at or below lambda_min(<a|G|a>) at its start.  Returns the
    A factors, the B factors and the values, one row per start.
    """
    g4 = g.reshape(dA, dB, dA, dB)
    g4_b = np.ascontiguousarray(g4.transpose(1, 0, 3, 2))  # the factors swapped
    z = rng.standard_normal((2, restarts, dA))
    a = z[0] + 1j * z[1]
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    a = np.vstack([warm, a])
    vals = np.full(a.shape[0], np.inf)
    b = np.zeros((a.shape[0], dB), dtype=complex)
    for _ in range(rounds):
        b = np.linalg.eigh(_partial_expectation(g4, a))[1][:, :, 0]
        wa, va = np.linalg.eigh(_partial_expectation(g4_b, b))
        a = va[:, :, 0]
        new_vals = wa[:, 0]
        if float(np.max(np.abs(new_vals - vals))) < INNER_VAL_TOL:
            vals = new_vals
            break
        vals = new_vals
    return a, b, vals


def _new_atoms(a: np.ndarray, b: np.ndarray, vals: np.ndarray, level: float) -> np.ndarray:
    """Product vectors of the candidates whose value lies below ``level``.

    Best first; a candidate whose overlap |<p|q>|^2 with one already taken
    reaches ``DEDUPE_OVERLAP`` is dropped as a repeat of it.
    """
    order = np.argsort(vals)[:np.count_nonzero(vals < level)]
    cands = (a[:, :, None] * b[:, None, :]).reshape(len(vals), -1)[order]
    repeats = (np.abs(cands.conj() @ cands.T) ** 2 >= DEDUPE_OVERLAP).tolist()
    taken: list[int] = []
    for r, rep in enumerate(repeats):
        if not any(rep[q] for q in taken):
            taken.append(r)
    return cands[taken]


def _caratheodory(atoms: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The same sigma from at most n^2 of the atoms.

    The projectors live in the n^2-dimensional real space of Hermitian
    matrices, so beyond n^2 atoms the weights have null directions z with
    sum_k z_k pi_k = 0.  Moving along each until a weight reaches zero
    drops that atom and leaves sigma unchanged up to roundoff.
    """
    k, n = atoms.shape
    # Real coordinates of each projector: its diagonal and the real and
    # imaginary parts of its upper triangle, n^2 numbers in all.
    iu = np.triu_indices(n, 1)
    p = atoms[:, :, None] * atoms.conj()[:, None, :]
    off = p[:, iu[0], iu[1]]
    coords = np.hstack([np.diagonal(p, axis1=1, axis2=2).real, off.real, off.imag])
    z = np.linalg.qr(coords, mode="complete")[0][:, n * n:]
    v = weights.copy()
    alive = np.ones(k, dtype=bool)
    for i in range(z.shape[1]):
        zi = np.where(alive, z[:, i], 0.0)
        pos = zi > 0.0
        if not np.any(pos):
            continue
        ratio = np.full(k, np.inf)
        ratio[pos] = v[pos] / zi[pos]
        j = int(np.argmin(ratio))
        v = v - ratio[j] * zi
        v[j] = 0.0
        alive[j] = False
        z[:, i + 1:] -= np.outer(zi, z[j, i + 1:] / zi[j])
    v = np.clip(v[alive], 0.0, None)
    return atoms[alive], v / float(np.sum(v))


def _assemble(atoms: np.ndarray, weights: np.ndarray) -> np.ndarray:
    s = (atoms.T * weights) @ atoms.conj()
    return 0.5 * (s + s.conj().T)


def _eigensystem(v: np.ndarray, atoms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigma = sum_k v_k pi_k diagonalized, unsymmetrized: ``eigh`` reads one triangle."""
    return np.linalg.eigh((atoms.T * v) @ atoms.conj())


def _objective_value(v: np.ndarray, rho_m: np.ndarray, eig: tuple, floor: float) -> tuple:
    """The objective's value at sigma's ``eig`` (inf once mu[0] <= floor), clipped mu, rho_t."""
    mu, u = eig
    f = math.inf if mu[0] <= floor else float(np.sum(v))
    mu = np.clip(mu, EIG_FLOOR, None)
    rho_t = u.conj().T @ rho_m @ u
    return f - float(np.real(np.diagonal(rho_t)) @ np.log(mu)), mu, rho_t


def _weight_objective(v: np.ndarray, rho_m: np.ndarray, atoms: np.ndarray,
                      hessian: bool = False, eig: tuple | None = None) -> tuple:
    """Value, gradient and G of v -> -Tr[rho ln sum_k v_k pi_k] + sum_k v_k,
    and with ``hessian`` its Hessian and sigma's lowest eigenvalue, unclipped;
    the value is +inf once that eigenvalue is at most EIG_FLOOR.

    G is the Hermitized Frechet derivative of -Tr[rho ln sigma], the gradient
    <a_k|G|a_k> + 1 and the Hessian ``_log_hessian`` along the atoms' projectors
    u^dag pi_k u.  One eigensystem of sigma, ``eig`` where the caller has it, serves
    all five, in its eigenbasis with the eigenvalues clipped at EIG_FLOOR.
    """
    mu, u = _eigensystem(v, atoms) if eig is None else eig
    lowest = float(mu[0])
    f, mu, rho_t = _objective_value(v, rho_m, (mu, u), EIG_FLOOR)
    l1 = _log_kernel(mu)
    g = -(u @ (rho_t * l1) @ u.conj().T)
    g = 0.5 * (g + g.conj().T)
    grad = 1.0 + ((atoms.conj() @ g) * atoms).sum(1).real
    if not hessian:
        return f, grad, g
    c = atoms @ u.conj()  # the rows u^dag a_k
    return f, grad, g, _log_hessian(c[:, :, None] * c.conj()[:, None, :], mu, l1, rho_t), lowest


def _reoptimize_weights(rho_m: np.ndarray, atoms: np.ndarray, weights: np.ndarray, eig: tuple,
                        steps: int = 1) -> tuple[np.ndarray, tuple]:
    """Approximate argmin over v >= 0 of ``_weight_objective`` from ``weights``,
    where sigma's eigensystem is ``eig``, and sigma's eigensystem at it.

    Bounds only: along the scale t of v the derivative is 1 - 1/t, so sum
    v = 1 holds at the optimum.  Each of up to ``steps`` Newton steps goes
    towards the minimizer over v >= 0 of the quadratic model with
    Hessian H + s diag(1 + diag H), where s = p / (1 + p) for the projected
    gradient norm p tames a singular H and far starts.  The step is halved
    until it passes the Armijo test and keeps sigma's lowest eigenvalue above
    FLOOR_RATIO of its start, a barrier ln alone enforces too weakly.
    """
    v = weights
    for _ in range(steps):
        f, g, _, h, lowest = _weight_objective(v, rho_m, atoms, hessian=True, eig=eig)
        pg = float(np.linalg.norm(v - np.maximum(v - g, 0.0)))
        if pg <= KKT_TOL:
            break
        a = h + pg / (1 + pg) * np.diag(1 + np.diag(h))
        d = _nonnegative_qp(a, a @ v - g, v) - v
        floor = max(EIG_FLOOR, FLOOR_RATIO * lowest)
        slope = ARMIJO * float(g @ d)
        for alpha in 0.5 ** np.arange(HALVINGS):
            w = v + alpha * d
            eig_w = _eigensystem(w, atoms)
            if _objective_value(w, rho_m, eig_w, floor)[0] <= f + alpha * slope:
                break
        else:
            break
        v, eig = w, eig_w
    return v, eig


def _nonnegative_qp(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """argmin over x >= 0 of x.a.x / 2 - b.x, for positive definite ``a``.

    Block principal pivoting (Judice & Pires 1994; Kim & Park 2011) from ``x`` with each
    weight free that is positive or would enter: solve on the free set, swap each infeasible
    weight (z <= 0 if free, gradient below -``entry`` if fixed); after 3 swaps that leave no
    fewer, Murty's backup rule swaps the highest infeasible index alone, from the best set.
    """
    entry = 1e-14 * (1.0 + np.abs(b).max())
    free = (x > 0.0) | (b - a @ x > entry)
    fewest, spare = len(b) + 1, 3
    for _ in range(3 * len(b)):
        z = np.zeros_like(x)
        z[free] = np.linalg.solve(a[free][:, free], b[free])
        bad = np.flatnonzero(np.where(free, z <= 0.0, b - a @ z > entry))
        if len(bad) == 0:
            break
        if len(bad) < fewest:
            fewest, spare, best = len(bad), 3, (free.copy(), bad)
        elif spare > 0:
            spare -= 1
        else:
            if spare == 0:  # the backup rule starts from the fewest infeasible
                (free, bad), spare = best, -1
            bad = bad[-1:]
        free[bad] = ~free[bad]
    return np.maximum(z, 0.0)


@functools.cache
def _traceless_basis(dA: int, dB: int) -> np.ndarray:
    """An orthonormal basis of the traceless Hermitian matrices on dA x dB over its
    partial transposes on B, as a (2, n^2 - 1, n, n) stack."""
    n = dA * dB
    i, j = np.triu_indices(n, 1)
    off = np.zeros((2, len(i), n, n), dtype=complex)
    off[:, np.arange(len(i)), i, j] = np.array([[1.0], [-1j]]) * 2 ** -0.5
    off += off.conj().swapaxes(2, 3)
    diag = np.linalg.qr(np.ones((n, 1)), mode="complete")[0][:, 1:]
    basis = np.concatenate([diag.T[:, :, None] * np.eye(n), off.reshape(-1, n, n)])
    return np.stack([basis, _partial_transpose_array(basis, dA, dB, "B")])


def _barrier_point(sigma: np.ndarray, rho_m: np.ndarray, dA: int, dB: int) -> tuple | None:
    """Stacked eigensystems of sigma and sigma^{T_B}, rho in sigma's eigenbasis,
    -Tr[rho ln sigma] and ln det sigma sigma^{T_B}; None unless both are > 0."""
    w, x = np.linalg.eigh(np.stack([sigma, _partial_transpose_array(sigma, dA, dB, "B")]))
    if w[:, 0].min() <= 0.0:
        return None
    rho_t = x[0].conj().T @ rho_m @ x[0]
    lw = np.log(w)
    return w, x, rho_t, -float(np.real(np.diagonal(rho_t)) @ lw[0]), float(np.sum(lw))


def _barrier_newton(point: tuple, basis: np.ndarray) -> tuple:
    """Gradients and Hessians of f = -Tr[rho ln sigma] and of -ln det sigma
    sigma^{T_B} in the coordinates of ``_traceless_basis``, and G = D f in
    sigma's eigenbasis."""
    w, x, rho_t, _, _ = point
    k, n = basis.shape[1:3]
    l1 = _log_kernel(w[0])
    g = -(rho_t * l1)
    # X -> U^dag X U of each flattened basis matrix, U = x[0] (x[1] for the transposes)
    b = basis.reshape(2, k, n * n) @ (x.conj()[:, :, None, :, None]
                                      * x[:, None, :, None]).reshape(2, n * n, n * n)
    grad_b = -np.einsum("ski,si->k", b[:, :, ::n + 1].real, 1.0 / w)
    c = b / np.sqrt(w[:, :, None] * w[:, None, :]).reshape(2, 1, n * n)
    c = c.transpose(1, 0, 2).reshape(k, 2 * n * n).view(float)
    hess_f = _log_hessian(b[0].reshape(k, n, n), w[0], l1, rho_t)
    return b[0].view(float) @ g.reshape(-1).view(float), hess_f, grad_b, c @ c.T, g


def _barrier_lower(point: tuple, g: np.ndarray, t: float, dA: int, dB: int) -> float:
    """-Tr[rho ln sigma] + 1 + lambda_min(G - Q^{T_B}) at ``point``, Q = (sigma^{T_B})^{-1} / t,
    at most -Tr[rho ln sigma'] for every PPT sigma' (convexity, Tr[G sigma] = -1, Q >= 0),
    less 4 eps ||G||_F for G's rounding (``_log_kernel`` holds each entry to about eps,
    relative) and 8 n eps times the other terms."""
    w, x, rho_t, f, _ = point
    q = (x[1] / (t * w[1])) @ x[1].conj().T
    lam = np.linalg.eigvalsh(g - x[0].conj().T @ _partial_transpose_array(q, dA, dB, "B")
                             @ x[0])
    eps = np.finfo(float).eps
    scale = np.abs(lam).max() + np.linalg.norm(q) + np.abs(np.log(w[0])).max() + 1.0
    return float(f + 1.0 + lam[0] - 4 * eps * np.linalg.norm(g) - 8 * len(w[0]) * eps * scale)


def _barrier_minimize(rho: DensityMatrix, dA: int, dB: int, max_iters: int) -> ReeResult:
    """E_r bracketed on n <= 6 by the path of t S(rho || sigma) - ln det sigma
    sigma^{T_B} over Tr sigma = 1 (Boyd & Vandenberghe, Convex Optimization,
    ch. 11), from I/n at t = 1.  A Newton step is halved until sigma and
    sigma^{T_B} stay positive definite and, at squared decrements of QUADRATIC
    or more, the Armijo test passes; the accepted point's eigensystems serve
    the next step.  A stage ends at a squared decrement of at most CENTERED, at
    a full step that fails to halve it (roundoff rules there) or where no
    halving passes; t grows BARRIER_GROWTH-fold until 2n/t <= BARRIER_END.  As sigma(t) = sigma*
    + a/t + O(1/t^2), each later stage starts with a step, counted as a Newton step, to sigma_k +
    (sigma_k - sigma_{k-1}) / BARRIER_GROWTH from the last two centers, if strictly PPT.  At each
    stage's end and at the ``max_iters`` cap, ``_barrier_lower`` bounds E_r from below.
    The lowest S(rho || sigma) met and the highest lower bound are kept."""
    basis = _traceless_basis(dA, dB)
    n, rho_m, s_rho = dA * dB, rho.matrix, von_neumann_entropy(rho)
    sigma, center = np.eye(n, dtype=complex) / n, None
    point = _barrier_point(sigma, rho_m, dA, dB)
    t, steps, prev, lower, best, newton = 1.0, 0, math.inf, -math.inf, (point[3], sigma), None
    while True:
        grad_f, hess_f, grad_b, hess_b, g = newton = newton or _barrier_newton(point, basis)
        grad = t * grad_f + grad_b
        dz = np.linalg.solve(t * hess_f + hess_b, -grad)
        dec = -float(grad @ dz)  # the squared Newton decrement
        trial = None
        if dec > CENTERED and not prev / 2 <= dec < QUADRATIC and steps < max_iters:
            step, phi = np.tensordot(dz, basis[0], 1), t * point[3] - point[4]
            for alpha in 0.5 ** np.arange(HALVINGS):
                trial = _barrier_point(sigma + alpha * step, rho_m, dA, dB)
                if trial is not None and (dec < QUADRATIC
                                          or t * trial[3] - trial[4] <= phi - ARMIJO * alpha * dec):
                    break
                trial = None
        if trial is None:  # centered, stuck or capped: certify, then raise t
            lower = max(lower, _barrier_lower(point, g, t, dA, dB) - s_rho)
            if steps >= max_iters or 2 * n / t <= BARRIER_END:
                break
            t, prev, dec = t * BARRIER_GROWTH, math.inf, math.inf
            if center is not None:  # a step to the center extrapolated from the last two
                step, alpha = sigma - center, 1.0 / BARRIER_GROWTH
                trial = _barrier_point(sigma + alpha * step, rho_m, dA, dB)
            center = sigma
            if trial is None:
                continue
        steps, point, newton, prev, sigma = steps + 1, trial, None, dec, sigma + alpha * step
        best = min(best, (point[3], sigma), key=lambda b: b[0])
    value = max(0.0, best[0] - s_rho)
    return ReeResult(value=value, closest_separable=DensityMatrix(best[1], rho.dims),
                     iterations=steps, duality_gap_estimate=value - lower,
                     converged=value - lower <= GAP_TOL, upper_bound_only=False, atoms=0)


def ree_minimize(
    rho: DensityMatrix,
    max_iters: int = 2000,
    rng: np.random.Generator | None = None,
) -> ReeResult:
    """Upper bound on the relative entropy of entanglement of ``rho``: the barrier
    path (``_barrier_minimize``, no draw from ``rng``) on n = dA dB at most
    ``PPT_SEPARABLE_TOTAL``, the atom solver (``_atom_minimize``) beyond, and a
    certified 0 with no work where dA or dB is 1.
    ``max_iters`` caps Newton steps or iterations; one that is not an integer
    of at least 1 raises ValueError.  Non-convergence shows in ``converged``."""
    if not _is_count(max_iters):
        raise ValueError(f"max_iters must be an integer of at least 1, got {max_iters!r}")
    dA, dB = rho.dims.bipartite("E_r")
    n = dA * dB
    if n > MAX_TOTAL_DIM:
        raise DimensionMismatchError(f"total dimension {n} exceeds the desk-scale cap {MAX_TOTAL_DIM}")
    if min(dA, dB) == 1:  # every state of a product system is separable: sigma = rho
        return ReeResult(value=0.0, closest_separable=rho, iterations=0, duality_gap_estimate=0.0,
                         converged=True, upper_bound_only=False, atoms=0)
    if n <= PPT_SEPARABLE_TOTAL:
        return _barrier_minimize(rho, dA, dB, max_iters)
    return _atom_minimize(rho, max_iters, rng)


def _atom_minimize(rho: DensityMatrix, max_iters: int = 2000,
                   rng: np.random.Generator | None = None) -> ReeResult:
    """The atom solver's upper bound on E_r, on any dims within the cap.  Starts
    from the maximally mixed state (interior, full support).  Each iteration runs
    the product search from the A factors of the last search's ``RESTARTS``
    lowest candidates plus ``RESTARTS`` random starts for ``INNER_ROUNDS``
    rounds; a gap below ``GAP_TOL`` is confirmed by a search from the same
    carried rows plus 8 ``RESTARTS`` fresh starts for ``CONFIRM_ROUNDS``.  Every
    distinct local minimizer that lies below the linearization Tr[G sigma] joins the
    atom list at weight 0, and one Newton step corrects all weights (FINAL_STEPS in
    the first).  A list of more than 2 n^2 atoms (n = dA dB) is cut back to n^2
    atoms with the same sigma, so ``atoms`` in the result is at most 2 n^2.  Stops
    when the Frank-Wolfe duality-gap estimate drops below ``GAP_TOL`` (``converged``
    is then True, and that iteration's step still runs, to FINAL_STEPS, so the gap
    is that of the state before it), when a step no longer lowers the objective, or
    after ``max_iters`` iterations."""
    dA, dB = rho.dims.factors
    n = dA * dB
    if rng is None:
        rng = np.random.default_rng(0)
    base_seed = int(rng.integers(2**62))

    rho_m = rho.matrix
    # S(rho || sigma) at weights summing to 1 is the weight objective plus this.
    offset = -1.0 - von_neumann_entropy(rho)

    # Atom list: rows are product vectors, weights sum to 1.  The start is
    # the maximally mixed state, itself a mixture of product basis states.
    atoms = np.eye(n, dtype=complex)
    weights = np.full(n, 1.0 / n)
    eig = _eigensystem(weights, atoms)
    f, grad, g = _weight_objective(weights, rho_m, atoms, eig=eig)
    gap = math.inf
    iterations = 0
    converged = False
    carried = np.zeros((0, dA), dtype=complex)  # A factors handed to the next search
    for t in range(max_iters):
        iterations = t + 1
        level = float(weights @ grad) - 1.0  # Tr[G sigma], as the weights sum to 1
        inner_rng = np.random.default_rng(base_seed + t)
        a, b, vals = _min_product_expectation(g, dA, dB, RESTARTS, inner_rng, carried)
        gap = level - float(np.min(vals))
        if gap < GAP_TOL:
            # The gap rests on an approximate inner solve; confirm with a
            # harder search before declaring convergence.
            a2, b2, vals2 = _min_product_expectation(
                g, dA, dB, 8 * RESTARTS,
                np.random.default_rng(base_seed + t + 7_777_777), carried, CONFIRM_ROUNDS,
            )
            a, b, vals = np.vstack([a, a2]), np.vstack([b, b2]), np.concatenate([vals, vals2])
            gap = level - float(np.min(vals))
            # A confirmed gap still takes this step with the candidates found.
            converged = gap < GAP_TOL
        carried = a[np.argsort(vals)[:RESTARTS]]

        # Fully corrective step: add the new atoms at weight 0 (sigma stays),
        # re-optimize all weights, drop the atoms that reach zero.
        new = _new_atoms(a, b, vals, level)
        cand = np.vstack([atoms, new])
        v, (mu, u) = _reoptimize_weights(rho_m, cand, np.append(weights, np.zeros(len(new))),
                                         eig, FINAL_STEPS if converged or t == 0 else 1)
        keep = v > 0.0
        s = float(np.sum(v[keep]))
        v, new_eig = v[keep] / s, (mu / s, u)
        new_f, new_grad, new_g = _weight_objective(v, rho_m, cand[keep], eig=new_eig)
        if new_f >= f:
            break
        atoms, weights, f, grad, g, eig = cand[keep], v, new_f, new_grad, new_g, new_eig
        if len(weights) > 2 * n * n:
            # Weights that stay positive but not unique (a closest state
            # with a continuum of decompositions) would let the list grow
            # without bound; between n^2 and 2 n^2 atoms the re-optimization
            # keeps the spare atoms it makes progress with.
            atoms, weights = _caratheodory(atoms, weights)
            eig = _eigensystem(weights, atoms)
            _, grad, g = _weight_objective(weights, rho_m, atoms, eig=eig)
        if converged:
            break

    return ReeResult(
        value=max(0.0, offset + f),
        closest_separable=DensityMatrix(_assemble(atoms, weights), rho.dims),
        iterations=iterations,
        duality_gap_estimate=gap,
        converged=converged,
        upper_bound_only=n > PPT_SEPARABLE_TOTAL,
        atoms=len(weights),
    )


def ree_data_processing_check(
    rho: DensityMatrix, sigma: DensityMatrix, channel: LocalKrausChannel
) -> DataProcessingReport:
    """Compare sum_i S(p_i rho_i || q_i sigma_i) with S(rho || sigma): the
    one-pair case of ``_data_processing_stack``."""
    if rho.dims.factors != sigma.dims.factors:
        raise DimensionMismatchError("states must share dims")
    return _data_processing_stack(np.stack([rho.matrix, sigma.matrix])[None], [channel],
                                  rho.dims)[0]


def _data_processing_stack(mats: np.ndarray, channels, dims) -> list[DataProcessingReport]:
    """``ree_data_processing_check`` of T pairs: ``mats`` is the ``(T, 2, n,
    n)`` stack of each pair's [rho, sigma] on ``dims``, ``channels`` the
    pairs' channels, all on one side.

    One ``_gram_outcomes`` call applies each channel to its rho and sigma
    and diagonalizes both once: sigma's lowest eigenvalue guards its full
    rank, and its eigensystem serves S(rho || sigma).  All K outcomes are
    kept, with no probability floor, so the terms and the probability
    vectors p and q stay index-aligned and directly comparable; a zero
    operator's outcomes are zero matrices, whose term is 0.  Support
    violations produce a skipped report with the infinity carried in the
    total, not an exception.
    """
    t, n = len(mats), dims.total
    counts = [len(channel.kraus) for channel in channels]
    kraus = np.repeat(_padded_kraus([c.kraus for c in channels]), 2, axis=0)
    outs, vals, vecs = _gram_outcomes(kraus, channels[0].side, mats.reshape(2 * t, n, n), dims)
    outs = outs.reshape(t, 2, -1, n, n)
    pq = outs.trace(axis1=-2, axis2=-1).real
    full = np.flatnonzero(vals[1::2, 0] >= TOL_SUPPORT)
    total = _rel_entropy_stack(mats[full, 0], vals[2 * full + 1], vecs[2 * full + 1])
    live = np.arange(outs.shape[2]) < np.array(counts)[full, None]
    terms = _rel_entropy_stack(outs[full, 0][live], *np.linalg.eigh(outs[full, 1][live])).tolist()
    reports = [DataProcessingReport(
        math.nan, math.nan, math.nan, np.array([]), np.array([]), math.nan,
        skipped_reason="sigma is not full rank")] * t
    stop = 0
    for i, tot in zip(full.tolist(), total.tolist()):
        start, stop = stop, stop + counts[i]
        outcome = float(sum(terms[start:stop]))
        p, q = pq[i, :, :counts[i]]
        if math.isinf(outcome) or math.isinf(tot):
            reports[i] = DataProcessingReport(
                outcome, tot, math.nan, p, q, math.nan,
                skipped_reason="support violation produced an infinite divergence",
            )
        else:
            reports[i] = DataProcessingReport(outcome_divergence=outcome, total_divergence=tot,
                                              gap=tot - outcome, p=p, q=q,
                                              max_prob_deviation=float(np.max(np.abs(p - q))))
    return reports
