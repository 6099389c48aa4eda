"""Numerical verification checks for strict-monotonicity behavior.

Each check turns one theorem-shaped claim into a falsifiable numeric
comparison and emits a ``VerificationReport``.  ``run_sweep`` executes a
configured batch of checks over seeded random instances; identical configs
produce byte-identical reports.

Verdicts are recomputable from the report contents alone: the decision
rule is determined by ``check_id``, the stored tolerance, the channel
class, and the branch markers kept in ``metadata``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .channels import (
    LocalKrausChannel,
    TAG_GENERAL,
    TAG_LOCAL_UNITARY,
    TAG_UNITARY_MIXTURE,
    _outcome_stack,
    apply_channel,
    apply_channel_to_pure,
    classify,
    random_channel,
    unitary_mixture_channel,
)
from .measures import (
    CONCURRENCE,
    ENTROPY,
    G_CONCURRENCE,
    HFunction,
    NEGATIVITY_H,
    TANGLE,
    h_eval,
    log_negativity_of_norms,
    negativity,
    negativity_of_norms,
    pt_trace_norms,
    pure_measure,
    renyi,
    tsallis,
    wootters_eof,
)
from .registry import evaluate_closed_stack, evaluate_measure, measure_tier, parse_measure_id
from .ree import ree_data_processing_check, ree_minimize
from .roof import roof_minimize
from .sampling import (
    haar_unitary,
    random_mixed,
    random_product_pure,
    random_pure,
    random_separable,
)
from .states import (
    DensityMatrix,
    DimensionMismatchError,
    Dims,
    PureState,
    bell_state,
    partial_trace,
    partial_transpose,
    validate_density_stack,
    von_neumann_entropy,
    werner_state,
)

# Monotonicity tolerance per measure tier: closed forms are exact up to
# eigensolver noise; optimizer-backed measures get slack matching their own
# convergence error.
MONOTONE_TOL = {"closed": 1e-9, "roof": 2e-3, "ree": 2e-2}
STRICT_FLOOR = 1e-6  # separates strict decrease from roundoff
EQUALITY_TOL = 1e-9
CONCAVITY_STRICT_TOL = 1e-12
CONCAVITY_EQUAL_TOL = 1e-10
CONCAVITY_DISTANCE = 1e-3
REDUCED_DEV_STRICT = 1e-6
REDUCED_DEV_EQUAL = 1e-8
MONOGAMY_TOL = 1e-9
MONOGAMY_DIM_CAP = 64

CHECK_IDS = (
    "monotone",
    "strict",
    "concavity",
    "reduced-state",
    "roof-oracle",
    "ree",
    "ree-dpi",
    "neg-decomposition",
    "logneg-nonconvexity",
    "monogamy",
)

DEFAULT_H_SET = (
    ENTROPY,
    CONCURRENCE,
    G_CONCURRENCE,
    TANGLE,
    NEGATIVITY_H,
    renyi(0.5),
    tsallis(2.0),
)

DEFAULT_MEASURES = ("negativity", "log-negativity", "eof", "concurrence")
DEFAULT_DIMS = ((2, 2), (2, 3))


@dataclass(frozen=True)
class VerificationReport:
    check_id: str
    measure_id: str
    channel_class: str | None
    lhs: float
    rhs: float
    gap: float
    tolerance: float
    verdict: str  # "pass" | "fail" | "skipped"
    seed: int
    metadata: dict = field(default_factory=dict)


def _plain(value):
    """Numpy scalars and containers to JSON-encodable Python values."""
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _report(check_id, measure_id, channel_class, lhs, rhs, tolerance, ok, seed, metadata):
    lhs = float(lhs)
    rhs = float(rhs)
    return VerificationReport(
        check_id=check_id,
        measure_id=measure_id,
        channel_class=channel_class,
        lhs=lhs,
        rhs=rhs,
        gap=lhs - rhs,
        tolerance=float(tolerance),
        verdict="pass" if ok else "fail",
        seed=int(seed),
        metadata=_plain(metadata),
    )


def _skipped(check_id, measure_id, channel_class, tolerance, seed, reason, metadata=None):
    md = _plain(dict(metadata or {}))
    md["reason"] = reason
    return VerificationReport(
        check_id=check_id,
        measure_id=measure_id,
        channel_class=channel_class,
        lhs=0.0,
        rhs=0.0,
        gap=0.0,
        tolerance=float(tolerance),
        verdict="skipped",
        seed=int(seed),
        metadata=md,
    )


def derived_seed(master: int, *parts: int) -> int:
    """Stable 63-bit seed derived from a master seed and index parts."""
    ss = np.random.SeedSequence([int(master)] + [int(p) for p in parts])
    return int(ss.generate_state(1, np.uint64)[0] >> 1)


def check_monotone(
    measure_id: str,
    rho: DensityMatrix,
    channel: LocalKrausChannel,
    rng: np.random.Generator | None = None,
    seed: int = 0,
) -> VerificationReport:
    """E(rho) >= sum_k p_k E(sigma_k) up to the measure-tier tolerance.

    Optimizer-backed tiers copy the solver diagnostics of the input
    (``lhs_diagnostics``) and of each outcome (``outcome_diagnostics``)
    into the report metadata.
    """
    tier = measure_tier(measure_id)
    tol = MONOTONE_TOL[tier]
    if rng is None:
        rng = np.random.default_rng(seed)
    cls = classify(channel)
    lhs = evaluate_measure(measure_id, rho, rng=rng)
    ensemble = apply_channel(channel, rho)
    outs = [(p, evaluate_measure(measure_id, s, rng=rng)) for p, s in ensemble.outcomes]
    rhs = sum(p * v.value for p, v in outs)
    gap = lhs.value - rhs
    metadata = {"rule": "gap >= -tolerance", "n_outcomes": len(outs), "tier": tier}
    if tier != "closed":
        metadata["lhs_diagnostics"] = lhs.diagnostics
        metadata["outcome_diagnostics"] = [v.diagnostics for _, v in outs]
    return _report("monotone", measure_id, cls.tag, lhs.value, rhs, tol, gap >= -tol, seed,
                   metadata)


def _stack_values(measure_id, mats, dims, rng):
    """A measure on a stack of valid states: one kernel call for a closed
    form, one solver call per state otherwise."""
    if measure_tier(measure_id) == "closed":
        return evaluate_closed_stack(measure_id, mats, dims)
    return np.array([evaluate_measure(measure_id, DensityMatrix(m, dims), rng=rng).value
                     for m in mats])


def check_strict(
    measure_id: str,
    state_sampler,
    channel: LocalKrausChannel,
    n_states: int,
    rng: np.random.Generator,
    seed: int = 0,
) -> VerificationReport:
    """Strictness sweep over sampled states.

    General channels must show a gap above ``STRICT_FLOOR`` on some state;
    (mixtures of) local unitaries must show no gap at all.  A sweep whose
    inputs carry no entanglement is uninformative and passes with a note.

    All ``n_states`` states are drawn first; the input values, the
    outcomes and the outcome values are then each one stack.
    """
    cls = classify(channel)
    states = [state_sampler(rng) for _ in range(n_states)]
    dims = states[0].dims
    mats = np.stack([(s.density() if isinstance(s, PureState) else s).matrix for s in states])
    lhs_vals = _stack_values(measure_id, mats, dims, rng)
    probs, keep, outcomes = _outcome_stack(channel, mats, dims)
    values = np.zeros(keep.shape)
    values[keep] = _stack_values(measure_id, outcomes, dims, rng)
    rhs_vals = np.zeros(n_states)
    for k in range(keep.shape[1]):  # in outcome order, as a running sum rounds
        rhs_vals += probs[:, k] * values[:, k]
    gaps = lhs_vals - rhs_vals
    metadata = {
        "n_states": n_states,
        "max_gap": float(np.max(gaps)),
        "min_gap": float(np.min(gaps)),
        "mean_gap": float(np.mean(gaps)),
    }
    if cls.tag == TAG_GENERAL:
        if float(np.max(lhs_vals)) < 1e-12 and float(np.max(np.abs(gaps))) < 1e-12:
            metadata["note"] = "unentangled inputs are uninformative"
            metadata["rule"] = "all values zero"
            i = 0
            return _report("strict", measure_id, cls.tag, lhs_vals[i], rhs_vals[i],
                           STRICT_FLOOR, True, seed, metadata)
        i = int(np.argmax(gaps))
        metadata["rule"] = "max gap > tolerance"
        return _report("strict", measure_id, cls.tag, lhs_vals[i], rhs_vals[i],
                       STRICT_FLOOR, gaps[i] > STRICT_FLOOR, seed, metadata)
    i = int(np.argmax(np.abs(gaps)))
    metadata["rule"] = "max |gap| < tolerance"
    return _report("strict", measure_id, cls.tag, lhs_vals[i], rhs_vals[i],
                   EQUALITY_TOL, abs(gaps[i]) < EQUALITY_TOL, seed, metadata)


def check_strict_concavity(
    h: HFunction,
    rho1: DensityMatrix,
    rho2: DensityMatrix,
    lam: float,
    seed: int = 0,
) -> VerificationReport:
    """h(lam rho1 + (1-lam) rho2) strictly exceeds the mixture of values."""
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie strictly between 0 and 1")
    if rho1.dims.factors != rho2.dims.factors:
        raise DimensionMismatchError("states must share dims")
    mix = DensityMatrix(lam * rho1.matrix + (1.0 - lam) * rho2.matrix, rho1.dims)
    lhs = h_eval(h, mix)
    rhs = lam * h_eval(h, rho1) + (1.0 - lam) * h_eval(h, rho2)
    gap = lhs - rhs
    dist = float(np.linalg.norm(rho1.matrix - rho2.matrix))
    metadata = {"distance": dist, "lambda": float(lam)}
    if h.kind == "tangle":
        metadata["tangle_identity_dev"] = abs(gap - 2.0 * lam * (1.0 - lam) * dist * dist)
    if dist <= 1e-12:
        metadata["branch"] = "equal-states"
        metadata["rule"] = "|gap| <= tolerance"
        return _report("concavity", h.measure_id, None, lhs, rhs,
                       CONCAVITY_EQUAL_TOL, abs(gap) <= CONCAVITY_EQUAL_TOL, seed, metadata)
    if dist > CONCAVITY_DISTANCE:
        if h.kind == "g-concurrence":
            lo = min(float(rho1.eigenvalues()[0]), float(rho2.eigenvalues()[0]))
            if lo <= 1e-9:
                # (det)^(1/d) is strictly concave only on the definite cone.
                return _skipped("concavity", h.measure_id, None, CONCAVITY_STRICT_TOL, seed,
                                "g-concurrence strictness needs full-rank inputs", metadata)
        metadata["branch"] = "strict"
        metadata["rule"] = "gap > tolerance"
        return _report("concavity", h.measure_id, None, lhs, rhs,
                       CONCAVITY_STRICT_TOL, gap > CONCAVITY_STRICT_TOL, seed, metadata)
    metadata["branch"] = "near-equal"
    metadata["rule"] = "gap >= -tolerance"
    return _report("concavity", h.measure_id, None, lhs, rhs,
                   CONCAVITY_STRICT_TOL, gap >= -CONCAVITY_STRICT_TOL, seed, metadata)


def check_reduced_state_condition(
    h: HFunction,
    psi: PureState,
    channel: LocalKrausChannel,
    seed: int = 0,
) -> VerificationReport:
    """Strict decrease exactly when some outcome changes the reduced state.

    For a side-B family on a pure input, the outcomes are pure; a strictly
    positive gap must appear iff some outcome's A-side reduced state moved
    away from the input's.
    """
    if len(psi.dims.factors) != 2:
        raise DimensionMismatchError("reduced-state condition needs a bipartite pure state")
    if channel.side != "B":
        raise ValueError("reduced-state condition is formulated for side-B channels")
    rho_a = partial_trace(psi.density(), "A")
    lhs = h_eval(h, rho_a)
    outcomes = apply_channel_to_pure(channel, psi)
    rhs = 0.0
    max_dev = 0.0
    for p, out in outcomes:
        out_a = partial_trace(out.density(), "A")
        rhs += p * h_eval(h, out_a)
        max_dev = max(max_dev, float(np.linalg.norm(out_a.matrix - rho_a.matrix)))
    gap = lhs - rhs
    metadata = {"max_reduced_dev": max_dev, "n_outcomes": len(outcomes)}
    if lhs < 1e-12:
        metadata["note"] = "unentangled input"
    if max_dev > REDUCED_DEV_STRICT:
        metadata["branch"] = "strict"
        metadata["rule"] = "gap > tolerance"
        return _report("reduced-state", h.measure_id, classify(channel).tag, lhs, rhs,
                       EQUALITY_TOL, gap > EQUALITY_TOL, seed, metadata)
    if max_dev < REDUCED_DEV_EQUAL:
        metadata["branch"] = "equal"
        metadata["rule"] = "|gap| < tolerance"
        return _report("reduced-state", h.measure_id, classify(channel).tag, lhs, rhs,
                       REDUCED_DEV_EQUAL, abs(gap) < REDUCED_DEV_EQUAL, seed, metadata)
    return _skipped("reduced-state", h.measure_id, classify(channel).tag, EQUALITY_TOL, seed,
                    "reduced-state deviation falls between the decision thresholds", metadata)


def check_monogamy_product(
    phi_ab1: PureState,
    eta_b2c: PureState,
    h: HFunction,
    seed: int = 0,
) -> VerificationReport:
    """Product structure |phi>^{AB1} |eta>^{B2C} across the A|B1B2|C split.

    Verifies (i) the A|BC measure equals the A|B measure of the C-traced
    state, (ii) the AC marginal is an uncorrelated product with zero
    negativity, and (iii) the basis-contraction maps on C leave every
    outcome's A marginal untouched.
    """
    if len(phi_ab1.dims.factors) != 2 or len(eta_b2c.dims.factors) != 2:
        raise DimensionMismatchError("both factors must be bipartite pure states")
    dA, dB1 = phi_ab1.dims.factors
    dB2, dC = eta_b2c.dims.factors
    total = dA * dB1 * dB2 * dC
    if total > MONOGAMY_DIM_CAP:
        raise DimensionMismatchError(f"total dimension {total} exceeds the cap {MONOGAMY_DIM_CAP}")
    dB = dB1 * dB2
    amps = np.kron(phi_ab1.amplitudes, eta_b2c.amplitudes)  # index order A, B1, B2, C
    psi = PureState(amps, Dims(dA, dB, dC))
    rho = psi.density()
    rho_a = partial_trace(rho, "A")
    rho_ab = partial_trace(rho, "AB")
    rho_ac = partial_trace(rho, "AC")
    rho_c = partial_trace(rho, "C")

    lhs = h_eval(h, rho_a)  # the A|BC cut
    # Tr_C of the product state is (pure on AB1) x (mixed on B2); its
    # nonzero eigenvectors are product across AB1|B2, so the
    # eigendecomposition average realizes the optimal decomposition.
    vals, vecs = np.linalg.eigh(rho_ab.matrix)
    rhs = 0.0
    for lamv, vec in zip(vals, vecs.T):
        if lamv > 1e-12:
            rhs += lamv * pure_measure(h, PureState(vec, Dims(dA, dB))).value
    cut_dev = abs(lhs - rhs)

    product_dev = float(np.linalg.norm(rho_ac.matrix - np.kron(rho_a.matrix, rho_c.matrix)))
    neg_ac = negativity(rho_ac).value

    resync = -rho_ab.matrix.copy()
    max_marginal_dev = 0.0
    for s in range(dC):
        bra = np.zeros((1, dC))
        bra[0, s] = 1.0
        v_s = np.kron(np.eye(dA * dB), bra)  # I_A x I_B x <s|
        block = v_s @ rho.matrix @ v_s.conj().T
        resync += block
        p_s = float(np.real(np.trace(block)))
        if p_s < 1e-12:
            continue
        out = DensityMatrix(block / p_s, Dims(dA, dB))
        dev = float(np.linalg.norm(partial_trace(out, "A").matrix - rho_a.matrix))
        max_marginal_dev = max(max_marginal_dev, dev)

    ok = cut_dev <= MONOGAMY_TOL and product_dev < MONOGAMY_TOL and neg_ac < MONOGAMY_TOL \
        and max_marginal_dev <= 1e-8
    metadata = {
        "rule": "all three subchecks within tolerance",
        "cut_dev": cut_dev,
        "ac_product_dev": product_dev,
        "ac_negativity": neg_ac,
        "max_marginal_dev": max_marginal_dev,
        "contraction_resync_dev": float(np.linalg.norm(resync)),
    }
    return _report("monogamy", h.measure_id, None, lhs, rhs, MONOGAMY_TOL, ok, seed, metadata)


def check_negativity_decomposition(rho: DensityMatrix, seed: int = 0) -> VerificationReport:
    """Jordan split of the partial transpose: (1+a) rho+ minus a rho-.

    The negative-part weight ``a`` must equal the negativity, the two parts
    must be orthogonal, and both must be valid states.
    """
    n_val = negativity(rho).value
    if n_val <= 1e-9:
        return _skipped("neg-decomposition", "negativity", None, 1e-10, seed,
                        "input is PPT; the decomposition is trivial")
    pt = partial_transpose(rho, "A")
    vals, vecs = np.linalg.eigh(pt)
    pos = np.clip(vals, 0.0, None)
    neg = np.clip(-vals, 0.0, None)
    a = float(np.sum(neg))
    plus_raw = (vecs * pos) @ vecs.conj().T
    minus_raw = (vecs * neg) @ vecs.conj().T
    orth = float(np.linalg.norm(plus_raw @ minus_raw)) + float(np.linalg.norm(minus_raw @ plus_raw))
    parts_valid = True
    try:
        DensityMatrix(plus_raw / (1.0 + a), rho.dims)
        DensityMatrix(minus_raw / a, rho.dims)
    except ValueError:
        parts_valid = False
    ok = abs(a - n_val) <= 1e-10 and orth < 1e-9 and parts_valid
    metadata = {
        "rule": "|gap| <= tolerance and orthogonal parts and valid states",
        "orthogonality_residual": orth,
        "parts_valid": parts_valid,
        "n_negative_eigenvalues": int(np.sum(vals < 0.0)),
    }
    return _report("neg-decomposition", "negativity", None, a, n_val, 1e-10, ok, seed, metadata)


# Triples per batch of the log-negativity scan; bounds the scan's memory.
_LOGNEG_BLOCK = 256


def check_logneg_nonconvexity(
    rng: np.random.Generator,
    trials: int = 10000,
    seed: int = 0,
) -> VerificationReport:
    """Search for a convexity violation of the logarithmic negativity.

    Scans random (rho1, rho2, lambda) triples of two-qubit pure states for
    E_N(mix) exceeding the weighted average by more than 1e-6; the control
    confirms plain negativity stays convex on exactly the same triples.
    Triples are drawn one at a time and evaluated in blocks: one trace-norm
    stack gives both measures of mix, rho1 and rho2.
    """
    dims = Dims(2, 2)
    witness = None
    control_violations = 0
    for start in range(0, trials, _LOGNEG_BLOCK):
        size = min(_LOGNEG_BLOCK, trials - start)
        lam = np.empty(size)
        amps = np.empty((size, 2, dims.total), dtype=complex)
        for j in range(size):
            lam[j] = rng.uniform(0.05, 0.95)
            amps[j, 0] = random_pure(dims, rng).amplitudes
            amps[j, 1] = random_product_pure(dims, rng).amplitudes
        proj = amps[..., :, None] * amps.conj()[..., None, :]
        w = lam[:, None, None]
        mix = w * proj[:, 0] + (1.0 - w) * proj[:, 1]
        validate_density_stack(mix)
        norms = pt_trace_norms(np.concatenate([mix[:, None], proj], axis=1), dims)
        n_vals, en_vals = negativity_of_norms(norms), log_negativity_of_norms(norms)
        n_avg = lam * n_vals[:, 1] + (1.0 - lam) * n_vals[:, 2]
        en_avg = lam * en_vals[:, 1] + (1.0 - lam) * en_vals[:, 2]
        control_violations += int(np.count_nonzero(n_vals[:, 0] > n_avg + 1e-6))
        hits = np.flatnonzero(en_vals[:, 0] > en_avg + 1e-6)
        if witness is None and hits.size:
            j = hits[0]
            witness = {
                "trial": start + int(j),
                "lambda": float(lam[j]),
                "en_mix": float(en_vals[j, 0]),
                "en_avg": float(en_avg[j]),
                "psi1": [[float(z.real), float(z.imag)] for z in amps[j, 0]],
                "psi2": [[float(z.real), float(z.imag)] for z in amps[j, 1]],
            }
    metadata = {
        "rule": "witness found and control clean",
        "trials": trials,
        "control_violations": control_violations,
        "witness": witness,
    }
    if witness is None:
        return _report("logneg-nonconvexity", "log-negativity", None, 0.0, 0.0,
                       1e-6, False, seed, metadata)
    return _report(
        "logneg-nonconvexity", "log-negativity", None,
        witness["en_mix"], witness["en_avg"], 1e-6,
        control_violations == 0, seed, metadata,
    )


def recompute_verdict(report: VerificationReport) -> str:
    """Re-derive the verdict from the report contents (no hidden state)."""
    if report.verdict == "skipped":
        return "skipped"
    gap, tol = report.gap, report.tolerance
    rule = report.metadata.get("rule", "")
    if rule == "gap >= -tolerance":
        ok = gap >= -tol
    elif rule == "-lower_slack <= gap <= tolerance":
        ok = -report.metadata["lower_slack"] <= gap <= tol
    elif rule == "gap > tolerance":
        ok = gap > tol
    elif rule == "max gap > tolerance":
        ok = report.metadata["max_gap"] > tol
    elif rule == "max |gap| < tolerance":
        ok = abs(gap) < tol
    elif rule == "|gap| < tolerance":
        ok = abs(gap) < tol
    elif rule == "|gap| <= tolerance":
        ok = abs(gap) <= tol
    elif rule == "all values zero":
        ok = True
    elif rule == "|gap| <= tolerance and orthogonal parts and valid states":
        ok = abs(gap) <= tol and report.metadata["orthogonality_residual"] < 1e-9 \
            and report.metadata["parts_valid"]
    elif rule == "witness found and control clean":
        ok = report.metadata["witness"] is not None \
            and report.metadata["control_violations"] == 0
    elif rule == "all three subchecks within tolerance":
        md = report.metadata
        ok = md["cut_dev"] <= tol and md["ac_product_dev"] < tol \
            and md["ac_negativity"] < tol and md["max_marginal_dev"] <= 1e-8
    else:
        raise ValueError(f"unknown decision rule {rule!r}")
    return "pass" if ok else "fail"


# ---------------------------------------------------------------------------
# Sweep configuration and execution.


@dataclass(frozen=True)
class SweepConfig:
    checks: tuple[str, ...] = CHECK_IDS
    measures: tuple[str, ...] = DEFAULT_MEASURES
    dims: tuple[tuple[int, int], ...] = DEFAULT_DIMS
    trials: int = 200
    n_kraus: int = 4
    seed: int = 0
    output_path: str = "verify-report.jsonl"
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "checks", tuple(self.checks))
        object.__setattr__(self, "measures", tuple(self.measures))
        object.__setattr__(self, "dims", tuple(tuple(d) for d in self.dims))
        for c in self.checks:
            if c not in CHECK_IDS:
                raise ValueError(f"unknown check id {c!r}")
        for m in self.measures:
            parse_measure_id(m)  # raises on unknown ids
        for d in self.dims:
            if len(d) != 2 or any(not isinstance(x, int) or x < 2 for x in d):
                raise ValueError(f"dims entries must be pairs of integers >= 2, got {d!r}")
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")
        if self.n_kraus < 1:
            raise ValueError("n_kraus must be at least 1")
        for key, val in self.tolerances.items():
            if key not in MONOTONE_TOL:
                raise ValueError(f"unknown tolerance key {key!r}")
            if not isinstance(val, (int, float)) or val <= 0:
                raise ValueError(f"tolerance {key!r} must be positive, got {val!r}")

    def monotone_tol(self, tier: str) -> float:
        return float(self.tolerances.get(tier, MONOTONE_TOL[tier]))


def _measure_state_kind(measure_id: str, dims: tuple[int, int]) -> str | None:
    """'mixed' or 'pure' sampling for a measure on these dims, None if unsupported."""
    family, _ = parse_measure_id(measure_id)
    if family in ("negativity", "log-negativity", "negativity-roof"):
        return "mixed"
    if family == "ree":
        return "mixed" if dims[0] * dims[1] <= 16 else None
    if family in ("eof", "concurrence"):
        return "mixed" if tuple(dims) == (2, 2) else "pure"
    return "pure"  # h-only measures


def _cycled(options, index):
    return options[index % len(options)]


def _random_unitary_mixture(d: int, n_unitaries: int, rng: np.random.Generator, side="B"):
    weights = rng.dirichlet(np.ones(n_unitaries))
    unitaries = [haar_unitary(d, rng) for _ in range(n_unitaries)]
    return unitary_mixture_channel(weights, unitaries, side)


def _sweep_monotone(config: SweepConfig, check_idx: int) -> list[VerificationReport]:
    reports = []
    kraus_options = tuple(range(2, max(2, config.n_kraus) + 1))
    for di, dims_pair in enumerate(config.dims):
        dims = Dims(*dims_pair)
        for mi, measure_id in enumerate(config.measures):
            kind = _measure_state_kind(measure_id, dims_pair)
            if kind is None:
                continue
            tier = measure_tier(measure_id)
            for t in range(config.trials):
                seed = derived_seed(config.seed, check_idx, di, mi, t)
                rng = np.random.default_rng(seed)
                if kind == "mixed":
                    rho = random_mixed(dims, None, rng)
                else:
                    rho = random_pure(dims, rng).density()
                channel = random_channel(dims_pair[1], _cycled(kraus_options, t), rng, side="B")
                rep = check_monotone(measure_id, rho, channel, rng=rng, seed=seed)
                if config.tolerances:
                    tol = config.monotone_tol(tier)
                    ok = rep.gap >= -tol
                    rep = _report(rep.check_id, rep.measure_id, rep.channel_class, rep.lhs,
                                  rep.rhs, tol, ok, seed, rep.metadata)
                reports.append(rep)
    return reports


def _sweep_strict(config: SweepConfig, check_idx: int) -> list[VerificationReport]:
    reports = []
    kraus_options = tuple(range(2, max(2, config.n_kraus) + 1))
    # Existence direction: general channels must strictly decrease
    # negativity somewhere among Haar-random pure states.
    n_channels = max(1, config.trials // 4)
    for di, dims_pair in enumerate(config.dims):
        dims = Dims(*dims_pair)
        for c in range(n_channels):
            seed = derived_seed(config.seed, check_idx, 0, di, c)
            rng = np.random.default_rng(seed)
            channel = random_channel(dims_pair[1], _cycled(kraus_options, c), rng, side="B")
            sampler = lambda r, d=dims: random_pure(d, r).density()
            reports.append(check_strict("negativity", sampler, channel, 100, rng, seed=seed))
    # Equality direction: unitary mixtures must preserve every measure.
    for di, dims_pair in enumerate(config.dims):
        dims = Dims(*dims_pair)
        for t in range(config.trials):
            seed = derived_seed(config.seed, check_idx, 1, di, t)
            rng = np.random.default_rng(seed)
            channel = _random_unitary_mixture(dims_pair[1], 1 + t % 3, rng)
            for measure_id in config.measures:
                kind = _measure_state_kind(measure_id, dims_pair)
                if kind is None or measure_tier(measure_id) != "closed":
                    continue
                if kind == "mixed":
                    sampler = lambda r, d=dims: random_mixed(d, None, r)
                else:
                    sampler = lambda r, d=dims: random_pure(d, r).density()
                rep = check_strict(measure_id, sampler, channel, 3, rng, seed=seed)
                if rep.channel_class not in (TAG_LOCAL_UNITARY, TAG_UNITARY_MIXTURE):
                    rep = _report(rep.check_id, rep.measure_id, rep.channel_class, rep.lhs,
                                  rep.rhs, rep.tolerance, False, seed,
                                  {**rep.metadata, "note": "misclassified unitary mixture"})
                reports.append(rep)
    return reports


def _sweep_concavity(config: SweepConfig, check_idx: int) -> list[VerificationReport]:
    reports = []
    for hi, h in enumerate(DEFAULT_H_SET):
        for t in range(config.trials):
            seed = derived_seed(config.seed, check_idx, hi, t)
            rng = np.random.default_rng(seed)
            d = 2 if t % 2 == 0 else 3
            dims = Dims(d)
            rank = d if h.kind == "g-concurrence" else (1 + t % d if t % 5 else d)
            rho1 = random_mixed(dims, rank, rng)
            rho2 = random_mixed(dims, rank, rng)
            while float(np.linalg.norm(rho1.matrix - rho2.matrix)) <= CONCAVITY_DISTANCE:
                rho2 = random_mixed(dims, rank, rng)
            reports.append(check_strict_concavity(h, rho1, rho2, 0.5, seed=seed))
    return reports


def _projective_channel(d: int) -> LocalKrausChannel:
    eye = np.eye(d)
    return LocalKrausChannel("B", tuple(np.outer(eye[i], eye[i]) for i in range(d)))


def _sweep_reduced_state(config: SweepConfig, check_idx: int) -> list[VerificationReport]:
    reports = [
        check_reduced_state_condition(
            ENTROPY, bell_state(), _projective_channel(2),
            seed=derived_seed(config.seed, check_idx, 0),
        )
    ]
    kraus_options = tuple(range(2, max(2, config.n_kraus) + 1))
    h_cycle = (ENTROPY, NEGATIVITY_H, TANGLE, CONCURRENCE)
    for t in range(config.trials):
        seed = derived_seed(config.seed, check_idx, 1, t)
        rng = np.random.default_rng(seed)
        dims_pair = _cycled(config.dims, t)
        dims = Dims(*dims_pair)
        psi = random_pure(dims, rng)
        if t % 3 == 2:
            channel = _random_unitary_mixture(dims_pair[1], 1 + t % 3, rng)
        else:
            channel = random_channel(dims_pair[1], _cycled(kraus_options, t), rng, side="B")
        reports.append(check_reduced_state_condition(_cycled(h_cycle, t), psi, channel, seed=seed))
    return reports


def _sweep_roof_oracle(config: SweepConfig, check_idx: int) -> list[VerificationReport]:
    reports = []
    n = max(1, config.trials // 25)
    dims = Dims(2, 2)
    for t in range(n):
        seed = derived_seed(config.seed, check_idx, t)
        rng = np.random.default_rng(seed)
        rho = random_mixed(dims, 2 + t % 3, rng)
        oracle = wootters_eof(rho)
        result = roof_minimize(ENTROPY, rho, 4, 20, rng)
        ok = -1e-9 <= result.value - oracle <= 5e-3
        reports.append(_report(
            "roof-oracle", "eof", None, result.value, oracle, 5e-3, ok, seed,
            {"rule": "-lower_slack <= gap <= tolerance", "lower_slack": 1e-9,
             "converged": result.converged},
        ))
    return reports


def _ree_status(res) -> dict:
    return {"iterations": res.iterations, "converged": res.converged,
            "duality_gap_estimate": res.duality_gap_estimate}


def _sweep_ree(config: SweepConfig, check_idx: int) -> list[VerificationReport]:
    reports = []
    dims = Dims(2, 2)
    n = max(1, config.trials // 100)
    seed = derived_seed(config.seed, check_idx, 0)
    bell = bell_state().density()
    res = ree_minimize(bell, rng=np.random.default_rng(seed))
    ok = abs(res.value - math.log(2.0)) <= 1e-2
    reports.append(_report("ree", "ree", None, res.value, math.log(2.0), 1e-2, ok, seed,
                           {"rule": "|gap| <= tolerance", "case": "bell", **_ree_status(res)}))
    for t in range(n):
        seed = derived_seed(config.seed, check_idx, 1, t)
        rng = np.random.default_rng(seed)
        psi = random_pure(dims, rng)
        oracle = von_neumann_entropy(partial_trace(psi.density(), "A"))
        res = ree_minimize(psi.density(), rng=rng)
        reports.append(_report("ree", "ree", None, res.value, oracle, 1e-2,
                               abs(res.value - oracle) <= 1e-2, seed,
                               {"rule": "|gap| <= tolerance", "case": "pure-coincidence",
                                **_ree_status(res)}))
    for t in range(n):
        seed = derived_seed(config.seed, check_idx, 2, t)
        rng = np.random.default_rng(seed)
        sep = random_separable(dims, 4 + t % 3, rng)
        res = ree_minimize(sep, rng=rng)
        reports.append(_report("ree", "ree", None, res.value, 0.0, 1e-4,
                               res.value <= 1e-4, seed,
                               {"rule": "|gap| <= tolerance", "case": "separable",
                                **_ree_status(res)}))
    for t in range(n):
        seed = derived_seed(config.seed, check_idx, 3, t)
        rng = np.random.default_rng(seed)
        rho = random_mixed(dims, 2 + t % 3, rng)
        upper = wootters_eof(rho)
        res = ree_minimize(rho, rng=rng)
        reports.append(_report("ree", "ree", None, upper, res.value, 2e-2,
                               res.value <= upper + 2e-2, seed,
                               {"rule": "gap >= -tolerance", "case": "below-eof",
                                **_ree_status(res)}))
    return reports


def _sweep_ree_dpi(config: SweepConfig, check_idx: int) -> list[VerificationReport]:
    reports = []
    kraus_options = tuple(range(2, max(2, config.n_kraus) + 1))
    for t in range(config.trials):
        seed = derived_seed(config.seed, check_idx, t)
        rng = np.random.default_rng(seed)
        dims_pair = _cycled(config.dims, t)
        dims = Dims(*dims_pair)
        rho = random_mixed(dims, None, rng)
        sigma = random_mixed(dims, None, rng)
        if t % 4 == 3:
            channel = _random_unitary_mixture(dims_pair[1], 1 + t % 2, rng)
        else:
            channel = random_channel(dims_pair[1], _cycled(kraus_options, t), rng, side="B")
        rep = ree_data_processing_check(rho, sigma, channel)
        if rep.skipped_reason is not None:
            reports.append(_skipped("ree-dpi", "ree", classify(channel).tag, EQUALITY_TOL,
                                    seed, rep.skipped_reason))
            continue
        ok = rep.gap >= -EQUALITY_TOL
        if rep.gap < EQUALITY_TOL:
            ok = ok and rep.max_prob_deviation < 1e-6
        reports.append(_report(
            "ree-dpi", "ree", classify(channel).tag,
            rep.total_divergence, rep.outcome_divergence, EQUALITY_TOL, ok, seed,
            {"rule": "gap >= -tolerance", "max_prob_deviation": rep.max_prob_deviation,
             "equality_case": bool(rep.gap < EQUALITY_TOL)},
        ))
    return reports


def _sample_npt_two_qubit(rng: np.random.Generator) -> DensityMatrix:
    dims = Dims(2, 2)
    for _ in range(200):
        rho = random_mixed(dims, 1 + int(rng.integers(2)), rng)
        if negativity(rho).value > 1e-6:
            return rho
    raise RuntimeError("failed to sample an NPT state")


def _sweep_neg_decomposition(config: SweepConfig, check_idx: int) -> list[VerificationReport]:
    seed = derived_seed(config.seed, check_idx, 0)
    reports = [check_negativity_decomposition(werner_state(0.9), seed=seed)]
    for t in range(max(1, config.trials // 2)):
        seed = derived_seed(config.seed, check_idx, 1, t)
        rng = np.random.default_rng(seed)
        reports.append(check_negativity_decomposition(_sample_npt_two_qubit(rng), seed=seed))
    return reports


def _sweep_logneg(config: SweepConfig, check_idx: int) -> list[VerificationReport]:
    seed = derived_seed(config.seed, check_idx, 0)
    trials = min(10000, max(1, config.trials * 50))
    return [check_logneg_nonconvexity(np.random.default_rng(seed), trials=trials, seed=seed)]


def _sweep_monogamy(config: SweepConfig, check_idx: int) -> list[VerificationReport]:
    seed = derived_seed(config.seed, check_idx, 0)
    reports = [check_monogamy_product(bell_state(), bell_state(), ENTROPY, seed=seed)]
    for t in range(max(1, config.trials // 50)):
        seed = derived_seed(config.seed, check_idx, 1, t)
        rng = np.random.default_rng(seed)
        phi = random_pure(Dims(2, 2), rng)
        eta = random_pure(Dims(2, 2), rng)
        reports.append(check_monogamy_product(phi, eta, _cycled((ENTROPY, NEGATIVITY_H), t),
                                              seed=seed))
    return reports


_SWEEPS = {
    "monotone": _sweep_monotone,
    "strict": _sweep_strict,
    "concavity": _sweep_concavity,
    "reduced-state": _sweep_reduced_state,
    "roof-oracle": _sweep_roof_oracle,
    "ree": _sweep_ree,
    "ree-dpi": _sweep_ree_dpi,
    "neg-decomposition": _sweep_neg_decomposition,
    "logneg-nonconvexity": _sweep_logneg,
    "monogamy": _sweep_monogamy,
}


def run_sweep(config: SweepConfig) -> list[VerificationReport]:
    """Execute every configured check; deterministic for a fixed config."""
    reports: list[VerificationReport] = []
    for check_id in config.checks:
        check_idx = CHECK_IDS.index(check_id)
        reports.extend(_SWEEPS[check_id](config, check_idx))
    return reports


def report_to_json(report: VerificationReport) -> str:
    return json.dumps(asdict(report))


def write_reports_jsonl(reports: list[VerificationReport], path: str | Path) -> None:
    Path(path).write_text("".join(report_to_json(r) + "\n" for r in reports))


def summarize(reports: list[VerificationReport]) -> list[dict]:
    """Per (check_id, measure_id) trial counts, passes, and gap statistics."""
    order: list[tuple[str, str]] = []
    groups: dict[tuple[str, str], list[VerificationReport]] = {}
    for r in reports:
        key = (r.check_id, r.measure_id)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(r)
    rows = []
    for key in order:
        rs = groups[key]
        gaps = [r.gap for r in rs if r.verdict != "skipped"]
        rows.append({
            "check_id": key[0],
            "measure_id": key[1],
            "trials": len(rs),
            "passes": sum(1 for r in rs if r.verdict == "pass"),
            "min_gap": min(gaps) if gaps else 0.0,
            "mean_gap": sum(gaps) / len(gaps) if gaps else 0.0,
            "max_gap": max(gaps) if gaps else 0.0,
        })
    return rows


def write_summary_csv(reports: list[VerificationReport], path: str | Path) -> None:
    rows = summarize(reports)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=["check_id", "measure_id", "trials", "passes",
                        "min_gap", "mean_gap", "max_gap"],
        )
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
