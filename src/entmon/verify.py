"""Numerical verification checks for strict-monotonicity behavior.

Each check turns one theorem-shaped claim into a falsifiable numeric
comparison and emits a ``VerificationReport``.  ``run_sweep`` executes a
configured batch of checks over seeded random instances; identical configs
produce byte-identical reports.  ``_SWEEPS`` maps each check id to its
sweep, and ``CHECK_IDS`` is its key order: a check's index there seeds its
trials.

Every sweep goes from trials to reports through one path.  ``_trials``
gives each trial its seed and a generator of its own, from which it draws
its states and its channel's Ginibre matrices (``channels._draw_channel``
and ``_draw_mixture``).  The trials of ``monotone`` and ``strict`` (one
stream per dims), ``reduced-state`` and ``ree-dpi`` stream through
``_batch_reports``, which validates each batch of at most
``_BATCH_STATES`` input states once, builds its channels as stacks
(``_build_channels``) and judges it with one kernel: ``_closed_gaps``
(per measure, one ``_outcome_stack`` call, on pure inputs kept as
vectors or on density matrices, and one ``evaluate_closed_stack`` call),
``_reduced_state_reports`` or ``_ree_dpi_reports``.  No kernel
classifies a channel: each reads ``classify(channel)``, the class that
``channels._check_families`` gave the channel when it was built.
``_concavity_reports`` judges all ``concavity`` trials with one
``eigvalsh`` per (h, dimension).  The other checks, and the optimizer
tiers of ``monotone``, judge one trial at a time.

Every verdict comes from one table: ``RULES`` maps the rule name that
each report stores in ``metadata["rule"]`` to a predicate over the
report's gap, its stored tolerance and its metadata; a ``reason`` in the
metadata makes the verdict ``skipped`` instead.  ``_report`` decides a
verdict by that lookup and ``recompute_verdict`` repeats it, so the
verdict is recomputable from the report contents alone.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import operator
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .channels import (
    LocalKrausChannel,
    TAG_GENERAL,
    TAG_LOCAL_UNITARY,
    TAG_UNITARY_MIXTURE,
    _build_channels,
    _draw_channel,
    _draw_mixture,
    _outcome_stack,
    _padded_kraus,
    apply_channel,
    classify,
)
from .measures import (
    CONCURRENCE,
    ENTROPY,
    G_CONCURRENCE,
    HFunction,
    NEGATIVITY_H,
    TANGLE,
    h_eval,
    h_of_spectrum,
    log_negativity_of_norms,
    negativity,
    negativity_of_norms,
    pt_trace_norms,
    pure_measure_stack,
    pure_pt_trace_norms,
    renyi,
    tsallis,
    wootters_eof,
)
from .registry import (MeasureError, evaluate_closed_stack, evaluate_measure, measure_state_kind,
                       measure_tier, parse_measure_id)
from .ree import _data_processing_stack, ree_minimize
from .roof import roof_minimize
from .sampling import (
    _product_rows,
    _unit_rows,
    random_mixed,
    random_mixed_stack,
    random_pure,
    random_pure_stack,
    random_separable,
)
from .states import (
    DensityMatrix,
    DimensionMismatchError,
    Dims,
    PureState,
    TOL_SUPPORT,
    _check_hermitian_unit_trace,
    _is_count,
    bell_state,
    partial_trace,
    partial_transpose,
    projector_stack,
    validate_density_stack,
    validate_pure_stack,
    von_neumann_entropy,
    werner_state,
)

# Monotonicity tolerance per measure tier: closed forms are exact up to
# eigensolver noise; optimizer-backed measures get slack matching their own
# convergence error.
MONOTONE_TOL = {"closed": 1e-9, "roof": 2e-3, "ree": 2e-2}
STRICT_FLOOR = 1e-6  # separates strict decrease from roundoff
STRICT_ZERO = 1e-12  # h values, and gaps of a strict sweep, below this carry no entanglement
EQUALITY_TOL = 1e-9
CONCAVITY_STRICT_TOL = 1e-12
CONCAVITY_EQUAL_TOL = 1e-10
CONCAVITY_DISTANCE = 1e-3
CONCAVITY_SAME_STATES = 1e-12  # distance at or below which the two states are equal
CONCAVITY_FULL_RANK = 1e-9  # lowest eigenvalue of a full-rank g-concurrence input
REDUCED_DEV_STRICT = 1e-6
REDUCED_DEV_EQUAL = 1e-8
MONOGAMY_TOL = 1e-9
MONOGAMY_DIM_CAP = 64
NEG_PPT_FLOOR = 1e-9  # negativity at or below this is a PPT input
JORDAN_TOL = 1e-10  # |weight of the negative part - negativity| of a neg-decomposition
LOGNEG_MARGIN = 1e-6  # convexity violation that counts as a witness
ROOF_ORACLE_TOL, ROOF_ORACLE_SLACK = 5e-3, 1e-9  # roof value - Wootters EoF in [-slack, tol]
REE_CASE_TOL = {"bell": 1e-2, "pure-coincidence": 1e-2, "separable": 1e-4, "below-eof": 2e-2}
# Thresholds that a rule reads but no report field stores.
ORTHOGONALITY_TOL = 1e-9  # Jordan parts of the partial transpose
MARGINAL_DEV_TOL = 1e-8  # A marginals after the contractions on C
PROB_DEV_TOL = 1e-6  # outcome probabilities of rho and sigma, ree-dpi equality case

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


# The decision rule of each ``metadata["rule"]`` name, as a predicate over
# the report's (gap, tolerance, metadata): the only place a verdict is
# decided.
RULES = {
    "gap >= -tolerance": lambda gap, tol, md: gap >= -tol,
    "gap >= -tolerance and probabilities unchanged":
        lambda gap, tol, md: gap >= -tol and md["max_prob_deviation"] < PROB_DEV_TOL,
    "-lower_slack <= gap <= tolerance": lambda gap, tol, md: -md["lower_slack"] <= gap <= tol,
    "gap > tolerance": lambda gap, tol, md: gap > tol,
    "|gap| < tolerance": lambda gap, tol, md: abs(gap) < tol,
    "|gap| <= tolerance": lambda gap, tol, md: abs(gap) <= tol,
    "max gap > tolerance": lambda gap, tol, md: md["max_gap"] > tol,
    "max |gap| < tolerance": lambda gap, tol, md: max(abs(md["max_gap"]), abs(md["min_gap"])) < tol,
    "all values zero": lambda gap, tol, md: True,
    "always fails": lambda gap, tol, md: False,
    "|gap| <= tolerance and orthogonal parts and valid states":
        lambda gap, tol, md: abs(gap) <= tol and md["orthogonality_residual"] < ORTHOGONALITY_TOL
        and md["parts_valid"],
    "witness found and control clean":
        lambda gap, tol, md: md["witness"] is not None and md["control_violations"] == 0,
    "all three subchecks within tolerance":
        lambda gap, tol, md: md["cut_dev"] <= tol and md["ac_product_dev"] < tol
        and md["ac_negativity"] < tol and md["max_marginal_dev"] <= MARGINAL_DEV_TOL,
}


def _verdict(gap: float, tolerance: float, metadata: dict) -> str:
    if "reason" in metadata:
        return "skipped"
    rule = metadata.get("rule")
    if rule not in RULES:
        raise ValueError(f"unknown decision rule {rule!r}")
    return "pass" if RULES[rule](gap, tolerance, metadata) else "fail"


def _report(check_id, measure_id, channel_class, lhs, rhs, tolerance, seed, metadata):
    lhs, rhs, tolerance, metadata = float(lhs), float(rhs), float(tolerance), _plain(metadata)
    return VerificationReport(
        check_id=check_id,
        measure_id=measure_id,
        channel_class=channel_class,
        lhs=lhs,
        rhs=rhs,
        gap=lhs - rhs,
        tolerance=tolerance,
        verdict=_verdict(lhs - rhs, tolerance, metadata),
        seed=int(seed),
        metadata=metadata,
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

    A closed form is the one-trial case of ``_monotone_reports``, which
    the ``monotone`` sweep runs on its trials in batches.  Optimizer-backed
    tiers take one solver call per state with ``rng`` (one seeded by
    ``seed`` when None) and copy the solver diagnostics of the input
    (``lhs_diagnostics``) and of each outcome (``outcome_diagnostics``)
    into the report metadata.
    """
    tier = measure_tier(measure_id)
    if tier == "closed":
        return _monotone_reports([(measure_id, rho.matrix[None], channel, seed)], rho.dims)[0]
    rng = np.random.default_rng(seed) if rng is None else rng
    lhs = evaluate_measure(measure_id, rho, rng=rng)
    outs = [(p, evaluate_measure(measure_id, s, rng=rng))
            for p, s in apply_channel(channel, rho).outcomes]
    return _report("monotone", measure_id, classify(channel).tag, lhs.value,
                   sum(p * v.value for p, v in outs), MONOTONE_TOL[tier], seed,
                   {"rule": "gap >= -tolerance", "n_outcomes": len(outs), "tier": tier,
                    "lhs_diagnostics": lhs.diagnostics,
                    "outcome_diagnostics": [v.diagnostics for _, v in outs]})


def _monotone_reports(items, dims):
    """``check_monotone`` reports of trials ``(measure_id, mats, channel,
    seed[, rng])``, each ``mats`` one state on ``dims``: the closed forms'
    from one ``_closed_gaps`` call, an optimizer tier's from one
    ``check_monotone`` call with the trial's ``rng``."""
    closed = [item for item in items if measure_tier(item[0]) == "closed"]
    judged = iter([_report("monotone", it[0], tag, lhs[0], rhs[0], MONOTONE_TOL["closed"], it[3],
                           {"rule": "gap >= -tolerance", "n_outcomes": n[0], "tier": "closed"})
                   for it, (tag, lhs, rhs, n) in zip(closed, _closed_gaps(closed, dims))])
    return [next(judged) if measure_tier(m) == "closed" else
            check_monotone(m, DensityMatrix(mats[0], dims), channel, *rng, seed)
            for m, mats, channel, seed, *rng in items]


def _closed_gaps(items, dims):
    """Per item ``(measure_id, states, channel, ...)``, the channel's tag
    and, per state, the measure of the state and its average over the
    channel's outcomes, as ``(tag, lhs, rhs, n_outcomes)``.

    ``states``, valid states on ``dims``, are ``(n, N)`` amplitudes or
    ``(n, N, N)`` density matrices; every channel acts on one side and every
    measure is a closed form.  The items of one measure and ``ndim`` are one
    ``_outcome_stack`` call and one ``evaluate_closed_stack`` call on their
    inputs followed by the kept outcomes; a state's values do not depend on
    the rest of the stack.
    """
    gaps = [None] * len(items)
    for (measure_id, ndim), group in _groups((item[0], item[1].ndim) for item in items).items():
        counts = [len(items[i][1]) for i in group]
        channels = [items[i][2] for i in group]
        states = np.concatenate([items[i][1] for i in group])
        kraus = _padded_kraus([channel.kraus for channel in channels])
        if len(kraus) < len(states):  # items of several states: one family per state
            kraus = np.repeat(kraus, counts, axis=0)
        probs, keep, outcomes = _outcome_stack(kraus, channels[0].side, states, dims)
        vals = evaluate_closed_stack(measure_id, np.concatenate([states, outcomes]), dims)
        n_outcomes = [sum(row) for row in keep.tolist()]
        terms = iter((probs[keep] * vals[len(states):]).tolist())
        # Left folds over each state's outcome terms: in outcome order, as
        # a running sum rounds.
        rhs = [functools.reduce(operator.add, itertools.islice(terms, n), 0.0)
               for n in n_outcomes]
        stop = 0
        for i, count in zip(group, counts):
            start, stop = stop, stop + count
            gaps[i] = vals[start:stop], rhs[start:stop], n_outcomes[start:stop]
    return [(classify(item[2]).tag, *gap) for item, gap in zip(items, gaps)]


def _input_dims(channel: LocalKrausChannel, states: np.ndarray, n_states: int) -> Dims:
    """The dims of an ``(n_states, N)`` or ``(n_states, N, N)`` input stack: the
    channel acts on a factor of dimension ``channel.dim``, the rest is the other."""
    d = channel.dim
    if states.ndim not in (2, 3) or states.shape[0] != n_states \
            or states.shape[1] != states.shape[-1] or states.shape[-1] % d:
        raise DimensionMismatchError(
            f"sampler returned shape {states.shape}, expected ({n_states}, N) or "
            f"({n_states}, N, N) with N a multiple of the channel dimension {d}")
    other = states.shape[-1] // d
    return Dims(other, d) if channel.side == "B" else Dims(d, other)


def _check_inputs(states: np.ndarray) -> None:
    """Amplitudes ``(n, N)`` by norm, matrices ``(n, N, N)`` by hermiticity and trace."""
    (validate_pure_stack if states.ndim == 2 else _check_hermitian_unit_trace)(states)


def check_strict(
    measure_id: str,
    state_sampler,
    channel: LocalKrausChannel,
    n_states: int,
    rng: np.random.Generator,
    seed: int = 0,
) -> VerificationReport:
    """Strictness sweep over sampled states, for a closed-form measure.

    General channels must show a gap above ``STRICT_FLOOR`` on some state;
    (mixtures of) local unitaries must show no gap at all.  A sweep whose
    inputs carry no entanglement is uninformative and passes with a note.
    An optimizer-backed measure raises ``MeasureError`` before the sampler
    runs.

    ``state_sampler(rng, n)`` returns the ``n`` inputs as one array: pure
    states as ``(n, N)`` amplitudes (``random_pure_stack``), which no
    eigendecomposition touches, or ``(n, N, N)`` density matrices
    (``random_mixed_stack``).  The stack is validated once, here; its dims
    follow from the channel, which acts on the factor of dimension
    ``channel.dim`` on ``channel.side``.  The rest is the one-report case of
    ``_strict_reports``, which the ``strict`` sweep runs in batches.
    """
    if measure_tier(measure_id) != "closed":
        raise MeasureError(f"check_strict takes closed-form measures, not {measure_id!r}")
    if not _is_count(n_states):
        raise ValueError(f"n_states must be at least 1 and an integer, got {n_states!r}")
    states = np.asarray(state_sampler(rng, n_states), dtype=np.complex128)
    dims = _input_dims(channel, states, n_states)
    _check_inputs(states)
    return _strict_reports([(measure_id, states, channel, seed, False)], dims)[0]


def _strict_reports(items, dims):
    """``check_strict`` reports of ``items``, tuples ``(measure_id, states,
    channel, seed, mixture)`` as ``_closed_gaps`` takes them.  An item
    built as a unitary mixture (``mixture``) that ``classify`` calls
    general fails with a note."""
    return [_strict_report(measure_id, tag, lhs, rhs, seed, mixture)
            for (measure_id, _, _, seed, mixture), (tag, lhs, rhs, _)
            in zip(items, _closed_gaps(items, dims))]


def _strict_report(measure_id, tag, lhs_vals, rhs_vals, seed, mixture):
    gaps = lhs_vals - np.array(rhs_vals)
    metadata = {
        "n_states": len(gaps),
        "max_gap": float(np.max(gaps)),
        "min_gap": float(np.min(gaps)),
        "mean_gap": float(np.mean(gaps)),
    }
    if tag == TAG_GENERAL:
        if float(np.max(lhs_vals)) < STRICT_ZERO and float(np.max(np.abs(gaps))) < STRICT_ZERO:
            metadata["note"] = "unentangled inputs are uninformative"
            metadata["rule"] = "all values zero"
            i = 0
        else:
            i = int(np.argmax(gaps))
            metadata["rule"] = "max gap > tolerance"
        if mixture:
            metadata["note"] = "misclassified unitary mixture"
            metadata["rule"] = "always fails"
        return _report("strict", measure_id, tag, lhs_vals[i], rhs_vals[i], STRICT_FLOOR, seed,
                       metadata)
    # The verdict reads the extreme gaps; the reported pair is state 0's,
    # which roundoff in the gaps cannot swap for another state's.
    metadata["rule"] = "max |gap| < tolerance"
    return _report("strict", measure_id, tag, lhs_vals[0], rhs_vals[0], EQUALITY_TOL, seed,
                   metadata)


def check_strict_concavity(
    h: HFunction,
    rho1: DensityMatrix,
    rho2: DensityMatrix,
    lam: float,
    seed: int = 0,
) -> VerificationReport:
    """h(lam rho1 + (1-lam) rho2) strictly exceeds the mixture of values:
    the one-item case of ``_concavity_reports``."""
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie strictly between 0 and 1")
    if rho1.dims.factors != rho2.dims.factors:
        raise DimensionMismatchError("states must share dims")
    return _concavity_reports([(h, rho1.matrix, rho2.matrix, lam, seed)])[0]


def _concavity_reports(items):
    """``check_strict_concavity`` reports of items ``(h, rho1, rho2, lam,
    seed)``, the states as matrices, in item order.  Per (h, dimension),
    the stack of every rho1, rho2 and mixture is validated once, and its
    one ``eigvalsh`` gives the spectra of every h value."""
    reports = [None] * len(items)
    for (h, _), group in _groups((item[0], len(item[1])) for item in items).items():
        pairs = np.array([items[i][1:3] for i in group])
        w = np.array([items[i][3] for i in group])[:, None, None]
        mix = w * pairs[:, 0] + (1.0 - w) * pairs[:, 1]
        mu = validate_density_stack(np.concatenate([pairs, mix[:, None]], axis=1))
        for i, (v1, v2, lhs), lows in zip(group, h_of_spectrum(h, mu).tolist(),
                                          mu[:, :2, 0].tolist()):
            _, rho1, rho2, lam, seed = items[i]
            rhs = lam * v1 + (1.0 - lam) * v2
            dist = float(np.linalg.norm(rho1 - rho2))
            metadata = {"distance": dist, "lambda": float(lam)}
            if h.kind == "tangle":
                metadata["tangle_identity_dev"] = abs(lhs - rhs
                                                      - 2.0 * lam * (1.0 - lam) * dist * dist)
            if dist <= CONCAVITY_SAME_STATES:
                tol, branch, rule = CONCAVITY_EQUAL_TOL, "equal-states", "|gap| <= tolerance"
            elif dist <= CONCAVITY_DISTANCE:
                tol, branch, rule = CONCAVITY_STRICT_TOL, "near-equal", "gap >= -tolerance"
            elif h.kind == "g-concurrence" and min(lows) <= CONCAVITY_FULL_RANK:
                # (det)^(1/d) is strictly concave only on the definite cone.
                metadata["reason"] = "g-concurrence strictness needs full-rank inputs"
                reports[i] = _report("concavity", h.measure_id, None, 0.0, 0.0,
                                     CONCAVITY_STRICT_TOL, seed, metadata)
                continue
            else:
                tol, branch, rule = CONCAVITY_STRICT_TOL, "strict", "gap > tolerance"
            metadata.update(branch=branch, rule=rule)
            reports[i] = _report("concavity", h.measure_id, None, lhs, rhs, tol, seed, metadata)
    return reports


def check_reduced_state_condition(
    h: HFunction,
    psi: PureState,
    channel: LocalKrausChannel,
    seed: int = 0,
) -> VerificationReport:
    """Strict decrease exactly when some outcome changes the reduced state.

    For a side-B family on a pure input, the outcomes are pure; a strictly
    positive gap must appear iff some outcome's A-side reduced state moved
    away from the input's.  The one-trial case of
    ``_reduced_state_reports``, which the ``reduced-state`` sweep runs on
    its trials in batches.
    """
    return _reduced_state_reports([(h, psi.amplitudes[None], channel, seed, psi.dims)])[0]


def _reduced_state_reports(items):
    """``check_reduced_state_condition`` reports of items ``(h, amps,
    channel, seed, dims)``, ``amps`` the ``(1, N)`` amplitudes of a pure
    state on ``dims``.  Per (dims, h), the outcomes of every trial are one
    ``_outcome_stack`` call, and the A marginals of every input and
    outcome are validated as one stack, whose one ``eigvalsh`` gives every
    value; so a vector off the unit sphere raises."""
    for _, _, channel, _, dims in items:
        dims.bipartite("the reduced-state condition")
        if channel.side != "B":
            raise ValueError("reduced-state condition is formulated for side-B channels")
    values = [None] * len(items)
    for (dims, h), group in _groups((item[4], item[0]) for item in items).items():
        dA, dB = dims.factors
        amps = np.concatenate([items[i][1] for i in group])
        probs, keep, outs = _outcome_stack(
            _padded_kraus([items[i][2].kraus for i in group]), "B", amps, dims)
        proj = projector_stack(np.concatenate([amps, outs]))  # inputs, then outcomes
        marginals = np.trace(proj.reshape(-1, dA, dB, dA, dB), axis1=-3, axis2=-1)
        h_vals = h_of_spectrum(h, validate_density_stack(marginals)).tolist()
        stop = len(group)
        for j, i in enumerate(group):
            start, stop = stop, stop + int(keep[j].sum())
            values[i] = (probs[j, keep[j]].tolist(), h_vals[j], h_vals[start:stop], marginals[j],
                         marginals[start:stop])
    reports = []
    for (h, _, channel, seed, _), (p, lhs, vals, rho_a, out_a) in zip(items, values):
        rhs = functools.reduce(operator.add, (pk * v for pk, v in zip(p, vals)), 0.0)
        max_dev = max([0.0] + [float(np.linalg.norm(m - rho_a)) for m in out_a])
        metadata = {"max_reduced_dev": max_dev, "n_outcomes": len(p)}
        if lhs < STRICT_ZERO:
            metadata["note"] = "unentangled input"
        if max_dev > REDUCED_DEV_STRICT:
            tol, branch, rule = EQUALITY_TOL, "strict", "gap > tolerance"
        elif max_dev < REDUCED_DEV_EQUAL:
            tol, branch, rule = REDUCED_DEV_EQUAL, "equal", "|gap| < tolerance"
        else:
            metadata["reason"] = "reduced-state deviation falls between the decision thresholds"
            tol, lhs, rhs = EQUALITY_TOL, 0.0, 0.0
        if "reason" not in metadata:
            metadata.update(branch=branch, rule=rule)
        reports.append(_report("reduced-state", h.measure_id, classify(channel).tag, lhs, rhs,
                               tol, seed, metadata))
    return reports


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
    dA, dB1 = phi_ab1.dims.bipartite("the monogamy check")
    dB2, dC = eta_b2c.dims.bipartite("the monogamy check")
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
    support = vals > TOL_SUPPORT
    rhs = sum(lam * v for lam, v in zip(vals[support],
                                        pure_measure_stack(h, vecs.T[support], Dims(dA, dB))))
    cut_dev = abs(lhs - rhs)

    product_dev = float(np.linalg.norm(rho_ac.matrix - np.kron(rho_a.matrix, rho_c.matrix)))
    neg_ac = negativity(rho_ac).value

    # Contracting C with <s| is outcome s of the projective family {|s><s|}
    # on the AB|C cut; its A marginal traces out B and C.
    probs, keep, outs = _outcome_stack(projector_stack(np.eye(dC)), "B", rho.matrix[None],
                                       Dims(dA * dB, dC))
    marginals = np.trace(outs.reshape(-1, dA, dB * dC, dA, dB * dC), axis1=-3, axis2=-1)
    max_marginal_dev = max(float(np.linalg.norm(m - rho_a.matrix)) for m in marginals)
    average = np.tensordot(probs[keep], outs, 1).reshape(dA * dB, dC, dA * dB, dC)
    resync = np.trace(average, axis1=1, axis2=3) - rho_ab.matrix

    metadata = {
        "rule": "all three subchecks within tolerance",
        "cut_dev": cut_dev,
        "ac_product_dev": product_dev,
        "ac_negativity": neg_ac,
        "max_marginal_dev": max_marginal_dev,
        "contraction_resync_dev": float(np.linalg.norm(resync)),
    }
    return _report("monogamy", h.measure_id, None, lhs, rhs, MONOGAMY_TOL, seed, metadata)


def check_negativity_decomposition(rho: DensityMatrix, seed: int = 0) -> VerificationReport:
    """Jordan split of the partial transpose: (1+a) rho+ minus a rho-.

    The negative-part weight ``a`` must equal the negativity, the two parts
    must be orthogonal, and both must be valid states.
    """
    n_val = negativity(rho).value
    if n_val <= NEG_PPT_FLOOR:
        return _report("neg-decomposition", "negativity", None, 0.0, 0.0, JORDAN_TOL, seed,
                       {"reason": "input is PPT; the decomposition is trivial"})
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
    metadata = {
        "rule": "|gap| <= tolerance and orthogonal parts and valid states",
        "orthogonality_residual": orth,
        "parts_valid": parts_valid,
        "n_negative_eigenvalues": int(np.sum(vals < 0.0)),
    }
    return _report("neg-decomposition", "negativity", None, a, n_val, JORDAN_TOL, seed, metadata)


# Triples per batch of the log-negativity scan; bounds the scan's memory.
_LOGNEG_BLOCK = 256


def check_logneg_nonconvexity(
    rng: np.random.Generator,
    trials: int = 10000,
    seed: int = 0,
) -> VerificationReport:
    """Search for a convexity violation of the logarithmic negativity.

    Scans random (rho1, rho2, lambda) triples of two-qubit pure states for
    E_N(mix) exceeding the weighted average by more than ``LOGNEG_MARGIN``;
    the control confirms plain negativity stays convex on the same triples.
    Each triple takes two generator calls (lambda, then the normals of
    rho1 and rho2); triples are built and evaluated in blocks, and one
    trace-norm stack (``pure_pt_trace_norms`` for rho1 and rho2) gives both
    measures of mix, rho1 and rho2.  A scan of no triples is skipped; a
    ``trials`` that is not a nonnegative integer raises ``ValueError``.
    """
    if not _is_count(trials, 0):
        raise ValueError(f"trials must be a nonnegative integer, got {trials!r}")
    dims = Dims(2, 2)
    witness = None
    control_violations = 0
    for start in range(0, trials, _LOGNEG_BLOCK):
        size = min(_LOGNEG_BLOCK, trials - start)
        lam = np.empty(size)
        # Per triple, the normals of random_pure and then of random_product_pure.
        split = 2 * dims.total
        z = np.empty((size, split + 2 * sum(dims.factors)))
        for j in range(size):
            lam[j] = rng.uniform(0.05, 0.95)
            z[j] = rng.standard_normal(z.shape[1])
        amps = np.stack([_unit_rows(z[:, :split].reshape(size, 2, dims.total)),
                         _product_rows(z[:, split:], dims.factors)], axis=1)
        proj = projector_stack(amps)
        w = lam[:, None, None]
        mix = w * proj[:, 0] + (1.0 - w) * proj[:, 1]
        validate_density_stack(mix)
        norms = np.concatenate([pt_trace_norms(mix, dims)[:, None],
                                pure_pt_trace_norms(amps, dims)], axis=1)
        n_vals, en_vals = negativity_of_norms(norms), log_negativity_of_norms(norms)
        n_avg = lam * n_vals[:, 1] + (1.0 - lam) * n_vals[:, 2]
        en_avg = lam * en_vals[:, 1] + (1.0 - lam) * en_vals[:, 2]
        control_violations += int(np.count_nonzero(n_vals[:, 0] > n_avg + LOGNEG_MARGIN))
        hits = np.flatnonzero(en_vals[:, 0] > en_avg + LOGNEG_MARGIN)
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
        "trials": int(trials),
        "control_violations": control_violations,
        "witness": witness,
    }
    if trials == 0:
        metadata["reason"] = "no triples scanned"
    lhs, rhs = (0.0, 0.0) if witness is None else (witness["en_mix"], witness["en_avg"])
    return _report("logneg-nonconvexity", "log-negativity", None, lhs, rhs, LOGNEG_MARGIN, seed,
                   metadata)


def recompute_verdict(report: VerificationReport) -> str:
    """Re-derive the verdict from the report contents (no hidden state):
    the ``_verdict`` lookup that decided it."""
    return _verdict(report.gap, report.tolerance, report.metadata)


# ---------------------------------------------------------------------------
# Sweep configuration and execution.


@dataclass(frozen=True)
class SweepConfig:
    checks: tuple[str, ...] = field(default_factory=lambda: CHECK_IDS)
    measures: tuple[str, ...] = DEFAULT_MEASURES
    dims: tuple[tuple[int, int], ...] = DEFAULT_DIMS
    trials: int = 200
    n_kraus: int = 4
    seed: int = 0
    output_path: str = "verify-report.jsonl"

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
            if len(d) != 2 or not all(_is_count(x, 2) for x in d):
                raise ValueError(f"dims entries must be pairs of integers >= 2, got {d!r}")
        # Numpy integers pass, stored as int so that the config stays JSON-serializable.
        object.__setattr__(self, "dims", tuple(tuple(map(int, d)) for d in self.dims))
        for name, least, rule in (("trials", 0, "nonnegative"), ("n_kraus", 1, "at least 1"),
                                  ("seed", 0, "nonnegative")):
            value = getattr(self, name)
            if not _is_count(value, -math.inf):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be {rule}")
            object.__setattr__(self, name, int(value))


def _cycled(options, index):
    return options[index % len(options)]


def _n_kraus(config: SweepConfig, t: int) -> int:
    """Kraus count of trial ``t``'s general channel: 2, 3, ...,
    max(2, ``n_kraus``), cycled."""
    return _cycled(range(2, max(2, config.n_kraus) + 1), t)


def _trial_draw(config: SweepConfig, t: int, d: int, rng: np.random.Generator, every: int,
                n_unitaries: int):
    """The draw of trial ``t``'s side-B channel on dimension ``d``: a
    mixture of ``n_unitaries`` Haar unitaries on the last trial of every
    ``every``, a general channel of ``_n_kraus(config, t)`` operators
    otherwise."""
    if t % every == every - 1:
        return _draw_mixture(d, n_unitaries, rng)
    return _draw_channel(d, _n_kraus(config, t), rng)


def _stack_sampler(kind: str, dims: Dims):
    """``check_strict`` sampler of Haar pure ('pure', as amplitudes) or
    Ginibre full-rank ('mixed') states."""
    if kind == "mixed":
        return lambda rng, n: random_mixed_stack(dims, None, n, rng)
    return lambda rng, n: random_pure_stack(dims, n, rng)


def _trials(config: SweepConfig, n: int, check_idx: int, *parts: int):
    """Trials ``t < n`` of a check as ``(t, seed, rng)``: the seed derived
    from ``config.seed``, ``check_idx``, ``parts`` and ``t``, and a
    generator seeded with it.  All n seeds come before the first draw."""
    seeds = [derived_seed(config.seed, check_idx, *parts, t) for t in range(n)]
    for t, seed in enumerate(seeds):
        yield t, seed, np.random.default_rng(seed)


# Input states per kernel call of the monotone and strict sweeps; bounds
# their memory.  Peak RSS of `entmon verify --seed 0` at 512 (128): 49.1-49.2
# MB (48.5-48.6); with `--dims 3x3`, 53.3-53.7 MB (47.1-47.3).
_BATCH_STATES = 512


def _groups(keys) -> dict:
    """The indices of each distinct key, keys in order of first appearance."""
    out = {}
    for i, key in enumerate(keys):
        out.setdefault(key, []).append(i)
    return out


def _batch_reports(items, judge, *args):
    """``(item, report)`` pairs of a stream of items, tuples whose second
    member is a stack of input states and whose third is a channel or its
    draw.  ``judge(batch, *args)`` returns the reports of consecutive lists
    of items of at most ``_BATCH_STATES`` input states (or of one larger
    item); each list is drawn when the one before is judged, its inputs are
    validated once per trailing shape (``_check_inputs``), and its channels
    are built (``_build_channels``)."""
    batch, n_states = [], 0
    for item in itertools.chain(items, [None]):
        if batch and (item is None or n_states + len(item[1]) > _BATCH_STATES):
            for group in _groups(it[1].shape[1:] for it in batch).values():
                _check_inputs(np.concatenate([batch[i][1] for i in group]))
            channels = _build_channels([it[2] for it in batch])
            batch = [it[:2] + (channel,) + it[3:] for it, channel in zip(batch, channels)]
            yield from zip(batch, judge(batch, *args))
            batch, n_states = [], 0
        if item is not None:
            batch.append(item)
            n_states += len(item[1])


def _sweep_monotone(config: SweepConfig, check_idx: int) -> list[VerificationReport]:
    """The trials of one dims, every measure's in turn, stream through one
    ``_batch_reports``; each draws its state and channel from its own
    generator, which an optimizer tier's solver calls go on with."""
    reports = []
    for di, dims_pair in enumerate(config.dims):
        dims = Dims(*dims_pair)
        items = ((measure_id, _stack_sampler(kind, dims)(rng, 1),
                  _draw_channel(dims_pair[1], _n_kraus(config, t), rng), seed, rng)
                 for mi, measure_id in enumerate(config.measures)
                 if (kind := measure_state_kind(measure_id, dims)) is not None
                 for t, seed, rng in _trials(config, config.trials, check_idx, di, mi))
        reports += [rep for _, rep in _batch_reports(items, _monotone_reports, dims)]
    return reports


def _strict_items(config: SweepConfig, check_idx: int, di: int):
    """The ``strict`` reports of ``config.dims[di]`` as ``_strict_reports``
    items, existence direction first, each drawn from its report's own
    generator."""
    dims_pair = config.dims[di]
    dims = Dims(*dims_pair)
    # Existence direction: general channels must strictly decrease
    # negativity somewhere among Haar-random pure states.
    for c, seed, rng in _trials(config, max(1, config.trials // 4), check_idx, 0, di):
        draw = _draw_channel(dims_pair[1], _n_kraus(config, c), rng)
        yield "negativity", _stack_sampler("pure", dims)(rng, 100), draw, seed, False
    # Equality direction: unitary mixtures must preserve every measure.
    for t, seed, rng in _trials(config, config.trials, check_idx, 1, di):
        draw = _draw_mixture(dims_pair[1], 1 + t % 3, rng)
        for measure_id in config.measures:
            kind = measure_state_kind(measure_id, dims)
            if kind is None or measure_tier(measure_id) != "closed":
                continue
            yield measure_id, _stack_sampler(kind, dims)(rng, 3), draw, seed, True


def _sweep_strict(config: SweepConfig, check_idx: int) -> list[VerificationReport]:
    """The reports of one dims, both directions, go to ``_strict_reports``
    in batches."""
    existence, equality = [], []
    for di, dims_pair in enumerate(config.dims):
        for item, rep in _batch_reports(_strict_items(config, check_idx, di), _strict_reports,
                                        Dims(*dims_pair)):
            (equality if item[4] else existence).append(rep)
    return existence + equality


def _sweep_concavity(config: SweepConfig, check_idx: int) -> list[VerificationReport]:
    items = []
    for hi, h in enumerate(DEFAULT_H_SET):
        for t, seed, rng in _trials(config, config.trials, check_idx, hi):
            d = 2 if t % 2 == 0 else 3
            dims = Dims(d)
            rank = d if h.kind == "g-concurrence" else (1 + t % d if t % 5 else d)
            rho1, rho2 = random_mixed_stack(dims, rank, 2, rng)
            while float(np.linalg.norm(rho1 - rho2)) <= CONCAVITY_DISTANCE:
                rho2 = random_mixed_stack(dims, rank, 1, rng)[0]
            items.append((h, rho1, rho2, 0.5, seed))
    return _concavity_reports(items)


def _projective_channel(d: int) -> LocalKrausChannel:
    return LocalKrausChannel("B", tuple(projector_stack(np.eye(d))))


def _sweep_reduced_state(config: SweepConfig, check_idx: int) -> list[VerificationReport]:
    """The Bell state under the projective channel, then the trials, each
    drawn from its own generator; ``_reduced_state_reports`` judges them in
    batches."""
    return [rep for _, rep in _batch_reports(_reduced_state_items(config, check_idx),
                                             _reduced_state_reports)]


def _reduced_state_items(config: SweepConfig, check_idx: int):
    bell = bell_state()
    yield (ENTROPY, bell.amplitudes[None], _projective_channel(2),
           derived_seed(config.seed, check_idx, 0), bell.dims)
    h_cycle = (ENTROPY, NEGATIVITY_H, TANGLE, CONCURRENCE)
    for t, seed, rng in _trials(config, config.trials, check_idx, 1):
        dims = Dims(*_cycled(config.dims, t))
        yield (_cycled(h_cycle, t), random_pure_stack(dims, 1, rng),
               _trial_draw(config, t, dims.dB, rng, 3, 3), seed, dims)


def _sweep_roof_oracle(config: SweepConfig, check_idx: int) -> list[VerificationReport]:
    reports = []
    for t, seed, rng in _trials(config, max(1, config.trials // 25), check_idx):
        rho = random_mixed(Dims(2, 2), 2 + t % 3, rng)
        oracle = wootters_eof(rho)
        result = roof_minimize(ENTROPY, rho, 4, 20, rng)
        reports.append(_report(
            "roof-oracle", "eof", None, result.value, oracle, ROOF_ORACLE_TOL, seed,
            {"rule": "-lower_slack <= gap <= tolerance", "lower_slack": ROOF_ORACLE_SLACK,
             "converged": result.converged},
        ))
    return reports


def _ree_input(case: str, rng: np.random.Generator, t: int):
    """Trial ``t``'s two-qubit input of a ``ree`` case and its reference value."""
    if case == "bell":
        return bell_state().density(), math.log(2.0)
    if case == "pure-coincidence":
        rho = random_pure(Dims(2, 2), rng).density()
        return rho, von_neumann_entropy(partial_trace(rho, "A"))
    if case == "separable":
        return random_separable(Dims(2, 2), 4 + t % 3, rng), 0.0
    rho = random_mixed(Dims(2, 2), 2 + t % 3, rng)
    return rho, wootters_eof(rho)


def _sweep_ree(config: SweepConfig, check_idx: int) -> list[VerificationReport]:
    """Cases ``(case, trials, seed parts)``: the REE must meet the
    ``_ree_input`` reference value within the case's ``REE_CASE_TOL`` or,
    for ``below-eof``, stay under it (the EoF bounds the REE from above)."""
    n = max(1, config.trials // 100)
    cases = (("bell", 1, ()), ("pure-coincidence", n, (1,)), ("separable", n, (2,)),
             ("below-eof", n, (3,)))
    reports = []
    for case, count, parts in cases:
        for t, seed, rng in _trials(config, count, check_idx, *parts):
            rho, reference = _ree_input(case, rng, t)
            res = ree_minimize(rho, rng=rng)
            lhs, rhs, rule = (reference, res.value, "gap >= -tolerance") if case == "below-eof" \
                else (res.value, reference, "|gap| <= tolerance")
            reports.append(_report("ree", "ree", None, lhs, rhs, REE_CASE_TOL[case], seed,
                                   {"rule": rule, "case": case, "iterations": res.iterations,
                                    "converged": res.converged,
                                    "duality_gap_estimate": res.duality_gap_estimate,
                                    "atoms": res.atoms}))
    return reports


def _sweep_ree_dpi(config: SweepConfig, check_idx: int) -> list[VerificationReport]:
    """Each trial draws rho, sigma and its channel from its own generator;
    ``_ree_dpi_reports`` judges the trials in batches."""
    return [rep for _, rep in _batch_reports(_ree_dpi_items(config, check_idx),
                                             _ree_dpi_reports)]


def _ree_dpi_items(config: SweepConfig, check_idx: int):
    for t, seed, rng in _trials(config, config.trials, check_idx):
        dims_pair = _cycled(config.dims, t)
        dims = Dims(*dims_pair)
        yield (dims, random_mixed_stack(dims, None, 2, rng),
               _trial_draw(config, t, dims_pair[1], rng, 4, 2), seed)


def _ree_dpi_reports(items):
    """``ree-dpi`` reports of items ``(dims, mats, channel, seed)``, ``mats``
    the ``(2, N, N)`` stack [rho, sigma]: one ``_data_processing_stack``
    call per dims."""
    dpi = [None] * len(items)
    for dims, group in _groups(item[0] for item in items).items():
        reps = _data_processing_stack(np.stack([items[i][1] for i in group]),
                                      [items[i][2] for i in group], dims)
        for i, rep in zip(group, reps):
            dpi[i] = rep
    reports = []
    for (_, _, channel, seed), rep in zip(items, dpi):
        if rep.skipped_reason is not None:
            lhs, rhs, metadata = 0.0, 0.0, {"reason": rep.skipped_reason}
        else:
            # Equal divergences need the outcome probabilities of rho and
            # sigma to agree as well.
            equality = bool(rep.gap < EQUALITY_TOL)
            lhs, rhs = rep.total_divergence, rep.outcome_divergence
            metadata = {"rule": "gap >= -tolerance and probabilities unchanged" if equality
                        else "gap >= -tolerance",
                        "max_prob_deviation": rep.max_prob_deviation, "equality_case": equality}
        reports.append(_report("ree-dpi", "ree", classify(channel).tag, lhs, rhs, EQUALITY_TOL,
                               seed, metadata))
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
    for _, seed, rng in _trials(config, max(1, config.trials // 2), check_idx, 1):
        reports.append(check_negativity_decomposition(_sample_npt_two_qubit(rng), seed=seed))
    return reports


def _sweep_logneg(config: SweepConfig, check_idx: int) -> list[VerificationReport]:
    trials = min(10000, 50 * config.trials)
    return [check_logneg_nonconvexity(rng, trials=trials, seed=seed)
            for _, seed, rng in _trials(config, 1, check_idx)]


def _sweep_monogamy(config: SweepConfig, check_idx: int) -> list[VerificationReport]:
    seed = derived_seed(config.seed, check_idx, 0)
    reports = [check_monogamy_product(bell_state(), bell_state(), ENTROPY, seed=seed)]
    for t, seed, rng in _trials(config, max(1, config.trials // 50), check_idx, 1):
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
CHECK_IDS = tuple(_SWEEPS)  # a check's index here seeds its trials (run_sweep)


def run_sweep(config: SweepConfig, on_check=None) -> list[VerificationReport]:
    """Execute every configured check; deterministic for a fixed config.

    ``on_check(check_id, reports, seconds)``, when given, is called after
    each check with that check's reports and wall time.
    """
    reports: list[VerificationReport] = []
    for check_id in config.checks:
        check_idx = CHECK_IDS.index(check_id)
        start = time.perf_counter()
        batch = _SWEEPS[check_id](config, check_idx)
        if on_check is not None:
            on_check(check_id, batch, time.perf_counter() - start)
        reports.extend(batch)
    return reports


_REPORT_FIELDS = tuple(f.name for f in fields(VerificationReport))


def report_to_json(report: VerificationReport) -> str:
    # A shallow field dict: the metadata is already plain JSON values.
    return json.dumps({name: getattr(report, name) for name in _REPORT_FIELDS})


def write_reports_jsonl(reports: list[VerificationReport], path: str | Path) -> None:
    Path(path).write_text("".join(report_to_json(r) + "\n" for r in reports))


def summarize(reports: list[VerificationReport]) -> list[dict]:
    """Per (check_id, measure_id) trial counts, passes, skips, and gap statistics."""
    groups: dict[tuple[str, str], list[VerificationReport]] = {}
    for r in reports:
        groups.setdefault((r.check_id, r.measure_id), []).append(r)
    rows = []
    for key, rs in groups.items():
        gaps = [r.gap for r in rs if r.verdict != "skipped"]
        rows.append({
            "check_id": key[0],
            "measure_id": key[1],
            "trials": len(rs),
            "passes": sum(1 for r in rs if r.verdict == "pass"),
            "skipped": len(rs) - len(gaps),
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
            fieldnames=["check_id", "measure_id", "trials", "passes", "skipped",
                        "min_gap", "mean_gap", "max_gap"],
        )
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
