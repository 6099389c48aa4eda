"""Inputs, program calls and correctness gates of the benchmark workloads.

A workload is a sequence of rounds.  ``make_round(workload, seed, r)``
builds round ``r`` from the workload seed; the program only ever sees the
generated inputs.  A round holds timed items (one ``entmon verify``
invocation, or one solver call) and, for ``sweep-closed``, an untimed batch
of probe calls.  Each item carries the gate that judges its output: the
acceptance-suite tolerance decides pass or fail, and a tighter one decides
whether an oracle-backed output counts as accurate.

``sweep-closed`` is made of many similar, cheap items and draws every input
from the workload seed.  The two solver workloads solve a fixed set of
states, drawn once from ``STATE_SEED``, and the workload seed only shuffles
their order.  Both solvers' running time varies several-fold between random
states of one class, and between states that differ only by a local basis,
so with the eight to sixteen calls a run can afford, seeded states spread
the per-run figures by 25-50 %.  With fixed states and the solvers' default
generator every run repeats the same computation, and only the machine's
own noise is left.

Program calls go through module attributes (``roof.roof_minimize``), so the
tracing wrappers apply to them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from entmon import cli, measures, ree, roof, sampling, verify
from entmon.channels import LocalKrausChannel
from entmon.measures import CONCURRENCE, ENTROPY
from entmon.states import DensityMatrix, Dims, PureState, StateValidationError

# sweep-closed: the closed-form checks of `entmon verify`, default dims and
# measures.  At 10 trials one invocation takes about a second.
SWEEP_CHECKS = ("monotone", "strict", "concavity", "reduced-state", "ree-dpi",
                "neg-decomposition", "logneg-nonconvexity", "monogamy")
SWEEP_TRIALS = 10
SWEEP_CALLS = 16
# Known-defect probe: near-annihilating side-B Kraus families
# sqrt(c)|w><w| on states whose B support is w-perp plus amplitude noise
# eps in [1e-7, 1e-3]; apply_channel raises StateValidationError on about a
# third of them.
PROBE_CALLS = 500
PROBE_MEASURE = "negativity"

# roof-oracle: criterion-4 settings.
ROOF_RESTARTS = 20
ROOF_N_TERMS_2X2 = 4
ROOF_RANKS = (2, 3, 4)
ROOF_2X2_COPIES = 2  # states per (h, rank)
# Rank 2 keeps a 3x3 call near a second (rank 3 takes 7-14 s) while still
# taking the general reduced-spectrum path instead of the dA = 2 one.
ROOF_3X3_RANK = 2
ROOF_3X3_CALLS = 4
ROOF_LOW, ROOF_HIGH = 1e-9, 5e-3  # criterion 4: value - oracle in [-1e-9, 5e-3]
ROOF_TIGHT = 1e-8  # accurate: value - oracle in [-1e-9, 1e-8]

# ree-solve: criterion-7 tolerances.
REE_TOL = 1e-2  # Bell, pure, Bell-diagonal: |value - oracle| <= 1e-2
REE_SEP_TOL = 1e-4  # separable: value <= 1e-4
REE_BOUND_TOL = 2e-2  # generic mixed: value <= eof + 2e-2
REE_TIGHT = 1e-4  # accurate: |value - oracle| <= 1e-4
REE_MAX_ITERS = 2000
REE_ROUND = ("bell", "pure", "separable", "bell-diagonal", "mixed-2x2", "mixed-3x3")

D22, D33 = Dims(2, 2), Dims(3, 3)
STATE_SEED = 1904  # draws the solver workloads' fixed states


def derive(*parts: int) -> int:
    """Stable 63-bit seed from integer parts."""
    ss = np.random.SeedSequence([int(p) for p in parts])
    return int(ss.generate_state(1, np.uint64)[0] >> 1)


@dataclass
class Outcome:
    """Judgement of one item or probe call."""

    ops: int = 1
    failures: list[str] = field(default_factory=list)
    oracle_backed: int = 0
    accurate: int = 0
    known_defect: int = 0
    skipped: int = 0
    record: bytes = b""  # behaviour digest input
    solver: dict | None = None


@dataclass
class Item:
    case: str
    seed: int
    call: Callable[[], object]
    judge: Callable[[object], Outcome]


@dataclass
class Round:
    items: list[Item]
    probes: list[Item]


# --------------------------------------------------------------------------
# sweep-closed


def _sweep_item(seed: int, out: Path) -> Item:
    argv = ["verify", "--seed", str(seed), "--trials", str(SWEEP_TRIALS), "--out", str(out)]
    for check in SWEEP_CHECKS:
        argv += ["--check", check]

    def call():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def judge(rc) -> Outcome:
        raw = out.read_bytes()
        reports = [json.loads(line) for line in raw.splitlines()]
        failures = [f"sweep seed {seed}: {r['check_id']}/{r['measure_id']} report seed "
                    f"{r['seed']} verdict fail" for r in reports if r["verdict"] == "fail"]
        if rc != (1 if failures else 0):
            failures.append(f"sweep seed {seed}: exit code {rc}")
        return Outcome(ops=len(reports), failures=failures,
                       skipped=sum(r["verdict"] == "skipped" for r in reports), record=raw)

    return Item("sweep", seed, call, judge)


def _probe_item(seed: int) -> Item:
    rng = np.random.default_rng(seed)
    dA, dB = D22.factors
    u = sampling.haar_unitary(dB, rng)
    w, perp = u[:, 0], u[:, 1:]
    c = float(rng.uniform(0.05, 1.0))
    eps = 10.0 ** float(rng.uniform(-7.0, -3.0))
    proj = np.outer(w, w.conj())
    channel = LocalKrausChannel("B", (math.sqrt(c) * proj,
                                      np.eye(dB) - (1.0 - math.sqrt(1.0 - c)) * proj))
    g = rng.standard_normal((dA, dB - 1)) + 1j * rng.standard_normal((dA, dB - 1))
    psi = (g @ perp.T).reshape(-1)
    z = rng.standard_normal(dA * dB) + 1j * rng.standard_normal(dA * dB)
    psi = psi / np.linalg.norm(psi) + eps * z / np.linalg.norm(z)
    rho = PureState(psi / np.linalg.norm(psi), D22).density()

    def call():
        try:
            return verify.check_monotone(PROBE_MEASURE, rho, channel, seed=seed)
        except StateValidationError as exc:
            return exc

    def judge(rep) -> Outcome:
        if isinstance(rep, StateValidationError):
            return Outcome(known_defect=1, record=b"raised")
        failures = [] if rep.verdict == "pass" else \
            [f"probe seed {seed}: verdict {rep.verdict}, gap {rep.gap!r}"]
        return Outcome(failures=failures, record=f"{rep.verdict} {rep.lhs!r} {rep.rhs!r}".encode())

    return Item("probe", seed, call, judge)


def _sweep_round(seed: int, r: int, scratch: Path) -> Round:
    items = [_sweep_item(derive(seed, 0, r, i), scratch / f"sweep-{i}.jsonl")
             for i in range(SWEEP_CALLS)]
    probes = [_probe_item(derive(seed, 1, r, i)) for i in range(PROBE_CALLS)]
    return Round(items, probes)


# --------------------------------------------------------------------------
# roof-oracle


def _solver_record(value, iterations, converged) -> bytes:
    return f"{value!r} {iterations} {bool(converged)}".encode()


def _roof_item(h, rho: DensityMatrix, n_terms, seed: int, low: float, high: float,
               oracle: float | None) -> Item:
    dA, dB = rho.dims.factors
    case = f"{h.kind}-{dA}x{dB}"

    def call():
        return roof.roof_minimize(h, rho, n_terms, ROOF_RESTARTS)

    def judge(res) -> Outcome:
        out = Outcome(record=_solver_record(res.value, None, res.converged),
                      solver={"converged": bool(res.converged)})
        if not low <= res.value <= high:
            out.failures.append(f"{case} seed {seed}: value {res.value!r} outside "
                                f"[{low!r}, {high!r}]")
        if oracle is not None:
            out.oracle_backed = 1
            out.accurate = int(-ROOF_LOW <= res.value - oracle <= ROOF_TIGHT)
        return out

    return Item(case, seed, call, judge)


def _entropy(vals: np.ndarray) -> float:
    vals = vals[vals > 1e-15]
    return float(-np.sum(vals * np.log(vals)))


def _marginal_spectra(m: np.ndarray, dA: int, dB: int) -> tuple[np.ndarray, np.ndarray]:
    t = m.reshape(dA, dB, dA, dB)
    return (np.linalg.eigvalsh(np.einsum("ijkj->ik", t)),
            np.linalg.eigvalsh(np.einsum("ijil->jl", t)))


def _entropy_bounds(rho: DensityMatrix) -> tuple[float, float]:
    """Coherent information (a lower bound on E_F and E_R) and the average
    entanglement of the eigendecomposition (an upper bound on E_F)."""
    dA, dB = rho.dims.factors
    vals, vecs = np.linalg.eigh(rho.matrix)
    sa, sb = (_entropy(s) for s in _marginal_spectra(rho.matrix, dA, dB))
    coherent = max(sa, sb) - _entropy(vals)
    eig_avg = 0.0
    for lam, v in zip(vals, vecs.T):
        if lam > 1e-12:
            m = v.reshape(dA, dB)
            eig_avg += lam * _entropy(np.linalg.eigvalsh(m @ m.conj().T))
    return coherent, eig_avg


def _shuffled(items: list[Item], seed: int, r: int) -> list[Item]:
    order = np.random.default_rng([seed, r]).permutation(len(items))
    return [items[i] for i in order]


def _roof_round(seed: int, r: int, scratch: Path) -> Round:
    items = []
    for k, (h, oracle_fn) in enumerate(((ENTROPY, measures.wootters_eof),
                                        (CONCURRENCE, measures.wootters_concurrence))):
        for rank in ROOF_RANKS:
            for c in range(ROOF_2X2_COPIES):
                s = derive(STATE_SEED, k, rank, c)
                rho = sampling.random_mixed(D22, rank, np.random.default_rng(s))
                oracle = oracle_fn(rho)
                items.append(_roof_item(h, rho, ROOF_N_TERMS_2X2, s,
                                        oracle - ROOF_LOW, oracle + ROOF_HIGH, oracle))
    for i in range(ROOF_3X3_CALLS):
        s = derive(STATE_SEED, 2, i)
        rho = sampling.random_mixed(D33, ROOF_3X3_RANK, np.random.default_rng(s))
        coherent, eig_avg = _entropy_bounds(rho)
        items.append(_roof_item(ENTROPY, rho, None, s, max(0.0, coherent) - ROOF_LOW,
                                eig_avg + ROOF_LOW, None))
    return Round(_shuffled(items, seed, r), [])


# --------------------------------------------------------------------------
# ree-solve

_BELL_BASIS = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / math.sqrt(2)


def _binary_entropy(x: float) -> float:
    return 0.0 if x <= 0.0 or x >= 1.0 else -x * math.log(x) - (1 - x) * math.log(1 - x)


def _ree_item(case: str, rho: DensityMatrix, seed: int, low: float, high: float,
              oracle: float | None) -> Item:
    def call():
        return ree.ree_minimize(rho, max_iters=REE_MAX_ITERS)

    def judge(res) -> Outcome:
        out = Outcome(record=_solver_record(res.value, res.iterations, res.converged),
                      solver={"converged": bool(res.converged), "iterations": res.iterations,
                              "capped": res.iterations >= REE_MAX_ITERS and not res.converged,
                              "gap": float(res.duality_gap_estimate)})
        if not low <= res.value <= high:
            out.failures.append(f"{case} seed {seed}: value {res.value!r} outside "
                                f"[{low!r}, {high!r}]")
        if oracle is not None:
            out.oracle_backed = 1
            out.accurate = int(abs(res.value - oracle) <= REE_TIGHT)
        return out

    return Item(case, seed, call, judge)


def _ree_input(case: str, k: int, rng: np.random.Generator):
    """(state, lower gate, upper gate, exact oracle or None) for the k-th
    item of ``case`` in a round."""
    if case == "bell":
        oracle = math.log(2.0)
        return PureState(_BELL_BASIS[0].astype(complex), D22).density(), oracle - REE_TOL, \
            oracle + REE_TOL, oracle
    if case == "pure":
        rho = sampling.random_pure(D22, rng).density()
        oracle = _entropy(_marginal_spectra(rho.matrix, 2, 2)[0])
        return rho, oracle - REE_TOL, oracle + REE_TOL, oracle
    if case == "separable":
        n_terms = int(rng.integers(4, 7))
        return sampling.random_separable(D22, n_terms, rng), -math.inf, REE_SEP_TOL, 0.0
    if case == "bell-diagonal":
        # Vedral-Plenio: E_R = ln 2 - H2(F) for largest weight F >= 1/2.  F
        # stays clear of 1/2 (nearly separable) and 1 (nearly the Bell state),
        # which the separable and Bell items already cover.
        f = float(rng.uniform(0.6, 0.95))
        weights = np.concatenate([[f], (1.0 - f) * rng.dirichlet(np.ones(3))])
        rho = DensityMatrix((_BELL_BASIS.T * weights) @ _BELL_BASIS + 0j, D22)
        oracle = math.log(2.0) - _binary_entropy(f)
        return rho, oracle - REE_TOL, oracle + REE_TOL, oracle
    if case == "mixed-2x2":
        # Ranks 2 and 3 are entangled far more often than rank 4, whose
        # states are mostly separable and so duplicate the separable item.
        rho = sampling.random_mixed(D22, 2 + k % 2, rng)
        return rho, -math.inf, measures.wootters_eof(rho) + REE_BOUND_TOL, None
    if case == "mixed-3x3":
        # Coherent information <= E_R <= mutual information S(rho || rho_A x rho_B).
        rho = sampling.random_mixed(D33, None, rng)
        sa, sb = (_entropy(s) for s in _marginal_spectra(rho.matrix, 3, 3))
        s_ab = _entropy(np.linalg.eigvalsh(rho.matrix))
        return rho, max(0.0, max(sa, sb) - s_ab) - REE_BOUND_TOL, \
            sa + sb - s_ab + REE_BOUND_TOL, None
    raise ValueError(case)


def _ree_round(seed: int, r: int, scratch: Path) -> Round:
    items = []
    for i, case in enumerate(REE_ROUND):
        k = REE_ROUND[:i].count(case)
        s = derive(STATE_SEED, 3, k, *case.encode())
        rho, low, high, oracle = _ree_input(case, k, np.random.default_rng(s))
        items.append(_ree_item(case, rho, s, low, high, oracle))
    return Round(_shuffled(items, seed, r), [])


def run_item(item: Item, span=contextlib.nullcontext) -> tuple[float, Outcome]:
    """Seconds taken by the program call, and the call's judgement.

    ``span(name)`` is entered around the call alone.  An exception is a
    failed operation, not the end of the run.
    """
    start = time.perf_counter()
    try:
        with span(f"item:{item.case}"):
            result = item.call()
    except Exception as exc:  # noqa: BLE001 - counted and reported
        return time.perf_counter() - start, Outcome(
            failures=[f"{item.case} seed {item.seed}: {type(exc).__name__}: {exc}"],
            record=type(exc).__name__.encode())
    seconds = time.perf_counter() - start
    return seconds, item.judge(result)


_ROUNDS = {"sweep-closed": _sweep_round, "roof-oracle": _roof_round, "ree-solve": _ree_round}


def make_round(workload: str, seed: int, r: int, scratch: Path) -> Round:
    """Round ``r`` of ``workload``; sweep reports go to files under ``scratch``."""
    return _ROUNDS[workload](seed, r, scratch)
