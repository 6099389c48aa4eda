"""entmon benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; entmon is imported from ``src/``
there.  The workload runs rounds back to back (a closed loop with one
caller) while the next round is expected to end within ``--seconds``, and
always at least one round.  With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` the same rounds run once untraced
and once traced, and the JSON carries the per-layer metrics.  The lines
before it are a human-readable summary: every metric with its unit, the
failure count, the behaviour digests and the machine.  See README.md.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread, pinned before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3  # this process plus two fresh ones; setup_s is their median
SETUP_TIMEOUT_S = 120

# Machine-speed calibration.  On the shared 2-vCPU machine this benchmark was
# built on, the same computation ran up to 1.7x slower for minutes at a time,
# which spread raw timings of identical runs by 15-35 %.  A fixed reference
# kernel, timed between items, slows down with it.  Each item's time is
# scaled by KERNEL_REF_S over the median of the kernel samples around it, so
# timings read as seconds on a machine that runs the kernel in KERNEL_REF_S
# (about this machine's median).  A single sample is noisier than an item;
# the median of six follows the slow changes without the fast ones.
KERNEL_REF_S = 0.050
_KERNEL_REPS = 3000
_KERNEL_H = np.array([[2.0, 1 - 1j, 0.5, 0], [1 + 1j, -1.0, 0.25j, 1], [0.5, -0.25j, 0.5, 2j],
                      [0, 1, -2j, 1.5]])
_EIGVALSH = np.linalg.eigvalsh  # bound before tracing replaces np.linalg.eigvalsh

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_s": "s",
    "item_tail_s": "s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

ROOF_CASES = ("entropy-2x2", "concurrence-2x2", "entropy-3x3")
REE_CASES = ("bell", "pure", "separable", "bell-diagonal", "mixed-2x2", "mixed-3x3")


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    if last.endswith("_frac"):
        return "frac"
    return {"iterations_mean": "iterations", "gap_max": "nats"}.get(last, "count")


def per_layer_names() -> list[str]:
    names = []
    for name, _, _ in tracing.TARGETS:
        names += [f"{name}.calls", f"{name}.self_s"]
        if name.startswith("verify."):
            names.append(f"{name}.total_s")
    names.append("verify.skipped_frac")
    for case in ROOF_CASES:
        names += [f"roof.{case}.calls", f"roof.{case}.total_s", f"roof.{case}.p50_s"]
    names += ["roof.converged_frac", "roof.accurate_frac"]
    for case in REE_CASES:
        names += [f"ree.{case}.calls", f"ree.{case}.total_s", f"ree.{case}.p50_s",
                  f"ree.{case}.iterations_mean"]
    names += ["ree.converged_frac", "ree.accurate_frac", "ree.capped_frac", "ree.gap_max"]
    names += ["linalg.eigh.calls", "linalg.eigvalsh.calls", "linalg.eigvalsh.matrices"]
    names += ["bench.kernel_s", "bench.trace_overhead_s", "bench.items", "bench.item_tail_rank",
              "bench.failed_frac", "bench.known_defect_frac"]
    return names


def tail_rank(n: int) -> int:
    """0-based rank, in ascending item times, of the reported tail.

    The highest percentile with ten items beyond it once a run has 110
    items; below that a tenth of the items lie beyond it (the maximum when
    fewer than ten), so the tail stays above the median.
    """
    return n - 1 - min(10, n // 10)


def _machine() -> dict:
    import scipy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def kernel_seconds() -> float:
    """Time of the reference kernel, about 50 ms here: small eigvalsh calls
    and a Python loop, the same mix as entmon's closed-form code."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(_KERNEL_REPS):
        acc += float(_EIGVALSH(_KERNEL_H)[0])
        acc += sum(j * 0.5 for j in range(40))
    return time.perf_counter() - start


class Pass:
    """Timings and judgements of one pass over a list of rounds.

    The reference kernel runs before a round's first item and after every
    item and probe batch.  A round's wall time is the sum of its items'
    times and its probe batch's.  ``item_times`` and ``round_walls`` are
    calibrated, the ``raw_`` ones are plain seconds.
    """

    def __init__(self, run_item, span=contextlib.nullcontext):
        self.run_item = run_item
        self.span = span  # context manager factory around each program call
        self.kernel_times: list[float] = []
        self.items: list[tuple[float, int]] = []  # (seconds, kernel sample before it)
        self.rounds: list[list[tuple[float, int]]] = []  # items and probe batch
        self.outcomes = []  # (case, Outcome, seconds or None) per item and probe
        self.digest = hashlib.sha256()
        self.first_round_digest = ""

    def run_round(self, rnd) -> None:
        self.kernel_times.append(kernel_seconds())
        segments = []
        for batch, timed in [([item], True) for item in rnd.items] + [(rnd.probes, False)]:
            if not batch:
                continue
            seconds = 0.0
            for item in batch:
                took, outcome = self.run_item(item, self.span)
                seconds += took
                self.outcomes.append((item.case, outcome, took if timed else None))
            segment = (seconds, len(self.kernel_times) - 1)
            self.kernel_times.append(kernel_seconds())
            segments.append(segment)
            if timed:
                self.items.append(segment)
        self.rounds.append(segments)
        for case, outcome, _ in self.outcomes[-len(rnd.items) - len(rnd.probes):]:
            self.digest.update(hashlib.sha256(case.encode() + b"\0" + outcome.record).digest())
        if not self.first_round_digest:
            self.first_round_digest = self.digest.hexdigest()

    def _calibrated(self, seconds: float, before: int) -> float:
        """Scale by the median of the six kernel samples nearest the segment."""
        window = self.kernel_times[max(0, before - 2): before + 4]
        return seconds * KERNEL_REF_S / statistics.median(window)

    @property
    def item_times(self) -> list[float]:
        return [self._calibrated(*segment) for segment in self.items]

    @property
    def round_walls(self) -> list[float]:
        return [sum(self._calibrated(*segment) for segment in r) for r in self.rounds]

    @property
    def raw_item_times(self) -> list[float]:
        return [seconds for seconds, _ in self.items]

    @property
    def raw_round_walls(self) -> list[float]:
        return [sum(seconds for seconds, _ in r) for r in self.rounds]

    def total(self, attr: str) -> int:
        return sum(getattr(o, attr) for _, o, _ in self.outcomes)

    def failures(self) -> list[str]:
        return [msg for _, o, _ in self.outcomes for msg in o.failures]


def end_to_end(p: Pass, setup_s: float) -> dict:
    times = sorted(p.item_times)
    ops = p.total("ops")
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.round_walls),
        "item_p50_s": statistics.median(times),
        "item_tail_s": times[tail_rank(len(times))],
        "ok_frac": (ops - len(p.failures()) - p.total("known_defect")) / ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(untraced: Pass, traced: Pass, tracer) -> dict:
    stats = tracer.stats()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "p50_s": 0.0}
    out = dict.fromkeys(per_layer_names(), 0.0)
    for name, _, _ in tracing.TARGETS:
        s = stats.get(name, zero)
        out.update({f"{name}.calls": s["calls"], f"{name}.self_s": s["self_s"]})
        if name.startswith("verify."):
            out[f"{name}.total_s"] = s["total_s"]
    ops = traced.total("ops")
    sweep_ops = sum(o.ops for case, o, _ in traced.outcomes if case == "sweep")
    if sweep_ops:
        out["verify.skipped_frac"] = traced.total("skipped") / sweep_ops
    for prefix, cases in (("roof", ROOF_CASES), ("ree", REE_CASES)):
        for case in cases:
            s = stats.get(f"item:{case}", zero)
            out.update({f"{prefix}.{case}.calls": s["calls"],
                        f"{prefix}.{case}.total_s": s["total_s"],
                        f"{prefix}.{case}.p50_s": s["p50_s"]})
        runs = [o for c, o, _ in traced.outcomes if c in cases and o.solver]
        if runs:
            out[f"{prefix}.converged_frac"] = statistics.fmean(o.solver["converged"] for o in runs)
            out[f"{prefix}.accurate_frac"] = (sum(o.accurate for o in runs)
                                              / max(1, sum(o.oracle_backed for o in runs)))
    for case in REE_CASES:
        runs = [o.solver for c, o, _ in traced.outcomes if c == case and o.solver]
        if runs:
            out[f"ree.{case}.iterations_mean"] = statistics.fmean(s["iterations"] for s in runs)
    runs = [o.solver for c, o, _ in traced.outcomes if c in REE_CASES and o.solver]
    if runs:
        out["ree.capped_frac"] = statistics.fmean(s["capped"] for s in runs)
        out["ree.gap_max"] = max(s["gap"] for s in runs)
    out["linalg.eigh.calls"] = tracer.eigh_calls
    out["linalg.eigvalsh.calls"] = tracer.eigvalsh_calls
    out["linalg.eigvalsh.matrices"] = tracer.eigvalsh_matrices
    out["bench.kernel_s"] = statistics.median(untraced.kernel_times)
    out["bench.trace_overhead_s"] = sum(traced.round_walls) - sum(untraced.round_walls)
    out["bench.items"] = len(traced.item_times)
    out["bench.item_tail_rank"] = tail_rank(len(traced.item_times))
    out["bench.failed_frac"] = len(traced.failures()) / ops
    probes = sum(case == "probe" for case, _, _ in traced.outcomes)
    if probes:
        out["bench.known_defect_frac"] = traced.total("known_defect") / probes
    return out


def _setup_samples(args, first: float) -> list[float]:
    """Setup time of this process plus that of fresh interpreters."""
    samples = [first]
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _check_declared(metrics: dict, key: str) -> None:
    """The printed metrics must be exactly those BENCHMARK.json declares."""
    path = ROOT / "BENCHMARK.json"
    if path.is_file():
        declared = {m["name"] for m in json.loads(path.read_text())[key]}
        if declared != set(metrics):
            raise SystemExit(f"metrics {sorted(set(metrics) ^ declared)} differ from "
                             f"BENCHMARK.json {key}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-closed", "roof-oracle", "ree-solve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "entmon" / "__init__.py").is_file():
        print(f"error: no entmon sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import entmon
    import workloads

    if Path(entmon.__file__).resolve().parent != (src / "entmon").resolve():
        print(f"error: entmon was imported from {entmon.__file__}, not {src}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench-out"
    scratch.mkdir(exist_ok=True)
    rounds = [workloads.make_round(args.workload, args.seed, 0, scratch)]
    setup_first = time.perf_counter() - _T0
    if args.setup_only:
        print(repr(setup_first))
        return 0
    setup_s = statistics.median(_setup_samples(args, setup_first))

    untraced = Pass(workloads.run_item)
    start = time.perf_counter()
    while True:
        untraced.run_round(rounds[-1])
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break
        rounds.append(workloads.make_round(args.workload, args.seed, len(rounds), scratch))

    (scratch / f"timings-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
        "case": [case for case, _, took in untraced.outcomes if took is not None],
        "raw_item_s": untraced.raw_item_times,
        "kernel_s": untraced.kernel_times,
    }))
    summary = end_to_end(untraced, setup_s)
    units = dict(END_TO_END)
    metrics, key, run = dict(summary), "end_to_end", untraced
    if args.trace:
        tracer = tracing.Tracer()
        run = Pass(workloads.run_item, tracer.span)
        with tracing.installed(tracer):
            for rnd in rounds:
                run.run_round(rnd)
        tracer.save(scratch / f"trace-{args.workload}-seed{args.seed}.npz")
        metrics, key = per_layer(untraced, run, tracer), "per_layer"
        units.update((name, _unit(name)) for name in metrics)
    _check_declared(metrics, key)

    failures = run.failures()
    attempted = run.total("ops")
    digests_match = run.digest.digest() == untraced.digest.digest()
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} round(s), "
          f"{len(run.item_times)} items, {attempted} operations, {len(failures)} failed, "
          f"{run.total('known_defect')} known-defect StateValidationError")
    for msg in failures:
        print(f"FAILED {msg}")
    for case, outcome, seconds in untraced.outcomes:
        if seconds is not None and case != "sweep":
            print(f"item {case} {seconds!r} s -> {outcome.record.decode()}")
    n = len(untraced.item_times)
    print(f"item_tail_s is the item at rank {tail_rank(n)} of {n} (0-based, ascending)")
    raw = sorted(untraced.raw_item_times)
    print(f"uncalibrated: wall_s {statistics.median(untraced.raw_round_walls)!r} s, "
          f"item_p50_s {statistics.median(raw)!r} s, item_tail_s {raw[tail_rank(n)]!r} s; "
          f"reference kernel median {statistics.median(untraced.kernel_times)!r} s "
          f"(KERNEL_REF_S {KERNEL_REF_S})")
    print(f"digest run {untraced.digest.hexdigest()} first-round {untraced.first_round_digest}")
    if args.trace:
        print(f"digest traced {run.digest.hexdigest()} "
              f"{'matches' if digests_match else 'DIFFERS FROM'} untraced")
    print("machine " + json.dumps(_machine()))
    summary["failed_frac"] = len(failures) / attempted
    units["failed_frac"] = "frac"
    backed = untraced.total("oracle_backed")
    if backed:
        summary["accurate_frac"] = untraced.total("accurate") / backed
        units["accurate_frac"] = "frac"
    for name, value in {**summary, **metrics}.items():
        print(f"{name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": not failures and digests_match,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
