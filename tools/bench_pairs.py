"""Alternating parent/change pairs of the perfbench workloads, as one JSON file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_<n>.json \
        --pairs ree-solve:801:10 --pairs sweep-closed:821:6 --pairs roof-oracle:841:6 \
        --setup ree-solve:20

Each ``--pairs WORKLOAD:FIRST_SEED:N`` runs ``perfbench/run.py --workload
WORKLOAD --seed S --seconds T`` in both source trees, with T the
``run_seconds`` of the change tree's BENCHMARK.json, for the N seeds
FIRST_SEED, FIRST_SEED + 1, ...; the parent runs first on even pair indices
and second on odd ones.  Every run is single-threaded (perfbench pins
OPENBLAS_NUM_THREADS=1 before numpy loads) and writes no bytecode, and the
script refuses to start while either tree holds a ``__pycache__`` under
``src/`` or ``perfbench/``: ``setup_s`` includes compiling, so a tree with a
cache would read faster for the same code.  The file records every run's
end-to-end metrics, round and operation counts, first-round behaviour
digest, machine and, per case of its printed items, the median item seconds
and the distinct records; per workload, each side's median round count
(``peak_rss_mb`` grows with the rounds a run fits into its seconds), how many
pairs have equal first-round digests on both sides (a workload the change
leaves unchanged has all of them equal), per case each side's median item
seconds and how many pairs printed the same records on both sides, and per
metric each side's median and quartiles, how many pairs the change won (ties
count for neither side) and whether a gain on it could be claimed:
``claim_holds`` is true when the change won at least 9 in 10 of the pairs
and its median is better than the parent's by more than the parent's
interquartile range.  Below 10 pairs it is null: with 4 pairs, "9 in 10"
means 4 of 4 and the parent's quartiles come from 4 runs, so the machine's
drift between runs can pass as a gain.

Each ``--setup WORKLOAD:N`` adds N alternating ``perfbench/run.py
--setup-only`` samples per tree (setup time alone, in a fresh interpreter,
parent first on even indices), with each side's median and quartiles: a run's
``setup_s`` is the median of only 3 samples, whose spread is about 20 %.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ENV = {"OPENBLAS_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
CLAIM_PAIRS = 10  # fewest pairs on which a gain can be claimed


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, **ENV}
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    run = json.loads(lines[-1])
    # perfbench prints the machine (CPU model, BLAS, library versions) on
    # its own summary line.
    run["machine"] = next(json.loads(line.split(" ", 1)[1]) for line in lines
                          if line.startswith("machine "))
    # ... and the counts on "workload W seed S: N round(s), I items, O operations, ...".
    counts = next(m for m in map(_COUNTS.match, lines) if m)
    run["rounds"], run["operations"] = int(counts["rounds"]), int(counts["operations"])
    # ... and the digests on "digest run D first-round F".
    run["first_round_digest"] = next(m for m in map(_DIGESTS.match, lines) if m)["first"]
    run["items"] = _items(lines)
    return run


def _items(lines: list[str]) -> dict:
    """Per case of the "item CASE SECONDS s -> RECORD" lines, the median
    seconds and the distinct records, in order of first appearance."""
    seconds, records = {}, {}
    for m in filter(None, map(_ITEM.match, lines)):
        seconds.setdefault(m["case"], []).append(float(m["seconds"]))
        records.setdefault(m["case"], {})[m["record"]] = None
    return {case: {"median_s": statistics.median(xs), "records": list(records[case])}
            for case, xs in seconds.items()}


_COUNTS = re.compile(r"workload \S+ seed -?\d+: (?P<rounds>\d+) round\(s\), \d+ items, "
                     r"(?P<operations>\d+) operations")
_DIGESTS = re.compile(r"digest run [0-9a-f]+ first-round (?P<first>[0-9a-f]+)$")
_ITEM = re.compile(r"item (?P<case>\S+) (?P<seconds>\S+) s -> (?P<record>.*)$")


def _setup_sample(tree: Path, workload: str) -> float:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--setup-only"]
    done = subprocess.run(cmd, cwd=tree, env={**os.environ, **ENV}, capture_output=True,
                          text=True, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _bytecode_caches(tree: Path) -> list[Path]:
    return sorted(p for sub in ("src", "perfbench") for p in (tree / sub).rglob("__pycache__"))


def _quartiles(xs: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def _summary(parent: list[dict], change: list[dict], declared: list[dict]) -> dict:
    out = {}
    for m in declared:
        name, lower = m["name"], m["better"] == "lower"
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        qp, qc = _quartiles(p), _quartiles(c)
        gain = (qp["median"] - qc["median"]) * (1 if lower else -1)
        out[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                     "parent": qp, "change": qc, "change_wins": wins, "pairs": len(p),
                     "claim_holds": None if len(p) < CLAIM_PAIRS
                     else 10 * wins >= 9 * len(p) and gain > qp["q3"] - qp["q1"]}
    return out


def _item_summary(parent: list[dict], change: list[dict]) -> dict:
    """Per case, each side's median of its runs' median item seconds, and how
    many pairs printed the same distinct records on both sides."""
    return {case: {
        "median_s": {side: statistics.median(r["items"][case]["median_s"] for r in runs)
                     for side, runs in (("parent", parent), ("change", change))},
        "equal_record_pairs": sum(p["items"][case]["records"] == c["items"][case]["records"]
                                  for p, c in zip(parent, change)),
    } for case in parent[0]["items"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", action="append", required=True,
                        metavar="WORKLOAD:FIRST_SEED:N")
    parser.add_argument("--setup", action="append", default=[], metavar="WORKLOAD:N")
    args = parser.parse_args()
    caches = _bytecode_caches(args.parent) + _bytecode_caches(args.change)
    if caches:
        parser.error(f"remove the bytecode cache {caches[0]}: a tree with one skips "
                     "compiling, which setup_s times")

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    declared, seconds = bench["end_to_end"], float(bench["run_seconds"])
    result = {
        "command": f"perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "env": ENV,
        "platform": platform.platform(),
        "workloads": {},
    }
    for spec in args.pairs:
        workload, first, n = spec.split(":")
        if int(n) < 2:
            parser.error("quartiles need at least 2 pairs per workload")
        runs = {"parent": [], "change": []}
        seeds = [int(first) + i for i in range(int(n))]
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                tree = args.parent if side == "parent" else args.change
                runs[side].append(_run(tree, workload, seed, seconds))
                print(f"{workload} seed {seed} {side}: wall_s "
                      f"{runs[side][-1]['metrics']['wall_s']['value']:.3f}, "
                      f"{runs[side][-1]['rounds']} rounds", file=sys.stderr)
        result["workloads"][workload] = {
            "seeds": seeds, "parent_first": [i % 2 == 0 for i in range(len(seeds))],
            "median_rounds": {side: statistics.median(r["rounds"] for r in rs)
                              for side, rs in runs.items()},
            "equal_first_round_digests": sum(
                p["first_round_digest"] == c["first_round_digest"]
                for p, c in zip(runs["parent"], runs["change"])),
            "items": _item_summary(runs["parent"], runs["change"]),
            "summary": _summary(runs["parent"], runs["change"], declared), "runs": runs,
        }
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    for spec in args.setup:
        workload, n = spec.split(":")
        samples = {"parent": [], "change": []}
        for i in range(int(n)):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                samples[side].append(_setup_sample(getattr(args, side), workload))
        result.setdefault("setup_only", {})[workload] = {
            "summary": {side: _quartiles(xs) for side, xs in samples.items()},
            "samples": samples}
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
