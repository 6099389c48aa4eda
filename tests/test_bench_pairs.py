"""``tools/bench_pairs.py`` reads what one perfbench run prints.

The pair file ties a ``peak_rss_mb`` move to the rounds each run fits into
its seconds, so every run records its round and operation counts, parsed
from perfbench's ``workload ...: N round(s)`` line.  One short run of the
real benchmark checks that parse against the current output format.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("_bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_records_rounds_and_operations():
    run = _bench_pairs()._run(ROOT, "ree-solve", 1, 0.01)
    assert run["rounds"] == 1  # a round always runs; 0.01 s leaves room for no second
    assert run["operations"] == run["attempted"] >= 1
    assert run["metrics"]["wall_s"]["value"] > 0.0
