"""``tools/bench_pairs.py`` reads what one perfbench run prints.

The pair file ties a ``peak_rss_mb`` move to the rounds each run fits into
its seconds, so every run records its round and operation counts, parsed
from perfbench's ``workload ...: N round(s)`` line, and its first-round
behaviour digest, parsed from the ``digest run ... first-round ...`` line, so
a pair file shows which workloads a change left unchanged.  One short run of
the real benchmark checks both parses against the current output format.
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


def test_run_records_the_first_round_digest():
    bench_pairs = _bench_pairs()
    run = bench_pairs._run(ROOT, "ree-solve", 1, 0.01)
    assert len(run["first_round_digest"]) == 64
    assert set(run["first_round_digest"]) <= set("0123456789abcdef")
    # The first-round digest, not the whole run's, which a one-round run
    # cannot tell apart.
    line = f"digest run {'a' * 64} first-round {'b' * 64}"
    assert bench_pairs._DIGESTS.match(line)["first"] == "b" * 64
