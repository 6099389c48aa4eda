"""``tools/bench_pairs.py`` reads what one perfbench run prints.

The pair file ties a ``peak_rss_mb`` move to the rounds each run fits into
its seconds, so every run records its round and operation counts, parsed
from perfbench's ``workload ...: N round(s)`` line, and its first-round
behaviour digest, parsed from the ``digest run ... first-round ...`` line, so
a pair file shows which workloads a change left unchanged.  One short run of
the real benchmark checks both parses against the current output format.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("cached", ["src/entmon/__pycache__", "perfbench/__pycache__"])
def test_refuses_a_tree_with_a_bytecode_cache(tmp_path, monkeypatch, capsys, cached):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for tree in (parent, change):
        (tree / "src" / "entmon").mkdir(parents=True)
        (tree / "perfbench").mkdir()
    (change / cached).mkdir()
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--parent", str(parent), "--change",
                                      str(change), "--out", str(tmp_path / "out.json"),
                                      "--pairs", "roof-oracle:1:2"])
    with pytest.raises(SystemExit) as exc:
        _bench_pairs().main()
    assert exc.value.code == 2
    assert str(change / cached) in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def _runs(values: list[float]) -> list[dict]:
    return [{"metrics": {"wall_s": {"value": v}, "ok_frac": {"value": 1.0}}} for v in values]


@pytest.mark.parametrize("better", ["lower", "higher"])
@pytest.mark.parametrize("change,holds", [
    ([0.80 + 0.01 * i for i in range(10)], True),  # wins 10 of 10, far below the IQR
    ([0.80] * 9 + [1.10], True),  # wins 9 of 10
    ([0.80] * 8 + [1.10] * 2, False),  # wins 8 of 10
    ([0.99] * 10, False),  # wins 10 of 10 by less than the parent's IQR
])
def test_claim_rule(better, change, holds):
    # The parent's runs: median 1.00, IQR 0.0225.
    parent = [1.00 + 0.005 * (i - 4.5) for i in range(10)]
    if better == "higher":
        parent, change = [-v for v in parent], [-v for v in change]
    declared = [{"name": "wall_s", "unit": "s", "better": better, "bound": 0.2},
                {"name": "ok_frac", "unit": "frac", "better": "higher", "bound": 0.02}]
    summary = _bench_pairs()._summary(_runs(parent), _runs(change), declared)
    assert summary["wall_s"]["claim_holds"] is holds
    assert summary["ok_frac"]["change_wins"] == 0 and not summary["ok_frac"]["claim_holds"]


@pytest.mark.parametrize("change", [
    [0.80, 0.81, 0.82, 0.83],  # wins 4 of 4, far below the parent
    [1.10, 1.10, 1.10, 1.10],  # loses 4 of 4
])
def test_no_claim_below_ten_pairs(change):
    # Four pairs cannot carry a claim either way: "9 in 10" would mean 4 of 4,
    # and the parent's IQR would come from four runs.
    parent = [1.00, 1.01, 0.99, 1.00]
    declared = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2}]
    summary = _bench_pairs()._summary(_runs(parent), _runs(change), declared)["wall_s"]
    assert summary["claim_holds"] is None
    assert summary["pairs"] == 4
    assert summary["change_wins"] == (4 if change[0] < 1.0 else 0)


def test_setup_sample_reads_the_setup_only_line():
    assert 0.0 < _bench_pairs()._setup_sample(ROOT, "ree-solve") < 60.0
