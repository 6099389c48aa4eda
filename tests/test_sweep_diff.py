"""``tools/sweep_diff.py`` compares two report files report by report.

Two tiny synthetic JSONL files stand in for the default sweep: the tool
must print both digests, count the changed reports and verdict changes
per check, name the largest change of lhs, rhs and gap and, apart from it,
the largest metadata change, each with its field, and exit 1 only on a
verdict change or a change in a check's report count.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "sweep_diff.py"


def _report(check_id, lhs, rhs, verdict="pass", **metadata):
    return {"check_id": check_id, "measure_id": "negativity", "channel_class": None,
            "lhs": lhs, "rhs": rhs, "gap": lhs - rhs, "tolerance": 1e-9, "verdict": verdict,
            "seed": 1, "metadata": {"rule": "gap >= -tolerance", **metadata}}


def _write(path, reports):
    path.write_text("".join(json.dumps(r) + "\n" for r in reports))
    return path


def _run(old, new):
    done = subprocess.run([sys.executable, str(TOOL), str(old), str(new)], capture_output=True,
                          text=True)
    return done.returncode, done.stdout.splitlines()


def _row(lines, check_id):
    return next(line.split() for line in lines if line.startswith(check_id + " "))


BASE = [
    _report("strict", 0.5, 0.25, n=3),
    _report("strict", 0.5, 0.5),
    _report("monogamy", 0.7, 0.7, dev=1e-16, diagnostics={"deviations": [1e-16, 2e-16]}),
]


def test_identical_files(tmp_path):
    old = _write(tmp_path / "old.jsonl", BASE)
    new = _write(tmp_path / "new.jsonl", BASE)
    code, lines = _run(old, new)
    assert code == 0
    digest = hashlib.sha256(old.read_bytes()).hexdigest()
    assert lines[0] == f"old sha256 {digest} {old}"
    assert lines[1] == f"new sha256 {digest} {new}"
    assert _row(lines, "strict")[1:4] == ["2", "0", "0"]
    assert _row(lines, "monogamy")[1:4] == ["1", "0", "0"]


def test_numeric_changes_are_counted_and_located(tmp_path):
    changed = [BASE[0], _report("strict", 0.5, 0.5 + 3e-13),
               _report("monogamy", 0.7, 0.7, dev=1e-16, diagnostics={"deviations": [1e-16, 9e-14]})]
    code, lines = _run(_write(tmp_path / "old.jsonl", BASE),
                       _write(tmp_path / "new.jsonl", changed))
    assert code == 0
    strict, monogamy = _row(lines, "strict"), _row(lines, "monogamy")
    assert strict[1:4] == ["2", "1", "0"]
    assert float(strict[4]) == pytest.approx(3e-13, rel=1e-2) and strict[5] in ("rhs", "gap")
    assert strict[6:] == ["0", "-"]
    assert monogamy[1:4] == ["1", "1", "0"]
    assert monogamy[4:6] == ["0", "-"]
    assert float(monogamy[6]) == pytest.approx(9e-14 - 2e-16, rel=1e-2)  # printed to 3 digits
    assert monogamy[7] == "metadata.diagnostics.deviations[1]"


def test_value_moves_are_reported_apart_from_larger_metadata_moves(tmp_path):
    # A solver's iteration count moves by whole steps while its value moves
    # by roundoff: the row must show both.
    old = [_report("ree", 0.69, 0.7, iterations=40)]
    new = [_report("ree", 0.69, 0.7 + 5e-11, iterations=45)]
    code, lines = _run(_write(tmp_path / "old.jsonl", old), _write(tmp_path / "new.jsonl", new))
    assert code == 0
    row = _row(lines, "ree")
    assert row[1:4] == ["1", "1", "0"]
    assert float(row[4]) == pytest.approx(5e-11, rel=1e-2) and row[5] in ("rhs", "gap")
    assert float(row[6]) == 5.0 and row[7] == "metadata.iterations"


def test_verdict_change_fails(tmp_path):
    flipped = [BASE[0], _report("strict", 0.5, 0.5, verdict="fail"), BASE[2]]
    code, lines = _run(_write(tmp_path / "old.jsonl", BASE),
                       _write(tmp_path / "new.jsonl", flipped))
    assert code == 1
    assert _row(lines, "strict")[1:4] == ["2", "1", "1"]


def test_report_count_change_fails(tmp_path):
    code, lines = _run(_write(tmp_path / "old.jsonl", BASE),
                       _write(tmp_path / "new.jsonl", BASE[1:]))
    assert code == 1
    assert _row(lines, "strict")[1] == "2->1"
    assert _row(lines, "monogamy")[1:4] == ["1", "0", "0"]
