"""Compare two verification-report JSONL files, report by report.

    python3 tools/sweep_diff.py OLD.jsonl NEW.jsonl

Prints the sha256 digest of each file and, per ``check_id`` in the order
the old file first lists them, the report counts, the number of changed
reports (lines that differ), the number of verdict changes, the largest
absolute change over ``lhs``, ``rhs`` and ``gap`` with the field it occurred
in, and apart from it the largest over every numeric metadata field (nested
ones too) with its field; ``-`` names no field where nothing moved.  Reports
of one check are paired in file order.  Exits 1 when a verdict changes or a
check's report count differs, 0 otherwise.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

NUMERIC_FIELDS = ("lhs", "rhs", "gap")
GROUPS = ("values", "metadata")  # the numeric fields, and the metadata's numbers


def _numbers(value, path: str):
    """``(path, number)`` of every int or float inside a JSON value; bools
    are flags, not numbers."""
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        yield path, float(value)
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _numbers(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _numbers(item, f"{path}[{i}]")


def _compared(report: dict) -> dict[str, float]:
    """The numbers a comparison reads, by path: lhs, rhs, gap and the
    numeric metadata."""
    fields = {key: report[key] for key in (*NUMERIC_FIELDS, "metadata")}
    return {path.lstrip("."): value for path, value in _numbers(fields, "")}


def _delta(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) if math.isfinite(a) and math.isfinite(b) else math.inf


def _by_check(lines: list[str]) -> dict[str, list[tuple[str, dict]]]:
    groups: dict[str, list[tuple[str, dict]]] = {}
    for line in lines:
        report = json.loads(line)
        groups.setdefault(report["check_id"], []).append((line, report))
    return groups


def compare(old_lines: list[str], new_lines: list[str]) -> tuple[list[dict], bool]:
    """Per-check rows of the comparison and whether it is acceptable (no
    verdict change and equal report counts)."""
    old, new = _by_check(old_lines), _by_check(new_lines)
    rows, ok = [], True
    for check_id in list(old) + [c for c in new if c not in old]:
        pairs = list(zip(old.get(check_id, []), new.get(check_id, [])))
        row = {"check_id": check_id, "old": len(old.get(check_id, [])),
               "new": len(new.get(check_id, [])), "changed": 0, "verdicts": 0,
               "max_delta": dict.fromkeys(GROUPS, 0.0), "field": dict.fromkeys(GROUPS, "-")}
        for (old_line, a), (new_line, b) in pairs:
            if old_line == new_line:
                continue
            row["changed"] += 1
            row["verdicts"] += a["verdict"] != b["verdict"]
            olds, news = _compared(a), _compared(b)
            for path in olds.keys() & news.keys():
                d = _delta(olds[path], news[path])
                group = "metadata" if path.startswith("metadata") else "values"
                if d > row["max_delta"][group]:
                    row["max_delta"][group], row["field"][group] = d, path
        ok = ok and row["verdicts"] == 0 and row["old"] == row["new"]
        rows.append(row)
    return rows, ok


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: sweep_diff.py OLD.jsonl NEW.jsonl", file=sys.stderr)
        return 2
    paths = [Path(a) for a in argv]
    raw = [p.read_bytes() for p in paths]
    for label, path, data in zip(("old", "new"), paths, raw):
        print(f"{label} sha256 {hashlib.sha256(data).hexdigest()} {path}")
    rows, ok = compare(*(data.decode().splitlines() for data in raw))
    print(f"{'check_id':<22}{'reports':>13}{'changed':>9}{'verdicts':>10}"
          f"{'value |delta|':>15}  field{'metadata |delta|':>18}  field")
    for row in rows:
        count = str(row["old"]) if row["old"] == row["new"] else f"{row['old']}->{row['new']}"
        delta, field = row["max_delta"], row["field"]
        print(f"{row['check_id']:<22}{count:>13}{row['changed']:>9}{row['verdicts']:>10}"
              f"{delta['values']:>15.3g}  {field['values']:<5}{delta['metadata']:>18.3g}"
              f"  {field['metadata']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
