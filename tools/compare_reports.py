"""Compare two directories of spinsource reports written from the same configs.

    python3 tools/compare_reports.py DIR_A DIR_B

Every ``*.report.json`` and ``*.decay.csv`` under DIR_A must have a
counterpart at the same relative path under DIR_B, and vice versa.

Exact: the report structure, every string and boolean (verdicts,
``passed``, failure kinds, names and pair labels, config echo), every
integer except the ``worst_pair`` argmax of a check, and in each CSV the
header, the row count and the pair and shift columns.

Measured: every other number; a NaN on one side only counts as an
infinite difference.  The script prints the largest absolute
difference per file, for the JSON floats and the CSV floats separately,
then the largest difference per JSON key and per CSV column over all
files, and every ``worst_pair`` that moved.  Exit code 0 when every
exact field matches, 1 when one does not, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from collections import defaultdict
from pathlib import Path

SUFFIXES = (".report.json", ".decay.csv")


def _files(root: Path) -> set:
    return {
        p.relative_to(root).as_posix()
        for p in root.rglob("*")
        if p.is_file() and p.name.endswith(SUFFIXES)
    }


def _diff(x: float, y: float) -> float:
    if math.isnan(x) or math.isnan(y):  # a value that becomes NaN, or stops being one, is infinitely far
        return 0.0 if math.isnan(x) and math.isnan(y) else math.inf
    if x == y:  # equal infinities included
        return 0.0
    return abs(x - y)


class Comparison:
    """Collects the mismatches of exact fields and the float differences."""

    def __init__(self):
        self.mismatches = []  # (file, path, a, b)
        self.moved_argmax = []  # (file, path, a, b)
        self.by_key = defaultdict(float)  # JSON leaf key -> largest difference
        self.by_column = defaultdict(float)  # CSV column -> largest difference
        self.by_file = {}  # file -> (json max, json path, csv max)

    def json_file(self, name: str, a, b) -> tuple:
        worst = [0.0, ""]

        def walk(x, y, path: str, key: str) -> None:
            if isinstance(x, dict) and isinstance(y, dict):
                if x.keys() != y.keys():
                    self.mismatches.append((name, path, sorted(x), sorted(y)))
                    return
                for k in x:
                    walk(x[k], y[k], f"{path}.{k}", k)
            elif isinstance(x, list) and isinstance(y, list):
                if len(x) != len(y):
                    self.mismatches.append((name, path, f"{len(x)} items", f"{len(y)} items"))
                    return
                for i, (u, v) in enumerate(zip(x, y)):
                    walk(u, v, f"{path}[{i}]", key)
            elif isinstance(x, float) or isinstance(y, float):
                if isinstance(x, bool) or isinstance(y, bool):
                    self.mismatches.append((name, path, x, y))
                    return
                d = _diff(float(x), float(y))
                self.by_key[key] = max(self.by_key[key], d)
                if d > worst[0]:
                    worst[:] = [d, path]
            elif x != y or type(x) is not type(y):
                if key == "worst_pair" and isinstance(x, int) and isinstance(y, int):
                    self.moved_argmax.append((name, path, x, y))
                else:
                    self.mismatches.append((name, path, x, y))

        walk(a, b, "", "")
        return worst[0], worst[1]

    def csv_file(self, name: str, a: list, b: list) -> float:
        if not a or not b or a[0] != b[0]:
            self.mismatches.append((name, "header", a[:1], b[:1]))
            return 0.0
        if len(a) != len(b):
            self.mismatches.append((name, "rows", len(a) - 1, len(b) - 1))
            return 0.0
        worst = 0.0
        for line, (x, y) in enumerate(zip(a[1:], b[1:]), start=2):
            if x[:2] != y[:2] or len(x) != len(y):
                self.mismatches.append((name, f"line {line}", x[:2], y[:2]))
                continue
            for column, u, v in zip(a[0][2:], x[2:], y[2:]):
                d = _diff(float(u), float(v))
                self.by_column[column] = max(self.by_column[column], d)
                worst = max(worst, d)
        return worst

    def compare(self, root_a: Path, root_b: Path) -> None:
        files_a, files_b = _files(root_a), _files(root_b)
        for name in sorted(files_a ^ files_b):
            side = "only in A" if name in files_a else "only in B"
            self.mismatches.append((name, side, None, None))
        for name in sorted(files_a & files_b):
            pa, pb = root_a / name, root_b / name
            if name.endswith(".report.json"):
                a, b = (json.loads(p.read_text(encoding="utf-8")) for p in (pa, pb))
                json_max, json_at = self.json_file(name, a, b)
                self.by_file[name] = (json_max, json_at, None)
            else:
                a, b = (list(csv.reader(p.open(newline="", encoding="utf-8"))) for p in (pa, pb))
                self.by_file[name] = (None, "", self.csv_file(name, a, b))

    def print(self, out=sys.stdout) -> None:
        print("file\tjson_max_abs\tat\tcsv_max_abs", file=out)
        for name, (json_max, at, csv_max) in sorted(self.by_file.items()):
            cells = ["" if v is None else f"{v:.3e}" for v in (json_max, csv_max)]
            print(f"{name}\t{cells[0]}\t{at}\t{cells[1]}", file=out)
        csv_all = [c for _, _, c in self.by_file.values() if c is not None]
        json_all = [j for j, _, _ in self.by_file.values() if j is not None]
        print(f"\n{len(self.by_file)} files; largest JSON float difference "
              f"{max(json_all, default=0.0):.3e}, largest CSV difference {max(csv_all, default=0.0):.3e}",
              file=out)
        print("\nlargest difference per JSON key:", file=out)
        for key, d in sorted(self.by_key.items(), key=lambda kv: -kv[1]):
            print(f"  {key}\t{d:.3e}", file=out)
        print("\nlargest difference per CSV column:", file=out)
        for column, d in sorted(self.by_column.items(), key=lambda kv: -kv[1]):
            print(f"  {column}\t{d:.3e}", file=out)
        print(f"\nworst_pair moved in {len(self.moved_argmax)} places", file=out)
        for name, path, x, y in self.moved_argmax:
            print(f"  {name} {path}: {x} -> {y}", file=out)
        print(f"\nexact-field mismatches: {len(self.mismatches)}", file=out)
        for name, path, x, y in self.mismatches:
            print(f"  {name} {path}: {x!r} != {y!r}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    args = parser.parse_args(argv)
    for d in (args.dir_a, args.dir_b):
        if not d.is_dir():
            print(f"error: {d} is not a directory", file=sys.stderr)
            return 2
    comparison = Comparison()
    comparison.compare(args.dir_a, args.dir_b)
    comparison.print()
    return 1 if comparison.mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
