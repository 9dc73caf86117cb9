"""Show what changed between the outputs of two byte-identity corpus runs.

    python3 scripts/compare_reports.py A B

A and B are work directories written by ``scripts/output_corpus.py
--work``, for example one from a base commit and one from a change. For
every output file under ``A/out`` and ``B/out`` whose bytes differ, the
script prints each difference that is not one float changed into another
float, with its path and ``old -> new``, then the number of changed floats
and the largest gap among them, relative to max(|old|, |new|, 1): an
absolute gap for floats below 1 in size, such as residuals near zero.
JSON reports are compared value by value. A file on one side only, another
key set, another list length, a changed string, integer, boolean or null,
and any change to another file, such as a ``portrait`` CSV, is a non-float
difference.

The script exits 1 if it finds any non-float difference, and 0 when the
two runs differ at most in floats.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path


class Differences:
    """What one file pair differs in: non-float differences as text, and
    the count of the changed floats, with the largest gap among them
    relative to max(|old|, |new|, 1) and where it is."""

    def __init__(self):
        self.other: list[str] = []
        self.floats = 0
        self.gap = 0.0
        self.where = ""

    def float_change(self, old: float, new: float, path: str) -> None:
        if old == new or (math.isnan(old) and math.isnan(new)):
            return
        self.floats += 1
        scale = max(abs(old), abs(new), 1.0)
        gap = abs(new - old) / scale if math.isfinite(scale) else math.inf
        if gap > self.gap or not self.where:
            self.gap, self.where = gap, f"{path}: {old!r} -> {new!r}"

    def compare(self, old, new, path: str) -> None:
        """Record the differences of two decoded JSON values."""
        if type(old) is float and type(new) is float:
            self.float_change(old, new, path)
        elif isinstance(old, dict) and isinstance(new, dict):
            for key in sorted(old.keys() | new.keys()):
                where = f"{path}.{key}" if path else key
                if key not in new or key not in old:
                    side = "removed" if key not in new else "added"
                    self.other.append(f"{where}: {side}")
                else:
                    self.compare(old[key], new[key], where)
        elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
            for i, (a, b) in enumerate(zip(old, new)):
                self.compare(a, b, f"{path}[{i}]")
        elif type(old) is not type(new) or old != new:
            self.other.append(f"{path}: {_short(old)} -> {_short(new)}")


def _short(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 80 else f"{text[:77]}..."


def compare_files(old: Path, new: Path) -> Differences:
    diff = Differences()
    if old.suffix == ".json":
        diff.compare(json.loads(old.read_text()), json.loads(new.read_text()), "")
    else:
        diff.other.append("bytes differ")
    return diff


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="work directory of the first run")
    parser.add_argument("new", type=Path, help="work directory of the second run")
    args = parser.parse_args(argv)
    old_out, new_out = args.old / "out", args.new / "out"
    names = sorted({p.relative_to(root) for root in (old_out, new_out)
                    for p in root.rglob("*") if p.is_file()})
    differing = other = floats = 0
    gap, where = 0.0, ""
    for name in names:
        old, new = old_out / name, new_out / name
        if not (old.exists() and new.exists()):
            print(f"{name}: only in {'the first' if old.exists() else 'the second'} run")
            differing += 1
            other += 1
            continue
        if old.read_bytes() == new.read_bytes():
            continue
        differing += 1
        diff = compare_files(old, new)
        for line in diff.other:
            print(f"{name}: {line}")
        if diff.floats:
            print(f"{name}: {diff.floats} floats changed, largest relative gap {diff.gap:.3g} "
                  f"at {diff.where}")
        elif not diff.other:  # the same values, laid out otherwise
            diff.other.append("bytes differ, values equal")
            print(f"{name}: bytes differ, values equal")
        other += len(diff.other)
        floats += diff.floats
        if diff.floats and diff.gap >= gap:
            gap, where = diff.gap, f" at {name}: {diff.where}"
    print(f"{differing} of {len(names)} files differ: {other} non-float differences, "
          f"{floats} floats changed, largest relative gap {gap:.3g}{where}")
    return 1 if other else 0


if __name__ == "__main__":
    sys.exit(main())
