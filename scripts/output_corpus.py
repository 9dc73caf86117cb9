"""Byte-identity corpus: run a fixed set of ``critflow`` commands and print
one sha256 and exit code per command.

    python3 scripts/output_corpus.py [--work DIR]

Run from any directory; the program is the ``src/`` of the checkout that
holds this script. Each command runs in its own Python process, in a work
directory that holds copies of ``tests/data``, the eleven random
(system, map) cases of ``bench/gen.py``'s ``conjugacy_case`` (n = 2 seeds
1-6, n = 3 seeds 1-4, n = 4 seed 1), ``cases/deep-system.json``, a 1-D
field written as a sum of ``DEEP_TERMS`` terms, and
``cases/wall-system.json``, the 1-D field 2 sqrt(x) (x - A^2) on [0, 3],
whose fixed point x = 0 lies on the wall of sqrt, where neither it nor its
affine conjugate is differentiable. All are named by relative paths, so
the reports and messages of two checkouts can be compared byte for byte.
The digest covers the exit code, stdout, stderr and every file the command
writes. To compare two checkouts, run the script from each and diff the
outputs. ``--work`` keeps the inputs and outputs in DIR (which must not
exist yet) instead of a temporary directory.

The commands: ``analyze`` of the five ``tests/data`` systems;
``transform`` and ``verify`` of ``example1`` under ``affine_map`` and
``square_map``, plus ``verify --tol 1e-5`` under ``affine_map``;
``verify`` and ``transform`` of the eleven random cases; ``portrait`` of
``planar`` (21x21 with 3 trajectories to T = 2, and 101x101 with 9),
``example1`` and ``example2_system`` (9 trajectories each); ``analyze`` of
the deep system, ``transform`` of it under ``square_map`` and ``verify``
under ``affine_map``; ``verify`` and ``transform`` of the wall system under
``affine_map``; last, ``verify`` of ``example1`` with ``--theorems t3
--tol 1e-5`` under ``affine_map`` and with ``--theorems flow,t2`` under
``square_map``; then ``verify`` of ``example1`` with ``--theorems r1`` under
``square_map`` (both kinds searched under a nonlinear map) and with
``--theorems t1,t3`` under ``affine_map``. New commands go at the end, so
that the earlier ones keep their output names and digests.

The script exits 1 if any command's exit code differs from
``EXPECTED_FAILURES`` (exit 1) or 0 (every other command).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

#: the random cases, as (dimension, builder seed)
CASES = [(2, s) for s in range(1, 7)] + [(3, s) for s in range(1, 5)] + [(4, 1)]

#: commands that exit 1: ``verify`` reports a ``fails`` that an invertible
#: affine map forbids (the search-region and coverage faults of ROADMAP's
#: item 1); a fix changes these
EXPECTED_FAILURES = {f"verify cases/{key}-system.json cases/{key}-map.json"
                     for key in ("n2-s1", "n2-s4", "n3-s1", "n3-s2", "n3-s4", "n4-s1")}

#: the deep system's field is x^2 - A^2 with x^2 spelled as this many terms,
#: a sum that nests as deep as it is long
DEEP_TERMS = 2000


def _write_inputs(work: Path) -> None:
    shutil.copytree(DATA, work / "data")
    sys.path.insert(0, str(ROOT / "bench"))
    import gen
    (work / "cases").mkdir()
    for n, seed in CASES:
        system, amap = gen.conjugacy_case(seed, n, f"poly{n}_{seed}")
        key = f"n{n}-s{seed}"
        (work / "cases" / f"{key}-system.json").write_text(json.dumps(system.file_doc(), indent=1))
        (work / "cases" / f"{key}-map.json").write_text(json.dumps(amap.file_doc(), indent=1))
    deep = {"name": "deep_well", "state": ["x"], "params": {"A": 1.0},
            "field": [" + ".join([f"{1 / DEEP_TERMS!r}*x^2"] * DEEP_TERMS) + " - A^2"],
            "region": [[-3, 3]]}
    (work / "cases" / "deep-system.json").write_text(json.dumps(deep, indent=1))
    wall = {"name": "wall", "state": ["x"], "params": {"A": 1.0},
            "field": ["2*sqrt(x)*(x - A^2)"], "region": [[0, 3]]}
    (work / "cases" / "wall-system.json").write_text(json.dumps(wall, indent=1))


def commands() -> list[list[str]]:
    """Each command's arguments, without ``--out``."""
    cmds = [["analyze", f"data/{name}.json"]
            for name in ("example1", "example2_system", "nilpotent", "planar", "rotation")]
    for cmd in ("transform", "verify"):
        for m in ("affine_map", "square_map"):
            cmds.append([cmd, "data/example1.json", f"data/{m}.json"])
    cmds.append(["verify", "data/example1.json", "data/affine_map.json", "--tol", "1e-5"])
    for n, seed in CASES:
        paths = [f"cases/n{n}-s{seed}-system.json", f"cases/n{n}-s{seed}-map.json"]
        cmds += [["verify", *paths], ["transform", *paths]]
    cmds.append(["portrait", "data/planar.json", "--grid", "21x21",
                 "--trajectories", "3", "--T", "2"])
    cmds.append(["portrait", "data/planar.json", "--grid", "101x101", "--trajectories", "9"])
    for name in ("example1", "example2_system"):
        cmds.append(["portrait", f"data/{name}.json", "--trajectories", "9"])
    cmds += [["analyze", "cases/deep-system.json"],
             ["transform", "cases/deep-system.json", "data/square_map.json"],
             ["verify", "cases/deep-system.json", "data/affine_map.json"],
             ["verify", "cases/wall-system.json", "data/affine_map.json"],
             ["transform", "cases/wall-system.json", "data/affine_map.json"],
             ["verify", "data/example1.json", "data/affine_map.json",
              "--theorems", "t3", "--tol", "1e-5"],
             ["verify", "data/example1.json", "data/square_map.json", "--theorems", "flow,t2"],
             ["verify", "data/example1.json", "data/square_map.json", "--theorems", "r1"],
             ["verify", "data/example1.json", "data/affine_map.json", "--theorems", "t1,t3"]]
    return cmds


def run_one(args: list[str], index: int, work: Path) -> tuple[str, int]:
    """(sha256, exit code) of one command run in ``work``."""
    out = Path("out") / f"{index:02d}"
    if args[0] != "portrait":
        out = out.with_suffix(".json")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "critflow.cli", *args, "--out", str(out)],
                          cwd=work, env=env, capture_output=True)
    h = hashlib.sha256()
    for part in (str(proc.returncode).encode(), proc.stdout, proc.stderr):
        h.update(len(part).to_bytes(8, "little") + part)
    target = work / out
    if target.is_dir():
        files = sorted(target.rglob("*"))
    else:
        files = [target] if target.exists() else []
    for path in files:
        name = str(path.relative_to(work)).encode()
        blob = path.read_bytes()
        h.update(len(name).to_bytes(8, "little") + name + len(blob).to_bytes(8, "little") + blob)
    return h.hexdigest(), proc.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--work", type=Path, help="keep inputs and outputs in this new directory")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work.resolve() if args.work else Path(tmp)
        work.mkdir(parents=True, exist_ok=args.work is None)
        _write_inputs(work)
        (work / "out").mkdir()
        unexpected = 0
        cmds = commands()
        for index, cmd in enumerate(cmds):
            digest, code = run_one(cmd, index, work)
            label = " ".join(cmd)
            want = 1 if label in EXPECTED_FAILURES else 0
            flag = "" if code == want else f"  (unexpected: want {want})"
            unexpected += code != want
            print(f"{digest} {code} {label}{flag}", flush=True)
        print(f"{len(cmds)} commands, {unexpected} unexpected exit codes")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
