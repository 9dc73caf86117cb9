"""The benchmark's workloads.

Each workload makes its inputs and lists its ops in ``setup`` (the seed
orders the ops, and ``cli-files`` passes it on as ``--rng-seed``), runs
one op in ``run`` and judges the op's outputs in ``check``, which returns
an :class:`Outcome`. Only ``run`` is timed. The program is reached through
``cf``, the ``critflow`` package as imported by ``run.py``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
import oracle
from oracle import SPECTRUM_TOL, PolyOracle, spectrum_gap

#: criterion 4's solver settings for the spectra-affine systems
SEEDS_BY_DIM = {1: 24, 2: 45, 3: 30}
#: the solver's default match tolerance, 10 * dedup_tol
MATCH_TOL = 1e-5
#: the solver's default velocity floor
VELOCITY_FLOOR = 1e-6
#: the program's default flow-conjugacy tolerance
FLOW_TOL = 1e-6
#: theorems that an invertible affine map forbids to fail
FORBIDDEN = ("flow", "t1", "t2", "t3", "r1")


@dataclass
class Op:
    key: str
    data: object


@dataclass
class Outcome:
    failed: bool = False
    points: int = 0  # clean critical points reported on the source side
    pairs: int = 0  # matched pairs with spectra compared
    bytes_out: int = 0
    signature: str = ""  # must repeat exactly from pass to pass
    problems: list[str] = field(default_factory=list)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


class _Affine:
    """Numpy view of a generated (system, map) pair: the oracle for f and,
    through y = A x + b, for the transformed system g(y) = A f(A^-1 (y - b))."""

    def __init__(self, system: gen.PolySystem, amap: gen.AffineMap):
        self.f = PolyOracle(system)
        self.a = amap.matrix
        self.b = amap.offset
        self.a_inv = np.linalg.inv(amap.matrix)

    def pull_back(self, y) -> np.ndarray:
        return self.a_inv @ (np.asarray(y, dtype=float) - self.b)

    def push(self, x) -> np.ndarray:
        return self.a @ np.asarray(x, dtype=float) + self.b

    def root_problem(self, kind: str, x, target: bool = False) -> str | None:
        """Why x (a point of g when ``target``) is not a critical point of
        ``kind``, or None. Residuals are judged against the size of the
        terms they cancel, since the oracle rounds differently from the
        program."""
        src = self.pull_back(x) if target else np.asarray(x, dtype=float)
        push = self.a if target else np.eye(len(src))
        velocity = push @ self.f.value(src)
        terms = np.abs(self.f.const) + np.abs(self.f.coeffs) @ np.prod(
            np.power(np.abs(src), self.f.exps), axis=1)
        jac = self.f.jacobian(src)
        scale = float(np.max(np.abs(push))) * float(np.max(terms))
        if kind == "fixed":
            if float(np.linalg.norm(velocity)) > 1e-9 * max(1.0, scale):
                return f"fixed point {np.asarray(x).tolist()}: |f| = {np.linalg.norm(velocity):.3e}"
            return None
        accel = push @ self.f.accel(src)
        accel_scale = scale * max(1.0, float(np.max(np.abs(jac))))
        if float(np.linalg.norm(accel)) > 1e-9 * max(1.0, accel_scale):
            return f"perpetual point {np.asarray(x).tolist()}: |F| = {np.linalg.norm(accel):.3e}"
        if float(np.linalg.norm(velocity)) <= VELOCITY_FLOOR:
            return f"perpetual point {np.asarray(x).tolist()}: speed below the velocity floor"
        return None

    def spectrum_problem(self, kind: str, x, values, target: bool = False) -> str | None:
        """Spectra are invariant under the similarity y = A x + b, so both
        sides compare with the reference at the source point."""
        src = self.pull_back(x) if target else np.asarray(x, dtype=float)
        jac = self.f.jacobian(src) if kind == "fixed" else self.f.accel_jacobian(src)
        gap = spectrum_gap(values, np.linalg.eigvals(jac))
        if gap > SPECTRUM_TOL:
            return f"{kind} point {np.asarray(x).tolist()}: spectrum off the reference by {gap:.3e}"
        return None


# ---------------------------------------------------------------------------
# spectra-affine

class SpectraAffine:
    """One op: build f and an affine h from sources, g = transformed_system,
    the four criterion-4 searches and verify_spectrum_preservation.

    The systems are the first ``SYSTEMS`` of criterion 4, so this workload
    predicts that test's cost and its counts are exact from run to run; the
    seed orders the ops."""

    name = "spectra-affine"
    SYSTEMS = 40

    def setup(self, cf, seed: int, work: Path) -> None:
        self.cf = cf
        ops = [Op(f"c4-{k:03d}", case) for k, case in enumerate(gen.criterion4_cases(self.SYSTEMS))]
        random.Random(seed).shuffle(ops)
        self.ops = ops
        self._oracles: dict[str, _Affine] = {}

    def run(self, op: Op):
        cf = self.cf
        system, amap = op.data
        n = system.dimension
        region = cf.AnalysisRegion.of(*[gen.BOX] * n)
        cfg = cf.SolverConfig(seed_count=SEEDS_BY_DIM[n], max_newton_iters=40)
        xs, ys = set(system.states), gen.target_names(n)
        f = cf.VectorField(cf.SystemDefinition.from_sources(
            system.name, system.states, {}, system.sources))
        inverse = cf.VectorMap("affine_inv", ys, {},
                               [cf.parse_expression(s, set(ys)) for s in amap.inverse])
        h = cf.TransformationMap("affine", system.states, {},
                                 [cf.parse_expression(s, xs) for s in amap.forward],
                                 region, True, inverse=inverse)
        g = cf.transformed_system(f, h)
        f_region, g_region = region.intersect(h.domain), cf.image_region(h)
        searches = {
            ("f", cf.FIXED): cf.fixed_point_search(f, f_region, cfg),
            ("f", cf.PERPETUAL): cf.perpetual_point_search(f, f_region, cfg),
            ("g", cf.FIXED): cf.fixed_point_search(g, g_region, cfg),
            ("g", cf.PERPETUAL): cf.perpetual_point_search(g, g_region, cfg),
        }
        check = cf.verify_spectrum_preservation(f, h, g, region, cfg, searches=searches)
        return searches, check

    def check(self, op: Op, result) -> Outcome:
        searches, check = result
        ref = self._oracles.get(op.key) or self._oracles.setdefault(op.key, _Affine(*op.data))
        out = Outcome(failed=check.verdict == self.cf.FAILS)
        sig = [check.verdict]
        # verify_spectrum_preservation also caches acceleration maps in ``searches``
        for side, kind in itertools.product("fg", (self.cf.FIXED, self.cf.PERPETUAL)):
            search = searches[side, kind]
            target = side == "g"
            sig.append((search.seeds_used, search.seeds_converged))
            for p in search.points:
                sig.append((p.location.tobytes(), p.degenerate,
                            None if p.spectrum is None else p.spectrum.values))
                out.problems.append(ref.root_problem(kind, p.location, target))
                if not p.degenerate and p.spectrum is not None:
                    out.problems.append(ref.spectrum_problem(
                        kind, p.location, p.spectrum.values, target))
            if not target:
                out.points += len(search.clean_points)
        for rec in check.details:
            if rec.spectrum_distance is None:
                continue
            out.pairs += 1
            sig.append((rec.spectrum_distance, rec.similarity_residual))
            gap = float(np.linalg.norm(np.array(rec.matched) - ref.push(rec.source)))
            if gap > MATCH_TOL:
                out.problems.append(f"{rec.kind} match {rec.matched} is {gap:.3e} "
                                    f"away from A x + b")
        out.problems = [p for p in out.problems if p]
        out.signature = _digest(*sig)
        return out


# ---------------------------------------------------------------------------
# verify-random

class VerifyRandom:
    """One op: ``critflow verify SYSTEM MAP`` with default flags, in-process.

    The cases are fixed, not drawn from the seed: several of them end in a
    verdict that the theorems forbid (a fault of the program), and a
    seed-drawn set would change how many. The seed orders the ops."""

    name = "verify-random"
    #: (dimension, builder seed); consecutive seeds, none chosen by verdict
    CASES = [(2, s) for s in range(1, 7)] + [(3, s) for s in range(1, 5)] + [(4, 1)]

    def setup(self, cf, seed: int, work: Path) -> None:
        import critflow.cli
        self.cli = critflow.cli
        work.mkdir(parents=True, exist_ok=True)
        ops = []
        for n, case_seed in self.CASES:
            system, amap = gen.conjugacy_case(case_seed, n, f"poly{n}_{case_seed}")
            key = f"n{n}-s{case_seed}"
            paths = [work / f"{key}-{part}.json" for part in ("system", "map", "report")]
            paths[0].write_text(json.dumps(system.file_doc(), indent=1))
            paths[1].write_text(json.dumps(amap.file_doc(), indent=1))
            paths[2].unlink(missing_ok=True)
            ops.append(Op(key, (system, amap, paths)))
        random.Random(seed).shuffle(ops)
        self.ops = ops
        self._oracles: dict[str, _Affine] = {}

    def run(self, op: Op):
        sys_path, map_path, out = op.data[2]
        with contextlib.redirect_stderr(io.StringIO()):
            return self.cli.main(["verify", str(sys_path), str(map_path), "--out", str(out)])

    def check(self, op: Op, code) -> Outcome:
        system, amap, (_, _, out_path) = op.data
        ref = self._oracles.get(op.key) or self._oracles.setdefault(op.key, _Affine(system, amap))
        if not out_path.exists():
            return Outcome(problems=[f"{op.key}: exit code {code} and no report"])
        raw = out_path.read_bytes()
        out_path.unlink()  # so the next pass cannot pass on this one's report
        doc = json.loads(raw)
        checks = {c["theorem"]: c for c in doc["checks"]}
        verdicts = {t: c["verdict"] for t, c in checks.items()}
        out = Outcome(signature=_digest(code, raw), bytes_out=len(raw))
        out.failed = any(verdicts.get(t) == "fails" for t in FORBIDDEN)
        if sorted(verdicts) != sorted(FORBIDDEN):
            out.problems.append(f"checks reported: {sorted(verdicts)}")
        if code != (1 if out.failed else 0):
            out.problems.append(f"exit code {code} with verdicts {verdicts}")
        for tid in ("t1", "t2"):
            for rec in checks[tid]["details"]:
                kind = rec["kind"]
                if rec["source"] is not None:
                    out.points += 1
                    out.problems.append(ref.root_problem(kind, rec["source"]))
                    gap = np.linalg.norm(np.array(rec["mapped"]) - ref.push(rec["source"]))
                    if gap > 1e-9 * max(1.0, float(np.linalg.norm(rec["mapped"]))):
                        out.problems.append(f"{op.key} mapped point off A x + b by {gap:.3e}")
                if rec["matched"] is not None:
                    out.problems.append(ref.root_problem(kind, rec["matched"], target=True))
                    if rec["source"] is not None:
                        gap = np.linalg.norm(np.array(rec["matched"]) - ref.push(rec["source"]))
                        if gap > MATCH_TOL:
                            out.problems.append(f"{op.key} match off A x + b by {gap:.3e}")
        # an invertible affine map keeps spectra, so t3 may not fail on any
        # case, whatever the region and coverage faults do to t1, t2 and r1
        if verdicts.get("t3") == "fails":
            out.problems.append(f"{op.key}: t3 fails")
        for rec in checks["t3"]["details"]:
            if rec["spectrum_distance"] is not None:
                out.pairs += 1
                if rec["spectrum_distance"] > SPECTRUM_TOL:
                    out.problems.append(f"{op.key} spectra differ by {rec['spectrum_distance']}")
        for rec in checks["r1"]["details"]:
            out.problems.append(ref.root_problem(rec["kind"], rec["matched"], target=True))
        out.problems = [p for p in out.problems if p]
        return out


# ---------------------------------------------------------------------------
# cli-files

class CliFiles:
    """One op: one CLI command on a file of ``tests/data``; the seed is
    passed as ``--rng-seed`` (seed-lattice jitter and trajectory starts)."""

    name = "cli-files"
    SYSTEMS = ("example1.json", "example2_system.json", "nilpotent.json",
               "planar.json", "rotation.json")
    MAPS = ("affine_map.json", "square_map.json")
    TRAJECTORIES = 9

    def setup(self, cf, seed: int, work: Path) -> None:
        import critflow.cli
        self.cli = critflow.cli
        data = Path(__file__).resolve().parent.parent / "tests" / "data"
        rng_flag = ["--rng-seed", str(seed)]
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        ops = []
        for name in self.SYSTEMS:
            out = work / f"analyze-{name}"
            ops.append(Op(f"analyze-{name}", (["analyze", str(data / name), "--out", str(out)]
                                              + rng_flag, out)))
        for cmd in ("transform", "verify"):
            for m in self.MAPS:
                out = work / f"{cmd}-{m}"
                ops.append(Op(f"{cmd}-{m}", ([cmd, str(data / "example1.json"), str(data / m),
                                              "--out", str(out)] + rng_flag, out)))
        out = work / "portrait"
        ops.append(Op("portrait", (["portrait", str(data / "planar.json"), "--grid", "101x101",
                                    "--trajectories", str(self.TRAJECTORIES), "--out", str(out)]
                                   + rng_flag, out)))
        self.ops = ops

    def run(self, op: Op):
        with contextlib.redirect_stderr(io.StringIO()):
            return self.cli.main(op.data[0])

    def check(self, op: Op, code) -> Outcome:
        out_path = op.data[1]
        try:
            return self._judge(op, code, out_path)
        finally:  # so the next pass cannot pass on these outputs
            if out_path.is_dir():
                shutil.rmtree(out_path)
            else:
                out_path.unlink(missing_ok=True)

    def _judge(self, op: Op, code, out_path: Path) -> Outcome:
        if out_path.is_dir():
            files = sorted(out_path.iterdir())
        else:
            files = [out_path] if out_path.exists() else []
        blobs = [p.read_bytes() for p in files]
        out = Outcome(signature=_digest(code, *blobs), bytes_out=sum(map(len, blobs)))
        kind = op.key.split("-", 1)[0]
        if code != 0 or not files:
            out.problems.append(f"{op.key}: exit code {code}, {len(files)} output files")
            return out
        if kind == "portrait":
            out.problems += _portrait_problems(files, self.TRAJECTORIES)
            return out
        doc = json.loads(blobs[0])
        if kind == "analyze":
            name = op.key.split("-", 1)[1]
            out.points = sum(len(doc[g]["points"]) for g in ("fixed_points", "perpetual_points"))
            if name == "nilpotent.json":
                out.problems += _nilpotent_problems(doc)
            else:
                out.problems += _points_problems(doc, oracle.ANALYZE_EXPECTED[name], op.key)
        elif kind == "transform":
            out.problems += _points_problems(doc, TRANSFORM_EXPECTED[op.key], op.key)
        else:
            verify_out = _verify_problems(doc, op.key)
            out.problems += verify_out[0]
            out.points, out.pairs = verify_out[1:]
        return out


#: the transformed example1 (x' = x^2 - 1): under y = 2x + 5,
#: y' = 2(((y - 5)/2)^2 - 1); under y = x^2 (x >= 0), y' = 2 sqrt(y)(y - 1)
TRANSFORM_EXPECTED = {
    "transform-affine_map.json": {
        "fixed": {(3.0,): [-2.0], (7.0,): [2.0]},
        "perpetual": {(5.0,): [-2.0]},
        "optional": [],
    },
    "transform-square_map.json": {
        "fixed": {(1.0,): [2.0]},
        "perpetual": {(1.0 / 3.0,): [-4.0]},
        "optional": [(0.0,)],
    },
}


def _near(a, b, tol=1e-8) -> bool:
    return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))) <= tol


def _points_problems(doc: dict, expected: dict, key: str) -> list[str]:
    """Every reported point is a closed-form root; every root in the
    region proper is reported once, clean, with its closed-form spectrum."""
    problems = []
    for kind in ("fixed", "perpetual"):
        group = doc[f"{kind}_points"]
        roots = expected[kind]
        allowed = list(roots) + (expected["optional"] if kind == "fixed" else [])
        for p in group["points"] + group["degenerate_points"]:
            if not any(_near(p["location"], r) for r in allowed):
                problems.append(f"{key}: {kind} point {p['location']} is not a root")
        for root, spectrum in roots.items():
            hits = [p for p in group["points"] if _near(p["location"], root)]
            if len(hits) != 1:
                problems.append(f"{key}: {kind} root {root} reported {len(hits)} times")
                continue
            values = [complex(re, im) for re, im in hits[0]["spectrum"]]
            if spectrum_gap(values, spectrum) > 1e-8:
                problems.append(f"{key}: {kind} root {root} has spectrum {values}")
    return problems


def _nilpotent_problems(doc: dict) -> list[str]:
    """x' = y, y' = 0: the fixed points are the line y = 0, and F = Df f
    vanishes everywhere, so every perpetual point is degenerate."""
    problems = []
    for p in doc["fixed_points"]["points"] + doc["fixed_points"]["degenerate_points"]:
        if abs(p["location"][1]) > 1e-8:
            problems.append(f"nilpotent: fixed point {p['location']} is off y = 0")
    perp = doc["perpetual_points"]
    if perp["points"]:
        problems.append("nilpotent: clean perpetual points on a degenerate continuum")
    for p in perp["degenerate_points"]:
        if abs(p["location"][1]) <= VELOCITY_FLOOR:
            problems.append(f"nilpotent: perpetual point {p['location']} has no speed")
    return problems


def _verify_problems(doc: dict, key: str) -> tuple[list[str], int, int]:
    checks = {c["theorem"]: c for c in doc["checks"]}
    verdicts = {t: c["verdict"] for t, c in checks.items()}
    problems = []
    sources = sum(1 for t in ("t1", "t2") for r in checks[t]["details"] if r["source"] is not None)
    pairs = sum(1 for r in checks["t3"]["details"] if r["spectrum_distance"] is not None)
    matched = {t: sorted(r["matched"][0] for r in checks[t]["details"]
                         if r["source"] is not None and r["matched"] is not None)
               for t in ("t1", "t2")}
    if key == "verify-affine_map.json":
        # y = 2x + 5 sends the fixed points -1, 1 to 3, 7 and the perpetual point 0 to 5
        want = {"flow": "holds", "t1": "holds", "t2": "holds", "t3": "holds", "r1": "holds"}
        roots = {"t1": [3.0, 7.0], "t2": [5.0]}
    else:
        # y = x^2 on [0, 3]: 1 -> 1; the perpetual point 1/3 of g has no preimage
        want = {"t1": "holds", "t2": "not-applicable", "t3": "not-applicable",
                "r1": "not-applicable"}
        roots = {"t1": [1.0]}
    for tid, verdict in want.items():
        if verdicts.get(tid) != verdict:
            problems.append(f"{key}: {tid} is {verdicts.get(tid)}, expected {verdict}")
    for tid, values in roots.items():
        if len(matched[tid]) != len(values) or not _near(matched[tid], values):
            problems.append(f"{key}: {tid} matched {matched[tid]}, expected {values}")
    return problems, sources, pairs


def _portrait_problems(files: list[Path], trajectories: int) -> list[str]:
    problems = []
    names = [p.name for p in files]
    want = ["grid.csv"] + [f"trajectory_{i:02d}.csv" for i in range(trajectories)]
    if names != want:
        return [f"portrait wrote {names}"]
    grid = _read_csv(files[0], "x,y,f1,f2,F1,F2")
    axis = np.linspace(-3.0, 3.0, 101)
    if grid.shape != (101 * 101, 6) or not _near(grid[:, 0], np.repeat(axis, 101), 1e-12) \
            or not _near(grid[:, 1], np.tile(axis, 101), 1e-12):
        problems.append("portrait grid is not the 101x101 lattice of the region")
    else:
        exact = oracle.planar_field(grid[:, :2])
        if float(np.max(np.abs(grid[:, 2:] - exact) / np.maximum(1.0, np.abs(exact)))) > 1e-12:
            problems.append("portrait grid values differ from f and F")
    for path in files[1:]:
        traj = _read_csv(path, "t,x,y")
        err = oracle.planar_trajectory_error(traj)
        if len(traj) < 2 or err > FLOW_TOL:
            problems.append(f"{path.name}: off the closed-form flow by {err:.3e}")
    return problems


def _read_csv(path: Path, header: str) -> np.ndarray:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if ",".join(rows[0]) != header:
        raise ValueError(f"{path.name}: header {rows[0]}")
    return np.array(rows[1:], dtype=float)


WORKLOADS = {w.name: w for w in (SpectraAffine, VerifyRandom, CliFiles)}
