"""Acceptance suite.

One test per criterion, each at its stated tolerance, printing a
``criterion N: PASS`` line on success (run with ``pytest -rP`` to see the
lines; a failing criterion fails its test). Criterion 4's run is cached so
criterion 8 can compare a byte-identical rerun.
"""

import hashlib
import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

import critflow as cf
from critflow.cli import main
from critflow.fields import acceleration_field, acceleration_map, image_region
from critflow.io import canonical_json
from critflow.linalg import Spectrum
from critflow.points import fixed_point_search, perpetual_point_search

from conftest import (fd_gradient, grid_scan_roots, random_affine_map,
                      random_expression_source, random_polynomial_field, rk4_trajectory)

DATA = Path(__file__).parent / "data"


def _announce(criterion: int, detail: str) -> None:
    print(f"criterion {criterion}: PASS - {detail}")


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc))
    return path


def _run_report(tmp_path: Path, *args) -> tuple[int, dict]:
    out = tmp_path / f"report_{abs(hash(args)) % 10 ** 8}.json"
    code = main([*map(str, args), "--out", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else {}
    return code, doc


def _all_points(group: dict) -> list[dict]:
    return group["points"] + group["degenerate_points"]


# ---------------------------------------------------------------------------
# Criterion 1: scalar quadratic regression across parameter values

def test_criterion_1_quadratic_regression(tmp_path):
    for a in (0.5, 1.0, 2.0):
        sys_path = _write_json(tmp_path / f"sys_{a}.json", {
            "name": f"quadratic_{a}", "state": ["x"], "params": {"A": a},
            "field": ["x^2 - A^2"], "region": [[-3 * a, 3 * a]]})
        started = time.perf_counter()
        code, doc = _run_report(tmp_path, "analyze", sys_path)
        elapsed = time.perf_counter() - started
        assert code == 0
        assert elapsed < 1.0, f"analyze took {elapsed:.2f} s for A={a}"

        fixed = doc["fixed_points"]
        assert fixed["degenerate_points"] == []
        assert len(fixed["points"]) == 2
        lo, hi = fixed["points"]
        assert abs(lo["location"][0] - (-a)) <= 1e-8
        assert abs(hi["location"][0] - a) <= 1e-8
        assert abs(lo["spectrum"][0][0] - (-2 * a)) <= 1e-8
        assert abs(hi["spectrum"][0][0] - 2 * a) <= 1e-8
        assert abs(lo["spectrum"][0][1]) <= 1e-8

        perp = doc["perpetual_points"]
        assert perp["degenerate_points"] == []
        assert len(perp["points"]) == 1
        pp = perp["points"][0]
        assert abs(pp["location"][0]) <= 1e-8
        assert abs(pp["spectrum"][0][0] - (-2 * a * a)) <= 1e-8
        assert abs(pp["velocity"][0] - (-a * a)) <= 1e-8
    _announce(1, "two fixed points at +/-A with matching spectra and one "
                 "perpetual point at 0 for A in {0.5, 1, 2}, under 1 s each")


# ---------------------------------------------------------------------------
# Criterion 2: affine-map verification across parameter grid

def test_criterion_2_affine_theorem_grid(tmp_path):
    sys_path = _write_json(tmp_path / "sys.json", {
        "name": "quadratic", "state": ["x"], "params": {"A": 1.0},
        "field": ["x^2 - A^2"], "region": [[-3, 3]]})
    for alpha in (1.0, 2.0, -1.5):
        for beta in (0.0, 5.0, -3.0):
            map_path = _write_json(tmp_path / f"map_{alpha}_{beta}.json", {
                "map": ["alpha*x + beta"], "inverse": ["(y - beta)/alpha"],
                "params": {"alpha": alpha, "beta": beta},
                "domain": [[-20, 20]], "linear": True})
            code, doc = _run_report(tmp_path, "verify", sys_path, map_path)
            assert code == 0, f"verify failed for alpha={alpha}, beta={beta}"
            verdicts = {c["theorem"]: c["verdict"] for c in doc["checks"]}
            for tid in ("flow", "t1", "t2", "t3"):
                assert verdicts[tid] == "holds", (tid, alpha, beta, verdicts)

            t1 = next(c for c in doc["checks"] if c["theorem"] == "t1")
            matched = sorted(d["matched"][0] for d in t1["details"] if d["matched"])
            expected = sorted([beta - alpha, beta + alpha])
            assert len(matched) == 2
            for got, want in zip(matched, expected):
                assert abs(got - want) <= 1e-7, (alpha, beta, got, want)

            t2 = next(c for c in doc["checks"] if c["theorem"] == "t2")
            pp = [d["matched"][0] for d in t2["details"] if d["matched"]]
            assert len(pp) == 1 and abs(pp[0] - beta) <= 1e-7

            t3 = next(c for c in doc["checks"] if c["theorem"] == "t3")
            distances = [d["spectrum_distance"] for d in t3["details"]
                         if d["spectrum_distance"] is not None]
            assert distances and all(d < 1e-8 for d in distances)
    _announce(2, "flow, point-mapping and spectrum checks hold for all nine "
                 "(alpha, beta) pairs; images within 1e-7, spectra within 1e-8")


# ---------------------------------------------------------------------------
# Criterion 3: transformed sqrt-branch system and new-point advisories

def test_criterion_3_sqrt_branch_regression(tmp_path):
    code, doc = _run_report(tmp_path, "analyze", DATA / "example2_system.json")
    assert code == 0
    fps = _all_points(doc["fixed_points"])
    assert len(fps) == 2
    near_zero = min(fps, key=lambda p: abs(p["location"][0]))
    at_one = max(fps, key=lambda p: abs(p["location"][0]))
    assert abs(near_zero["location"][0]) <= 1e-8
    assert near_zero["boundary"] is True
    assert abs(at_one["location"][0] - 1.0) <= 1e-8
    assert abs(at_one["spectrum"][0][0] - 2.0) <= 1e-8
    pps = doc["perpetual_points"]["points"]
    assert len(pps) == 1
    assert abs(pps[0]["location"][0] - 1.0 / 3.0) <= 1e-8
    assert abs(pps[0]["spectrum"][0][0] - (-4.0)) <= 1e-8

    code, doc = _run_report(tmp_path, "verify", DATA / "example1.json",
                            DATA / "square_map.json")
    assert code == 0, "advisory verdicts must exit 0"
    checks = {c["theorem"]: c for c in doc["checks"]}
    assert checks["t2"]["verdict"] == "not-applicable"
    assert checks["t3"]["verdict"] == "not-applicable"
    assert checks["r1"]["verdict"] == "not-applicable"
    new_points = {(d["kind"], round(d["matched"][0], 9)): d
                  for d in checks["r1"]["details"]}
    assert any(k == "fixed" and abs(v) <= 1e-8 for k, v in new_points)
    assert any(k == "perpetual" and abs(v - 1.0 / 3.0) <= 1e-8 for k, v in new_points)
    # the perpetual point's image (0) is flagged as matching nothing
    unmatched_pp = [d for d in checks["t2"]["details"]
                    if d["source"] is not None and d["matched"] is None]
    assert unmatched_pp and abs(unmatched_pp[0]["mapped"][0]) <= 1e-8
    _announce(3, "boundary-flagged root near 0, fixed point 1.0 (lambda 2), "
                 "perpetual point 1/3 (mu -4); square-map verify reports the "
                 "new points as advisories with exit code 0")


# ---------------------------------------------------------------------------
# Criterion 4: spectrum preservation at scale (cached for criterion 8)

_C4_SEED = 20240801
_C4_SEEDS_BY_DIM = {1: 24, 2: 45, 3: 30}
_C4_CACHE: dict[int, tuple[str, float, dict]] = {}


def _criterion4_compute(rng_seed: int) -> tuple[str, float, dict]:
    rng = random.Random(rng_seed)
    started = time.perf_counter()
    systems = []
    worst_sd = worst_sim = worst_oracle = 0.0
    pair_count = 0
    # (spectrum distance, kind, source Jacobian, target Jacobian) of every
    # n = 3 pair; these stay out of the report
    three_dim_pairs = []
    for index in range(200):
        n = rng.choice([1, 2, 3])
        region = cf.AnalysisRegion.of(*[(-2.5, 2.5)] * n)
        cfg = cf.SolverConfig(seed_count=_C4_SEEDS_BY_DIM[n], max_newton_iters=40)
        f = random_polynomial_field(rng, n, degree=3, name=f"poly_{index}")
        h = random_affine_map(rng, n, region, max_cond=50.0)
        g = cf.transformed_system(f, h)
        f_region = region.intersect(h.domain)
        g_region = image_region(h)
        searches = {
            ("f", cf.FIXED): fixed_point_search(f, f_region, cfg),
            ("f", cf.PERPETUAL): perpetual_point_search(f, f_region, cfg),
            ("g", cf.FIXED): fixed_point_search(g, g_region, cfg),
            ("g", cf.PERPETUAL): perpetual_point_search(g, g_region, cfg),
        }
        check = cf.verify_spectrum_preservation(f, h, g, region, cfg,
                                                searches=searches)
        assert check.verdict in (cf.HOLDS,), f"system {index}: {check}"
        accel_f = acceleration_map(f)
        accel_g = acceleration_map(g)
        sys_sd = sys_sim = sys_oracle = 0.0
        sys_pairs = 0
        for rec in check.details:
            if rec.spectrum_distance is None:
                continue
            sys_pairs += 1
            sys_sd = max(sys_sd, rec.spectrum_distance)
            sys_sim = max(sys_sim, rec.similarity_residual)
            # independent oracle: numpy eigencomputation on both sides
            if rec.kind == cf.FIXED:
                j_src = f.jacobian(np.array(rec.source))
                j_dst = g.jacobian(np.array(rec.matched))
            else:
                j_src = accel_f.jacobian(np.array(rec.source))
                j_dst = accel_g.jacobian(np.array(rec.matched))
            oracle_sd = cf.spectrum_distance(Spectrum.of(np.linalg.eigvals(j_src)),
                                             Spectrum.of(np.linalg.eigvals(j_dst)))
            sys_oracle = max(sys_oracle, oracle_sd)
            if n == 3:
                three_dim_pairs.append((rec.spectrum_distance, rec.kind, j_src, j_dst))
        pair_count += sys_pairs
        worst_sd = max(worst_sd, sys_sd)
        worst_sim = max(worst_sim, sys_sim)
        worst_oracle = max(worst_oracle, sys_oracle)
        systems.append({"index": index, "dimension": n, "pairs": sys_pairs,
                        "worst_spectrum_distance": sys_sd,
                        "worst_similarity_residual": sys_sim,
                        "worst_oracle_distance": sys_oracle})
    elapsed = time.perf_counter() - started
    report = canonical_json({
        "suite": "spectrum-preservation-at-scale",
        "rng_seed": rng_seed,
        "system_count": len(systems),
        "systems": systems,
        "totals": {"pairs": pair_count,
                   "worst_spectrum_distance": worst_sd,
                   "worst_similarity_residual": worst_sim,
                   "worst_oracle_distance": worst_oracle},
    })
    stats = {"pairs": pair_count, "worst_sd": worst_sd, "worst_sim": worst_sim,
             "worst_oracle": worst_oracle, "three_dim_pairs": three_dim_pairs}
    return report, elapsed, stats


def _criterion4_cached(rng_seed: int) -> tuple[str, float, dict]:
    if rng_seed not in _C4_CACHE:
        _C4_CACHE[rng_seed] = _criterion4_compute(rng_seed)
    return _C4_CACHE[rng_seed]


def test_criterion_4_spectrum_preservation_at_scale():
    report, elapsed, stats = _criterion4_cached(_C4_SEED)
    assert elapsed < 60.0, f"suite took {elapsed:.1f} s"
    assert stats["pairs"] >= 400, "too few matched pairs to be meaningful"
    assert stats["worst_sd"] < 1e-6
    assert stats["worst_oracle"] < 1e-6
    assert stats["worst_sim"] < 1e-7
    _announce(4, f"200 systems, {stats['pairs']} matched pairs in "
                 f"{elapsed:.1f} s; worst spectrum distance "
                 f"{stats['worst_sd']:.2e}, worst similarity residual "
                 f"{stats['worst_sim']:.2e}")


def _mpmath_spectrum(mpmath, jac: np.ndarray) -> Spectrum:
    with mpmath.workdps(50):
        values = mpmath.eig(mpmath.matrix(jac.tolist()), left=False, right=False)
        return Spectrum.of([complex(v) for v in values])


def test_criterion_4_worst_three_dimensional_pairs_against_mpmath():
    # for n >= 3 both the program and criterion 4's numpy oracle take their
    # eigenvalues from LAPACK; mpmath's QR iteration, at 50 digits on the
    # same float Jacobians, checks both apart from it
    mpmath = pytest.importorskip("mpmath")
    _, _, stats = _criterion4_cached(_C4_SEED)
    worst = sorted(stats["three_dim_pairs"], key=lambda p: p[0], reverse=True)[:5]
    assert len(worst) == 5
    for distance, kind, j_src, j_dst in worst:
        exact_src, exact_dst = _mpmath_spectrum(mpmath, j_src), _mpmath_spectrum(mpmath, j_dst)
        for jac, exact in ((j_src, exact_src), (j_dst, exact_dst)):
            assert cf.spectrum_distance(cf.eigenvalues(jac), exact) < 1e-6, kind
        assert cf.spectrum_distance(exact_src, exact_dst) < 1e-6, kind
        assert abs(cf.spectrum_distance(exact_src, exact_dst) - distance) < 1e-6, kind
    _announce(4, f"the {len(worst)} worst n = 3 pairs agree with mpmath's eigenvalues")


# ---------------------------------------------------------------------------
# Criterion 5: derivative and acceleration-field correctness

def test_criterion_5_derivative_and_field_correctness():
    rng = random.Random(987)
    checked = 0
    while checked < 500:
        n = rng.choice([1, 2, 3])
        names = ["x"] if n == 1 else [f"x{i + 1}" for i in range(n)]
        source = random_expression_source(rng, names, depth=3)
        expr = cf.parse_expression(source, set(names))
        probe = cf.VectorMap("probe", names, {}, [expr])
        x = np.array([rng.uniform(-1.2, 1.2) for _ in range(n)])
        try:
            base = probe.value(x)[0]
            jac = probe.jacobian(x)[0]
            hess = probe.hessian(x)[0]
        except cf.DomainError:
            continue
        if abs(base) > 1e3 or np.max(np.abs(jac)) > 1e3:
            continue
        try:
            fd_jac = fd_gradient(lambda p: probe.value(p)[0], x)
            fd_hess = np.column_stack(
                [fd_gradient(lambda p, j=j: probe.jacobian(p)[0][j], x)
                 for j in range(n)])
        except cf.DomainError:
            continue
        assert np.max(np.abs(fd_jac - jac)) <= 1e-6 * max(
            1.0, float(np.max(np.abs(jac))), float(np.max(np.abs(fd_jac))))
        assert np.max(np.abs(fd_hess - hess)) <= 1e-6 * max(
            1.0, float(np.max(np.abs(hess))), float(np.max(np.abs(fd_hess))))
        checked += 1

    rng = random.Random(555)
    systems_done = 0
    worst = 0.0
    while systems_done < 20:
        f = random_polynomial_field(rng, 2, degree=3)
        x0 = np.array([rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)])
        try:
            traj = rk4_trajectory(f, x0, step=1e-4, t_end=0.2, sample_count=401)
        except cf.DomainError:
            continue
        if np.max(np.abs(traj.states)) > 3.0:
            continue
        accel = acceleration_field(f)
        delta = traj.times[1] - traj.times[0]
        for k in range(1, len(traj) - 1, 3):
            fd = (traj.states[k + 1] - 2 * traj.states[k] + traj.states[k - 1]) / delta ** 2
            sym = accel.value(traj.states[k])
            rel = float(np.max(np.abs(fd - sym))) / max(1.0, float(np.max(np.abs(sym))))
            worst = max(worst, rel)
        systems_done += 1
    assert worst < 1e-5
    _announce(5, f"500 expression pairs within 1e-6; trajectory second "
                 f"derivative matches the acceleration field to {worst:.2e} "
                 f"on 20 systems (tol 1e-5)")


# ---------------------------------------------------------------------------
# Criterion 6: root-finder oracle equivalence

def test_criterion_6_root_finder_oracle_equivalence():
    rng = random.Random(4242)
    region = cf.AnalysisRegion.of((-2, 2), (-2, 2))
    cfg = cf.SolverConfig(seed_count=400, max_newton_iters=60)
    total_roots = 0
    for trial in range(50):
        f = random_polynomial_field(rng, 2, degree=3, name=f"oracle_{trial}")
        accel = acceleration_field(f)
        mine_fp = [p.location for p in cf.fixed_point_search(f, region, cfg).points
                   if not p.boundary and not p.degenerate]
        oracle_fp = grid_scan_roots(f, region)
        mine_pp = [p.location for p in cf.perpetual_point_search(f, region, cfg).points
                   if not p.boundary and not p.degenerate]
        oracle_pp = [r for r in grid_scan_roots(accel, region)
                     if np.linalg.norm(f.value(r)) > cfg.velocity_floor]
        for label, mine, oracle in (("fixed", mine_fp, oracle_fp),
                                    ("perpetual", mine_pp, oracle_pp)):
            assert len(mine) == len(oracle), (
                f"trial {trial} {label}: found {len(mine)}, oracle {len(oracle)}")
            for r in oracle:
                assert any(np.linalg.norm(r - m) < 1e-6 for m in mine), (
                    f"trial {trial} {label}: missed oracle root {r}")
        total_roots += len(oracle_fp) + len(oracle_pp)
    assert total_roots >= 100
    _announce(6, f"50 random planar systems: fixed and perpetual point sets "
                 f"match the dense-grid oracle exactly ({total_roots} roots)")


# ---------------------------------------------------------------------------
# Criterion 7: degenerate continuum handling

def test_criterion_7_degenerate_continuum(tmp_path):
    code, doc = _run_report(tmp_path, "analyze", DATA / "nilpotent.json")
    assert code == 0
    perp = doc["perpetual_points"]
    assert perp["points"] == [], "a degenerate continuum must not yield a clean list"
    assert len(perp["degenerate_points"]) > 10
    assert all(p["degenerate"] for p in perp["degenerate_points"])
    assert any("degenerate continuum" in w for w in perp["warnings"])
    _announce(7, f"nilpotent shear: {len(perp['degenerate_points'])} degenerate "
                 f"roots flagged with a continuum warning, no clean perpetual list")


# ---------------------------------------------------------------------------
# Criterion 8: determinism of the scale suite

def test_criterion_8_determinism():
    first, _, _ = _criterion4_cached(_C4_SEED)
    second, _, _ = _criterion4_compute(_C4_SEED)
    assert first == second, "criterion 4 reruns must be byte-identical"
    assert first.encode("utf-8") == second.encode("utf-8")
    _announce(8, f"two runs of the 200-system suite produced byte-identical "
                 f"{len(first)}-byte reports, sha256 "
                 f"{hashlib.sha256(first.encode('utf-8')).hexdigest()}")
