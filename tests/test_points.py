import dataclasses
import itertools
import math
import os
import random
import time
import types
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import critflow as cf
import critflow.worker

from critflow import points
from critflow.fields import acceleration_map
from critflow.io import load_system
from critflow.linalg import SingularMatrixError, _solve
from critflow.points import _DAMPING, _MIN_STEP, _WORK_COUNTERS

from conftest import (assert_no_child_process, build_counted, caches_after_import,
                      grid_scan_roots, make_field, random_affine_map, random_polynomial_field)


REGION_1D = cf.AnalysisRegion.of((-3, 3))
CFG = cf.SolverConfig()


def test_newton_root_finds_perpetual_point(quad_field):
    F = cf.acceleration_field(quad_field)
    root = cf.newton_root(F, [0.3], REGION_1D, CFG)
    assert abs(root[0]) <= 1e-10


def test_newton_root_nearby_simple_root(quad_field):
    root = cf.newton_root(quad_field, [0.9], REGION_1D, CFG)
    assert root[0] == pytest.approx(1.0, abs=1e-12)


def test_newton_root_no_real_root_diagnostics():
    f = make_field("shifted", ["x"], {"A": 1.0}, ["x^2 + A^2"])
    # from 0 the derivative is singular at once; from 0.5 the line search
    # stalls at the merit minimum; both must fail with diagnostics
    for seed in ([0.0], [0.5]):
        with pytest.raises(cf.NoConvergenceError) as exc:
            cf.newton_root(f, seed, REGION_1D, CFG)
        assert exc.value.residual >= 1.0
        assert exc.value.reason in ("singular-jacobian", "no-descent",
                                    "iteration-cap", "region-exit")


def test_find_fixed_points_quadratic(quad_field):
    points = cf.fixed_point_search(quad_field, REGION_1D, CFG).points
    assert [p.location[0] for p in points] == pytest.approx([-1.0, 1.0], abs=1e-10)
    assert points[0].spectrum.values[0] == pytest.approx(-2.0, abs=1e-10)
    assert points[1].spectrum.values[0] == pytest.approx(2.0, abs=1e-10)
    assert all(p.kind == cf.FIXED for p in points)
    assert all(p.speed <= CFG.velocity_floor for p in points)


def test_find_fixed_points_2d():
    f = make_field("planar", ["x", "y"], {}, ["1 - x^2", "-y"])
    points = cf.fixed_point_search(f, cf.AnalysisRegion.of((-3, 3), (-3, 3)), CFG).points
    locs = np.array([p.location for p in points])
    assert_allclose(locs, [[-1.0, 0.0], [1.0, 0.0]], atol=1e-9)


def test_find_fixed_points_none(quad_field):
    f = make_field("nozeros", ["x"], {"A": 1.0}, ["x^2 + A^2"])
    assert cf.fixed_point_search(f, REGION_1D, CFG).points == []


def test_find_perpetual_points_quadratic(quad_field):
    points = cf.perpetual_point_search(quad_field, REGION_1D, CFG).points
    assert len(points) == 1
    p = points[0]
    assert p.location[0] == pytest.approx(0.0, abs=1e-10)
    assert p.velocity[0] == pytest.approx(-1.0, abs=1e-10)
    assert p.spectrum.values[0] == pytest.approx(-2.0, abs=1e-9)
    assert p.kind == cf.PERPETUAL


def test_find_perpetual_points_2d():
    f = make_field("planar", ["x", "y"], {}, ["1 - x^2", "-y"])
    points = cf.perpetual_point_search(f, cf.AnalysisRegion.of((-3, 3), (-3, 3)), CFG).points
    assert len(points) == 1
    p = points[0]
    assert_allclose(p.location, [0.0, 0.0], atol=1e-9)
    assert_allclose(p.velocity, [1.0, 0.0], atol=1e-9)
    # DF = diag(-2 + 6x^2, 1) at the origin
    assert p.spectrum.values == pytest.approx([-2.0, 1.0], abs=1e-9)


def test_find_perpetual_points_sqrt_system():
    g = make_field("sqrt_sys", ["y"], {"A": 1.0}, ["2*sqrt(y)*(y - A^2)"])
    points = cf.perpetual_point_search(g, cf.AnalysisRegion.of((0.01, 3)), CFG).points
    assert len(points) == 1
    assert points[0].location[0] == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert points[0].spectrum.values[0] == pytest.approx(-4.0, abs=1e-9)


def test_boundary_flagged_root_outside_region():
    g = make_field("sqrt_sys", ["y"], {"A": 1.0}, ["2*sqrt(y)*(y - A^2)"])
    fps = cf.fixed_point_search(g, cf.AnalysisRegion.of((0.01, 3)), CFG).points
    assert len(fps) == 2
    near_zero, at_one = fps
    assert abs(near_zero.location[0]) < 1e-8
    assert near_zero.boundary
    assert at_one.location[0] == pytest.approx(1.0, abs=1e-10)
    assert not at_one.boundary
    assert at_one.spectrum.values[0] == pytest.approx(2.0, abs=1e-9)


def test_fixed_points_are_acceleration_zeros(quad_field):
    F = cf.acceleration_field(quad_field)
    for p in cf.fixed_point_search(quad_field, REGION_1D, CFG).points:
        assert np.linalg.norm(F.value(p.location)) <= CFG.root_tol * 10


def test_seeding_determinism():
    rng = random.Random(8)
    f = random_polynomial_field(rng, 2)
    region = cf.AnalysisRegion.of((-2, 2), (-2, 2))
    a = cf.fixed_point_search(f, region, CFG).points
    b = cf.fixed_point_search(f, region, CFG).points
    assert len(a) == len(b)
    for p, q in zip(a, b):
        assert np.array_equal(p.location, q.location)
        assert p.residual == q.residual
    shifted = cf.SolverConfig(rng_seed=1)
    c = cf.fixed_point_search(f, region, shifted).points
    assert len(a) == len(c)  # same roots from different jitter


def test_lattice_has_count_points_at_every_exact_power():
    # a float root can land above an exact power: 3125 ** (1 / 5) > 5
    for n in range(1, 11):
        region = cf.AnalysisRegion.of(*[(-1, 1)] * n)
        for c in range(1, 26):
            if c ** n > 20000:
                break
            assert len(cf.lattice_points(region, c ** n)) == c ** n, (c, n)


def test_classification_dichotomy_and_kinds(quad_field):
    fps = cf.fixed_point_search(quad_field, REGION_1D, CFG).points
    pps = cf.perpetual_point_search(quad_field, REGION_1D, CFG).points
    for p in fps:
        assert p.speed <= CFG.velocity_floor
    for p in pps:
        assert p.speed > CFG.velocity_floor
        assert p.residual <= CFG.root_tol
    locations = [tuple(p.location) for p in fps + pps]
    assert len(set(locations)) == len(locations)


def test_classify_point_examples(quad_field):
    assert cf.classify_point(quad_field, [1.0], CFG).kind == cf.FIXED
    assert cf.classify_point(quad_field, [0.0], CFG).kind == cf.PERPETUAL
    assert cf.classify_point(quad_field, [0.5], CFG) is None


def _bits(value):
    """``value`` to the bit: an array by its dtype, shape and bytes, the
    rest by ``repr``, which spells every float and its sign exactly."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return repr(value)


@pytest.mark.parametrize("n, seeds", [(1, range(10)), (2, range(8)), (3, range(4))],
                         ids=["n1", "n2", "n3"])
def test_classify_point_returns_every_point_the_searches_report(n, seeds):
    region = cf.AnalysisRegion.of(*[(-2, 2)] * n)
    compared = set()
    for seed in seeds:
        f = random_polynomial_field(random.Random(7000 + 10 * n + seed), n)
        for search in (cf.fixed_point_search, cf.perpetual_point_search):
            for p in search(f, region, CFG).points:
                got = cf.classify_point(f, p.location, CFG)
                assert got is not None and not got.boundary
                for name in ("kind", "location", "residual", "velocity", "spectrum",
                             "jacobian", "degenerate", "note"):
                    assert _bits(getattr(got, name)) == _bits(getattr(p, name)), name
                compared.add(p.kind)
    assert compared == {cf.FIXED, cf.PERPETUAL}


def test_classify_point_rejects_what_the_searches_reject():
    # x' = 1e-8 has no fixed point: |f| is 100 times root_tol everywhere,
    # though below the velocity floor, and F = 0 there
    f = make_field("drift", ["x"], {}, ["1e-8"])
    for search in (cf.fixed_point_search, cf.perpetual_point_search):
        assert search(f, REGION_1D, CFG).points == []
    assert cf.classify_point(f, [0.0], CFG) is None


def test_classify_point_rejects_a_point_of_the_wrong_length(quad_field):
    with pytest.raises(ValueError, match="point has 2 coordinates, map expects 1"):
        cf.classify_point(quad_field, [0.0, 1.0], CFG)


def test_degenerate_continuum_nilpotent():
    nil = make_field("nilpotent", ["x", "y"], {}, ["y", "0"])
    region = cf.AnalysisRegion.of((-2, 2), (-2, 2))
    search = cf.perpetual_point_search(nil, region, CFG)
    assert len(search.points) > 10
    assert all(p.degenerate for p in search.points)
    assert search.clean_points == []
    assert any("degenerate continuum" in w for w in search.warnings)


def test_constant_field_continuum_warning():
    const = make_field("drift", ["x"], {}, ["1"])
    search = cf.perpetual_point_search(const, REGION_1D, CFG)
    assert search.clean_points == []
    assert any("degenerate continuum" in w for w in search.warnings)
    fixed = cf.fixed_point_search(const, REGION_1D, CFG).points
    assert fixed == []


def test_oracle_equivalence_on_random_2d_systems():
    # brute-force dense-grid oracle vs the multi-start solver
    rng = random.Random(1234)
    region = cf.AnalysisRegion.of((-2, 2), (-2, 2))
    cfg = cf.SolverConfig(seed_count=400)
    for trial in range(8):
        f = random_polynomial_field(rng, 2, degree=3)
        found = [p for p in cf.fixed_point_search(f, region, cfg).points
                 if not p.boundary and not p.degenerate]
        oracle = grid_scan_roots(f, region)
        assert len(found) == len(oracle), f"trial {trial}: {len(found)} vs {len(oracle)}"
        for mine, ref in zip(found, oracle):
            assert np.linalg.norm(mine.location - ref) < 1e-6


def test_solver_config_validation():
    with pytest.raises(ValueError):
        cf.SolverConfig(root_tol=1e-3, dedup_tol=1e-6)
    with pytest.raises(ValueError):
        cf.SolverConfig(root_tol=-1.0)
    with pytest.raises(ValueError):
        cf.SolverConfig(seed_count=0)
    for field in ("root_tol", "dedup_tol", "velocity_floor"):
        for value in (math.nan, math.inf, 0.0):
            with pytest.raises(ValueError):
                cf.SolverConfig(**{field: value})


def test_fixed_search_warns_when_every_seed_meets_a_singular_jacobian():
    # x' = y, y' = 0: every point of y = 0 is fixed and Df is singular
    # everywhere, so each Newton run stops at once and nothing converges
    loaded = load_system(Path(__file__).parent / "data" / "nilpotent.json")
    search = cf.fixed_point_search(loaded.field, loaded.region, CFG)
    assert search.points == [] and search.seeds_converged == 0
    assert search.warnings == [
        f"no seed converged: {search.seeds_used} of {search.seeds_used} seeds stopped on a "
        f"singular Jacobian of the solved field, so its fixed-point roots may not be isolated"]
    # a search that converges somewhere stays silent
    assert cf.fixed_point_search(make_field("line", ["x"], {}, ["x - 1"]),
                                 REGION_1D, CFG).warnings == []


def test_search_counts_outcomes_and_evaluations():
    rng = random.Random(21)
    region = cf.AnalysisRegion.of((-2, 2), (-2, 2))
    for f in (random_polynomial_field(rng, 2),
              cf.transformed_system(random_polynomial_field(rng, 2),
                                    random_affine_map(rng, 2, region))):
        for search_fn in (cf.fixed_point_search, cf.perpetual_point_search):
            first, again = search_fn(f, region, CFG), search_fn(f, region, CFG)
            assert sum(first.reasons.values()) == first.seeds_used > 0
            assert first.reasons.get("converged", 0) == first.seeds_converged
            assert set(first.reasons) <= {"converged", "domain-error-at-seed", "domain-error",
                                          "singular-jacobian", "no-descent", "region-exit",
                                          "iteration-cap"}
            # every seed is evaluated once; every solve follows a Jacobian
            assert first.residual_evals >= first.seeds_used
            assert first.jacobian_evals >= first.solves >= first.seeds_converged
            counts = [(s.reasons, s.residual_evals, s.jacobian_evals, s.solves, s.steps,
                       s.backtracks) for s in (first, again)]
            assert counts[0] == counts[1]
    nilpotent = load_system(Path(__file__).parent / "data" / "nilpotent.json")
    search = cf.fixed_point_search(nilpotent.field, nilpotent.region, CFG)
    assert search.reasons == {"singular-jacobian": search.seeds_used}
    assert search.jacobian_evals == search.solves == search.seeds_used


def test_fixed_search_survives_residuals_whose_square_overflows():
    # residual norms reach 8e200, far above the 1.34e154 where a float
    # square overflows
    f = make_field("steep", ["x"], {}, ["1e200*(x^2 - 1)"])
    points = cf.fixed_point_search(f, REGION_1D, CFG).points
    assert [p.location[0] for p in points] == [-1.0, 1.0]


@pytest.mark.parametrize("c", ["1", "1e100", "1e160", "1e200", "1e300"])
def test_fixed_search_takes_the_same_steps_at_every_scale(c):
    # past r = 1.34e154, r * r is inf; the decrease test must still reject
    # a trial that raises the residual, so c*f searches exactly as f does
    f = make_field("scaled", ["x"], {}, [f"{c}*(x^3 - 2*x + 2)"])
    search = cf.fixed_point_search(f, REGION_1D, CFG)
    assert search.reasons == {"converged": 59, "region-exit": 41}
    assert [p.location[0] for p in search.points] == [-1.7692923542386314]
    # the same work as f, but c * p(x) and c * p'(x) round, so a step may
    # differ from f's in its last bit: from the seed x = 2.3743, c >= 1e200
    # takes one more full step before the residual is exactly zero
    unscaled = cf.fixed_point_search(make_field("plain", ["x"], {}, ["x^3 - 2*x + 2"]),
                                     REGION_1D, CFG)
    extra = 1 if float(c) >= 1e200 else 0
    assert (search.residual_evals, search.jacobian_evals, search.solves, search.steps,
            search.backtracks) == (unscaled.residual_evals + extra, unscaled.jacobian_evals + extra,
                                   unscaled.solves + extra, unscaled.steps + extra,
                                   unscaled.backtracks)


def _numpy_dedup_reference(fieldmap, region, cfg):
    """_collect_roots as it was written with numpy: the same Newton runs,
    deduplicated by ``np.linalg.norm`` of the difference."""
    from critflow import points
    box = region.cushioned_bounds(points._REGION_CUSHION)
    hits = []
    for seed in cf.lattice_points(region, cfg.seed_count, cfg.rng_seed).tolist():
        point, residual, *_ = points._newton(fieldmap, seed, box, cfg)
        if point is not None:
            hits.append((np.array(point), residual))
    hits.sort(key=lambda h: (h[1], tuple(h[0])))
    kept = []
    for point, res in hits:
        if all(np.linalg.norm(point - q) > cfg.dedup_tol for q, _ in kept):
            kept.append((point, res))
    return kept


@pytest.mark.parametrize("name, kind", [("nilpotent", "perpetual"), ("example2_system", "fixed"),
                                        ("planar", "perpetual"), ("rotation", "fixed")])
def test_dedup_keeps_what_the_numpy_norm_keeps(name, kind):
    from critflow import points
    loaded = load_system(Path(__file__).parent / "data" / f"{name}.json")
    f, region = loaded.field, loaded.region
    for cfg in (CFG, cf.SolverConfig(seed_count=300, dedup_tol=1e-3)):
        plan = points._plan_search(f, kind, region, cfg)
        runs = points._runs([plan], [(0, 0)], len(plan.seeds), cfg)
        kept = points._collect_roots(runs, cfg, cf.PointSearch(points=[]))
        want = _numpy_dedup_reference(plan.solved, region, cfg)
        assert kept == [(p.tolist(), r) for p, r in want]
    if name == "nilpotent":  # a continuum: every pair of roots is compared
        assert len(kept) > 100


# ---------------------------------------------------------------------------
# The generated Newton run against the helper-based loop it replaced

def _residual(fieldmap, x, work):
    """(field values, their 2-norm) at ``x``, or None outside the domain;
    ``work`` counts the evaluation."""
    work.residual_evals += 1
    fx = fieldmap._kernel(0)(*x)
    return None if fx is None else (fx, math.hypot(*fx))


def _step(fieldmap, x, fx, work):
    """The Newton step at ``x``, or None where the Jacobian is not
    evaluable; raises SingularMatrixError."""
    work.jacobian_evals += 1
    jac = fieldmap._kernel(1)(*x)
    if jac is None:
        return None
    work.solves += 1
    return _solve(jac, [-v for v in fx])


def _polish(fieldmap, x, fx, r, work):
    # a few extra full steps push the residual toward machine precision
    for _ in range(3):
        try:
            step = _step(fieldmap, x, fx, work)
        except SingularMatrixError:
            break
        if step is None:
            break
        trial_x = [xi + si for xi, si in zip(x, step)]
        trial = _residual(fieldmap, trial_x, work)
        if trial is None or trial[1] >= r:
            break
        x, (fx, r) = trial_x, trial
        work.steps += 1
    return x, r


def _trial_point(lo, hi, xs, ss, t):
    """``x + t * step``, or None when that leaves the box [lo, hi]."""
    trial = [xi + t * si for xi, si in zip(xs, ss)]
    for v, l, h in zip(trial, lo, hi):
        if not l <= v <= h:
            return None
    return trial


def _reference_newton(fieldmap, seed, box, cfg, work):
    """``points._newton`` as a loop over helpers, with lists for points:
    (root or None, residual, iterations, reason); it counts on ``work``,
    ``steps`` and ``backtracks`` where the generated run does."""
    lo, hi = box
    x = [float(v) for v in seed]
    state = _residual(fieldmap, x, work)
    if state is None:
        return None, math.inf, 0, "domain-error-at-seed"
    fx, r = state

    for it in range(cfg.max_newton_iters):
        if r <= cfg.root_tol:
            x, r = _polish(fieldmap, x, fx, r, work)
            return x, r, it, "converged"
        try:
            step = _step(fieldmap, x, fx, work)
        except SingularMatrixError:
            return None, r, it, "singular-jacobian"
        if step is None:
            return None, r, it, "domain-error"

        t = 1.0
        accepted = False
        exited = False
        while t >= _MIN_STEP:
            trial_x = _trial_point(lo, hi, x, step, t)
            if trial_x is None:
                exited = exited or t == 1.0
                work.backtracks += 1
                t *= _DAMPING
                continue
            trial = _residual(fieldmap, trial_x, work)
            if trial is not None:
                rt, rr = trial[1], r * r
                if (rt * rt <= rr * (1.0 - 1e-4 * t) if rr != math.inf
                        else (rt / r) * (rt / r) <= 1.0 - 1e-4 * t):
                    x, (fx, r) = trial_x, trial
                    accepted = True
                    work.steps += 1
                    break
                if t < 1e-6:
                    work.backtracks += 1
                    break
            work.backtracks += 1
            t *= _DAMPING
        if not accepted:
            return None, r, it, "region-exit" if exited else "no-descent"

    if r <= cfg.root_tol:
        return x, r, cfg.max_newton_iters, "converged"
    return None, r, cfg.max_newton_iters, "iteration-cap"


def _reference_cases():
    """(name, solved map, region, config): random cubics and their affine
    conjugates for n = 1..6, fixed and perpetual, and fields that reach
    each exit of the run."""
    rng = random.Random(20)
    capped = cf.SolverConfig(max_newton_iters=4)
    for n in range(1, 7):
        region = cf.AnalysisRegion.of(*[(-2, 2)] * n)
        cfg = cf.SolverConfig(seed_count=100 if n <= 3 else 30)
        f = random_polynomial_field(rng, n)
        g = cf.transformed_system(f, random_affine_map(rng, n, region))
        for field in (f, g):
            yield f"{field.name} n={n}", field, region, cfg
            yield f"{field.name}_accel n={n}", acceleration_map(field), region, cfg
            yield f"{field.name} n={n} capped", field, region, capped
    data = Path(__file__).parent / "data"
    # 2 sqrt(y) (y - 1) and its acceleration: no seed below y = 0 is evaluable
    wall = load_system(data / "example2_system.json").field
    for m in (wall, acceleration_map(wall)):
        yield m.name, m, cf.AnalysisRegion.of((-1.0, 3.0)), CFG
    # the derivative 5e307 / sqrt(x) overflows below x = 0.078, the values do not
    yield ("overflowing slope", make_field("slope", ["x"], {}, ["1e308*sqrt(x) - 5e307"]),
           cf.AnalysisRegion.of((0.001, 1.0)), CFG)
    nilpotent = load_system(data / "nilpotent.json")
    yield "nilpotent", nilpotent.field, nilpotent.region, CFG
    # no root: the iterates halve towards the merit minimum at 0, where the
    # step grows too long to decrease it, yet stays inside this wide box
    yield ("no root", make_field("lift", ["x"], {}, ["x^2 + 1"]),
           cf.AnalysisRegion.of((-1e6, 1e6)), CFG)
    # residuals near 8e200, whose squares overflow: the ratio branch
    yield "steep", make_field("steep", ["x"], {}, ["1e200*(x^2 - 1)"]), REGION_1D, CFG


def _run_key(point, residual, iterations, reason, *counts):
    """A Newton run's tuple with each root coordinate as its bits."""
    bits = None if point is None else [v.hex() for v in point]
    return (reason, iterations, residual, bits, *counts)


def test_generated_newton_run_matches_the_reference_loop_bit_for_bit():
    reasons = {}
    capped_roots = 0
    for name, solved, region, cfg in _reference_cases():
        box = region.cushioned_bounds(points._REGION_CUSHION)
        for seed in cf.lattice_points(region, cfg.seed_count, cfg.rng_seed).tolist():
            got = points._newton(solved, seed, box, cfg)
            want_work = cf.PointSearch(points=[])
            want = _reference_newton(solved, seed, box, cfg, want_work)
            want_counts = [getattr(want_work, counter) for counter in _WORK_COUNTERS]
            assert _run_key(*got) == _run_key(*want, *want_counts), (name, seed)
            _, _, iterations, reason, *_ = got
            reasons[reason] = reasons.get(reason, 0) + 1
            capped_roots += reason == "converged" and iterations == cfg.max_newton_iters
    assert set(reasons) == {"converged", "domain-error-at-seed", "domain-error",
                            "singular-jacobian", "no-descent", "region-exit",
                            "iteration-cap"}, reasons
    assert capped_roots > 0  # roots reached on the last iteration, unpolished


def test_newton_functions_are_built_once_per_dimension_and_not_on_import(monkeypatch):
    assert "currsize=0" in caches_after_import()["points._newton_function"]
    built = build_counted(monkeypatch, points, "_newton_function")
    for n in (2, 3, 2, 3, 3):
        f = make_field("shift", [f"x{i + 1}" for i in range(n)], {},
                       [f"x{i + 1} - 1" for i in range(n)])
        assert len(cf.fixed_point_search(f, cf.AnalysisRegion.of(*[(-2, 2)] * n),
                                         cf.SolverConfig(seed_count=4)).points) == 1
    info = built.cache_info()
    assert (info.misses, info.currsize) == (2, 2) and info.hits > 0


def test_classify_point_evaluates_each_jacobian_once(monkeypatch, quad_field):
    calls = []
    kernel_of = cf.VectorMap._kernel

    def counting(self, order):
        kernel = kernel_of(self, order)

        def counted(*args):
            calls.append((self.name, order))
            return kernel(*args)
        return counted

    monkeypatch.setattr(cf.VectorMap, "_kernel", counting)
    point = cf.classify_point(quad_field, [1.0], CFG)  # x^2 - 1 at its root
    assert point.kind == cf.FIXED and point.spectrum.values == (2.0,)
    assert point.jacobian.tolist() == [[2.0]]
    assert sorted(calls) == [(quad_field.name, 0), (quad_field.name, 1)]
    calls.clear()
    point = cf.classify_point(quad_field, [0.0], CFG)  # the perpetual point
    assert point.kind == cf.PERPETUAL and point.spectrum.values == (-2.0,)
    accel = acceleration_map(quad_field).name
    assert sorted(calls) == [(quad_field.name, 0), (accel, 0), (accel, 1)]


# ---------------------------------------------------------------------------
# A search of three or more inputs shares its seeds with a forked worker

SHARED_CFG = cf.SolverConfig(seed_count=30, max_newton_iters=40)


def _force_worker(monkeypatch, usable: bool):
    """Make a worker usable, on one CPU too, or unusable."""
    monkeypatch.setattr(critflow.worker, "_usable_cpus", lambda: 2 if usable else 1)


def _counting_forks(monkeypatch, log):
    """Append the calling process to the file ``log`` at each ``os.fork``;
    a file, so that a fork made in a forked worker counts too."""
    fork = os.fork

    def counted():
        with open(log, "a") as out:
            out.write(f"{os.getpid()}\n")
        return fork()
    monkeypatch.setattr(os, "fork", counted)
    return lambda: [int(pid) for pid in log.read_text().split()] if log.exists() else []


def _search_fields(search):
    """Every field of ``search`` and of its points, arrays as their bytes."""
    def plain(value):
        return value.tobytes() if isinstance(value, np.ndarray) else value
    return ([tuple(plain(getattr(p, f.name)) for f in dataclasses.fields(p))
             for p in search.points],
            [getattr(search, f.name) for f in dataclasses.fields(search) if f.name != "points"])


def _shared_cases():
    """Random cubics of 2, 3 and 4 inputs with their affine conjugates."""
    rng = random.Random(4)
    for n in (2, 3, 4):
        region = cf.AnalysisRegion.of(*[(-2.5, 2.5)] * n)
        f = random_polynomial_field(rng, n)
        yield f, region
        yield cf.transformed_system(f, random_affine_map(rng, n, region)), region


def test_shared_searches_equal_serial_ones_field_by_field(monkeypatch, tmp_path):
    forks = _counting_forks(monkeypatch, tmp_path / "forks")
    here, checked = os.getpid(), 0
    for f, region in _shared_cases():
        for search_fn in (cf.fixed_point_search, cf.perpetual_point_search):
            _force_worker(monkeypatch, True)
            before = len(forks())
            shared = search_fn(f, region, SHARED_CFG)
            assert_no_child_process()
            # the split rule: three or more inputs, one worker per search
            assert forks()[before:] == ([here] if f.dimension >= 3 else [])
            _force_worker(monkeypatch, False)
            serial = search_fn(f, region, SHARED_CFG)
            assert len(forks()) == before + (f.dimension >= 3)
            assert _search_fields(shared) == _search_fields(serial), (f.name, search_fn)
            checked += len(serial.points)
    assert checked > 20


def test_a_queue_of_seed_blocks_gives_the_serial_search(monkeypatch):
    # past _QUEUE_SLOTS seeds an entry stands for a block of seeds: here 64
    # seeds in 5 slots, blocks of 13 and a short last one
    f = random_polynomial_field(random.Random(5), 3)
    region = cf.AnalysisRegion.of(*[(-2.5, 2.5)] * 3)
    _force_worker(monkeypatch, False)
    serial = cf.perpetual_point_search(f, region, SHARED_CFG)
    _force_worker(monkeypatch, True)
    monkeypatch.setattr(points, "_QUEUE_SLOTS", 5)
    assert serial.seeds_used == 64
    assert _search_fields(cf.perpetual_point_search(f, region, SHARED_CFG)) == _search_fields(serial)
    assert_no_child_process()


def test_searches_beside_a_worker_or_in_one_fork_nothing(monkeypatch, tmp_path):
    _force_worker(monkeypatch, True)
    forks = _counting_forks(monkeypatch, tmp_path / "forks")
    rng = random.Random(1)
    region = cf.AnalysisRegion.of(*[(-2.5, 2.5)] * 3)
    f = random_polynomial_field(rng, 3)
    h = random_affine_map(rng, 3, region)
    # run_verification forks one worker for its searches' seeds, and nothing more
    report, g = cf.run_verification(f, h, region, theorems=("t1", "t2"), cfg=SHARED_CFG)
    assert_no_child_process()
    assert forks() == [os.getpid()]
    # a search inside an open forked block runs in this process alone
    with critflow.worker.forked(lambda: os.getpid()) as other:
        inside = cf.perpetual_point_search(f, region, SHARED_CFG)
        assert other() != os.getpid()
    assert_no_child_process()
    assert forks() == [os.getpid()] * 2
    assert _search_fields(inside) == _search_fields(cf.perpetual_point_search(f, region,
                                                                              SHARED_CFG))
    assert len(forks()) == 3


def test_a_worker_that_ends_within_its_result_sends_none_and_leaves_no_process(monkeypatch):
    # a result past the pipe's buffer is written in pieces; here the worker
    # writes the first 1,000 bytes of its pickle and ends
    _force_worker(monkeypatch, True)
    real = critflow.worker.pickle
    cut = types.SimpleNamespace(dumps=lambda obj: real.dumps(obj)[:1000], load=real.load,
                                loads=real.loads, UnpicklingError=real.UnpicklingError)
    monkeypatch.setattr(critflow.worker, "pickle", cut)
    with critflow.worker.forked(lambda: list(range(100_000))) as result:
        assert result() is None
    assert_no_child_process()


def _worker_takes_the_first_block(monkeypatch, taken: Path, ends: bool):
    """Make this process wait, at its call of the seed loop, until the
    forked worker has taken the first block of seeds off the queue (it
    touches ``taken``); with ``ends`` the worker then ends at once and
    sends nothing, else it runs its share as usual."""
    here, seed_loop = os.getpid(), points._runs

    def runs(plans, entries, *args):
        if os.getpid() != here:
            entries = iter(entries)
            first = next(entries)
            taken.touch()
            if ends:
                os._exit(1)
            return seed_loop(plans, itertools.chain([first], entries), *args)
        deadline = time.monotonic() + 10
        while not taken.exists() and time.monotonic() < deadline:
            time.sleep(0.001)
        return seed_loop(plans, entries, *args)
    monkeypatch.setattr(points, "_runs", runs)


def _lone_search_case():
    return random_polynomial_field(random.Random(5), 3), cf.AnalysisRegion.of(*[(-2.5, 2.5)] * 3)


def test_a_lone_search_whose_worker_ends_mid_queue_gives_the_serial_search(monkeypatch,
                                                                           tmp_path):
    # the worker's block is lost with it, so this process runs every seed again
    f, region = _lone_search_case()
    _force_worker(monkeypatch, False)
    serial = cf.perpetual_point_search(f, region, SHARED_CFG)
    _force_worker(monkeypatch, True)
    _worker_takes_the_first_block(monkeypatch, tmp_path / "taken", ends=True)
    shared = cf.perpetual_point_search(f, region, SHARED_CFG)
    assert _search_fields(shared) == _search_fields(serial)
    assert (tmp_path / "taken").exists()
    assert_no_child_process()


def test_a_fixed_point_search_whose_worker_sends_a_truncated_result_gives_the_serial_one(
        monkeypatch, tmp_path):
    f, region = _lone_search_case()
    _force_worker(monkeypatch, False)
    serial = cf.fixed_point_search(f, region, SHARED_CFG)
    _force_worker(monkeypatch, True)
    _worker_takes_the_first_block(monkeypatch, tmp_path / "taken", ends=False)
    real = critflow.worker.pickle
    half = types.SimpleNamespace(dumps=lambda obj: (data := real.dumps(obj))[:len(data) // 2],
                                 load=real.load, UnpicklingError=real.UnpicklingError)
    monkeypatch.setattr(critflow.worker, "pickle", half)
    shared = cf.fixed_point_search(f, region, SHARED_CFG)
    assert _search_fields(shared) == _search_fields(serial)
    assert (tmp_path / "taken").exists()
    assert_no_child_process()


def test_a_lone_search_whose_worker_run_raises_runs_only_the_worker_seeds_again(
        monkeypatch, tmp_path):
    # the worker's first run raises, so it sends nothing; this process has
    # run the rest of the queue and runs the worker's seeds, not all again
    f, region = _lone_search_case()
    _force_worker(monkeypatch, False)
    serial = cf.perpetual_point_search(f, region, SHARED_CFG)
    _force_worker(monkeypatch, True)
    _worker_takes_the_first_block(monkeypatch, tmp_path / "taken", ends=False)
    here, run, runs_here = os.getpid(), points._newton, []

    def newton(*args):
        if os.getpid() != here:
            raise cf.DomainError("worker run")
        runs_here.append(args)
        return run(*args)
    monkeypatch.setattr(points, "_newton", newton)
    shared = cf.perpetual_point_search(f, region, SHARED_CFG)
    assert _search_fields(shared) == _search_fields(serial)
    assert (tmp_path / "taken").exists()
    assert len(runs_here) == serial.seeds_used == 64
    assert_no_child_process()


def _failing_runs(monkeypatch, seeds, failures: dict):
    """Make the Newton run of the seed of index k raise ``failures[k]``, in
    this process and in a forked worker."""
    run = points._newton

    def failing(fieldmap, seed, *args):
        error = failures.get(seeds.index(seed))
        if error is not None:
            raise error
        return run(fieldmap, seed, *args)
    monkeypatch.setattr(points, "_newton", failing)


@pytest.mark.parametrize("usable", [True, False], ids=["worker", "in-process"])
@pytest.mark.parametrize("error", [RecursionError("maximum recursion depth exceeded"),
                                   cf.DomainError("injected"),
                                   cf.EigenConvergenceError(np.eye(3)),
                                   KeyboardInterrupt("injected")],
                         ids=lambda e: type(e).__name__)
@pytest.mark.parametrize("where", ["first", "last"])
def test_an_error_in_one_seeds_run_reaches_the_caller(monkeypatch, usable, error, where):
    _force_worker(monkeypatch, usable)
    region = cf.AnalysisRegion.of(*[(-2.5, 2.5)] * 3)
    f = random_polynomial_field(random.Random(2), 3)
    seeds = cf.lattice_points(region, SHARED_CFG.seed_count, SHARED_CFG.rng_seed).tolist()
    _failing_runs(monkeypatch, seeds, {0 if where == "first" else len(seeds) - 1: error})
    with pytest.raises(type(error)) as caught:
        cf.fixed_point_search(f, region, SHARED_CFG)
    assert type(caught.value) is type(error) and str(caught.value) == str(error)
    assert_no_child_process()


@pytest.mark.parametrize("usable", [True, False], ids=["worker", "in-process"])
def test_the_lowest_failing_seed_decides_the_error_as_in_the_serial_loop(monkeypatch, usable):
    _force_worker(monkeypatch, usable)
    region = cf.AnalysisRegion.of(*[(-2.5, 2.5)] * 3)
    f = random_polynomial_field(random.Random(2), 3)
    seeds = cf.lattice_points(region, SHARED_CFG.seed_count, SHARED_CFG.rng_seed).tolist()
    failing = (len(seeds) - 1, len(seeds) // 2, len(seeds) // 3 + 1)
    _failing_runs(monkeypatch, seeds, {k: cf.DomainError(f"seed {k}") for k in failing})
    with pytest.raises(cf.DomainError) as caught:
        cf.perpetual_point_search(f, region, SHARED_CFG)
    assert str(caught.value) == f"seed {min(failing)}"
    assert_no_child_process()


def test_a_region_of_another_dimension_than_the_map_is_rejected_by_name(monkeypatch, tmp_path):
    _force_worker(monkeypatch, True)
    forks = _counting_forks(monkeypatch, tmp_path / "forks")
    rng = random.Random(3)
    plane = random_polynomial_field(rng, 2)
    for search_fn in (cf.fixed_point_search, cf.perpetual_point_search):
        for d in (1, 3):
            region = cf.AnalysisRegion.of(*[(-2, 2)] * d)
            with pytest.raises(ValueError, match=f"region has dimension {d}, .* has 2 inputs"):
                search_fn(plane, region, SHARED_CFG)
    # a search that would share its seeds fails before it forks
    space = random_polynomial_field(rng, 3)
    with pytest.raises(ValueError, match="region has dimension 2, .* has 3 inputs"):
        cf.fixed_point_search(space, cf.AnalysisRegion.of((-2, 2), (-2, 2)), SHARED_CFG)
    assert forks() == []
    with pytest.raises(ValueError, match="region has dimension 1, .* has 2 inputs"):
        cf.newton_root(plane, [0.5], cf.AnalysisRegion.of((-2, 2)), CFG)
    assert_no_child_process()


def _plain(run) -> bool:
    """Whether a run holds only ints, floats, strings, None and lists of
    floats, which a forked worker pickles fast."""
    return all(type(v) in (int, float, str, type(None))
               or type(v) is list and all(type(x) is float for x in v) for v in run)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_shared_searches_leave_the_open_files_as_they_were(monkeypatch, tmp_path):
    log = tmp_path / "runs"
    seed_loop = points._runs

    def logged(*args):
        runs = seed_loop(*args)
        with open(log, "a") as out:
            out.write(f"{os.getpid()} {len(runs)} {all(map(_plain, runs))}\n")
        return runs
    monkeypatch.setattr(points, "_runs", logged)
    region = cf.AnalysisRegion.of(*[(-2.5, 2.5)] * 3)
    f = random_polynomial_field(random.Random(2), 3)
    seeds = cf.lattice_points(region, SHARED_CFG.seed_count, SHARED_CFG.rng_seed).tolist()
    open_files = sorted(os.listdir("/proc/self/fd"))
    for usable in (True, False):
        _force_worker(monkeypatch, usable)
        log.unlink(missing_ok=True)
        cf.perpetual_point_search(f, region, SHARED_CFG)
        assert sorted(os.listdir("/proc/self/fd")) == open_files
        assert_no_child_process()
        lines = [line.split() for line in log.read_text().splitlines()]
        # each side runs the loop once, in two processes where a worker is usable
        assert len(lines) == 2 and len({pid for pid, _, _ in lines}) == (2 if usable else 1)
        assert sum(int(count) for _, count, _ in lines) == len(seeds)
        assert all(plain == "True" for _, _, plain in lines)
    _force_worker(monkeypatch, True)
    _failing_runs(monkeypatch, seeds, {len(seeds) // 2: cf.DomainError("injected")})
    with pytest.raises(cf.DomainError):
        cf.perpetual_point_search(f, region, SHARED_CFG)
    assert sorted(os.listdir("/proc/self/fd")) == open_files
    assert_no_child_process()
