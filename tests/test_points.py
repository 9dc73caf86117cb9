import math
import random
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import critflow as cf

from critflow.io import load_system

from conftest import grid_scan_roots, make_field, random_affine_map, random_polynomial_field


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
    points = cf.find_fixed_points(quad_field, REGION_1D, CFG)
    assert [p.location[0] for p in points] == pytest.approx([-1.0, 1.0], abs=1e-10)
    assert points[0].spectrum.values[0] == pytest.approx(-2.0, abs=1e-10)
    assert points[1].spectrum.values[0] == pytest.approx(2.0, abs=1e-10)
    assert all(p.kind == cf.FIXED for p in points)
    assert all(p.speed <= CFG.velocity_floor for p in points)


def test_find_fixed_points_2d():
    f = make_field("planar", ["x", "y"], {}, ["1 - x^2", "-y"])
    points = cf.find_fixed_points(f, cf.AnalysisRegion.of((-3, 3), (-3, 3)), CFG)
    locs = np.array([p.location for p in points])
    assert_allclose(locs, [[-1.0, 0.0], [1.0, 0.0]], atol=1e-9)


def test_find_fixed_points_none(quad_field):
    f = make_field("nozeros", ["x"], {"A": 1.0}, ["x^2 + A^2"])
    assert cf.find_fixed_points(f, REGION_1D, CFG) == []


def test_find_perpetual_points_quadratic(quad_field):
    points = cf.find_perpetual_points(quad_field, REGION_1D, CFG)
    assert len(points) == 1
    p = points[0]
    assert p.location[0] == pytest.approx(0.0, abs=1e-10)
    assert p.velocity[0] == pytest.approx(-1.0, abs=1e-10)
    assert p.spectrum.values[0] == pytest.approx(-2.0, abs=1e-9)
    assert p.kind == cf.PERPETUAL


def test_find_perpetual_points_2d():
    f = make_field("planar", ["x", "y"], {}, ["1 - x^2", "-y"])
    points = cf.find_perpetual_points(f, cf.AnalysisRegion.of((-3, 3), (-3, 3)), CFG)
    assert len(points) == 1
    p = points[0]
    assert_allclose(p.location, [0.0, 0.0], atol=1e-9)
    assert_allclose(p.velocity, [1.0, 0.0], atol=1e-9)
    # DF = diag(-2 + 6x^2, 1) at the origin
    assert p.spectrum.values == pytest.approx([-2.0, 1.0], abs=1e-9)


def test_find_perpetual_points_sqrt_system():
    g = make_field("sqrt_sys", ["y"], {"A": 1.0}, ["2*sqrt(y)*(y - A^2)"])
    points = cf.find_perpetual_points(g, cf.AnalysisRegion.of((0.01, 3)), CFG)
    assert len(points) == 1
    assert points[0].location[0] == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert points[0].spectrum.values[0] == pytest.approx(-4.0, abs=1e-9)


def test_boundary_flagged_root_outside_region():
    g = make_field("sqrt_sys", ["y"], {"A": 1.0}, ["2*sqrt(y)*(y - A^2)"])
    fps = cf.find_fixed_points(g, cf.AnalysisRegion.of((0.01, 3)), CFG)
    assert len(fps) == 2
    near_zero, at_one = fps
    assert abs(near_zero.location[0]) < 1e-8
    assert near_zero.boundary
    assert at_one.location[0] == pytest.approx(1.0, abs=1e-10)
    assert not at_one.boundary
    assert at_one.spectrum.values[0] == pytest.approx(2.0, abs=1e-9)


def test_fixed_points_are_acceleration_zeros(quad_field):
    F = cf.acceleration_field(quad_field)
    for p in cf.find_fixed_points(quad_field, REGION_1D, CFG):
        assert np.linalg.norm(F.value(p.location)) <= CFG.root_tol * 10


def test_seeding_determinism():
    rng = random.Random(8)
    f = random_polynomial_field(rng, 2)
    region = cf.AnalysisRegion.of((-2, 2), (-2, 2))
    a = cf.find_fixed_points(f, region, CFG)
    b = cf.find_fixed_points(f, region, CFG)
    assert len(a) == len(b)
    for p, q in zip(a, b):
        assert np.array_equal(p.location, q.location)
        assert p.residual == q.residual
    shifted = cf.SolverConfig(rng_seed=1)
    c = cf.find_fixed_points(f, region, shifted)
    assert len(a) == len(c)  # same roots from different jitter


def test_classification_dichotomy_and_kinds(quad_field):
    fps = cf.find_fixed_points(quad_field, REGION_1D, CFG)
    pps = cf.find_perpetual_points(quad_field, REGION_1D, CFG)
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
    fixed = cf.find_fixed_points(const, REGION_1D, CFG)
    assert fixed == []


def test_oracle_equivalence_on_random_2d_systems():
    # brute-force dense-grid oracle vs the multi-start solver
    rng = random.Random(1234)
    region = cf.AnalysisRegion.of((-2, 2), (-2, 2))
    cfg = cf.SolverConfig(seed_count=400)
    for trial in range(8):
        f = random_polynomial_field(rng, 2, degree=3)
        found = [p for p in cf.find_fixed_points(f, region, cfg)
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
            counts = [(s.reasons, s.residual_evals, s.jacobian_evals, s.solves)
                      for s in (first, again)]
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
