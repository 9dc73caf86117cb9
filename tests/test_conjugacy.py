import collections
import json
import math
import os
import random
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import critflow as cf
import critflow.conjugacy
import critflow.fields
import critflow.points
import critflow.worker
from critflow.cli import main
from critflow.io import load_map, load_system

from conftest import (affine_map_1d, assert_no_child_process, identity_map,
                      make_field, random_affine_map, random_polynomial_field,
                      square_map_1d)


REGION = cf.AnalysisRegion.of((-3, 3))
CFG = cf.SolverConfig()
DATA = Path(__file__).parent / "data"


@pytest.fixture
def affine_setup(quad_field):
    h = affine_map_1d(2.0, 5.0)
    g = cf.transformed_system(quad_field, h)
    return quad_field, h, g


def test_flow_conjugacy_affine_holds(affine_setup):
    f, h, g = affine_setup
    check = cf.verify_flow_conjugacy(f, g, h, [[0.0]], t_end=1.0, tol=1e-6)
    assert check.verdict == cf.HOLDS
    assert check.worst_residual < 1e-6


def test_flow_conjugacy_identity_noise_level(quad_field):
    h = identity_map(["x"], cf.AnalysisRegion.of((-5, 5)))
    g = cf.transformed_system(quad_field, h)
    check = cf.verify_flow_conjugacy(quad_field, g, h, [[-0.5], [0.0], [0.5]],
                                     t_end=1.0, tol=1e-6)
    assert check.verdict == cf.HOLDS
    assert check.worst_residual < 1e-7


def test_flow_conjugacy_mismatched_system_fails(quad_field):
    h = affine_map_1d(2.0, 5.0)
    wrong = make_field("wrong", ["y"], {}, ["y^2 - 1"])
    check = cf.verify_flow_conjugacy(quad_field, wrong, h, [[0.0], [-1.0]],
                                     t_end=1.0, tol=1e-6)
    assert check.verdict == cf.FAILS
    assert check.worst_residual > 1e-2


def test_flow_conjugacy_truncates_blowups(quad_field):
    h = affine_map_1d(1.0, 0.0)
    g = cf.transformed_system(quad_field, h)
    # x0 = 2 escapes before T = 1; the point must be truncated, not fatal
    check = cf.verify_flow_conjugacy(quad_field, g, h, [[2.0], [0.0]],
                                     t_end=1.0, tol=1e-6)
    assert check.verdict == cf.HOLDS
    truncated = [r for r in check.details if "blow-up" in r.note or "ceiling" in r.note]
    assert truncated


def _whole_horizon_flow_points(f, h, region, count, t_end):
    """The selection rule integrating every candidate over the whole
    horizon: keep a candidate when the integration reaches t_end and all
    its samples lie in h.domain. Returns (points, how many were kept)."""
    candidates = cf.lattice_points(region.intersect(h.domain), 4 * count, rng_seed=0)
    quick = cf.IntegratorConfig(tol=1e-6, t_end=float(t_end),
                                sample_count=critflow.conjugacy._FLOW_SAMPLES)
    good, rest = [], []
    for c in candidates:
        if len(good) >= count:
            break
        try:
            states = cf.integrate(f, c, quick).states
        except (cf.BlowUpError, cf.StepUnderflowError, cf.DomainError):
            rest.append(c)
            continue
        (good if all(h.domain.contains(s) for s in states) else rest).append(c)
    return (good + rest)[:count], len(good)


def _counting_values(f):
    """Count the calls of f's kernels, the integrator's right-hand side."""
    calls = [0]
    kernel_of = f._kernel

    def counting(order):
        kernel = kernel_of(order)

        def counted(*args):
            calls[0] += 1
            return kernel(*args)
        return counted

    f._kernel = counting
    return calls


def _builder_case(n, seed):
    rng = random.Random(seed)
    region = cf.AnalysisRegion.of(*[(-2.5, 2.5)] * n)
    f = random_polynomial_field(rng, n, degree=3)
    return f, random_affine_map(rng, n, region), region


# kept: candidates whose samples all stay in h.domain; at n = 4, builder
# seed 1 keeps none, as every candidate blows up or fails
@pytest.mark.parametrize("n, seed, kept", [(2, 1, 5), (2, 5, 3), (3, 1, 5), (3, 3, 2), (4, 1, 0)])
def test_flow_points_stop_early_and_match_whole_horizon_rule(n, seed, kept):
    f, h, region = _builder_case(n, seed)
    calls = _counting_values(f)
    want, kept_whole_horizon = _whole_horizon_flow_points(f, h, region, 5, 1.0)
    assert kept_whole_horizon == kept
    whole_horizon_calls, calls[0] = calls[0], 0
    got = cf.select_flow_points(f, h, region, 1.0)
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert calls[0] < whole_horizon_calls


@pytest.mark.parametrize("n, seed", [(2, 1), (2, 5), (3, 1), (3, 3), (4, 1)])
def test_flow_points_reject_escaping_candidates_on_the_check_grid(n, seed):
    # on the flow check's grid a candidate heading for a blow-up is mostly
    # rejected at a sample outside h.domain, not integrated until its step
    # collapses; on a 17-sample grid three of these cases spend over 40 %
    f, h, region = _builder_case(n, seed)
    calls = _counting_values(f)
    _whole_horizon_flow_points(f, h, region, 5, 1.0)
    whole_horizon_calls, calls[0] = calls[0], 0
    cf.select_flow_points(f, h, region, 1.0)
    assert 0 < 4 * calls[0] < whole_horizon_calls


def test_flow_check_skips_g_where_f_fails():
    # x' = x^3 from 1 collapses its step at t = 1/2; only x0 is compared
    # there, so g's states would go unread
    f = make_field("cubic", ["x"], {}, ["x^3"])
    h = affine_map_1d(2.0, 1.0)
    g = cf.transformed_system(f, h)
    calls = _counting_values(g)
    failing = cf.verify_flow_conjugacy(f, g, h, [[1.0]], t_end=1.0, tol=1e-6)
    assert calls[0] == 0
    (record,) = failing.details
    assert record.residual == 0.0 and failing.verdict == cf.HOLDS
    assert record.note.startswith("compared 1/32 samples; integration failed: step size underflow")
    assert record.note.count("integration failed") == 1
    both = cf.verify_flow_conjugacy(f, g, h, [[1.0], [0.5]], t_end=1.0, tol=1e-6)
    assert calls[0] > 0  # x0 = 0.5 blows up only at t = 2
    assert both.details[0] == record and both.verdict == cf.HOLDS
    assert both.details[1].note == "compared 32/32 samples"


def _flow_candidate(k):
    """The k-th of the 20 candidate flow start points over [0, 3]."""
    return float(cf.lattice_points(cf.AnalysisRegion.of((0, 3)), 20, 0)[k, 0])


def _walled_map(a):
    """h(x) = x + 0*(1/(x - a)) on [0, 3]: x, but not evaluable at a."""
    comp = cf.parse_expression(f"x + 0*(1/(x - {a!r}))", {"x"})
    inv = cf.parse_expression("y", {"y"})
    return cf.TransformationMap("walled", ["x"], {}, [comp], cf.AnalysisRegion.of((0, 3)),
                                False, inverse=cf.VectorMap("walled_inv", ["y"], {}, [inv]))


def test_flow_check_skips_a_start_where_the_map_cannot_be_evaluated(tmp_path):
    # a is the first candidate flow start point over region ∩ h.domain =
    # [0, 3]; select_flow_points passes over it, and the flow check skips
    # it when handed it
    a = _flow_candidate(0)
    map_file = tmp_path / "map.json"
    map_file.write_text(json.dumps({"map": [f"x + 0*(1/(x - {a!r}))"], "inverse": ["y"],
                                    "params": {}, "domain": [[0, 3]], "linear": False}))
    system = load_system(DATA / "example1.json")
    h = load_map(map_file, system.field).map
    report, g = cf.run_verification(system.field, h, system.region, theorems=("flow",))
    (flow,) = report.checks
    assert flow.verdict == cf.HOLDS
    assert len(flow.details) == 5 and all(r.note.startswith("compared ") for r in flow.details)
    direct = cf.verify_flow_conjugacy(system.field, g, h, [[a], [1.0]], t_end=1.0, tol=1e-6)
    skipped = cf.MatchRecord(source=(a,), note="skipped: map not evaluable at initial point")
    assert direct.details[0] == skipped and direct.verdict == cf.HOLDS
    out = tmp_path / "report.json"
    assert main(["verify", str(DATA / "example1.json"), str(map_file), "--theorems", "flow",
                 "--out", str(out)]) == 0
    (record,) = json.loads(out.read_text())["checks"]
    assert record["verdict"] == cf.HOLDS
    assert_no_child_process()


# the wall on a rejected start (0) and on a preferred one (5)
@pytest.mark.parametrize("k", [0, 5])
def test_flow_points_are_starts_where_the_map_can_be_evaluated(quad_field, k):
    h = _walled_map(_flow_candidate(k))
    points = cf.select_flow_points(quad_field, h, REGION, 1.0)
    assert len(points) == 5
    assert all(h._kernel(0)(*p.tolist()) is not None for p in points)


def test_point_mapping_affine(affine_setup):
    f, h, g = affine_setup
    t1 = cf.verify_point_mapping(f, h, g, REGION, CFG, cf.FIXED)
    assert t1.verdict == cf.HOLDS
    mapped = sorted(r.matched[0] for r in t1.details if r.matched)
    assert mapped == pytest.approx([3.0, 7.0], abs=1e-8)
    t2 = cf.verify_point_mapping(f, h, g, REGION, CFG, cf.PERPETUAL)
    assert t2.verdict == cf.HOLDS
    assert t2.details[0].matched[0] == pytest.approx(5.0, abs=1e-8)


def test_point_mapping_identity(quad_field):
    h = identity_map(["x"], cf.AnalysisRegion.of((-5, 5)))
    g = cf.transformed_system(quad_field, h)
    check = cf.verify_point_mapping(quad_field, h, g, REGION, CFG, cf.FIXED)
    assert check.verdict == cf.HOLDS
    for r in check.details:
        if r.matched:
            assert r.residual < 1e-9


def test_point_mapping_square_map_not_applicable(quad_field):
    h = square_map_1d()
    g = cf.transformed_system(quad_field, h)
    check = cf.verify_point_mapping(quad_field, h, g, REGION, CFG, cf.PERPETUAL)
    assert check.verdict == cf.NOT_APPLICABLE
    # the perpetual point maps to 0, which is not a perpetual point of g
    rec = next(r for r in check.details if r.source is not None)
    assert rec.mapped[0] == pytest.approx(0.0, abs=1e-9)
    assert rec.matched is None
    # and g's perpetual point at 1/3 has no preimage
    assert any(r.matched and abs(r.matched[0] - 1.0 / 3.0) < 1e-6
               for r in check.details if r.source is None)


def _matching_oracle(h, f_points, g_points, match_tol):
    """Greedy matching that walks the targets again for the non-injective
    fallback, computing each distance where it reads it."""
    taken = [False] * len(g_points)
    records, worst, all_matched = [], 0.0, True
    for p in f_points:
        try:
            mapped = h.value(p.location)
        except cf.DomainError:
            records.append(cf.MatchRecord(source=tuple(p.location), kind=p.kind,
                                          note="map not evaluable at this point"))
            all_matched = False
            continue
        best_j, best_d = -1, math.inf
        for j, q in enumerate(g_points):
            if taken[j]:
                continue
            d = float(np.linalg.norm(mapped - q.location))
            if d < best_d:
                best_j, best_d = j, d
        if best_d > match_tol:
            for j, q in enumerate(g_points):
                d = float(np.linalg.norm(mapped - q.location))
                if d < best_d:
                    best_j, best_d = j, d
        if best_j >= 0 and best_d <= match_tol:
            taken[best_j] = True
            worst = max(worst, best_d)
            records.append(cf.MatchRecord(source=tuple(p.location), mapped=tuple(mapped),
                                          matched=tuple(g_points[best_j].location),
                                          kind=p.kind, residual=best_d))
        else:
            all_matched = False
            records.append(cf.MatchRecord(
                source=tuple(p.location), mapped=tuple(mapped), kind=p.kind,
                residual=best_d if best_d < math.inf else None,
                note="image does not coincide with any discovered target point"))
    unmatched = [q for j, q in enumerate(g_points) if not taken[j]]
    return records, unmatched, worst, all_matched


class _HalvingMap:
    """floor(x / 2) on integer points: several sources land on one target,
    and integer distances tie; not evaluable where x_0 = 5."""
    def value(self, x):
        if x[0] == 5:
            raise cf.DomainError("not evaluable")
        return np.floor(np.asarray(x) / 2.0)


def test_matching_takes_the_nearest_untaken_target_as_the_oracle_does():
    rng = random.Random(5)
    h = _HalvingMap()
    for trial in range(400):
        n = rng.choice((1, 2))
        kind = rng.choice((cf.FIXED, cf.PERPETUAL))

        def points(count, span):
            return [types.SimpleNamespace(
                location=np.array([float(rng.randint(-span, span)) for _ in range(n)]),
                kind=kind) for _ in range(count)]
        f_points, g_points = points(rng.randint(0, 8), 6), points(rng.randint(0, 6), 3)
        g_points += rng.sample(g_points, min(2, len(g_points)))  # repeated targets
        match_tol = 10.0 * rng.choice((0.05, 0.1, 0.15))
        got = critflow.conjugacy._matching(f_points, g_points, h, match_tol)
        want = _matching_oracle(h, f_points, g_points, match_tol)
        assert list(got.records) == want[0], trial
        assert [id(q) for q in got.unmatched] == [id(q) for q in want[1]], trial
        assert (got.worst, got.all_matched) == want[2:], trial
        # the pairs are the matched records with their two points, in source order
        pairs = got.pairs
        assert [rec for rec, _, _ in pairs] == [r for r in got.records if r.matched is not None]
        for rec, p, q in pairs:
            assert any(p is fp for fp in f_points) and any(q is gp for gp in g_points)
            assert rec.source == tuple(p.location) and rec.matched == tuple(q.location)


def test_spectrum_preservation_affine(affine_setup):
    f, h, g = affine_setup
    check = cf.verify_spectrum_preservation(f, h, g, REGION, CFG)
    assert check.verdict == cf.HOLDS
    pairs = [r for r in check.details if r.spectrum_distance is not None]
    kinds = {r.kind for r in pairs}
    assert kinds == {cf.FIXED, cf.PERPETUAL}
    for r in pairs:
        assert r.spectrum_distance < 1e-8
        assert r.similarity_residual < 1e-9


def test_spectrum_preservation_identity(quad_field):
    h = identity_map(["x"], cf.AnalysisRegion.of((-5, 5)))
    g = cf.transformed_system(quad_field, h)
    check = cf.verify_spectrum_preservation(quad_field, h, g, REGION, CFG)
    assert check.verdict == cf.HOLDS
    for r in check.details:
        if r.spectrum_distance is not None:
            assert r.spectrum_distance < 1e-10


def test_spectrum_preservation_nonlinear_not_applicable(quad_field):
    h = square_map_1d()
    g = cf.transformed_system(quad_field, h)
    check = cf.verify_spectrum_preservation(quad_field, h, g, REGION, CFG)
    assert check.verdict == cf.NOT_APPLICABLE


def test_spectrum_preservation_singular_linear_map_not_applicable(quad_field):
    h = _collapse_map()
    g = make_field("zero", ["y"], {}, ["0"])
    check = cf.verify_spectrum_preservation(quad_field, h, g, REGION, CFG)
    assert check.verdict == cf.NOT_APPLICABLE
    assert "singular" in check.note


def test_spectrum_preservation_random_affine_2d():
    rng = random.Random(42)
    region = cf.AnalysisRegion.of((-2.5, 2.5), (-2.5, 2.5))
    cfg = cf.SolverConfig(seed_count=150)
    done = 0
    while done < 5:
        f = random_polynomial_field(rng, 2, degree=3)
        h = random_affine_map(rng, 2, region, max_cond=20.0)
        g = cf.transformed_system(f, h)
        check = cf.verify_spectrum_preservation(f, h, g, region, cfg)
        pairs = [r for r in check.details if r.spectrum_distance is not None]
        if not pairs:
            continue
        for r in pairs:
            assert r.spectrum_distance < 1e-6
            assert r.similarity_residual < 1e-7
        done += 1


def test_detect_new_points_square_map(quad_field):
    h = square_map_1d()
    g = cf.transformed_system(quad_field, h)
    check = cf.detect_new_points(quad_field, h, g, REGION, CFG)
    assert check.verdict == cf.NOT_APPLICABLE
    new_fixed = [r for r in check.details if r.kind == cf.FIXED]
    new_perp = [r for r in check.details if r.kind == cf.PERPETUAL]
    assert len(new_fixed) == 1 and abs(new_fixed[0].matched[0]) < 1e-8
    assert len(new_perp) == 1
    assert new_perp[0].matched[0] == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_detect_new_points_affine_none(affine_setup):
    f, h, g = affine_setup
    check = cf.detect_new_points(f, h, g, REGION, CFG)
    assert check.verdict == cf.HOLDS
    assert check.details == ()


def test_detect_new_points_identity_none(quad_field):
    h = identity_map(["x"], cf.AnalysisRegion.of((-5, 5)))
    g = cf.transformed_system(quad_field, h)
    check = cf.detect_new_points(quad_field, h, g, REGION, CFG)
    assert check.verdict == cf.HOLDS


def test_similarity_residual_implies_small_spectrum_distance():
    # whenever the similarity identity holds tightly, spectra must agree
    rng = random.Random(7)
    region = cf.AnalysisRegion.of((-2.5, 2.5), (-2.5, 2.5))
    f = random_polynomial_field(rng, 2, degree=2)
    h = random_affine_map(rng, 2, region, max_cond=5.0)
    g = cf.transformed_system(f, h)
    check = cf.verify_spectrum_preservation(f, h, g, region,
                                            cf.SolverConfig(seed_count=120))
    for r in check.details:
        if r.similarity_residual is not None and r.similarity_residual < 1e-8:
            assert r.spectrum_distance < 1e-6


def test_run_verification_affine_all_hold(quad_field):
    h = affine_map_1d(2.0, 5.0)
    report, g = cf.run_verification(quad_field, h, REGION)
    assert report.all_accepted
    assert {c.theorem_id for c in report.checks} == set(cf.THEOREM_IDS)
    for c in report.checks:
        assert c.verdict == cf.HOLDS
    assert report.declared_linear and report.diffeomorphic


def test_run_verification_square_advisory(quad_field):
    h = square_map_1d()
    report, g = cf.run_verification(quad_field, h, REGION)
    assert report.all_accepted
    assert report.check("t1").verdict == cf.HOLDS
    assert report.check("t2").verdict == cf.NOT_APPLICABLE
    assert report.check("t3").verdict == cf.NOT_APPLICABLE
    assert report.check("r1").verdict == cf.NOT_APPLICABLE
    assert report.check("flow").verdict == cf.HOLDS


def test_run_verification_selected_theorems(quad_field):
    h = affine_map_1d(1.0, 0.0)
    report, _ = cf.run_verification(quad_field, h, REGION, theorems=("t1", "t3"))
    assert {c.theorem_id for c in report.checks} == {"t1", "t3"}
    with pytest.raises(ValueError):
        cf.run_verification(quad_field, h, REGION, theorems=("bogus",))


# flow and spectra use tol, the similarity identities tol / 10; the
# match distance is 10 * dedup_tol, whatever tol is
@pytest.mark.parametrize("tol, tolerances", [
    ({}, {"flow": 1e-6, "spectrum": 1e-6, "similarity": 1e-7,
          "match": 9.999999999999999e-06}),
    ({"tol": 1e-5}, {"flow": 1e-5, "spectrum": 1e-5, "similarity": 1.0000000000000002e-06,
                     "match": 9.999999999999999e-06}),
], ids=["default", "1e-5"])
def test_run_verification_reports_its_tolerances(quad_field, tol, tolerances):
    report, _ = cf.run_verification(quad_field, affine_map_1d(2.0, 5.0), REGION,
                                    theorems=("t3",), **tol)
    assert report.tolerances == tolerances
    assert report.check("t3").tolerance == tolerances["spectrum"]


@pytest.mark.parametrize("theorems", [(), []])
def test_run_verification_without_theorems_raises(quad_field, theorems):
    # a report without checks would read all_accepted, verifying nothing
    with pytest.raises(ValueError, match="no theorem ids given"):
        cf.run_verification(quad_field, affine_map_1d(2.0, 5.0), REGION, theorems=theorems)


# ---------------------------------------------------------------------------
# Sharing contract: one search per (side, kind), one image region per map

def _counting_runs(monkeypatch, log=None, fail=False):
    """Replace the Newton run of critflow.points with a wrapper that
    appends one line per run to the file ``log``: the solved map's name,
    the seed and the calling process. A file, so that runs made in the
    forked worker count too. With ``fail`` any run raises."""
    run = critflow.points._newton

    def counted(fieldmap, seed, *args):
        if fail:
            raise AssertionError(f"a Newton run of {fieldmap.name} was rerun")
        with open(log, "a") as out:
            out.write(f"{fieldmap.name}\t{seed!r}\t{os.getpid()}\n")
        return run(fieldmap, seed, *args)
    monkeypatch.setattr(critflow.points, "_newton", counted)


def _logged_runs(log) -> list[tuple[str, str, int]]:
    """(solved map's name, seed, process id) of each run :func:`_counting_runs` logged."""
    lines = log.read_text().splitlines() if log.exists() else []
    return [(name, seed, int(pid)) for name, seed, pid in (line.split("\t") for line in lines)]


def _solved_maps(f, g) -> dict:
    """The name of each map verify's searches solve, by (side, kind)."""
    accel = critflow.fields.acceleration_map
    return {("f", cf.FIXED): f.name, ("f", cf.PERPETUAL): accel(f).name,
            ("g", cf.FIXED): g.name, ("g", cf.PERPETUAL): accel(g).name}


def _seeds_of_each_map(f, h, g, region, cfg=CFG) -> collections.Counter:
    """One (solved map's name, seed) pair per run of run_verification's four searches."""
    regions = {"f": region.intersect(h.domain), "g": cf.image_region(h)}
    return collections.Counter(
        (name, repr(seed)) for (side, _), name in _solved_maps(f, g).items()
        for seed in cf.lattice_points(regions[side], cfg.seed_count, cfg.rng_seed).tolist())


def test_run_verification_runs_each_search_once(quad_field, monkeypatch, tmp_path):
    h = affine_map_1d(2.0, 5.0)
    log = tmp_path / "runs"
    _counting_runs(monkeypatch, log)
    report, g = cf.run_verification(quad_field, h, REGION)
    assert report.all_accepted
    # every seed of each of the four searches runs once, and nothing more
    runs = collections.Counter((name, seed) for name, seed, _ in _logged_runs(log))
    assert runs == _seeds_of_each_map(quad_field, h, g, REGION)
    assert set(runs.values()) == {1}


def test_image_region_is_computed_once_per_map(monkeypatch):
    h = affine_map_1d(2.0, 5.0)
    samples = []
    original = critflow.fields.lattice_points
    monkeypatch.setattr(critflow.fields, "lattice_points",
                        lambda *args, **kw: samples.append(args) or original(*args, **kw))
    first = cf.image_region(h)
    assert cf.image_region(h) is first
    assert len(samples) == 1
    assert first.bounds[0] == pytest.approx((-15.8, 25.8))  # 2x + 5 on [-10, 10], 2 % pad
    # a second map with the same sources has its own region
    assert cf.image_region(affine_map_1d(2.0, 5.0)) is not first


def _four_searches(f, h, g, region, cfg=CFG):
    """The (side, kind) searches that run_verification would hand the checks."""
    f_region, g_region = region.intersect(h.domain), cf.image_region(h)
    return {(side, kind): search(fld, sub, cfg)
            for side, fld, sub in (("f", f, f_region), ("g", g, g_region))
            for kind, search in ((cf.FIXED, cf.fixed_point_search),
                                 (cf.PERPETUAL, cf.perpetual_point_search))}


def _coordinate_swap(region):
    """(x1, x2) -> (x2, x1), declared linear, with its inverse."""
    comps = [cf.parse_expression(s, {"x1", "x2"}) for s in ("x2", "x1")]
    invs = [cf.parse_expression(s, {"y1", "y2"}) for s in ("y2", "y1")]
    return cf.TransformationMap("swap", ["x1", "x2"], {}, comps, region, True,
                                inverse=cf.VectorMap("swap_inv", ("y1", "y2"), {}, invs))


@pytest.mark.parametrize("case", ["n1", "n2", "n3", "square", "swap"])
def test_run_verification_checks_equal_the_public_entries(quad_field, case):
    if case == "square":
        f, h, region = quad_field, square_map_1d(), REGION
    elif case == "swap":
        f, _, region = _builder_case(2, 1)
        h = _coordinate_swap(region)
    else:
        f, h, region = _builder_case(int(case[1]), 1)
    report, g = cf.run_verification(f, h, region)
    searches = _four_searches(f, h, g, region)
    entries = {"t1": cf.verify_point_mapping(f, h, g, region, CFG, cf.FIXED, searches),
               "t2": cf.verify_point_mapping(f, h, g, region, CFG, cf.PERPETUAL, searches),
               "t3": cf.verify_spectrum_preservation(f, h, g, region, CFG, 1e-6, searches),
               "r1": cf.detect_new_points(f, h, g, region, CFG, searches)}
    for tid, check in entries.items():
        assert report.check(tid) == check, tid


@pytest.mark.parametrize("theorems, built", [(cf.THEOREM_IDS, 2), (("t1",), 1), (("flow",), 0)],
                         ids=["default", "t1", "flow"])
def test_run_verification_builds_one_matching_per_kind_searched(quad_field, monkeypatch,
                                                                 theorems, built):
    calls = []
    matching = critflow.conjugacy._matching
    monkeypatch.setattr(critflow.conjugacy, "_matching",
                        lambda *args: calls.append(args) or matching(*args))

    def searched(*args):
        raise AssertionError("a check ran a search")
    for name in ("fixed_point_search", "perpetual_point_search"):
        monkeypatch.setattr(critflow.conjugacy, name, searched)
    report, _ = cf.run_verification(quad_field, affine_map_1d(2.0, 5.0), REGION,
                                    theorems=theorems)
    assert report.all_accepted
    assert len(calls) == built


def test_spectrum_check_reuses_supplied_searches_and_adds_no_keys(affine_setup, monkeypatch):
    f, h, g = affine_setup
    searches = _four_searches(f, h, g, REGION)
    supplied = dict(searches)
    _counting_runs(monkeypatch, fail=True)
    check = cf.verify_spectrum_preservation(f, h, g, REGION, CFG, searches=searches)
    assert check.verdict == cf.HOLDS
    assert searches.keys() == supplied.keys()
    assert all(searches[k] is supplied[k] for k in supplied)
    # the other point checks share the same mapping without rerunning
    assert cf.verify_point_mapping(f, h, g, REGION, CFG, cf.FIXED, searches).verdict == cf.HOLDS
    assert cf.detect_new_points(f, h, g, REGION, CFG, searches).verdict == cf.HOLDS
    assert searches.keys() == supplied.keys()


def test_spectrum_check_reads_the_searches_jacobians_and_spectra(quad_field, monkeypatch):
    cases = [(quad_field, affine_map_1d(2.0, 5.0), REGION), _builder_case(2, 1),
             _builder_case(3, 1)]
    runs = []
    for f, h, region in cases:
        g = cf.transformed_system(f, h)
        searches = _four_searches(f, h, g, region)
        check = cf.verify_spectrum_preservation(f, h, g, region, CFG, searches=searches)
        pairs = [r for r in check.details if r.spectrum_distance is not None]
        assert pairs and len(pairs) == len(check.details)
        # the same floats as evaluating each pair's Jacobians and spectra again
        linear = h.linear_part
        for r in pairs:
            src, dst = (f, g) if r.kind == cf.FIXED else map(critflow.fields.acceleration_map,
                                                             (f, g))
            j_src, j_dst = src.jacobian(np.array(r.source)), dst.jacobian(np.array(r.matched))
            assert r.spectrum_distance == cf.spectrum_distance(cf.eigenvalues(j_src),
                                                               cf.eigenvalues(j_dst))
            assert r.similarity_residual == critflow.conjugacy._similarity(
                linear.matrix, linear.inverse, j_src, j_dst)
        runs.append((f, h, g, region, searches, check))
    assert {r.kind for *_, check in runs for r in check.details} == {cf.FIXED, cf.PERPETUAL}

    def evaluated(*args, **kwargs):
        raise AssertionError("a Jacobian or a spectrum was evaluated")

    for cls in (cf.VectorMap, critflow.fields.AffineConjugateField,
                critflow.fields.JetAccelerationMap):
        monkeypatch.setattr(cls, "jacobian", evaluated)
    for module in (critflow.linalg, critflow.points, critflow.conjugacy):
        monkeypatch.setattr(module, "eigenvalues", evaluated, raising=False)
    for f, h, g, region, searches, check in runs:
        assert cf.verify_spectrum_preservation(f, h, g, region, CFG,
                                               searches=searches) == check

    # a point without a spectrum fails its pair with that point's note
    f, h, g, region, searches, check = runs[0]
    search = searches["g", cf.FIXED]
    target = check.details[0].matched
    search.points = [replace(q, spectrum=None, jacobian=None, note="why not")
                     if tuple(q.location) == target else q for q in search.points]
    broken = cf.verify_spectrum_preservation(f, h, g, region, CFG, searches=searches)
    assert broken.verdict == cf.FAILS
    assert broken.details[0] == replace(check.details[0], spectrum_distance=None,
                                        similarity_residual=None,
                                        note="spectra not evaluable: why not")
    assert broken.details[1:] == check.details[1:]


def test_a_fixed_point_on_a_domain_wall_decides_no_spectrum_verdict():
    # 2 sqrt(x) (x - A^2) on [0, 3] under y = 2x + 5: the fixed point x = 0
    # sits on the wall of sqrt, where neither Df nor Dg is evaluable
    f = make_field("wall", ["x"], {"A": 1.0}, ["2*sqrt(x)*(x - A^2)"])
    h, region = affine_map_1d(2.0, 5.0), cf.AnalysisRegion.of((0.0, 3.0))
    report, g = cf.run_verification(f, h, region)
    assert_no_child_process()
    check = report.check("t3")
    assert check.verdict == cf.HOLDS and report.all_accepted
    wall = [r for r in check.details if r.source == (0.0,)]
    assert [(r.matched, r.spectrum_distance, r.note) for r in wall] == [
        ((5.0,), None, "spectra not evaluable: field Jacobian not evaluable at this point")]
    compared = [r for r in check.details if r.spectrum_distance is not None]
    assert len(compared) == 2 and check.worst_residual <= 1e-14
    # with the wall pair alone, nothing is compared
    searches = _four_searches(f, h, g, region)
    for key, search in searches.items():
        search.points = [p for p in search.points if p.jacobian is None]
    alone = cf.verify_spectrum_preservation(f, h, g, region, CFG, searches=searches)
    assert alone.verdict == cf.NOT_APPLICABLE and alone.worst_residual is None
    assert alone.details == tuple(wall) and "no matched pair" in alone.note


def test_run_verification_compiles_each_kernel_once_in_this_process(monkeypatch, tmp_path):
    # the searches' kernels are built before the fork, so the worker that
    # shares their seeds compiles none of its own
    monkeypatch.setattr(critflow.worker, "_usable_cpus", lambda: 2)
    log, runs = tmp_path / "compiled", tmp_path / "runs"
    _counting_runs(monkeypatch, runs)
    compile_kernel = critflow.fields.compile_kernel

    def logged(exprs, arg_names):
        with open(log, "a") as out:
            out.write(f"{os.getpid()}\t{[cf.to_source(e) for e in exprs]}{list(arg_names)}\n")
        return compile_kernel(exprs, arg_names)
    monkeypatch.setattr(critflow.fields, "compile_kernel", logged)
    f, h, region = _builder_case(3, 1)
    report, g = cf.run_verification(f, h, region)
    assert_no_child_process()
    assert {r.kind for r in report.check("t3").details
            if r.spectrum_distance is not None} == {cf.FIXED, cf.PERPETUAL}
    here = os.getpid()
    assert {pid for _, _, pid in _logged_runs(runs)} > {here}  # the worker ran seeds
    compiled = [line.split("\t") for line in log.read_text().splitlines()]
    assert {int(pid) for pid, _ in compiled} == {here}
    kernels = collections.Counter(kernel for _, kernel in compiled)
    assert len(kernels) >= 4 and set(kernels.values()) == {1}


# ---------------------------------------------------------------------------
# Linear part of a declared-linear map

def test_linear_part_matches_numpy_inverse_on_random_affine_maps():
    rng = random.Random(11)
    for n in (1, 2, 3, 4):
        region = cf.AnalysisRegion.of(*[(-2.5, 2.5)] * n)
        for _ in range(5):
            h = random_affine_map(rng, n, region, max_cond=50.0)
            linear = h.linear_part
            assert h.linear_part is linear
            points = [np.array([rng.uniform(-2.5, 2.5) for _ in range(n)]) for _ in range(4)]
            for x in points:
                assert np.allclose(linear.matrix @ x + linear.offset, h.value(x),
                                   rtol=1e-13, atol=1e-13)
                assert np.array_equal(linear.matrix, h.jacobian(x))
            oracle = np.linalg.inv(linear.matrix)
            assert np.allclose(linear.inverse, oracle, rtol=1e-12, atol=1e-12)
            assert np.allclose(linear.inverse @ linear.matrix, np.eye(n), atol=1e-12)


def test_linear_part_absent_for_nonlinear_map():
    assert square_map_1d().linear_part is None


def _collapse_map():
    comp = cf.parse_expression("0 * x", {"x"})
    return cf.TransformationMap("collapse", ["x"], {}, [comp],
                                cf.AnalysisRegion.of((-3, 3)), True,
                                inverse=cf.VectorMap("noinv", ["y"], {},
                                                     [cf.parse_expression("y", {"y"})]))


def test_collapse_map_has_no_inverse_and_never_fails(quad_field):
    h = _collapse_map()
    assert h.linear_part.inverse is None
    assert h.linear_part.matrix.tolist() == [[0.0]]
    check = cf.verify_spectrum_preservation(quad_field, h, make_field("zero", ["y"], {}, ["0"]),
                                            REGION, CFG)
    assert check.verdict == cf.NOT_APPLICABLE
    # g's points have no preimage under a map that is not invertible: advisory
    for src in ("0", "y - 1", "y^2 - 4"):
        g = make_field("target", ["y"], {}, [src])
        r1 = cf.detect_new_points(quad_field, h, g, REGION, CFG)
        assert r1.verdict != cf.FAILS


def test_tiny_linear_map_counts_as_singular(quad_field):
    # ||A|| < 1 with its pivot in (1e-13 ||A||, 1e-13]: singular by the one
    # rule, so there is no composed transformed system and t3 does not apply
    comp = cf.parse_expression("1e-14 * x", {"x"})
    h = cf.TransformationMap("tiny", ["x"], {}, [comp], cf.AnalysisRegion.of((-3, 3)), True,
                             inverse=cf.VectorMap("tiny_inv", ["y"], {},
                                                  [cf.parse_expression("1e14 * y", {"y"})]))
    assert h.linear_part.inverse is None
    g = cf.transformed_system(quad_field, h)
    assert not isinstance(g, critflow.fields.AffineConjugateField)
    check = cf.verify_spectrum_preservation(quad_field, h, g, REGION, CFG)
    assert check.verdict == cf.NOT_APPLICABLE and "singular" in check.note


# ---------------------------------------------------------------------------
# The seed queue: verify's searches on two CPUs, the same results

def _without_worker(monkeypatch):
    monkeypatch.setattr(critflow.worker, "_usable_cpus", lambda: 1)


@pytest.mark.parametrize("n, seed", [(2, 1), (3, 1), (4, 1)])
def test_reports_are_the_same_with_and_without_the_worker(n, seed, monkeypatch, tmp_path):
    log = tmp_path / "runs"
    _counting_runs(monkeypatch, log)
    f, h, region = _builder_case(n, seed)
    monkeypatch.setattr(critflow.worker, "_usable_cpus", lambda: 2)
    report, g = cf.run_verification(f, h, region)
    assert_no_child_process()
    # every (search, seed) pair runs once, in one process or the other
    want = _seeds_of_each_map(f, h, g, region)
    here, runs = os.getpid(), _logged_runs(log)
    assert collections.Counter((name, seed) for name, seed, _ in runs) == want
    assert set(want.values()) == {1}
    pids = {pid for _, _, pid in runs}
    assert len(pids) <= 2
    if n >= 3:  # long enough that both processes take blocks
        assert here in pids and len(pids) == 2
    log.unlink()
    _without_worker(monkeypatch)
    assert not critflow.worker._worker_usable()
    in_process, _ = cf.run_verification(*_builder_case(n, seed))
    assert repr(report) == repr(in_process)
    runs = _logged_runs(log)
    assert collections.Counter((name, seed) for name, seed, _ in runs) == want
    assert {pid for _, _, pid in runs} == {here}


def test_a_queue_of_blocks_across_searches_gives_the_same_report(monkeypatch):
    # ten slots for four searches of 125 seeds: blocks of 72 seeds, two
    # entries per search, the second ending early at its search's last seed
    case = _builder_case(3, 1)
    _without_worker(monkeypatch)
    in_process, _ = cf.run_verification(*case)
    monkeypatch.setattr(critflow.worker, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(critflow.points, "_QUEUE_SLOTS", 10)
    assert repr(cf.run_verification(*case)[0]) == repr(in_process)
    assert_no_child_process()


@pytest.mark.parametrize("map_file", ["affine_map.json", "square_map.json"])
def test_cli_verify_writes_the_same_bytes_with_and_without_the_worker(map_file, monkeypatch,
                                                                     tmp_path):
    outs = []
    for label in ("worker", "in-process"):
        if label == "in-process":
            _without_worker(monkeypatch)
        out = tmp_path / f"{label}.json"
        assert main(["verify", str(DATA / "example1.json"), str(DATA / map_file),
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert_no_child_process()


def _failing_searches(monkeypatch, failures: dict):
    """Make the searches and the flow-point selection of critflow.conjugacy
    raise: ``failures`` maps (side, kind) or "flow" to the error, which
    every Newton run of that search raises, in this process and in the
    forked worker. g's maps are told from f's by their ``_via_`` name."""
    run = critflow.points._newton

    def failing(fieldmap, *args):
        side = "g" if "_via_" in fieldmap.name else "f"
        kind = cf.PERPETUAL if fieldmap.name.endswith("_accel") else cf.FIXED
        if (side, kind) in failures:
            raise failures[side, kind]
        return run(fieldmap, *args)
    monkeypatch.setattr(critflow.points, "_newton", failing)
    if "flow" in failures:
        def failing_flow(*args):
            raise failures["flow"]
        monkeypatch.setattr(critflow.conjugacy, "select_flow_points", failing_flow)


_ERRORS = [RecursionError("maximum recursion depth exceeded"),
           cf.DomainError("map affine not evaluable anywhere on its domain"),
           cf.EigenConvergenceError(np.eye(3))]


@pytest.mark.parametrize("worker", [True, False], ids=["worker", "in-process"])
@pytest.mark.parametrize("side", ["f", "g"])
@pytest.mark.parametrize("error", _ERRORS, ids=lambda e: type(e).__name__)
def test_search_errors_reach_the_caller_and_leave_no_process(quad_field, monkeypatch,
                                                             error, side, worker):
    if not worker:
        _without_worker(monkeypatch)
    _failing_searches(monkeypatch, {(side, cf.FIXED): error})
    with pytest.raises(type(error)) as caught:
        cf.run_verification(quad_field, affine_map_1d(2.0, 5.0), REGION)
    assert type(caught.value) is type(error) and str(caught.value) == str(error)
    assert_no_child_process()


def test_an_interrupt_in_f_search_leaves_no_process(quad_field, monkeypatch):
    _failing_searches(monkeypatch, {("f", cf.PERPETUAL): KeyboardInterrupt()})
    with pytest.raises(KeyboardInterrupt):
        cf.run_verification(quad_field, affine_map_1d(2.0, 5.0), REGION)
    assert_no_child_process()


def test_a_worker_that_ends_without_results_is_redone_here_and_leaves_no_process(
        quad_field, monkeypatch, tmp_path):
    # the worker ends at its call of the seed loop and sends nothing: this
    # process runs every seed again and gives the in-process report
    monkeypatch.setattr(critflow.worker, "_usable_cpus", lambda: 2)
    here, seed_loop, ended = os.getpid(), critflow.points._runs, tmp_path / "ended"

    def ending_in_the_child(*args):
        if os.getpid() != here:
            ended.touch()
            os._exit(1)
        return seed_loop(*args)
    monkeypatch.setattr(critflow.points, "_runs", ending_in_the_child)
    report, _ = cf.run_verification(quad_field, affine_map_1d(2.0, 5.0), REGION)
    assert_no_child_process()
    assert ended.exists()
    _without_worker(monkeypatch)
    in_process, _ = cf.run_verification(quad_field, affine_map_1d(2.0, 5.0), REGION)
    assert repr(report) == repr(in_process)


# the first error in the order flow, f fixed, f perpetual, g fixed, g
# perpetual is raised, with and without the worker: a failing run of any
# search sends all four through the serial loop, in that order
@pytest.mark.parametrize("worker", [True, False], ids=["worker", "in-process"])
@pytest.mark.parametrize("steps, first", [
    (["flow", ("g", cf.FIXED)], "flow"),
    ([("f", cf.FIXED), ("g", cf.FIXED)], ("f", cf.FIXED)),
    ([("f", cf.PERPETUAL), ("g", cf.FIXED)], ("f", cf.PERPETUAL)),
    ([("f", cf.FIXED), ("g", cf.PERPETUAL)], ("f", cf.FIXED)),
    ([("f", cf.PERPETUAL), ("g", cf.PERPETUAL)], ("f", cf.PERPETUAL)),
    ([("g", cf.FIXED), ("g", cf.PERPETUAL)], ("g", cf.FIXED)),
])
def test_the_first_error_of_a_serial_run_is_raised(quad_field, monkeypatch, steps, first, worker):
    if not worker:
        _without_worker(monkeypatch)
    _failing_searches(monkeypatch, {step: cf.DomainError(repr(step)) for step in steps})
    with pytest.raises(cf.DomainError) as caught:
        cf.run_verification(quad_field, affine_map_1d(2.0, 5.0), REGION)
    assert str(caught.value) == repr(first)
    assert_no_child_process()


@pytest.mark.parametrize("worker", [True, False], ids=["worker", "in-process"])
def test_an_image_region_error_is_raised_only_after_f_searches_succeed(quad_field, monkeypatch,
                                                                       worker):
    if not worker:
        _without_worker(monkeypatch)

    def failing_image_region(h):
        raise cf.DomainError("image region")
    monkeypatch.setattr(critflow.conjugacy, "image_region", failing_image_region)
    h = affine_map_1d(2.0, 5.0)
    with pytest.raises(cf.DomainError) as caught:
        cf.run_verification(quad_field, h, REGION)
    assert str(caught.value) == "image region"
    assert_no_child_process()
    _failing_searches(monkeypatch, {("f", cf.FIXED): cf.DomainError("f fixed")})
    with pytest.raises(cf.DomainError) as caught:
        cf.run_verification(quad_field, h, REGION)
    assert str(caught.value) == "f fixed"
    assert_no_child_process()


def test_cli_exits_2_on_a_recursion_error_in_g_search(monkeypatch, capsys):
    _failing_searches(monkeypatch, {("g", cf.FIXED): RecursionError("maximum recursion depth")})
    assert main(["verify", str(DATA / "example1.json"), str(DATA / "affine_map.json")]) == 2
    assert capsys.readouterr().err == "error: an input is nested too deeply to process\n"
    assert_no_child_process()
