import itertools
import json
import math
import os
import random
from pathlib import Path

import numpy as np
import pytest

import critflow as cf
import critflow.cli
import critflow.fields
import critflow.worker
from critflow.cli import main
from critflow.io import (InputError, canonical_json, format_float, grid_axis, load_map,
                         load_system, point_search_records, write_grid_csv,
                         write_trajectory_csv)

from conftest import assert_no_child_process, random_affine_map, random_polynomial_field

DATA = Path(__file__).parent / "data"


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# Loading and validation

def test_load_system_roundtrip():
    loaded = load_system(DATA / "example1.json")
    assert loaded.field.name == "quadratic_well"
    assert loaded.field.input_names == ("x",)
    assert loaded.region.bounds == ((-3.0, 3.0),)
    assert len(loaded.sha256) == 64


def test_load_map_linear_flag_verified(tmp_path):
    loaded = load_map(DATA / "affine_map.json", load_system(DATA / "example1.json").field)
    assert loaded.map.declared_linear
    bad = tmp_path / "bad_map.json"
    bad.write_text(json.dumps({"map": ["x^2"], "domain": [[0, 3]], "linear": True}))
    with pytest.raises(InputError, match="Hessian"):
        load_map(bad, load_system(DATA / "example1.json").field)


@pytest.mark.parametrize("mutation, fragment", [
    ({"extra_key": 1}, "unknown keys"),
    ({"field": ["x", "x"]}, "entries"),
    ({"field": ["x +"]}, r"field\[0\]"),
    ({"field": ["x - B"]}, "unknown identifier"),
    ({"state": ["x", "x"], "field": ["x", "x"]}, "distinct"),
    ({"params": {"A": "one"}}, "numbers"),
    ({"region": [[3, -3]]}, "region"),
])
def test_load_system_validation_errors(tmp_path, mutation, fragment):
    doc = read_json(DATA / "example1.json")
    doc.update(mutation)
    p = tmp_path / "sys.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(InputError, match=fragment):
        load_system(p)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
                         ids=["nan", "inf", "-inf", "1e400", "400-digits"])
@pytest.mark.parametrize("role, where", [
    ("system", ("params", "A")), ("system", ("region", 0, 1)),
    ("map", ("params", "beta")), ("map", ("domain", 0, 0)),
], ids=["system-params", "system-region", "map-params", "map-domain"])
def test_cli_rejects_numbers_that_are_not_finite_floats(tmp_path, capsys, role, where, token):
    # Python's json reads these tokens, though they are not JSON numbers
    files = {"system": DATA / "example1.json", "map": DATA / "affine_map.json"}
    doc = read_json(files[role])
    parent = doc
    for step in where[:-1]:
        parent = parent[step]
    parent[where[-1]] = "@"
    files[role] = tmp_path / f"{role}.json"
    files[role].write_text(json.dumps(doc).replace('"@"', token))
    assert run_cli("transform", files["system"], files["map"], "--out", tmp_path / "out") == 2
    if where[0] == "params":
        detail = f"params must map names to finite numbers (bad entry {where[1]!r})"
    else:
        detail = f"'{where[0]}' bounds must be finite numbers"
    assert capsys.readouterr().err == f"error: {files[role]}: {detail}\n"
    assert not (tmp_path / "out").exists()


def test_cli_rejects_integers_of_more_digits_than_python_converts(tmp_path, capsys):
    # json.loads raises a plain ValueError here, not a JSONDecodeError
    p = tmp_path / "system.json"
    p.write_text((DATA / "example1.json").read_text().replace('"A": 1.0', '"A": ' + "9" * 5000))
    assert run_cli("analyze", p) == 2
    assert capsys.readouterr().err.startswith(f"error: {p}: ")


@pytest.mark.parametrize("text, detail", [
    ("[" * 200_000 + "]" * 200_000, "not valid JSON: nested too deeply"),
    # nested past the expression parser's recursion
    (json.dumps({**read_json(DATA / "example1.json"), "field": ["(" * 900 + "x" + ")" * 900]}),
     "field[0]: expression nested too deeply (offset 0)"),
    # parses, but nests deeper than the tree walks reach
    (json.dumps({**read_json(DATA / "example1.json"), "field": ["+".join(["x"] * 1200)]}),
     "field[0]: expression nested too deeply"),
], ids=["json-arrays", "parentheses", "flat-sum"])
def test_cli_rejects_inputs_nested_too_deeply(tmp_path, capsys, text, detail):
    p = tmp_path / "system.json"
    p.write_text(text)
    assert run_cli("analyze", p) == 2
    assert capsys.readouterr().err == f"error: {p}: {detail}\n"


# the deepest field of each shape that loading accepts: a flat sum counts
# 1 per term, a product 3 per factor, a quotient 6 and a square root 7
@pytest.mark.parametrize("deepest, one_more", [
    ("+".join(["x"] * 600), "+".join(["x"] * 601)),
    ("*".join(["x"] * 200), "*".join(["x"] * 201)),
    ("x/(" * 99 + "x" + ")" * 99, "x/(" * 100 + "x" + ")" * 100),
    ("sqrt(" * 85 + "x" + ")" * 85, "sqrt(" * 86 + "x" + ")" * 86),
], ids=["sum", "product", "quotient", "sqrt"])
def test_cli_analyze_runs_the_deepest_accepted_field(tmp_path, capsys, deepest, one_more):
    doc = {**read_json(DATA / "example1.json"), "region": [[0.5, 1.5]]}
    p = tmp_path / "system.json"
    p.write_text(json.dumps({**doc, "field": [one_more]}))
    assert run_cli("analyze", p) == 2
    assert capsys.readouterr().err == f"error: {p}: field[0]: expression nested too deeply\n"
    p.write_text(json.dumps({**doc, "field": [deepest]}))
    assert run_cli("analyze", p, "--out", tmp_path / "report.json") == 0
    assert capsys.readouterr().err == ""
    report = read_json(tmp_path / "report.json")
    assert len(report["system"]["acceleration_field"]) == 1


def test_load_map_rejects_inverses_nested_too_deeply(tmp_path):
    system = load_system(DATA / "example1.json").field
    doc = read_json(DATA / "affine_map.json")
    doc["inverse"] = ["+".join(["(y - beta)/alpha"] * 600)]
    p = tmp_path / "map.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(InputError, match=r"inverse\[0\]: expression nested too deeply$"):
        load_map(p, system)


def test_load_system_missing_key(tmp_path):
    doc = read_json(DATA / "example1.json")
    del doc["field"]
    p = tmp_path / "sys.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(InputError, match="missing keys"):
        load_system(p)


def test_load_map_validation(tmp_path):
    system = load_system(DATA / "example1.json").field
    doc = read_json(DATA / "affine_map.json")
    doc["map"] = ["alpha*x + beta", "x"]
    p = tmp_path / "map.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(InputError, match="components"):
        load_map(p, system)
    p.write_text("not json {")
    with pytest.raises(InputError, match="JSON"):
        load_map(p, system)


# ---------------------------------------------------------------------------
# analyze

def test_cli_analyze_report_values(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli("analyze", DATA / "example1.json", "--out", out)
    assert code == 0
    doc = read_json(out)
    fixed = doc["fixed_points"]["points"]
    assert [p["location"][0] for p in fixed] == pytest.approx([-1.0, 1.0], abs=1e-10)
    assert fixed[0]["spectrum"][0][0] == pytest.approx(-2.0, abs=1e-10)
    perp = doc["perpetual_points"]["points"]
    assert len(perp) == 1
    assert perp[0]["location"][0] == pytest.approx(0.0, abs=1e-10)
    assert perp[0]["velocity"][0] == pytest.approx(-1.0, abs=1e-10)
    assert doc["tool"]["name"] == "critflow"
    assert doc["inputs"][0]["sha256"]


def test_cli_analyze_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("analyze", DATA / "planar.json", "--out", a) == 0
    assert run_cli("analyze", DATA / "planar.json", "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_analyze_builds_the_acceleration_field_once(tmp_path, monkeypatch):
    # the perpetual search and the report's "acceleration_field" share it
    built = []
    original = critflow.fields.acceleration_field

    def counted(field):
        built.append(field.name)
        return original(field)
    monkeypatch.setattr(critflow.fields, "acceleration_field", counted)
    monkeypatch.setattr(critflow.cli, "acceleration_field", counted)
    assert run_cli("analyze", DATA / "planar.json", "--out", tmp_path / "a.json") == 0
    assert built == ["planar_saddlefree"]


def test_cli_analyze_region_and_format_flags(tmp_path, capsys):
    assert run_cli("analyze", DATA / "example1.json", "--region=-2:2",
                   "--format", "csv") == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "kind,x,residual,speed,degenerate,boundary,eigenvalues,note"
    assert any(line.startswith("perpetual,") for line in lines)


def test_cli_analyze_nilpotent_degenerate_warning(tmp_path):
    out = tmp_path / "nil.json"
    assert run_cli("analyze", DATA / "nilpotent.json", "--out", out) == 0
    doc = read_json(out)
    assert doc["perpetual_points"]["points"] == []
    assert doc["perpetual_points"]["degenerate_points"]
    assert any("degenerate continuum" in w
               for w in doc["perpetual_points"]["warnings"])


def test_cli_analyze_input_errors(tmp_path):
    assert run_cli("analyze", tmp_path / "missing.json") == 2
    nofile = tmp_path / "bad.json"
    nofile.write_text("{}")
    assert run_cli("analyze", nofile) == 2
    # no region in file and no flag
    doc = read_json(DATA / "example1.json")
    del doc["region"]
    p = tmp_path / "noregion.json"
    p.write_text(json.dumps(doc))
    assert run_cli("analyze", p) == 2
    assert run_cli("analyze", p, "--region", "0:1") == 0
    assert run_cli("analyze", p, "--region", "0:1,0:1") == 2
    # the velocity floor must be finite and positive
    for floor in ("nan", "inf", "-1"):
        assert run_cli("analyze", DATA / "example1.json", "--eps-v", floor) == 2


# ---------------------------------------------------------------------------
# transform

def test_cli_transform_roundtrip(tmp_path):
    report = tmp_path / "report.json"
    gfile = tmp_path / "g.json"
    assert run_cli("transform", DATA / "example1.json", DATA / "affine_map.json",
                   "--out", report, "--out-system", gfile) == 0
    doc = read_json(report)
    fps = sorted(p["location"][0] for p in doc["fixed_points"]["points"])
    assert fps == pytest.approx([3.0, 7.0], abs=1e-8)
    pps = [p["location"][0] for p in doc["perpetual_points"]["points"]]
    assert pps == pytest.approx([5.0], abs=1e-8)

    # the emitted file must reanalyze to the same mapped points
    re_report = tmp_path / "re.json"
    assert run_cli("analyze", gfile, "--out", re_report) == 0
    redoc = read_json(re_report)
    refps = sorted(p["location"][0] for p in redoc["fixed_points"]["points"])
    assert refps == pytest.approx([3.0, 7.0], abs=1e-8)
    assert redoc["fixed_points"]["points"][0]["spectrum"][0][0] == pytest.approx(-2.0, abs=1e-8)


def test_cli_transform_identity_preserves_field(tmp_path):
    ident = tmp_path / "identity.json"
    ident.write_text(json.dumps({
        "map": ["x"], "inverse": ["y"], "params": {},
        "domain": [[-5, 5]], "linear": True}))
    gfile = tmp_path / "g.json"
    assert run_cli("transform", DATA / "example1.json", ident,
                   "--out", tmp_path / "r.json", "--out-system", gfile) == 0
    gdoc = read_json(gfile)
    assert gdoc["field"] == ["y ^ 2.0 - A ^ 2.0"]


def test_cli_transform_square_map(tmp_path):
    gfile = tmp_path / "g.json"
    assert run_cli("transform", DATA / "example1.json", DATA / "square_map.json",
                   "--out", tmp_path / "r.json", "--out-system", gfile) == 0
    g = load_system(gfile).field
    for y in (0.25, 1.0, 2.25):
        assert g.value([y])[0] == pytest.approx(2 * math.sqrt(y) * (y - 1), rel=1e-12)


def test_cli_transform_finds_the_perpetual_points_verify_finds(tmp_path):
    # a 2-D random cubic under a random affine map (random.Random(1)): the
    # report lists, bit for bit, the perpetual points of the transformed
    # system that verify builds from the same files
    rng = random.Random(1)
    region = cf.AnalysisRegion.of((-2.5, 2.5), (-2.5, 2.5))
    f = random_polynomial_field(rng, 2)
    h = random_affine_map(rng, 2, region)
    sysf, mapf, out = tmp_path / "system.json", tmp_path / "map.json", tmp_path / "r.json"
    sysf.write_text(json.dumps({"name": "poly", "state": list(f.input_names), "params": {},
                                "field": list(f.source_strings())}))
    mapf.write_text(json.dumps({"map": list(h.source_strings()),
                                "inverse": list(h.inverse.source_strings()), "params": {},
                                "domain": [list(b) for b in region.bounds], "linear": True}))
    assert run_cli("transform", sysf, mapf, "--out", out) == 0
    field = load_system(sysf).field
    tmap = load_map(mapf, field).map
    search = cf.perpetual_point_search(cf.transformed_system(field, tmap),
                                       cf.image_region(tmap), cf.SolverConfig())
    assert len(search.points) == 2
    want = json.loads(canonical_json(point_search_records(search)))
    assert read_json(out)["perpetual_points"] == want


def test_cli_transform_requires_inverse(tmp_path):
    noinv = tmp_path / "noinv.json"
    doc = read_json(DATA / "square_map.json")
    del doc["inverse"]
    noinv.write_text(json.dumps(doc))
    assert run_cli("transform", DATA / "example1.json", noinv) == 2


# ---------------------------------------------------------------------------
# verify

def test_cli_verify_affine_all_hold(tmp_path):
    out = tmp_path / "verify.json"
    code = run_cli("verify", DATA / "example1.json", DATA / "affine_map.json",
                   "--out", out)
    assert code == 0
    doc = read_json(out)
    verdicts = {c["theorem"]: c["verdict"] for c in doc["checks"]}
    assert verdicts == {t: "holds" for t in ("flow", "t1", "t2", "t3", "r1")}
    assert doc["all_accepted"] is True
    assert doc["map"]["linear"] and doc["map"]["diffeomorphic"]


def test_cli_verify_square_map_advisories(tmp_path):
    out = tmp_path / "verify.json"
    code = run_cli("verify", DATA / "example1.json", DATA / "square_map.json",
                   "--out", out)
    assert code == 0
    doc = read_json(out)
    verdicts = {c["theorem"]: c["verdict"] for c in doc["checks"]}
    assert verdicts["t1"] == "holds"
    assert verdicts["t2"] == "not-applicable"
    assert verdicts["t3"] == "not-applicable"
    assert verdicts["r1"] == "not-applicable"
    r1 = next(c for c in doc["checks"] if c["theorem"] == "r1")
    new_points = {(d["kind"], round(d["matched"][0], 6)) for d in r1["details"]}
    assert ("fixed", 0.0) in new_points
    assert ("perpetual", round(1 / 3, 6)) in new_points


def test_cli_verify_exit_one_on_failure(tmp_path):
    # absurdly tight tolerance turns integrator noise into a failing verdict
    code = run_cli("verify", DATA / "example1.json", DATA / "affine_map.json",
                   "--tol", "1e-18", "--theorems", "flow")
    assert code == 1


@pytest.mark.parametrize("flags", [
    ["--tol", "nan"], ["--tol", "-1"], ["--tol", "inf"], ["--T", "nan"], ["--T", "0"],
    ["--T", "-1"]])
def test_cli_verify_rejects_bad_tolerances(flags, capsys):
    assert run_cli("verify", DATA / "example1.json", DATA / "affine_map.json", *flags) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("source, inverse", [
    # the Hessian check meets sqrt's domain wall
    ("sqrt(x)", "y^2"),
    # passes the Hessian check, but is not evaluable at the domain centre
    ("2*x + 0*(1/x)", "y/2")])
def test_cli_verify_rejects_declared_linear_map_off_its_domain(tmp_path, capsys, source, inverse):
    mapf = tmp_path / "map.json"
    mapf.write_text(json.dumps({"map": [source], "inverse": [inverse], "params": {},
                                "domain": [[-1, 1]], "linear": True}))
    assert run_cli("verify", DATA / "example1.json", mapf) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {mapf}: map declared linear but ") and "not evaluable" in err


def test_cli_verify_rejects_map_params_that_name_a_state_variable(tmp_path, capsys):
    mapf = tmp_path / "map.json"
    mapf.write_text(json.dumps({"map": ["2*x + x"], "inverse": ["y/3"], "params": {"x": 1.0},
                                "domain": [[-10, 10]], "linear": True}))
    assert run_cli("verify", DATA / "example1.json", mapf) == 2
    assert capsys.readouterr().err == (f"error: {mapf}: names declared as both input "
                                       f"and parameter: ['x']\n")


def test_cli_verify_theorem_selection(tmp_path):
    out = tmp_path / "verify.json"
    assert run_cli("verify", DATA / "example1.json", DATA / "affine_map.json",
                   "--theorems", "t1,t3", "--out", out) == 0
    doc = read_json(out)
    assert [c["theorem"] for c in doc["checks"]] == ["t1", "t3"]
    assert run_cli("verify", DATA / "example1.json", DATA / "affine_map.json",
                   "--theorems", "t9") == 2


@pytest.mark.parametrize("theorems", ["", ",", " , "])
def test_cli_verify_without_theorems_is_an_input_error(theorems, tmp_path, capsys):
    # a run that checks nothing must not report that everything was accepted
    out = tmp_path / "verify.json"
    assert run_cli("verify", DATA / "example1.json", DATA / "affine_map.json",
                   "--theorems", theorems, "--out", out) == 2
    assert capsys.readouterr().err == (f"error: --theorems {theorems!r}: names no check; "
                                       f"choose from flow,t1,t2,t3,r1\n")
    assert not out.exists()


_ROOT_TOL_BOUND = ("must be positive and smaller than 1e-06, the distance within which "
                   "roots count once")


@pytest.mark.parametrize("flag, value, message", [
    ("--seeds", "0", "--seeds 0: must be >= 1"),
    ("--seeds", "-3", "--seeds -3: must be >= 1"),
    ("--root-tol", "1e-05", f"--root-tol 1e-05: {_ROOT_TOL_BOUND}"),
    ("--root-tol", "0", f"--root-tol 0.0: {_ROOT_TOL_BOUND}"),
    ("--eps-v", "0", "--eps-v 0.0: must be finite and positive"),
    ("--eps-v", "inf", "--eps-v inf: must be finite and positive"),
    ("--eps-v", "nan", "--eps-v nan: must be finite and positive"),
], ids=["seeds-0", "seeds-negative", "root-tol-above-dedup", "root-tol-0", "eps-v-0",
        "eps-v-inf", "eps-v-nan"])
@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_cli_solver_flag_errors_name_the_flag_and_its_bound(command, flag, value, message,
                                                             capsys):
    maps = [DATA / "affine_map.json"] if command == "verify" else []
    assert run_cli(command, DATA / "example1.json", *maps, flag, value) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_verify_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("verify", DATA / "example1.json", DATA / "square_map.json",
                   "--out", a) == 0
    assert run_cli("verify", DATA / "example1.json", DATA / "square_map.json",
                   "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# portrait

def test_cli_portrait_grid_hits_exact_zero(tmp_path):
    out = tmp_path / "grid.csv"
    assert run_cli("portrait", DATA / "example1.json", "--grid", "101",
                   "--region=-2:2", "--out", out) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,f1,F1"
    assert len(lines) == 102
    zero_rows = [l for l in lines[1:] if l.split(",")[0] == "0.0"]
    assert zero_rows == ["0.0,-1.0,0.0"]


def test_cli_portrait_2x2_header_exact(tmp_path):
    out = tmp_path / "grid.csv"
    assert run_cli("portrait", DATA / "planar.json", "--grid", "2x2",
                   "--out", out) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,y,f1,f2,F1,F2"
    assert len(lines) == 5


def test_cli_portrait_rotation_trajectory_closes(tmp_path):
    outdir = tmp_path / "portrait"
    assert run_cli("portrait", DATA / "rotation.json", "--grid", "5x5",
                   "--trajectories", "1", "--T", str(2 * math.pi),
                   "--out", outdir) == 0
    rows = (outdir / "trajectory_00.csv").read_text().strip().splitlines()
    assert rows[0] == "t,x,y"
    first = np.array([float(v) for v in rows[1].split(",")[1:]])
    last = np.array([float(v) for v in rows[-1].split(",")[1:]])
    radius = np.linalg.norm(first)
    assert np.linalg.norm(first - last) < 1e-4 * max(1.0, radius)


def test_cli_portrait_rejects_3d(tmp_path):
    sys3 = tmp_path / "three.json"
    sys3.write_text(json.dumps({
        "name": "three", "state": ["x", "y", "z"], "params": {},
        "field": ["y", "z", "-x"], "region": [[-1, 1], [-1, 1], [-1, 1]]}))
    assert run_cli("portrait", sys3) == 2


@pytest.mark.parametrize("horizon", ["-1", "nan", "inf", "1e9", "1e308"])
def test_cli_portrait_rejects_bad_horizon_before_writing(tmp_path, capsys, horizon):
    out = tmp_path / "portrait"
    assert run_cli("portrait", DATA / "planar.json", "--trajectories", "2",
                   "--T", horizon, "--out", out) == 2
    assert capsys.readouterr().err.startswith("error: --T: ")
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--grid", "5x5", "--trajectories", "-1"], "--trajectories -1: must be between 0 and 10000000"),
    (["--trajectories", "10000001"], "--trajectories 10000001: must be between 0 and 10000000"),
    (["--grid", "100000x100000"],
     "--grid 100000x100000: 10000000000 rows, more than the limit of 10000000"),
], ids=["negative-trajectories", "too-many-trajectories", "too-many-grid-rows"])
def test_cli_portrait_rejects_sizes_it_cannot_honour_before_writing(tmp_path, capsys, flags,
                                                                    message):
    out = tmp_path / "grid.csv"
    assert run_cli("portrait", DATA / "planar.json", *flags, "--out", out) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_cli_portrait_deterministic(tmp_path, monkeypatch):
    # as the machine allows, then with the grid rendered in a forked worker
    # and in this process: the same bytes every time
    runs = {}
    for label, usable in (("default", None), ("worker", True), ("in-process", False)):
        if usable is not None:
            monkeypatch.setattr(critflow.worker, "_worker_usable", lambda: usable)
        out = tmp_path / label
        assert run_cli("portrait", DATA / "planar.json", "--grid", "7x7",
                       "--trajectories", "2", "--T", "1.0", "--out", out) == 0
        runs[label] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert list(runs["default"]) == ["grid.csv", "trajectory_00.csv", "trajectory_01.csv"]
    assert runs["default"] == runs["worker"] == runs["in-process"]
    assert_no_child_process()


# the trajectories are this process's side, as f's is in verify: their error
# is raised first, and the grid's only when they succeeded
@pytest.mark.parametrize("worker", [True, False], ids=["worker", "in-process"])
@pytest.mark.parametrize("failing, raised", [
    (["grid"], "grid"),
    (["trajectory"], "trajectory"),
    (["grid", "trajectory"], "trajectory"),
])
def test_cli_portrait_raises_the_trajectory_error_before_the_grid_error(tmp_path, monkeypatch,
                                                                        failing, raised, worker):
    monkeypatch.setattr(critflow.worker, "_worker_usable", lambda: worker)
    for name in ("grid", "trajectory"):
        original = getattr(critflow.cli, f"write_{name}_csv")

        def writer(*args, _name=name, _original=original):
            if _name in failing:
                raise cf.DomainError(_name)
            return _original(*args)
        monkeypatch.setattr(critflow.cli, f"write_{name}_csv", writer)
    with pytest.raises(cf.DomainError) as caught:
        run_cli("portrait", DATA / "planar.json", "--grid", "7x7", "--trajectories", "2",
                "--T", "1.0", "--out", tmp_path / "portrait")
    assert str(caught.value) == raised
    assert_no_child_process()


def test_cli_portrait_grid_worker_that_ends_without_its_result_raises_and_leaves_no_process(
        tmp_path, monkeypatch):
    if not critflow.worker._worker_usable():
        pytest.skip("no worker: the grid writer would end this process")
    here = os.getpid()
    original = critflow.cli.write_grid_csv

    def ending_in_the_child(*args):
        if os.getpid() != here:
            os._exit(1)
        return original(*args)
    monkeypatch.setattr(critflow.cli, "write_grid_csv", ending_in_the_child)
    with pytest.raises(RuntimeError) as caught:
        run_cli("portrait", DATA / "planar.json", "--grid", "7x7", "--trajectories", "2",
                "--T", "1.0", "--out", tmp_path / "portrait")
    assert str(caught.value) == "the forked worker ended without sending its result"
    assert_no_child_process()


# ---------------------------------------------------------------------------
# CSV rendering against format_float, cell by cell

#: every special case of format_float, in the order the stub fields cycle
#: through them
SPECIALS = [math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, 1e16, 1e-5, 0.1,
            -5e-324, -1e16, -0.1]
SPECIAL_TEXTS = {"nan", "0.0", "inf", "-inf", "5e-324", "1e+16", "1e-05", "0.1"}


def test_format_float_texts():
    texts = [format_float(v) for v in SPECIALS]
    assert texts == ["nan", "0.0", "0.0", "inf", "-inf", "5e-324", "1e+16", "1e-05",
                     "0.1", "-5e-324", "-1e+16", "-0.1"]
    assert [format_float(np.float64(v)) for v in SPECIALS] == texts
    assert format_float(-math.nan) == "nan"


class _SpecialField:
    """Stands in for f or F in write_grid_csv: its grid values cycle
    through SPECIALS, starting at ``offset``."""

    def __init__(self, dimension: int, offset: int):
        self.dimension = dimension
        self.offset = offset

    def value_grid(self, pts):
        count = len(pts) * self.dimension
        cycle = [SPECIALS[(self.offset + k) % len(SPECIALS)] for k in range(count)]
        return np.array(cycle).reshape(len(pts), self.dimension)


def _cells(path) -> list[list[str]]:
    return [line.split(",") for line in Path(path).read_text().splitlines()]


@pytest.mark.parametrize("bounds, shape", [
    ([(-1e16, 1e16)], [13]),
    ([(-0.0, 5e-324)], [1]),
    ([(-1e-5, 0.1)], [4]),
    ([(-1e-5, 0.1), (-0.0, 1e16)], [3, 5]),
    ([(-1e16, 1e16), (5e-324, 1e-5)], [5, 1]),
    ([(-0.0, 0.1), (-3.0, 3.0)], [1, 7]),
], ids=["1d-wide", "1d-single-negative-zero", "1d-small", "2d", "2d-one-column", "2d-one-row"])
def test_grid_csv_cells_are_format_float_of_the_samples(tmp_path, bounds, shape):
    n = len(bounds)
    region = cf.AnalysisRegion.of(*bounds)
    field, accel = _SpecialField(n, 0), _SpecialField(n, 5)
    path = tmp_path / "grid.csv"
    assert write_grid_csv(path, field, accel, region, shape) == math.prod(shape)
    # the oracle: the samples as rows, each cell through format_float
    axes = [grid_axis(lo, hi, count) for (lo, hi), count in zip(bounds, shape)]
    pts = np.array([list(p) for p in itertools.product(*axes)])
    table = np.hstack([pts, field.value_grid(pts), accel.value_grid(pts)])
    header = ["x", "f1", "F1"] if n == 1 else ["x", "y", "f1", "f2", "F1", "F2"]
    assert _cells(path) == [header] + [[format_float(v) for v in row] for row in table]
    if math.prod(shape) * n >= len(SPECIALS):  # f's column(s) take every special value
        assert SPECIAL_TEXTS <= {c for row in _cells(path)[1:] for c in row}
    raw = path.read_bytes()
    assert raw.endswith(b"\n") and b"\r" not in raw


@pytest.mark.parametrize("n", [1, 2, 3])
def test_trajectory_csv_cells_are_format_float_of_the_samples(tmp_path, n):
    times = np.array([0.0, 5e-324, 1e-5, 0.1, 1e16, -0.0])
    states = np.array([[SPECIALS[(7 * i + k) % len(SPECIALS)] for k in range(n)]
                       for i in range(len(times))])
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, times, states)
    header = {1: ["t", "x"], 2: ["t", "x", "y"], 3: ["t", "x1", "x2", "x3"]}[n]
    rows = [[format_float(t)] + [format_float(v) for v in row] for t, row in zip(times, states)]
    assert _cells(path) == [header] + rows
    texts = {c for row in rows for c in row}
    assert {"0.0", "5e-324", "1e-05", "0.1", "1e+16"} <= texts


def test_trajectory_csv_of_the_initial_state_only(tmp_path):
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, np.array([0.0]), np.array([[-0.0, 1e-5]]))
    assert path.read_text() == "t,x,y\n0.0,0.0,1e-05\n"


# ---------------------------------------------------------------------------
# Transformed systems nested too deeply

def _deep_system(tmp_path, terms: int) -> Path:
    doc = {**read_json(DATA / "example1.json"), "field": ["+".join(["x"] * terms)],
           "region": [[0.5, 1.5]]}
    p = tmp_path / f"sum{terms}.json"
    p.write_text(json.dumps(doc))
    return p


@pytest.mark.parametrize("command", ["verify", "transform"])
def test_cli_rejects_transformed_systems_nested_too_deeply(tmp_path, capsys, command):
    # each file loads, but the field under x^2, with the inverse substituted,
    # nests past the bound that loading applies to each file
    system = _deep_system(tmp_path, 600)
    doc = read_json(DATA / "square_map.json")
    doc["inverse"] = ["+".join(["sqrt(y)/550"] * 550)]
    m = tmp_path / "map.json"
    m.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert run_cli(command, system, m, "--out", out) == 2
    assert capsys.readouterr().err == f"error: {m}: transformed field[0]: expression nested too deeply\n"
    assert not out.exists()


def test_transformed_system_depth_bound_is_the_loading_bound(tmp_path, capsys):
    # x^2 with inverse sqrt(y) puts 10 levels on a flat sum: 590 terms are
    # the most it takes, and the transform runs
    square = DATA / "square_map.json"
    assert run_cli("transform", _deep_system(tmp_path, 591), square) == 2
    assert capsys.readouterr().err.endswith("transformed field[0]: expression nested too deeply\n")
    out = tmp_path / "report.json"
    assert run_cli("transform", _deep_system(tmp_path, 590), square, "--seeds", "4",
                   "--out", out) == 0
    assert capsys.readouterr().err == ""
    assert len(read_json(out)["transformed_system"]["field"]) == 1


def test_transformed_system_under_an_affine_map_has_no_depth_bound(tmp_path):
    # it is evaluated by composition, and its trees are only printed
    out = tmp_path / "report.json"
    assert run_cli("transform", _deep_system(tmp_path, 600), DATA / "affine_map.json",
                   "--seeds", "4", "--out", out) == 0
    assert len(read_json(out)["system"]["field"]) == 1
