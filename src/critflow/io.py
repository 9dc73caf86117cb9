"""Definition files, report documents, and CSV export.

System and map files are strict JSON: the exact key sets below, typed
fields, unknown keys rejected. Reports are canonical JSON (sorted keys,
no timestamps) so a rerun with identical inputs and seed is byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .conjugacy import MatchRecord, TheoremCheck
from .expr import ExpressionError, SystemDefinition, parse_expression
from .fields import TransformationMap, VectorField, VectorMap, default_target_names
from .linalg import Spectrum
from .points import CriticalPoint, PointSearch, SolverConfig
from .region import AnalysisRegion

__all__ = [
    "InputError", "LoadedSystem", "LoadedMap",
    "load_system", "load_map", "region_from_json", "parse_region_flag",
    "canonical_json", "critical_point_record", "theorem_check_record",
    "report_envelope", "system_file_payload", "grid_axis",
    "format_float", "write_grid_csv", "write_trajectory_csv",
]


class InputError(ValueError):
    """Invalid definition file or flag value (CLI exit code 2)."""


@dataclass(frozen=True)
class LoadedSystem:
    field: VectorField
    region: AnalysisRegion | None
    path: str
    sha256: str


@dataclass(frozen=True)
class LoadedMap:
    map: TransformationMap
    path: str
    sha256: str


# ---------------------------------------------------------------------------
# Loading

def _read_json(path: str | Path):
    try:
        raw = Path(path).read_bytes()
    except OSError as err:
        raise InputError(f"{path}: {err.strerror or err}") from err
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except ValueError as err:  # also a bad encoding or an integer of too many digits
        raise InputError(f"{path}: not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    return doc, digest


def _check_keys(doc: dict, required: dict, optional: dict, path: str):
    unknown = set(doc) - set(required) - set(optional)
    if unknown:
        raise InputError(f"{path}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(doc)
    if missing:
        raise InputError(f"{path}: missing keys {sorted(missing)}")
    for key, kind in {**required, **optional}.items():
        if key in doc and not isinstance(doc[key], kind):
            raise InputError(f"{path}: key '{key}' must be of type {kind.__name__}")


def _name_list(value, path: str, key: str) -> tuple[str, ...]:
    if not all(isinstance(v, str) for v in value):
        raise InputError(f"{path}: '{key}' must be a list of strings")
    return tuple(value)


def _number(value, message: str) -> float:
    """The rule for every number of a definition file: a JSON number that is
    finite as a float, else ``InputError(message)``. Python's json also reads
    NaN, Infinity and integers beyond the float range."""
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise InputError(message)


def _param_map(value, path: str) -> dict[str, float]:
    return {k: _number(v, f"{path}: params must map names to finite numbers (bad entry {k!r})")
            for k, v in value.items()}


def region_from_json(value, dimension: int, path: str, key: str = "region") -> AnalysisRegion:
    if (not isinstance(value, list) or len(value) != dimension
            or not all(isinstance(b, list) and len(b) == 2 for b in value)):
        raise InputError(f"{path}: '{key}' must be a list of {dimension} [lo, hi] pairs")
    bad = f"{path}: '{key}' bounds must be finite numbers"
    bounds = [(_number(lo, bad), _number(hi, bad)) for lo, hi in value]
    try:
        return AnalysisRegion.of(*bounds)
    except ValueError as err:
        raise InputError(f"{path}: '{key}': {err}") from err


def _parse_components(sources, allowed, path: str, key: str):
    if not all(isinstance(s, str) for s in sources):
        raise InputError(f"{path}: '{key}' must be a list of expression strings")
    out = []
    for i, src in enumerate(sources):
        try:
            out.append(parse_expression(src, allowed))
        except ExpressionError as err:
            raise InputError(f"{path}: {key}[{i}]: {err}") from err
    return tuple(out)


def load_system(path: str | Path) -> LoadedSystem:
    """Load and validate a system definition file.

    Schema: ``{"name": str, "state": [str...], "params": {str: num},
    "field": [expr...], "region": [[lo, hi]...]?}``.
    """
    doc, digest = _read_json(path)
    _check_keys(doc, {"name": str, "state": list, "params": dict, "field": list},
                {"region": list}, str(path))
    state = _name_list(doc["state"], str(path), "state")
    params = _param_map(doc["params"], str(path))
    if len(doc["field"]) != len(state):
        raise InputError(f"{path}: 'field' has {len(doc['field'])} entries "
                         f"for {len(state)} state variables")
    components = _parse_components(doc["field"], set(state) | set(params),
                                   str(path), "field")
    try:
        system = SystemDefinition(name=doc["name"], state_names=state,
                                  parameters=dict(sorted(params.items())),
                                  components=components)
        field = VectorField(system)
    except ExpressionError as err:
        raise InputError(f"{path}: {err}") from err
    region = None
    if "region" in doc:
        region = region_from_json(doc["region"], len(state), str(path))
    return LoadedSystem(field=field, region=region, path=str(path), sha256=digest)


def load_map(path: str | Path, system: VectorField) -> LoadedMap:
    """Load and validate a transformation file against a loaded system.

    Schema: ``{"map": [expr...], "inverse": [expr...]?, "params": {str: num}?,
    "domain": [[lo, hi]...], "linear": bool}``. Inverse expressions are
    written in the target variables ("y" in one dimension, else "y1..yn").
    """
    doc, digest = _read_json(path)
    _check_keys(doc, {"map": list, "domain": list, "linear": bool},
                {"inverse": list, "params": dict}, str(path))
    n = system.dimension
    params = _param_map(doc.get("params", {}), str(path))
    if len(doc["map"]) != n:
        raise InputError(f"{path}: 'map' has {len(doc['map'])} components for a "
                         f"{n}-dimensional system")
    components = _parse_components(doc["map"], set(system.input_names) | set(params),
                                   str(path), "map")
    domain = region_from_json(doc["domain"], n, str(path), "domain")
    inverse = None
    if "inverse" in doc:
        if len(doc["inverse"]) != n:
            raise InputError(f"{path}: 'inverse' must have {n} components")
        try:
            targets = default_target_names(n, set(params))
        except ExpressionError as err:
            raise InputError(f"{path}: {err}") from err
        inv_components = _parse_components(doc["inverse"], set(targets) | set(params),
                                           str(path), "inverse")
        inverse = VectorMap(name="inverse", input_names=targets,
                            parameters=params, components=inv_components)
    try:
        tmap = TransformationMap(name=Path(path).stem, input_names=system.input_names,
                                 parameters=params, components=components,
                                 domain=domain, declared_linear=doc["linear"],
                                 inverse=inverse)
    except ExpressionError as err:
        raise InputError(f"{path}: {err}") from err
    return LoadedMap(map=tmap, path=str(path), sha256=digest)


def parse_region_flag(text: str, dimension: int) -> AnalysisRegion:
    """Parse the CLI region syntax ``lo:hi[,lo:hi...]``."""
    parts = text.split(",")
    if len(parts) != dimension:
        raise InputError(f"--region needs {dimension} lo:hi ranges, got {len(parts)}")
    bounds = []
    for part in parts:
        pieces = part.split(":")
        if len(pieces) != 2:
            raise InputError(f"--region range {part!r} is not lo:hi")
        try:
            bounds.append((float(pieces[0]), float(pieces[1])))
        except ValueError as err:
            raise InputError(f"--region range {part!r}: {err}") from err
    try:
        return AnalysisRegion.of(*bounds)
    except ValueError as err:
        raise InputError(f"--region: {err}") from err


# ---------------------------------------------------------------------------
# Report serialization

def format_float(v: float) -> str:
    v = float(v)
    if math.isnan(v):
        return "nan"
    return repr(v + 0.0)  # "+ 0.0" normalizes -0.0


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        if math.isfinite(v):
            return v + 0.0
        return "nan" if math.isnan(v) else ("inf" if v > 0 else "-inf")
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, complex):
        return [_jsonable(value.real), _jsonable(value.imag)]
    return value


def canonical_json(doc: Mapping) -> str:
    return json.dumps(_jsonable(dict(doc)), sort_keys=True, indent=2) + "\n"


def _spectrum_json(s: Spectrum | None):
    if s is None:
        return None
    return [[_jsonable(v.real), _jsonable(v.imag)] for v in s.values]


def critical_point_record(p: CriticalPoint) -> dict:
    return {
        "kind": p.kind,
        "location": _jsonable(p.location),
        "residual": _jsonable(p.residual),
        "velocity": _jsonable(p.velocity),
        "speed": _jsonable(p.speed),
        "spectrum": _spectrum_json(p.spectrum),
        "degenerate": p.degenerate,
        "boundary": p.boundary,
        "note": p.note,
    }


def _match_record_json(r: MatchRecord) -> dict:
    return _jsonable(asdict(r))


def theorem_check_record(c: TheoremCheck) -> dict:
    return {
        "theorem": c.theorem_id,
        "verdict": c.verdict,
        "worst_residual": _jsonable(c.worst_residual),
        "tolerance": _jsonable(c.tolerance),
        "note": c.note,
        "details": [_match_record_json(r) for r in c.details],
    }


def point_search_records(search: PointSearch) -> dict:
    return {
        "points": [critical_point_record(p) for p in search.clean_points],
        "degenerate_points": [critical_point_record(p) for p in search.points
                              if p.degenerate],
        "warnings": list(search.warnings),
        "seeds_used": search.seeds_used,
        "seeds_converged": search.seeds_converged,
    }


def solver_record(cfg: SolverConfig) -> dict:
    return _jsonable(asdict(cfg))


def report_envelope(command: str, inputs: Sequence[tuple[str, str, str]],
                    cfg: SolverConfig | None = None) -> dict:
    doc = {
        "tool": {"name": "critflow", "version": __version__},
        "command": command,
        "inputs": [{"role": role, "path": path, "sha256": digest}
                   for role, path, digest in inputs],
    }
    if cfg is not None:
        doc["solver"] = solver_record(cfg)
    return doc


def system_file_payload(field: VectorField, region: AnalysisRegion | None) -> dict:
    doc = {
        "name": field.name,
        "state": list(field.input_names),
        "params": {k: _jsonable(v) for k, v in field.parameters.items()},
        "field": list(field.source_strings()),
    }
    if region is not None:
        doc["region"] = [[_jsonable(lo), _jsonable(hi)] for lo, hi in region.bounds]
    return doc


# ---------------------------------------------------------------------------
# CSV export

def grid_axis(lo: float, hi: float, count: int) -> np.ndarray:
    """Evenly spaced samples, multiply-first so symmetric grids hit exact
    landmark values (e.g. 0 on a symmetric range with odd count)."""
    if count == 1:
        return np.array([lo])
    return np.array([lo + (i * (hi - lo)) / (count - 1) for i in range(count)])


def write_grid_csv(path: str | Path, field: VectorField, accel: VectorField,
                   region: AnalysisRegion, shape: Sequence[int]) -> int:
    """Grid samples of f and F over the region; returns the row count.

    Header is exactly ``x,f1,F1`` (1-D) or ``x,y,f1,f2,F1,F2`` (2-D). Rows
    vary the last coordinate fastest. Out-of-domain samples print nan.
    """
    n = field.dimension
    if n not in (1, 2) or len(shape) != n:
        raise InputError("portrait grids are only defined for 1- or 2-dimensional systems")
    axes = [grid_axis(lo, hi, count) for (lo, hi), count in zip(region.bounds, shape)]
    if n == 1:
        pts = axes[0].reshape(-1, 1)
        header = "x,f1,F1"
    else:
        xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        header = "x,y,f1,f2,F1,F2"
    fvals = field.value_grid(pts)
    avals = accel.value_grid(pts)
    lines = [header]
    for row in range(pts.shape[0]):
        cells = [format_float(v) for v in pts[row]]
        cells += [format_float(v) for v in fvals[row]]
        cells += [format_float(v) for v in avals[row]]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return pts.shape[0]


def write_trajectory_csv(path: str | Path, times: np.ndarray,
                         states: np.ndarray) -> None:
    names = ["x", "y"][:states.shape[1]] if states.shape[1] <= 2 else \
        [f"x{i + 1}" for i in range(states.shape[1])]
    lines = ["t," + ",".join(names)]
    for t, row in zip(times, states):
        lines.append(",".join([format_float(t)] + [format_float(v) for v in row]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
