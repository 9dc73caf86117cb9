"""Command-line front end.

Subcommands: ``analyze`` (critical points with spectra), ``transform``
(emit the transformed system and its analysis), ``verify`` (conjugacy
checks with exit code 1 on a failing verdict), ``portrait`` (grid and
trajectory CSV export). Exit codes: 0 success, 1 verification failure,
2 input error or an output that cannot be written.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .conjugacy import THEOREM_IDS, run_verification
from .expr import ExpressionError
from .fields import (InverseMismatchError, acceleration_map, image_region,
                     transformed_system)
from .flows import BlowUpError, IntegratorConfig, StepUnderflowError, integrate
from .io import (InputError, LoadedSystem, canonical_json,
                 format_float, load_map, load_system, parse_region_flag,
                 point_search_records, report_envelope, system_file_payload,
                 theorem_check_record, write_grid_csv, write_trajectory_csv)
from .points import SolverConfig, fixed_point_search, perpetual_point_search
from .region import AnalysisRegion, lattice_points
from .worker import forked

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2

#: ``portrait`` writes at most this many rows per file (grid samples, or
#: samples per trajectory) and at most this many trajectory files
PORTRAIT_LIMIT = 10 ** 7


def _add_region_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--region",
                   help="override the file's region, lo:hi[,lo:hi...] "
                        "(write --region=-3:3 when the bound is negative)")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seeds", type=int, default=100, help="Newton seed count (default 100)")
    p.add_argument("--rng-seed", type=int, default=0, help="seed-lattice jitter RNG (default 0)")
    p.add_argument("--eps-v", type=float, default=1e-6,
                   help="velocity floor: a perpetual point needs ||f|| above it (default 1e-6)")
    p.add_argument("--root-tol", type=float, default=1e-10,
                   help="root tolerance: a fixed point needs ||f|| at most this, a perpetual "
                        "point ||Df f|| (default 1e-10)")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="report format (default json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critflow",
        description="Fixed/perpetual-point analysis and conjugacy verification "
                    "for autonomous ODE systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="find and classify critical points")
    p.add_argument("system", help="system definition file (JSON)")
    _add_region_flag(p)
    _add_solver_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("transform", help="emit the transformed system and its analysis")
    p.add_argument("system", help="system definition file (JSON)")
    p.add_argument("map", help="transformation file (JSON, must include 'inverse')")
    _add_solver_flags(p)
    _add_output_flags(p)
    p.add_argument("--out-system", help="also write the transformed system file here")

    p = sub.add_parser("verify", help="run conjugacy checks against the transformed system")
    p.add_argument("system")
    p.add_argument("map")
    _add_region_flag(p)
    _add_solver_flags(p)
    _add_output_flags(p)
    p.add_argument("--theorems", default=",".join(THEOREM_IDS),
                   help=f"comma list from {{{','.join(THEOREM_IDS)}}} (default all)")
    p.add_argument("--T", type=float, default=1.0, dest="t_end",
                   help="flow-conjugacy horizon (default 1.0)")
    p.add_argument("--tol", type=float, default=None,
                   help="flow/spectrum residual tolerance; the similarity "
                        "tolerance is a tenth of it (default 1e-6)")

    p = sub.add_parser("portrait", help="export field grids and trajectories as CSV")
    p.add_argument("system")
    _add_region_flag(p)
    p.add_argument("--rng-seed", type=int, default=0,
                   help="trajectory start lattice jitter RNG (default 0)")
    p.add_argument("--grid", default=None, help="grid resolution: N (1-D) or NxM (2-D)")
    p.add_argument("--trajectories", type=int, default=0,
                   help="number of trajectories to integrate (default 0)")
    p.add_argument("--T", type=float, default=10.0, dest="t_end",
                   help="trajectory horizon (default 10)")
    p.add_argument("--out", default="portrait",
                   help="output CSV path (grid only) or directory (default ./portrait)")
    return parser


def _solver_config(args) -> SolverConfig:
    if args.seeds < 1:
        raise InputError(f"--seeds {args.seeds}: must be >= 1")
    if not 0.0 < args.eps_v < math.inf:
        raise InputError(f"--eps-v {args.eps_v!r}: must be finite and positive")
    if not 0.0 < args.root_tol < SolverConfig.dedup_tol:
        raise InputError(f"--root-tol {args.root_tol!r}: must be positive and smaller than "
                         f"{SolverConfig.dedup_tol!r}, the distance within which roots count once")
    return SolverConfig(seed_count=args.seeds, rng_seed=args.rng_seed,
                        velocity_floor=args.eps_v, root_tol=args.root_tol)


def _resolve_region(args, loaded: LoadedSystem) -> AnalysisRegion:
    if args.region:
        return parse_region_flag(args.region, loaded.field.dimension)
    if loaded.region is not None:
        return loaded.region
    raise InputError(f"{loaded.path}: no 'region' in the file; pass --region")


def _emit(doc: dict, args, csv_rows: list[list[str]]) -> None:
    if args.format == "csv":
        text = "\n".join(",".join(row) for row in csv_rows) + "\n"
    else:
        text = canonical_json(doc)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)


def _points_csv(records: dict, state_names) -> list[list[str]]:
    header = ["kind"] + list(state_names) + ["residual", "speed", "degenerate",
                                             "boundary", "eigenvalues", "note"]
    rows = [header]
    for group in ("points", "degenerate_points"):
        for rec in records[group]:
            spec = rec["spectrum"]
            eig = ";".join(f"{format_float(re)}{'+' if im >= 0 else '-'}{format_float(abs(im))}j"
                           for re, im in spec) if spec else ""
            rows.append([rec["kind"]]
                        + [format_float(v) for v in rec["location"]]
                        + [format_float(rec["residual"]), format_float(rec["speed"]),
                           str(rec["degenerate"]).lower(), str(rec["boundary"]).lower(),
                           eig, rec["note"]])
    return rows


def _analysis_payload(field, region, cfg):
    fixed = fixed_point_search(field, region, cfg)
    perpetual = perpetual_point_search(field, region, cfg)
    payload = {
        "system": {"name": field.name, "state": list(field.input_names),
                   "params": dict(field.parameters),
                   "field": list(field.source_strings()),
                   "acceleration_field": list(acceleration_map(field).source_strings())},
        "region": [[lo, hi] for lo, hi in region.bounds],
        "fixed_points": point_search_records(fixed),
        "perpetual_points": point_search_records(perpetual),
    }
    merged = {"points": payload["fixed_points"]["points"]
              + payload["perpetual_points"]["points"],
              "degenerate_points": payload["fixed_points"]["degenerate_points"]
              + payload["perpetual_points"]["degenerate_points"]}
    return payload, merged


def cmd_analyze(args) -> int:
    loaded = load_system(args.system)
    region = _resolve_region(args, loaded)
    cfg = _solver_config(args)
    payload, merged = _analysis_payload(loaded.field, region, cfg)
    doc = report_envelope("analyze", [("system", loaded.path, loaded.sha256)], cfg)
    doc.update(payload)
    _emit(doc, args, _points_csv(merged, loaded.field.input_names))
    return EXIT_OK


def cmd_transform(args) -> int:
    loaded = load_system(args.system)
    lmap = load_map(args.map, loaded.field)
    if lmap.map.inverse is None:
        raise InputError(f"{lmap.path}: 'transform' needs the map's 'inverse'")
    try:
        g = transformed_system(loaded.field, lmap.map)
    except (InverseMismatchError, ExpressionError) as err:
        raise InputError(f"{lmap.path}: {err}") from err
    g_region = image_region(lmap.map)
    cfg = _solver_config(args)
    payload, merged = _analysis_payload(g, g_region, cfg)
    doc = report_envelope("transform", [("system", loaded.path, loaded.sha256),
                                        ("map", lmap.path, lmap.sha256)], cfg)
    doc.update(payload)
    doc["transformed_system"] = system_file_payload(g, g_region)
    if args.out_system:
        Path(args.out_system).write_text(canonical_json(doc["transformed_system"]),
                                         encoding="utf-8", newline="\n")
    _emit(doc, args, _points_csv(merged, g.input_names))
    return EXIT_OK


def cmd_verify(args) -> int:
    loaded = load_system(args.system)
    region = _resolve_region(args, loaded)
    lmap = load_map(args.map, loaded.field)
    if lmap.map.inverse is None:
        raise InputError(f"{lmap.path}: 'verify' needs the map's 'inverse'")
    theorems = [t.strip() for t in args.theorems.split(",") if t.strip()]
    if not theorems:
        raise InputError(f"--theorems {args.theorems!r}: names no check; "
                         f"choose from {','.join(THEOREM_IDS)}")
    unknown = set(theorems) - set(THEOREM_IDS)
    if unknown:
        raise InputError(f"--theorems: unknown ids {sorted(unknown)}")
    cfg = _solver_config(args)
    for flag, value in (("--T", args.t_end), ("--tol", args.tol)):
        if value is not None and not 0.0 < value < math.inf:
            raise InputError(f"{flag} {value!r}: must be finite and positive")
    # --tol overrides run_verification's default
    tols = {} if args.tol is None else {"tol": args.tol}
    try:
        report, g = run_verification(loaded.field, lmap.map, region, theorems=theorems,
                                     t_end=args.t_end, cfg=cfg, **tols)
    except (InverseMismatchError, ExpressionError) as err:
        raise InputError(f"{lmap.path}: {err}") from err
    except ValueError as err:
        raise InputError(str(err)) from err
    doc = report_envelope("verify", [("system", loaded.path, loaded.sha256),
                                     ("map", lmap.path, lmap.sha256)], cfg)
    doc.update({
        "map": {"sources": list(report.map_sources),
                "linear": report.declared_linear,
                "diffeomorphic": report.diffeomorphic},
        "transformed_system": system_file_payload(g, image_region(lmap.map)),
        "tolerances": dict(report.tolerances),
        "checks": [theorem_check_record(c) for c in report.checks],
        "all_accepted": report.all_accepted,
    })
    csv_rows = [["theorem", "verdict", "worst_residual", "tolerance", "note"]]
    for c in report.checks:
        csv_rows.append([c.theorem_id, c.verdict,
                         "" if c.worst_residual is None else format_float(c.worst_residual),
                         "" if c.tolerance is None else format_float(c.tolerance),
                         c.note])
    _emit(doc, args, csv_rows)
    return EXIT_OK if report.all_accepted else EXIT_VERIFICATION_FAILED


def _parse_grid(text: str | None, dimension: int) -> list[int]:
    if text is None:
        return [101] * dimension
    parts = text.lower().split("x")
    if len(parts) != dimension:
        raise InputError(f"--grid needs {dimension} size(s) for a "
                         f"{dimension}-dimensional system, got {text!r}")
    try:
        shape = [int(p) for p in parts]
    except ValueError as err:
        raise InputError(f"--grid {text!r}: {err}") from err
    if any(s < 1 for s in shape):
        raise InputError("--grid sizes must be >= 1")
    if math.prod(shape) > PORTRAIT_LIMIT:
        raise InputError(f"--grid {text}: {math.prod(shape)} rows, more than "
                         f"the limit of {PORTRAIT_LIMIT}")
    return shape


def cmd_portrait(args) -> int:
    """Write the grid of f and F over the region, and with
    ``--trajectories`` that many trajectory files beside it.

    Every size is checked before anything is written. The grid and the
    trajectories are independent files, so when there are trajectories a
    forked worker (:mod:`critflow.worker`) renders the grid while this
    process integrates and writes them; without a usable worker the grid
    is rendered here after them. The files are byte-identical either way.
    As in ``verify``, this process's side comes first: an error from the
    trajectories is raised as it happens, and the grid's only when the
    trajectories succeeded. A worker whose rendering raised, or that ended
    early, sends nothing, and the grid is rendered again here."""
    loaded = load_system(args.system)
    field = loaded.field
    if field.dimension > 2:
        raise InputError(f"{loaded.path}: portrait export supports 1- and "
                         f"2-dimensional systems only")
    region = _resolve_region(args, loaded)
    shape = _parse_grid(args.grid, field.dimension)
    if not 0 <= args.trajectories <= PORTRAIT_LIMIT:
        raise InputError(f"--trajectories {args.trajectories}: must be between 0 "
                         f"and {PORTRAIT_LIMIT}")
    try:
        # t_end is checked before it sizes the samples
        cfg = IntegratorConfig(t_end=args.t_end)
    except ValueError as err:
        raise InputError(f"--T: {err}") from err
    # capped, so that no t_end overflows the conversion to int
    samples = max(2, int(min(50 * args.t_end, PORTRAIT_LIMIT + 1)))
    if args.trajectories and samples > PORTRAIT_LIMIT:
        raise InputError(f"--T: {args.t_end!r} needs more than {PORTRAIT_LIMIT} samples "
                         f"per trajectory")
    cfg = replace(cfg, sample_count=samples)

    out = Path(args.out)
    grid_only = args.trajectories == 0 and out.suffix == ".csv"
    if grid_only:
        grid_path = out
        out.parent.mkdir(parents=True, exist_ok=True)
    else:
        out.mkdir(parents=True, exist_ok=True)
        grid_path = out / "grid.csv"

    def render_grid() -> int:
        return write_grid_csv(grid_path, field, acceleration_map(field), region, shape)

    with (forked(render_grid) if args.trajectories else
          contextlib.nullcontext(render_grid)) as grid_rows:
        starts = lattice_points(region, args.trajectories, args.rng_seed)[:args.trajectories]
        for i, x0 in enumerate(starts):
            try:
                traj = integrate(field, x0, cfg)
                times, states = traj.times, traj.states
            except BlowUpError as err:
                times, states = err.partial.times, err.partial.states
            except StepUnderflowError:
                times = np.array([0.0])
                states = np.asarray(x0, dtype=float).reshape(1, -1)
            write_trajectory_csv(out / f"trajectory_{i:02d}.csv", times, states)
        rows = grid_rows()
    if rows is None:  # the worker sent no result: render the grid here
        rows = render_grid()
    sys.stderr.write(f"portrait: wrote {rows} grid rows to {grid_path}\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"analyze": cmd_analyze, "transform": cmd_transform,
                "verify": cmd_verify, "portrait": cmd_portrait}
    try:
        return handlers[args.command](args)
    except InputError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_INPUT_ERROR
    except OSError as err:  # an output that cannot be written; inputs raise InputError
        where = f"{err.filename}: " if err.filename else ""
        sys.stderr.write(f"error: {where}{err.strerror or err}\n")
        return EXIT_INPUT_ERROR
    except RecursionError:  # a last resort: the tree walks are loops, and the
        # parser and the JSON reader report inputs nested too deeply themselves
        sys.stderr.write("error: an input is nested too deeply to process\n")
        return EXIT_INPUT_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
