"""Numerical verification of conjugacy relations for a (system, map) pair.

Four checks, each producing a verdict plus per-point records:

* ``flow``: the flows commute with the map, psi_t(h(x0)) = h(phi_t(x0)),
  sampled at evenly spaced times for a set of initial points;
* ``t1``: fixed points map onto independently discovered fixed points of
  the transformed system;
* ``t2``: perpetual points map likewise (decidable only for linear maps;
  nonlinear maps get advisory details instead of a verdict);
* ``t3``: eigenvalue spectra at matched points agree, and the Jacobians
  satisfy the similarity identities J' = Dh J Dh^-1 (velocity side) and
  likewise for the acceleration side;
* ``r1``: transformed-system critical points with no preimage among the
  mapped ones ("newly created" points).

Target-side point sets are found independently by the same multi-start
solver, never trusted from the pushforward, which is what makes the checks
non-circular.

The point checks share work through one optional ``searches`` mapping
whose only keys are ``(side, kind)``: side ``"f"`` is f searched over
region ∩ h.domain, side ``"g"`` the transformed system searched over
``image_region(h)``, kind is ``FIXED`` or ``PERPETUAL``. A check runs and
stores a search only when its key is missing, so checks handed one mapping
(as in :func:`run_verification`) run each search at most once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .expr import DomainError
from .fields import (TransformationMap, VectorField, acceleration_map,
                     image_region, transformed_system)
from .flows import (BlowUpError, IntegratorConfig, StepUnderflowError, _sampled_states,
                    integrate)
from .linalg import eigenvalues, min_pivot, spectrum_distance
from .points import (FIXED, PERPETUAL, SolverConfig, fixed_point_search,
                     perpetual_point_search)
from .region import AnalysisRegion, lattice_points

__all__ = [
    "HOLDS", "FAILS", "NOT_APPLICABLE", "THEOREM_IDS",
    "MatchRecord", "TheoremCheck", "ConjugacyReport",
    "verify_flow_conjugacy", "verify_point_mapping",
    "verify_spectrum_preservation", "detect_new_points",
    "select_flow_points", "run_verification",
]

HOLDS = "holds"
FAILS = "fails"
NOT_APPLICABLE = "not-applicable"

THEOREM_IDS = ("flow", "t1", "t2", "t3", "r1")

#: states larger than this are excluded from flow-residual comparison;
#: near escape, absolute residuals measure integrator noise, not conjugacy
_COMPARE_CEILING = 1e6

#: the flow check compares this many evenly spaced samples per trajectory,
#: from this many initial points chosen by select_flow_points
_FLOW_SAMPLES = 32
_FLOW_POINTS = 5


@dataclass(frozen=True)
class MatchRecord:
    source: tuple | None = None  # critical point of f (source coordinates)
    mapped: tuple | None = None  # h(source)
    matched: tuple | None = None  # matched critical point of g, if any
    kind: str | None = None
    residual: float | None = None
    spectrum_distance: float | None = None
    similarity_residual: float | None = None
    note: str = ""


@dataclass(frozen=True)
class TheoremCheck:
    theorem_id: str
    verdict: str
    worst_residual: float | None
    details: tuple[MatchRecord, ...]
    tolerance: float | None = None
    note: str = ""


@dataclass(frozen=True)
class ConjugacyReport:
    system_name: str
    transformed_name: str
    map_sources: tuple[str, ...]
    declared_linear: bool
    diffeomorphic: bool
    checks: tuple[TheoremCheck, ...]
    tolerances: dict[str, float]

    def check(self, theorem_id: str) -> TheoremCheck:
        for c in self.checks:
            if c.theorem_id == theorem_id:
                return c
        raise KeyError(theorem_id)

    @property
    def all_accepted(self) -> bool:
        return all(c.verdict in (HOLDS, NOT_APPLICABLE) for c in self.checks)


# ---------------------------------------------------------------------------
# Flow conjugacy

def _scheduled_states(f, x0, cfg: IntegratorConfig):
    """Integrate, returning (states at scheduled times, truncation note,
    whether the integration failed); a failed one keeps only x0."""
    try:
        traj = integrate(f, x0, cfg)
        return traj.states, "", False
    except BlowUpError as err:
        return err.partial.states[:-1], f"blow-up near t = {err.escape_time:.4g}", False
    except (StepUnderflowError, DomainError) as err:
        return np.array(x0, dtype=float).reshape(1, -1), f"integration failed: {err}", True


def verify_flow_conjugacy(f: VectorField, g: VectorField, h: TransformationMap,
                          initial_points: Sequence, t_end: float, tol: float) -> TheoremCheck:
    """Check psi_t(h(x0)) = h(phi_t(x0)) over [0, t_end].

    The residual is the max norm difference over initial points and sample
    times. Samples after a blow-up, after phi leaves h's domain, or after
    either state norm passes the comparison ceiling are dropped (noted per
    point).

    When f's integration fails (step underflow or a domain error), only
    the initial point is compared, where psi_0(h(x0)) = h(x0) exactly, so
    g is not integrated from that point and the note names f's failure
    only. The samples f reached before failing are not compared: near the
    failure their residual is integrator error, which the tolerance does
    not model.
    """
    cfg = IntegratorConfig(t_end=float(t_end), sample_count=_FLOW_SAMPLES)
    records: list[MatchRecord] = []
    worst = 0.0
    compared_any = False
    for x0 in initial_points:
        x0 = np.asarray(x0, dtype=float)
        if not h.domain.contains(x0):
            records.append(MatchRecord(source=tuple(x0),
                                       note="skipped: initial point outside map domain"))
            continue
        y0 = h.value(x0)
        xs, note_x, failed = _scheduled_states(f, x0, cfg)
        if failed:  # only x0 is compared, where the residual is exactly 0.0
            ys, note_y = y0.reshape(1, -1), ""
        else:
            ys, note_y, _ = _scheduled_states(g, y0, cfg)
        count = min(len(xs), len(ys))
        point_worst = 0.0
        compared = 0
        truncation = "; ".join(n for n in (note_x, note_y) if n)
        for k in range(count):
            xk, yk = xs[k], ys[k]
            if not h.domain.contains(xk):
                truncation = truncation or "trajectory left the map domain"
                break
            if np.linalg.norm(xk) > _COMPARE_CEILING or np.linalg.norm(yk) > _COMPARE_CEILING:
                truncation = truncation or "state norm passed comparison ceiling"
                break
            try:
                residual = float(np.linalg.norm(yk - h.value(xk)))
            except DomainError:
                truncation = truncation or "map not evaluable along trajectory"
                break
            point_worst = max(point_worst, residual)
            compared += 1
        if compared:
            compared_any = True
            worst = max(worst, point_worst)
        records.append(MatchRecord(
            source=tuple(x0), mapped=tuple(y0), residual=point_worst,
            note=(f"compared {compared}/{_FLOW_SAMPLES} samples; {truncation}"
                  if truncation else f"compared {compared}/{_FLOW_SAMPLES} samples")))
    if not compared_any:
        return TheoremCheck("flow", NOT_APPLICABLE, None, tuple(records), tol,
                            note="no comparable samples for any initial point")
    verdict = HOLDS if worst <= tol else FAILS
    return TheoremCheck("flow", verdict, worst, tuple(records), tol)


def select_flow_points(f: VectorField, h: TransformationMap,
                       region: AnalysisRegion, count: int, t_end: float) -> list[np.ndarray]:
    """Deterministic initial points for the flow check: a stratified lattice
    over region ∩ h.domain, preferring points whose trajectory stays inside
    the map domain and bounded over [0, t_end].

    A candidate is preferred when every sampled state lies in h.domain and
    the integration reaches t_end. The samples are the flow check's own
    (``_FLOW_SAMPLES`` evenly spaced times), at a looser tolerance. Its
    integration stops at the first sample outside h.domain: that sample
    rejects the candidate whatever the later samples do (come back, blow
    up or fail), so stopping there picks exactly the points a run over the
    whole horizon would pick, at a fraction of the cost. On the finer grid
    a candidate that leaves h.domain on its way to a blow-up is mostly
    caught at a sample before its step size collapses. The test stays at
    the samples; testing every step would reject a trajectory that leaves
    and comes back between two samples.
    """
    base = region.intersect(h.domain)
    candidates = lattice_points(base, 4 * count, rng_seed=0)
    quick = IntegratorConfig(abs_tol=1e-6, rel_tol=1e-6, t_end=float(t_end),
                             sample_count=_FLOW_SAMPLES)
    good: list[np.ndarray] = []
    rest: list[np.ndarray] = []
    for c in candidates:
        if len(good) >= count:
            break
        try:
            inside = all(h.domain.contains(s) for s in _sampled_states(f, c, quick))
        except (BlowUpError, StepUnderflowError, DomainError):
            inside = False
        (good if inside else rest).append(c)
    return (good + rest)[:count]


# ---------------------------------------------------------------------------
# Point mapping, spectra, new points

def _match_tol(cfg: SolverConfig) -> float:
    """Distance within which h(x*) counts as landing on a target point."""
    return 10.0 * cfg.dedup_tol


def _invertible_linear(h: TransformationMap) -> bool:
    return h.declared_linear and h.linear_part.inverse is not None


def _match_points(f, h, g, region, cfg, kind, searches: dict | None):
    """Greedily match h(x*) for the critical points x* of f against the
    independently discovered critical points of g; the two searches are
    taken from ``searches`` or run and stored there. Returns the records,
    the unmatched target points, the worst matched distance and whether
    every source point was matched."""
    searches = {} if searches is None else searches
    search = fixed_point_search if kind == FIXED else perpetual_point_search
    for side, fld in (("f", f), ("g", g)):
        if (side, kind) not in searches:
            sub = region.intersect(h.domain) if side == "f" else image_region(h)
            searches[side, kind] = search(fld, sub, cfg)
    f_points, g_points = searches["f", kind].points, searches["g", kind].points
    match_tol = _match_tol(cfg)
    taken = [False] * len(g_points)
    records: list[MatchRecord] = []
    worst = 0.0
    all_matched = True
    for p in f_points:
        try:
            mapped = h.value(p.location)
        except DomainError:
            records.append(MatchRecord(source=tuple(p.location), kind=p.kind,
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
        # non-injective maps may send several points onto one target
        if best_d > match_tol:
            for j, q in enumerate(g_points):
                d = float(np.linalg.norm(mapped - q.location))
                if d < best_d:
                    best_j, best_d = j, d
        if best_j >= 0 and best_d <= match_tol:
            taken[best_j] = True
            worst = max(worst, best_d)
            records.append(MatchRecord(source=tuple(p.location), mapped=tuple(mapped),
                                       matched=tuple(g_points[best_j].location),
                                       kind=p.kind, residual=best_d))
        else:
            all_matched = False
            records.append(MatchRecord(
                source=tuple(p.location), mapped=tuple(mapped), kind=p.kind,
                residual=best_d if best_d < math.inf else None,
                note="image does not coincide with any discovered target point"))
    unmatched_targets = [q for j, q in enumerate(g_points) if not taken[j]]
    return records, unmatched_targets, worst, all_matched


def verify_point_mapping(f: VectorField, h: TransformationMap, g: VectorField,
                         region: AnalysisRegion, cfg: SolverConfig, kind: str,
                         searches: dict | None = None) -> TheoremCheck:
    """Check that every critical point of f (of the given kind) inside
    region ∩ h.domain maps onto an independently discovered critical point
    of g. For perpetual points the verdict requires a linear map; nonlinear
    maps yield not-applicable with advisory details.
    """
    records, unmatched, worst, all_matched = _match_points(f, h, g, region, cfg, kind,
                                                           searches)
    for q in unmatched:
        records.append(MatchRecord(matched=tuple(q.location), kind=q.kind,
                                   note="target point has no preimage among mapped points"))
    theorem_id = "t1" if kind == FIXED else "t2"
    if kind == PERPETUAL and not h.declared_linear:
        return TheoremCheck(theorem_id, NOT_APPLICABLE, worst, tuple(records),
                            note="map is nonlinear; perpetual-point mapping is "
                                 "not guaranteed, details are advisory")
    verdict = HOLDS if all_matched else FAILS
    return TheoremCheck(theorem_id, verdict, worst, tuple(records))


def _similarity(dh: np.ndarray, dh_inv: np.ndarray, j_src: np.ndarray,
                j_dst: np.ndarray) -> float:
    pushed = dh @ j_src @ dh_inv
    denom = max(1.0, float(np.linalg.norm(pushed)))
    return float(np.linalg.norm(pushed - j_dst)) / denom


def verify_spectrum_preservation(f: VectorField, h: TransformationMap,
                                 g: VectorField, region: AnalysisRegion,
                                 cfg: SolverConfig,
                                 spectrum_tol: float = 1e-6,
                                 similarity_tol: float = 1e-7,
                                 searches: dict | None = None) -> TheoremCheck:
    """Check eigenvalue preservation at matched critical points, plus the
    two similarity identities as relative matrix residuals.

    Requires a linear map with invertible Jacobian (diffeomorphism
    hypothesis); anything else is not-applicable.
    """
    if not h.declared_linear:
        return TheoremCheck("t3", NOT_APPLICABLE, None, (),
                            note="map is nonlinear; eigenvalue preservation is "
                                 "not guaranteed")
    linear = h.linear_part
    if linear.inverse is None:
        return TheoremCheck("t3", NOT_APPLICABLE, None, (),
                            note=f"map Jacobian is singular (min pivot "
                                 f"{min_pivot(linear.matrix):.3e}); not a diffeomorphism")
    records: list[MatchRecord] = []
    worst_sd = 0.0
    worst_sim = 0.0
    any_pair = False
    ok = True
    for kind in (FIXED, PERPETUAL):
        matched = _match_points(f, h, g, region, cfg, kind, searches)[0]
        if kind == FIXED:
            src_field, dst_field = f, g
        else:
            src_field, dst_field = acceleration_map(f), acceleration_map(g)
        for rec in matched:
            if rec.matched is None:
                continue
            any_pair = True
            try:
                j_src = src_field.jacobian(np.array(rec.source))
                j_dst = dst_field.jacobian(np.array(rec.matched))
                sd = spectrum_distance(eigenvalues(j_src), eigenvalues(j_dst))
                sim = _similarity(linear.matrix, linear.inverse, j_src, j_dst)
            except DomainError as err:
                records.append(replace(rec, note=f"spectra not evaluable: {err}"))
                ok = False
                continue
            worst_sd = max(worst_sd, sd)
            worst_sim = max(worst_sim, sim)
            if sd > spectrum_tol or sim > similarity_tol:
                ok = False
            records.append(replace(rec, spectrum_distance=sd, similarity_residual=sim))
    note = "" if any_pair else "no matched critical-point pairs to compare"
    verdict = HOLDS if ok else FAILS
    return TheoremCheck("t3", verdict, max(worst_sd, worst_sim) if any_pair else None,
                        tuple(records), tolerance=spectrum_tol, note=note)


def detect_new_points(f: VectorField, h: TransformationMap, g: VectorField,
                      region: AnalysisRegion, cfg: SolverConfig,
                      searches: dict | None = None) -> TheoremCheck:
    """List critical points of the transformed system with no preimage
    among the mapped ones.

    Verdict: holds when nothing new appears; a new point under an
    invertible linear map is a failure, under anything else an advisory
    (creation is possible there, not forbidden).
    """
    records: list[MatchRecord] = []
    new_found = False
    for kind in (FIXED, PERPETUAL):
        for q in _match_points(f, h, g, region, cfg, kind, searches)[1]:
            new_found = True
            records.append(MatchRecord(matched=tuple(q.location), kind=q.kind,
                                       note=f"newly created {q.kind} point"))
    if not new_found:
        return TheoremCheck("r1", HOLDS, 0.0, ())
    if _invertible_linear(h):
        return TheoremCheck("r1", FAILS, None, tuple(records),
                            note="new critical points under an invertible linear map")
    return TheoremCheck("r1", NOT_APPLICABLE, None, tuple(records),
                        note="new critical points found; possible for this map")


# ---------------------------------------------------------------------------
# Orchestration

def run_verification(f: VectorField, h: TransformationMap,
                     region: AnalysisRegion,
                     theorems: Sequence[str] = THEOREM_IDS,
                     t_end: float = 1.0,
                     flow_tol: float = 1e-6,
                     spectrum_tol: float = 1e-6,
                     similarity_tol: float = 1e-7,
                     cfg: SolverConfig = SolverConfig()) -> tuple[ConjugacyReport, VectorField]:
    """Run the requested checks against the transformed system built from
    h's declared inverse. The checks share one ``searches`` mapping, so
    each of the four point searches runs at most once."""
    unknown = set(theorems) - set(THEOREM_IDS)
    if unknown:
        raise ValueError(f"unknown theorem ids: {sorted(unknown)}")
    if not all(0.0 < t < math.inf for t in (flow_tol, spectrum_tol, similarity_tol)):
        raise ValueError("flow, spectrum and similarity tolerances must be finite and positive")
    g = transformed_system(f, h)
    searches: dict = {}
    checks: list[TheoremCheck] = []
    for tid in THEOREM_IDS:
        if tid not in theorems:
            continue
        if tid == "flow":
            pts = select_flow_points(f, h, region, _FLOW_POINTS, t_end)
            checks.append(verify_flow_conjugacy(f, g, h, pts, t_end, flow_tol))
        elif tid in ("t1", "t2"):
            kind = FIXED if tid == "t1" else PERPETUAL
            checks.append(verify_point_mapping(f, h, g, region, cfg, kind, searches))
        elif tid == "t3":
            checks.append(verify_spectrum_preservation(
                f, h, g, region, cfg, spectrum_tol, similarity_tol, searches))
        elif tid == "r1":
            checks.append(detect_new_points(f, h, g, region, cfg, searches))
    report = ConjugacyReport(
        system_name=f.name,
        transformed_name=g.name,
        map_sources=h.source_strings(),
        declared_linear=h.declared_linear,
        diffeomorphic=_invertible_linear(h),
        checks=tuple(checks),
        tolerances={"flow": flow_tol, "spectrum": spectrum_tol,
                    "similarity": similarity_tol,
                    "match": _match_tol(cfg)},
    )
    return report, g
