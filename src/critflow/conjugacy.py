"""Numerical verification of conjugacy relations for a (system, map) pair.

Five checks, each producing a verdict plus per-point records:

* ``flow``: the flows commute with the map, psi_t(h(x0)) = h(phi_t(x0)),
  sampled at evenly spaced times for a set of initial points;
* ``t1``: fixed points map onto independently discovered fixed points of
  the transformed system;
* ``t2``: perpetual points map likewise (decidable only for linear maps;
  nonlinear maps get advisory details instead of a verdict);
* ``t3``: eigenvalue spectra at matched points agree, and the Jacobians
  satisfy the similarity identities J' = Dh J Dh^-1 (velocity side) and
  likewise for the acceleration side, read from the matched points, which
  keep the spectrum and Jacobian their search computed;
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
run each search at most once. :func:`run_verification` fills the mapping
with every search its checks read before running them. The two sides are
independent, so it runs g's searches (and ``image_region(h)``) in one
forked worker process while the parent runs the flow check and then f's
searches; only after those does it read g's searches. Where no worker is
usable (see :mod:`critflow.worker`), g's searches run in the calling
process after f's. Both ways run the same
searches on the same inputs, so reports are byte-identical either way, and
both raise the same error: f's side first, then g's.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np

from .expr import DomainError
from .fields import TransformationMap, VectorField, image_region, transformed_system
from .flows import (BlowUpError, IntegratorConfig, StepUnderflowError, _sampled_states,
                    integrate)
from .linalg import min_pivot, spectrum_distance
from .points import (FIXED, PERPETUAL, SolverConfig, fixed_point_search,
                     perpetual_point_search)
from .region import AnalysisRegion, lattice_points
from .worker import forked

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
    except StepUnderflowError as err:
        return np.array(x0, dtype=float).reshape(1, -1), f"integration failed: {err}", True


def verify_flow_conjugacy(f: VectorField, g: VectorField, h: TransformationMap,
                          initial_points: Sequence, t_end: float, tol: float) -> TheoremCheck:
    """Check psi_t(h(x0)) = h(phi_t(x0)) over [0, t_end].

    The residual is the max norm difference over initial points and sample
    times. Samples after a blow-up, after phi leaves h's domain, or after
    either state norm passes the comparison ceiling are dropped (noted per
    point).

    When f's integration fails (its step size underflows, as it does
    where the trajectory leaves f's domain), only the initial point is
    compared, where psi_0(h(x0)) = h(x0) exactly, so g is not integrated
    from that point and the note names f's failure only. The samples f
    reached before failing are not compared: near the failure their
    residual is integrator error, which the tolerance does not model.
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
        except (BlowUpError, StepUnderflowError):
            inside = False
        (good if inside else rest).append(c)
    return (good + rest)[:count]


# ---------------------------------------------------------------------------
# Point mapping, spectra, new points

def _search(kind: str):
    # looked up on each call, so a replaced module attribute takes effect
    return fixed_point_search if kind == FIXED else perpetual_point_search


def _side_searches(side: str, fld, h: TransformationMap, region: AnalysisRegion,
                   kinds: Sequence[str], cfg: SolverConfig) -> list:
    """One side's search of each kind in ``kinds``, in that order: side
    ``"f"`` searches over region ∩ h.domain, side ``"g"`` over
    ``image_region(h)``. Neither region is computed when ``kinds`` is empty."""
    if not kinds:
        return []
    sub = region.intersect(h.domain) if side == "f" else image_region(h)
    return [_search(kind)(fld, sub, cfg) for kind in kinds]


def _match_tol(cfg: SolverConfig) -> float:
    """Distance within which h(x*) counts as landing on a target point."""
    return 10.0 * cfg.dedup_tol


def _invertible_linear(h: TransformationMap) -> bool:
    return h.declared_linear and h.linear_part.inverse is not None


def _match_points(f, h, g, region, cfg, kind, searches: dict | None):
    """Greedily match h(x*) for the critical points x* of f against the
    independently discovered critical points of g; the two searches are
    taken from ``searches`` or run and stored there. Returns the records,
    the unmatched target points, the worst matched distance, whether
    every source point was matched, and the matched (record, point of f,
    point of g) triples in source order."""
    searches = {} if searches is None else searches
    for side, fld in (("f", f), ("g", g)):
        if (side, kind) not in searches:
            searches[side, kind] = _side_searches(side, fld, h, region, [kind], cfg)[0]
    f_points, g_points = searches["f", kind].points, searches["g", kind].points
    match_tol = _match_tol(cfg)
    taken = [False] * len(g_points)
    records: list[MatchRecord] = []
    pairs = []
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
        dists = [float(np.linalg.norm(mapped - q.location)) for q in g_points]
        best_j, best_d = -1, math.inf
        for j, d in enumerate(dists):
            if d < best_d and not taken[j]:
                best_j, best_d = j, d
        # non-injective maps may send several points onto one target
        if best_d > match_tol:
            for j, d in enumerate(dists):
                if d < best_d:
                    best_j, best_d = j, d
        if best_j >= 0 and best_d <= match_tol:
            taken[best_j] = True
            worst = max(worst, best_d)
            q = g_points[best_j]
            records.append(MatchRecord(source=tuple(p.location), mapped=tuple(mapped),
                                       matched=tuple(q.location), kind=p.kind, residual=best_d))
            pairs.append((records[-1], p, q))
        else:
            all_matched = False
            records.append(MatchRecord(
                source=tuple(p.location), mapped=tuple(mapped), kind=p.kind,
                residual=best_d if best_d < math.inf else None,
                note="image does not coincide with any discovered target point"))
    unmatched_targets = [q for j, q in enumerate(g_points) if not taken[j]]
    return records, unmatched_targets, worst, all_matched, pairs


def verify_point_mapping(f: VectorField, h: TransformationMap, g: VectorField,
                         region: AnalysisRegion, cfg: SolverConfig, kind: str,
                         searches: dict | None = None) -> TheoremCheck:
    """Check that every critical point of f (of the given kind) inside
    region ∩ h.domain maps onto an independently discovered critical point
    of g. For perpetual points the verdict requires a linear map; nonlinear
    maps yield not-applicable with advisory details.
    """
    records, unmatched, worst, all_matched, _ = _match_points(f, h, g, region, cfg, kind,
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

    Each point's spectrum and Jacobian are the ones its search computed
    there, so this check evaluates neither. A pair whose spectrum is
    missing on either side fails with that point's note.

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
        for rec, p, q in _match_points(f, h, g, region, cfg, kind, searches)[4]:
            any_pair = True
            missing = next((pt for pt in (p, q) if pt.spectrum is None), None)
            if missing is not None:
                records.append(replace(rec, note=f"spectra not evaluable: {missing.note}"))
                ok = False
                continue
            sd = spectrum_distance(p.spectrum, q.spectrum)
            sim = _similarity(linear.matrix, linear.inverse, p.jacobian, q.jacobian)
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

def _search_kinds(h: TransformationMap, theorems: Sequence[str]) -> list[str]:
    """The kinds of point search the requested checks read, fixed first."""
    both = "r1" in theorems or ("t3" in theorems and _invertible_linear(h))
    return [kind for kind, tid in ((FIXED, "t1"), (PERPETUAL, "t2"))
            if both or tid in theorems]


def run_verification(f: VectorField, h: TransformationMap,
                     region: AnalysisRegion,
                     theorems: Sequence[str] = THEOREM_IDS,
                     t_end: float = 1.0,
                     flow_tol: float = 1e-6,
                     spectrum_tol: float = 1e-6,
                     similarity_tol: float = 1e-7,
                     cfg: SolverConfig = SolverConfig()) -> tuple[ConjugacyReport, VectorField]:
    """Run the requested checks against the transformed system built from
    h's declared inverse. ``theorems`` names at least one check of
    ``THEOREM_IDS``; anything else raises :class:`ValueError`.

    The point searches the checks read run first, each once, and the
    checks share them through one ``searches`` mapping. g's searches,
    with ``image_region(h)``, run in one forked worker process while this
    process runs the flow check and then f's searches; the worker sends
    the list of its :class:`~critflow.points.PointSearch` results,
    counters included, back through a pipe. Where no worker is usable
    (see :mod:`critflow.worker`), g's searches run here, after f's. The
    report is byte-identical either way.

    An exception from a check or a search is raised here with its type
    and message. This process's side comes first: an exception from the
    flow check or from f's searches is raised as it happens, and g's
    first exception only when f's side succeeded. The rule is the same
    with and without the worker, which never outlives the call.
    """
    if not theorems:
        raise ValueError("no theorem ids given: a run without checks verifies nothing")
    unknown = set(theorems) - set(THEOREM_IDS)
    if unknown:
        raise ValueError(f"unknown theorem ids: {sorted(unknown)}")
    if not all(0.0 < t < math.inf for t in (t_end, flow_tol, spectrum_tol, similarity_tol)):
        raise ValueError("t_end and the flow, spectrum and similarity tolerances must be "
                         "finite and positive")
    g = transformed_system(f, h)
    kinds = _search_kinds(h, theorems)
    g_side = partial(_side_searches, "g", g, h, region, kinds, cfg)
    worker = forked(g_side) if kinds else contextlib.nullcontext(g_side)
    flow = None
    with worker as g_result:
        if "flow" in theorems:
            pts = select_flow_points(f, h, region, _FLOW_POINTS, t_end)
            flow = verify_flow_conjugacy(f, g, h, pts, t_end, flow_tol)
        found = _side_searches("f", f, h, region, kinds, cfg) + g_result()
    searches = dict(zip([(side, kind) for side in ("f", "g") for kind in kinds], found))
    checks: list[TheoremCheck] = []
    for tid in THEOREM_IDS:
        if tid not in theorems:
            continue
        if tid == "flow":
            checks.append(flow)
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
