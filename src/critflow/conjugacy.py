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
non-circular. For each kind, one matching (``_Matching``) pairs the images
h(x*) of f's critical points, searched over region ∩ h.domain, with the
transformed system's own, searched over ``image_region(h)``: ``t1``/``t2``
read it, ``t3`` its pairs and ``r1`` its unmatched targets.

:func:`run_verification` runs each search its checks read once, sharing
the Newton seeds with a forked worker, and builds each matching once. The
public point checks take an optional ``searches`` mapping keyed ``(side,
kind)``, side ``"f"`` or ``"g"``: each runs and stores the searches the
mapping lacks, so checks handed one mapping run each search at most once,
and then builds its own matchings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .expr import DomainError
from .fields import TransformationMap, VectorField, image_region, transformed_system
from .flows import (BlowUpError, IntegratorConfig, StepUnderflowError, _sampled_states,
                    integrate)
from .linalg import min_pivot, spectrum_distance
from .points import (FIXED, PERPETUAL, SolverConfig, _plan_search, _searches, _seed_queue,
                     fixed_point_search, perpetual_point_search)
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
#: the similarity identities are held to the flow and spectrum tolerance over this
_SIMILARITY_DIVISOR = 10.0


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
    point). An initial point outside h's domain, or one where h cannot be
    evaluated, is skipped and recorded with a note.

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
        try:
            y0 = h.value(x0)
        except DomainError:
            records.append(MatchRecord(source=tuple(x0),
                                       note="skipped: map not evaluable at initial point"))
            continue
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
                       region: AnalysisRegion, t_end: float) -> list[np.ndarray]:
    """Up to ``_FLOW_POINTS`` deterministic initial points for the flow
    check: a stratified lattice over region ∩ h.domain, without the points
    where h cannot be evaluated, preferring points whose trajectory stays
    inside the map domain and bounded over [0, t_end].

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
    candidates = lattice_points(base, 4 * _FLOW_POINTS, rng_seed=0)
    quick = IntegratorConfig(tol=1e-6, t_end=float(t_end), sample_count=_FLOW_SAMPLES)
    good: list[np.ndarray] = []
    rest: list[np.ndarray] = []
    for c in candidates:
        if len(good) >= _FLOW_POINTS:
            break
        if h._kernel(0)(*c.tolist()) is None:
            continue
        try:
            inside = all(h.domain.contains(s) for s in _sampled_states(f, c, quick))
        except (BlowUpError, StepUnderflowError):
            inside = False
        (good if inside else rest).append(c)
    return (good + rest)[:_FLOW_POINTS]


# ---------------------------------------------------------------------------
# Point mapping, spectra, new points

def _side_region(side: str, h: TransformationMap, region: AnalysisRegion) -> AnalysisRegion:
    """The region a side is searched over: region ∩ h.domain for ``"f"``,
    ``image_region(h)`` for ``"g"``."""
    return region.intersect(h.domain) if side == "f" else image_region(h)


def _match_tol(cfg: SolverConfig) -> float:
    """Distance within which h(x*) counts as landing on a target point."""
    return 10.0 * cfg.dedup_tol


def _invertible_linear(h: TransformationMap) -> bool:
    return h.declared_linear and h.linear_part.inverse is not None


class _Matching(NamedTuple):
    """One kind's matching, built by :func:`_matching`."""
    records: tuple[MatchRecord, ...]  # one per point of f, in source order
    pairs: tuple  # (record, point of f, point of g) of each matched record
    unmatched: tuple  # the points of g no record took
    worst: float  # the worst matched distance
    all_matched: bool


def _matching(f_points, g_points, h: TransformationMap, match_tol: float) -> _Matching:
    """Greedily match h(x*) for the critical points x* of f, in order, with
    the critical points of g: each takes the nearest untaken one within
    ``match_tol``, or else the nearest one within it, taken or not."""
    taken = [False] * len(g_points)
    records, pairs, worst, all_matched = [], [], 0.0, True
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
    unmatched = tuple(q for j, q in enumerate(g_points) if not taken[j])
    return _Matching(tuple(records), tuple(pairs), unmatched, worst, all_matched)


def _searched_matchings(f, h, g, region, cfg, kinds, searches: dict | None) -> Iterator[_Matching]:
    """The matchings of ``kinds`` from ``searches``, where a search it lacks
    is run and stored first: the one place where a check runs a search."""
    searches = {} if searches is None else searches
    for kind in kinds:
        for side, fld in (("f", f), ("g", g)):
            if (side, kind) not in searches:
                # looked up on each call, so a replaced module attribute takes effect
                search = fixed_point_search if kind == FIXED else perpetual_point_search
                searches[side, kind] = search(fld, _side_region(side, h, region), cfg)
        yield _matching(searches["f", kind].points, searches["g", kind].points, h,
                        _match_tol(cfg))


def _point_mapping(h: TransformationMap, kind: str, matching: _Matching) -> TheoremCheck:
    records = matching.records + tuple(
        MatchRecord(matched=tuple(q.location), kind=q.kind,
                    note="target point has no preimage among mapped points")
        for q in matching.unmatched)
    theorem_id = "t1" if kind == FIXED else "t2"
    if kind == PERPETUAL and not h.declared_linear:
        return TheoremCheck(theorem_id, NOT_APPLICABLE, matching.worst, records,
                            note="map is nonlinear; perpetual-point mapping is "
                                 "not guaranteed, details are advisory")
    verdict = HOLDS if matching.all_matched else FAILS
    return TheoremCheck(theorem_id, verdict, matching.worst, records)


def verify_point_mapping(f: VectorField, h: TransformationMap, g: VectorField,
                         region: AnalysisRegion, cfg: SolverConfig, kind: str,
                         searches: dict | None = None) -> TheoremCheck:
    """Check that every critical point of f (of the given kind) inside
    region ∩ h.domain maps onto an independently discovered critical point
    of g. For perpetual points the verdict requires a linear map; nonlinear
    maps yield not-applicable with advisory details.
    """
    return _point_mapping(h, kind, *_searched_matchings(f, h, g, region, cfg, (kind,),
                                                        searches))


def _similarity(dh: np.ndarray, dh_inv: np.ndarray, j_src: np.ndarray,
                j_dst: np.ndarray) -> float:
    pushed = dh @ j_src @ dh_inv
    denom = max(1.0, float(np.linalg.norm(pushed)))
    return float(np.linalg.norm(pushed - j_dst)) / denom


def _spectrum_preservation(h: TransformationMap, matchings, tol: float) -> TheoremCheck:
    """``t3``; reads ``matchings`` only for an invertible linear map."""
    if not h.declared_linear:
        return TheoremCheck("t3", NOT_APPLICABLE, None, (),
                            note="map is nonlinear; eigenvalue preservation is "
                                 "not guaranteed")
    linear = h.linear_part
    if linear.inverse is None:
        return TheoremCheck("t3", NOT_APPLICABLE, None, (),
                            note=f"map Jacobian is singular (min pivot "
                                 f"{min_pivot(linear.matrix):.3e}); not a diffeomorphism")
    records: list[MatchRecord] = []  # one per pair
    worst = 0.0
    decided, ok = False, True  # decided: a pair that was compared or failed
    for matching in matchings:
        for rec, p, q in matching.pairs:
            missing = next((pt for pt in (p, q) if pt.spectrum is None), None)
            if missing is not None:
                records.append(replace(rec, note=f"spectra not evaluable: {missing.note}"))
                # a pair differentiable on neither side is outside the theorem
                if p.jacobian is not None or q.jacobian is not None:
                    ok, decided = False, True
                continue
            decided = True
            sd = spectrum_distance(p.spectrum, q.spectrum)
            sim = _similarity(linear.matrix, linear.inverse, p.jacobian, q.jacobian)
            worst = max(worst, sd, sim)
            if sd > tol or sim > tol / _SIMILARITY_DIVISOR:
                ok = False
            records.append(replace(rec, spectrum_distance=sd, similarity_residual=sim))
    if not decided:  # then ok is still True
        note = ("no matched pair has a Jacobian on either side to compare" if records
                else "no matched critical-point pairs to compare")
        return TheoremCheck("t3", NOT_APPLICABLE, None, tuple(records), tolerance=tol, note=note)
    return TheoremCheck("t3", HOLDS if ok else FAILS, worst, tuple(records), tolerance=tol)


def verify_spectrum_preservation(f: VectorField, h: TransformationMap,
                                 g: VectorField, region: AnalysisRegion,
                                 cfg: SolverConfig, tol: float = 1e-6,
                                 searches: dict | None = None) -> TheoremCheck:
    """Check eigenvalue preservation at matched critical points, plus the
    two similarity identities as relative matrix residuals. A pair holds
    when its spectrum distance is at most ``tol`` and its similarity
    residual at most ``tol / 10``; the check's tolerance is ``tol``.

    Each point's spectrum and Jacobian are the ones its search computed
    there, so this check evaluates neither. A pair whose spectrum is
    missing on one side fails with that point's note, and so does a pair
    whose eigenvalue computation did not converge. A pair whose Jacobian is
    not evaluable on both sides, such as a fixed point on a domain wall of
    the field, is listed with its note but decides nothing: the theorem's
    differentiability hypothesis fails there. When no pair is compared,
    the check is not-applicable.

    Requires a linear map with invertible Jacobian (diffeomorphism
    hypothesis); anything else is not-applicable, and runs no search.
    """
    kinds = (FIXED, PERPETUAL) if _invertible_linear(h) else ()
    return _spectrum_preservation(h, _searched_matchings(f, h, g, region, cfg, kinds, searches),
                                  tol)


def _new_points(h: TransformationMap, matchings) -> TheoremCheck:
    records = tuple(MatchRecord(matched=tuple(q.location), kind=q.kind,
                                note=f"newly created {q.kind} point")
                    for matching in matchings for q in matching.unmatched)
    if not records:
        return TheoremCheck("r1", HOLDS, 0.0, ())
    if _invertible_linear(h):
        return TheoremCheck("r1", FAILS, None, records,
                            note="new critical points under an invertible linear map")
    return TheoremCheck("r1", NOT_APPLICABLE, None, records,
                        note="new critical points found; possible for this map")


def detect_new_points(f: VectorField, h: TransformationMap, g: VectorField,
                      region: AnalysisRegion, cfg: SolverConfig,
                      searches: dict | None = None) -> TheoremCheck:
    """List critical points of the transformed system with no preimage
    among the mapped ones.

    Verdict: holds when nothing new appears; a new point under an
    invertible linear map is a failure, under anything else an advisory
    (creation is possible there, not forbidden).
    """
    return _new_points(h, _searched_matchings(f, h, g, region, cfg, (FIXED, PERPETUAL),
                                              searches))


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
                     tol: float = 1e-6,
                     cfg: SolverConfig = SolverConfig()) -> tuple[ConjugacyReport, VectorField]:
    """Run the requested checks against the transformed system built from
    h's declared inverse. ``theorems`` names at least one check of
    ``THEOREM_IDS``; anything else raises :class:`ValueError`. The flow
    check runs over [0, ``t_end``]. ``tol`` is the flow and spectrum
    tolerance, and ``tol / 10`` the similarity one (see ``tolerances``).

    The point searches the checks read run first, each once. Their Newton
    seeds run from one queue (:func:`~critflow.points._seed_queue`) that a
    forked worker starts to drain at once, while this process runs the
    flow check and then drains it too; where no worker is usable (see
    :mod:`critflow.worker`), this process runs every seed. Each search is
    finished here from its runs in seed order, so the report is
    byte-identical either way. One matching per kind searched is then
    built, once, and the checks read it.

    An exception from a check or a search is raised by this process's own
    call, with all its attributes: the first in the order flow, f's fixed
    and perpetual searches, g's fixed and perpetual searches. A flow error
    is raised as it happens; a failed Newton run by the serial loop over
    the seeds no process completed, which raises the lowest failing seed's
    error of the first failing search (a worker whose run raised, or that
    ended early, sends nothing); an error from planning a search
    (``image_region(h)``, say) only when the searches before it succeeded.
    The rule is the same with and without the worker, which never
    outlives the call.
    """
    if not theorems:
        raise ValueError("no theorem ids given: a run without checks verifies nothing")
    unknown = set(theorems) - set(THEOREM_IDS)
    if unknown:
        raise ValueError(f"unknown theorem ids: {sorted(unknown)}")
    if not all(0.0 < t < math.inf for t in (t_end, tol)):
        raise ValueError("t_end and tol must be finite and positive")
    g = transformed_system(f, h)
    kinds = _search_kinds(h, theorems)
    plans, unplanned = [], None
    try:
        for side, fld in (("f", f), ("g", g)):
            if kinds:
                sub = _side_region(side, h, region)
                plans += [_plan_search(fld, kind, sub, cfg) for kind in kinds]
    except Exception as err:  # raised once the searches planned before it succeed
        unplanned = err
    flow = None
    with _seed_queue(plans, cfg) as drain:
        if "flow" in theorems:
            pts = select_flow_points(f, h, region, t_end)
            flow = verify_flow_conjugacy(f, g, h, pts, t_end, tol)
        runs = drain()
    found = _searches(plans, runs, cfg)
    if unplanned is not None:
        raise unplanned
    matchings = {kind: _matching(on_f.points, on_g.points, h, _match_tol(cfg))
                 for kind, on_f, on_g in zip(kinds, found, found[len(kinds):])}
    bodies = {"flow": lambda: flow,
              "t1": lambda: _point_mapping(h, FIXED, matchings[FIXED]),
              "t2": lambda: _point_mapping(h, PERPETUAL, matchings[PERPETUAL]),
              "t3": lambda: _spectrum_preservation(h, matchings.values(), tol),
              "r1": lambda: _new_points(h, matchings.values())}
    checks = tuple(bodies[tid]() for tid in THEOREM_IDS if tid in theorems)
    report = ConjugacyReport(
        system_name=f.name,
        transformed_name=g.name,
        map_sources=h.source_strings(),
        declared_linear=h.declared_linear,
        diffeomorphic=_invertible_linear(h),
        checks=checks,
        tolerances={"flow": tol, "spectrum": tol, "similarity": tol / _SIMILARITY_DIVISOR,
                    "match": _match_tol(cfg)},
    )
    return report, g
