"""Location and classification of critical points.

Fixed points are zeros of the velocity field f; perpetual points are zeros
of the acceleration field F = Df f at which the velocity stays above the
velocity floor. Both are found by multi-start damped Newton iteration
seeded on a deterministic stratified lattice, then deduplicated.

Newton iterates may wander slightly outside the search region (a cushion
of 10% of each dimension's span); converged roots outside the region
proper are kept but flagged ``boundary``.

Newton runs on Python floats from end to end. The solved map's kernel
tuples (``_values``, and ``_entries_at(1, x)``, the Jacobian flat and
row-major) feed a ``math.hypot`` residual and the generated elimination of
:mod:`critflow.linalg`, trial points stay lists, and an array is built
only for a returned root. At a point outside the solved map's domain
those tuples are None: a trial there counts as infinitely bad, a step
there ends the run as "domain-error", and no error message is built.
The sufficient-decrease test compares products,
``rt * rt <= r * r * (1 - 1e-4 t)``: a float ``** 2`` raises
``OverflowError`` above 1.34e154, where a product gives inf, and a steep
field's residual norm can pass that. Where ``r * r`` is inf the products
would accept any finite trial, so the test compares the ratio
``(rt / r) * (rt / r) <= 1 - 1e-4 t`` instead; the search then takes the
same steps at every scale c of a field c·f. Roots within ``dedup_tol`` of
each other (``math.dist`` on Python floats) count once. Each search counts
its seeds' outcomes and its evaluations on the :class:`PointSearch`.
Each point keeps the solved map's Jacobian at its location, the matrix
its spectrum and ``degenerate`` flag come from, for the checks to read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from .expr import DomainError
from .fields import VectorField, VectorMap, acceleration_map
from .linalg import (EigenConvergenceError, SingularMatrixError, Spectrum,
                     _solve, eigenvalues, is_degenerate)
from .region import AnalysisRegion, lattice_points

__all__ = [
    "FIXED", "PERPETUAL", "SolverConfig", "CriticalPoint", "PointSearch",
    "NoConvergenceError", "newton_root", "fixed_point_search",
    "perpetual_point_search", "classify_point",
]

FIXED = "fixed"
PERPETUAL = "perpetual"

#: more than this many mutually distinct degenerate roots means the zero set
#: is almost surely a continuum, not isolated points
_CONTINUUM_THRESHOLD = 10

#: the line search scales its step by this factor after a rejected trial
#: and gives up below the smallest step
_DAMPING = 0.5
_MIN_STEP = 1e-12
#: trial points may leave the region by this fraction of each span
_REGION_CUSHION = 0.1


@dataclass(frozen=True)
class SolverConfig:
    seed_count: int = 100
    max_newton_iters: int = 100
    root_tol: float = 1e-10
    dedup_tol: float = 1e-6
    velocity_floor: float = 1e-6
    rng_seed: int = 0

    def __post_init__(self):
        if not all(0.0 < t < math.inf for t in (self.root_tol, self.dedup_tol,
                                               self.velocity_floor)):
            raise ValueError("tolerances must be finite and positive")
        if not self.root_tol < self.dedup_tol:
            raise ValueError("root_tol must be smaller than dedup_tol")
        if self.seed_count < 1 or self.max_newton_iters < 1:
            raise ValueError("seed_count and max_newton_iters must be >= 1")


@dataclass(frozen=True)
class CriticalPoint:
    """``jacobian`` is the solved map's (Df, or DF for a perpetual point)
    at ``location`` as the search computed it, and ``spectrum`` its
    eigenvalues; ``note`` says why ``spectrum`` is None."""
    kind: str  # FIXED or PERPETUAL
    location: np.ndarray
    residual: float  # norm of the solved field at the location
    velocity: np.ndarray  # f at the location (signed)
    spectrum: Spectrum | None
    degenerate: bool = False  # Jacobian of the solved field singular here
    boundary: bool = False  # converged outside the region proper
    note: str = ""
    jacobian: np.ndarray | None = None  # of the solved map at the location

    @property
    def speed(self) -> float:
        return float(np.linalg.norm(self.velocity))

    def sort_key(self):
        return tuple(self.location)


@dataclass
class PointSearch:
    """A critical-point search with its side diagnostics.

    The counters are deterministic: ``reasons`` counts the seeds' Newton
    outcomes ("converged", "singular-jacobian", "no-descent", ...; they
    sum to ``seeds_used``), and ``residual_evals``, ``jacobian_evals`` and
    ``solves`` count the solved field's evaluations and the linear solves
    of every Newton run, polishing included. They are not in the report.
    """
    points: list[CriticalPoint]
    warnings: list[str] = field(default_factory=list)
    seeds_used: int = 0
    seeds_converged: int = 0
    reasons: dict[str, int] = field(default_factory=dict)
    residual_evals: int = 0
    jacobian_evals: int = 0
    solves: int = 0

    @property
    def clean_points(self) -> list[CriticalPoint]:
        return [p for p in self.points if not p.degenerate]


class NoConvergenceError(RuntimeError):
    def __init__(self, reason: str, iterations: int, residual: float):
        super().__init__(f"Newton failed ({reason}) after {iterations} iterations, "
                         f"last residual {residual:.3e}")
        self.reason = reason
        self.iterations = iterations
        self.residual = residual


# ---------------------------------------------------------------------------
# Damped Newton

@dataclass
class _Outcome:
    point: np.ndarray | None
    residual: float
    iterations: int
    reason: str


def _residual(fieldmap: VectorMap, x: list[float], work: PointSearch):
    """(field values, their 2-norm) at ``x``, or None outside the domain;
    ``work`` counts the evaluation."""
    work.residual_evals += 1
    fx = fieldmap._values(x)
    return None if fx is None else (fx, math.hypot(*fx))


def _step(fieldmap: VectorMap, x: list[float], fx, work: PointSearch) -> list[float] | None:
    """The Newton step at ``x``, or None where the Jacobian is not
    evaluable; raises SingularMatrixError."""
    work.jacobian_evals += 1
    jac = fieldmap._entries_at(1, x)
    if jac is None:
        return None
    work.solves += 1
    return _solve(jac, [-v for v in fx])


def _polish(fieldmap: VectorMap, x, fx, r, work: PointSearch):
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
    return x, r


def _trial_point(lo, hi, xs: list[float], ss: list[float], t: float) -> list[float] | None:
    """``x + t * step``, or None when that leaves the box [lo, hi]."""
    trial = [xi + t * si for xi, si in zip(xs, ss)]
    for v, l, h in zip(trial, lo, hi):
        if not l <= v <= h:
            return None
    return trial


def _newton(fieldmap: VectorMap, seed, box: tuple, cfg: SolverConfig,
            work: PointSearch) -> _Outcome:
    """Damped Newton from ``seed``; ``box`` is the (lower, upper) pair of
    the cushioned search region that trial points must stay in, and
    ``work`` counts the evaluations and solves."""
    lo, hi = box
    x = [float(v) for v in seed]
    state = _residual(fieldmap, x, work)
    if state is None:
        return _Outcome(None, math.inf, 0, "domain-error-at-seed")
    fx, r = state

    for it in range(cfg.max_newton_iters):
        if r <= cfg.root_tol:
            x, r = _polish(fieldmap, x, fx, r, work)
            return _Outcome(np.array(x), r, it, "converged")
        try:
            step = _step(fieldmap, x, fx, work)
        except SingularMatrixError:
            return _Outcome(None, r, it, "singular-jacobian")
        if step is None:
            return _Outcome(None, r, it, "domain-error")

        # backtracking line search on ||field||^2 with sufficient decrease;
        # out-of-cushion or out-of-domain trials count as infinitely bad.
        # Valid trials that still fail below t = 1e-6 prove the direction is
        # no descent (the merit is smooth), so bail out early there; only
        # invalid trials (domain/region walls) justify halving to _MIN_STEP.
        # The squares are products: a float ``** 2`` raises OverflowError
        # above 1.34e154, where a product gives inf. Past that r * r is inf
        # and accepts anything finite, so the test divides by r first.
        t = 1.0
        accepted = False
        exited = False
        while t >= _MIN_STEP:
            trial_x = _trial_point(lo, hi, x, step, t)
            if trial_x is None:
                exited = exited or t == 1.0
                t *= _DAMPING
                continue
            trial = _residual(fieldmap, trial_x, work)
            if trial is not None:
                rt, rr = trial[1], r * r
                if (rt * rt <= rr * (1.0 - 1e-4 * t) if rr != math.inf
                        else (rt / r) * (rt / r) <= 1.0 - 1e-4 * t):
                    x, (fx, r) = trial_x, trial
                    accepted = True
                    break
                if t < 1e-6:
                    break
            t *= _DAMPING
        if not accepted:
            return _Outcome(None, r, it, "region-exit" if exited else "no-descent")

    if r <= cfg.root_tol:
        return _Outcome(np.array(x), r, cfg.max_newton_iters, "converged")
    return _Outcome(None, r, cfg.max_newton_iters, "iteration-cap")


def newton_root(fieldmap: VectorMap, seed, region: AnalysisRegion,
                cfg: SolverConfig = SolverConfig()) -> np.ndarray:
    """Damped Newton from ``seed``; returns a point with ||field|| <= root_tol
    or raises :class:`NoConvergenceError` with diagnostics."""
    if len(seed) != region.dimension:
        raise ValueError(f"seed has {len(seed)} coordinates, region has {region.dimension}")
    out = _newton(fieldmap, seed, region.cushioned_bounds(_REGION_CUSHION), cfg, PointSearch(points=[]))
    if out.point is None:
        raise NoConvergenceError(out.reason, out.iterations, out.residual)
    return out.point


# ---------------------------------------------------------------------------
# Multi-start search

def _collect_roots(fieldmap: VectorMap, region: AnalysisRegion, cfg: SolverConfig,
                   search: PointSearch):
    """Deduplicated roots as (location, residual); ``search`` receives the
    seed counts, the outcome reasons and the evaluation counts."""
    seeds = lattice_points(region, cfg.seed_count, cfg.rng_seed).tolist()
    box = region.cushioned_bounds(_REGION_CUSHION)
    hits: list[tuple[np.ndarray, float]] = []
    reasons: dict[str, int] = {}
    for seed in seeds:
        out = _newton(fieldmap, seed, box, cfg, search)
        reasons[out.reason] = reasons.get(out.reason, 0) + 1
        if out.point is not None:
            hits.append((out.point, out.residual))
    # lowest-residual representative wins its dedup cluster
    hits.sort(key=lambda h: (h[1], tuple(h[0])))
    kept: list[tuple[np.ndarray, float]] = []
    kept_coords: list[list[float]] = []  # the kept points as Python floats
    for point, res in hits:
        coords = point.tolist()
        if all(math.dist(coords, q) > cfg.dedup_tol for q in kept_coords):
            kept.append((point, res))
            kept_coords.append(coords)
    search.seeds_used = len(seeds)
    search.seeds_converged = len(hits)
    search.reasons = dict(sorted(reasons.items()))
    return kept


def _spectrum_of(fieldmap: VectorMap, location) -> dict:
    """The :class:`CriticalPoint` fields that ``fieldmap``'s Jacobian decides."""
    flat = fieldmap._entries_at(1, location.tolist())
    if flat is None:
        return dict(spectrum=None, degenerate=True,
                    note="field Jacobian not evaluable at this point")
    jac = np.array(flat).reshape(fieldmap.n_out, fieldmap.n_in)
    try:
        spec, note = eigenvalues(jac), ""
    except EigenConvergenceError:
        spec, note = None, "eigenvalue computation did not converge"
    return dict(spectrum=spec, degenerate=is_degenerate(jac), note=note, jacobian=jac)


def _run_search(f: VectorField, solved: VectorMap, kind: str,
                region: AnalysisRegion, cfg: SolverConfig) -> PointSearch:
    search = PointSearch(points=[])
    roots = _collect_roots(solved, region, cfg, search)
    points = search.points
    for location, residual in roots:
        try:
            velocity = f.value(location)
        except DomainError:
            velocity = np.full(f.dimension, np.nan)
        speed = float(np.linalg.norm(velocity))
        if kind == PERPETUAL and speed <= cfg.velocity_floor:
            continue  # a zero of F that is actually a fixed point
        points.append(CriticalPoint(kind=kind, location=location, residual=residual,
                                    velocity=velocity, boundary=not region.contains(location),
                                    **_spectrum_of(solved, location)))
    points.sort(key=CriticalPoint.sort_key)
    n_degenerate = sum(1 for p in points if p.degenerate)
    if n_degenerate > _CONTINUUM_THRESHOLD:
        search.warnings.append(
            f"degenerate continuum suspected: {n_degenerate} mutually distinct "
            f"degenerate {kind}-point roots; the zero set of the solved field is "
            f"not isolated and this list is not exhaustive")
    singular = search.reasons.get("singular-jacobian", 0)
    if search.seeds_converged == 0 and singular:
        search.warnings.append(
            f"no seed converged: {singular} of {search.seeds_used} seeds stopped on a "
            f"singular Jacobian of the solved field, so its {kind}-point roots may not "
            f"be isolated")
    return search


def fixed_point_search(f: VectorField, region: AnalysisRegion,
                       cfg: SolverConfig = SolverConfig()) -> PointSearch:
    """The search for fixed points of f inside ``region``. Its ``points``
    are deduplicated and sorted by location, each carrying the eigenvalues
    of Df."""
    return _run_search(f, f, FIXED, region, cfg)


def perpetual_point_search(f: VectorField, region: AnalysisRegion,
                           cfg: SolverConfig = SolverConfig()) -> PointSearch:
    """The search for perpetual points of f inside ``region``: zeros of the
    acceleration field with speed above the velocity floor. Its ``points``
    are deduplicated and sorted by location, each carrying the eigenvalues
    of DF and the signed velocity."""
    return _run_search(f, acceleration_map(f), PERPETUAL, region, cfg)


def classify_point(f: VectorField, point,
                   cfg: SolverConfig = SolverConfig()) -> CriticalPoint | None:
    """Classify a single point as fixed, perpetual, or neither.

    Fixed: both f and F vanish there (to root_tol scale). Perpetual: only F
    does while the speed clears the velocity floor.
    """
    x = np.array(point, dtype=float)
    try:
        velocity, jac = f.value(x), f.jacobian(x)
    except DomainError:
        return None
    accel = jac @ velocity
    speed = float(np.linalg.norm(velocity))
    accel_norm = float(np.linalg.norm(accel))
    accel_tol = cfg.root_tol * max(1.0, float(np.linalg.norm(jac, np.inf)))
    if accel_norm > accel_tol:
        return None
    if speed <= cfg.velocity_floor:
        kind, fieldmap, residual = FIXED, f, speed
    else:
        kind, fieldmap, residual = PERPETUAL, acceleration_map(f), accel_norm
    return CriticalPoint(kind=kind, location=x, residual=residual, velocity=velocity,
                         boundary=False, **_spectrum_of(fieldmap, x))
