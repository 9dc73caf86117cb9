"""Location and classification of critical points.

Fixed points are zeros of the velocity field f; perpetual points are zeros
of the acceleration field F = Df f at which the velocity stays above the
velocity floor. Both are found by multi-start damped Newton iteration
seeded on a deterministic stratified lattice, then deduplicated.

Newton iterates may wander slightly outside the search region (a cushion
of 10% of each dimension's span); converged roots outside the region
proper are kept but flagged ``boundary``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from .expr import DomainError
from .fields import VectorField, VectorMap, acceleration_map
from .linalg import (EigenConvergenceError, SingularMatrixError, Spectrum,
                     eigenvalues, is_degenerate, solve_linear)
from .region import AnalysisRegion, lattice_points

__all__ = [
    "FIXED", "PERPETUAL", "SolverConfig", "CriticalPoint", "PointSearch",
    "NoConvergenceError", "newton_root", "find_fixed_points",
    "find_perpetual_points", "fixed_point_search", "perpetual_point_search",
    "classify_point",
]

FIXED = "fixed"
PERPETUAL = "perpetual"

#: more than this many mutually distinct degenerate roots means the zero set
#: is almost surely a continuum, not isolated points
_CONTINUUM_THRESHOLD = 10


@dataclass(frozen=True)
class SolverConfig:
    seed_count: int = 100
    max_newton_iters: int = 100
    root_tol: float = 1e-10
    dedup_tol: float = 1e-6
    velocity_floor: float = 1e-6
    damping_factor: float = 0.5
    min_step: float = 1e-12
    rng_seed: int = 0
    region_cushion: float = 0.1

    def __post_init__(self):
        if min(self.root_tol, self.dedup_tol, self.velocity_floor, self.min_step) <= 0:
            raise ValueError("tolerances must be positive")
        if not self.root_tol < self.dedup_tol:
            raise ValueError("root_tol must be smaller than dedup_tol")
        if self.seed_count < 1 or self.max_newton_iters < 1:
            raise ValueError("seed_count and max_newton_iters must be >= 1")
        if not 0.0 < self.damping_factor < 1.0:
            raise ValueError("damping_factor must lie in (0, 1)")


@dataclass(frozen=True)
class CriticalPoint:
    kind: str  # FIXED or PERPETUAL
    location: np.ndarray
    residual: float  # norm of the solved field at the location
    velocity: np.ndarray  # f at the location (signed)
    spectrum: Spectrum | None
    degenerate: bool = False  # Jacobian of the solved field singular here
    boundary: bool = False  # converged outside the region proper
    note: str = ""

    @property
    def speed(self) -> float:
        return float(np.linalg.norm(self.velocity))

    def sort_key(self):
        return tuple(self.location)


@dataclass
class PointSearch:
    """A critical-point search with its side diagnostics."""
    points: list[CriticalPoint]
    warnings: list[str] = field(default_factory=list)
    seeds_used: int = 0
    seeds_converged: int = 0

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


def _residual(fieldmap: VectorMap, x: np.ndarray) -> tuple[np.ndarray, float] | None:
    try:
        v = fieldmap.value(x)
    except DomainError:
        return None
    return v, math.sqrt(v.dot(v))


def _polish(fieldmap: VectorMap, x, fx, r):
    # a few extra full steps push the residual toward machine precision
    for _ in range(3):
        try:
            step = solve_linear(fieldmap.jacobian(x), -fx)
        except (SingularMatrixError, DomainError):
            break
        trial = _residual(fieldmap, x + step)
        if trial is None or trial[1] >= r:
            break
        x = x + step
        fx, r = trial
    return x, r


def _trial_point(lo, hi, xs: list[float], ss: list[float], t: float) -> np.ndarray | None:
    """``x + t * step``, or None when that leaves the box [lo, hi]. Worked
    out on scalars with the same float operations as the array expression,
    so a rejected trial builds no array."""
    trial = [xi + t * si for xi, si in zip(xs, ss)]
    for v, l, h in zip(trial, lo, hi):
        if not l <= v <= h:
            return None
    return np.array(trial)


def _newton(fieldmap: VectorMap, seed, box: tuple, cfg: SolverConfig) -> _Outcome:
    """Damped Newton from ``seed``; ``box`` is the (lower, upper) pair of
    the cushioned search region that trial points must stay in."""
    lo, hi = box
    x = np.array(seed, dtype=float)
    state = _residual(fieldmap, x)
    if state is None:
        return _Outcome(None, math.inf, 0, "domain-error-at-seed")
    fx, r = state

    for it in range(cfg.max_newton_iters):
        if r <= cfg.root_tol:
            x, r = _polish(fieldmap, x, fx, r)
            return _Outcome(x, r, it, "converged")
        try:
            jac = fieldmap.jacobian(x)
        except DomainError:
            return _Outcome(None, r, it, "domain-error")
        try:
            step = solve_linear(jac, -fx)
        except SingularMatrixError:
            return _Outcome(None, r, it, "singular-jacobian")

        # backtracking line search on ||field||^2 with sufficient decrease;
        # out-of-cushion or out-of-domain trials count as infinitely bad.
        # Valid trials that still fail below t = 1e-6 prove the direction is
        # no descent (the merit is smooth), so bail out early there; only
        # invalid trials (domain/region walls) justify halving to min_step.
        t = 1.0
        accepted = False
        exited = False
        xs, ss = x.tolist(), step.tolist()
        while t >= cfg.min_step:
            trial_x = _trial_point(lo, hi, xs, ss, t)
            if trial_x is None:
                exited = exited or t == 1.0
                t *= cfg.damping_factor
                continue
            trial = _residual(fieldmap, trial_x)
            if trial is not None:
                if trial[1] ** 2 <= r * r * (1.0 - 1e-4 * t):
                    x, (fx, r) = trial_x, trial
                    accepted = True
                    break
                if t < 1e-6:
                    break
            t *= cfg.damping_factor
        if not accepted:
            return _Outcome(None, r, it, "region-exit" if exited else "no-descent")

    if r <= cfg.root_tol:
        return _Outcome(x, r, cfg.max_newton_iters, "converged")
    return _Outcome(None, r, cfg.max_newton_iters, "iteration-cap")


def newton_root(fieldmap: VectorMap, seed, region: AnalysisRegion,
                cfg: SolverConfig = SolverConfig()) -> np.ndarray:
    """Damped Newton from ``seed``; returns a point with ||field|| <= root_tol
    or raises :class:`NoConvergenceError` with diagnostics."""
    out = _newton(fieldmap, seed, region.cushioned_bounds(cfg.region_cushion), cfg)
    if out.point is None:
        raise NoConvergenceError(out.reason, out.iterations, out.residual)
    return out.point


# ---------------------------------------------------------------------------
# Multi-start search

def _collect_roots(fieldmap: VectorMap, region: AnalysisRegion, cfg: SolverConfig):
    seeds = lattice_points(region, cfg.seed_count, cfg.rng_seed)
    box = region.cushioned_bounds(cfg.region_cushion)
    hits: list[tuple[np.ndarray, float]] = []
    converged = singular = 0
    for seed in seeds:
        out = _newton(fieldmap, seed, box, cfg)
        if out.point is not None:
            hits.append((out.point, out.residual))
            converged += 1
        elif out.reason == "singular-jacobian":
            singular += 1
    # lowest-residual representative wins its dedup cluster
    hits.sort(key=lambda h: (h[1], tuple(h[0])))
    kept: list[tuple[np.ndarray, float]] = []
    for point, res in hits:
        if all(np.linalg.norm(point - q) > cfg.dedup_tol for q, _ in kept):
            kept.append((point, res))
    return kept, len(seeds), converged, singular


def _spectrum_of(fieldmap: VectorMap, location) -> tuple[Spectrum | None, bool, str]:
    try:
        jac = fieldmap.jacobian(location)
    except DomainError:
        return None, True, "field Jacobian not evaluable at this point"
    try:
        spec = eigenvalues(jac)
    except EigenConvergenceError:
        return None, is_degenerate(jac), "eigenvalue iteration did not converge"
    return spec, is_degenerate(jac), ""


def _run_search(f: VectorField, solved: VectorMap, kind: str,
                region: AnalysisRegion, cfg: SolverConfig) -> PointSearch:
    roots, used, converged, singular = _collect_roots(solved, region, cfg)
    points: list[CriticalPoint] = []
    for location, residual in roots:
        try:
            velocity = f.value(location)
        except DomainError:
            velocity = np.full(f.dimension, np.nan)
        speed = float(np.linalg.norm(velocity))
        if kind == PERPETUAL and speed <= cfg.velocity_floor:
            continue  # a zero of F that is actually a fixed point
        spectrum, degenerate, note = _spectrum_of(solved, location)
        points.append(CriticalPoint(
            kind=kind,
            location=location,
            residual=residual,
            velocity=velocity,
            spectrum=spectrum,
            degenerate=degenerate,
            boundary=not region.contains(location),
            note=note,
        ))
    points.sort(key=CriticalPoint.sort_key)
    search = PointSearch(points=points, seeds_used=used, seeds_converged=converged)
    n_degenerate = sum(1 for p in points if p.degenerate)
    if n_degenerate > _CONTINUUM_THRESHOLD:
        search.warnings.append(
            f"degenerate continuum suspected: {n_degenerate} mutually distinct "
            f"degenerate {kind}-point roots; the zero set of the solved field is "
            f"not isolated and this list is not exhaustive")
    if converged == 0 and singular:
        search.warnings.append(
            f"no seed converged: {singular} of {used} seeds stopped on a singular Jacobian "
            f"of the solved field, so its {kind}-point roots may not be isolated")
    return search


def fixed_point_search(f: VectorField, region: AnalysisRegion,
                       cfg: SolverConfig = SolverConfig()) -> PointSearch:
    return _run_search(f, f, FIXED, region, cfg)


def perpetual_point_search(f: VectorField, region: AnalysisRegion,
                           cfg: SolverConfig = SolverConfig(),
                           accel=None) -> PointSearch:
    return _run_search(f, accel if accel is not None else acceleration_map(f),
                       PERPETUAL, region, cfg)


def find_fixed_points(f: VectorField, region: AnalysisRegion,
                      cfg: SolverConfig = SolverConfig()) -> list[CriticalPoint]:
    """Deduplicated fixed points of f inside ``region``, sorted by location,
    each carrying the eigenvalues of Df."""
    return fixed_point_search(f, region, cfg).points


def find_perpetual_points(f: VectorField, region: AnalysisRegion,
                          cfg: SolverConfig = SolverConfig()) -> list[CriticalPoint]:
    """Deduplicated perpetual points of f inside ``region``: zeros of the
    acceleration field with speed above the velocity floor, each carrying
    the eigenvalues of DF and the signed velocity."""
    return perpetual_point_search(f, region, cfg).points


def classify_point(f: VectorField, point,
                   cfg: SolverConfig = SolverConfig()) -> CriticalPoint | None:
    """Classify a single point as fixed, perpetual, or neither.

    Fixed: both f and F vanish there (to root_tol scale). Perpetual: only F
    does while the speed clears the velocity floor.
    """
    x = np.array(point, dtype=float)
    try:
        jf = f.jet(x, order=1)
    except DomainError:
        return None
    velocity = jf.value
    accel = jf.jacobian @ velocity
    speed = float(np.linalg.norm(velocity))
    accel_norm = float(np.linalg.norm(accel))
    accel_tol = cfg.root_tol * max(1.0, float(np.linalg.norm(jf.jacobian, np.inf)))
    if accel_norm > accel_tol:
        return None
    if speed <= cfg.velocity_floor:
        kind, fieldmap, residual = FIXED, f, speed
    else:
        kind, fieldmap, residual = PERPETUAL, acceleration_map(f), accel_norm
    spectrum, degenerate, note = _spectrum_of(fieldmap, x)
    return CriticalPoint(kind=kind, location=x, residual=residual,
                         velocity=velocity, spectrum=spectrum,
                         degenerate=degenerate, boundary=False, note=note)
