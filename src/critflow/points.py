"""Location and classification of critical points.

Fixed points are zeros of the velocity field f; perpetual points are zeros
of the acceleration field F = Df f at which the velocity stays above the
velocity floor. Both are found by multi-start damped Newton iteration
seeded on a deterministic stratified lattice, then deduplicated.

Newton iterates may wander slightly outside the search region (a cushion
of 10% of each dimension's span); converged roots outside the region
proper are kept but flagged ``boundary``.

Each Newton run is one function, generated for each dimension with every
component written out and compiled on first use
(:func:`_newton_function`). It keeps the iterate in local floats, calls
the solved map's compiled kernels (``VectorMap._kernel``) and the
generated elimination of :mod:`critflow.linalg` directly, and tests the
trial point against the box component by component. It returns one tuple
of plain values: the root as a list of floats (None where the run
failed), the residual, the iterations and the reason, then its counts of
evaluations, Jacobians, solves, steps and backtracks
(``_WORK_COUNTERS``). A per-run value is one more element. At a point
outside the solved map's domain a kernel returns None, which the run
tests with ``is None``: a trial there counts as infinitely bad, a step
there ends the run as "domain-error", and no error message is built. The
sufficient-decrease test compares products,
``rt * rt <= r * r * (1 - 1e-4 t)``: a float ``** 2`` raises
``OverflowError`` above 1.34e154, where a product gives inf, and a steep
field's residual norm can pass that. Where ``r * r`` is inf the products
would accept any finite trial, so the test compares the ratio
``(rt / r) * (rt / r) <= 1 - 1e-4 t`` instead; the search then takes
the same steps at every scale c of a field c·f, up to the rounding of
c·f in a step's last bit. One loop (:func:`_runs`) runs blocks of seeds
and tags each run with its seed index. The search sorts its runs into
seed order, sums their counts and tallies their reasons on the
:class:`PointSearch`, and keeps one root of those within ``dedup_tol``
of each other (``math.dist`` on the floats). It builds arrays only for
the kept points. Each point keeps the solved
map's Jacobian at its location, the matrix its spectrum and
``degenerate`` flag come from, for the checks to read.

The searches and :func:`classify_point` accept a point by one rule and
build it with one constructor (:func:`_critical_point`): a fixed point
where hypot(f) <= root_tol, a perpetual point where hypot(F) <= root_tol
and the speed is above the velocity floor, both through the compiled
kernels. So ``classify_point`` at a point a search reports returns that
point, bit for bit, but for ``boundary``.

Every search that shares its seeds with a forked worker
(:mod:`critflow.worker`) runs them from one queue (:func:`_seed_queue`):
the calling process plans each search (its solved map, seeds and box,
:func:`_plan_search`), builds the maps' value and Jacobian kernels, writes
one entry per block of seeds to a pipe and forks one worker; then both
take the next entry from the pipe until it is empty, so each runs
whichever blocks it reaches first. An entry names a search and the first
seed of its block, so one queue serves a lone search and the four searches
of ``run_verification``, whose worker starts on the queue while the caller
checks the flow. A lone search shares its seeds where its map has three or
more inputs; one of one or two inputs is too short to pay for the fork,
which costs about 3 ms round trip in a 40 MB process on a 2-CPU VM. The
results are those of the serial loop, bit for bit: a Newton run depends
only on its seed and the kernels, and the worker sends its runs, plain
tuples, to the caller, which sorts them into seed order with its own and
then finishes each search (:func:`_searches`). Where a run raises in the
caller, or the worker sends nothing (a run raised there, or it ended
early), the caller runs the serial loop over the seeds no process
completed, which raises the exception of the lowest failing seed of the
first search with one. Where no worker is usable, the caller drains the
queue alone.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import worker
from .fields import VectorField, VectorMap, _floats, acceleration_map
from .linalg import (EigenConvergenceError, Spectrum, _elimination, eigenvalues,
                     is_degenerate)
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

#: a lone search of a map with at least this many inputs shares its seeds
#: with a forked worker; below it a run is too short to pay for the fork
_SHARED_INPUTS = 3
#: the shared queue holds at most this many 4-byte entries, one page of a
#: pipe, so the whole queue is written before the fork without blocking
_QUEUE_SLOTS = 1024


@dataclass(frozen=True)
class SolverConfig:
    """The searches' settings, and the one acceptance rule they and
    :func:`classify_point` share: a fixed point has hypot(f) <= ``root_tol``,
    a perpetual point hypot(F) <= ``root_tol``, F = Df f, and a speed ||f||
    above ``velocity_floor``. ``dedup_tol`` merges roots closer than it;
    ``seed_count`` Newton runs of at most ``max_newton_iters`` iterations
    start from a lattice jittered by ``rng_seed``."""
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
    sum to ``seeds_used``); ``residual_evals``, ``jacobian_evals`` and
    ``solves`` count the solved field's evaluations and the linear solves
    of every Newton run, ``steps`` the Newton steps accepted and
    ``backtracks`` the line-search trials rejected, polishing included.
    They are not in the report.
    """
    points: list[CriticalPoint]
    warnings: list[str] = field(default_factory=list)
    seeds_used: int = 0
    seeds_converged: int = 0
    reasons: dict[str, int] = field(default_factory=dict)
    residual_evals: int = 0
    jacobian_evals: int = 0
    solves: int = 0
    steps: int = 0
    backtracks: int = 0

    @property
    def clean_points(self) -> list[CriticalPoint]:
        return [p for p in self.points if not p.degenerate]


#: the counts of a search's Newton runs
_WORK_COUNTERS = ("residual_evals", "jacobian_evals", "solves", "steps", "backtracks")


class NoConvergenceError(RuntimeError):
    def __init__(self, reason: str, iterations: int, residual: float):
        super().__init__(f"Newton failed ({reason}) after {iterations} iterations, "
                         f"last residual {residual:.3e}")
        self.reason = reason
        self.iterations = iterations
        self.residual = residual


# ---------------------------------------------------------------------------
# Damped Newton

@functools.cache
def _newton_function(n: int):
    """The damped Newton run for n unknowns, compiled from generated
    source on first use: ``run(kernel, seed, lo, hi, max_iters, root_tol)``
    takes the solved map's kernel accessor (``VectorMap._kernel``), the
    seed, the corners of the cushioned box and the two limits. It returns
    one tuple of plain values: the root as a list of floats (None where the
    run failed), the last residual, the iterations and the reason, then the
    run's five counts in ``_WORK_COUNTERS`` order.

    The iterate is the locals ``x0 ... x<n-1>`` and the values at it
    ``f0 ... f<n-1>``, with residual ``r = hypot(*values)``. Each step
    evaluates the Jacobian kernel, compiled when the first step needs it,
    and solves with ``_elimination(n)``. Then a backtracking line search
    tries ``x + t * s`` componentwise for t = 1, 1/2, ... down to
    ``_MIN_STEP``:
    - a trial that leaves the box [lo, hi] is rejected; if t == 1 the run
      counts as having exited the region;
    - a trial outside the map's domain is rejected and the step halved,
      however small t is: only such walls justify halving to ``_MIN_STEP``;
    - an evaluable trial is accepted on sufficient decrease,
      ``rt * rt <= r * r * (1 - 1e-4 t)``, or else rejected; below
      t = 1e-6 that proves the direction no descent (the merit is smooth),
      and the search ends.

    The squares are products: a float ``** 2`` raises OverflowError above
    1.34e154, where a product gives inf. Past that ``r * r`` is inf and
    would accept anything finite, so the test divides by r first. A run
    whose residual reaches ``root_tol`` before the last iteration takes up
    to three more full steps, with no box test, each kept only while the
    residual falls; a root reached on the last iteration is not polished.
    """
    idx = range(n)
    xs, ys = ", ".join(f"x{i}" for i in idx), ", ".join(f"y{i}" for i in idx)

    def targets(prefix: str) -> str:
        return "".join(f"{prefix}{i}, " for i in idx)

    def step(pad: str, domain: list[str], singular: list[str]) -> list[str]:
        # the Newton step at x into s0 ...; ``domain`` runs where the
        # Jacobian is not evaluable and ``singular`` where it is singular
        return [f"{pad}jacobians += 1",
                f"{pad}if jacobian is None:",
                f"{pad}    jacobian = kernel(1)",
                f"{pad}jac = jacobian({xs})",
                f"{pad}if jac is None:", *(f"{pad}    {line}" for line in domain),
                f"{pad}solves += 1",
                f"{pad}s = eliminate(jac, ({targets('-f')}))[0]",
                f"{pad}if s is None:", *(f"{pad}    {line}" for line in singular),
                f"{pad}{targets('s')}= s"]

    lines = [
        "def run(kernel, seed, lo, hi, max_iters, root_tol):",
        "    values, jacobian = kernel(0), None",
        f"    {targets('x')}= map(float, seed)",
        f"    {targets('lo')}= lo",
        f"    {targets('hi')}= hi",
        "    evals, jacobians, solves, steps, backtracks = 1, 0, 0, 0, 0",
        f"    fx = values({xs})",
        "    if fx is None:",
        "        return None, inf, 0, 'domain-error-at-seed', 1, 0, 0, 0, 0",
        f"    {targets('f')}= fx",
        "    r, point = hypot(*fx), None",
        "    for it in range(max_iters):",
        "        if r <= root_tol:",
        "            for _ in range(3):  # polish",
        *step(" " * 16, ["break"], ["break"]),
        *(f"                y{i} = x{i} + s{i}" for i in idx),
        "                evals += 1",
        f"                gx = values({ys})",
        "                if gx is None:",
        "                    break",
        "                rt = hypot(*gx)",
        "                if rt >= r:",
        "                    break",
        f"                {targets('x')}= {targets('y')}",
        f"                {targets('f')}= gx",
        "                r, steps = rt, steps + 1",
        f"            point, reason = [{xs}], 'converged'",
        "            break",
        *step(" " * 8, ["reason = 'domain-error'", "break"],
              ["reason = 'singular-jacobian'", "break"]),
        "        t, accepted, exited = 1.0, False, False",
        f"        while t >= {_MIN_STEP!r}:",
        *(f"            y{i} = x{i} + t * s{i}" for i in idx),
        f"            if {' and '.join(f'lo{i} <= y{i} <= hi{i}' for i in idx)}:",
        "                evals += 1",
        f"                gx = values({ys})",
        "                if gx is not None:",
        "                    rt, rr = hypot(*gx), r * r",
        "                    if (rt * rt <= rr * (1.0 - 1e-4 * t) if rr != inf",
        "                            else (rt / r) * (rt / r) <= 1.0 - 1e-4 * t):",
        f"                        {targets('x')}= {targets('y')}",
        f"                        {targets('f')}= gx",
        "                        r, steps, accepted = rt, steps + 1, True",
        "                        break",
        "                    if t < 1e-6:",
        "                        backtracks += 1",
        "                        break",
        "            elif t == 1.0:",
        "                exited = True",
        "            backtracks += 1",
        f"            t *= {_DAMPING!r}",
        "        if not accepted:",
        "            reason = 'region-exit' if exited else 'no-descent'",
        "            break",
        "    else:",
        "        it = max_iters",
        "        if r <= root_tol:",
        f"            point, reason = [{xs}], 'converged'",
        "        else:",
        "            reason = 'iteration-cap'",
        "    return point, r, it, reason, evals, jacobians, solves, steps, backtracks",
    ]
    scope = {"eliminate": _elimination(n), "hypot": math.hypot, "inf": math.inf}
    exec(compile("\n".join(lines) + "\n", f"<critflow-newton-{n}>", "exec"), scope)
    return scope["run"]


def _newton(fieldmap: VectorMap, seed, box: tuple, cfg: SolverConfig) -> tuple:
    """Damped Newton from ``seed`` (:func:`_newton_function`, whose tuple
    it returns); ``box`` is the (lower, upper) pair of the cushioned search
    region that trial points must stay in."""
    return _newton_function(fieldmap.n_in)(fieldmap._kernel, seed, *box,
                                           cfg.max_newton_iters, cfg.root_tol)


def _check_dimension(fieldmap: VectorMap, region: AnalysisRegion):
    if region.dimension != fieldmap.n_in:
        raise ValueError(f"region has dimension {region.dimension}, "
                         f"{fieldmap.name} has {fieldmap.n_in} inputs")


def newton_root(fieldmap: VectorMap, seed, region: AnalysisRegion,
                cfg: SolverConfig = SolverConfig()) -> np.ndarray:
    """Damped Newton from ``seed``; returns a point with ||field|| <= root_tol
    or raises :class:`NoConvergenceError` with diagnostics."""
    _check_dimension(fieldmap, region)
    if len(seed) != region.dimension:
        raise ValueError(f"seed has {len(seed)} coordinates, region has {region.dimension}")
    point, residual, iterations, reason, *_ = _newton(
        fieldmap, seed, region.cushioned_bounds(_REGION_CUSHION), cfg)
    if point is None:
        raise NoConvergenceError(reason, iterations, residual)
    return np.array(point)


# ---------------------------------------------------------------------------
# Multi-start search

class _Plan(NamedTuple):
    """One search before its Newton runs: the field, the map Newton solves
    (f, or its acceleration map F), the kind, the region, its seeds as
    lists of floats and the cushioned box that trial points stay in."""
    f: VectorField
    solved: VectorMap
    kind: str
    region: AnalysisRegion
    seeds: list
    box: tuple


def _plan_search(f: VectorField, kind: str, region: AnalysisRegion,
                 cfg: SolverConfig) -> _Plan:
    solved = f if kind == FIXED else acceleration_map(f)
    _check_dimension(solved, region)
    return _Plan(f, solved, kind, region,
                 lattice_points(region, cfg.seed_count, cfg.rng_seed).tolist(),
                 region.cushioned_bounds(_REGION_CUSHION))


def _runs(plans: list[_Plan], entries, block: int, cfg: SolverConfig) -> list[tuple]:
    """The Newton runs of the blocks of ``block`` seeds that ``entries``
    name, each entry a (search, first seed) pair of indices into ``plans``
    and its seeds, and each run as (search, seed index, *run); plain
    values, which a forked worker pickles several times faster than
    arrays."""
    return [(k, i, *_newton(plans[k].solved, plans[k].seeds[i], plans[k].box, cfg))
            for k, start in entries
            for i in range(start, min(start + block, len(plans[k].seeds)))]


@contextlib.contextmanager
def _seed_queue(plans: list[_Plan], cfg: SolverConfig):
    """Share the seeds of every search in ``plans`` between this process
    and a forked worker (:func:`~critflow.worker.forked`) through one
    queue of seed blocks, which the worker starts to drain at once. Yields
    ``drain``, which drains the queue here too and returns the completed
    runs (:func:`_runs`): both processes', this one's where the worker sent
    nothing, none where a run raised here. Where no worker is usable it
    runs all the seeds here. The block may do other work first."""
    if not plans:
        yield list
        return
    for plan in plans:  # built once, before the fork
        _newton_function(plan.solved.n_in)
        plan.solved._kernel(0), plan.solved._kernel(1)
    # each search ends its last block early, so at most _QUEUE_SLOTS entries
    block = -(-sum(len(plan.seeds) for plan in plans) // (_QUEUE_SLOTS - len(plans) + 1))
    entries = [(k, start) for k, plan in enumerate(plans)
               for start in range(0, len(plan.seeds), block)]
    read_fd, write_fd = os.pipe()

    def queued():
        taken = iter(functools.partial(os.read, read_fd, 4), b"")
        return _runs(plans, (entries[int.from_bytes(j, "little")] for j in taken), block, cfg)

    def drain():
        try:
            mine = queued()
        except Exception:
            return []
        return mine + (their_runs() or [])
    try:
        with os.fdopen(write_fd, "wb") as queue:
            queue.write(b"".join(j.to_bytes(4, "little") for j in range(len(entries))))
        with worker.forked(queued) as their_runs:
            yield drain
    finally:
        os.close(read_fd)


def _collect_roots(runs: list[tuple], cfg: SolverConfig,
                   search: PointSearch) -> list[tuple[list, float]]:
    """Deduplicated roots of one search's ``runs`` (:func:`_runs`, in seed
    order) as (location as a list of floats, residual); ``search``
    receives the seed counts, the outcome reasons and the evaluation
    counts."""
    for k, name in enumerate(_WORK_COUNTERS, 6):
        setattr(search, name, sum(run[k] for run in runs))
    # lowest-residual representative wins its dedup cluster
    hits = sorted((residual, point) for _, _, point, residual, *_ in runs if point is not None)
    kept: list[tuple[list, float]] = []
    for residual, point in hits:
        if all(math.dist(point, q) > cfg.dedup_tol for q, _ in kept):
            kept.append((point, residual))
    search.seeds_used = len(runs)
    search.seeds_converged = len(hits)
    search.reasons = dict(sorted(Counter(run[5] for run in runs).items()))
    return kept


def _critical_point(kind: str, solved: VectorMap, location: list, residual: float,
                    fx, cfg: SolverConfig, boundary: bool = False) -> CriticalPoint | None:
    """The :class:`CriticalPoint` of ``kind`` at ``location``, a list of
    floats, that the solved map (f, or F for a perpetual point) vanishes
    at to ``residual``; ``fx`` is f's order-0 kernel there, as its caller
    evaluated it. None where ``kind`` is perpetual and the speed is at most
    the velocity floor: a zero of F that is actually a fixed point. The
    spectrum, ``degenerate`` flag and Jacobian come from the solved map's
    order-1 kernel; a Jacobian that is not evaluable gives no spectrum."""
    velocity = np.full(len(location), np.nan) if fx is None else np.array(fx)
    if kind == PERPETUAL and float(np.linalg.norm(velocity)) <= cfg.velocity_floor:
        return None
    flat = solved._kernel(1)(*location)
    jac = spec = None
    if flat is None:
        degenerate, note = True, "field Jacobian not evaluable at this point"
    else:
        jac = np.array(flat).reshape(len(location), len(location))
        degenerate, note = is_degenerate(jac), ""
        try:
            spec = eigenvalues(jac)
        except EigenConvergenceError:
            note = "eigenvalue computation did not converge"
    return CriticalPoint(kind=kind, location=np.array(location), residual=residual,
                         velocity=velocity, spectrum=spec, degenerate=degenerate,
                         boundary=boundary, note=note, jacobian=jac)


def _searches(plans: list[_Plan], runs: list[tuple],
              cfg: SolverConfig) -> list[PointSearch]:
    """The searches of ``plans``, in that order, from their completed
    ``runs`` (:func:`_seed_queue`) and the runs of the seeds missing from
    them, run here in plan and seed order: the first to raise is that of
    the lowest failing seed of the first search with one."""
    done = {run[:2] for run in runs}
    missing = [(k, i) for k, plan in enumerate(plans) for i in range(len(plan.seeds))
               if (k, i) not in done]
    if missing:
        runs = runs + _runs(plans, missing, 1, cfg)
    per_search: list[list[tuple]] = [[] for _ in plans]
    for run in sorted(runs):  # into seed order; the indices are distinct
        per_search[run[0]].append(run)
    return [_finished(plan, plan_runs, cfg) for plan, plan_runs in zip(plans, per_search)]


def _finished(plan: _Plan, runs: list[tuple], cfg: SolverConfig) -> PointSearch:
    f, solved, kind, region, *_ = plan
    search = PointSearch(points=[])
    roots = _collect_roots(runs, cfg, search)
    points = search.points
    for location, residual in roots:
        point = _critical_point(kind, solved, location, residual, f._kernel(0)(*location),
                                cfg, boundary=not region.contains(location))
        if point is not None:
            points.append(point)
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


def _run_search(f: VectorField, kind: str, region: AnalysisRegion,
                cfg: SolverConfig) -> PointSearch:
    plans = [_plan_search(f, kind, region, cfg)]
    runs = []  # a small search runs its seeds serially
    if plans[0].solved.n_in >= _SHARED_INPUTS:
        with _seed_queue(plans, cfg) as drain:
            runs = drain()
    return _searches(plans, runs, cfg)[0]


def fixed_point_search(f: VectorField, region: AnalysisRegion,
                       cfg: SolverConfig = SolverConfig()) -> PointSearch:
    """The search for fixed points of f inside ``region``. Its ``points``
    are deduplicated and sorted by location, each carrying the eigenvalues
    of Df."""
    return _run_search(f, FIXED, region, cfg)


def perpetual_point_search(f: VectorField, region: AnalysisRegion,
                           cfg: SolverConfig = SolverConfig()) -> PointSearch:
    """The search for perpetual points of f inside ``region``: zeros of the
    acceleration field with speed above the velocity floor. Its ``points``
    are deduplicated and sorted by location, each carrying the eigenvalues
    of DF and the signed velocity."""
    return _run_search(f, PERPETUAL, region, cfg)


def classify_point(f: VectorField, point,
                   cfg: SolverConfig = SolverConfig()) -> CriticalPoint | None:
    """Classify a single point as fixed, perpetual, or neither, by the rule
    the searches accept their roots by, and build its
    :class:`CriticalPoint` as they do (with ``boundary`` False).

    Fixed: hypot(f) <= root_tol there. Perpetual: hypot(F) <= root_tol,
    F from ``acceleration_map(f)``'s kernel, while the speed clears the
    velocity floor. None otherwise, and where f or F is not evaluable.
    """
    location = _floats(np.asarray(point, dtype=float), f.dimension)
    fx = f._kernel(0)(*location)
    if fx is None:
        return None
    residual = math.hypot(*fx)
    if residual <= cfg.root_tol:
        return _critical_point(FIXED, f, location, residual, fx, cfg)
    solved = acceleration_map(f)
    accel = solved._kernel(0)(*location)
    residual = math.inf if accel is None else math.hypot(*accel)
    if not residual <= cfg.root_tol:
        return None
    return _critical_point(PERPETUAL, solved, location, residual, fx, cfg)
