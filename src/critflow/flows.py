"""Trajectory integration for flow-conjugacy checks and portrait export.

Two schemes: adaptive Runge-Kutta-Fehlberg 4(5) (default; propagates the
4th-order solution, the embedded 5th-order one drives step control) and
fixed-step classical RK4 (kept for convergence-order tests). Escaping
trajectories terminate cleanly: once the state norm passes the blow-up
threshold a :class:`BlowUpError` carrying the escape time and the partial
trajectory is raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .expr import DomainError
from .fields import VectorField

__all__ = [
    "IntegratorConfig", "Trajectory", "BlowUpError", "StepUnderflowError",
    "integrate", "flow_map", "sample_times",
]

RK4 = "rk4"
RKF45 = "rkf45"

# Fehlberg 4(5) tableau
_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)
_ERR = (1 / 360, 0.0, -128 / 4275, -2197 / 75240, 1 / 50, 2 / 55)

#: RKF45 gives up below this step; a state norm above the blow-up norm
#: counts as escape
_MIN_STEP = 1e-14
_BLOWUP_NORM = 1e12


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = RKF45
    step: float = 1e-2  # fixed step for rk4
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    t_end: float = 1.0
    sample_count: int = 33

    def __post_init__(self):
        if self.method not in (RK4, RKF45):
            raise ValueError(f"unknown method {self.method!r}")
        if not 0.0 <= self.t_end < math.inf:
            raise ValueError("t_end must be finite and non-negative")
        if not all(0.0 < v < math.inf for v in (self.step, self.abs_tol, self.rel_tol)):
            raise ValueError("step sizes and tolerances must be finite and positive")
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered samples of one solution; the first sample is the
    initial condition at t = 0."""

    times: np.ndarray
    states: np.ndarray

    def __len__(self) -> int:
        return len(self.times)

    @property
    def endpoint(self) -> np.ndarray:
        return self.states[-1]


class BlowUpError(RuntimeError):
    def __init__(self, escape_time: float, partial: Trajectory):
        super().__init__(f"trajectory escaped (norm above blow-up threshold) "
                         f"near t = {escape_time:.6g}")
        self.escape_time = escape_time
        self.partial = partial


class StepUnderflowError(RuntimeError):
    def __init__(self, t: float, step: float):
        super().__init__(f"step size underflow at t = {t:.6g} (h = {step:.3e}); "
                         f"the system is too stiff or leaves the field's domain")
        self.t = t
        self.step = step


def sample_times(t_end: float, count: int) -> np.ndarray:
    """Evenly spaced times in [0, t_end]; computed multiply-first so exact
    landmarks (like the midpoint of a symmetric span) stay exact."""
    if count == 1:
        return np.array([0.0])
    return np.array([(i * t_end) / (count - 1) for i in range(count)])


def _rk4_segment(f, x, t0, t1, h_target):
    span = t1 - t0
    substeps = max(1, round(span / h_target))
    h = span / substeps
    for _ in range(substeps):
        k1 = f.value(x)
        k2 = f.value(x + 0.5 * h * k1)
        k3 = f.value(x + 0.5 * h * k2)
        k4 = f.value(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def _rkf45_segment(f, x, t0, t1, cfg, h_start):
    """Adaptive integration from t0 to t1. Returns (state, suggested h)."""
    t = t0
    h = min(h_start, t1 - t0)
    while t < t1:
        h = min(h, t1 - t)
        if h < _MIN_STEP:
            # a collapsing step under an already enormous state is escape,
            # not stiffness: the remaining growth to the threshold is
            # unresolvable at any usable step size
            if float(np.linalg.norm(x)) > 1e-3 * _BLOWUP_NORM:
                return x, h, t
            raise StepUnderflowError(t, h)
        ks = []
        try:
            ks.append(f.value(x))
            for row in _A[1:]:
                xi = x + h * sum(a * k for a, k in zip(row, ks))
                ks.append(f.value(xi))
            x4 = x + h * sum(b * k for b, k in zip(_B4, ks) if b != 0.0)
            err = h * sum(e * k for e, k in zip(_ERR, ks) if e != 0.0)
        except DomainError:
            h *= 0.5
            continue
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(x), np.abs(x4))
        ratio = float(np.max(np.abs(err) / scale))
        if ratio <= 1.0:
            t += h
            x = x4
            grow = 0.9 * ratio ** -0.2 if ratio > 0.0 else 5.0
            h *= min(5.0, max(0.2, grow))
            if float(np.linalg.norm(x)) > _BLOWUP_NORM:
                return x, h, t  # caller turns this into a blow-up
        else:
            h *= max(0.2, 0.9 * ratio ** -0.2)
    return x, h, None


def integrate(f: VectorField, x0, cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Integrate dx/dt = f(x) from x0 over [0, t_end], sampling
    ``sample_count`` evenly spaced states.

    Deterministic for a fixed configuration. Raises :class:`BlowUpError`
    when the state norm passes the blow-up norm (partial samples attached)
    and :class:`StepUnderflowError` on stiff failure.
    """
    x = np.array(x0, dtype=float)
    if x.shape != (f.dimension,):
        raise ValueError(f"initial state has shape {x.shape}, field expects ({f.dimension},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("initial state must be finite")
    times = sample_times(cfg.t_end, cfg.sample_count)
    states = [x.copy()]
    h = cfg.step if cfg.method == RK4 else min(1e-3, max(_MIN_STEP, cfg.t_end / 100 or 1e-3))
    for i in range(1, len(times)):
        t0, t1 = times[i - 1], times[i]
        if t1 == t0:
            states.append(states[-1].copy())
            continue
        if cfg.method == RK4:
            x = _rk4_segment(f, x, t0, t1, cfg.step)
            escaped = float(np.linalg.norm(x)) > _BLOWUP_NORM
            t_escape = t1
        else:
            x, h, t_escape = _rkf45_segment(f, x, t0, t1, cfg, h)
            escaped = t_escape is not None
        if escaped:
            partial = Trajectory(times=np.append(times[:i], t_escape),
                                 states=np.vstack(states + [x]))
            raise BlowUpError(float(t_escape), partial)
        states.append(x.copy())
    return Trajectory(times=times, states=np.vstack(states))


def flow_map(f: VectorField, x0, t: float,
             cfg: IntegratorConfig = IntegratorConfig()) -> np.ndarray:
    """The time-t state of the solution through x0 (endpoint only)."""
    if t < 0:
        raise ValueError("flow_map integrates forward; t must be >= 0")
    if t == 0.0:
        return np.array(x0, dtype=float)
    return integrate(f, x0, replace(cfg, t_end=float(t), sample_count=2)).endpoint
