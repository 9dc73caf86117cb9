"""Trajectory integration for flow-conjugacy checks and portrait export.

Two schemes: adaptive Runge-Kutta-Fehlberg 4(5) (default; propagates the
4th-order solution, the embedded 5th-order one drives step control) and
fixed-step classical RK4, the reference integrator of the convergence-order
tests and of the acceleration tests, which compare the acceleration with
second differences of finely sampled RK4 trajectories. Escaping
trajectories terminate cleanly: once the state norm passes the blow-up
threshold a :class:`BlowUpError` carrying the escape time and the partial
trajectory is raised.

The RKF45 step runs on Python floats with the Fehlberg tableau unrolled.
Every component goes through the same operations, in the same order, as
the array form ``x + h * sum(a * k for ...)``, so states, step sizes and
exceptions are the array form's to the bit; on the 2- to 4-element states
of the flow checks the step costs less than half as much as numpy calls
on small arrays. Each stage reads the field's kernel tuple (``_values``)
at a list of floats, with no array built or taken apart; the tuple holds
the floats that ``value`` would put into its array. Outside the field's
domain ``_values`` gives None instead of raising, so a stage that leaves
the domain costs no error message; the step is retried at half the size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fields import VectorField

__all__ = [
    "IntegratorConfig", "Trajectory", "BlowUpError", "StepUnderflowError",
    "integrate", "flow_map", "sample_times",
]

RK4 = "rk4"
RKF45 = "rkf45"

# Fehlberg 4(5) tableau, unrolled: stage i evaluates f at
# x + h * (A_i1 k_1 + ... ); B weights the propagated 4th-order solution and
# E the error estimate (5th- minus 4th-order); zero weights are left out
_A21 = 1 / 4
_A31, _A32 = 3 / 32, 9 / 32
_A41, _A42, _A43 = 1932 / 2197, -7200 / 2197, 7296 / 2197
_A51, _A52, _A53, _A54 = 439 / 216, -8.0, 3680 / 513, -845 / 4104
_A61, _A62, _A63, _A64, _A65 = -8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40
_B1, _B3, _B4, _B5 = 25 / 216, 1408 / 2565, 2197 / 4104, -1 / 5
_E1, _E3, _E4, _E5, _E6 = 1 / 360, -128 / 4275, -2197 / 75240, 1 / 50, 2 / 55

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


def _stages(values, x: list[float], h: float):
    """The stages k1, k3, k4, k5 and k6 of one RKF45 step (k2 enters
    only the later stages), or None as soon as one is outside the field's
    domain.

    Each stage component is ``x + h * (0 + a1 * k1 + a2 * k2 + ...)``: the
    sum starts from the integer 0, as ``sum`` does in the array form, so
    signed zeros come out the same.
    """
    k1 = values(x)
    if k1 is None:
        return None
    k2 = values([v + h * (0 + _A21 * a) for v, a in zip(x, k1)])
    if k2 is None:
        return None
    k3 = values([v + h * (0 + _A31 * a + _A32 * b) for v, a, b in zip(x, k1, k2)])
    if k3 is None:
        return None
    k4 = values([v + h * (0 + _A41 * a + _A42 * b + _A43 * c)
                 for v, a, b, c in zip(x, k1, k2, k3)])
    if k4 is None:
        return None
    k5 = values([v + h * (0 + _A51 * a + _A52 * b + _A53 * c + _A54 * d)
                 for v, a, b, c, d in zip(x, k1, k2, k3, k4)])
    if k5 is None:
        return None
    k6 = values([v + h * (0 + _A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
                 for v, a, b, c, d, e in zip(x, k1, k2, k3, k4, k5)])
    if k6 is None:
        return None
    return k1, k3, k4, k5, k6


def _rkf45_segment(f, x, t0, t1, cfg, h_start):
    """Adaptive integration from t0 to t1. Returns (state, suggested h,
    escape time or None). A step with a stage outside the field's domain
    is retried at half the size."""
    x = x.tolist()
    t, t1 = float(t0), float(t1)
    h = min(h_start, t1 - t)
    abs_tol, rel_tol = cfg.abs_tol, cfg.rel_tol
    values = f._values
    while t < t1:
        h = min(h, t1 - t)
        if h < _MIN_STEP:
            # a collapsing step under an already enormous state is escape,
            # not stiffness: the remaining growth to the threshold is
            # unresolvable at any usable step size
            if float(np.linalg.norm(x)) > 1e-3 * _BLOWUP_NORM:
                return np.array(x), h, t
            raise StepUnderflowError(t, h)
        stages = _stages(values, x, h)
        if stages is None:  # a stage left the field's domain
            h *= 0.5
            continue
        k1, k3, k4, k5, k6 = stages
        x4 = [v + h * (0 + _B1 * a + _B3 * c + _B4 * d + _B5 * e)
              for v, a, c, d, e in zip(x, k1, k3, k4, k5)]
        # the largest |err| / scale; like np.max, a NaN anywhere makes it
        # NaN, which rejects the step
        ratio = 0.0
        for v, w, a, c, d, e, g in zip(x, x4, k1, k3, k4, k5, k6):
            err = h * (0 + _E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * g)
            size = abs(v) if abs(v) >= abs(w) else abs(w)  # np.maximum: NaN wins
            r = abs(err) / (abs_tol + rel_tol * size)
            if r > ratio or r != r:
                ratio = r
        if ratio <= 1.0:
            t += h
            x = x4
            grow = 0.9 * ratio ** -0.2 if ratio > 0.0 else 5.0
            h *= min(5.0, max(0.2, grow))
            # ||x|| <= sqrt(n) max |x_i|, so under this bound the norm, rounding
            # and all, cannot pass the blow-up norm
            if (max(map(abs, x)) > 0.5 * _BLOWUP_NORM / len(x)
                    and float(np.linalg.norm(x)) > _BLOWUP_NORM):
                return np.array(x), h, t  # caller turns this into a blow-up
        else:
            h *= max(0.2, 0.9 * ratio ** -0.2)
    return np.array(x), h, None


def _sampled_states(f: VectorField, x0, cfg: IntegratorConfig):
    """Yield the state at each of ``sample_times(cfg.t_end, cfg.sample_count)``,
    x0 first, raising what :func:`integrate` raises. A caller that stops
    reading stops the integration there."""
    x = np.array(x0, dtype=float)
    if x.shape != (f.dimension,):
        raise ValueError(f"initial state has shape {x.shape}, field expects ({f.dimension},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("initial state must be finite")
    times = sample_times(cfg.t_end, cfg.sample_count)
    states = [x]
    yield x
    h = cfg.step if cfg.method == RK4 else min(1e-3, max(_MIN_STEP, cfg.t_end / 100 or 1e-3))
    for i in range(1, len(times)):
        t0, t1 = times[i - 1], times[i]
        if t1 != t0:
            if cfg.method == RK4:
                x = _rk4_segment(f, x, t0, t1, cfg.step)
                t_escape = t1 if float(np.linalg.norm(x)) > _BLOWUP_NORM else None
            else:
                x, h, t_escape = _rkf45_segment(f, x, t0, t1, cfg, h)
            if t_escape is not None:
                partial = Trajectory(times=np.append(times[:i], t_escape),
                                     states=np.vstack(states + [x]))
                raise BlowUpError(float(t_escape), partial)
        states.append(x)
        yield x


def integrate(f: VectorField, x0, cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Integrate dx/dt = f(x) from x0 over [0, t_end], sampling
    ``sample_count`` evenly spaced states.

    Deterministic for a fixed configuration. Raises :class:`BlowUpError`
    when the state norm passes the blow-up norm (partial samples attached)
    and :class:`StepUnderflowError` on stiff failure.
    """
    states = np.vstack(list(_sampled_states(f, x0, cfg)))
    return Trajectory(times=sample_times(cfg.t_end, cfg.sample_count), states=states)


def flow_map(f: VectorField, x0, t: float,
             cfg: IntegratorConfig = IntegratorConfig()) -> np.ndarray:
    """The time-t state of the solution through x0 (endpoint only)."""
    if t < 0:
        raise ValueError("flow_map integrates forward; t must be >= 0")
    if t == 0.0:
        return np.array(x0, dtype=float)
    return integrate(f, x0, replace(cfg, t_end=float(t), sample_count=2)).endpoint
