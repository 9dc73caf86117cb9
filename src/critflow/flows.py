"""Trajectory integration for flow-conjugacy checks and portrait export.

One scheme: adaptive Runge-Kutta-Fehlberg 4(5), which propagates the
4th-order solution while the embedded 5th-order one drives step control.
The fixed-step classical RK4 reference, which the convergence-order and
acceleration tests compare against, lives in the tests
(``tests/conftest.py``). Escaping trajectories terminate cleanly: once the
state norm passes the blow-up threshold a :class:`BlowUpError` carrying
the escape time and the partial trajectory is raised.

The RKF45 step runs on Python floats, in a function generated for each
state dimension on first use (:func:`_step_function`): every component of
every stage, the 4th-order solution and the error ratio is written out,
with no loop, ``zip`` or list comprehension. Every component goes through
the same operations, in the same order, as the array form
``x + h * sum(a * k for ...)``, so states, step sizes, escape times and
exceptions are the array form's to the bit. Each stage calls the field's
order-0 kernel (``VectorMap._kernel(0)``) with the components as
positional floats, with no array or list built or taken apart; its tuple
holds the floats that ``value`` would put into its array, for a plain
field and an affine conjugate alike. Outside the field's domain the
kernel gives None instead of raising, so a stage that leaves the domain
costs no error message; the step is retried at half the size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .fields import VectorField
from .region import grid_axis

__all__ = [
    "IntegratorConfig", "Trajectory", "BlowUpError", "StepUnderflowError",
    "integrate", "flow_map", "sample_times",
]

# Fehlberg 4(5) tableau: stage i evaluates f at x + h * (A_i1 k_1 + ...);
# B weights the propagated 4th-order solution and E the error estimate
# (5th- minus 4th-order); the generated step leaves zero weights out
_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_B = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)
_E = (1 / 360, 0.0, -128 / 4275, -2197 / 75240, 1 / 50, 2 / 55)

#: RKF45 gives up below this step; a state norm above the blow-up norm
#: counts as escape
_MIN_STEP = 1e-14
_BLOWUP_NORM = 1e12


@dataclass(frozen=True)
class IntegratorConfig:
    """``tol`` is RKF45's absolute and relative tolerance in one: a step is
    accepted when each component's error estimate is at most ``tol + tol *
    size``, size the larger magnitude of the component before and after."""

    tol: float = 1e-9
    t_end: float = 1.0
    sample_count: int = 33

    def __post_init__(self):
        if not 0.0 <= self.t_end < math.inf:
            raise ValueError("t_end must be finite and non-negative")
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be finite and positive")
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


#: ``sample_times(t_end, count)``: evenly spaced times in [0, t_end]
sample_times = functools.partial(grid_axis, 0.0)


def _combination(weights, i: int) -> str:
    """``0 + w1 * a<i> + w2 * b<i> + ...`` over the non-zero weights: the
    sum starts from the integer 0, as ``sum`` does in the array form, so
    signed zeros come out the same."""
    return " + ".join(["0"] + [f"{w!r} * {k}{i}" for w, k in zip(weights, "abcdef") if w != 0.0])


@functools.cache
def _step_function(n: int):
    """The RKF45 step for states of n floats, compiled from generated
    source on first use: ``step(values, x, h, tol)`` calls the
    field's order-0 kernel ``values`` at each stage and returns the
    4th-order solution as a list and the largest |err| / scale, or None as
    soon as a stage is outside the field's domain.

    Component i of stage s is ``x<i> + h * (0 + A_s1 * a<i> + A_s2 * b<i>
    + ...)``, where a, b, ... name the components of k1, k2, ...; the ratio is updated
    component by component like ``np.max``, so a NaN anywhere makes it
    NaN, which rejects the step."""
    comps = range(n)
    lines = ["def step(values, x, h, tol):",
             f"    {''.join(f'x{i}, ' for i in comps)}= x"]
    for row, letter in zip(_A, "abcdef"):
        parts = ", ".join(f"x{i} + h * ({_combination(row, i)})" if row else f"x{i}"
                          for i in comps)
        lines.append(f"    k = values({parts})")
        lines += ["    if k is None:",
                  "        return None",
                  f"    {''.join(f'{letter}{i}, ' for i in comps)}= k"]
    lines += [f"    w{i} = x{i} + h * ({_combination(_B, i)})" for i in comps]
    for i in comps:
        # np.maximum: NaN wins
        size = f"(abs(x{i}) if abs(x{i}) >= abs(w{i}) else abs(w{i}))"
        lines.append(f"    r = abs(h * ({_combination(_E, i)})) / (tol + tol * {size})")
        lines += (["    ratio = r"] if i == 0 else
                  ["    if r > ratio or r != r:", "        ratio = r"])
    lines.append(f"    return [{', '.join(f'w{i}' for i in comps)}], ratio")
    scope = {}
    exec(compile("\n".join(lines) + "\n", f"<critflow-rkf45-step-{n}>", "exec"), scope)
    return scope["step"]


def _rkf45_segment(f, x, t0, t1, cfg, h_start):
    """Adaptive integration from t0 to t1. Returns (state, suggested h,
    escape time or None). A step with a stage outside the field's domain
    is retried at half the size."""
    x = x.tolist()
    t, t1 = float(t0), float(t1)
    h = min(h_start, t1 - t)
    tol = cfg.tol
    values, step = f._kernel(0), _step_function(len(x))
    while t < t1:
        h = min(h, t1 - t)
        if h < _MIN_STEP:
            # a collapsing step under an already enormous state is escape,
            # not stiffness: the remaining growth to the threshold is
            # unresolvable at any usable step size
            if float(np.linalg.norm(x)) > 1e-3 * _BLOWUP_NORM:
                return np.array(x), h, t
            raise StepUnderflowError(t, h)
        stepped = step(values, x, h, tol)
        if stepped is None:  # a stage left the field's domain
            h *= 0.5
            continue
        x4, ratio = stepped
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
    h = min(1e-3, max(_MIN_STEP, cfg.t_end / 100 or 1e-3))
    for i in range(1, len(times)):
        t0, t1 = times[i - 1], times[i]
        if t1 != t0:
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
