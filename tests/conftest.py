"""Shared builders and independent oracles for the test suite.

The oracles here deliberately use different machinery than the library:
numpy.linalg for eigen/solve cross-checks, dense grid scans plus plain
undamped Newton for root enumeration, finite differences for
derivatives, and fixed-step RK4 for trajectories.
"""

from __future__ import annotations

import functools
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import critflow as cf
from critflow.flows import sample_times


# ---------------------------------------------------------------------------
# System and map builders

def make_field(name, states, params, sources) -> cf.VectorField:
    system = cf.SystemDefinition.from_sources(name, states, params, sources)
    return cf.VectorField(system)


def scalar_quadratic(a_value: float = 1.0) -> cf.VectorField:
    return make_field("quadratic_well", ["x"], {"A": a_value}, ["x^2 - A^2"])


def affine_map_1d(alpha: float, beta: float, domain=(-10.0, 10.0)) -> cf.TransformationMap:
    params = {"alpha": float(alpha), "beta": float(beta)}
    comp = cf.parse_expression("alpha*x + beta", {"x", "alpha", "beta"})
    inv = cf.parse_expression("(y - beta)/alpha", {"y", "alpha", "beta"})
    return cf.TransformationMap(
        "affine", ["x"], params, [comp], cf.AnalysisRegion.of(domain), True,
        inverse=cf.VectorMap("affine_inv", ["y"], params, [inv]))


def square_map_1d(domain=(0.0, 3.0)) -> cf.TransformationMap:
    comp = cf.parse_expression("x^2", {"x"})
    inv = cf.parse_expression("sqrt(y)", {"y"})
    return cf.TransformationMap(
        "square", ["x"], {}, [comp], cf.AnalysisRegion.of(domain), False,
        inverse=cf.VectorMap("square_inv", ["y"], {}, [inv]))


def identity_map(states, domain) -> cf.TransformationMap:
    n = len(states)
    comps = [cf.parse_expression(s, set(states)) for s in states]
    targets = ("y",) if n == 1 else tuple(f"y{i+1}" for i in range(n))
    invs = [cf.parse_expression(t, set(targets)) for t in targets]
    return cf.TransformationMap(
        "identity", states, {}, comps, domain, True,
        inverse=cf.VectorMap("identity_inv", targets, {}, invs))


def assert_no_child_process():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@functools.cache
def caches_after_import() -> dict:
    """`cache_info()` of each function generated per dimension (the
    elimination, the RKF45 step, the Newton run and the affine
    conjugation), read in one fresh interpreter that has only imported
    critflow."""
    generated = ("linalg._elimination", "flows._step_function", "points._newton_function",
                 "fields._conjugation")
    src = Path(cf.__file__).resolve().parent.parent
    code = "; ".join(["import critflow"] + [f"print(critflow.{name}.cache_info())"
                                            for name in generated])
    imported = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONPATH": str(src)})
    return dict(zip(generated, imported.stdout.splitlines(), strict=True))


def build_counted(monkeypatch, module, name):
    """Swap module.name for an uncached-at-start copy whose builds are counted."""
    built = functools.cache(getattr(module, name).__wrapped__)
    monkeypatch.setattr(module, name, built)
    return built


# ---------------------------------------------------------------------------
# Random polynomial systems

def _monomials(n: int, degree: int):
    out = []
    for exponents in itertools.product(range(degree + 1), repeat=n):
        if 0 < sum(exponents) <= degree:
            out.append(exponents)
    return out


def random_polynomial_field(rng: random.Random, n: int, degree: int = 3,
                            coeff_range: float = 2.0,
                            name: str = "poly") -> cf.VectorField:
    """Random dense polynomial system with coefficients in [-range, range]."""
    states = ["x"] if n == 1 else [f"x{i+1}" for i in range(n)]
    sources = []
    for _ in range(n):
        terms = [repr(rng.uniform(-coeff_range, coeff_range))]
        for exponents in _monomials(n, degree):
            c = rng.uniform(-coeff_range, coeff_range)
            factors = [repr(c)]
            for var, e in zip(states, exponents):
                if e == 1:
                    factors.append(var)
                elif e > 1:
                    factors.append(f"{var}^{e}")
            terms.append("*".join(factors))
        sources.append(" + ".join(terms))
    return make_field(name, states, {}, sources)


def random_affine_map(rng: random.Random, n: int, domain: cf.AnalysisRegion,
                      max_cond: float = 50.0) -> cf.TransformationMap:
    """Random invertible affine map with condition number <= max_cond,
    built from literal coefficients (exactly representable in the
    expression language)."""
    cond = rng.uniform(1.0, max_cond)
    scale = rng.uniform(0.7, 1.5)
    if n == 1:
        a = np.array([[scale * rng.choice([-1.0, 1.0])]])
    else:
        sigmas = np.array([scale * np.sqrt(cond), scale / np.sqrt(cond)]
                          + [scale * cond ** rng.uniform(-0.5, 0.5) for _ in range(n - 2)])
        basis = np.array([[rng.gauss(0, 1) for _ in range(n)] for _ in range(n)])
        u, _ = np.linalg.qr(basis)
        basis = np.array([[rng.gauss(0, 1) for _ in range(n)] for _ in range(n)])
        v, _ = np.linalg.qr(basis)
        a = u @ np.diag(sigmas) @ v.T
    b = np.array([rng.uniform(-2.0, 2.0) for _ in range(n)])
    a_inv = np.linalg.inv(a)

    states = ["x"] if n == 1 else [f"x{i+1}" for i in range(n)]
    targets = ("y",) if n == 1 else tuple(f"y{i+1}" for i in range(n))
    fwd = []
    for i in range(n):
        terms = [f"{float(a[i, j])!r}*{states[j]}" for j in range(n)]
        fwd.append(" + ".join(terms) + f" + {float(b[i])!r}")
    inv = []
    for i in range(n):
        terms = [f"{float(a_inv[i, j])!r}*({targets[j]} - {float(b[j])!r})"
                 for j in range(n)]
        inv.append(" + ".join(terms))
    comps = [cf.parse_expression(s, set(states)) for s in fwd]
    invs = [cf.parse_expression(s, set(targets)) for s in inv]
    return cf.TransformationMap(
        "rand_affine", states, {}, comps, domain, True,
        inverse=cf.VectorMap("rand_affine_inv", targets, {}, invs))


# ---------------------------------------------------------------------------
# Random expression generator (domain-wary)

_UNARY_OPS = ["sqrt", "sin", "cos", "exp", "log", "abs", "neg"]
_BINARY_OPS = ["+", "-", "*", "/", "^"]


def random_expression_source(rng: random.Random, names, depth: int = 3) -> str:
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return repr(round(rng.uniform(-2.0, 2.0), 4))
        return rng.choice(list(names))
    if rng.random() < 0.35:
        op = rng.choice(_UNARY_OPS)
        inner = random_expression_source(rng, names, depth - 1)
        if op == "neg":
            return f"-({inner})"
        if op in ("sqrt", "log"):
            # keep the argument positive so random points stay in domain
            return f"{op}(({inner})^2 + {repr(round(rng.uniform(0.1, 1.5), 4))})"
        return f"{op}({inner})"
    op = rng.choice(_BINARY_OPS)
    left = random_expression_source(rng, names, depth - 1)
    right = random_expression_source(rng, names, depth - 1)
    if op == "/":
        right = f"(({right})^2 + {repr(round(rng.uniform(0.5, 1.5), 4))})"
    if op == "^":
        return f"({left})^{rng.choice([2, 3])}"
    return f"({left}) {op} ({right})"


# ---------------------------------------------------------------------------
# Finite-difference oracles

def fd_gradient(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    out = np.empty(len(x))
    for d in range(len(x)):
        step = np.zeros(len(x))
        step[d] = h
        out[d] = (fn(x + step) - fn(x - step)) / (2.0 * h)
    return out


def fd_hessian_entry(fn, x: np.ndarray, j: int, k: int, h: float = 1e-4) -> float:
    ej, ek = np.zeros(len(x)), np.zeros(len(x))
    ej[j], ek[k] = h, h
    if j == k:
        return (fn(x + ej) - 2.0 * fn(x) + fn(x - ej)) / (h * h)
    return (fn(x + ej + ek) - fn(x + ej - ek) - fn(x - ej + ek) + fn(x - ej - ek)) / (4.0 * h * h)


# ---------------------------------------------------------------------------
# Fixed-step RK4 oracle (independent of the library's RKF45 integrator)

def rk4_trajectory(f, x0, step: float, t_end: float, sample_count: int) -> cf.Trajectory:
    """Classical RK4 on ``f.value`` from x0, sampled at
    ``sample_times(t_end, sample_count)``; each span between samples is
    split into ``round(span / step)`` equal substeps, at least one."""
    times = sample_times(t_end, sample_count)
    x = np.array(x0, dtype=float)
    states = [x]
    for t0, t1 in zip(times[:-1], times[1:]):
        span = t1 - t0
        substeps = max(1, round(span / step))
        h = span / substeps
        for _ in range(substeps):
            k1 = f.value(x)
            k2 = f.value(x + 0.5 * h * k1)
            k3 = f.value(x + 0.5 * h * k2)
            k4 = f.value(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(x)
    return cf.Trajectory(times=times, states=np.vstack(states))


# ---------------------------------------------------------------------------
# Dense-grid root oracle (independent of the multi-start solver)

def grid_scan_roots(fieldmap, region: cf.AnalysisRegion, step: float = 1e-2,
                    root_tol: float = 1e-10, dedup: float = 1e-4):
    """Enumerate isolated zeros: dense grid, local minima of ||field||,
    plain Newton polish with numpy.linalg.solve."""
    (x_lo, x_hi), (y_lo, y_hi) = region.bounds
    nx = int(round((x_hi - x_lo) / step)) + 1
    ny = int(round((y_hi - y_lo) / step)) + 1
    xs = np.linspace(x_lo, x_hi, nx)
    ys = np.linspace(y_lo, y_hi, ny)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    vals = fieldmap.value_grid(pts)
    norms = np.linalg.norm(np.nan_to_num(vals, nan=np.inf, posinf=np.inf,
                                         neginf=np.inf), axis=1).reshape(nx, ny)
    padded = np.pad(norms, 1, constant_values=np.inf)
    center = padded[1:-1, 1:-1]
    is_min = np.ones_like(center, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            is_min &= center <= padded[1 + di:nx + 1 + di, 1 + dj:ny + 1 + dj]
    candidates = np.argwhere(is_min)

    roots = []
    span = region.span
    for ci, cj in candidates:
        x = np.array([xs[ci], ys[cj]])
        ok = False
        for _ in range(60):
            try:
                v = fieldmap.value(x)
            except cf.DomainError:
                break
            if np.linalg.norm(v) <= root_tol:
                ok = True
                break
            try:
                jac = fieldmap.jacobian(x)
                delta = np.linalg.solve(jac, -v)
            except (cf.DomainError, np.linalg.LinAlgError):
                break
            if not np.all(np.isfinite(delta)) or np.linalg.norm(delta) > 2 * np.max(span):
                break
            x = x + delta
        if not ok or not region.contains(x):
            continue
        if all(np.linalg.norm(x - r) > dedup for r in roots):
            roots.append(x)
    roots.sort(key=tuple)
    return roots


@pytest.fixture
def quad_field():
    return scalar_quadratic(1.0)
