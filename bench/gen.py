"""Inputs for the benchmark workloads.

Random dense cubic systems and random invertible affine maps, drawn with
the same sequence of ``random.Random`` calls as the test suite's builders
(``random_polynomial_field`` and ``random_affine_map`` in
``tests/conftest.py``), so a given RNG seed names the same system in both
places. Besides the expression sources that the program receives, each
input keeps the coefficient table or the matrix (A, b) it was written
from; ``oracle.py`` evaluates those with numpy, apart from the program.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

#: every generated system and map lives on this box in each coordinate
BOX = (-2.5, 2.5)
#: the RNG seed of the acceptance suite's criterion 4
CRITERION4_SEED = 20240801
#: total degree of the generated systems
DEGREE = 3
#: coefficients are drawn from [-COEFF_RANGE, COEFF_RANGE]
COEFF_RANGE = 2.0
#: largest condition number of a generated map's matrix
MAX_COND = 50.0


def state_names(n: int) -> tuple[str, ...]:
    return ("x",) if n == 1 else tuple(f"x{i + 1}" for i in range(n))


def target_names(n: int) -> tuple[str, ...]:
    return ("y",) if n == 1 else tuple(f"y{i + 1}" for i in range(n))


def monomials(n: int) -> list[tuple[int, ...]]:
    return [e for e in itertools.product(range(DEGREE + 1), repeat=n)
            if 0 < sum(e) <= DEGREE]


@dataclass(frozen=True)
class PolySystem:
    """f_i(x) = const[i] + sum_m coeffs[i, m] * prod_d x_d ** exponents[m, d]."""
    name: str
    states: tuple[str, ...]
    sources: tuple[str, ...]
    const: np.ndarray
    coeffs: np.ndarray
    exponents: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.states)

    def file_doc(self) -> dict:
        return {"name": self.name, "state": list(self.states), "params": {},
                "field": list(self.sources), "region": [list(BOX)] * self.dimension}


@dataclass(frozen=True)
class AffineMap:
    """h(x) = A x + b, with its inverse written out in the target names."""
    forward: tuple[str, ...]
    inverse: tuple[str, ...]
    matrix: np.ndarray
    offset: np.ndarray

    def file_doc(self) -> dict:
        n = len(self.forward)
        return {"map": list(self.forward), "inverse": list(self.inverse),
                "params": {}, "domain": [list(BOX)] * n, "linear": True}


def random_system(rng: random.Random, n: int, name: str) -> PolySystem:
    names = state_names(n)
    exps = monomials(n)
    const, coeffs, sources = [], [], []
    for _ in range(n):
        c0 = rng.uniform(-COEFF_RANGE, COEFF_RANGE)
        terms, row = [repr(c0)], []
        for exponents in exps:
            c = rng.uniform(-COEFF_RANGE, COEFF_RANGE)
            row.append(c)
            factors = [repr(c)]
            for var, e in zip(names, exponents):
                if e == 1:
                    factors.append(var)
                elif e > 1:
                    factors.append(f"{var}^{e}")
            terms.append("*".join(factors))
        const.append(c0)
        coeffs.append(row)
        sources.append(" + ".join(terms))
    return PolySystem(name, names, tuple(sources), np.array(const),
                      np.array(coeffs), np.array(exps, dtype=int))


def random_affine(rng: random.Random, n: int) -> AffineMap:
    """Invertible A with condition number at most ``MAX_COND``, offset b in
    [-2, 2]^n; coefficients are written as exact float literals."""
    cond = rng.uniform(1.0, MAX_COND)
    scale = rng.uniform(0.7, 1.5)
    if n == 1:
        a = np.array([[scale * rng.choice([-1.0, 1.0])]])
    else:
        sigmas = np.array([scale * np.sqrt(cond), scale / np.sqrt(cond)]
                          + [scale * cond ** rng.uniform(-0.5, 0.5) for _ in range(n - 2)])
        u, _ = np.linalg.qr(np.array([[rng.gauss(0, 1) for _ in range(n)] for _ in range(n)]))
        v, _ = np.linalg.qr(np.array([[rng.gauss(0, 1) for _ in range(n)] for _ in range(n)]))
        a = u @ np.diag(sigmas) @ v.T
    b = np.array([rng.uniform(-2.0, 2.0) for _ in range(n)])
    a_inv = np.linalg.inv(a)
    xs, ys = state_names(n), target_names(n)
    forward = tuple(" + ".join(f"{float(a[i, j])!r}*{xs[j]}" for j in range(n))
                    + f" + {float(b[i])!r}" for i in range(n))
    inverse = tuple(" + ".join(f"{float(a_inv[i, j])!r}*({ys[j]} - {float(b[j])!r})"
                               for j in range(n)) for i in range(n))
    return AffineMap(forward, inverse, a, b)


def conjugacy_case(seed: int, n: int, name: str) -> tuple[PolySystem, AffineMap]:
    """The system and map the test builders draw from ``random.Random(seed)``."""
    rng = random.Random(seed)
    system = random_system(rng, n, name)
    return system, random_affine(rng, n)


def criterion4_cases(count: int) -> list[tuple[PolySystem, AffineMap]]:
    """The first ``count`` (system, map) pairs of criterion 4's sequence:
    dimension, system and map drawn in turn from one RNG."""
    rng = random.Random(CRITERION4_SEED)
    cases = []
    for index in range(count):
        n = rng.choice([1, 2, 3])
        system = random_system(rng, n, f"poly_{index}")
        cases.append((system, random_affine(rng, n)))
    return cases
