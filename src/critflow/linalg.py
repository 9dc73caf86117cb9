"""Dense linear algebra for small real matrices.

Eigenvalues are computed by closed form for orders 1 and 2 and by LAPACK,
through ``numpy.linalg.eigvals``, for order >= 3. Linear systems go
through partially pivoted elimination on Python floats, written out on
scalars for each size and compiled on first use (:func:`_elimination`).
:func:`solve_linear`, :func:`min_pivot` and Newton's steps all run it,
the last on the flat row-major Jacobian tuple of a field's kernel.
Spectra are compared as multisets via a matching distance, never
element-wise by index.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

__all__ = [
    "Spectrum", "SingularMatrixError", "EigenConvergenceError",
    "eigenvalues", "solve_linear", "spectrum_distance", "min_pivot",
    "is_degenerate",
]


class SingularMatrixError(ValueError):
    """Raised where the smallest pivot magnitude of the elimination,
    ``pivot``, is zero or at or below 1e-13 ||m||_inf, for every size."""

    def __init__(self, pivot: float, threshold: float):
        super().__init__(f"singular matrix: pivot magnitude {pivot:.3e} below {threshold:.3e}")
        self.pivot = pivot


class EigenConvergenceError(RuntimeError):
    """The eigenvalue computation did not converge on ``matrix``."""

    def __init__(self, matrix: np.ndarray):
        super().__init__(f"eigenvalue computation did not converge on a "
                         f"{matrix.shape[0]}x{matrix.shape[0]} matrix")
        self.matrix = matrix


def _as_square(m) -> np.ndarray:
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


# ---------------------------------------------------------------------------
# Spectra

@dataclass(frozen=True)
class Spectrum:
    """Multiset of eigenvalues, sorted by (re, |im|, im). The two members
    of a conjugate pair share the smaller of their real parts and of their
    |im| as the first two, so the member with negative imaginary part comes
    first even where rounding splits them."""

    values: tuple[complex, ...]

    @classmethod
    def of(cls, vals) -> "Spectrum":
        vals = [complex(v) for v in vals]
        scale = max([abs(v) for v in vals] + [1.0])
        # drop iteration noise in imaginary parts so real spectra stay real
        cleaned = [v if abs(v.imag) > 1e-12 * scale else complex(v.real, 0.0)
                   for v in vals]
        keys = [(v.real, abs(v.imag)) for v in cleaned]
        upper = [j for j, v in enumerate(cleaned) if v.imag > 0]
        for i, v in enumerate(cleaned):
            if v.imag < 0 and upper:
                j = min(upper, key=lambda k: abs(cleaned[k] - v.conjugate()))
                upper.remove(j)
                keys[i] = keys[j] = (min(v.real, cleaned[j].real), min(-v.imag, cleaned[j].imag))
        order = sorted(range(len(cleaned)), key=lambda i: (*keys[i], cleaned[i].imag))
        return cls(tuple(cleaned[i] for i in order))

    @property
    def order(self) -> int:
        return len(self.values)


def spectrum_distance(a: Spectrum, b: Spectrum) -> float:
    """Minimum over matchings of the maximum pairwise modulus distance.

    Exhaustive assignment for order <= 8, greedy nearest-pair above.
    """
    if a.order != b.order:
        raise ValueError(f"spectrum orders differ: {a.order} vs {b.order}")
    xs, ys = a.values, b.values
    n = len(xs)
    if n <= 8:
        best = math.inf
        for perm in permutations(range(n)):
            worst = 0.0
            for i, j in enumerate(perm):
                d = abs(xs[i] - ys[j])
                if d > worst:
                    worst = d
                    if worst >= best:
                        break
            if worst < best:
                best = worst
        return best
    remaining = list(ys)
    worst = 0.0
    for x in xs:
        j = min(range(len(remaining)), key=lambda k: abs(x - remaining[k]))
        worst = max(worst, abs(x - remaining[j]))
        remaining.pop(j)
    return worst


# ---------------------------------------------------------------------------
# Linear solve

@functools.cache
def _elimination(n: int):
    """Partially pivoted elimination for n x n systems, compiled from
    generated source on first use: ``eliminate(a, b)`` takes the matrix as
    a flat row-major sequence of n * n Python floats and the right-hand
    side as n, and returns the solution as a list (None where the matrix is
    singular), the smallest pivot magnitude and the singularity threshold.

    Entry (i, j) of the row in position i is ``a<i>_<j>``. The first of
    equal pivot magnitudes wins (a NaN, once met, as for ``np.argmax``), a
    zero diagonal or a zero factor skips its update, and entries left of
    the diagonal are never updated: nothing reads them. The threshold is
    1e-13 times the largest row sum of magnitudes, and the smallest pivot
    is NaN if any pivot is, as for ``np.min``."""
    idx = range(n)
    lines = ["def eliminate(a, b):",
             f"    {''.join(f'a{i}_{j}, ' for i in idx for j in idx)}= a",
             f"    {''.join(f'b{i}, ' for i in idx)}= b",
             "    norm = 0.0"]
    for i in idx:
        lines += [f"    total = {' + '.join(f'abs(a{i}_{j})' for j in idx)}",
                  "    if total > norm:", "        norm = total"]
    for c in idx:
        lines.append(f"    p, best = {c}, abs(a{c}_{c})")
        for r in range(c + 1, n):
            lines += [f"    v = abs(a{r}_{c})", "    if v > best or (v != v and best == best):",
                      f"        p, best = {r}, v"]
        lines += (["    worst = best"] if c == 0 else
                  ["    if best < worst or best != best:", "        worst = best"])
        for r in range(c + 1, n):  # swap the pivot row's columns c.. into place
            row = [f"a{{0}}_{j}" for j in range(c, n)] + ["b{0}"]
            top, other = ", ".join(row).format(c), ", ".join(row).format(r)
            lines += [f"    {'if' if r == c + 1 else 'elif'} p == {r}:",
                      f"        {top}, {other} = {other}, {top}"]
        if c + 1 < n:
            lines.append(f"    if a{c}_{c} != 0.0:")
        for r in range(c + 1, n):
            lines += [f"        f = a{r}_{c} / a{c}_{c}", "        if f != 0.0:"]
            lines += [f"            a{r}_{j} -= f * a{c}_{j}" for j in range(c + 1, n)]
            lines.append(f"            b{r} -= f * b{c}")
    lines += ["    threshold = 1e-13 * norm",
              "    if worst <= threshold or worst == 0.0:",
              "        return None, worst, threshold"]
    for i in reversed(idx):
        terms = "".join(f" - a{i}_{j} * x{j}" for j in range(i + 1, n))
        lines.append(f"    x{i} = (b{i}{terms}) / a{i}_{i}")
    lines.append(f"    return [{', '.join(f'x{i}' for i in idx)}], worst, threshold")
    scope = {}
    exec(compile("\n".join(lines) + "\n", f"<critflow-elimination-{n}>", "exec"), scope)
    return scope["eliminate"]


def _solve(a, b) -> list[float]:
    """:func:`solve_linear` on Python floats, without validation: ``a`` is
    a square matrix of finite floats, flat and row-major, and ``b`` the n
    floats of the right-hand side."""
    x, worst, threshold = _elimination(len(b))(a, b)
    if x is None:
        raise SingularMatrixError(worst, threshold)
    return x


def min_pivot(m) -> float:
    """Smallest pivot magnitude met during the elimination of
    :func:`solve_linear`, run with a zero right-hand side."""
    a = _as_square(m)
    return _elimination(len(a))(a.ravel().tolist(), [0.0] * len(a))[1]


def is_degenerate(m, tol: float = 1e-10) -> bool:
    """Singularity test used for degeneracy flags and map invertibility:
    smallest pivot at or below ``tol`` relative to max(1, ||m||_inf). With
    ``tol = 1e-13`` a matrix that passes is never rejected by
    :func:`solve_linear`, whose threshold is ``1e-13 * ||m||_inf``."""
    a = _as_square(m)
    scale = max(1.0, float(np.linalg.norm(a, np.inf)))
    return min_pivot(a) <= tol * scale


def solve_linear(m, rhs) -> np.ndarray:
    """Solve m @ x = rhs by partially pivoted Gaussian elimination on Python
    floats, one generated elimination per size (:func:`_elimination`).
    Raises ``ValueError`` unless m is square and finite, and
    :class:`SingularMatrixError` where the smallest pivot is at or below
    1e-13 ||m||_inf."""
    a = _as_square(m)
    return np.array(_solve(a.ravel().tolist(), np.array(rhs, dtype=float).reshape(len(a)).tolist()))


# ---------------------------------------------------------------------------
# Eigenvalues

def _eig2(a: float, b: float, c: float, d: float) -> list[complex]:
    mid = 0.5 * (a + d)
    disc = 0.25 * (a - d) ** 2 + b * c
    if disc >= 0.0:
        s = math.sqrt(disc)
        return [complex(mid - s), complex(mid + s)]
    s = math.sqrt(-disc)
    return [complex(mid, -s), complex(mid, s)]


def eigenvalues(m) -> Spectrum:
    """All eigenvalues of a small dense real matrix: closed forms for
    orders 1 and 2, ``numpy.linalg.eigvals`` (LAPACK) above.

    Raises :class:`EigenConvergenceError`, carrying the matrix, if LAPACK
    does not converge.
    """
    a = _as_square(m)
    n = a.shape[0]
    if n == 1:
        return Spectrum.of([a[0, 0]])
    if n == 2:
        return Spectrum.of(_eig2(a[0, 0], a[0, 1], a[1, 0], a[1, 1]))
    try:
        return Spectrum.of(np.linalg.eigvals(a))
    except np.linalg.LinAlgError as err:
        raise EigenConvergenceError(a) from err
