"""Dense linear algebra for small real matrices.

Eigenvalues are computed by closed form for orders 1 and 2 and by LAPACK,
through ``numpy.linalg.eigvals``, for order >= 3. Linear systems go
through partially pivoted elimination on Python floats for every size:
written out on scalars for orders 1 to 3, and one list elimination
(:func:`_eliminate`) for larger orders and for :func:`min_pivot`. Spectra
are compared as multisets via a matching distance, never element-wise by
index.
"""

from __future__ import annotations

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

    def moduli_scale(self) -> float:
        return max([abs(v) for v in self.values] + [1.0])


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

def _eliminate(a: list[list[float]], b: list[float] | None) -> list[float]:
    """In-place partially pivoted elimination on Python floats; returns the
    pivot magnitudes. The first of equal magnitudes wins the pivot (a NaN,
    once met, as for ``np.argmax``), zero factors skip their update, and
    entries below the diagonal are left as they are: nothing reads them."""
    n = len(a)
    pivots = []
    for col in range(n):
        p, best = col, abs(a[col][col])
        for row in range(col + 1, n):
            v = abs(a[row][col])
            if v > best or (v != v and best == best):
                p, best = row, v
        pivots.append(best)
        if p != col:
            a[col], a[p] = a[p], a[col]
            if b is not None:
                b[col], b[p] = b[p], b[col]
        top = a[col]
        diag = top[col]
        if diag == 0.0:
            continue
        for row in range(col + 1, n):
            cur = a[row]
            factor = cur[col] / diag
            if factor != 0.0:
                for k in range(col + 1, n):
                    cur[k] -= factor * top[k]
                if b is not None:
                    b[row] -= factor * b[col]
    return pivots


def _smallest(pivots: list[float]) -> float:
    # np.min's rule: a NaN anywhere is the minimum
    return math.nan if any(v != v for v in pivots) else min(pivots)


def min_pivot(m) -> float:
    """Smallest pivot magnitude met during pivoted elimination."""
    return _smallest(_eliminate(_as_square(m).tolist(), None))


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
    floats. Raises ``ValueError`` unless m is square and finite, and
    :class:`SingularMatrixError` for a pivot at or below 1e-13 ||m||_inf."""
    a = _as_square(m)
    return np.array(_solve_rows(a.tolist(), np.array(rhs, dtype=float).reshape(len(a)).tolist()))


def _solve_rows(rows, b: list[float]) -> list[float]:
    """:func:`solve_linear` on Python floats, without validation: ``rows``
    are the n rows of a square matrix of finite floats (lists or tuples,
    left unchanged) and ``b`` the right-hand side, a list of n floats. The
    unrolled solvers take n <= 3, and :func:`_eliminate` every larger n."""
    small = _SMALL_SOLVES.get(len(rows))
    return small(rows, b) if small else _solve_general(rows, b)


def _solve_general(rows, b: list[float]) -> list[float]:
    a = [list(row) for row in rows]
    b = list(b)
    n = len(a)
    norm = 0.0
    for row in a:
        total = 0.0
        for v in row:
            total += abs(v)
        if total > norm:
            norm = total
    threshold = 1e-13 * norm
    worst = _smallest(_eliminate(a, b))
    if worst <= threshold or worst == 0.0:
        raise SingularMatrixError(worst, threshold)
    x = [0.0] * n
    for row in range(n - 1, -1, -1):
        cur = a[row]
        total = b[row]
        for k in range(row + 1, n):
            total -= cur[k] * x[k]
        x[row] = total / cur[row]
    return x


def _solve_1x1(a, b: list[float]) -> list[float]:
    ((a00,),), (b0,) = a, b
    if a00 == 0.0:
        raise SingularMatrixError(0.0, 0.0)
    return [b0 / a00]


def _solve_2x2(a, b: list[float]) -> list[float]:
    (a00, a01), (a10, a11) = a
    b0, b1 = b
    norm = max(abs(a00) + abs(a01), abs(a10) + abs(a11))
    threshold = 1e-13 * norm
    if abs(a10) > abs(a00):
        a00, a01, b0, a10, a11, b1 = a10, a11, b1, a00, a01, b0
    pivot0 = abs(a00)
    if pivot0 <= threshold or pivot0 == 0.0:
        raise SingularMatrixError(pivot0, threshold)
    factor = a10 / a00
    a11 -= factor * a01
    b1 -= factor * b0
    pivot1 = abs(a11)
    if pivot1 <= threshold or pivot1 == 0.0:
        raise SingularMatrixError(pivot1, threshold)
    x1 = b1 / a11
    return [(b0 - a01 * x1) / a00, x1]


def _solve_3x3(a, b: list[float]) -> list[float]:
    # partially pivoted elimination written out on scalars; the first of
    # equal magnitudes wins the pivot, and zero factors skip their update
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    r0, r1, r2 = (a00, a01, a02, b[0]), (a10, a11, a12, b[1]), (a20, a21, a22, b[2])
    norm = max(abs(a00) + abs(a01) + abs(a02), abs(a10) + abs(a11) + abs(a12),
               abs(a20) + abs(a21) + abs(a22))
    threshold = 1e-13 * norm
    if abs(a10) > abs(a00):
        if abs(a20) > abs(a10):
            r0, r2 = r2, r0
        else:
            r0, r1 = r1, r0
    elif abs(a20) > abs(a00):
        r0, r2 = r2, r0
    p00, p01, p02, p03 = r0
    if abs(p00) <= threshold or p00 == 0.0:
        raise SingularMatrixError(abs(p00), threshold)
    rows = []
    for c0, c1, c2, c3 in (r1, r2):
        factor = c0 / p00
        if factor != 0.0:
            c1 -= factor * p01
            c2 -= factor * p02
            c3 -= factor * p03
        rows.append((c1, c2, c3))
    (p11, p12, p13), (q11, q12, q13) = rows
    if abs(q11) > abs(p11):
        p11, p12, p13, q11, q12, q13 = q11, q12, q13, p11, p12, p13
    if abs(p11) <= threshold or p11 == 0.0:
        raise SingularMatrixError(abs(p11), threshold)
    factor = q11 / p11
    if factor != 0.0:
        q12 -= factor * p12
        q13 -= factor * p13
    if abs(q12) <= threshold or q12 == 0.0:
        raise SingularMatrixError(abs(q12), threshold)
    x2 = q13 / q12
    x1 = (p13 - p12 * x2) / p11
    x0 = (p03 - p01 * x1 - p02 * x2) / p00
    return [x0, x1, x2]


_SMALL_SOLVES = {1: _solve_1x1, 2: _solve_2x2, 3: _solve_3x3}


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
