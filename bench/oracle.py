"""Reference computations made apart from the program.

``PolyOracle`` evaluates a generated cubic system from its coefficient
table with numpy: f, Df, D2f, the acceleration F = Df f and its Jacobian
DF = D2f[f] + Df Df. Spectra come from ``numpy.linalg.eigvals``. The
oracle is itself checked against central finite differences
(``finite_difference_problems``). The closed forms of the ``tests/data``
systems used by the ``cli-files`` workload live here too.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

from gen import PolySystem

#: criterion 4's tolerance on spectra
SPECTRUM_TOL = 1e-6
#: random points per oracle at which derivatives meet central differences
FD_POINTS = 3


class PolyOracle:
    def __init__(self, system: PolySystem):
        self.const = system.const
        self.coeffs = system.coeffs
        exps = system.exponents
        n = system.dimension
        self.n = n
        self.exps = exps
        eye = np.eye(n, dtype=int)
        # d/dx_d x^e = e_d x^(e - u_d); exponents are clipped where the factor is 0
        self.d1 = [(exps[:, d].astype(float), np.maximum(exps - eye[d], 0)) for d in range(n)]
        self.d2 = {}
        for d, k in itertools.product(range(n), repeat=2):
            factor = exps[:, d] * (exps[:, k] - (1 if d == k else 0))
            self.d2[d, k] = (factor.astype(float),
                             np.maximum(exps - eye[d] - eye[k], 0))

    @staticmethod
    def _mono(x, exps):
        return np.prod(np.power(x, exps), axis=1)

    def value(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.const + self.coeffs @ self._mono(x, self.exps)

    def jacobian(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.column_stack([self.coeffs @ (c * self._mono(x, e)) for c, e in self.d1])

    def hessian(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        h = np.empty((self.n, self.n, self.n))
        for (d, k), (c, e) in self.d2.items():
            h[:, d, k] = self.coeffs @ (c * self._mono(x, e))
        return h

    def accel(self, x) -> np.ndarray:
        return self.jacobian(x) @ self.value(x)

    def accel_jacobian(self, x) -> np.ndarray:
        j = self.jacobian(x)
        return np.einsum("ijk,j->ik", self.hessian(x), self.value(x)) + j @ j


def spectrum_gap(values, reference) -> float:
    """Smallest, over pairings, of the largest distance between paired
    eigenvalues."""
    a = [complex(v) for v in values]
    b = [complex(v) for v in reference]
    if len(a) != len(b):
        return math.inf
    return min(max((abs(x - b[j]) for x, j in zip(a, perm)), default=0.0)
               for perm in itertools.permutations(range(len(b))))


def finite_difference_problems(oracles, seed: int) -> list[str]:
    """Compare the oracle's analytic derivatives with central differences
    of its own lower-order functions at random points of [-2, 2]^n."""
    rng = random.Random(seed)
    problems = []

    def fd(fn, x, step):
        cols = []
        for d in range(len(x)):
            e = np.zeros(len(x))
            e[d] = step
            cols.append((fn(x + e) - fn(x - e)) / (2.0 * step))
        return np.column_stack(cols)

    for k, orc in enumerate(oracles):
        for _ in range(FD_POINTS):
            x = np.array([rng.uniform(-2.0, 2.0) for _ in range(orc.n)])
            pairs = [("Df", orc.jacobian(x), fd(orc.value, x, 1e-6)),
                     ("DF", orc.accel_jacobian(x), fd(orc.accel, x, 1e-6))]
            for d in range(orc.n):
                pairs.append((f"D2f[:, {d}]", orc.hessian(x)[:, :, d],
                              fd(lambda p: orc.jacobian(p)[:, d], x, 1e-6)))
            for label, exact, approx in pairs:
                scale = max(1.0, float(np.max(np.abs(exact))))
                if float(np.max(np.abs(exact - approx))) > 1e-6 * scale:
                    problems.append(f"oracle {k}: {label} disagrees with central "
                                    f"differences at {x.tolist()}")
    return problems


# ---------------------------------------------------------------------------
# Closed forms for tests/data

def planar_trajectory_error(traj: np.ndarray) -> float:
    """Largest distance of rows (t, x, y) from the flow of x' = 1 - x^2,
    y' = -y through the first row.

    With w = x when |x0| < 1 and w = 1/x when |x0| > 1, the flow is
    w = tanh(t + atanh w0), smooth even through the finite-time blow-up
    of x that starts below -1; y = y0 exp(-t)."""
    t, x, y = traj[:, 0], traj[:, 1], traj[:, 2]
    x0, y0 = x[0], y[0]
    with np.errstate(divide="ignore"):
        w = x if abs(x0) < 1.0 else 1.0 / x
    w_err = np.abs(w - np.tanh(t + math.atanh(w[0])))
    y_err = np.abs(y - y0 * np.exp(-t)) / max(1.0, abs(y0))
    return float(max(np.max(w_err), np.max(y_err)))


def planar_field(pts: np.ndarray) -> np.ndarray:
    """Columns f1, f2, F1, F2 of the planar system at rows (x, y)."""
    x, y = pts[:, 0], pts[:, 1]
    f1, f2 = 1.0 - x * x, -y
    return np.column_stack([f1, f2, -2.0 * x * f1, y])


#: analyze reports of the tests/data systems: location -> spectrum, per kind.
#: ``optional`` roots lie outside the region proper or have no spectrum and
#: may be reported (flagged boundary or degenerate) but need not be.
ANALYZE_EXPECTED = {
    "example1.json": {
        "fixed": {(-1.0,): [-2.0], (1.0,): [2.0]},
        "perpetual": {(0.0,): [-2.0]},
        "optional": [],
    },
    "example2_system.json": {
        "fixed": {(1.0,): [2.0]},
        "perpetual": {(1.0 / 3.0,): [-4.0]},
        "optional": [(0.0,)],
    },
    "planar.json": {
        "fixed": {(1.0, 0.0): [-2.0, -1.0], (-1.0, 0.0): [2.0, -1.0]},
        "perpetual": {(0.0, 0.0): [-2.0, 1.0]},
        "optional": [],
    },
    "rotation.json": {
        "fixed": {(0.0, 0.0): [1j, -1j]},
        "perpetual": {},
        "optional": [],
    },
}
