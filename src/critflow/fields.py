"""Derived fields and coordinate maps.

Builds, from a :class:`~critflow.expr.SystemDefinition`, the compiled
velocity field together with its exact symbolic Jacobian/Hessian, the
acceleration field (Jacobian contracted with the velocity), and the
pushforwards of velocity and acceleration under a coordinate map.

Evaluation runs through compiled kernels: one generated function per map
and derivative order (values, Jacobian or Hessian) that returns every
entry in one call as a flat tuple, with repeated subexpressions computed
once (see :func:`~critflow.expr.compile_kernel`). ``value``/``jacobian``/
``hessian`` reshape those tuples and give the same bits as evaluating each
entry's tree, and ``jet`` gathers their results; ``value_grid`` uses one
broadcasting kernel for all components.

A coordinate map caches what the checks derive from it: the matrix, offset
and inverse of a declared-linear map (``TransformationMap.linear_part``)
and the bounding box of its image (:func:`image_region`).

A field's parameters are fixed when it is built, and so is its
acceleration. Root searches get it from :func:`acceleration_map`, which
builds it once per field and caches it there. There is one acceleration
Jacobian, the symbolic field :func:`acceleration_field` with exact first
partials. A plain :class:`VectorField` uses it directly. An
:class:`AffineConjugateField` g = A f(A^-1 (y - b)) conjugates its base's:
under an affine map the curvature term of the pushforward vanishes, so g's
acceleration is A F(x) with Jacobian A DF(x) A^-1
(:class:`JetAccelerationMap`), and g's large substituted trees are never
differentiated.

An :class:`AffineConjugateField` compiles one plain-float conjugation when
it is built: the pull-back x = A^-1 y - A^-1 b and the push-forward A v,
two small kernels with each sum in index order. Its values and its
acceleration map's values go through them, and so do Newton's residuals
and the RKF45 stages, which call those values. Jacobians and Hessians stay
numpy products.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .expr import (
    KERNEL_ERRORS, Binary, Const, DomainError, Expression, ExpressionError,
    Name, Unary, SystemDefinition, compile_array, compile_kernel, differentiate,
    e_add, e_div, e_func, e_mul, e_neg, e_pow, e_sub, evaluate,
    free_variables, to_source,
)
from .linalg import is_degenerate, solve_linear
from .region import AnalysisRegion, lattice_points

__all__ = [
    "JetValue", "VectorMap", "VectorField", "TransformationMap", "LinearPart",
    "AffineConjugateField", "JetAccelerationMap",
    "InverseMismatchError", "jet", "acceleration_field", "acceleration_map",
    "pushforward_velocity", "pushforward_acceleration",
    "transformed_system", "image_region", "substitute",
    "default_target_names",
]


class InverseMismatchError(ValueError):
    def __init__(self, worst_residual: float, detail: str = ""):
        msg = f"declared inverse does not invert the map (worst residual {worst_residual:.3e})"
        super().__init__(msg + (f": {detail}" if detail else ""))
        self.worst_residual = worst_residual


@dataclass(frozen=True)
class JetValue:
    """Value, Jacobian and (for order-2 jets) Hessian of a vector map at a
    point. ``hessian[i, j, k]`` is the second partial of component i with
    respect to inputs j and k."""

    value: np.ndarray
    jacobian: np.ndarray
    hessian: np.ndarray | None = None


class VectorMap:
    """Vector of expressions over named inputs, with cached symbolic
    partials. Immutable once constructed.

    Each derivative order is compiled on first use into one kernel that
    returns all of its entries; ``value``, ``jacobian`` and ``hessian``
    reshape those entries, bit-identical to :func:`~critflow.expr.evaluate`
    on each, and ``jet`` calls them in that order. A point outside the
    domain raises :class:`~critflow.expr.DomainError` naming the first
    entry (row-major) that is not evaluable there.
    """

    def __init__(self, name: str, input_names: Sequence[str],
                 parameters: Mapping[str, float], components: Sequence[Expression]):
        self.name = name
        self.input_names = tuple(input_names)
        self.parameters = {k: float(v) for k, v in sorted(parameters.items())}
        self.components = tuple(components)
        declared = set(self.input_names) | set(self.parameters)
        for i, comp in enumerate(self.components):
            stray = free_variables(comp) - declared
            if stray:
                raise ExpressionError(f"component {i} references undeclared names {sorted(stray)}")
        self._args = self.input_names + tuple(self.parameters)
        self._param_values = tuple(self.parameters[k] for k in self.parameters)
        self.n_in = len(self.input_names)
        self.n_out = len(self.components)
        self._kernels: dict = {}  # compiled on first use, keyed by derivative order

    def source_strings(self) -> tuple[str, ...]:
        return tuple(to_source(c) for c in self.components)

    def __repr__(self):
        comps = ", ".join(self.source_strings())
        return f"<{type(self).__name__} {self.name}: [{comps}]>"

    # -- symbolic partials ------------------------------------------------

    def _partials(self, exprs) -> tuple[tuple[Expression, ...], ...]:
        # one memo per variable shares work between the expressions
        memos = [{} for _ in self.input_names]
        return tuple(tuple(differentiate(e, x, memo) for x, memo in zip(self.input_names, memos))
                     for e in exprs)

    @cached_property
    def jacobian_exprs(self) -> tuple[tuple[Expression, ...], ...]:
        return self._partials(self.components)

    @cached_property
    def hessian_exprs(self) -> tuple[tuple[tuple[Expression, ...], ...], ...]:
        flat = self._partials(e for row in self.jacobian_exprs for e in row)
        n = self.n_in
        return tuple(flat[i * n:(i + 1) * n] for i in range(self.n_out))

    # -- compiled kernels ---------------------------------------------------
    #
    # One kernel per derivative order (0 value, 1 Jacobian, 2 Hessian)
    # returns that order's entries flat, row-major, so each method raises
    # exactly where its own entries are not evaluable.

    def _entries(self, order: int) -> list[Expression]:
        if order == 0:
            return list(self.components)
        if order == 1:
            return [e for row in self.jacobian_exprs for e in row]
        return [e for plane in self.hessian_exprs for row in plane for e in row]

    def _label(self, order: int, k: int) -> str:
        n = self.n_in
        if order == 0:
            return f"component {k}"
        if order == 1:
            return f"jacobian[{k // n},{k % n}]"
        return f"hessian[{k // (n * n)},{k // n % n},{k % n}]"

    def _compile_kernel(self, order: int):
        kernel = compile_kernel(self._entries(order), self._args)
        # parameters ride along as defaults, so plain calls pass coordinates only
        kernel.__defaults__ = self._param_values
        self._kernels[order] = kernel
        return kernel

    def _floats(self, point) -> list[float]:
        """``point`` as a list of Python floats, the kernels' arguments."""
        if len(point) != self.n_in:
            raise ValueError(f"point has {len(point)} coordinates, map expects {self.n_in}")
        return point.tolist() if isinstance(point, np.ndarray) else [float(v) for v in point]

    def _call(self, order: int, args) -> tuple:
        """The entries of ``order`` at ``args``, a sequence of Python
        floats, from a single kernel call; raises :class:`DomainError`
        naming the first entry that :func:`~critflow.expr.evaluate` would
        reject."""
        kernel = self._kernels.get(order) or self._compile_kernel(order)
        try:
            out = kernel(*args)
        except KERNEL_ERRORS:
            self._raise_domain_error(order, args)
        # a finite sum proves every entry finite; otherwise look closer
        if not math.isfinite(sum(out)) and not all(map(math.isfinite, out)):
            self._raise_domain_error(order, args)
        return out

    def _raise_domain_error(self, order: int, args):
        args = list(args)
        env = {**self.parameters, **dict(zip(self.input_names, args))}
        for k, e in enumerate(self._entries(order)):
            try:
                evaluate(e, env)
            except DomainError as err:
                raise DomainError(f"{self._label(order, k)} of {self.name} is not "
                                  f"evaluable at {args}: {err}") from None
        raise DomainError(f"{self.name} is not evaluable at {args}")

    # -- evaluation ---------------------------------------------------------

    def value(self, point) -> np.ndarray:
        return np.array(self._call(0, self._floats(point)))

    # Newton's float interface: values as a tuple and Jacobian rows, at a
    # sequence of Python floats of the right length

    def _values(self, args) -> tuple:
        return self._call(0, args)

    def _jacobian_rows(self, args) -> list:
        out, n = self._call(1, args), self.n_in
        return [out[k:k + n] for k in range(0, len(out), n)]

    @cached_property
    def _grid_kernel(self):
        return compile_array(self.components, self._args)

    def value_grid(self, points: np.ndarray) -> np.ndarray:
        """Vectorized evaluation over rows of ``points``, through one array
        kernel for all components; out-of-domain rows come back NaN/inf
        rather than raising."""
        pts = np.asarray(points, dtype=float)
        cols = [pts[:, d] for d in range(self.n_in)]
        out = np.empty((pts.shape[0], self.n_out))
        for i, column in enumerate(self._grid_kernel(*cols, *self._param_values)):
            out[:, i] = column  # a constant entry broadcasts
        return out

    def jacobian(self, point) -> np.ndarray:
        return np.array(self._call(1, self._floats(point))).reshape(self.n_out, self.n_in)

    def hessian(self, point) -> np.ndarray:
        n = self.n_in
        return np.array(self._call(2, self._floats(point))).reshape(self.n_out, n, n)

    def jet(self, point, order: int = 1) -> JetValue:
        if order not in (1, 2):
            raise ValueError("jet order must be 1 or 2")
        return JetValue(self.value(point), self.jacobian(point),
                        self.hessian(point) if order == 2 else None)


def jet(field_or_map: VectorMap, point, order: int = 1) -> JetValue:
    """Value/Jacobian(/Hessian) of a field or map at a point, all from
    exact symbolic partials."""
    return field_or_map.jet(point, order=order)


class VectorField(VectorMap):
    """Velocity field of an autonomous system (square: n inputs, n outputs)."""

    def __init__(self, system: SystemDefinition):
        super().__init__(system.name, system.state_names, system.parameters,
                         system.components)
        self.system = system

    @property
    def dimension(self) -> int:
        return self.n_in

    @cached_property
    def _acceleration(self):
        return acceleration_field(self)


class JetAccelerationMap:
    """Acceleration field of an :class:`AffineConjugateField` g.

    With x = A^-1 y - A^-1 b, value = A F(x) and jacobian = A DF(x) A^-1,
    where F is ``acceleration_map(g.base)``: the symbolic map, with the
    kernels that the base's own perpetual search compiles. The value goes
    through g's plain-float conjugation kernels, the Jacobian through numpy
    products, as for g itself. No Hessian is evaluated, nothing is compiled
    and nothing is cached per point. The name dates from an earlier
    construction that contracted g's jets; it stays because the benchmark's
    layer tracer patches this class and its methods by name.
    """

    def __init__(self, field: AffineConjugateField):
        self.field = field
        self.accel = acceleration_map(field.base)
        self.name = f"{field.name}_accel"

    def _values(self, ys) -> tuple:
        g = self.field
        return _finite(g._push(*self.accel._values(g._pull(*ys))), self.name, ys)

    def _jacobian_rows(self, ys) -> list:
        return self.jacobian(ys).tolist()

    def value(self, point) -> np.ndarray:
        return np.array(self._values(self.field._floats(point)))

    def jacobian(self, point) -> np.ndarray:
        g = self.field
        pushed = g._mat.dot(self.accel.jacobian(g._pull_back(point))).dot(g._inv)
        return _finite(pushed, self.name, point)


def acceleration_map(f: VectorField):
    """The acceleration field root searches use: symbolic for a plain
    :class:`VectorField`, its base's conjugated by the map for an
    :class:`AffineConjugateField`.

    Built on first use and cached on the field, which is immutable, so
    every search, check and caller of one field shares one map and its
    compiled kernels: ``acceleration_map(f) is acceleration_map(f)``."""
    return f._acceleration


@dataclass(frozen=True)
class LinearPart:
    """A declared-linear map as y = matrix x + offset. ``inverse`` is the
    inverse matrix, or None when the matrix is singular by the one rule
    ``linalg.is_degenerate(matrix, 1e-13)``."""

    matrix: np.ndarray
    offset: np.ndarray
    inverse: np.ndarray | None


#: image_region samples this many lattice points (plus the domain corners)
#: and pads the box by this fraction of its span
_IMAGE_SAMPLES = 200
_IMAGE_INFLATE = 0.02


class TransformationMap(VectorMap):
    """Coordinate map with a declared domain box and linearity flag.

    ``declared_linear`` is asserted by the caller and verified by sampling:
    the Hessian must vanish (|entry| < 1e-12) at 100 lattice points of the
    domain. ``linear_part`` holds such a map's matrix, offset and inverse,
    read off at the domain centre; it is None for a map not declared
    linear. A declared-linear map that is not evaluable at those points
    raises :class:`ExpressionError`.
    """

    def __init__(self, name: str, input_names: Sequence[str],
                 parameters: Mapping[str, float], components: Sequence[Expression],
                 domain: AnalysisRegion, declared_linear: bool,
                 inverse: VectorMap | None = None):
        super().__init__(name, input_names, parameters, components)
        if self.n_out != self.n_in:
            raise ExpressionError(
                f"transformation must be square, got {self.n_in} -> {self.n_out}")
        if domain.dimension != self.n_in:
            raise ExpressionError("domain dimension does not match the map")
        if inverse is not None and inverse.n_out != self.n_in:
            raise ExpressionError("inverse component count does not match the map")
        self.domain = domain
        self.declared_linear = bool(declared_linear)
        self.inverse = inverse
        self.linear_part: LinearPart | None = None
        if self.declared_linear:
            try:
                self.linear_part = self._read_linear_part()
            except DomainError as err:
                raise ExpressionError(f"map declared linear but {err}") from err

    def _read_linear_part(self) -> LinearPart:
        """Check the declared linearity, then read off matrix, offset and
        inverse. Symbolic Hessian entries that all fold to zero prove the
        linearity exactly; otherwise the Hessian is sampled."""
        if not all(isinstance(e, Const) and e.value == 0.0
                   for plane in self.hessian_exprs for row in plane for e in row):
            worst = 0.0
            for p in lattice_points(self.domain, 100, rng_seed=0):
                worst = max(worst, float(np.max(np.abs(self.hessian(p)))))
            if worst >= 1e-12:
                raise ExpressionError(
                    f"map declared linear but has Hessian entries up to {worst:.3e}")
        center = 0.5 * (self.domain.lower + self.domain.upper)
        matrix = self.jacobian(center)
        offset = self.value(center) - matrix @ center
        inverse = None
        if not is_degenerate(matrix, 1e-13):
            inverse = np.column_stack([solve_linear(matrix, e) for e in np.eye(self.n_in)])
        return LinearPart(matrix, offset, inverse)

    @cached_property
    def _image_region(self) -> AnalysisRegion:
        corners = list(itertools.product(*self.domain.bounds))
        values = []
        for p in np.vstack([lattice_points(self.domain, _IMAGE_SAMPLES, rng_seed=0), corners]):
            try:
                values.append(self.value(p))
            except DomainError:
                continue
        if not values:
            raise DomainError(f"map {self.name} not evaluable anywhere on its domain")
        vals = np.array(values)
        lo, hi = vals.min(axis=0), vals.max(axis=0)
        pad = _IMAGE_INFLATE * np.maximum(hi - lo, 1e-9)
        return AnalysisRegion(tuple((float(l - p), float(u + p))
                                    for l, u, p in zip(lo, hi, pad)))

    def target_names(self) -> tuple[str, ...]:
        if self.inverse is not None:
            return self.inverse.input_names
        return default_target_names(self.n_in, set(self.parameters))


def default_target_names(n: int, taken=()) -> tuple[str, ...]:
    names = ("y",) if n == 1 else tuple(f"y{i + 1}" for i in range(n))
    clash = set(names) & set(taken)
    if clash:
        raise ExpressionError(
            f"generated target names {sorted(clash)} collide with declared names; "
            f"rename the parameters")
    return names


# ---------------------------------------------------------------------------
# Symbolic constructions

def substitute(e: Expression, mapping: Mapping[str, Expression]) -> Expression:
    """Replace named leaves by expressions, re-folding constants."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Name):
        return mapping.get(e.ident, e)
    if isinstance(e, Unary):
        inner = substitute(e.arg, mapping)
        return e_neg(inner) if e.op == "neg" else e_func(e.op, inner)
    builders = {"+": e_add, "-": e_sub, "*": e_mul, "/": e_div, "^": e_pow}
    return builders[e.op](substitute(e.left, mapping), substitute(e.right, mapping))


def _finite(out, name: str, point):
    """``out``, an array or a flat tuple of floats, or :class:`DomainError`
    when a product with the map's matrices overflowed, as for a non-finite
    kernel entry."""
    flat = out.ravel().tolist() if isinstance(out, np.ndarray) else out
    # a finite sum proves every entry finite; otherwise look closer
    if not math.isfinite(sum(flat)) and not all(map(math.isfinite, flat)):
        raise DomainError(f"{name} is not evaluable at {[float(v) for v in point]}: "
                          f"non-finite result")
    return out


def _affine_kernel(matrix: np.ndarray, offset: np.ndarray | None, names):
    """One compiled kernel for ``matrix @ v`` (minus ``offset``) on Python
    floats: entry i is ``((m_i0 * v_0 + m_i1 * v_1) + ...) - offset_i``,
    summed in index order. The nodes are built unfolded, so a zero or unit
    coefficient keeps its operation."""
    entries = []
    for i, row in enumerate(matrix.tolist()):
        total = None
        for m, name in zip(row, names):
            term = Binary("*", Const(m), Name(name))
            total = term if total is None else Binary("+", total, term)
        if offset is not None:
            total = Binary("-", total, Const(float(offset[i])))
        entries.append(total)
    return compile_kernel(entries, names)


class AffineConjugateField(VectorField):
    """Transformed system under an affine map, evaluated by composition.

    Carries the substituted symbolic components (so serialization and the
    symbolic API behave like any other field) but computes values and
    partials as A f(A^-1 y - A^-1 b) with exact chain-rule contractions,
    which avoids the cost of the large substituted trees.

    Values, its own and its acceleration map's, go through the pull-back
    and push-forward kernels (:func:`_affine_kernel`) compiled here once.
    """

    def __init__(self, system: SystemDefinition, base: VectorField, linear: LinearPart):
        super().__init__(system)
        self.base = base
        self._mat = linear.matrix
        self._inv = linear.inverse
        self._offset = linear.offset
        self._inv_offset = linear.inverse @ linear.offset
        self._pull = _affine_kernel(self._inv, self._inv_offset, self.input_names)
        self._push = _affine_kernel(self._mat, None, base.input_names)

    @cached_property
    def _acceleration(self):
        return JetAccelerationMap(self)

    def _pull_back(self, point) -> np.ndarray:
        return self._inv.dot(self._floats(point)) - self._inv_offset

    def _values(self, ys) -> tuple:
        return _finite(self._push(*self.base._values(self._pull(*ys))), self.name, ys)

    def _jacobian_rows(self, ys) -> list:
        return self.jacobian(ys).tolist()

    def value(self, point) -> np.ndarray:
        return np.array(self._values(self._floats(point)))

    # ``a.dot(b)`` reaches the same BLAS call as ``a @ b`` with less
    # dispatch overhead on these tiny operands

    def jacobian(self, point) -> np.ndarray:
        pushed = self._mat.dot(self.base.jacobian(self._pull_back(point))).dot(self._inv)
        return _finite(pushed, self.name, point)

    def hessian(self, point) -> np.ndarray:
        pushed = np.einsum("ip,pqr,qj,rk->ijk", self._mat,
                           self.base.hessian(self._pull_back(point)), self._inv, self._inv)
        return _finite(pushed, self.name, point)

    def value_grid(self, points: np.ndarray) -> np.ndarray:
        pulled = (np.asarray(points, dtype=float) - self._offset) @ self._inv.T
        return self.base.value_grid(pulled) @ self._mat.T


def acceleration_field(f: VectorField) -> VectorField:
    """Second-time-derivative field: component i is sum_j (df_i/dx_j) f_j,
    built symbolically so its own Jacobian stays exact."""
    comps = []
    for i in range(f.dimension):
        total: Expression = Const(0.0)
        for j in range(f.dimension):
            total = e_add(total, e_mul(f.jacobian_exprs[i][j], f.components[j]))
        comps.append(total)
    system = SystemDefinition(
        name=f"{f.name}_accel",
        state_names=f.input_names,
        parameters=dict(f.parameters),
        components=tuple(comps),
    )
    return VectorField(system)


def pushforward_velocity(f: VectorField, h: TransformationMap, point) -> np.ndarray:
    """Velocity of the transformed system at h(point): Dh(point) @ f(point)."""
    return h.jacobian(point) @ f.value(point)


def pushforward_acceleration(f: VectorField, h: TransformationMap, point) -> np.ndarray:
    """Acceleration of the transformed system at h(point).

    Component i is sum_jk H_h[i,j,k] f_j f_k + sum_j Dh[i,j] F_j, the
    Hessian term being the curvature correction that vanishes for linear h.
    """
    jf = f.jet(point, order=1)
    accel = jf.jacobian @ jf.value
    jh = h.jet(point, order=2)
    curvature = np.einsum("ijk,j,k->i", jh.hessian, jf.value, jf.value)
    return curvature + jh.jacobian @ accel


def transformed_system(f: VectorField, h: TransformationMap) -> VectorField:
    """Symbolic velocity field of the transformed system.

    Builds Dh f in source coordinates and substitutes the declared inverse,
    after verifying on 100 sampled domain points that the inverse actually
    inverts the map (worst residual below 1e-9).
    """
    h_inverse = h.inverse
    if h_inverse is None:
        raise InverseMismatchError(math.inf, "no inverse supplied")
    if h_inverse.n_in != h.n_in or h_inverse.n_out != h.n_in:
        raise ExpressionError("inverse dimensions do not match the map")

    worst = 0.0
    for p in lattice_points(h.domain, 100, rng_seed=0):
        try:
            image = h.value(p)
            back = h_inverse.value(image)
        except DomainError as err:
            raise InverseMismatchError(math.inf, str(err)) from err
        worst = max(worst, float(np.max(np.abs(back - p))))
    if worst >= 1e-9:
        raise InverseMismatchError(worst)

    targets = h_inverse.input_names
    inverse_map = {x: h_inverse.components[k] for k, x in enumerate(h.input_names)}
    merged = dict(f.parameters)
    for k, v in {**h.parameters, **h_inverse.parameters}.items():
        if k in merged and merged[k] != v:
            raise ExpressionError(f"parameter {k!r} has conflicting values {merged[k]} and {v}")
        merged[k] = v
    if set(targets) & set(merged):
        raise ExpressionError("target state names collide with parameter names")

    comps = []
    for i in range(f.dimension):
        pushed: Expression = Const(0.0)
        for j in range(f.dimension):
            pushed = e_add(pushed, e_mul(h.jacobian_exprs[i][j], f.components[j]))
        comps.append(substitute(pushed, inverse_map))

    system = SystemDefinition(
        name=f"{f.name}_via_{h.name}",
        state_names=targets,
        parameters=merged,
        components=tuple(comps),
    )
    linear = h.linear_part
    if linear is not None and linear.inverse is not None:
        return AffineConjugateField(system, f, linear)
    return VectorField(system)


def image_region(h: TransformationMap) -> AnalysisRegion:
    """Bounding box of the sampled image of h's domain (lattice plus
    corners), slightly inflated. A numerical stand-in for the exact image.

    Computed on first use and cached on the map, which is immutable:
    ``image_region(h) is image_region(h)``."""
    return h._image_region
