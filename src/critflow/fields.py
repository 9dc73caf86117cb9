"""Derived fields and coordinate maps.

Builds, from a :class:`~critflow.expr.SystemDefinition`, the compiled
velocity field together with its exact symbolic Jacobian/Hessian, the
acceleration field (Jacobian contracted with the velocity), and the
pushforwards of velocity and acceleration under a coordinate map.

Every map is a :class:`VectorMap` and evaluates through one path. Its
entries of each derivative order (``_entries``: values, Jacobian or
Hessian, flat) are compiled on first use into one kernel that returns them
all in one call as a flat tuple, with repeated subexpressions computed once
(see :func:`~critflow.expr.compile_kernel`), bit-identical to evaluating
each entry's tree. The kernel call is the float interface
(``_entries_at(order, args)`` at a sequence of Python floats, and
``_values`` for order 0), which returns the flat tuple, or None where the
point is not evaluable, and builds no message; Newton, RKF45 and a root's
spectrum call it directly. One hook, ``_raise_domain_error(order, args)``,
raises the :class:`~critflow.expr.DomainError` that names the first entry
that is not evaluable. ``value``, ``jacobian`` and ``hessian`` are the
kernel call plus that hook (:func:`_evaluated`), and ``value_grid``
compiles the values into one broadcasting kernel.

A coordinate map caches what the checks derive from it: the matrix, offset
and inverse of a declared-linear map (``TransformationMap.linear_part``)
and the bounding box of its image (:func:`image_region`).

A field's parameters are fixed when it is built, and so is its
acceleration. Root searches get it from :func:`acceleration_map`, which
builds it once per field and caches it there. There is one acceleration
Jacobian, the symbolic field :func:`acceleration_field` with exact first
partials. A plain :class:`VectorField` uses it directly.

Under an invertible affine map y = A x + b the transformed system is an
:class:`AffineConjugateField` g = A f(A^-1 (y - b)). Its entries are f's
own, composed with the map (:func:`_conjugated_entries`): each state leaf
becomes the pull-back, the output index is pushed forward by A and each
derivative index by A^-1, with every sum in index order. The curvature
term of the pushforward vanishes under an affine map, so g's acceleration
is A F(A^-1 (y - b)) with Jacobian A DF A^-1, and
:class:`JetAccelerationMap` composes the entries of the base's
acceleration F the same way. g's large substituted trees are only printed,
never differentiated or compiled.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .expr import (
    _BINARY_BUILDERS, KERNEL_ERRORS, MAX_NESTING_DEPTH, Binary, Const, DomainError,
    Expression, ExpressionError, Name, Unary, SystemDefinition, compile_array,
    compile_kernel, differentiate, e_add, e_func, e_mul, e_neg, evaluate,
    free_variables, nesting_depth, to_source,
)
from .linalg import is_degenerate, solve_linear
from .region import AnalysisRegion, lattice_points

__all__ = [
    "VectorMap", "VectorField", "TransformationMap", "LinearPart",
    "AffineConjugateField", "JetAccelerationMap",
    "InverseMismatchError", "acceleration_field", "acceleration_map",
    "pushforward_velocity", "pushforward_acceleration",
    "transformed_system", "image_region", "substitute",
    "default_target_names",
]


class InverseMismatchError(ValueError):
    def __init__(self, worst_residual: float, detail: str = ""):
        msg = f"declared inverse does not invert the map (worst residual {worst_residual:.3e})"
        super().__init__(msg + (f": {detail}" if detail else ""))
        self.worst_residual = worst_residual


def _floats(point, n: int) -> list[float]:
    """``point`` as a list of Python floats, the kernels' arguments."""
    if len(point) != n:
        raise ValueError(f"point has {len(point)} coordinates, map expects {n}")
    return point.tolist() if isinstance(point, np.ndarray) else [float(v) for v in point]


def _all_finite(flat) -> bool:
    """Whether every float of the flat sequence is finite."""
    # a finite sum proves every entry finite; otherwise look closer
    return math.isfinite(sum(flat)) or all(map(math.isfinite, flat))


def _evaluated(m: VectorMap, order: int, point) -> tuple:
    """The entries of ``m`` of the derivative ``order`` at ``point``, flat;
    where they are not evaluable, ``m._raise_domain_error`` raises the
    :class:`DomainError` that names the cause. Every map's ``value``,
    ``jacobian`` and ``hessian`` come down to this."""
    args = _floats(point, m.n_in)
    out = m._entries_at(order, args)
    if out is None:
        m._raise_domain_error(order, args)
    return out


class VectorMap:
    """Vector of expressions over named inputs, with cached symbolic
    partials. Immutable once constructed.

    The entries of each derivative order (``_entries``: the components and
    their symbolic partials, flat and row-major) are compiled on first use
    into one kernel that returns them all, bit-identical to
    :func:`~critflow.expr.evaluate` on each. ``_entries_at`` calls it: the
    float interface, which gives None where an entry is not evaluable or
    not finite. There ``value``, ``jacobian`` and ``hessian`` raise
    :class:`~critflow.expr.DomainError` naming the first entry (row-major)
    that is not evaluable.
    """

    def __init__(self, name: str, input_names: Sequence[str],
                 parameters: Mapping[str, float], components: Sequence[Expression]):
        self.name = name
        self.input_names = tuple(input_names)
        self.parameters = {k: float(v) for k, v in sorted(parameters.items())}
        self.components = tuple(components)
        overlap = set(self.input_names) & set(self.parameters)
        if overlap:
            raise ExpressionError(f"names declared as both input and parameter: {sorted(overlap)}")
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

    def _entries_at(self, order: int, args) -> tuple | None:
        """The entries of ``order`` at ``args``, a sequence of Python
        floats, from a single kernel call, or None where an entry is not
        evaluable (the kernel raises or returns a non-finite entry)."""
        kernel = self._kernels.get(order) or self._compile_kernel(order)
        try:
            out = kernel(*args)
        except KERNEL_ERRORS:
            return None
        return out if _all_finite(out) else None

    def _raise_domain_error(self, order: int, args):
        """Raise the :class:`DomainError` naming the first entry of
        ``order`` that :func:`~critflow.expr.evaluate` rejects at ``args``.
        One memo serves all the entries, so each distinct node is walked
        once however often the entries share it."""
        args = list(args)
        env = {**self.parameters, **dict(zip(self.input_names, args))}
        memo: dict = {}
        for k, e in enumerate(self._entries(order)):
            try:
                evaluate(e, env, memo)
            except DomainError as err:
                raise DomainError(f"{self._label(order, k)} of {self.name} is not "
                                  f"evaluable at {args}: {err}") from None
        raise DomainError(f"{self.name} is not evaluable at {args}")

    # -- evaluation ---------------------------------------------------------

    def _values(self, args) -> tuple | None:
        """``_entries_at(0, args)``: the values as a tuple, or None."""
        return self._entries_at(0, args)

    def value(self, point) -> np.ndarray:
        return np.array(_evaluated(self, 0, point))

    def jacobian(self, point) -> np.ndarray:
        return np.array(_evaluated(self, 1, point)).reshape(self.n_out, self.n_in)

    def hessian(self, point) -> np.ndarray:
        """``[i, j, k]`` is the second partial of component i in inputs j and k."""
        n = self.n_in
        return np.array(_evaluated(self, 2, point)).reshape(self.n_out, n, n)

    @cached_property
    def _grid_kernel(self):
        return compile_array(self._entries(0), self._args)

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


def acceleration_map(f: VectorField):
    """The acceleration field root searches use: symbolic for a plain
    :class:`VectorField`, and for an :class:`AffineConjugateField` its
    base's composed with the map (:class:`JetAccelerationMap`).

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
        samples = np.vstack([lattice_points(self.domain, _IMAGE_SAMPLES, rng_seed=0), corners])
        values = [v for v in map(self._values, samples.tolist()) if v is not None]
        if not values:
            raise DomainError(f"map {self.name} not evaluable anywhere on its domain")
        vals = np.array(values)
        lo, hi = vals.min(axis=0), vals.max(axis=0)
        pad = _IMAGE_INFLATE * np.maximum(hi - lo, 1e-9)
        return AnalysisRegion(tuple((float(l - p), float(u + p))
                                    for l, u, p in zip(lo, hi, pad)))


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
    return _BINARY_BUILDERS[e.op](substitute(e.left, mapping), substitute(e.right, mapping))


def _rebuilt(e: Expression, leaves: Mapping[str, Expression], memo: dict) -> Expression:
    """``e`` with the named leaves replaced. Unlike :func:`substitute` it
    folds nothing, so every other node keeps its operation and operands and
    rounds as before. Each node is rebuilt once, so subtrees that ``e``
    shares stay shared; ``memo`` maps a node's id to it and its copy."""
    hit = memo.get(id(e))
    if hit is not None:
        return hit[1]
    if isinstance(e, Name):
        out = leaves.get(e.ident, e)
    elif isinstance(e, Const):
        out = e
    elif isinstance(e, Unary):
        out = Unary(e.op, _rebuilt(e.arg, leaves, memo))
    else:
        out = Binary(e.op, _rebuilt(e.left, leaves, memo), _rebuilt(e.right, leaves, memo))
    memo[id(e)] = (e, out)  # holding e keeps its id from being reused
    return out


def _index_sum(terms: list[Expression]) -> Expression:
    """``((t0 + t1) + t2) + ...``, unfolded."""
    return functools.reduce(lambda total, term: Binary("+", total, term), terms)


def _conjugated_entries(base: VectorMap, order: int, linear: LinearPart,
                        names: Sequence[str]) -> list[Expression]:
    """The entries of ``order`` (flat, row-major) of y -> A m(A^-1 (y - b))
    over the inputs ``names``, for the map m = ``base`` and y = A x + b.

    Each state leaf of m's entries becomes the pull-back
    ``((A^-1_i0 * y_0 + A^-1_i1 * y_1) + ...) - (A^-1 b)_i``; then the
    output index is pushed forward by A, as sum_p A_ip * e, and each
    derivative index by A^-1, as sum_q e * A^-1_qj. Every sum runs in index
    order and every node is built unfolded, so a zero or unit coefficient
    keeps its operation and the kernel of these entries rounds as that
    float product does."""
    n, inv = len(names), linear.inverse.tolist()
    offset = (linear.inverse @ linear.offset).tolist()
    pulled = {x: Binary("-", _index_sum([Binary("*", Const(m), Name(y))
                                         for m, y in zip(row, names)]), Const(c))
              for x, row, c in zip(base.input_names, inv, offset)}
    memo: dict = {}
    entries = [_rebuilt(e, pulled, memo) for e in base._entries(order)]
    size = n ** order
    entries = [_index_sum([Binary("*", Const(a), entries[p * size + k])
                           for p, a in enumerate(row)])
               for row in linear.matrix.tolist() for k in range(size)]
    for axis in range(order):
        stride = n ** (order - 1 - axis)
        pushed = []
        for k in range(len(entries)):
            j = k // stride % n  # entry k's derivative index on this axis
            first = k - j * stride
            pushed.append(_index_sum([Binary("*", entries[first + q * stride], Const(inv[q][j]))
                                      for q in range(n)]))
        entries = pushed
    return entries


class AffineConjugateField(VectorField):
    """Transformed system g = A f(A^-1 (y - b)) under an invertible affine
    map y = A x + b.

    Carries the substituted symbolic components, so serialization and the
    symbolic API behave like any other field, but evaluates f's own entries
    composed with the map (:func:`_conjugated_entries`): g's values, its
    Jacobian A Df A^-1 and its Hessian, each compiled into one kernel like
    any map's, from entries composed once per order. The large substituted
    trees are never differentiated.
    """

    def __init__(self, system: SystemDefinition, base: VectorField, linear: LinearPart):
        super().__init__(system)
        self.base = base
        self.linear = linear
        self._composed: dict = {}  # entries by derivative order, built on first use

    def _entries(self, order: int) -> list[Expression]:
        if order not in self._composed:
            self._composed[order] = _conjugated_entries(self.base, order, self.linear,
                                                        self.input_names)
        return self._composed[order]

    @cached_property
    def _acceleration(self):
        return JetAccelerationMap(self)

    # VectorMap's, defined here again because the benchmark's layer tracer
    # patches each class's own methods
    value, jacobian, hessian, value_grid = (VectorMap.value, VectorMap.jacobian,
                                            VectorMap.hessian, VectorMap.value_grid)


class JetAccelerationMap(VectorMap):
    """Acceleration field of an :class:`AffineConjugateField` g.

    Under an affine map the curvature term of the pushforward vanishes, so
    g's acceleration is A F(A^-1 (y - b)) with Jacobian A DF A^-1, where F
    is ``acceleration_map(g.base)``, the base's symbolic acceleration. It
    is a map over g's inputs and parameters whose entries are F's composed
    with the map, as g's are f's; its components are those of order 0.
    The name dates from an earlier construction that contracted g's jets;
    it stays, and so do its one-line ``value`` and ``jacobian``, because
    the benchmark's layer tracer patches this class and its own methods by
    name.
    """

    def __init__(self, field: AffineConjugateField):
        self.base, self.linear = acceleration_map(field.base), field.linear
        self._composed = {0: _conjugated_entries(self.base, 0, self.linear, field.input_names)}
        super().__init__(f"{field.name}_accel", field.input_names, field.parameters,
                         self._composed[0])

    _entries = AffineConjugateField._entries
    value, jacobian = VectorMap.value, VectorMap.jacobian


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
    v = f.value(point)
    accel = f.jacobian(point) @ v
    h.value(point)  # raises DomainError where the image h(point) does not exist
    dh = h.jacobian(point)
    return np.einsum("ijk,j,k->i", h.hessian(point), v, v) + dh @ accel


def transformed_system(f: VectorField, h: TransformationMap) -> VectorField:
    """Symbolic velocity field of the transformed system.

    Builds Dh f in source coordinates and substitutes the declared inverse,
    after verifying on 100 sampled domain points that the inverse actually
    inverts the map (worst residual below 1e-9).

    Unless h is an invertible affine map, the searches differentiate and
    compile the composed components, so a component whose
    :func:`~critflow.expr.nesting_depth` exceeds ``MAX_NESTING_DEPTH`` (the
    bound that loading applies to each file) raises :class:`ExpressionError`.
    Under an invertible affine map the result is an
    :class:`AffineConjugateField`, which compiles f's own trees composed
    with the map instead.
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

    linear = h.linear_part
    affine = linear is not None and linear.inverse is not None
    comps = []
    for i in range(f.dimension):
        pushed: Expression = Const(0.0)
        for j in range(f.dimension):
            pushed = e_add(pushed, e_mul(h.jacobian_exprs[i][j], f.components[j]))
        comps.append(substitute(pushed, inverse_map))
        if not affine and nesting_depth(comps[-1]) > MAX_NESTING_DEPTH:
            raise ExpressionError(f"transformed field[{i}]: expression nested too deeply")

    system = SystemDefinition(
        name=f"{f.name}_via_{h.name}",
        state_names=targets,
        parameters=merged,
        components=tuple(comps),
    )
    if affine:
        return AffineConjugateField(system, f, linear)
    return VectorField(system)


def image_region(h: TransformationMap) -> AnalysisRegion:
    """Bounding box of the sampled image of h's domain (lattice plus
    corners), slightly inflated. A numerical stand-in for the exact image.

    Computed on first use and cached on the map, which is immutable:
    ``image_region(h) is image_region(h)``."""
    return h._image_region
