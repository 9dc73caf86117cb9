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
each entry's tree. The one float interface is the accessor
``_kernel(order)``, which returns that kernel and compiles it on first
use. Called with the coordinates as Python floats, the kernel returns the
flat tuple, or None where the point is not evaluable, and builds no
message; Newton's generated run, the RKF45 step, a root's spectrum and
every other caller test ``is None``. One hook,
``_raise_domain_error(order, args)``, raises the
:class:`~critflow.expr.DomainError` that names the first entry that is not
evaluable. ``value``, ``jacobian`` and ``hessian`` are the kernel call plus
that hook (:func:`_evaluated`), and ``value_grid`` compiles the values
into one broadcasting kernel.

A coordinate map caches what the checks derive from it: the matrix, offset
and inverse of a declared-linear map (``TransformationMap.linear_part``)
and the bounding box of its image (:func:`image_region`).

A field's parameters are fixed when it is built, and so is its
acceleration. Root searches get it from :func:`acceleration_map`, which
builds it once per field and caches it there. There is one acceleration
Jacobian, the symbolic field :func:`acceleration_field` with exact first
partials. A plain :class:`VectorField` uses it directly.

Under an invertible affine map y = A x + b the transformed system is an
:class:`AffineConjugateField` g = A f(A^-1 (y - b)), and it keeps one
source of each thing. Its numbers come from f's compiled kernels: its
kernel of each order is a function generated once per dimension and order
(:func:`_conjugation`) that pulls y back to x, calls f's kernel of that
order, and pushes the entries forward, the output index by A and each
derivative index by A^-1, every sum in index order; building it compiles
nothing. Its messages come from f: where its kernel is None,
``_raise_domain_error`` pulls the point back and repeats f's message
there. Its printed and symbolic form is its own substituted trees, which
reports print and ``value_grid`` evaluates, within rounding of ``value``;
nothing compiles them for the float interface. The curvature term of the
pushforward vanishes under an affine map, so g's acceleration is
A F(A^-1 (y - b)) with Jacobian A DF A^-1. :class:`JetAccelerationMap`
takes its numbers and messages from the base's acceleration F the same
way, and its components, g's symbolic acceleration
(:func:`acceleration_field`), are built only when read, as ``transform``
reads them to print them.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import types
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .expr import (
    _BINARY_BUILDERS, _RETURN_IF_FINITE, Const, DomainError, Expression, ExpressionError,
    Name, Unary, SystemDefinition, _postorder, compile_array, compile_kernel, differentiate,
    e_add, e_func, e_mul, e_neg, evaluate, to_source,
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


def _evaluated(m: VectorMap, order: int, point) -> tuple:
    """The entries of ``m`` of the derivative ``order`` at ``point``, flat;
    where they are not evaluable, ``m._raise_domain_error`` raises the
    :class:`DomainError` that names the cause. Every map's ``value``,
    ``jacobian`` and ``hessian`` come down to this."""
    args = _floats(point, m.n_in)
    out = m._kernel(order)(*args)
    if out is None:
        m._raise_domain_error(order, args)
    return out


class VectorMap:
    """Vector of expressions over named inputs, with cached symbolic
    partials. Immutable once constructed.

    The entries of each derivative order (``_entries``: the components and
    their symbolic partials, flat and row-major) are compiled on first use
    into one kernel that returns them all, bit-identical to
    :func:`~critflow.expr.evaluate` on each. ``_kernel(order)`` returns it:
    the float interface, which gives None where an entry is not evaluable
    or not finite. There ``value``, ``jacobian`` and ``hessian`` raise
    :class:`~critflow.expr.DomainError` naming the first entry (row-major)
    that is not evaluable. A name that is neither an input nor a parameter
    raises :class:`~critflow.expr.ExpressionError` when the first kernel
    is compiled.
    """

    def __init__(self, name: str, input_names: Sequence[str],
                 parameters: Mapping[str, float], components: Sequence[Expression]):
        self.components = tuple(components)
        self._bind(name, input_names, parameters, len(self.components))

    def _bind(self, name: str, input_names: Sequence[str], parameters: Mapping[str, float],
              n_out: int) -> None:
        """Set up everything but the components, for ``n_out`` of them."""
        self.name = name
        self.input_names = tuple(input_names)
        self.parameters = {k: float(v) for k, v in sorted(parameters.items())}
        # the kernels take inputs and parameters as one list of argument slots
        overlap = set(self.input_names) & set(self.parameters)
        if overlap:
            raise ExpressionError(f"names declared as both input and parameter: {sorted(overlap)}")
        self._args = self.input_names + tuple(self.parameters)
        self._param_values = tuple(self.parameters[k] for k in self.parameters)
        self.n_in = len(self.input_names)
        self.n_out = n_out
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

    def _kernel(self, order: int):
        """The kernel of ``order``, built on first use. Called with the
        coordinates as Python floats, it returns the entries as a flat
        tuple, or None where one is not evaluable."""
        kernel = self._kernels.get(order)
        if kernel is None:
            kernel = self._kernels[order] = self._build_kernel(order)
        return kernel

    def _build_kernel(self, order: int):
        """The kernel of ``order``, compiled from its entries."""
        kernel = compile_kernel(self._entries(order), self._args)
        # parameters ride along as defaults, so plain calls pass coordinates only
        kernel.__defaults__ = self._param_values
        return kernel

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
    base's conjugated by the map (:class:`JetAccelerationMap`).

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
        values = [v for v in itertools.starmap(self._kernel(0), samples.tolist())
                  if v is not None]
        if not values:
            raise DomainError(f"map {self.name} not evaluable anywhere on its domain")
        vals = np.array(values)
        lo, hi = vals.min(axis=0), vals.max(axis=0)
        pad = _IMAGE_INFLATE * np.maximum(hi - lo, 1e-9)
        return AnalysisRegion(tuple((float(l - p), float(u + p))
                                    for l, u, p in zip(lo, hi, pad)))


def default_target_names(n: int, taken) -> tuple[str, ...]:
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
    """Replace named leaves by expressions, re-folding constants. Each
    distinct subtree object is substituted once, so subtrees that ``e``
    shares stay shared."""
    memo: dict[int, Expression] = {}  # the nodes stay alive under e
    for node in _postorder((e,), memo):
        if isinstance(node, Const):
            out = node
        elif isinstance(node, Name):
            out = mapping.get(node.ident, node)
        elif isinstance(node, Unary):
            inner = memo[id(node.arg)]
            out = e_neg(inner) if node.op == "neg" else e_func(node.op, inner)
        else:
            out = _BINARY_BUILDERS[node.op](memo[id(node.left)], memo[id(node.right)])
        memo[id(node)] = out
    return memo[id(e)]


@functools.cache
def _conjugation(n: int, order: int):
    """The entries of ``order`` (flat, row-major) of y -> A m(A^-1 (y - b))
    for a map m of n inputs, as a function generated on first use:
    ``conjugation(y0, ..., base, a0_0, ..., m0_0, ..., c0, ...)`` takes
    the coordinates, m's kernel of ``order``, A and A^-1 row-major and
    c = A^-1 b. ``AffineConjugateField._build_kernel`` binds all but the
    coordinates as defaults.

    It pulls y back to x = ``((m0_0 * y0 + m0_1 * y1) + ...) - c0``, calls
    m's kernel there, and pushes the entries forward, the output index by
    A and each derivative index by A^-1, every sum in index order: the
    plain float product, bit for bit. It is None where m's kernel is None,
    and where an entry comes out non-finite, by the rule of every kernel.
    A non-finite entry of m makes every pushed entry non-finite, since
    every pushed entry sums over all of m's and 0 * inf is NaN."""
    idx = range(n)
    a = [f"a{i}_{p}" for i in idx for p in idx]
    m = [f"m{q}_{j}" for q in idx for j in idx]
    c = [f"c{i}" for i in idx]
    size = n ** order
    entries = [f"e{k}" for k in range(n * size)]
    pulled = [" + ".join(f"{m[i * n + p]} * y{p}" for p in idx) + f" - {c[i]}" for i in idx]
    lines = [f"    out = base({', '.join(pulled)})",
             "    if out is None:",
             "        return None",
             f"    {''.join(e + ', ' for e in entries)}= out"]
    sums = [" + ".join(f"{a[i * n + p]} * {entries[p * size + k]}" for p in idx)
            for i in idx for k in range(size)]
    for axis in range(order):
        stride = n ** (order - 1 - axis)
        totals = [f"s{axis}_{k}" for k in range(len(sums))]
        lines += [f"    {name} = {total}" for name, total in zip(totals, sums)]
        sums = []
        for k in range(len(totals)):
            j = k // stride % n  # entry k's derivative index on this axis
            first = k - j * stride
            sums.append(" + ".join(f"{totals[first + q * stride]} * {m[q * n + j]}"
                                   for q in idx))
    lines += [f"    out = ({''.join(t + ', ' for t in sums)})", *_RETURN_IF_FINITE]
    params = ", ".join([*(f"y{i}" for i in idx), "base", *a, *m, *c])
    src = f"def conjugation({params}):\n" + "\n".join(lines) + "\n"
    scope = {"isfinite": math.isfinite}
    exec(compile(src, "<critflow-conjugation>", "exec"), scope)
    return scope["conjugation"]


class AffineConjugateField(VectorField):
    """Transformed system g = A f(A^-1 (y - b)) under an invertible affine
    map y = A x + b.

    Carries the substituted symbolic components, so serialization and the
    symbolic API behave like any other field, but its numbers and its
    messages come from its base f. g's kernel of each order (its values,
    its Jacobian A Df A^-1 and its Hessian) is the generated
    :func:`_conjugation` around f's kernel of that order, and compiles
    nothing. Where it is None, ``_raise_domain_error`` pulls the point back
    and repeats f's own message there. The substituted trees are printed,
    and they are all that ``value_grid`` and the symbolic API read:
    ``value_grid`` agrees with ``value`` within rounding, not bit for bit.
    """

    def __init__(self, system: SystemDefinition, base: VectorField, linear: LinearPart):
        super().__init__(system)
        self.base = base
        self.linear = linear

    def _build_kernel(self, order: int):
        """The generated :func:`_conjugation` with the base's own kernel of
        ``order`` and the map bound as defaults: it compiles nothing."""
        conjugation, linear = _conjugation(self.base.n_in, order), self.linear
        defaults = (self.base._kernel(order), *linear.matrix.ravel().tolist(),
                    *linear.inverse.ravel().tolist(),
                    *(linear.inverse @ linear.offset).tolist())
        return types.FunctionType(conjugation.__code__, conjugation.__globals__,
                                  conjugation.__name__, defaults)

    def _raise_domain_error(self, order: int, args):
        """Raise the :class:`DomainError` for the point y = ``args``, where
        the kernel of ``order`` is None. y is pulled back to x with the
        kernel's own float sums, so the base's kernel is None at x exactly
        when the kernel's call of it was; then the message is the base's
        own at x. Otherwise the entries overflowed on the way forward."""
        args, linear = list(args), self.linear
        offset = (linear.inverse @ linear.offset).tolist()
        x = [functools.reduce(operator.add, map(operator.mul, row, args)) - c
             for row, c in zip(linear.inverse.tolist(), offset)]
        where = f"{self.name} is not evaluable at {args}"
        try:
            if self.base._kernel(order)(*x) is None:
                self.base._raise_domain_error(order, x)
        except DomainError as err:
            raise DomainError(f"{where}: {err}") from None
        entries = ("value", "Jacobian", "Hessian")[order]
        raise DomainError(f"{where}: pushing the {entries} of {self.base.name} at {x} "
                          f"forward by the map leaves the float range")

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
    is a map over g's inputs and parameters whose numbers and messages come
    from F, as g's come from f: it shares g's ``_build_kernel`` and
    ``_raise_domain_error``. Its components are g's symbolic acceleration,
    the trees ``transform`` prints, built on first read, so building it
    builds no tree; ``value_grid`` evaluates them, within rounding of
    ``value``. It holds g's system rather than g, which caches it.
    The name dates from an earlier construction that contracted g's jets;
    it stays, and so do its one-line ``value`` and ``jacobian``, because
    the benchmark's layer tracer patches this class and its own methods by
    name.
    """

    def __init__(self, field: AffineConjugateField):
        self.base, self.linear = acceleration_map(field.base), field.linear
        self._velocity = field.system
        self._bind(f"{field.name}_accel", field.input_names, field.parameters, field.n_out)

    @cached_property
    def components(self) -> tuple[Expression, ...]:
        return acceleration_field(VectorField(self._velocity)).components

    _build_kernel = AffineConjugateField._build_kernel
    _raise_domain_error = AffineConjugateField._raise_domain_error
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

    Under an invertible affine map the result is an
    :class:`AffineConjugateField`, which evaluates through f's compiled
    kernels instead.
    """
    h_inverse = h.inverse
    if h_inverse is None:
        raise InverseMismatchError(math.inf, "no inverse supplied")
    if h_inverse.n_in != h.n_in or h_inverse.n_out != h.n_in:
        raise ExpressionError("inverse dimensions do not match the map")

    worst = 0.0
    forward, backward = h._kernel(0), h_inverse._kernel(0)
    for p in lattice_points(h.domain, 100, rng_seed=0).tolist():
        image = forward(*p)
        back = None if image is None else backward(*image)
        if back is None:  # value raises the DomainError that names the cause
            try:
                h_inverse.value(h.value(p))
            except DomainError as err:
                raise InverseMismatchError(math.inf, str(err)) from err
        worst = max(worst, *(abs(b - x) for b, x in zip(back, p)))
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
