import math
import random
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import critflow as cf
from critflow import expr
from critflow.expr import Binary, Const, Name, Unary
from critflow.fields import (AffineConjugateField, JetAccelerationMap, acceleration_map,
                             substitute)
from critflow.io import load_system

from conftest import (affine_map_1d, fd_gradient, fd_hessian_entry,
                      identity_map, make_field, random_affine_map,
                      random_expression_source, random_polynomial_field,
                      square_map_1d)

DATA = Path(__file__).parent / "data"


def test_jet_of_quadratic_field(quad_field):
    assert quad_field.value([2.0])[0] == 3.0
    assert quad_field.jacobian([2.0])[0, 0] == 4.0


def test_jet_linear_map_order_2():
    h = affine_map_1d(2.0, 5.0)
    assert h.value([1.0])[0] == 7.0
    assert h.jacobian([1.0])[0, 0] == 2.0
    assert h.hessian([1.0])[0, 0, 0] == 0.0


def test_jet_square_map_order_2():
    h = square_map_1d()
    assert h.value([3.0])[0] == 9.0
    assert h.jacobian([3.0])[0, 0] == 6.0
    assert h.hessian([3.0])[0, 0, 0] == 2.0


def test_jet_hessian_symmetry_random_fields():
    rng = random.Random(99)
    for _ in range(10):
        f = random_polynomial_field(rng, 3)
        point = np.array([rng.uniform(-1, 1) for _ in range(3)])
        hess = f.hessian(point)
        assert np.max(np.abs(hess - hess.transpose(0, 2, 1))) < 1e-12 * max(
            1.0, float(np.max(np.abs(hess))))


def test_jet_domain_error_propagates():
    f = make_field("sqrt_sys", ["y"], {}, ["sqrt(y)"])
    for method in (f.value, f.jacobian, f.hessian):
        with pytest.raises(cf.DomainError):
            method([-1.0])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_affine_conjugate_overflow_raises_domain_error():
    # y = 4x: the symbolic field 4 * (1e308 * x) overflows at y = 4, and so
    # must the composed evaluation, where the base alone is still finite
    g = cf.transformed_system(make_field("big", ["x"], {}, ["1e308 * x"]),
                              affine_map_1d(4.0, 0.0))
    assert isinstance(g, AffineConjugateField)
    assert g.base.value([1.0])[0] == 1e308
    with pytest.raises(cf.DomainError):
        cf.VectorField(g.system).value([4.0])
    with pytest.raises(cf.DomainError, match="big_via_affine is not evaluable at"):
        g.value([4.0])
    with pytest.raises(cf.DomainError):
        g.jacobian([0.0])  # 4 * 1e308 before the factor 1/4
    with pytest.raises(cf.DomainError):
        g.jacobian([4.0])
    # y = x / 4: the pushed Hessian is 4 * 1e308
    g = cf.transformed_system(make_field("bend", ["x"], {}, ["5e307 * x^2"]),
                              affine_map_1d(0.25, 0.0))
    with pytest.raises(cf.DomainError):
        g.hessian([0.0])
    # acceleration 1e308 x of the base, pushed by 4
    accel = acceleration_map(cf.transformed_system(
        make_field("fast", ["x"], {}, ["1e154 * x"]), affine_map_1d(4.0, 0.0)))
    assert accel.value([1.0])[0] == pytest.approx(1e308, rel=1e-12)
    with pytest.raises(cf.DomainError, match="_accel is not evaluable at"):
        accel.value([4.0])
    with pytest.raises(cf.DomainError):
        accel.jacobian([0.0])


def test_acceleration_field_quadratic(quad_field):
    F = cf.acceleration_field(quad_field)
    # 2x(x^2 - A^2)
    for x in (-2.0, -0.5, 0.0, 0.7, 2.0):
        assert F.value([x])[0] == pytest.approx(2 * x * (x * x - 1.0), rel=1e-14)
    assert F.value([0.0])[0] == 0.0


def test_acceleration_field_constant_is_zero():
    f = make_field("const", ["x"], {}, ["3.5"])
    F = cf.acceleration_field(f)
    assert F.source_strings() == ("0.0",)
    assert F.value([1.23])[0] == 0.0


def test_acceleration_field_2d_hand_values():
    f = make_field("planar", ["x", "y"], {}, ["1 - x^2", "-y"])
    F = cf.acceleration_field(f)
    for x, y in ((0.0, 0.0), (0.5, -1.0), (-1.2, 2.0)):
        expected = np.array([-2 * x * (1 - x * x), y])
        assert_allclose(F.value([x, y]), expected, rtol=1e-14, atol=0.0)


def test_acceleration_consistency_invariant():
    # symbolic F equals jacobian(f) @ f(x) everywhere
    rng = random.Random(314)
    for _ in range(10):
        n = rng.choice([1, 2, 3])
        f = random_polynomial_field(rng, n)
        F = cf.acceleration_field(f)
        for _ in range(10):
            x = np.array([rng.uniform(-2, 2) for _ in range(n)])
            direct = f.jacobian(x) @ f.value(x)
            symbolic = F.value(x)
            scale = max(1.0, float(np.max(np.abs(direct))))
            assert np.max(np.abs(symbolic - direct)) < 1e-12 * scale


def test_acceleration_matches_second_time_derivative_along_trajectory():
    # independent oracle: second difference of RK4 trajectory samples
    f = make_field("planar", ["x", "y"], {}, ["1 - x^2", "-y"])
    F = cf.acceleration_field(f)
    cfg = cf.IntegratorConfig(method="rk4", step=1e-4, t_end=0.2, sample_count=401)
    traj = cf.integrate(f, [0.2, 0.4], cfg)
    delta = traj.times[1] - traj.times[0]
    worst = 0.0
    for k in range(1, len(traj) - 1):
        fd = (traj.states[k + 1] - 2 * traj.states[k] + traj.states[k - 1]) / delta ** 2
        sym = F.value(traj.states[k])
        worst = max(worst, float(np.max(np.abs(fd - sym))) / max(1.0, float(np.max(np.abs(sym)))))
    assert worst < 1e-6


def test_pushforward_velocity_affine(quad_field):
    h = affine_map_1d(2.0, 5.0)
    # oracle: transformed velocity ((y-5)^2 - 4)/2 evaluated at y = h(0) = 5
    assert cf.pushforward_velocity(quad_field, h, [0.0])[0] == -2.0
    assert cf.pushforward_velocity(quad_field, h, [2.0])[0] == pytest.approx(2 * 3.0)


def test_pushforward_velocity_identity(quad_field):
    h = identity_map(["x"], cf.AnalysisRegion.of((-5, 5)))
    for x in (-1.5, 0.0, 2.5):
        assert cf.pushforward_velocity(quad_field, h, [x])[0] == quad_field.value([x])[0]


def test_pushforward_velocity_square(quad_field):
    h = square_map_1d()
    # oracle: 2 sqrt(y) (y - 1) at y = 4 -> 12
    assert cf.pushforward_velocity(quad_field, h, [2.0])[0] == pytest.approx(12.0)


def test_pushforward_acceleration_square(quad_field):
    h = square_map_1d()
    # transformed acceleration 2(3y - 1)(y - 1) at y = x^2
    for x in (0.5, 1.0, 2.0):
        y = x * x
        expected = 2 * (3 * y - 1) * (y - 1)
        assert cf.pushforward_acceleration(quad_field, h, [x])[0] == pytest.approx(
            expected, rel=1e-13)


def test_pushforward_acceleration_linear_reduction(quad_field):
    h = affine_map_1d(2.0, 5.0)
    F = cf.acceleration_field(quad_field)
    for x in (-1.0, 0.3, 2.0):
        # exactly alpha * F: the Hessian term contributes literal zero
        assert cf.pushforward_acceleration(quad_field, h, [x])[0] == 2.0 * F.value([x])[0]
    assert cf.pushforward_acceleration(quad_field, h, [2.0])[0] == 24.0


def test_pushforward_acceleration_identity(quad_field):
    h = identity_map(["x"], cf.AnalysisRegion.of((-5, 5)))
    F = cf.acceleration_field(quad_field)
    for x in (-0.7, 1.9):
        assert cf.pushforward_acceleration(quad_field, h, [x])[0] == F.value([x])[0]


def test_pushforward_acceleration_matches_map_second_derivative():
    # oracle: second difference of h(phi_t(x)) along an integrated trajectory
    f = make_field("planar", ["x", "y"], {}, ["1 - x^2", "-y"])
    h = cf.TransformationMap(
        "curvy", ["x", "y"], {},
        [cf.parse_expression("x^2 + y", {"x", "y"}),
         cf.parse_expression("y^2 - x", {"x", "y"})],
        cf.AnalysisRegion.of((-3, 3), (-3, 3)), False)
    cfg = cf.IntegratorConfig(method="rk4", step=1e-4, t_end=0.2, sample_count=401)
    traj = cf.integrate(f, [0.3, 0.5], cfg)
    delta = traj.times[1] - traj.times[0]
    images = np.array([h.value(s) for s in traj.states])
    worst = 0.0
    for k in range(1, len(traj) - 1, 7):
        fd = (images[k + 1] - 2 * images[k] + images[k - 1]) / delta ** 2
        push = cf.pushforward_acceleration(f, h, traj.states[k])
        worst = max(worst, float(np.max(np.abs(fd - push))) / max(1.0, float(np.max(np.abs(push)))))
    assert worst < 1e-5


def test_transformed_system_affine(quad_field):
    h = affine_map_1d(2.0, 5.0)
    g = cf.transformed_system(quad_field, h)
    assert g.input_names == ("y",)
    # oracle: ((y - beta)^2 - alpha^2 A^2) / alpha
    for y in (3.0, 5.0, 7.0, 0.0):
        assert g.value([y])[0] == pytest.approx(((y - 5) ** 2 - 4) / 2, rel=1e-13)


def test_transformed_system_identity(quad_field):
    h = identity_map(["x"], cf.AnalysisRegion.of((-5, 5)))
    g = cf.transformed_system(quad_field, h)
    for x in (-2.0, 0.1, 1.7):
        assert g.value([x])[0] == quad_field.value([x])[0]


def test_transformed_system_square(quad_field):
    h = square_map_1d()
    g = cf.transformed_system(quad_field, h)
    for y in (0.25, 1.0, 2.0):
        assert g.value([y])[0] == pytest.approx(2 * math.sqrt(y) * (y - 1), rel=1e-12)


def test_transformed_system_chain_identity(quad_field):
    # evaluate(g, h(x)) == pushforward_velocity(f, h, x)
    h = affine_map_1d(-1.5, 3.0)
    g = cf.transformed_system(quad_field, h)
    for x in np.linspace(-2, 2, 17):
        lhs = g.value(h.value([x]))[0]
        rhs = cf.pushforward_velocity(quad_field, h, [x])[0]
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_transformed_system_rejects_wrong_inverse(quad_field):
    params = {"alpha": 2.0, "beta": 5.0}
    comp = cf.parse_expression("alpha*x + beta", {"x", "alpha", "beta"})
    bad_inv = cf.parse_expression("y/alpha", {"y", "alpha", "beta"})
    h = cf.TransformationMap(
        "affine_bad", ["x"], params, [comp], cf.AnalysisRegion.of((-10, 10)), True,
        inverse=cf.VectorMap("bad", ["y"], params, [bad_inv]))
    with pytest.raises(cf.InverseMismatchError) as exc:
        cf.transformed_system(quad_field, h)
    assert exc.value.worst_residual > 1.0


def test_transformed_system_requires_inverse(quad_field):
    h = cf.TransformationMap("square_noinv", ["x"], {},
                             [cf.parse_expression("x^2", {"x"})],
                             cf.AnalysisRegion.of((0, 3)), False)
    with pytest.raises(cf.InverseMismatchError):
        cf.transformed_system(quad_field, h)


def test_declared_linear_is_verified():
    with pytest.raises(cf.ExpressionError):
        cf.TransformationMap("fake_linear", ["x"], {},
                             [cf.parse_expression("x^2", {"x"})],
                             cf.AnalysisRegion.of((0, 3)), True)


def test_jacobian_hessian_match_finite_differences():
    rng = random.Random(2718)
    checked = 0
    while checked < 40:
        n = rng.choice([1, 2, 3])
        f = random_polynomial_field(rng, n, degree=3)
        x = np.array([rng.uniform(-1.2, 1.2) for _ in range(n)])
        jac = f.jacobian(x)
        hess = f.hessian(x)
        for i in range(n):
            comp = lambda p, i=i: f.value(p)[i]
            fd_j = fd_gradient(comp, x)
            assert np.max(np.abs(fd_j - jac[i])) <= 1e-6 * max(1.0, float(np.max(np.abs(jac[i]))))
            for j in range(n):
                for k in range(n):
                    fd_h = fd_hessian_entry(comp, x, j, k)
                    assert abs(fd_h - hess[i, j, k]) <= 1e-5 * max(1.0, abs(hess[i, j, k]))
        checked += 1


def test_cached_partials_agree_with_differentiate(quad_field):
    # the cache must be exactly what on-demand differentiation produces
    from critflow.expr import differentiate
    expected = differentiate(quad_field.components[0], "x")
    assert quad_field.jacobian_exprs[0][0] == expected


def test_substitute_folds_constants():
    e = cf.parse_expression("2*x + y", {"x", "y"})
    out = substitute(e, {"x": cf.Const(3.0)})
    assert cf.evaluate(out, {"y": 1.0}) == 7.0


def test_image_region_square_map():
    h = square_map_1d(domain=(0.0, 3.0))
    img = cf.image_region(h)
    lo, hi = img.bounds[0]
    assert lo <= 0.0 and hi >= 9.0 and hi < 10.0


def test_value_grid_matches_pointwise(quad_field):
    pts = np.linspace(-2, 2, 9).reshape(-1, 1)
    grid = quad_field.value_grid(pts)
    for row, p in zip(grid, pts):
        assert row[0] == quad_field.value(p)[0]


# ---------------------------------------------------------------------------
# Compiled kernels against the tree-walking evaluator

def _first_failure(entries, labels, env, memo):
    """Entry values by :func:`evaluate`, or the label of the first entry
    it rejects. ``memo`` holds each entry's value, or None, by id, so an
    entry asked for again at the same ``env`` is walked once."""
    values = []
    for e, label in zip(entries, labels):
        if id(e) not in memo:
            try:
                memo[id(e)] = cf.evaluate(e, env)
            except cf.DomainError:
                memo[id(e)] = None
        if memo[id(e)] is None:
            return None, label
        values.append(memo[id(e)])
    return values, None


def _entry_table(m: cf.VectorMap):
    n = m.n_in
    entries = [m._entries(order) for order in range(3)]
    if not isinstance(m, (AffineConjugateField, JetAccelerationMap)):
        # a map's entries are its components and their symbolic partials;
        # an affine conjugate's are its base's composed with the map
        assert entries == [list(m.components), [e for row in m.jacobian_exprs for e in row],
                           [e for plane in m.hessian_exprs for row in plane for e in row]]
    value = (entries[0], [f"component {i}" for i in range(m.n_out)])
    jac = (entries[1], [f"jacobian[{i},{j}]" for i in range(m.n_out) for j in range(n)])
    hess = (entries[2], [f"hessian[{i},{j},{k}]" for i in range(m.n_out) for j in range(n)
                         for k in range(n)])
    return {"value": value, "jacobian": jac, "hessian": hess}


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


#: the derivative order of each method's entries, as ``_entries_at`` takes it
_FLOAT_INTERFACE = {"value": 0, "jacobian": 1, "hessian": 2}


def _float_interface(m, method: str, args):
    """What the float interface behind ``method`` gives at ``args``, flat,
    or None; ``_values`` gives what order 0 does."""
    order = _FLOAT_INTERFACE[method]
    out = m._entries_at(order, args)
    if order == 0:
        assert m._values(args) == out, (m.name, args)
    assert out is None or len(out) == m.n_out * m.n_in ** order, (m.name, out)
    return out


def _float_interface_agrees(m, y) -> int:
    """Check that where ``value``/``jacobian``/``hessian`` return at y, the
    float interface gives the same floats bit for bit, and that it is None
    exactly where they raise; the number of methods that raised."""
    raised = 0
    for method in _FLOAT_INTERFACE:
        quiet = _float_interface(m, method, list(y))
        try:
            loud = getattr(m, method)(np.array(y))
        except cf.DomainError:
            assert quiet is None, (m.name, method, y)
            raised += 1
            continue
        assert quiet is not None and _bits(quiet) == _bits(loud.ravel()), (m.name, method, y)
    return raised


def _plain_dot(row, v):
    total = row[0] * v[0]
    for m, w in zip(row[1:], v[1:]):
        total = total + m * w
    return total


def _plain_conjugated(linear, base, y) -> list[float]:
    """A base(A^-1 y - A^-1 b) on Python floats, each sum in index order."""
    offset = (linear.inverse @ linear.offset).tolist()
    x = [_plain_dot(row, list(y)) - c for row, c in zip(linear.inverse.tolist(), offset)]
    v = base.value(x).tolist()
    return [_plain_dot(row, v) for row in linear.matrix.tolist()]


def _plain_conjugated_jacobian(linear, base, y) -> list[float]:
    """A Dbase(A^-1 y - A^-1 b) A^-1 on Python floats, flat: the rows pushed
    forward by A, then the columns by A^-1, each sum in index order."""
    offset = (linear.inverse @ linear.offset).tolist()
    x = [_plain_dot(row, list(y)) - c for row, c in zip(linear.inverse.tolist(), offset)]
    columns = base.jacobian(x).T.tolist()
    pushed = [[_plain_dot(row, col) for col in columns] for row in linear.matrix.tolist()]
    return [_plain_dot(row, col) for row in pushed for col in linear.inverse.T.tolist()]


def test_affine_conjugated_values_are_the_plain_float_product():
    # g and g's acceleration map share one plain-float conjugation: bit for
    # bit the product in index order, and within rounding of numpy's; and
    # their float interface agrees with their array methods, inside and
    # outside the base's domain
    rng = random.Random(4242)
    inside = outside = 0
    for n in (1, 2, 3, 4):
        region = cf.AnalysisRegion.of(*[(-2.5, 2.5)] * n)
        f = random_polynomial_field(rng, n)
        h = random_affine_map(rng, n, region)
        g = cf.transformed_system(f, h)
        assert isinstance(g, AffineConjugateField)
        lin = h.linear_part
        for mapping, base in ((g, f), (acceleration_map(g), acceleration_map(f))):
            for _ in range(8):
                y = [rng.uniform(-2.0, 2.0) for _ in range(n)]
                got = mapping.value(y)
                assert _bits(got) == _bits(_plain_conjugated(lin, base, y)), (n, y)
                assert _bits(mapping.value(np.array(y))) == _bits(got)
                want = lin.matrix @ base.value(lin.inverse @ (np.array(y) - lin.offset))
                scale = max(1.0, float(np.max(np.abs(want))))
                assert float(np.max(np.abs(got - want))) <= 1e-13 * scale, (n, y)
                assert _float_interface_agrees(mapping, y) == 0
        # the same base behind walls: not evaluable for x1 < -0.5 or x1 = 0.5
        names = f.input_names
        walled = cf.transformed_system(make_field(
            "walled", names, {}, [f"{src} + sqrt({names[0]} + 0.5) - 1 / ({names[0]} - 0.5)"
                                  for src in f.source_strings()]), h)
        for mapping in (walled, acceleration_map(walled)):
            for _ in range(12):
                x = [rng.choice([rng.uniform(-1.5, 1.5), -0.5, 0.5])] + [
                    rng.uniform(-1.5, 1.5) for _ in range(n - 1)]
                y = (lin.matrix @ x + lin.offset).tolist()
                if _float_interface_agrees(mapping, y):
                    outside += 1
                else:
                    inside += 1
        # y = 4 x pushes 1e308 to inf on every side
        xs, ys = [f"x{i + 1}" for i in range(n)], [f"y{i + 1}" for i in range(n)]
        h = cf.TransformationMap(
            "scale", xs, {}, [cf.parse_expression(f"4.0 * {x}", set(xs)) for x in xs],
            region, True,
            inverse=cf.VectorMap("unscale", ys, {},
                                 [cf.parse_expression(f"0.25 * {y}", set(ys)) for y in ys]))
        for source, mapping in (("1e308 * {}", lambda g: g),
                                ("1e154 * {}", acceleration_map)):
            g = mapping(cf.transformed_system(
                make_field("big", xs, {}, [source.format(x) for x in xs]), h))
            assert math.isfinite(g.value([1.0] * n)[0])
            with pytest.raises(cf.DomainError, match="is not evaluable at"):
                g.value([4.0] * n)
            # the pushed Jacobian overflows at every point, the values at y = 4
            with np.errstate(over="ignore", invalid="ignore"):
                assert _float_interface_agrees(g, [1.0] * n) >= 1
                assert _float_interface_agrees(g, [4.0] * n) >= 2
    assert inside > 30 and outside > 30, (inside, outside)


def test_affine_conjugates_of_a_base_at_the_loading_bound_evaluate():
    # g's entries nest deeper than f's by the pull-back and push-forward
    # sums; over a base at the bound that loading applies, g and its
    # acceleration still compile and evaluate, bit for bit the plain float
    # products
    rng = random.Random(600)
    for n in (1, 2, 4):
        names = ["x"] if n == 1 else [f"x{i + 1}" for i in range(n)]
        f = make_field("deep", names, {}, [
            " + ".join(f"0.01*{names[k % n]}*{names[(k + i) % n]}" for k in range(594))
            for i in range(n)])
        assert {cf.expr.nesting_depth(c) for c in f.components} == {cf.expr.MAX_NESTING_DEPTH}
        h = random_affine_map(rng, n, cf.AnalysisRegion.of(*[(-2.5, 2.5)] * n))
        g = cf.transformed_system(f, h)
        y = [rng.uniform(-2.0, 2.0) for _ in range(n)]
        assert _bits(g.value(y)) == _bits(_plain_conjugated(h.linear_part, f, y))
        assert _bits(g.jacobian(y).ravel()) == _bits(
            _plain_conjugated_jacobian(h.linear_part, f, y))
        assert _bits(acceleration_map(g).jacobian(y).ravel()) == _bits(
            _plain_conjugated_jacobian(h.linear_part, acceleration_map(f), y))


def test_declared_affine_map_reads_its_linear_part_without_a_hessian(monkeypatch):
    # its symbolic Hessian entries all fold to zero, which proves linearity
    compiled = []
    compile_kernel = cf.fields.compile_kernel
    monkeypatch.setattr(cf.fields, "compile_kernel",
                        lambda exprs, names: compiled.append(len(exprs)) or compile_kernel(
                            exprs, names))
    monkeypatch.setattr(cf.TransformationMap, "hessian",
                        lambda self, point: pytest.fail("Hessian evaluated"))
    region = cf.AnalysisRegion.of((-2, 2), (-1, 3), (0, 1))
    h = random_affine_map(random.Random(7), 3, region)
    assert 2 not in h._kernels
    assert sorted(compiled) == [3, 9]  # the value and Jacobian kernels only
    assert h.linear_part is not None and h.linear_part.inverse is not None


def test_jets_reuse_the_kernel_of_each_derivative_order(monkeypatch):
    # a map compiles one kernel per order however often it is asked, an
    # affine conjugate as well, and each call gives the float interface's
    # floats bit for bit
    compiled = []
    compile_kernel = cf.fields.compile_kernel
    monkeypatch.setattr(cf.fields, "compile_kernel",
                        lambda *args: compiled.append(args) or compile_kernel(*args))
    rng = random.Random(2718)
    region = cf.AnalysisRegion.of((-2.5, 2.5), (-2.5, 2.5))
    f = random_polynomial_field(rng, 2)
    bend = cf.TransformationMap(
        "bend", ["x1", "x2"], {"c": 0.3},
        [cf.parse_expression(s, {"x1", "x2", "c"}) for s in ("x1 + c * x2^2", "x2 - x1^3")],
        region, False)
    g = cf.transformed_system(f, random_affine_map(rng, 2, region))
    assert isinstance(g, AffineConjugateField)
    for m in (f, bend, g):
        before = len(compiled)
        for _ in range(5):
            x = np.array([rng.uniform(-2.0, 2.0) for _ in range(2)])
            v, jac, hess = m.value(x), m.jacobian(x), m.hessian(x)
            assert jac.shape == (m.n_out, m.n_in) and hess.shape == (m.n_out, 2, 2)
            for order, got in enumerate((v, jac, hess)):
                assert _bits(got.ravel()) == _bits(m._entries_at(order, x.tolist())), (m.name, x)
        assert len(compiled) - before == 3 and sorted(m._kernels) == [0, 1, 2], m.name


def _kernel_probe_maps(rng):
    maps = []
    for n in (1, 2, 3):
        maps.append(random_polynomial_field(rng, n))
        names = ["x"] if n == 1 else [f"x{i + 1}" for i in range(n)]
        comps = [cf.parse_expression(random_expression_source(rng, names + ["A"], depth=4),
                                     set(names) | {"A"}) for _ in range(n)]
        maps.append(cf.VectorMap(f"random_{n}", names, {"A": 0.7}, comps))
    # components that leave their domain at some of the sampled points
    walls = ["sqrt(x1) + x2^2", "log(x2) * x1 - 1/(x1 - 0.5)",
             "x1^0.5 * exp(x2) + x1^5", "1e308 * exp(x2) - x1"]
    maps.append(cf.VectorMap("walls", ["x1", "x2"], {},
                             [cf.parse_expression(s, {"x1", "x2"}) for s in walls]))
    maps.append(cf.VectorMap("overflow", ["x1", "x2"], {},
                             [cf.parse_expression("x1 - 1e308 * exp(x2)", {"x1", "x2"})]))
    # affine conjugates and their accelerations; at n = 2 the base is not
    # evaluable for x1 < -0.5 or x1 = 0.5
    for n in (1, 2, 3):
        f = random_polynomial_field(rng, n, degree=2)
        if n == 2:
            f = make_field("walled", f.input_names, {}, [
                f"{src} + sqrt(x1 + 0.5) - 1/(x1 - 0.5)" for src in f.source_strings()])
        g = cf.transformed_system(f, random_affine_map(rng, n, cf.AnalysisRegion.of(
            *[(-2.5, 2.5)] * n)))
        maps += [g, acceleration_map(g)]
    return maps


def test_kernels_match_tree_walk_bit_for_bit_and_name_failing_entry():
    rng = random.Random(6021)
    checked = failed = 0
    for m in _kernel_probe_maps(rng):
        table = _entry_table(m)
        for _ in range(40):
            x = np.array([rng.choice([rng.uniform(-2.0, 2.0), 0.0, 0.5])
                          for _ in range(m.n_in)])
            env = {**m.parameters, **dict(zip(m.input_names, x.tolist()))}
            memo = {}
            for method, (entries, labels) in table.items():
                expected, bad_label = _first_failure(entries, labels, env, memo)
                # the float interface: None exactly there
                quiet = _float_interface(m, method, x.tolist())
                assert (quiet is None) == (bad_label is not None), (m.name, method, x)
                assert quiet is None or _bits(quiet) == _bits(expected), (m.name, method, x)
                if bad_label is not None:
                    with pytest.raises(cf.DomainError) as exc:
                        getattr(m, method)(x)
                    assert str(exc.value).startswith(f"{bad_label} of {m.name} "), (
                        method, str(exc.value))
                    failed += 1
                    continue
                got = getattr(m, method)(x)
                assert got.shape == (m.n_out,) + (m.n_in,) * _FLOAT_INTERFACE[method]
                assert _bits(got.ravel()) == _bits(expected), (m.name, method, x)
                checked += 1
    assert checked > 500 and failed > 20


# ---------------------------------------------------------------------------
# The acceleration map is built once per field

def test_acceleration_map_is_cached_and_matches_fresh_symbolic_field():
    rng = random.Random(8128)
    for n in (1, 2, 3):
        f = random_polynomial_field(rng, n)
        accel = acceleration_map(f)
        assert acceleration_map(f) is accel
        fresh = cf.acceleration_field(f)
        for _ in range(10):
            x = np.array([rng.uniform(-2.0, 2.0) for _ in range(n)])
            assert _bits(accel.value(x)) == _bits(fresh.value(x))
            assert _bits(accel.jacobian(x).ravel()) == _bits(fresh.jacobian(x).ravel())


def test_affine_acceleration_map_is_the_conjugated_base_acceleration():
    # under y = A x + b the curvature term vanishes: g's acceleration is
    # A F(x) with Jacobian A DF(x) A^-1, F being the base's own symbolic map
    rng = random.Random(1729)
    for n in (1, 2, 3, 4):
        region = cf.AnalysisRegion.of(*[(-2.5, 2.5)] * n)
        f = random_polynomial_field(rng, n)
        h = random_affine_map(rng, n, region)
        g = cf.transformed_system(f, h)
        assert isinstance(g, AffineConjugateField)
        base_accel = acceleration_map(f)
        points = [np.array([rng.uniform(-2.0, 2.0) for _ in range(n)]) for _ in range(6)]
        accel = acceleration_map(g)
        assert acceleration_map(g) is accel
        got = [(accel.value(y), accel.jacobian(y)) for y in points]

        for y, (got_value, got_jac) in zip(points, got):
            assert _bits(got_value) == _bits(_plain_conjugated(h.linear_part, base_accel, y))
            assert _bits(got_jac.ravel()) == _bits(
                _plain_conjugated_jacobian(h.linear_part, base_accel, y))
            # the identity itself: D2g[g] + Dg Dg from g's own partials
            v, jac, hess = g.value(y), g.jacobian(y), g.hessian(y)
            for have, want in ((got_value, jac @ v),
                               (got_jac, (hess.reshape(-1, n) @ v).reshape(n, n) + jac @ jac)):
                scale = max(1.0, float(np.max(np.abs(want))))
                assert float(np.max(np.abs(have - want))) <= 1e-12 * scale, (n, y)


# ---------------------------------------------------------------------------
# Points outside the domain: None on the float interface, a message from
# value, jacobian and hessian

def _sqrt_branch_and_conjugate():
    """tests/data/example2_system.json, 2 sqrt(y) (y - A^2) on [0.01, 3],
    and its conjugate under z = 2y + 5 (not evaluable for z < 5)."""
    f = load_system(DATA / "example2_system.json").field
    inverse = cf.VectorMap("affine_inv", ["z"], {}, [cf.parse_expression("(z - 5)/2", {"z"})])
    h = cf.TransformationMap("affine", ["y"], {}, [cf.parse_expression("2*y + 5", {"y"})],
                             cf.AnalysisRegion.of((-1.0, 4.0)), True, inverse=inverse)
    g = cf.transformed_system(f, h)
    assert isinstance(g, AffineConjugateField)
    return f, g


def test_searches_and_integration_past_the_domain_edge_build_no_message(monkeypatch):
    f, g = _sqrt_branch_and_conjugate()

    def no_message(self, order, args):
        raise AssertionError(f"a message was built for {self.name} at {list(args)}")

    monkeypatch.setattr(cf.VectorMap, "_raise_domain_error", no_message)
    outside = []  # the kernel calls that found a point outside the domain
    entries_at = cf.VectorMap._entries_at

    def recording(self, order, args):
        out = entries_at(self, order, args)
        if out is None:
            outside.append((self.name, order))
        return out

    monkeypatch.setattr(cf.VectorMap, "_entries_at", recording)
    for field, region in ((f, cf.AnalysisRegion.of((0.01, 3.0))),
                          (g, cf.AnalysisRegion.of((5.02, 11.0)))):
        for search in (cf.fixed_point_search, cf.perpetual_point_search):
            before = len(outside)
            search(field, region)
            assert len(outside) > before, (field.name, search.__name__)
    assert {name for name, _ in outside} == {"sqrt_branch", "sqrt_branch_accel",
                                             "sqrt_branch_via_affine",
                                             "sqrt_branch_via_affine_accel"}
    # the flow from y = 0.5 reaches the wall y = 0 near t = 0.88, where f's
    # step collapses; g's lands on z = 5 and stays there
    config = cf.IntegratorConfig(t_end=2.0)
    before = len(outside)
    with pytest.raises(cf.StepUnderflowError, match="at t = 0.88"):
        cf.integrate(f, [0.5], config)
    assert len(outside) > before
    before = len(outside)
    assert cf.integrate(g, [6.0], config).endpoint.tolist() == [5.0]
    assert len(outside) > before


def test_rkf45_started_outside_the_domain_raises_step_underflow():
    # no stage is evaluable, so the step halves until it underflows at
    # t = 0; integrate raises no DomainError there
    f, g = _sqrt_branch_and_conjugate()
    for field, start in ((f, -1.0), (g, 3.0)):
        with pytest.raises(cf.StepUnderflowError, match=r"at t = 0 \("):
            cf.integrate(field, [start], cf.IntegratorConfig(t_end=1.0))


def test_float_interface_is_none_outside_the_domain_and_value_names_the_cause():
    f, g = _sqrt_branch_and_conjugate()
    sqrt_message = "of {} is not evaluable at [{}]: sqrt of negative value -1.0"
    # g at z = 3 pulls back to y = -1, and names its own entry at z = 3
    for field, point, name in ((f, -1.0, "sqrt_branch"), (g, 3.0, "sqrt_branch_via_affine")):
        accel = acceleration_map(field)
        for m in (field, accel):
            assert m._values([point]) is None
            assert m._entries_at(1, [point]) is None
        with pytest.raises(cf.DomainError) as exc:
            field.value([point])
        assert str(exc.value) == "component 0 " + sqrt_message.format(name, point)
        with pytest.raises(cf.DomainError) as exc:
            field.jacobian([point])
        assert str(exc.value) == "jacobian[0,0] " + sqrt_message.format(name, point)
        with pytest.raises(cf.DomainError) as exc:
            field.hessian([point])
        assert str(exc.value) == "hessian[0,0,0] " + sqrt_message.format(name, point)
        with pytest.raises(cf.DomainError) as exc:
            accel.value([point])
        assert str(exc.value) == "component 0 " + sqrt_message.format(name + "_accel", point)
        with pytest.raises(cf.DomainError) as exc:
            accel.jacobian([point])
        assert str(exc.value) == "jacobian[0,0] " + sqrt_message.format(name + "_accel", point)
    with pytest.raises(cf.DomainError) as exc:
        f.jacobian([0.0])
    assert str(exc.value) == "jacobian[0,0] of sqrt_branch is not evaluable at [0.0]: division by zero"
    assert f._entries_at(1, [0.0]) is None
    assert f._values([0.0]) == (-0.0,)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_float_interface_is_none_where_the_push_forward_overflows():
    g = cf.transformed_system(make_field("big", ["x"], {}, ["1e308 * x"]),
                              affine_map_1d(4.0, 0.0))
    assert g._values([4.0]) is None
    assert g._entries_at(1, [0.0]) is None
    with pytest.raises(cf.DomainError) as exc:
        g.value([4.0])
    assert str(exc.value) == ("component 0 of big_via_affine is not evaluable at [4.0]: "
                              "non-finite result inf")
    accel = acceleration_map(cf.transformed_system(
        make_field("fast", ["x"], {}, ["1e154 * x"]), affine_map_1d(4.0, 0.0)))
    assert accel._values([4.0]) is None
    assert accel._entries_at(1, [0.0]) is None
    with pytest.raises(cf.DomainError) as exc:
        accel.value([4.0])
    assert str(exc.value) == ("component 0 of fast_via_affine_accel is not evaluable at [4.0]: "
                              "non-finite result inf")


def test_composed_entries_are_built_once_per_order_and_map(monkeypatch):
    # an affine conjugate and its acceleration compose each order's entries
    # once, for the kernel and every error message alike
    built = []
    compose = cf.fields._conjugated_entries
    monkeypatch.setattr(cf.fields, "_conjugated_entries", lambda base, order, *rest: (
        built.append((base.name, order)) or compose(base, order, *rest)))
    f, g = _sqrt_branch_and_conjugate()
    accel = acceleration_map(g)
    assert accel.value([6.0])[0] == pytest.approx(2.0 * acceleration_map(f).value([0.5])[0])
    assert built == [("sqrt_branch_accel", 0)]
    sqrt_message = "of {} is not evaluable at [3.0]: sqrt of negative value -1.0"
    for m, base in ((accel, "sqrt_branch_accel"), (g, "sqrt_branch")):
        for _ in range(2):
            with pytest.raises(cf.DomainError) as exc:
                m.hessian([3.0])
            assert str(exc.value) == "hessian[0,0,0] " + sqrt_message.format(m.name)
        assert built.count((base, 2)) == 1, m.name
    assert built == [("sqrt_branch_accel", 0), ("sqrt_branch_accel", 2), ("sqrt_branch", 2)]


def test_domain_error_walks_each_shared_node_once_per_call(monkeypatch):
    # three entries reach one sqrt(x) node along 2^12 paths each; the last
    # entry is the first that is not evaluable
    shared = Unary("sqrt", Name("x"))
    for _ in range(12):
        shared = Binary("+", shared, shared)
    failing = Unary("sqrt", Binary("-", Name("x"), Const(5.0)))
    m = cf.VectorMap("shared", ["x"], {}, [shared, shared, Binary("*", Const(2.0), shared),
                                           failing])
    calls = []
    sqrt = expr._SCALAR_FUNCS["sqrt"]
    monkeypatch.setitem(expr._SCALAR_FUNCS, "sqrt", lambda v: calls.append(v) or sqrt(v))
    for _ in range(2):  # the memo lives for one call
        with pytest.raises(cf.DomainError) as exc:
            m.value([4.0])
        assert str(exc.value) == ("component 3 of shared is not evaluable at [4.0]: "
                                  "sqrt of negative value -1.0")
    assert calls == [4.0, -1.0] * 2
