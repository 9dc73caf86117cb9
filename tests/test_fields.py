import math
import random

import numpy as np
import pytest
from numpy.testing import assert_allclose

import critflow as cf
from critflow.fields import AffineConjugateField, acceleration_map, substitute

from conftest import (affine_map_1d, fd_gradient, fd_hessian_entry,
                      identity_map, make_field, random_affine_map,
                      random_expression_source, random_polynomial_field,
                      square_map_1d)


def test_jet_of_quadratic_field(quad_field):
    j = cf.jet(quad_field, [2.0])
    assert j.value[0] == 3.0
    assert j.jacobian[0, 0] == 4.0
    assert j.hessian is None


def test_jet_linear_map_order_2():
    h = affine_map_1d(2.0, 5.0)
    j = cf.jet(h, [1.0], order=2)
    assert j.value[0] == 7.0
    assert j.jacobian[0, 0] == 2.0
    assert j.hessian[0, 0, 0] == 0.0


def test_jet_square_map_order_2():
    h = square_map_1d()
    j = cf.jet(h, [3.0], order=2)
    assert j.value[0] == 9.0
    assert j.jacobian[0, 0] == 6.0
    assert j.hessian[0, 0, 0] == 2.0


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
    with pytest.raises(cf.DomainError):
        cf.jet(f, [-1.0])


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
        g.jet([4.0])
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
            jf = cf.jet(f, x)
            direct = jf.jacobian @ jf.value
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

def _first_failure(entries, labels, env):
    """Entry values by :func:`evaluate`, or the label of the first entry
    it rejects."""
    values = []
    for e, label in zip(entries, labels):
        try:
            values.append(cf.evaluate(e, env))
        except cf.DomainError:
            return None, label
    return values, None


def _entry_table(m: cf.VectorMap):
    n = m.n_in
    value = (list(m.components), [f"component {i}" for i in range(m.n_out)])
    jac = ([e for row in m.jacobian_exprs for e in row],
           [f"jacobian[{i},{j}]" for i in range(m.n_out) for j in range(n)])
    hess = ([e for plane in m.hessian_exprs for row in plane for e in row],
            [f"hessian[{i},{j},{k}]" for i in range(m.n_out) for j in range(n)
             for k in range(n)])
    return {"value": value, "jacobian": jac, "hessian": hess,
            "jet": tuple(a + b + c for a, b, c in zip(value, jac, hess))}


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


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


def test_affine_conjugated_values_are_the_plain_float_product():
    # g and g's acceleration map share one plain-float conjugation: bit for
    # bit the product in index order, and within rounding of numpy's
    rng = random.Random(4242)
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
    # a map compiles one kernel per order however it is asked: its jets
    # are its value, Jacobian and Hessian, bit for bit
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
            j = m.jet(x, order=2)
            assert _bits([*j.value, *j.jacobian.ravel(), *j.hessian.ravel()]) == _bits(
                [*v, *jac.ravel(), *hess.ravel()]), (m.name, x)
            j = m.jet(x)
            assert j.hessian is None
            assert _bits([*j.value, *j.jacobian.ravel()]) == _bits([*v, *jac.ravel()])
        if m is g:
            # g composes its base's kernels, which f compiled above
            assert len(compiled) == before and not g._kernels
        else:
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
            for method, (entries, labels) in table.items():
                expected, bad_label = _first_failure(entries, labels, env)
                call = {"value": lambda: m.value(x),
                        "jacobian": lambda: m.jacobian(x),
                        "hessian": lambda: m.hessian(x),
                        "jet": lambda: m.jet(x, order=2)}[method]
                if bad_label is not None:
                    with pytest.raises(cf.DomainError) as exc:
                        call()
                    assert str(exc.value).startswith(f"{bad_label} of {m.name} "), (
                        method, str(exc.value))
                    failed += 1
                    continue
                got = call()
                if method == "jet":
                    flat = [*got.value, *got.jacobian.ravel(), *got.hessian.ravel()]
                    assert got.jacobian.shape == (m.n_out, m.n_in)
                else:
                    flat = got.ravel().tolist()
                assert _bits(flat) == _bits(expected), (m.name, method, x)
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


def test_affine_acceleration_map_is_the_conjugated_base_acceleration(monkeypatch):
    # under y = A x + b the curvature term vanishes: g's acceleration is
    # A F(x) with Jacobian A DF(x) A^-1, F being the base's own symbolic map
    compiled = []
    compile_kernel = cf.fields.compile_kernel
    monkeypatch.setattr(cf.fields, "compile_kernel",
                        lambda *args: compiled.append(args) or compile_kernel(*args))
    rng = random.Random(1729)
    for n in (1, 2, 3, 4):
        region = cf.AnalysisRegion.of(*[(-2.5, 2.5)] * n)
        f = random_polynomial_field(rng, n)
        h = random_affine_map(rng, n, region)
        g = cf.transformed_system(f, h)
        assert isinstance(g, AffineConjugateField)
        a, a_inv, b = h.linear_part.matrix, h.linear_part.inverse, h.linear_part.offset
        base_accel = acceleration_map(f)
        base_accel.value(np.zeros(n)), base_accel.jacobian(np.zeros(n))
        points = [np.array([rng.uniform(-2.0, 2.0) for _ in range(n)]) for _ in range(6)]

        # building and calling g's map compiles nothing once the base's ran
        before = len(compiled)
        accel = acceleration_map(g)
        assert acceleration_map(g) is accel
        got = [(accel.value(y), accel.jacobian(y)) for y in points]
        assert len(compiled) == before, n

        for y, (got_value, got_jac) in zip(points, got):
            x = a_inv @ y - a_inv @ b
            assert _bits(got_value) == _bits(_plain_conjugated(h.linear_part, base_accel, y))
            assert _bits(got_jac.ravel()) == _bits((a @ base_accel.jacobian(x) @ a_inv).ravel())
            # the identity itself: D2g[g] + Dg Dg from g's own partials
            v, jac, hess = g.value(y), g.jacobian(y), g.hessian(y)
            for have, want in ((got_value, jac @ v),
                               (got_jac, (hess.reshape(-1, n) @ v).reshape(n, n) + jac @ jac)):
                scale = max(1.0, float(np.max(np.abs(want))))
                assert float(np.max(np.abs(have - want))) <= 1e-12 * scale, (n, y)
            j = g.jet(y, order=2)
            assert _bits([*j.value, *j.jacobian.ravel(), *j.hessian.ravel()]) == _bits(
                [*v, *jac.ravel(), *hess.ravel()])
            j = g.jet(y)
            assert j.hessian is None
            assert _bits([*j.value, *j.jacobian.ravel()]) == _bits([*v, *jac.ravel()])
