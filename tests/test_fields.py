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


def test_affine_acceleration_map_matches_jet_contraction_exactly():
    # the jet-backed acceleration of a transformed system is
    # value = Dg g and jacobian = D2g[g] + Dg Dg, contracted with numpy
    # from g's own value, Jacobian and Hessian
    rng = random.Random(1729)
    for n in (1, 2, 3):
        region = cf.AnalysisRegion.of(*[(-2.5, 2.5)] * n)
        f = random_polynomial_field(rng, n)
        g = cf.transformed_system(f, random_affine_map(rng, n, region))
        assert isinstance(g, AffineConjugateField)
        accel = acceleration_map(g)
        assert acceleration_map(g) is accel
        points = [np.array([rng.uniform(-2.0, 2.0) for _ in range(n)]) for _ in range(6)]
        # revisit points in both call orders, so cached jets are exercised
        for y in points + points[::-1]:
            v, jac, hess = g.value(y), g.jacobian(y), g.hessian(y)
            want_value = jac @ v
            want_jac = (hess.reshape(-1, n) @ v).reshape(n, n) + jac @ jac
            if rng.random() < 0.5:
                got_value, got_jac = accel.value(y), accel.jacobian(y)
            else:
                got_jac, got_value = accel.jacobian(y), accel.value(y)
            assert _bits(got_value) == _bits(want_value)
            assert _bits(got_jac.ravel()) == _bits(want_jac.ravel())
            j = g.jet(y, order=2)
            assert _bits([*j.value, *j.jacobian.ravel(), *j.hessian.ravel()]) == _bits(
                [*v, *jac.ravel(), *hess.ravel()])
