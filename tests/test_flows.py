import math
import random

import numpy as np
import pytest
from numpy.testing import assert_allclose

import critflow as cf
from critflow import flows
from critflow.fields import AffineConjugateField

from conftest import (affine_map_1d, build_counted, caches_after_import, make_field,
                      random_affine_map, random_polynomial_field, rk4_trajectory)


def test_exponential_decay_endpoint():
    f = make_field("decay", ["x"], {}, ["-x"])
    cfg = cf.IntegratorConfig(t_end=1.0)
    traj = cf.integrate(f, [1.0], cfg)
    assert traj.times[0] == 0.0 and traj.states[0, 0] == 1.0
    assert traj.endpoint[0] == pytest.approx(math.exp(-1.0), abs=1e-7)


def test_quadratic_approaches_stable_fixed_point():
    f = make_field("quad", ["x"], {"A": 1.0}, ["x^2 - A^2"])
    cfg = cf.IntegratorConfig(t_end=8.0)
    end = cf.integrate(f, [0.0], cfg).endpoint[0]
    assert end == pytest.approx(-1.0, abs=1e-6)


def test_blow_up_reports_escape_time():
    f = make_field("grow", ["x"], {}, ["x^2"])
    cfg = cf.IntegratorConfig(t_end=2.0)
    with pytest.raises(cf.BlowUpError) as exc:
        cf.integrate(f, [1.0], cfg)
    # exact solution 1/(1-t) escapes at t = 1
    assert exc.value.escape_time == pytest.approx(1.0, abs=0.05)
    assert len(exc.value.partial) >= 2
    assert exc.value.partial.times[0] == 0.0


def test_flow_map_identity_at_zero():
    f = make_field("decay", ["x"], {}, ["-x"])
    assert cf.flow_map(f, [2.0], 0.0)[0] == 2.0


def test_flow_map_halving_time():
    f = make_field("decay", ["x"], {}, ["-x"])
    assert cf.flow_map(f, [2.0], math.log(2.0))[0] == pytest.approx(1.0, abs=1e-7)


def test_flow_map_rotation_quarter_turn():
    f = make_field("rotation", ["x", "y"], {}, ["y", "-x"])
    end = cf.flow_map(f, [1.0, 0.0], math.pi / 2.0)
    assert_allclose(end, [0.0, -1.0], atol=1e-6)


def test_semigroup_property():
    f = make_field("mix", ["x", "y"], {}, ["y - 0.1*x", "-x - 0.1*y"])
    x0 = np.array([1.0, 0.5])
    t1, t2 = 0.7, 1.1
    direct = cf.flow_map(f, x0, t1 + t2)
    staged = cf.flow_map(f, cf.flow_map(f, x0, t1), t2)
    assert np.max(np.abs(direct - staged)) < 1e-6


def test_rk4_order_four():
    f = make_field("decay", ["x"], {}, ["-x"])
    exact = math.exp(-1.0)
    errors = []
    for step in (0.1, 0.05):
        trajectory = rk4_trajectory(f, [1.0], step=step, t_end=1.0, sample_count=2)
        errors.append(abs(trajectory.endpoint[0] - exact))
    ratio = errors[0] / errors[1]
    assert 12.0 < ratio < 20.0


def test_integration_is_deterministic():
    f = make_field("mix", ["x", "y"], {}, ["y", "-sin(x)"])
    cfg = cf.IntegratorConfig(t_end=3.0)
    a = cf.integrate(f, [0.4, -0.2], cfg)
    b = cf.integrate(f, [0.4, -0.2], cfg)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


def test_step_underflow_on_domain_wall():
    # the field pushes x below zero where sqrt leaves the real domain
    f = make_field("wall", ["x"], {}, ["-sqrt(x) - 1"])
    cfg = cf.IntegratorConfig(t_end=2.0)
    with pytest.raises(cf.StepUnderflowError):
        cf.integrate(f, [0.5], cfg)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_conjugate_field_underflows_instead_of_escaping():
    # sin of the overflowed state and the overflowed product A f both read
    # as leaving the domain, so the step halves down to the floor
    base = make_field("big_sin", ["x"], {}, ["1e308 * sin(x)"])
    g = cf.transformed_system(base, affine_map_1d(4.0, 0.0))
    assert isinstance(g, AffineConjugateField)
    with pytest.raises(cf.StepUnderflowError):
        cf.integrate(g, [1.2])


def test_sample_times_hit_exact_midpoint():
    from critflow.flows import sample_times
    times = sample_times(2.0, 5)
    assert times[2] == 1.0
    assert times[0] == 0.0 and times[-1] == 2.0


def test_initial_state_validation():
    f = make_field("decay", ["x"], {}, ["-x"])
    with pytest.raises(ValueError):
        cf.integrate(f, [1.0, 2.0], cf.IntegratorConfig())
    with pytest.raises(ValueError):
        cf.integrate(f, [math.nan], cf.IntegratorConfig())
    with pytest.raises(ValueError):
        cf.flow_map(f, [1.0], -1.0)


@pytest.mark.parametrize("field, value", [
    ("t_end", -1.0), ("t_end", math.nan), ("t_end", math.inf),
    ("tol", -1e-9), ("tol", math.nan),
    ("tol", math.inf)])
def test_integrator_config_rejects_non_finite_or_negative_settings(field, value):
    with pytest.raises(ValueError):
        cf.IntegratorConfig(**{field: value})


# ---------------------------------------------------------------------------
# The RKF45 step on Python floats against its array form

# Fehlberg 4(5) tableau and step as numpy arrays: the reference that the
# library's step on Python floats must match bit for bit
_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)
_ERR = (1 / 360, 0.0, -128 / 4275, -2197 / 75240, 1 / 50, 2 / 55)


def _array_rkf45_segment(f, x, t0, t1, cfg, h_start):
    t = t0
    h = min(h_start, t1 - t0)
    while t < t1:
        h = min(h, t1 - t)
        if h < flows._MIN_STEP:
            if float(np.linalg.norm(x)) > 1e-3 * flows._BLOWUP_NORM:
                return x, h, t
            raise cf.StepUnderflowError(t, h)
        ks = []
        try:
            ks.append(f.value(x))
            for row in _A[1:]:
                xi = x + h * sum(a * k for a, k in zip(row, ks))
                ks.append(f.value(xi))
            x4 = x + h * sum(b * k for b, k in zip(_B4, ks) if b != 0.0)
            err = h * sum(e * k for e, k in zip(_ERR, ks) if e != 0.0)
        except cf.DomainError:
            h *= 0.5
            continue
        scale = cfg.tol + cfg.tol * np.maximum(np.abs(x), np.abs(x4))
        ratio = float(np.max(np.abs(err) / scale))
        if ratio <= 1.0:
            t += h
            x = x4
            grow = 0.9 * ratio ** -0.2 if ratio > 0.0 else 5.0
            h *= min(5.0, max(0.2, grow))
            if float(np.linalg.norm(x)) > flows._BLOWUP_NORM:
                return x, h, t
        else:
            h *= max(0.2, 0.9 * ratio ** -0.2)
    return x, h, None


def _bits(*arrays):
    return [(a.shape, np.asarray(a, dtype=float).tobytes()) for a in arrays]


def _outcome(f, x0, cfg):
    """What integrate gives, as comparable bits."""
    try:
        traj = cf.integrate(f, x0, cfg)
    except cf.BlowUpError as err:
        return "blow-up", _bits(np.array([err.escape_time]), err.partial.times,
                                err.partial.states)
    except cf.StepUnderflowError as err:
        return "underflow", _bits(np.array([err.t, err.step]))
    return "ok", _bits(traj.times, traj.states)


def _assert_step_matches_array_form(monkeypatch, f, x0, cfg):
    got = _outcome(f, x0, cfg)
    with monkeypatch.context() as m:
        m.setattr(flows, "_rkf45_segment", _array_rkf45_segment)
        want = _outcome(f, x0, cfg)
    assert got == want
    return got[0]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_float_step_is_bit_identical_to_array_form(monkeypatch, n):
    rng = random.Random(100 + n)
    region = cf.AnalysisRegion.of(*[(-2.5, 2.5)] * n)
    f = random_polynomial_field(rng, n, degree=3)
    h = random_affine_map(rng, n, region)
    g = cf.transformed_system(f, h)
    assert isinstance(g, AffineConjugateField)
    # a damped linear field reaches t_end from every start, where the
    # random cubics of n >= 5 underflow from every start
    states = ["x"] if n == 1 else [f"x{i + 1}" for i in range(n)]
    damped = make_field("damped", states, {},
                        [f"-{v} + 0.5*{w}" for v, w in zip(states, states[1:] + states[:1])])
    kinds = set()
    for cfg in (cf.IntegratorConfig(t_end=1.0),
                cf.IntegratorConfig(tol=1e-6, t_end=1.0, sample_count=17)):
        for field in (f, g, damped, cf.transformed_system(damped, h)):
            for _ in range(3):
                x0 = [rng.uniform(-1.5, 1.5) for _ in range(n)]
                kinds.add(_assert_step_matches_array_form(monkeypatch, field, x0, cfg))
    assert "ok" in kinds


def test_step_functions_are_built_once_per_dimension_and_not_on_import(monkeypatch):
    assert "currsize=0" in caches_after_import()["flows._step_function"]
    built = build_counted(monkeypatch, flows, "_step_function")
    for n in (2, 3, 2, 3, 3):
        f = make_field("decay", [f"x{i + 1}" for i in range(n)], {},
                       [f"-x{i + 1}" for i in range(n)])
        cf.integrate(f, [1.0] * n, cf.IntegratorConfig(t_end=1.0))
    info = built.cache_info()
    assert (info.misses, info.currsize) == (2, 2) and info.hits > 0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_float_step_matches_array_form_on_blow_up(monkeypatch):
    f = make_field("grow", ["x"], {}, ["x^2"])
    kind = _assert_step_matches_array_form(monkeypatch, f, [1.0], cf.IntegratorConfig(t_end=2.0))
    assert kind == "blow-up"
    # past x2 = 1e9 the second component is 1e308, and the step has grown
    # so large that its error estimate overflows: |err| / scale is NaN there
    # while the first component's is 0, and only the NaN rejects the step
    f = make_field("jump", ["x1", "x2"], {}, ["0", "1 + 5e307 * (1 + sign(x2 - 1e9))"])
    kind = _assert_step_matches_array_form(monkeypatch, f, [1.0, 0.0],
                                           cf.IntegratorConfig(t_end=1e12, sample_count=2))
    assert kind == "blow-up"


def test_float_step_matches_array_form_on_domain_wall(monkeypatch):
    f = make_field("wall", ["x"], {}, ["-sqrt(x) - 1"])
    kind = _assert_step_matches_array_form(monkeypatch, f, [0.5], cf.IntegratorConfig(t_end=2.0))
    assert kind == "underflow"


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_float_step_matches_array_form_when_stage_values_overflow(monkeypatch):
    # past x = 0.5 the base value is 1e308, which the map's factor 4
    # overflows to inf in g, while the base stays finite. g is not
    # evaluable there, so a stage that lands past the wall makes the step
    # halve, in the float form as in the array form, until the step
    # underflows from each start. (A NaN error ratio, which must reject a
    # step, is covered by the 2-D input of the blow-up test above.)
    base = make_field("step", ["x"], {}, ["1 + 5e307 * (1 + sign(x - 0.5))"])
    g = cf.transformed_system(base, affine_map_1d(4.0, 0.0, domain=(-1e3, 1e3)))
    assert isinstance(g, AffineConjugateField)
    for y0 in (0.0, 0.8, 1.8):
        kind = _assert_step_matches_array_form(monkeypatch, g, [y0], cf.IntegratorConfig(t_end=1.0))
        assert kind == "underflow"
