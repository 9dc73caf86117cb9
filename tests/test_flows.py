import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import critflow as cf

from conftest import make_field


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
        cfg = cf.IntegratorConfig(method="rk4", step=step, t_end=1.0, sample_count=2)
        errors.append(abs(cf.integrate(f, [1.0], cfg).endpoint[0] - exact))
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
        cf.IntegratorConfig(method="euler")
    with pytest.raises(ValueError):
        cf.flow_map(f, [1.0], -1.0)


@pytest.mark.parametrize("field, value", [
    ("t_end", -1.0), ("t_end", math.nan), ("t_end", math.inf),
    ("step", math.nan), ("abs_tol", -1e-9), ("abs_tol", math.nan),
    ("rel_tol", math.inf)])
def test_integrator_config_rejects_non_finite_or_negative_settings(field, value):
    with pytest.raises(ValueError):
        cf.IntegratorConfig(**{field: value})
