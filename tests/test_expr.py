import math
import random
import sys

import numpy as np
import pytest

import critflow as cf
from critflow import expr
from critflow.expr import Binary, Const, Name, compile_array, compile_kernel

from conftest import random_expression_source


NAMES = {"x", "A"}


def test_parse_structure_quadratic():
    e = cf.parse_expression("x^2 - A^2", NAMES)
    assert isinstance(e, Binary) and e.op == "-"
    assert e.left == Binary("^", Name("x"), Const(2.0))
    assert e.right == Binary("^", Name("A"), Const(2.0))


def test_parse_single_variable():
    assert cf.parse_expression("x", {"x"}) == Name("x")


def test_parse_unknown_identifier_reports_name_and_offset():
    with pytest.raises(cf.UnknownIdentifierError) as exc:
        cf.parse_expression("x^2 - B^2", {"x", "A"})
    assert exc.value.name == "B"
    assert exc.value.offset == 6


def test_parse_syntax_error_offsets():
    with pytest.raises(cf.ExpressionSyntaxError) as exc:
        cf.parse_expression("x + * 2", {"x"})
    assert exc.value.offset == 4
    with pytest.raises(cf.ExpressionSyntaxError):
        cf.parse_expression("", {"x"})
    with pytest.raises(cf.ExpressionSyntaxError):
        cf.parse_expression("foo(x)", {"x", "foo"})
    with pytest.raises(cf.ExpressionSyntaxError):
        cf.parse_expression("x + ", {"x"})
    with pytest.raises(cf.ExpressionSyntaxError):
        cf.parse_expression("x $ 2", {"x"})


def _from_deeper(extra: int, call):
    """``call()`` made ``extra`` frames deeper in the stack than this call."""
    return _from_deeper(extra - 1, call) if extra else call()


@pytest.mark.parametrize("nested", [
    lambda n: "x/(" * n + "x" + ")" * n,
    lambda n: "sqrt(" * n + "x" + ")" * n,
    lambda n: "-" * n + "x",
    lambda n: "x^" * n + "x",
], ids=["quotient", "sqrt", "negation", "power"])
def test_parser_nesting_limit_does_not_depend_on_the_callers_stack(nested):
    limit = expr._MAX_NESTING
    printed = set()
    for extra in (0, 50, 200):
        parsed = _from_deeper(extra, lambda: cf.parse_expression(nested(limit), {"x"}))
        printed.add(cf.to_source(parsed))
        with pytest.raises(cf.ExpressionSyntaxError) as exc:
            _from_deeper(extra, lambda: cf.parse_expression(nested(limit + 1), {"x"}))
        assert (str(exc.value), exc.value.offset) == ("expression nested too deeply (offset 0)", 0)
    assert len(printed) == 1


def test_precedence_and_associativity():
    e = cf.parse_expression("2*x^2 - 1", {"x"})
    assert cf.evaluate(e, {"x": 3.0}) == 17.0
    # right-associative power: 2^(3^2) ~ 512, not (2^3)^2 = 64; the value is
    # approximate because a non-literal exponent takes the exp/log route
    assert cf.evaluate(cf.parse_expression("2^3^2", set()), {}) == pytest.approx(512.0, rel=1e-12)
    # unary minus binds looser than power
    assert cf.evaluate(cf.parse_expression("-2^2", set()), {}) == -4.0
    assert cf.evaluate(cf.parse_expression("2^-2", set()), {}) == 0.25
    assert cf.evaluate(cf.parse_expression("1 - 2 - 3", set()), {}) == -4.0
    assert cf.evaluate(cf.parse_expression("12 / 2 / 3", set()), {}) == 2.0


def test_evaluate_examples():
    e = cf.parse_expression("x^2 - A^2", NAMES)
    assert cf.evaluate(e, {"x": 3.0, "A": 1.0}) == 8.0
    assert cf.evaluate(e, {"x": 0.0, "A": 1.0}) == -1.0


def test_evaluate_domain_errors():
    with pytest.raises(cf.DomainError):
        cf.evaluate(cf.parse_expression("sqrt(y)", {"y"}), {"y": -1.0})
    with pytest.raises(cf.DomainError):
        cf.evaluate(cf.parse_expression("log(x)", {"x"}), {"x": 0.0})
    with pytest.raises(cf.DomainError):
        cf.evaluate(cf.parse_expression("1/x", {"x"}), {"x": 0.0})
    with pytest.raises(cf.DomainError):
        cf.evaluate(cf.parse_expression("exp(x)", {"x"}), {"x": 1e4})


@pytest.mark.parametrize("source", ["sin(x)", "cos(2 * x) + 1"])
def test_sin_and_cos_of_an_infinity_raise_domain_error(source):
    # math.sin and math.cos raise ValueError there, which must not escape
    e = cf.parse_expression(source, {"x"})
    for x in (math.inf, -math.inf):
        with pytest.raises(cf.DomainError):
            cf.evaluate(e, {"x": x})
        with pytest.raises(cf.DomainError, match="component 0 of s is not evaluable"):
            cf.VectorMap("s", ["x"], {}, [e]).value([x])


def test_unknown_identifier_inside_a_function_is_not_a_domain_error():
    e = cf.parse_expression("sin(x + z)", {"x", "z"})
    with pytest.raises(cf.UnknownIdentifierError):
        cf.evaluate(e, {"x": 1.0})


def test_pow_semantics():
    # integer-literal exponents allow negative bases
    assert cf.evaluate(cf.parse_expression("x^2", {"x"}), {"x": -3.0}) == 9.0
    assert cf.evaluate(cf.parse_expression("x^3", {"x"}), {"x": -2.0}) == -8.0
    # everything else goes through exp/log and requires a positive base
    with pytest.raises(cf.DomainError):
        cf.evaluate(cf.parse_expression("x^0.5", {"x"}), {"x": -3.0})
    got = cf.evaluate(cf.parse_expression("x^0.5", {"x"}), {"x": 4.0})
    assert got == math.exp(0.5 * math.log(4.0))
    with pytest.raises(cf.DomainError):
        cf.evaluate(cf.parse_expression("x^y", {"x", "y"}), {"x": -2.0, "y": 2.0})


def test_differentiate_examples():
    e = cf.parse_expression("x^2 - A^2", NAMES)
    dx = cf.differentiate(e, "x")
    assert cf.to_source(dx) == "2.0 * x"
    lin = cf.parse_expression("alpha*x + beta", {"x", "alpha", "beta"})
    assert cf.to_source(cf.differentiate(lin, "x")) == "alpha"
    assert cf.differentiate(e, "y") == Const(0.0)


def test_differentiate_no_identity_residue():
    # no 0*x / x+0 residue at the top of derivative trees
    d = cf.differentiate(cf.parse_expression("x + 3", {"x"}), "x")
    assert d == Const(1.0)
    d = cf.differentiate(cf.parse_expression("3*x", {"x"}), "x")
    assert d == Const(3.0)


def test_differentiate_abs_sign_convention():
    d = cf.differentiate(cf.parse_expression("abs(x)", {"x"}), "x")
    assert cf.to_source(d) == "sign(x)"
    assert cf.evaluate(d, {"x": 0.0}) == 0.0
    assert cf.evaluate(d, {"x": -2.0}) == -1.0
    assert cf.differentiate(d, "x") == Const(0.0)


def test_differentiate_general_power():
    e = cf.parse_expression("x^y", {"x", "y"})
    dx = cf.differentiate(e, "x")
    dy = cf.differentiate(e, "y")
    x, y = 1.7, 2.3
    assert cf.evaluate(dx, {"x": x, "y": y}) == pytest.approx(y * x ** (y - 1), rel=1e-12)
    assert cf.evaluate(dy, {"x": x, "y": y}) == pytest.approx(x ** y * math.log(x), rel=1e-12)


def test_free_variables():
    assert cf.free_variables(cf.parse_expression("x^2 - A^2", NAMES)) == {"x", "A"}
    assert cf.free_variables(cf.parse_expression("3.0", set())) == frozenset()
    assert cf.free_variables(cf.parse_expression("2*x*(x^2 - A^2)", NAMES)) == {"x", "A"}


def test_roundtrip_random_expressions():
    rng = random.Random(20240811)
    names = ["x", "y", "A"]
    checked = 0
    for _ in range(120):
        src = random_expression_source(rng, names, depth=4)
        e = cf.parse_expression(src, set(names))
        back = cf.parse_expression(cf.to_source(e), set(names))
        for _ in range(3):
            env = {n: rng.uniform(-2.0, 2.0) for n in names}
            try:
                expected = cf.evaluate(e, env)
            except cf.DomainError:
                continue
            # bit-identical, not approximately equal
            assert cf.evaluate(back, env) == expected
            checked += 1
    assert checked >= 100


def test_derivative_matches_finite_differences():
    rng = random.Random(77)
    names = ["x", "y"]
    checked = 0
    while checked < 100:
        src = random_expression_source(rng, names, depth=3)
        e = cf.parse_expression(src, set(names))
        d = cf.differentiate(e, "x")
        env = {n: rng.uniform(-1.5, 1.5) for n in names}
        h = 1e-6
        try:
            up = cf.evaluate(e, {**env, "x": env["x"] + h})
            dn = cf.evaluate(e, {**env, "x": env["x"] - h})
            sym = cf.evaluate(d, env)
        except cf.DomainError:
            continue
        fd = (up - dn) / (2.0 * h)
        if abs(fd) > 1e6 or abs(sym) > 1e6:
            continue
        assert abs(fd - sym) <= 1e-6 * max(1.0, abs(fd), abs(sym))
        checked += 1


def test_evaluation_is_pure():
    e = cf.parse_expression("sin(x)*exp(A) - x/(A^2 + 0.5)", NAMES)
    env = {"x": 0.7312, "A": -1.25}
    first = cf.evaluate(e, env)
    for _ in range(5):
        assert cf.evaluate(e, env) == first


def test_compiled_matches_tree_walk_bit_for_bit():
    rng = random.Random(5150)
    names = ["x", "y"]
    cases = []
    for _ in range(60):
        src = random_expression_source(rng, names, depth=4)
        cases.append((src, [{n: rng.uniform(-2.0, 2.0) for n in names} for _ in range(3)]))
    # each way a point can leave the domain; the last entry comes out NaN
    # without raising
    walls = ["sqrt(x)", "log(x)", "y / (x - 1)", "exp(1000) + y", "sin(x * 1e308 * 10)",
             "1e308*10 - 1e308*10"]
    cases += [(src, [{"x": -1.0, "y": 2.0}, {"x": 1.0, "y": 2.0}]) for src in walls]
    outside = set()
    for src, envs in cases:
        e = cf.parse_expression(src, set(names))
        fn = compile_kernel([e], names)
        fn_arr = compile_array([e], names)
        for env in envs:
            try:
                expected = cf.evaluate(e, env)
            except cf.DomainError:
                assert fn(env["x"], env["y"]) is None, (src, env)
                outside.add(src)
                continue
            assert fn(env["x"], env["y"]) == (expected,)
            arr, = fn_arr(np.array([env["x"]]), np.array([env["y"]]))
            assert float(np.asarray(arr).reshape(-1)[0]) == pytest.approx(expected, rel=1e-15)
    assert set(walls) <= outside


def test_kernel_matches_tree_walk_on_deep_and_shared_trees():
    # 300 nested sums exceed the parser's nesting limit unless the kernel
    # spills deep subexpressions into temporaries
    deep = cf.parse_expression(" + ".join(f"{i}.25*x^3 - y/(x^2 + 1)" for i in range(300)),
                               {"x", "y"})
    shared = cf.parse_expression("sin(x*y)^2 + sin(x*y)^3 - -2.5*(x*y)", {"x", "y"})
    kernel = compile_kernel([deep, shared, shared], ["x", "y"])
    for x, y in ((0.3, -1.2), (-1.7, 0.4)):
        env = {"x": x, "y": y}
        assert kernel(x, y) == tuple(cf.evaluate(e, env) for e in (deep, shared, shared))
    with pytest.raises(cf.ExpressionError):
        compile_kernel([deep], ["x"])


# each tree needs one kind of parenthesis in kernel source, or none; the
# text pins the parentheses, and at (1e16, 3.0, 3.0) most other groupings
# round to another value than evaluate's
@pytest.mark.parametrize("source, text", [
    ("x - (y - z)", "v0 - (v1 - v2)"),
    ("x - y - z", "v0 - v1 - v2"),
    ("x + (y + z)", "v0 + (v1 + v2)"),
    ("x / (y * z)", "v0 / (v1 * v2)"),
    ("x * y / z", "v0 * v1 / v2"),
    ("(x + y) * (y - z)", "(v0 + v1) * (v1 - v2)"),
    ("-(x + y)", "-(v0 + v1)"),
    ("-(x * y) / z", "-(v0 * v1) / v2"),
    ("-x * y", "-v0 * v1"),
    ("x * -y", "v0 * -v1"),
    ("x - -y", "v0 - -v1"),
    ("x - -2.5 * y", "v0 - -2.5 * v1"),
])
def test_kernels_parenthesise_only_where_python_would_group_otherwise(source, text):
    names = ["x", "y", "z"]
    e = cf.parse_expression(source, set(names))
    emitter = expr._KernelEmitter({n: f"v{i}" for i, n in enumerate(names)}, array=False)
    root, = emitter.number([e])
    emitter.uses[root] += 1
    assert emitter.emit()[root] == text
    kernel, array_kernel = compile_kernel([e], names), compile_array([e], names)
    points = [(1e16, 3.0, 3.0), (0.1, 0.2, 0.3), (-1.7, 1e-8, 2.9)]
    for point in points:
        expected = cf.evaluate(e, dict(zip(names, point)))
        assert kernel(*point) == (expected,)
    columns = [np.array(column) for column in zip(*points)]
    out, = array_kernel(*columns)
    assert out.tolist() == [cf.evaluate(e, dict(zip(names, p))) for p in points]


def test_array_kernel_and_value_grid_evaluate_deep_trees():
    # the same 300 nested sums through the broadcasting kernel, alone and
    # as one component of a map evaluated on a grid
    deep = cf.parse_expression(" + ".join(f"{i}.25*x^3 - y/(x^2 + 1)" for i in range(300)),
                               {"x", "y"})
    pts = np.array([[0.3, -1.2], [-1.7, 0.4], [2.0, 0.0]])
    expected = [cf.evaluate(deep, {"x": x, "y": y}) for x, y in pts]
    out, = compile_array([deep], ["x", "y"])(pts[:, 0], pts[:, 1])
    assert out.tolist() == expected
    vmap = cf.VectorMap("deep", ["x", "y"], {}, [deep, cf.parse_expression("y", {"y"})])
    grid = vmap.value_grid(pts)
    assert grid[:, 0].tolist() == expected
    assert grid[:, 1].tolist() == pts[:, 1].tolist()


def test_compiled_array_returns_nan_out_of_domain():
    e = cf.parse_expression("sqrt(x)", {"x"})
    fn = compile_array([e], ["x"])
    out, = fn(np.array([-1.0, 4.0]))
    assert math.isnan(out[0]) and out[1] == 2.0


def test_value_grid_divides_scalar_operands_without_raising():
    # a/b has no array operand; it must come back inf on every row, as the
    # array entries do, rather than raise ZeroDivisionError
    vmap = cf.VectorMap("ratio", ["x"], {"a": 1.0, "b": 0.0},
                        [cf.parse_expression("x + a/b", {"x", "a", "b"})])
    grid = vmap.value_grid(np.array([[0.0], [1.0]]))
    assert np.isinf(grid).all()


def test_keywordish_identifiers_compile():
    # identifiers that are Python keywords must not break code generation
    e = cf.parse_expression("if_ + lambda_x", {"if_", "lambda_x"})
    fn = compile_kernel([e], ["if_", "lambda_x"])
    assert fn(1.0, 2.0) == (3.0,)


def test_system_definition_validation():
    with pytest.raises(cf.ExpressionError):
        cf.SystemDefinition.from_sources("bad", ["x", "x"], {}, ["x", "x"])
    with pytest.raises(cf.ExpressionError):
        cf.SystemDefinition.from_sources("bad", ["x"], {}, ["x", "x"])
    with pytest.raises(cf.ExpressionError):
        cf.SystemDefinition.from_sources("bad", [], {}, [])
    with pytest.raises(cf.ExpressionError):
        cf.SystemDefinition.from_sources("bad", ["sin"], {}, ["sin"])
    with pytest.raises(cf.ExpressionError):
        cf.SystemDefinition.from_sources("bad", ["x"], {"x": 1.0}, ["x"])
    with pytest.raises(cf.UnknownIdentifierError):
        cf.SystemDefinition.from_sources("bad", ["x"], {"A": 1.0}, ["x - B"])
    good = cf.SystemDefinition.from_sources("ok", ["x"], {"A": 2.0}, ["x^2 - A^2"])
    assert good.dimension == 1
    assert tuple(map(cf.to_source, good.components)) == ("x ^ 2.0 - A ^ 2.0",)


def test_no_pass_recurses_over_a_deep_tree():
    # a left chain of 100,000 products and sums, built without the parser,
    # 100 times deeper than the default recursion limit of 1000 frames
    assert sys.getrecursionlimit() == 1000
    e = Name("x")
    for k in range(100_000):
        e = Binary("+" if k % 2 else "*", e, Name("y"))
    env = {"x": 0.5, "y": 0.5}
    value = cf.evaluate(e, env)
    assert value == 1.0  # v -> v * 0.5 + 0.5 from v = 0.5
    assert compile_kernel([e], ["x", "y"])(0.5, 0.5) == (value,)
    # d/dx is 0.5 ** 50_000, which underflows to zero
    assert cf.evaluate(cf.differentiate(e, "x"), env) == 0.5 ** 50_000 == 0.0
    assert cf.to_source(e) == "(" * 49_999 + "x * y + y" + ") * y + y" * 49_999
    assert cf.free_variables(e) == {"x", "y"}
    assert cf.free_variables(cf.fields.substitute(e, {"y": Const(0.5)})) == {"x"}
