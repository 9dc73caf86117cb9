"""Expression language for vector fields and coordinate maps.

Infix grammar with precedence ``^`` > unary ``-`` > ``* /`` > ``+ -``,
right-associative ``^``, parentheses, and call syntax for the unary
functions ``sqrt sin cos exp log abs sign``. Identifiers are
``[A-Za-z_][A-Za-z0-9_]*``; literals are decimal with optional exponent.

Expressions are immutable trees. Evaluation either returns a finite float
or raises :class:`DomainError`; it never leaks NaN/inf. Differentiation is
exact and symbolic, with literal-constant folding so derivatives carry no
``0*x`` / ``x+0`` residue.

A list of expressions compiles into one straight-line kernel over Python
floats (:func:`compile_kernel`), bit-identical to :func:`evaluate`. The
kernel holds the library's one evaluability rule: it returns the entries
as a tuple, or None where its body raises one of :data:`KERNEL_ERRORS` or
an entry comes out non-finite, and it builds no message. The broadcasting
kernel (:func:`compile_array`) instead gives NaN/inf entry by entry.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

__all__ = [
    "Expression", "Const", "Name", "Unary", "Binary",
    "ExpressionError", "ExpressionSyntaxError", "UnknownIdentifierError",
    "DomainError", "FUNCTIONS",
    "parse_expression", "evaluate", "differentiate", "free_variables",
    "to_source", "compile_array", "compile_kernel", "nesting_depth",
    "KERNEL_ERRORS", "MAX_NESTING_DEPTH",
    "SystemDefinition",
]

#: unary functions usable with call syntax; their names are reserved.
FUNCTIONS = ("sqrt", "sin", "cos", "exp", "log", "abs", "sign")


class ExpressionError(ValueError):
    """Base class for expression-language errors."""


class ExpressionSyntaxError(ExpressionError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExpressionError):
    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier '{name}' (offset {offset})")
        self.name = name
        self.offset = offset


class DomainError(ArithmeticError):
    """Evaluation left the expression's real domain (sqrt of a negative,
    log of a non-positive, division by zero, overflow)."""


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Unary:
    op: str  # 'neg' or a FUNCTIONS member
    arg: "Expression"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"


Expression = Const | Name | Unary | Binary

_ZERO = Const(0.0)
_ONE = Const(1.0)


# ---------------------------------------------------------------------------
# Scalar kernels. The tree-walking evaluator and the compiled fast path call
# the same kernels so both produce bit-identical results.

def _k_div(a: float, b: float) -> float:
    if b == 0.0:
        raise DomainError("division by zero")
    return a / b


def _k_sqrt(x: float) -> float:
    if x < 0.0:
        raise DomainError(f"sqrt of negative value {x!r}")
    return math.sqrt(x)


def _k_log(x: float) -> float:
    if x <= 0.0:
        raise DomainError(f"log of non-positive value {x!r}")
    return math.log(x)


def _k_sign(x: float) -> float:
    if x > 0.0:
        return 1.0
    if x < 0.0:
        return -1.0
    return 0.0


def _k_ipow(base: float, n: int) -> float:
    # integer-literal exponents work for any base, including negatives;
    # small powers multiply out so compiled inline forms match bit for bit
    if n == 2:
        return base * base
    if n == 3:
        return base * base * base
    try:
        return base ** n
    except ZeroDivisionError:
        raise DomainError(f"zero raised to negative power {n}") from None


def _k_gpow(base: float, y: float) -> float:
    # general power via exp(y*log(base)); domain restricted to base > 0
    if base <= 0.0:
        raise DomainError(f"non-integer power of non-positive base {base!r}")
    return math.exp(y * math.log(base))


_SCALAR_FUNCS: dict[str, Callable[[float], float]] = {
    "sqrt": _k_sqrt,
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": _k_log,
    "abs": abs,
    "sign": _k_sign,
}


def _is_integer_literal(e: Expression) -> bool:
    return isinstance(e, Const) and float(e.value).is_integer() and abs(e.value) < 2 ** 31


# ---------------------------------------------------------------------------
# Smart constructors: fold literal subtrees, prune arithmetic identities.

def _const(v: float) -> Const:
    return Const(float(v))


def e_neg(a: Expression) -> Expression:
    if isinstance(a, Const):
        return _const(-a.value)
    if isinstance(a, Unary) and a.op == "neg":
        return a.arg
    return Unary("neg", a)


def e_add(a: Expression, b: Expression) -> Expression:
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value + b.value)
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    return Binary("+", a, b)


def e_sub(a: Expression, b: Expression) -> Expression:
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value - b.value)
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and a.value == 0.0:
        return e_neg(b)
    return Binary("-", a, b)


def e_mul(a: Expression, b: Expression) -> Expression:
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value * b.value)
    if isinstance(a, Const):
        if a.value == 0.0:
            return _ZERO
        if a.value == 1.0:
            return b
    if isinstance(b, Const):
        if b.value == 0.0:
            return _ZERO
        if b.value == 1.0:
            return a
    return Binary("*", a, b)


def e_div(a: Expression, b: Expression) -> Expression:
    if isinstance(b, Const) and b.value != 0.0:
        if isinstance(a, Const):
            return _const(a.value / b.value)
        if b.value == 1.0:
            return a
    return Binary("/", a, b)


def e_pow(a: Expression, b: Expression) -> Expression:
    if isinstance(b, Const):
        if b.value == 1.0:
            return a
        if b.value == 0.0:
            return _ONE
        if isinstance(a, Const):
            try:
                if _is_integer_literal(b):
                    return _const(_k_ipow(a.value, int(b.value)))
                return _const(_k_gpow(a.value, b.value))
            except DomainError:
                pass
    return Binary("^", a, b)


def e_func(op: str, a: Expression) -> Expression:
    if isinstance(a, Const):
        try:
            return _const(_SCALAR_FUNCS[op](a.value))
        except (DomainError, OverflowError, ValueError):
            pass
    return Unary(op, a)


_BINARY_BUILDERS = {"+": e_add, "-": e_sub, "*": e_mul, "/": e_div, "^": e_pow}


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(source: str) -> Iterator[tuple[str, str, int]]:
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExpressionSyntaxError(f"unexpected character {source[pos]!r}", pos)
        if m.lastgroup != "ws":
            yield m.lastgroup, m.group(), pos
        pos = m.end()
    yield "eof", "", len(source)


class _Parser:
    def __init__(self, source: str, allowed_names: frozenset[str]):
        self.tokens = list(_tokenize(source))
        self.allowed = allowed_names
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol: str) -> None:
        kind, text, offset = self.take()
        if kind != "op" or text != symbol:
            raise ExpressionSyntaxError(f"expected '{symbol}', got {text or 'end of input'!r}", offset)

    def parse(self) -> Expression:
        e = self.additive()
        kind, text, offset = self.peek()
        if kind != "eof":
            raise ExpressionSyntaxError(f"unexpected trailing input {text!r}", offset)
        return e

    def additive(self) -> Expression:
        left = self.multiplicative()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.take()
                left = Binary(text, left, self.multiplicative())
            else:
                return left

    def multiplicative(self) -> Expression:
        left = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.take()
                left = Binary(text, left, self.unary())
            else:
                return left

    def unary(self) -> Expression:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.take()
            return Unary("neg", self.unary())
        return self.power()

    def power(self) -> Expression:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.take()
            return Binary("^", base, self.unary())
        return base

    def atom(self) -> Expression:
        kind, text, offset = self.take()
        if kind == "num":
            return Const(float(text))
        if kind == "op" and text == "(":
            e = self.additive()
            self.expect_op(")")
            return e
        if kind == "ident":
            nk, nt, _ = self.peek()
            if nk == "op" and nt == "(":
                if text not in FUNCTIONS:
                    raise ExpressionSyntaxError(f"unknown function '{text}'", offset)
                self.take()
                arg = self.additive()
                self.expect_op(")")
                return Unary(text, arg)
            if text in FUNCTIONS:
                raise ExpressionSyntaxError(f"function name '{text}' used without arguments", offset)
            if text not in self.allowed:
                raise UnknownIdentifierError(text, offset)
            return Name(text)
        raise ExpressionSyntaxError(f"unexpected {text or 'end of input'!r}", offset)


def parse_expression(source: str, allowed_names) -> Expression:
    """Parse ``source`` into an expression tree.

    Free identifiers must be members of ``allowed_names``; violations raise
    :class:`UnknownIdentifierError` with the byte offset of the offender.
    Nesting deep enough to exhaust the recursion limit raises
    :class:`ExpressionSyntaxError`.
    """
    if not source or not source.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    try:
        return _Parser(source, frozenset(allowed_names)).parse()
    except RecursionError:
        raise ExpressionSyntaxError("expression nested too deeply", 0) from None


# ---------------------------------------------------------------------------
# Printing. Parenthesization is chosen so that re-parsing the printed form
# reconstructs the same tree shape (hence bit-identical evaluation).

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _prec(e: Expression) -> int:
    if isinstance(e, Binary):
        return _PRECEDENCE[e.op]
    if isinstance(e, Unary):
        return 3 if e.op == "neg" else 5
    return 5


def _fmt_const(v: float) -> str:
    return repr(float(v))


def to_source(e: Expression) -> str:
    """Render the tree back to grammar-conformant source text."""
    if isinstance(e, Const):
        return _fmt_const(e.value)
    if isinstance(e, Name):
        return e.ident
    if isinstance(e, Unary):
        if e.op == "neg":
            inner = to_source(e.arg)
            if _prec(e.arg) < 3:
                inner = f"({inner})"
            return f"-{inner}"
        return f"{e.op}({to_source(e.arg)})"
    left, right = to_source(e.left), to_source(e.right)
    p = _PRECEDENCE[e.op]
    if e.op == "^":
        # right-associative; unary minus is allowed bare in the exponent
        if _prec(e.left) <= p:
            left = f"({left})"
        if isinstance(e.right, Binary) and _PRECEDENCE[e.right.op] < 3:
            right = f"({right})"
    else:
        if _prec(e.left) < p:
            left = f"({left})"
        if _prec(e.right) <= p:
            right = f"({right})"
    return f"{left} {e.op} {right}"


# ---------------------------------------------------------------------------
# Evaluation

def evaluate(e: Expression, env: Mapping[str, float], memo: dict | None = None) -> float:
    """Evaluate at the point described by ``env`` (name -> value).

    Raises :class:`DomainError` when the point is outside the expression's
    real domain or the result is not finite.

    Each distinct subtree object is evaluated once. Passing the same
    ``memo`` dict to several calls with the same ``env`` extends that to
    subtrees the expressions share.
    """
    result = _eval(e, env, {} if memo is None else memo)
    if not math.isfinite(result):
        raise DomainError(f"non-finite result {result!r}")
    return result


def _eval(e: Expression, env: Mapping[str, float], memo: dict) -> float:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Name):
        try:
            return env[e.ident]
        except KeyError:
            raise UnknownIdentifierError(e.ident, 0) from None
    hit = memo.get(id(e))
    if hit is not None:
        return hit[1]
    try:
        if isinstance(e, Unary):
            arg = _eval(e.arg, env, memo)
            if e.op == "neg":
                value = -arg
            else:
                try:
                    value = _SCALAR_FUNCS[e.op](arg)
                except ValueError:  # sin or cos of an infinity
                    raise DomainError(f"{e.op} of {arg!r}") from None
        elif e.op == "^":
            left = _eval(e.left, env, memo)
            if _is_integer_literal(e.right):
                value = _k_ipow(left, int(e.right.value))
            else:
                value = _k_gpow(left, _eval(e.right, env, memo))
        else:
            left, right = _eval(e.left, env, memo), _eval(e.right, env, memo)
            if e.op == "+":
                value = left + right
            elif e.op == "-":
                value = left - right
            elif e.op == "*":
                value = left * right
            else:
                value = _k_div(left, right)
    except OverflowError:
        raise DomainError("overflow during evaluation") from None
    memo[id(e)] = (e, value)  # holding e keeps its id from being reused
    return value


def free_variables(e: Expression) -> frozenset[str]:
    """The set of identifiers appearing in the tree."""
    out: set[str] = set()
    stack = [e]
    seen: set[int] = set()  # subtrees are often shared; walk each once
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Name):
            out.add(node.ident)
        elif isinstance(node, Unary):
            stack.append(node.arg)
        elif isinstance(node, Binary):
            stack.append(node.left)
            stack.append(node.right)
    return frozenset(out)


#: per operation, how many levels a node's tree and its first and second
#: partials (as :func:`differentiate` builds them) can reach above the
#: deepest tree or partial of its children: a sum's partials are no deeper
#: than the sum, a quotient's second partial nests 6 levels per quotient.
#: Integer-literal powers count as "ipow", leaves count 1.
_NESTING_WEIGHTS = {"+": 1, "-": 1, "neg": 1, "sign": 1, "abs": 2, "*": 3, "log": 3,
                    "exp": 4, "sin": 5, "cos": 5, "/": 6, "ipow": 6, "sqrt": 7, "^": 8}

#: the deepest :func:`nesting_depth` a definition file may use. The tree
#: walks (:func:`differentiate`, the kernel emitter, :func:`evaluate`,
#: :func:`to_source`) recurse once per level, and a search differentiates
#: a field twice; this keeps them within Python's default recursion limit
#: of 1000, with room for the callers' frames.
MAX_NESTING_DEPTH = 600


def nesting_depth(e: Expression) -> int:
    """The depth of ``e`` with each node counted by its weight in
    ``_NESTING_WEIGHTS``: a bound on the depth of ``e`` and of every first
    and second partial derivative of it. A flat sum of n terms has nesting
    depth n."""
    depth: dict[int, int] = {}
    stack = [e]
    while stack:
        node = stack[-1]
        if id(node) in depth:
            stack.pop()
            continue
        if isinstance(node, Unary):
            children = (node.arg,)
        elif isinstance(node, Binary):
            children = (node.left, node.right)
        else:
            children = ()
        pending = [c for c in children if id(c) not in depth]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if not children:
            weight = 1
        elif node.op == "^" and _is_integer_literal(node.right):
            weight = _NESTING_WEIGHTS["ipow"]
        else:
            weight = _NESTING_WEIGHTS[node.op]
        depth[id(node)] = weight + max((depth[id(c)] for c in children), default=0)
    return depth[id(e)]


# ---------------------------------------------------------------------------
# Differentiation

def _unary_derivative(op: str, u: Expression, du: Expression) -> Expression:
    if op == "neg":
        return e_neg(du)
    if op == "sqrt":
        return e_div(du, e_mul(_const(2.0), e_func("sqrt", u)))
    if op == "sin":
        return e_mul(e_func("cos", u), du)
    if op == "cos":
        return e_neg(e_mul(e_func("sin", u), du))
    if op == "exp":
        return e_mul(e_func("exp", u), du)
    if op == "log":
        return e_div(du, u)
    if op == "abs":
        return e_mul(e_func("sign", u), du)
    if op == "sign":
        return _ZERO
    raise ExpressionError(f"cannot differentiate '{op}'")


def differentiate(e: Expression, wrt: str, memo: dict | None = None) -> Expression:
    """Exact symbolic partial derivative with respect to ``wrt``.

    Integer-literal powers use the power rule; general powers follow the
    exp/log form. ``abs`` differentiates to ``sign`` (0 at 0) and ``sign``
    to 0. Results are constant-folded.

    Each distinct subtree object is differentiated once. Passing the same
    ``memo`` dict to several calls with the same ``wrt`` extends that to
    subtrees the expressions share.
    """
    if memo is None:
        memo = {}
    hit = memo.get(id(e))
    if hit is not None:
        return hit[1]
    if isinstance(e, Const):
        d = _ZERO
    elif isinstance(e, Name):
        d = _ONE if e.ident == wrt else _ZERO
    elif isinstance(e, Unary):
        d = _unary_derivative(e.op, e.arg, differentiate(e.arg, wrt, memo))
    elif e.op in "+-":
        d = _BINARY_BUILDERS[e.op](differentiate(e.left, wrt, memo),
                                   differentiate(e.right, wrt, memo))
    elif e.op == "*":
        d = e_add(e_mul(differentiate(e.left, wrt, memo), e.right),
                  e_mul(e.left, differentiate(e.right, wrt, memo)))
    elif e.op == "/":
        num = e_sub(e_mul(differentiate(e.left, wrt, memo), e.right),
                    e_mul(e.left, differentiate(e.right, wrt, memo)))
        d = e_div(num, e_pow(e.right, _const(2.0)))
    else:
        base, expo = e.left, e.right
        db = differentiate(base, wrt, memo)
        if _is_integer_literal(expo):
            n = expo.value
            d = e_mul(e_mul(_const(n), e_pow(base, _const(n - 1))), db)
        else:
            # d/dx exp(y*log(b)) = b^y * (dy*log(b) + y*db/b)
            dy = differentiate(expo, wrt, memo)
            inner = e_add(e_mul(dy, e_func("log", base)), e_div(e_mul(expo, db), base))
            d = e_mul(e, inner)
    memo[id(e)] = (e, d)  # holding e keeps its id from being reused
    return d


# ---------------------------------------------------------------------------
# Compilation to Python callables

_ARRAY_NAMESPACE = {name: getattr(np, name) for name in FUNCTIONS}
_ARRAY_NAMESPACE.update({"_div": np.divide,
                         "_ipow": lambda b, n: np.asarray(b, dtype=float) ** n,
                         "_gpow": lambda b, y: np.exp(y * np.log(b))})

#: inline subexpressions nest at most this deep before they are spilled to a
#: temporary, which keeps generated source inside the parser's nesting limit
_MAX_INLINE_DEPTH = 32

#: what a scalar kernel's body may raise at a point outside its real
#: domain; ``math.sin`` and ``math.cos`` of an infinity raise ValueError
KERNEL_ERRORS = (DomainError, OverflowError, ZeroDivisionError, ValueError)

_SCALAR_NAMESPACE = {**_SCALAR_FUNCS, "_ipow": _k_ipow, "_gpow": _k_gpow,
                     "KERNEL_ERRORS": KERNEL_ERRORS, "isfinite": math.isfinite}


def _kernel_const(v: float) -> str:
    return repr(v) if math.isfinite(v) else f"float('{v!r}')"


class _KernelEmitter:
    """Straight-line code for a list of expressions.

    Nodes are numbered bottom-up by structure (operator plus the numbers of
    the children), so each distinct subtree is visited once and identical
    subtrees share one number; frozen-dataclass hashing would re-walk whole
    subtrees at every lookup. A subtree used more than once becomes a
    temporary. Every node keeps its own operation and operands, so each
    entry rounds exactly as :func:`evaluate` does.

    ``array`` code divides through ``_div`` so that a division of two
    Python floats (parameters, unfolded literals) gives inf/NaN like the
    array entries instead of raising.
    """

    def __init__(self, slot: Mapping[str, str], array: bool):
        self.slot = slot
        self.array = array
        self.by_object: dict[int, int] = {}
        self.by_key: dict[tuple, int] = {}
        self.nodes: list[tuple] = []
        self.uses: list[int] = []
        self.done: dict[int, str] = {}
        self.lines: list[str] = []

    def _node(self, key: tuple, *children: int) -> int:
        num = self.by_key.get(key)
        if num is None:
            num = len(self.nodes)
            self.by_key[key] = num
            self.nodes.append(key)
            self.uses.append(0)
            for child in children:
                self.uses[child] += 1
        return num

    def number(self, e: Expression) -> int:
        num = self.by_object.get(id(e))
        if num is not None:
            return num
        if isinstance(e, Const):
            num = self._node(("leaf", _kernel_const(e.value)))
        elif isinstance(e, Name):
            num = self._node(("leaf", self.slot[e.ident]))
        elif isinstance(e, Unary) and e.op == "neg" and isinstance(e.arg, Const):
            # a negative literal: negation is exact, so fold it
            num = self._node(("leaf", _kernel_const(-e.arg.value)))
        elif isinstance(e, Unary):
            arg = self.number(e.arg)
            num = self._node((e.op, arg), arg)
        elif e.op == "^" and _is_integer_literal(e.right):
            base, n = self.number(e.left), int(e.right.value)
            if n in (2, 3):
                # _k_ipow multiplies these out as (b * b) * b; a square is
                # then shared with the cube of the same base
                num = self._node(("*", base, base), base, base)
                if n == 3:
                    num = self._node(("*", num, base), num, base)
            else:
                num = self._node(("ipow", base, n), base)
        else:
            left, right = self.number(e.left), self.number(e.right)
            num = self._node((e.op, left, right), left, right)
        self.by_object[id(e)] = num
        return num

    def emit(self, num: int) -> tuple[str, int]:
        """Source text for node ``num`` and its inline nesting depth."""
        if num in self.done:
            return self.done[num], 0
        op, *operands = self.nodes[num]
        if op == "leaf":
            self.done[num] = operands[0]
            return operands[0], 0
        if op == "ipow":
            base, depth = self.emit(operands[0])
            text = f"_ipow({base}, {operands[1]})"
        elif len(operands) == 1:
            arg, depth = self.emit(operands[0])
            text = f"(-{arg})" if op == "neg" else f"{op}({arg})"
        else:
            (left, dl), (right, dr) = self.emit(operands[0]), self.emit(operands[1])
            depth = max(dl, dr)
            if op == "^":
                text = f"_gpow({left}, {right})"
            elif op == "/" and self.array:
                text = f"_div({left}, {right})"
            else:
                text = f"({left} {op} {right})"
        depth += 1
        if self.uses[num] > 1 or depth > _MAX_INLINE_DEPTH:
            name = f"t{len(self.lines)}"
            self.lines.append(f"    {name} = {text}")
            self.done[num] = name
            return name, 0
        return text, depth


def _generate(exprs, arg_names, namespace: dict, array: bool) -> Callable[..., tuple]:
    arg_names = tuple(arg_names)
    # positional slots sidestep collisions with kernel names and keywords
    slot = {name: f"v{i}" for i, name in enumerate(arg_names)}
    emitter = _KernelEmitter(slot, array)
    try:
        roots = [emitter.number(e) for e in exprs]
    except KeyError as err:
        raise ExpressionError(f"unbound identifier {err.args[0]!r}") from None
    for num in roots:
        emitter.uses[num] += 1
    entries = [emitter.emit(num)[0] for num in roots]
    out = f"({''.join(e + ', ' for e in entries)})"
    if array:
        body = "\n".join(emitter.lines + [f"    return {out}"])
    else:
        # the one evaluability rule; a finite sum proves every entry finite
        body = "\n".join(["    try:", *(f"    {line}" for line in emitter.lines),
                          f"        out = {out}",
                          "    except KERNEL_ERRORS:",
                          "        return None",
                          "    if isfinite(sum(out)) or all(map(isfinite, out)):",
                          "        return out",
                          "    return None"])
    src = f"def _kernel({', '.join(slot[n] for n in arg_names)}):\n{body}\n"
    scope = dict(namespace)
    exec(compile(src, "<critflow-kernel>", "exec"), scope)
    return scope["_kernel"]


def compile_kernel(exprs, arg_names) -> Callable[..., tuple]:
    """Compile a list of expressions into one positional-argument function
    that returns their values as a flat tuple, or None where any of them is
    not evaluable.

    Repeated subtrees are computed once; each entry is bit-identical to
    :func:`evaluate` of its expression. An entry is not evaluable where the
    kernel's body raises one of :data:`KERNEL_ERRORS` (a domain violation
    mid-kernel) or comes out non-finite: exactly where :func:`evaluate`
    raises :class:`DomainError` for some entry. The kernel builds no
    message; callers that need one re-evaluate entry by entry to name the
    offender.
    """
    return _generate(exprs, arg_names, _SCALAR_NAMESPACE, array=False)


def compile_array(exprs, arg_names) -> Callable[..., tuple]:
    """Like :func:`compile_kernel`, but the function broadcasts over numpy
    arrays and returns a tuple of arrays (or scalars, for entries that do
    not depend on an array argument); out-of-domain entries come back as
    NaN/inf, entry by entry, without floating-point warnings."""
    kernel = _generate(exprs, arg_names, _ARRAY_NAMESPACE, array=True)

    def array_kernel(*args):
        with np.errstate(all="ignore"):
            return kernel(*args)
    return array_kernel


# ---------------------------------------------------------------------------
# System definitions

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _check_names(names, what: str) -> None:
    for n in names:
        if not _IDENT_RE.match(n):
            raise ExpressionError(f"invalid {what} name {n!r}")
        if n in FUNCTIONS:
            raise ExpressionError(f"{what} name {n!r} shadows a reserved function")


@dataclass(frozen=True, eq=True)
class SystemDefinition:
    """An autonomous system: n named state variables, fixed parameter
    values, and one right-hand-side expression per state variable."""

    name: str
    state_names: tuple[str, ...]
    parameters: dict[str, float]
    components: tuple[Expression, ...]

    def __post_init__(self):
        n = len(self.state_names)
        if n < 1:
            raise ExpressionError("system needs at least one state variable")
        if len(set(self.state_names)) != n:
            raise ExpressionError("state names must be pairwise distinct")
        if len(self.components) != n:
            raise ExpressionError(
                f"{len(self.components)} components for {n} state variables")
        _check_names(self.state_names, "state")
        _check_names(self.parameters, "parameter")
        overlap = set(self.state_names) & set(self.parameters)
        if overlap:
            raise ExpressionError(f"names declared as both state and parameter: {sorted(overlap)}")
        declared = set(self.state_names) | set(self.parameters)
        for i, comp in enumerate(self.components):
            undeclared = free_variables(comp) - declared
            if undeclared:
                raise ExpressionError(
                    f"component {i} references undeclared names {sorted(undeclared)}")

    @classmethod
    def from_sources(cls, name: str, state_names, parameters: Mapping[str, float],
                     sources) -> "SystemDefinition":
        state_names = tuple(state_names)
        parameters = {k: float(v) for k, v in sorted(parameters.items())}
        allowed = set(state_names) | set(parameters)
        components = tuple(parse_expression(s, allowed) for s in sources)
        return cls(name=name, state_names=state_names, parameters=parameters,
                   components=components)

    @property
    def dimension(self) -> int:
        return len(self.state_names)
