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

Every pass over a tree (evaluation, differentiation, printing, the
kernels' numbering and the substitutions of :mod:`critflow.fields`) is a
loop over :func:`_postorder`, the distinct nodes with each after its
children, so how deep a tree nests is bounded by memory alone. Only the
parser recurses, once per level of parentheses, function call, ``^`` or
unary minus in the text, and has its own limit: past ``_MAX_NESTING``
(120) levels it raises :class:`ExpressionSyntaxError`. It raises the same
where a caller already deep in its own stack leaves it too few frames to
reach that limit (a ``RecursionError`` caught at the top). Chains of
``+ - * /`` parse in loops.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

__all__ = [
    "Expression", "Const", "Name", "Unary", "Binary",
    "ExpressionError", "ExpressionSyntaxError", "UnknownIdentifierError",
    "DomainError", "FUNCTIONS",
    "parse_expression", "evaluate", "differentiate", "free_variables",
    "to_source", "compile_array", "compile_kernel", "KERNEL_ERRORS",
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


def _postorder(roots, seen) -> list[Expression]:
    """The distinct nodes (by ``id``) under ``roots`` whose ids are not in
    ``seen``, each after its children, left before right: the order in
    which a left-first recursive walk would finish them. An explicit stack,
    so trees of any depth are walked."""
    order: list[Expression] = []
    visited: set[int] = set()
    stack: list = list(reversed(roots))
    while stack:
        node = stack.pop()
        if node is None:  # the node below it has its children in order
            order.append(stack.pop())
            continue
        while True:  # down the left spine; each node waits under a None
            key = id(node)
            if key in visited or key in seen:
                break
            visited.add(key)
            if node.__class__ is Binary:
                stack += (node, None, node.right)
                node = node.left
            elif node.__class__ is Unary:
                stack += (node, None)
                node = node.arg
            else:
                order.append(node)
                break
    return order


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


#: the deepest nesting the parser takes: parentheses, function arguments,
#: negations and exponents, counted together. A level costs the parser at
#: most five frames, so at the limit it takes about 600 of Python's default
#: recursion limit of 1000, and a caller up to some 390 frames deep gets the
#: same result as one at the bottom of the stack.
_MAX_NESTING = 120


class _Parser:
    def __init__(self, source: str, allowed_names: frozenset[str]):
        self.tokens = list(_tokenize(source))
        self.allowed = allowed_names
        self.i = 0
        self.depth = 0  # the sub-expressions open around the current token

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
        # every nested sub-expression starts here, so the nesting is counted here
        if self.depth > _MAX_NESTING:
            raise ExpressionSyntaxError("expression nested too deeply", 0)
        self.depth += 1
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.take()
            e = Unary("neg", self.unary())
        else:
            e = self.power()
        self.depth -= 1
        return e

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
    Nesting deeper than ``_MAX_NESTING`` levels raises
    :class:`ExpressionSyntaxError`, and so does a caller too deep in its
    own stack for the parser to reach that limit.
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


def _bracketed(e: Expression, wrap: bool) -> tuple:
    return ("(", e, ")") if wrap else (e,)


def _pieces(e: Expression) -> tuple:
    """``e`` printed one level deep: text, with its children left in place."""
    if isinstance(e, Const):
        return (_fmt_const(e.value),)
    if isinstance(e, Name):
        return (e.ident,)
    if isinstance(e, Unary):
        if e.op == "neg":
            return ("-", *_bracketed(e.arg, _prec(e.arg) < 3))
        return (f"{e.op}(", e.arg, ")")
    p = _PRECEDENCE[e.op]
    if e.op == "^":
        # right-associative; unary minus is allowed bare in the exponent
        wrap_left = _prec(e.left) <= p
        wrap_right = isinstance(e.right, Binary) and _PRECEDENCE[e.right.op] < 3
    else:
        wrap_left, wrap_right = _prec(e.left) < p, _prec(e.right) <= p
    return (*_bracketed(e.left, wrap_left), f" {e.op} ", *_bracketed(e.right, wrap_right))


def _spelled(pieces: tuple, rendered: dict) -> str:
    """The text of ``pieces``, each child replaced by its ``rendered``
    pieces, or by its text where that is already spelled out."""
    out: list[str] = []
    stack = list(reversed(pieces))
    while stack:
        piece = stack.pop()
        if piece.__class__ is str:
            out.append(piece)
        else:
            inner = rendered[id(piece)]
            if inner.__class__ is str:
                out.append(inner)
            else:
                stack.extend(reversed(inner))
    return "".join(out)


def to_source(e: Expression) -> str:
    """Render the tree back to grammar-conformant source text.

    Each distinct node is rendered once. A node used more than once is
    spelled out into one string that every use copies; any other node is
    spelled out where its one parent is, so a long chain is written once
    rather than as every one of its prefixes."""
    nodes = _postorder((e,), ())
    rendered: dict = {id(node): _pieces(node) for node in nodes}
    uses = Counter(id(piece) for pieces in rendered.values()
                   for piece in pieces if piece.__class__ is not str)
    for node in nodes:
        if uses[id(node)] > 1:
            rendered[id(node)] = _spelled(rendered[id(node)], rendered)
    return _spelled(rendered[id(e)], rendered)


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
    if memo is None:
        memo = {}
    for node in _postorder((e,), memo):
        try:
            if isinstance(node, Const):
                value = node.value
            elif isinstance(node, Name):
                try:
                    value = env[node.ident]
                except KeyError:
                    raise UnknownIdentifierError(node.ident, 0) from None
            elif isinstance(node, Unary):
                arg = memo[id(node.arg)][1]
                if node.op == "neg":
                    value = -arg
                else:
                    try:
                        value = _SCALAR_FUNCS[node.op](arg)
                    except ValueError:  # sin or cos of an infinity
                        raise DomainError(f"{node.op} of {arg!r}") from None
            elif node.op == "^" and _is_integer_literal(node.right):
                value = _k_ipow(memo[id(node.left)][1], int(node.right.value))
            else:
                left, right = memo[id(node.left)][1], memo[id(node.right)][1]
                if node.op == "+":
                    value = left + right
                elif node.op == "-":
                    value = left - right
                elif node.op == "*":
                    value = left * right
                elif node.op == "/":
                    value = _k_div(left, right)
                else:
                    value = _k_gpow(left, right)
        except OverflowError:
            raise DomainError("overflow during evaluation") from None
        memo[id(node)] = (node, value)  # holding the node keeps its id from being reused
    result = memo[id(e)][1]
    if not math.isfinite(result):
        raise DomainError(f"non-finite result {result!r}")
    return result


def free_variables(e: Expression) -> frozenset[str]:
    """The set of identifiers appearing in the tree."""
    return frozenset(node.ident for node in _postorder((e,), ()) if isinstance(node, Name))


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
    for node in _postorder((e,), memo):
        if isinstance(node, Const):
            d = _ZERO
        elif isinstance(node, Name):
            d = _ONE if node.ident == wrt else _ZERO
        elif isinstance(node, Unary):
            d = _unary_derivative(node.op, node.arg, memo[id(node.arg)][1])
        else:
            left, right = node.left, node.right
            dl, dr = memo[id(left)][1], memo[id(right)][1]
            if node.op in "+-":
                d = _BINARY_BUILDERS[node.op](dl, dr)
            elif node.op == "*":
                d = e_add(e_mul(dl, right), e_mul(left, dr))
            elif node.op == "/":
                d = e_div(e_sub(e_mul(dl, right), e_mul(left, dr)), e_pow(right, _const(2.0)))
            elif _is_integer_literal(right):
                n = right.value
                d = e_mul(e_mul(_const(n), e_pow(left, _const(n - 1))), dl)
            else:
                # d/dx exp(y*log(b)) = b^y * (dy*log(b) + y*db/b)
                inner = e_add(e_mul(dr, e_func("log", left)), e_div(e_mul(right, dl), left))
                d = e_mul(node, inner)
        memo[id(node)] = (node, d)  # holding the node keeps its id from being reused
    return memo[id(e)][1]


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

#: the one evaluability rule of every generated scalar kernel, the lines that
#: end it: ``out`` if every entry is finite (a finite sum proves it), else None
_RETURN_IF_FINITE = ("    if isfinite(sum(out)) or all(map(isfinite, out)):",
                    "        return out",
                    "    return None")


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
        self.by_key: dict[tuple, int] = {}
        self.nodes: list[tuple] = []
        self.uses: list[int] = []
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

    def number(self, exprs) -> list[int]:
        """The numbers of ``exprs``, numbering their nodes children first."""
        by_object: dict[int, int] = {}
        for e in _postorder(exprs, ()):
            if isinstance(e, Const):
                num = self._node(("leaf", _kernel_const(e.value)))
            elif isinstance(e, Name):
                num = self._node(("leaf", self.slot[e.ident]))
            elif isinstance(e, Unary) and e.op == "neg" and isinstance(e.arg, Const):
                # a negative literal: negation is exact, so fold it
                num = self._node(("leaf", _kernel_const(-e.arg.value)))
            elif isinstance(e, Unary):
                arg = by_object[id(e.arg)]
                num = self._node((e.op, arg), arg)
            elif e.op == "^" and _is_integer_literal(e.right):
                base, n = by_object[id(e.left)], int(e.right.value)
                if n in (2, 3):
                    # _k_ipow multiplies these out as (b * b) * b; a square is
                    # then shared with the cube of the same base
                    num = self._node(("*", base, base), base, base)
                    if n == 3:
                        num = self._node(("*", num, base), num, base)
                else:
                    num = self._node(("ipow", base, n), base)
            else:
                left, right = by_object[id(e.left)], by_object[id(e.right)]
                num = self._node((e.op, left, right), left, right)
            by_object[id(e)] = num
        return [by_object[id(e)] for e in exprs]

    def emit(self) -> list[str]:
        """Source text for every node, in numbering order (children first):
        a leaf's text, a temporary's name, or an inline subexpression. A
        node used more than once, or nested deeper inline than
        ``_MAX_INLINE_DEPTH``, is assigned to a temporary. An operand is
        parenthesised only where Python would otherwise group it another
        way, by the printer's rules (:data:`_PRECEDENCE`): parentheses
        change no instruction, but the compiler pays for each one."""
        texts: list[str] = []
        depths: list[int] = []
        precs: list[int] = []  # a negative literal binds as a negation

        def operand(num: int, bare: bool) -> str:
            return texts[num] if bare else f"({texts[num]})"

        for num, (op, *operands) in enumerate(self.nodes):
            if op == "leaf":
                texts.append(operands[0])
                depths.append(0)
                precs.append(3 if operands[0].startswith("-") else 5)
                continue
            prec = 5
            if op == "ipow":
                depth = depths[operands[0]]
                text = f"_ipow({texts[operands[0]]}, {operands[1]})"
            elif len(operands) == 1:
                arg, depth = operands[0], depths[operands[0]]
                if op == "neg":
                    text, prec = "-" + operand(arg, precs[arg] >= 3), 3
                else:
                    text = f"{op}({texts[arg]})"
            else:
                left, right = operands
                depth = max(depths[left], depths[right])
                if op == "^":
                    text = f"_gpow({texts[left]}, {texts[right]})"
                elif op == "/" and self.array:
                    text = f"_div({texts[left]}, {texts[right]})"
                else:
                    prec = _PRECEDENCE[op]
                    text = (f"{operand(left, precs[left] >= prec)} {op} "
                            f"{operand(right, precs[right] > prec)}")
            depth += 1
            if self.uses[num] > 1 or depth > _MAX_INLINE_DEPTH:
                name = f"t{len(self.lines)}"
                self.lines.append(f"    {name} = {text}")
                text, depth, prec = name, 0, 5
            texts.append(text)
            depths.append(depth)
            precs.append(prec)
        return texts


def _generate(exprs, arg_names, namespace: dict, array: bool) -> Callable[..., tuple]:
    arg_names = tuple(arg_names)
    # positional slots sidestep collisions with kernel names and keywords
    slot = {name: f"v{i}" for i, name in enumerate(arg_names)}
    emitter = _KernelEmitter(slot, array)
    try:
        roots = emitter.number(list(exprs))
    except KeyError as err:
        raise ExpressionError(f"unbound identifier {err.args[0]!r}") from None
    for num in roots:
        emitter.uses[num] += 1
    texts = emitter.emit()
    entries = [texts[num] for num in roots]
    out = f"({''.join(e + ', ' for e in entries)})"
    if array:
        body = "\n".join(emitter.lines + [f"    return {out}"])
    else:
        body = "\n".join(["    try:", *(f"    {line}" for line in emitter.lines),
                          f"        out = {out}",
                          "    except KERNEL_ERRORS:",
                          "        return None",
                          *_RETURN_IF_FINITE])
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
    values, and one right-hand-side expression per state variable.

    Construction checks the names, not the components' trees: the loaders
    parse each component with the declared names only
    (:meth:`from_sources`), and a component built otherwise that names
    anything else raises :class:`ExpressionError` ("unbound identifier")
    when its field's first kernel is compiled."""

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
