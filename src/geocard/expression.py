"""The card equation language: tokenizer, parser, printer, evaluator.

This is a closed, allowlisted expression grammar — not a Python subset.
There is no attribute access, no indexing, no strings, no statement forms,
and only the functions named in ALLOWED_FUNCTIONS can be called, so a
hostile card can at worst fail to parse. The tokenizer is one regex, whose
last alternative rejects any character no token takes. Evaluation never
touches ``eval()``, ``exec()``, ``compile()`` or any other host-language
execution path: ``compile_expr`` turns the parsed tree into nested Python
closures, one per node, that apply ``math`` primitives. ``cards.load_card``
builds them once per equation, so an evaluation walks no tree.

Grammar (infix, standard precedence; ``**`` is right-associative and binds
tighter than unary minus):

    condition := "True" | expr cmp expr          cmp: > >= < <= = ==
    expr      := term (("+" | "-") term)*
    term      := factor (("*" | "/") factor)*
    factor    := "-" factor | power
    power     := atom ["**" factor]
    atom      := NUMBER | "pi" | "e" | NAME | NAME "(" args ")" | "(" expr ")"

Comparisons exist only in condition positions: Piecewise branch conditions,
and standalone conditions parsed with ``parse_condition``.
"""

from __future__ import annotations

import math
import operator
import re
from collections.abc import Callable, Mapping

from .errors import (
    DisallowedFunction,
    DisallowedSyntax,
    MathDomain,
    NoBranchTaken,
    ParseError,
    UnboundSymbol,
)
from .record import FrozenRecord, set_field

ALLOWED_FUNCTIONS = frozenset({
    "sin", "cos", "tan", "cot", "asin", "acos", "atan", "atan2",
    "exp", "log", "sqrt", "Abs", "Min", "Max", "Piecewise",
})

CONSTANTS = {"pi": math.pi, "e": math.e}

# Names that read as host-language machinery; rejected outright so a card
# can never look like executable code.
_RESERVED = frozenset({
    "and", "or", "not", "if", "else", "elif", "for", "while", "import",
    "from", "as", "def", "class", "lambda", "return", "yield", "global",
    "nonlocal", "del", "try", "except", "finally", "raise", "assert",
    "with", "pass", "break", "continue", "in", "is", "None", "False",
    "eval", "exec",
})

# Deepest nesting a parse accepts, counted both as parser recursion
# (parentheses, calls, unary minus, powers) and as depth of the tree, so
# that neither the parser nor a walk over the tree can exhaust the stack.
MAX_NESTING = 64


# --------------------------------------------------------------- AST types ----

class Number(FrozenRecord):
    __slots__ = ("value",)

    def __init__(self, value: float):
        set_field(self, "value", value)


class Constant(FrozenRecord):
    __slots__ = ("name",)  # "pi" | "e"

    def __init__(self, name: str):
        set_field(self, "name", name)


class Symbol(FrozenRecord):
    __slots__ = ("name",)

    def __init__(self, name: str):
        set_field(self, "name", name)


class Unary(FrozenRecord):
    __slots__ = ("op", "operand")  # op: "-"

    def __init__(self, op: str, operand: ExprNode):
        set_field(self, "op", op)
        set_field(self, "operand", operand)


class Binary(FrozenRecord):
    __slots__ = ("op", "left", "right")  # op: + - * / **

    def __init__(self, op: str, left: ExprNode, right: ExprNode):
        set_field(self, "op", op)
        set_field(self, "left", left)
        set_field(self, "right", right)


class Call(FrozenRecord):
    __slots__ = ("func", "args")

    def __init__(self, func: str, args: tuple):
        set_field(self, "func", func)
        set_field(self, "args", args)


class Piecewise(FrozenRecord):
    __slots__ = ("branches",)  # ((value, condition), ...)

    def __init__(self, branches: tuple):
        set_field(self, "branches", branches)


class Comparison(FrozenRecord):
    __slots__ = ("op", "left", "right")  # op: > >= < <= =

    def __init__(self, op: str, left: ExprNode, right: ExprNode):
        set_field(self, "op", op)
        set_field(self, "left", left)
        set_field(self, "right", right)


class BoolLiteral(FrozenRecord):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        set_field(self, "value", value)


# The node types of a parsed tree; ``ExprNode`` in annotations is any of them.
ExprNode = (Number, Constant, Symbol, Unary, Binary, Call, Piecewise,
            Comparison, BoolLiteral)


# --------------------------------------------------------------- tokenizer ----

# One alternative per token kind, tried in order at each position; every
# character is whitespace or matched by ``bad``, so the scan never skips one.
# Digits and letters are ASCII only: ``[0-9]``, not ``\d``.
_TOKEN_RE = re.compile(r"""
    (?P<space>\s+)
  | (?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>\*\*|[<>=]=|[-+*/(),<>=])
  | (?P<bad>\S)
""", re.VERBOSE)

_BAD_CHARACTERS = {
    ".": "attribute access ('.') is not part of the language",
    **dict.fromkeys("\"'", "string literals are not part of the language"),
    **dict.fromkeys("[]", "indexing is not part of the language"),
}


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    """Return (kind, value, position) triples; kind in {num, name, op}."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        kind, value = match.lastgroup, match.group()
        if kind == "num":
            number = float(value)
            if math.isinf(number):  # float() overflows to inf without raising
                raise ParseError(pos, f"number {value!r} is out of range")
            tokens.append((kind, number, pos))
        elif kind == "name":
            if "__" in value:
                raise DisallowedSyntax(f"double-underscore identifier {value!r}")
            if value in _RESERVED:
                raise DisallowedSyntax(f"reserved word {value!r}")
            tokens.append((kind, value, pos))
        elif kind == "op":
            tokens.append((kind, "=" if value == "==" else value, pos))
        elif kind == "bad":
            raise DisallowedSyntax(_BAD_CHARACTERS.get(
                value, f"character {value!r} is not part of the language"))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0  # parse_factor calls now open

    # -- token helpers ------------------------------------------------------
    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ParseError(len(self.text), "unexpected end of input")
        self.pos += 1
        return tok

    def _expect_op(self, op: str):
        tok = self._next()
        if tok[0] != "op" or tok[1] != op:
            raise ParseError(tok[2], f"expected {op!r}, found {tok[1]!r}")

    def _at_op(self, *ops) -> bool:
        tok = self._peek()
        return tok is not None and tok[0] == "op" and tok[1] in ops

    # -- grammar ------------------------------------------------------------
    def parse_expr(self) -> ExprNode:
        node = self.parse_term()
        while self._at_op("+", "-"):
            op = self._next()[1]
            node = Binary(op, node, self.parse_term())
        return node

    def parse_term(self) -> ExprNode:
        node = self.parse_factor()
        while self._at_op("*", "/"):
            op = self._next()[1]
            node = Binary(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> ExprNode:
        """Every recursion of the parser passes through here."""
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ParseError(self.tokens[self.pos - 1][2],
                             f"expression nested deeper than {MAX_NESTING} levels")
        if self._at_op("-"):
            self._next()
            node = Unary("-", self.parse_factor())
        elif self._at_op("+"):
            tok = self._next()
            raise ParseError(tok[2], "unary '+' is not supported")
        else:
            node = self.parse_power()
        self.nesting -= 1
        return node

    def parse_power(self) -> ExprNode:
        base = self.parse_atom()
        if self._at_op("**"):
            self._next()
            return Binary("**", base, self.parse_factor())
        return base

    def parse_atom(self) -> ExprNode:
        tok = self._next()
        kind, value, pos = tok
        if kind == "num":
            return Number(value)
        if kind == "name":
            if value == "True":
                raise ParseError(pos, "'True' is only valid as a condition")
            if self._at_op("("):
                return self.parse_call(value, pos)
            if value in CONSTANTS:
                return Constant(value)
            return Symbol(value)
        if kind == "op" and value == "(":
            node = self.parse_expr()
            self._expect_op(")")
            return node
        raise ParseError(pos, f"unexpected token {value!r}")

    def parse_call(self, func: str, pos: int) -> ExprNode:
        if func not in ALLOWED_FUNCTIONS:
            raise DisallowedFunction(func)
        self._expect_op("(")
        if func == "Piecewise":
            branches = [self.parse_piece()]
            while self._at_op(","):
                self._next()
                branches.append(self.parse_piece())
            self._expect_op(")")
            return Piecewise(tuple(branches))
        args = [self.parse_expr()]
        while self._at_op(","):
            self._next()
            args.append(self.parse_expr())
        self._expect_op(")")
        arity = {"atan2": (2, 2), "Min": (2, None), "Max": (2, None)}.get(func, (1, 1))
        low, high = arity
        if len(args) < low or (high is not None and len(args) > high):
            raise ParseError(pos, f"{func} takes {low if high == low else f'{low}+'}"
                                  f" argument(s), got {len(args)}")
        return Call(func, tuple(args))

    def parse_piece(self) -> tuple:
        self._expect_op("(")
        value = self.parse_expr()
        self._expect_op(",")
        condition = self.parse_condition_inner()
        self._expect_op(")")
        return (value, condition)

    def parse_condition_inner(self) -> ExprNode:
        tok = self._peek()
        if tok is not None and tok[0] == "name" and tok[1] == "True":
            self._next()
            return BoolLiteral(True)
        left = self.parse_expr()
        tok = self._next()
        if tok[0] != "op" or tok[1] not in (">", ">=", "<", "<=", "="):
            raise ParseError(tok[2], f"expected a comparison operator, found {tok[1]!r}")
        right = self.parse_expr()
        return Comparison(tok[1], left, right)

    def _finish(self, node: ExprNode) -> ExprNode:
        tok = self._peek()
        if tok is not None:
            raise ParseError(tok[2], f"unexpected trailing token {tok[1]!r}")
        level, depth = [node], 0  # breadth-first: a long sum is a deep tree
        while level:
            depth += 1
            if depth > MAX_NESTING:
                raise ParseError(
                    0, f"expression nested deeper than {MAX_NESTING} levels")
            level = [child for n in level for child in _children(n)]
        return node


def parse(text: str) -> ExprNode:
    """Parse a value expression."""
    if not text or not text.strip():
        raise ParseError(0, "empty expression")
    p = _Parser(text)
    return p._finish(p.parse_expr())


def parse_condition(text: str) -> ExprNode:
    """Parse a condition: ``True`` or a single comparison."""
    if not text or not text.strip():
        raise ParseError(0, "empty condition")
    p = _Parser(text)
    return p._finish(p.parse_condition_inner())


def _children(node: ExprNode) -> tuple:
    """The operands of ``node``, Piecewise conditions included."""
    if isinstance(node, Unary):
        return (node.operand,)
    if isinstance(node, (Binary, Comparison)):
        return (node.left, node.right)
    if isinstance(node, Call):
        return node.args
    if isinstance(node, Piecewise):
        return sum(node.branches, ())
    return ()


# ----------------------------------------------------------------- printer ----

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "**": 4}


def to_text(node: ExprNode) -> str:
    """Render a parseable text form; parse(to_text(n)) is structurally n."""
    return _print(node, 0)


def _print(node: ExprNode, min_prec: int) -> str:
    if isinstance(node, Number):
        text = repr(node.value)
        return text[:-2] if text.endswith(".0") else text
    if isinstance(node, Constant):
        return node.name
    if isinstance(node, Symbol):
        return node.name
    if isinstance(node, BoolLiteral):
        return "True"
    if isinstance(node, Unary):
        inner = "-" + _print(node.operand, 4)
        return f"({inner})" if min_prec > 3 else inner
    if isinstance(node, Binary):
        prec = _PREC[node.op]
        if node.op == "**":
            text = _print(node.left, 5) + "**" + _print(node.right, 3)
        else:
            sep = f" {node.op} " if node.op in ("+", "-") else node.op
            text = _print(node.left, prec) + sep + _print(node.right, prec + 1)
        return f"({text})" if prec < min_prec else text
    if isinstance(node, Call):
        return f"{node.func}({', '.join(_print(a, 0) for a in node.args)})"
    if isinstance(node, Piecewise):
        pieces = ", ".join(
            f"({_print(v, 0)}, {_print(c, 0)})" for v, c in node.branches
        )
        return f"Piecewise({pieces})"
    if isinstance(node, Comparison):
        return f"{_print(node.left, 1)} {node.op} {_print(node.right, 1)}"
    raise TypeError(f"not an ExprNode: {node!r}")


# ------------------------------------------------------------ free symbols ----

def free_symbols(node: ExprNode) -> set[str]:
    """All Symbol names in the tree, including Piecewise conditions."""
    out: set[str] = set()
    _collect(node, out)
    return out


def _collect(node: ExprNode, out: set) -> None:
    if isinstance(node, Symbol):
        out.add(node.name)
    for child in _children(node):
        _collect(child, out)


# --------------------------------------------------------------- evaluator ----

def _cot(x: float) -> float:
    s = math.sin(x)
    if s == 0.0:
        raise MathDomain(f"cot undefined at {x!r}")
    return math.cos(x) / s


def _log(x: float) -> float:
    if x <= 0.0:
        raise MathDomain(f"log of non-positive value {x!r}")
    return math.log(x)


def _sqrt(x: float) -> float:
    if x < 0.0:
        raise MathDomain(f"sqrt of negative value {x!r}")
    return math.sqrt(x)


_FUNCTIONS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "cot": _cot,
    "asin": math.asin, "acos": math.acos, "atan": math.atan,
    "atan2": math.atan2, "exp": math.exp, "log": _log, "sqrt": _sqrt,
    "Abs": abs, "Min": min, "Max": max,
}


def evaluate(node: ExprNode, env: Mapping[str, float]) -> float:
    """Deterministic IEEE-754 evaluation of ``node`` under ``env``.

    Piecewise takes the first branch whose condition holds. Domain faults
    (division by zero, log of non-positive, inverse trig out of range,
    overflow in ``**`` or a function call) raise MathDomain rather than
    leaking host exceptions. ``+``, ``-``, ``*`` and ``/`` follow IEEE-754
    and overflow to an infinity without raising, so the result may be
    non-finite; the engine rejects such a step with NonFiniteValue.
    A caller that evaluates one tree many times compiles it once instead.
    """
    return compile_expr(node)(env)


def compile_expr(node: ExprNode) -> Callable[[Mapping[str, float]], float]:
    """``node`` as nested closures: ``compile_expr(node)(env)`` is the value.

    Each closure evaluates its operands left to right and raises the
    errors ``evaluate`` documents; a MathDomain message is built from the
    captured node only when it is raised.
    """
    if isinstance(node, (Number, BoolLiteral)):
        value = node.value
        return lambda env: value
    if isinstance(node, Constant):
        value = CONSTANTS[node.name]
        return lambda env: value
    if isinstance(node, Symbol):
        name = node.name

        def symbol(env):
            try:
                return env[name]
            except KeyError:
                raise UnboundSymbol(name) from None
        return symbol
    if isinstance(node, Unary):
        operand = compile_expr(node.operand)
        return lambda env: -operand(env)
    if isinstance(node, Binary):
        return _compile_binary(node, compile_expr(node.left),
                               compile_expr(node.right))
    if isinstance(node, Call):
        return _compile_call(node.func, [compile_expr(a) for a in node.args])
    if isinstance(node, Piecewise):
        branches = tuple((compile_expr(value), compile_expr(condition))
                         for value, condition in node.branches)

        def piecewise(env):
            for value, condition in branches:
                if condition(env):
                    return value(env)
            raise NoBranchTaken()
        return piecewise
    if isinstance(node, Comparison):
        left, right = compile_expr(node.left), compile_expr(node.right)
        compare = _COMPARE[node.op]
        return lambda env: compare(left(env), right(env))
    raise TypeError(f"not an ExprNode: {node!r}")


_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt,
            "<=": operator.le, "=": operator.eq}


def _compile_binary(node: Binary, left, right):
    """The closure of one binary operation on floats, as every env value,
    param default and number literal is. Float ``+ - * /`` never raise: they
    round to an infinity, which the engine rejects as a non-finite step. So
    ``/`` only checks for a zero divisor, and only ``**`` catches errors."""
    op = node.op
    if op == "/":
        def binary(env):
            a, b = left(env), right(env)
            if b == 0.0:
                raise MathDomain(f"division by zero in {to_text(node)}")
            return a / b
        return binary
    if op == "**":
        def binary(env):
            a, b = left(env), right(env)
            try:
                result = a ** b
            except ZeroDivisionError:
                raise MathDomain(
                    f"zero raised to negative power in {to_text(node)}") from None
            except OverflowError:
                raise MathDomain(f"overflow in {to_text(node)}") from None
            if isinstance(result, complex):
                raise MathDomain(f"complex result in {to_text(node)}")
            return result
        return binary
    apply = {"+": operator.add, "-": operator.sub, "*": operator.mul}[op]
    return lambda env: apply(left(env), right(env))


def _compile_call(func: str, args: list):
    fn = _FUNCTIONS[func]

    def call(env):
        values = [arg(env) for arg in args]
        try:
            return fn(*values)
        except ValueError as exc:
            raise MathDomain(f"{func}: {exc}") from None
        except OverflowError:
            raise MathDomain(f"overflow in {func}") from None
    return call
