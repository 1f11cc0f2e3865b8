"""The card equation language: tokenizer, parser, printer, evaluator.

This is a closed, allowlisted expression grammar — not a Python subset.
There is no attribute access, no indexing, no strings, no statement forms,
and only the functions named in ALLOWED_FUNCTIONS can be called, so a
hostile card can at worst fail to parse. The tokenizer is one regex, whose
last alternative rejects any character no token takes. Evaluation never
touches ``eval()``, ``exec()``, ``compile()`` or any other host-language
execution path: ``compile_expr`` turns the parsed tree into nested Python
closures that apply ``math`` primitives. Each node compiles to one part:
a symbol, a literal or a sub-closure. Each inner node costs one closure
call, picked at load from its operands' kinds: for a pair of kinds that a
bundled card compiles, it reads a symbol inline as ``env[name]`` and holds
a literal as a value; it calls the closure of any other operand. A
subtree that reads no symbol and evaluates without raising (``pi/4``) is
folded to its value by running its closure once; one that raises
(``1/0``) is kept, to raise when it is evaluated.
``cards.load_card`` builds the closures once per equation, so an
evaluation walks no tree.

Grammar (infix, standard precedence; ``**`` is right-associative and binds
tighter than unary minus):

    condition := "True" | expr cmp expr          cmp: > >= < <= = ==
    expr      := term (("+" | "-") term)*
    term      := factor (("*" | "/") factor)*
    factor    := "-" factor | atom ["**" factor]
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
from .record import FrozenRecord

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


class Constant(FrozenRecord):
    __slots__ = ("name",)  # "pi" | "e"


class Symbol(FrozenRecord):
    __slots__ = ("name",)


class Unary(FrozenRecord):
    __slots__ = ("op", "operand")  # op: "-"


class Binary(FrozenRecord):
    __slots__ = ("op", "left", "right")  # op: + - * / **


class Call(FrozenRecord):
    __slots__ = ("func", "args")  # args: a tuple of nodes


class Piecewise(FrozenRecord):
    __slots__ = ("branches",)  # ((value, condition), ...)


class Comparison(FrozenRecord):
    __slots__ = ("op", "left", "right")  # op: > >= < <= =


class BoolLiteral(FrozenRecord):
    __slots__ = ("value",)


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
        # the end token stands for "no token left", at the position after the text
        self.tokens = _tokenize(text) + [("end", None, len(text))]
        self.pos = 0
        self.nesting = 0  # parse_factor calls now open

    # -- token helpers ------------------------------------------------------
    def _next(self):
        tok = self.tokens[self.pos]
        if tok[0] == "end":
            raise ParseError(tok[2], "unexpected end of input")
        self.pos += 1
        return tok

    def _expect_op(self, op: str):
        tok = self._next()
        if tok[0] != "op" or tok[1] != op:
            raise ParseError(tok[2], f"expected {op!r}, found {tok[1]!r}")

    def _at_op(self, *ops) -> bool:
        tok = self.tokens[self.pos]
        return tok[0] == "op" and tok[1] in ops

    # -- grammar ------------------------------------------------------------
    def parse_expr(self) -> ExprNode:
        """A sum of terms, each a product of factors, both folded to the
        left in one loop: ``term`` is the product being read, and ``node``
        the sum before it, which takes ``term`` under ``op``."""
        node = op = None
        term = self.parse_factor()
        while self._at_op("+", "-", "*", "/"):
            next_op = self._next()[1]
            if next_op in ("*", "/"):
                term = Binary(next_op, term, self.parse_factor())
                continue
            node = term if op is None else Binary(op, node, term)
            op, term = next_op, self.parse_factor()
        return term if op is None else Binary(op, node, term)

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
            raise ParseError(self._next()[2], "unary '+' is not supported")
        else:
            node = self.parse_atom()
            if self._at_op("**"):
                self._next()
                node = Binary("**", node, self.parse_factor())
        self.nesting -= 1
        return node

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
        tok = self.tokens[self.pos]
        if tok[0] == "name" and tok[1] == "True":
            self._next()
            return BoolLiteral(True)
        left = self.parse_expr()
        tok = self._next()
        if tok[0] != "op" or tok[1] not in (">", ">=", "<", "<=", "="):
            raise ParseError(tok[2], f"expected a comparison operator, found {tok[1]!r}")
        right = self.parse_expr()
        return Comparison(tok[1], left, right)

    def _finish(self, node: ExprNode) -> ExprNode:
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            raise ParseError(tok[2], f"unexpected trailing token {tok[1]!r}")
        for depth, _ in enumerate(_levels(node), 1):
            if depth > MAX_NESTING:
                raise ParseError(
                    0, f"expression nested deeper than {MAX_NESTING} levels")
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


def _levels(node: ExprNode):
    """The nodes of the tree, one list per level, breadth-first: a long sum
    is a deep tree, and no walk over it recurses."""
    level = [node]
    while level:
        yield level
        level = [child for n in level for child in _children(n)]


# ----------------------------------------------------------------- printer ----

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "**": 4}


def to_text(node: ExprNode) -> str:
    """Render a parseable text form: parse(to_text(n)) is structurally n for
    a tree the parser builds. A negative literal, which it never builds,
    prints as a negation does, so it reads back as one of the same value."""
    return _print(node, 0)


def _print(node: ExprNode, min_prec: int) -> str:
    if isinstance(node, Number):
        text = repr(node.value)
        text = text[:-2] if text.endswith(".0") else text
        return f"({text})" if min_prec > 3 and text[0] == "-" else text
    if isinstance(node, Constant):
        return node.name
    if isinstance(node, Symbol):
        return node.name
    if isinstance(node, BoolLiteral):
        return "True"
    if isinstance(node, Unary):
        inner = "-" + _print(node.operand, 4)
        return f"({inner})" if min_prec > 4 else inner  # only as a ** base
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
    return {n.name for level in _levels(node) for n in level
            if isinstance(n, Symbol)}


# --------------------------------------------------------------- evaluator ----

def _cot(x: float) -> float:
    s = math.sin(x)
    if s == 0.0:
        raise MathDomain(f"cot undefined at {x!r}")
    return math.cos(x) / s


_FUNCTIONS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "cot": _cot,
    "asin": math.asin, "acos": math.acos, "atan": math.atan,
    "atan2": math.atan2, "exp": math.exp, "log": math.log, "sqrt": math.sqrt,
    "Abs": abs, "Min": min, "Max": max,
}

# The messages of sqrt's and log's ValueError, by their argument.
_DOMAIN_MESSAGES = {"sqrt": "sqrt of negative value {!r}",
                    "log": "log of non-positive value {!r}"}


def _domain(func: str, value: float, exc: Exception) -> MathDomain:
    """The MathDomain of a one-argument call that raised ``exc`` at ``value``."""
    if isinstance(exc, OverflowError):
        return MathDomain(f"overflow in {func}")
    message = _DOMAIN_MESSAGES.get(func)
    return MathDomain(message.format(value) if message else f"{func}: {exc}")


def evaluate(node: ExprNode, env: Mapping[str, float]) -> float:
    """Deterministic IEEE-754 evaluation of ``node`` under ``env``.

    Piecewise takes the first branch whose condition holds. Domain faults
    (division by zero, log of non-positive, inverse trig out of range,
    overflow in ``**`` or a function call) raise MathDomain rather than
    leaking host exceptions (sqrt's and log's messages from a table). A
    NaN that a subexpression computes raises MathDomain as an operand of a
    comparison, Min or Max, or of a ``**`` that would give 1; ``env`` holds
    none. ``+``, ``-``, ``*`` and ``/`` follow IEEE-754
    and overflow to an infinity without raising, so the result may be
    non-finite; the engine rejects such a step with NonFiniteValue.
    A symbol missing from ``env`` raises UnboundSymbol. A caller that
    evaluates one tree many times compiles it once instead.
    """
    fn = compile_expr(node)
    try:
        return fn(env)
    except KeyError as exc:
        raise UnboundSymbol(exc.args[0]) from None


def compile_expr(node: ExprNode) -> Callable[[Mapping[str, float]], float]:
    """``node`` as nested closures: ``compile_expr(node)(env)`` is the value.

    Each closure evaluates its operands left to right and raises the
    errors ``evaluate`` documents; a MathDomain message is built from the
    captured node only when it is raised. An arithmetic operator, a
    comparison or a one-argument call has its closure picked here by its
    operands' kinds, so it tests none when it runs; each node compiles to
    one part (see ``_compile``), and a node whose operands are all
    literals is folded by running its closure once. The
    closures trust ``env`` to bind every symbol of the tree, which
    ``cards.load_card`` proves of each step it plans: a missing symbol
    surfaces as the KeyError of its read.
    """
    return _compile(node)[2]


def _compile(node: ExprNode) -> tuple:
    """``(kind, operand, closure)`` of ``node``, the one form of a compiled
    part, built bottom-up in one pass: ``("s", name, itemgetter)`` for a
    symbol, read inline as ``env[name]`` (alone, the ``itemgetter`` runs no
    Python frame); ``("c", literal, constant closure)`` for a subtree that
    reads no symbol and evaluated here without raising (one that raises is
    left to raise when it is evaluated); else ``("f", closure, closure)``."""
    if isinstance(node, Symbol):
        return "s", node.name, operator.itemgetter(node.name)
    if isinstance(node, Binary):
        left, right = _compile(node.left), _compile(node.right)
        return _fold(_compile_binary(node, left, right), left, right)
    if isinstance(node, (Number, BoolLiteral)):
        return _literal(node.value)
    if isinstance(node, Constant):
        return _literal(CONSTANTS[node.name])
    if isinstance(node, Call):
        args = [_compile(arg) for arg in node.args]
        if node.func in ("Min", "Max"):
            args = [_checked(arg, node) for arg in args]
        return _fold(_compile_call(node.func, args), *args)
    if isinstance(node, Unary):
        operand = _compile(node.operand)
        fn = operand[2]
        return _fold(lambda env: -fn(env), operand)
    if isinstance(node, Piecewise):
        parts = [_compile(part) for part in sum(node.branches, ())]
        closures = [part[2] for part in parts]
        branches = tuple(zip(closures[::2], closures[1::2]))

        def piecewise(env):
            for value, condition in branches:
                if condition(env):
                    return value(env)
            raise NoBranchTaken()
        return _fold(piecewise, *parts)
    if isinstance(node, Comparison):
        left, right = [_checked(_compile(side), node) for side in (node.left, node.right)]
        return _fold(_by_kinds(_COMPARISON, left, right, _COMPARE[node.op]), left, right)
    raise TypeError(f"not an ExprNode: {node!r}")


def _fold(fn, *parts) -> tuple:
    """``("f", fn, fn)``, or the literal of fn's value when every part is
    a literal and fn evaluates without raising to a value other than NaN:
    the one place where literals are combined, by the closure an
    evaluation would run."""
    if all(part[0] == "c" for part in parts):
        try:
            if (value := fn({})) == value:
                return _literal(value)
        except Exception:  # a host error too is raised at evaluation, not here
            pass
    return "f", fn, fn


def _checked(part: tuple, node: ExprNode) -> tuple:
    """``part``, an operand of ``node`` (a comparison, Min or Max), raising
    MathDomain on a NaN if it is a sub-closure: no literal is NaN."""
    if part[0] != "f":
        return part
    fn = part[2]

    def checked(env):
        if (value := fn(env)) != value:
            raise MathDomain(f"NaN operand in {to_text(node)}")
        return value
    return "f", checked, checked


def _literal(value) -> tuple:
    return "c", value, lambda env: value


def _by_kinds(table: dict, left: tuple, right: tuple, *extra):
    """The closure that ``table`` keeps for the kinds of ``left`` and
    ``right``, made on their operands and ``extra``; for a pair it lacks,
    its ``("f", "f")`` closure, made on their closures."""
    make = table.get((left[0], right[0]))
    if make is None:  # each operand read through its closure
        return table["f", "f"](left[2], right[2], *extra)
    return make(left[1], right[1], *extra)


_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt,
            "<=": operator.le, "=": operator.eq}

# The closures of ``+ - *``, one table per operator, keyed by the kinds of
# the left and right operands: a symbol is read as ``env[name]``, a literal
# is a constant, a sub-closure is called. A pair has its own closure only
# where a bundled card compiles it (``tests/test_expression.py`` checks
# that each one is); any other pair, two literals included, is read by
# ``("f", "f")`` (see ``_by_kinds``).
_ARITHMETIC_BY_KINDS = {
    "+": {("s", "c"): lambda a, b: lambda env: env[a] + b,
          ("s", "f"): lambda a, b: lambda env: env[a] + b(env),
          ("c", "f"): lambda a, b: lambda env: a + b(env),
          ("f", "s"): lambda a, b: lambda env: a(env) + env[b],
          ("f", "f"): lambda a, b: lambda env: a(env) + b(env)},
    "-": {("s", "c"): lambda a, b: lambda env: env[a] - b,
          ("c", "f"): lambda a, b: lambda env: a - b(env),
          ("f", "c"): lambda a, b: lambda env: a(env) - b,
          ("f", "f"): lambda a, b: lambda env: a(env) - b(env)},
    "*": {("s", "s"): lambda a, b: lambda env: env[a] * env[b],
          ("c", "s"): lambda a, b: lambda env: a * env[b],
          ("c", "f"): lambda a, b: lambda env: a * b(env),
          ("f", "s"): lambda a, b: lambda env: a(env) * env[b],
          ("f", "f"): lambda a, b: lambda env: a(env) * b(env)},
}

# A comparison's closures, keyed as above; ``compare`` is its operator. A
# symbol against a symbol or a literal, the bundled cards' conditions, reads
# them inline; any other pair reads both operands through their closures.
_COMPARISON = {
    ("s", "s"): lambda a, b, compare: lambda env: compare(env[a], env[b]),
    ("s", "c"): lambda a, b, compare: lambda env: compare(env[a], b),
    ("f", "f"): lambda a, b, compare: lambda env: compare(a(env), b(env)),
}

# The closures of ``/``, keyed and kept as above. A nonzero literal divisor
# needs no zero test; any other divisor is read after the dividend, and
# ``zero()`` raises if it is zero. A zero literal divisor is read as a
# sub-closure, so ``x/0`` raises too.
_DIVIDE_BY_KINDS = {
    ("s", "c"): lambda a, b, zero: lambda env: env[a] / b,
    ("f", "c"): lambda a, b, zero: lambda env: a(env) / b,
    ("s", "s"): lambda a, b, zero: lambda env: env[a] / (
        y if (y := env[b]) != 0.0 else zero()),
    ("f", "f"): lambda a, b, zero: lambda env: a(env) / (
        y if (y := b(env)) != 0.0 else zero()),
}


def _compile_binary(node: Binary, left: tuple, right: tuple):
    """The closure of one binary operation on floats, as every env value,
    param default and number literal is. Float ``+ - * /`` never raise: they
    round to an infinity, which the engine rejects as a non-finite step. So
    ``/`` only checks for a zero divisor, and only ``**`` catches errors."""
    op = node.op
    if op == "/":
        def zero():
            raise MathDomain(f"division by zero in {to_text(node)}")
        if right[:2] == ("c", 0.0):  # a zero literal, read to raise
            right = "f", right[2], right[2]
        return _by_kinds(_DIVIDE_BY_KINDS, left, right, zero)
    if op != "**":
        return _by_kinds(_ARITHMETIC_BY_KINDS[op], left, right)
    (ka, a, f), (kb, b, g) = left, right  # a literal is held as a value
    a, b = a if ka == "c" else None, b if kb == "c" else None

    def binary(env):
        x, y = f(env) if a is None else a, g(env) if b is None else b
        try:
            result = x ** y
        except ZeroDivisionError:
            raise MathDomain(
                f"zero raised to negative power in {to_text(node)}") from None
        except OverflowError:
            raise MathDomain(f"overflow in {to_text(node)}") from None
        if isinstance(result, complex):
            raise MathDomain(f"complex result in {to_text(node)}")
        if result == 1.0 and (x != x or y != y):  # nan**0 or 1**nan
            raise MathDomain(f"NaN operand in {to_text(node)}")
        return result
    return binary


def _compile_call(func: str, args: list):
    """The closure of a call on the compiled parts ``args``; a
    one-argument call reads a symbol argument inline. ``math.atan2``,
    ``min`` and ``max`` raise nothing on floats, so a call of more than
    one argument catches nothing."""
    fn = _FUNCTIONS[func]
    if len(args) == 1:
        kind, name, arg = args[0]
        if kind == "s":
            def call(env):
                try:
                    return fn(env[name])  # a KeyError is no ValueError
                except (ValueError, OverflowError) as exc:
                    raise _domain(func, env[name], exc) from None
            return call

        def call(env):
            value = arg(env)
            try:
                return fn(value)
            except (ValueError, OverflowError) as exc:
                raise _domain(func, value, exc) from None
        return call
    held = [(arg, value if kind == "c" else None) for kind, value, arg in args]

    def call(env):
        return fn(*[arg(env) if value is None else value for arg, value in held])
    return call
