"""Method card data model, JSON loading, and load-time validation.

Each record has one field table (``CARD_FIELDS``, ``VARIABLE_FIELDS``,
``VARIANT_FIELDS``, ``EQUATION_FIELDS``, ``SOURCE_FIELDS``): ``read_record``
reads it, refusing an unknown key, and ``MethodCard.to_dict`` writes it.

A card that loads without error is safe to hand to the engine: every
expression has parsed against the allowlist, every symbol is a declared
variable, every unit resolves in the registry, structural rules (roles,
defaults, variant coverage, one equation per target) have been checked, and
each variant carries its evaluation plan (see ``_plan``). A conditional
formula is one ``Piecewise`` equation; an equation-level ``condition`` is
rejected. A loaded card also carries what every evaluation would otherwise
rediscover: each equation compiled to closures, its literal subtrees
folded (``EquationSpec.compiled``), the registry ``Unit`` of each variable
(``MethodCard.units``), and its input keys, param defaults and output keys.
Dimensional consistency is a separate pass — ``validate_dimensions`` —
that reports findings rather than raising, so a validator CLI can list
every problem in one run.
"""

from __future__ import annotations

import json
import re
import sys

from . import expression as ex
from .errors import DuplicateKey, SchemaError, UndeclaredSymbol, UnresolvedVariable
from .record import FrozenRecord
from .units import Dimension, DIMENSIONLESS, Unit, default_registry

ROLES = ("input", "output", "intermediate", "param")

_ID_RE = re.compile(r"[A-Z][A-Z0-9_]*")
_KEY_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class VariableSpec(FrozenRecord):
    __slots__ = ("key", "name", "role", "unit", "description", "default")
    _defaults = {"description": None, "default": None}


class EquationSpec(FrozenRecord):
    """One equation, with what its evaluation needs: the parsed ``expr``,
    its ``symbols`` (sorted) and its closures (``compiled``)."""

    __slots__ = ("target", "sympy", "description", "expr", "symbols", "compiled")
    _hidden = ("expr", "symbols", "compiled")
    _defaults = {"description": None, "expr": None, "symbols": (), "compiled": None}


class VariantSpec(FrozenRecord):
    """One variant and its plan: its equations, in the order they run.

    ``direct`` equations are evaluated once each; ``iterative`` equations'
    targets form a dependency cycle, or depend on one, and are solved
    together by fixed-point iteration after every direct equation.
    """

    __slots__ = ("id", "title", "equations", "direct", "iterative")
    _hidden = ("direct", "iterative")
    _defaults = {"direct": (), "iterative": ()}


class Source(FrozenRecord):
    __slots__ = ("title", "url")
    _defaults = {"url": None}


class MethodCard(FrozenRecord):
    """A loaded card. Besides its fields, it holds what every evaluation
    would otherwise rediscover: the registry ``Unit`` of each variable
    (``units``), the input keys, the param defaults (key -> float) and the
    output keys in declared order; and ``trace_templates``, the engine's
    writer (a template and what fills it) of each variant's trace per set
    of override keys, and of each EC7 check or design body around it,
    built on its first ``to_json``."""

    __slots__ = ("id", "title", "category", "description", "variables",
                 "variants", "assumptions", "applicability", "sources",
                 "units", "input_keys", "param_defaults", "output_keys",
                 "trace_templates")
    _hidden = ("units", "input_keys", "param_defaults", "output_keys",
               "trace_templates")

    # Its own __init__: each card gets a fresh template memo.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs, trace_templates={})

    def variant(self, variant_id: str):
        for var in self.variants:
            if var.id == variant_id:
                return var
        return None

    def to_dict(self) -> dict:
        """JSON-ready form; load_card(json.dumps(card.to_dict())) == card."""
        return _write(self, CARD_FIELDS)


# ------------------------------------------------------------- field tables ----
#
# A table maps each field of a record to (kind, required), in the order
# to_dict writes them. A kind, ``kind(value, path, name)``, reads the JSON
# value of a present field, null included, into what the record holds, and
# formats its path ``{path}.{name}`` only to raise; ABSENT means the value
# counts as absent. A dict kind is the table of a list of records.

ABSENT = object()


def read_record(obj, fields: dict, path: str) -> dict:
    """The fields of the JSON object ``obj`` at ``path``, read against the
    table ``fields``: a key the table lacks is refused first, and a field
    absent from ``obj``, or read as ABSENT, is absent from the result."""
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected object")
    for key in obj:
        if key not in fields:
            raise SchemaError(f"{path}.{key}", "unknown field")
    values = {}
    for name, (kind, required) in fields.items():
        if name not in obj:
            value = ABSENT
        elif isinstance(kind, dict):
            at = f"{path}.{name}"
            value = tuple(read_record(entry, kind, f"{at}[{i}]")
                          for i, entry in enumerate(_LIST(obj[name], path, name)))
        else:
            value = kind(obj[name], path, name)
        if value is not ABSENT:
            values[name] = value
        elif required:
            raise SchemaError(f"{path}.{name}", "missing required field")
    return values


def decode_record(json_text: str, what: str) -> dict:
    """The JSON object in ``json_text``, a ``what``, for ``read_record``."""
    try:
        raw = json.loads(json_text)
    except (ValueError, RecursionError) as exc:  # too deep, or an int over 4300 digits
        raise SchemaError("$", f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise SchemaError("$", f"{what} must be a JSON object")
    return raw


def _write(record, fields: dict) -> dict:
    """``record`` as JSON-ready data, field by field; a field whose value
    is None, or that the record does not hold, is left out."""
    out = {}
    for name, (kind, _) in fields.items():
        value = getattr(record, name, None)
        if isinstance(kind, dict):
            out[name] = [_write(entry, kind) for entry in value]
        elif value is not None:
            out[name] = list(value) if isinstance(value, tuple) else value
    return out


def instance_of(cls):
    """The kind of a field whose value must be a ``cls``."""
    def read(value, path, name):
        if not isinstance(value, cls):
            raise SchemaError(f"{path}.{name}", f"expected {cls.__name__}, "
                              f"got {type(value).__name__}")
        return value
    return read


def _text(value, path, name):
    """An optional string; null is absent."""
    if value is None:
        return ABSENT
    if not isinstance(value, str):
        raise SchemaError(f"{path}.{name}", "expected string")
    return value


def _number(value, path, name):
    """A finite number; null is absent."""
    if value is None:
        return ABSENT
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SchemaError(f"{path}.{name}",
                          f"expected a number, got {type(value).__name__}")
    if not abs(value) <= sys.float_info.max:  # NaN, infinity or a huge int
        raise SchemaError(f"{path}.{name}", "expected a finite number")
    return float(value)


def _strings(value, path, name):
    if not isinstance(value, list) or any(not isinstance(s, str) for s in value):
        raise SchemaError(f"{path}.{name}", "expected a list of strings")
    return tuple(value)


def _condition(value, path, name):
    """The retired equation-level condition: only null is accepted."""
    if value is not None:
        raise SchemaError(f"{path}.{name}", "equation conditions are not supported; "
                          "write one Piecewise((a, c1), (b, c2), (fallback, True)) "
                          "equation for the target")
    return ABSENT


_STR, _LIST = instance_of(str), instance_of(list)

VARIABLE_FIELDS = {"key": (_STR, True), "name": (_STR, True),
                   "role": (_STR, True), "unit": (_STR, True),
                   "description": (_text, False), "default": (_number, False)}

EQUATION_FIELDS = {"target": (_STR, True), "sympy": (_STR, True),
                   "description": (_text, False),
                   "condition": (_condition, False)}

VARIANT_FIELDS = {"id": (_STR, True), "title": (_STR, True),
                  "equations": (EQUATION_FIELDS, True)}

SOURCE_FIELDS = {"title": (_STR, True), "url": (_text, False)}

CARD_FIELDS = {"id": (_STR, True), "title": (_STR, True),
               "category": (_STR, True), "description": (_STR, True),
               "variables": (VARIABLE_FIELDS, True),
               "variants": (VARIANT_FIELDS, True),
               "assumptions": (_strings, False),
               "applicability": (_strings, False),
               "sources": (SOURCE_FIELDS, True)}


# ------------------------------------------------------------------ loading ----

def load_card(json_text: str) -> MethodCard:
    """Deserialize and fully validate one method card."""
    raw = read_record(decode_record(json_text, "card"), CARD_FIELDS, "$")
    card_id = raw["id"]
    if not _ID_RE.fullmatch(card_id):
        raise SchemaError("$.id", f"{card_id!r} is not UPPER_SNAKE")

    # Variables
    units: dict[str, Unit] = {}
    for i, entry in enumerate(raw["variables"]):
        path = f"$.variables[{i}]"
        key, role = entry["key"], entry["role"]
        if not _KEY_RE.fullmatch(key):
            raise SchemaError(f"{path}.key", f"{key!r} is not a valid symbol")
        if (key in ex.CONSTANTS or key == "True" or key in ex.ALLOWED_FUNCTIONS
                or key in ex._RESERVED or "__" in key):
            raise SchemaError(f"{path}.key", f"{key!r} is a reserved name")
        if key in units:
            raise DuplicateKey(key, f"variables of card {card_id}")
        if role not in ROLES:
            raise SchemaError(f"{path}.role", f"{role!r} not one of {ROLES}")
        units[key] = default_registry().resolve(entry["unit"])  # raises UnknownUnit
        if role == "param" and "default" not in entry:
            raise SchemaError(f"{path}.default", f"param {key!r} requires a default")
        if role != "param" and "default" in entry:
            raise SchemaError(f"{path}.default", f"role {role!r} forbids a default")
    variables = tuple(VariableSpec(**entry) for entry in raw["variables"])
    roles = {v.key: v.role for v in variables}
    given = {k for k, role in roles.items() if role in ("input", "param")}
    assignable = {k for k, role in roles.items() if role in ("output", "intermediate")}
    outputs = {k for k, role in roles.items() if role == "output"}

    # Variants
    if not raw["variants"]:
        raise SchemaError("$.variants", "card must declare at least one variant")
    variants: list[VariantSpec] = []
    for i, entry in enumerate(raw["variants"]):
        path = f"$.variants[{i}]"
        vid = entry["id"]
        if any(v.id == vid for v in variants):
            raise DuplicateKey(vid, f"variants of card {card_id}")
        by_target: dict[str, EquationSpec] = {}
        for j, eq in enumerate(entry["equations"]):
            eq_path = f"{path}.equations[{j}]"
            target = eq["target"]
            if target not in roles:
                raise UndeclaredSymbol(target, target)
            if target not in assignable:
                raise SchemaError(f"{eq_path}.target",
                                  f"{target!r} has role {roles[target]!r}; "
                                  "equation targets must be output or intermediate")
            if target in by_target:
                raise SchemaError(f"{eq_path}.target",
                                  f"{target!r} has more than one equation")
            expr = ex.parse(eq["sympy"])  # ParseError/Disallowed* propagate
            symbols = ex.free_symbols(expr)
            for symbol in symbols:
                if symbol not in roles:
                    raise UndeclaredSymbol(target, symbol)
            by_target[target] = EquationSpec(
                **eq, expr=expr, symbols=tuple(sorted(symbols)),
                compiled=ex.compile_expr(expr))
        missing = outputs - by_target.keys()
        if missing:
            raise SchemaError(f"{path}.equations",
                              f"output(s) {sorted(missing)} have no equation in "
                              f"variant {vid!r}")
        direct, iterative = _plan(vid, by_target, given)
        variants.append(VariantSpec(id=vid, title=entry["title"],
                                    equations=tuple(by_target.values()),
                                    direct=direct, iterative=iterative))

    if not raw["sources"]:
        raise SchemaError("$.sources", "sources must be non-empty")

    return MethodCard(
        id=card_id, title=raw["title"], category=raw["category"],
        description=raw["description"], variables=variables,
        variants=tuple(variants), assumptions=raw.get("assumptions", ()),
        applicability=raw.get("applicability", ()),
        sources=tuple(Source(**entry) for entry in raw["sources"]), units=units,
        input_keys=frozenset(k for k, role in roles.items() if role == "input"),
        param_defaults={v.key: v.default for v in variables if v.role == "param"},
        output_keys=tuple(k for k, role in roles.items() if role == "output"),
    )


def _plan(variant_id: str, equations: dict[str, EquationSpec],
          given: set) -> tuple[tuple, tuple]:
    """Split a variant's equations (target -> equation, in listed order)
    into direct steps and an iterated block.

    Repeated passes over the equations in listed order: one is ready once
    every symbol it uses is bound (for a Piecewise, those of every branch
    and condition, taken or not), and its target binds at once, so later
    equations of the same pass may use it. Equations never ready form a
    cycle or depend on one; each of their symbols must still be given or
    produced by some equation, otherwise the variant can never be
    evaluated (UnresolvedVariable).
    """
    bound = set(given)
    direct: list[EquationSpec] = []
    progress = True
    while progress:
        progress = False
        for target, eq in equations.items():
            if target not in bound and bound.issuperset(eq.symbols):
                direct.append(eq)
                bound.add(target)
                progress = True
    iterative = tuple(eq for t, eq in equations.items() if t not in bound)
    producible = bound | equations.keys()
    for eq in iterative:
        unmet = set(eq.symbols) - producible
        if unmet:
            raise UnresolvedVariable(sorted(unmet)[0], variant_id, eq.target)
    return tuple(direct), iterative


# ------------------------------------------------------- dimensional audit ----

class DimensionFinding(FrozenRecord):
    __slots__ = ("variant_id", "target", "message")

    def __str__(self) -> str:
        return f"[{self.variant_id}] {self.target}: {self.message}"


_TRANSCENDENTAL = frozenset({"sin", "cos", "tan", "cot", "asin", "acos",
                             "atan", "exp", "log"})


def _mix(d1: Dimension, d2: Dimension) -> Dimension | None:
    """The dimension of an additive mix of ``d1`` and ``d2``, or None when
    they do not mix.

    Equal dimensions mix. Angle is a pseudo-dimension: ``pi/4 + phi/2`` and
    ``phi > 0`` are legitimate card algebra even though pi/4 and 0 are bare
    numbers, so angle and dimensionless mix in additive and comparison
    positions, and angle wins. Conversion (units.convert) stays strict.
    """
    if d1 == d2:
        return d1
    if d1.is_angle_like() and d2.is_angle_like():
        return d2 if d1.is_dimensionless() else d1
    return None


def _is_zero(node: ex.ExprNode) -> bool:
    """A literal 0, negated or not: in ``+``, ``-``, a comparison, ``Min``,
    ``Max``, ``atan2`` or a Piecewise branch it takes the dimension of what
    it is mixed with, so ``Max(B, 0)`` and ``B > 0`` are lengths' algebra."""
    while isinstance(node, ex.Unary):
        node = node.operand
    return isinstance(node, ex.Number) and node.value == 0


def _dim(node: ex.ExprNode, dims: dict, report) -> Dimension | None:
    """The dimension of ``node``, variables' taken from ``dims``; None once
    ``report`` has been called with a finding below it."""
    if isinstance(node, ex.Symbol):
        return dims[node.name]
    if isinstance(node, (ex.Number, ex.Constant, ex.BoolLiteral)):
        return DIMENSIONLESS
    if isinstance(node, ex.Unary):
        return _dim(node.operand, dims, report)
    if isinstance(node, ex.Comparison):
        left, right = _dim(node.left, dims, report), _dim(node.right, dims, report)
        if (left is not None and right is not None and not _is_zero(node.left)
                and not _is_zero(node.right) and _mix(left, right) is None):
            report(f"comparison mixes {left} and {right} in {ex.to_text(node)}")
        return DIMENSIONLESS
    if isinstance(node, ex.Piecewise):
        result, zero = None, False
        for value, condition in node.branches:
            _dim(condition, dims, report)
            d = _dim(value, dims, report)
            if d is None:
                continue
            if _is_zero(value):
                zero = True
                continue
            mixed = d if result is None else _mix(result, d)
            if mixed is None:
                report(f"Piecewise branches mix {result} and {d}")
                return None
            result = mixed
        return DIMENSIONLESS if result is None and zero else result
    if isinstance(node, ex.Binary):
        left, right = _dim(node.left, dims, report), _dim(node.right, dims, report)
        if left is None or right is None:
            return None
        if node.op in ("+", "-"):
            if _is_zero(node.left) or _is_zero(node.right):
                return right if _is_zero(node.left) else left
            mixed = _mix(left, right)
            if mixed is None:
                report(f"cannot {('add', 'subtract')[node.op == '-']} "
                       f"{left} and {right} in {ex.to_text(node)}")
            return mixed
        if node.op == "*":
            return left * right
        if node.op == "/":
            return left / right
        # ** : dimensionless base stays dimensionless; a dimensioned base
        # needs a literal exponent, negated or not, to give a typed result.
        if left.is_dimensionless():
            if right.is_dimensionless():
                return DIMENSIONLESS
            report(f"exponent has dimension {right} in {ex.to_text(node)}")
            return None
        exponent, sign = node.right, 1
        if isinstance(exponent, ex.Unary):
            exponent, sign = exponent.operand, -1
        if not isinstance(exponent, ex.Number):
            report(f"dimensioned base requires a numeric literal exponent "
                   f"in {ex.to_text(node)}")
            return None
        # Dimension.__pow__ rounds to a fraction; the literal must be one.
        from fractions import Fraction  # off the catalog's import path
        if float(Fraction(exponent.value).limit_denominator(1000)) != exponent.value:
            report(f"exponent {ex.to_text(exponent)} is not a fraction with "
                   f"denominator at most 1000 in {ex.to_text(node)}")
            return None
        return left ** (sign * exponent.value)
    if isinstance(node, ex.Call):
        args = [_dim(a, dims, report) for a in node.args]
        if any(d is None for d in args):
            return None
        if node.func in _TRANSCENDENTAL:  # each takes one argument
            if not args[0].is_angle_like():
                report(f"{node.func} argument {ex.to_text(node.args[0])} has "
                       f"dimension {args[0]}; needs angle or dimensionless")
                return None
            return DIMENSIONLESS
        if node.func == "sqrt":
            return args[0] ** 0.5
        if node.func == "Abs":
            return args[0]
        # atan2, Min and Max: the arguments that are not a literal 0 mix
        args = [d for a, d in zip(node.args, args) if not _is_zero(a)] or args
        result = args[0]
        for d in args[1:]:
            mixed = _mix(result, d)
            if mixed is None:
                report(f"atan2 arguments have dimensions {result} and {d}"
                       if node.func == "atan2"
                       else f"{node.func} arguments mix {result} and {d}")
                return None
            result = mixed
        return DIMENSIONLESS if node.func == "atan2" else result
    raise TypeError(f"not an ExprNode: {node!r}")


def validate_dimensions(card: MethodCard) -> list[DimensionFinding]:
    """Unit-dimension audit of every equation in every variant.

    Numeric literals count as dimensionless (published formulas embed
    dimensionless empirical constants); a literal standing in for a
    dimensional constant is a card-authoring error this pass cannot see.
    """
    dims = {key: unit.dimension for key, unit in card.units.items()}
    findings: list[DimensionFinding] = []
    for variant in card.variants:
        for eq in variant.equations:
            report = lambda message: findings.append(
                DimensionFinding(variant.id, eq.target, message))
            result = _dim(eq.expr, dims, report)
            target = dims[eq.target]
            if result is not None and _mix(result, target) is None:
                report(f"expression has dimension {result}, target declares {target}")
    return findings
