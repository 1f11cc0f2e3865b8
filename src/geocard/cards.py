"""Method card data model, JSON loading, and load-time validation.

A card that loads without error is safe to hand to the engine: every
expression has parsed against the allowlist, every symbol is a declared
variable, every unit resolves in the registry, structural rules (roles,
defaults, variant coverage, one equation per target) have been checked, and
each variant carries its evaluation plan (see ``_plan``). A conditional
formula is one ``Piecewise`` equation; an equation-level ``condition`` is
rejected. A loaded card also carries what every evaluation would otherwise
rediscover: each equation compiled to closures (``EquationSpec.compiled``),
the registry ``Unit`` of each variable (``MethodCard.units``), and its
input keys, param defaults and output keys.
Dimensional consistency is a separate pass — ``validate_dimensions`` —
that reports findings rather than raising, so a validator CLI can list
every problem in one run.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from . import expression as ex
from .errors import DuplicateKey, SchemaError, UndeclaredSymbol, UnresolvedVariable
from .units import Dimension, DIMENSIONLESS, Unit, default_registry

ROLES = ("input", "output", "intermediate", "param")

_ID_RE = re.compile(r"^[A-Z][A-Z0-9_]*$")
_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class VariableSpec:
    key: str
    name: str
    role: str
    unit: str
    description: Optional[str] = None
    default: Optional[float] = None


@dataclass(frozen=True)
class EquationSpec:
    target: str
    sympy: str
    description: Optional[str] = None
    expr: ex.ExprNode = field(compare=False, default=None, repr=False)
    symbols: tuple = field(compare=False, default=(), repr=False)  # sorted, of expr
    compiled: Callable = field(compare=False, default=None, repr=False)  # of expr


@dataclass(frozen=True)
class VariantSpec:
    """One variant and its plan: its equations, in the order they run.

    ``direct`` equations are evaluated once each; ``iterative`` equations'
    targets form a dependency cycle, or depend on one, and are solved
    together by fixed-point iteration after every direct equation.
    """

    id: str
    title: str
    equations: tuple
    direct: tuple = field(compare=False, default=(), repr=False)
    iterative: tuple = field(compare=False, default=(), repr=False)


@dataclass(frozen=True)
class Source:
    title: str
    url: Optional[str] = None


@dataclass(frozen=True)
class MethodCard:
    id: str
    title: str
    category: str
    description: str
    variables: tuple
    variants: tuple
    assumptions: tuple
    applicability: tuple
    sources: tuple
    units: dict = field(compare=False, repr=False)  # key -> registry Unit
    input_keys: frozenset = field(compare=False, repr=False)
    param_defaults: dict = field(compare=False, repr=False)  # key -> float
    output_keys: tuple = field(compare=False, repr=False)  # in declared order

    def variant(self, variant_id: str):
        for var in self.variants:
            if var.id == variant_id:
                return var
        return None

    def to_dict(self) -> dict:
        """JSON-ready form; load_card(json.dumps(card.to_dict())) == card."""
        out = {
            "id": self.id,
            "title": self.title,
            "category": self.category,
            "description": self.description,
            "variables": [],
            "variants": [],
            "assumptions": list(self.assumptions),
            "applicability": list(self.applicability),
            "sources": [],
        }
        for v in self.variables:
            entry = {"key": v.key, "name": v.name, "role": v.role, "unit": v.unit}
            if v.description is not None:
                entry["description"] = v.description
            if v.default is not None:
                entry["default"] = v.default
            out["variables"].append(entry)
        for variant in self.variants:
            eqs = []
            for eq in variant.equations:
                entry = {"target": eq.target, "sympy": eq.sympy}
                if eq.description is not None:
                    entry["description"] = eq.description
                eqs.append(entry)
            out["variants"].append({"id": variant.id, "title": variant.title,
                                    "equations": eqs})
        for s in self.sources:
            entry = {"title": s.title}
            if s.url is not None:
                entry["url"] = s.url
            out["sources"].append(entry)
        return out


# ------------------------------------------------------------------ loading ----

def _require(obj: dict, key: str, kind, path: str):
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing required field")
    value = obj[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SchemaError(f"{path}.{key}", f"expected a number, got {type(value).__name__}")
        if not abs(value) <= sys.float_info.max:  # NaN, infinity or a huge int
            raise SchemaError(f"{path}.{key}", "expected a finite number")
        return float(value)
    if not isinstance(value, kind):
        raise SchemaError(f"{path}.{key}", f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _optional_str(obj: dict, key: str, path: str) -> Optional[str]:
    if key not in obj or obj[key] is None:
        return None
    if not isinstance(obj[key], str):
        raise SchemaError(f"{path}.{key}", "expected string")
    return obj[key]


def load_card(json_text: str) -> MethodCard:
    """Deserialize and fully validate one method card."""
    try:
        raw = json.loads(json_text)
    except (ValueError, RecursionError) as exc:  # too deep, or an int over 4300 digits
        raise SchemaError("$", f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise SchemaError("$", "card must be a JSON object")

    card_id = _require(raw, "id", str, "$")
    if not _ID_RE.match(card_id):
        raise SchemaError("$.id", f"{card_id!r} is not UPPER_SNAKE")
    title = _require(raw, "title", str, "$")
    category = _require(raw, "category", str, "$")
    description = _require(raw, "description", str, "$")

    # Variables
    raw_vars = _require(raw, "variables", list, "$")
    variables: list[VariableSpec] = []
    units: dict[str, Unit] = {}
    for i, entry in enumerate(raw_vars):
        path = f"$.variables[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(path, "expected object")
        key = _require(entry, "key", str, path)
        if not _KEY_RE.match(key):
            raise SchemaError(f"{path}.key", f"{key!r} is not a valid symbol")
        if key in ex.CONSTANTS or key == "True" or key in ex.ALLOWED_FUNCTIONS:
            raise SchemaError(f"{path}.key", f"{key!r} is a reserved name")
        if key in units:
            raise DuplicateKey(key, f"variables of card {card_id}")
        role = _require(entry, "role", str, path)
        if role not in ROLES:
            raise SchemaError(f"{path}.role", f"{role!r} not one of {ROLES}")
        unit_name = _require(entry, "unit", str, path)
        units[key] = default_registry().resolve(unit_name)  # raises UnknownUnit
        default = None
        if "default" in entry and entry["default"] is not None:
            default = _require(entry, "default", float, path)
        if role == "param" and default is None:
            raise SchemaError(f"{path}.default", f"param {key!r} requires a default")
        if role != "param" and default is not None:
            raise SchemaError(f"{path}.default", f"role {role!r} forbids a default")
        variables.append(VariableSpec(
            key=key,
            name=_require(entry, "name", str, path),
            role=role,
            unit=unit_name,
            description=_optional_str(entry, "description", path),
            default=default,
        ))
    roles = {v.key: v.role for v in variables}
    given = {k for k, role in roles.items() if role in ("input", "param")}
    assignable = {k for k, role in roles.items() if role in ("output", "intermediate")}
    outputs = {k for k, role in roles.items() if role == "output"}

    # Variants
    raw_variants = _require(raw, "variants", list, "$")
    if not raw_variants:
        raise SchemaError("$.variants", "card must declare at least one variant")
    variants: list[VariantSpec] = []
    seen_variant_ids: set[str] = set()
    for i, entry in enumerate(raw_variants):
        path = f"$.variants[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(path, "expected object")
        vid = _require(entry, "id", str, path)
        if vid in seen_variant_ids:
            raise DuplicateKey(vid, f"variants of card {card_id}")
        seen_variant_ids.add(vid)
        vtitle = _require(entry, "title", str, path)
        raw_eqs = _require(entry, "equations", list, path)
        by_target: dict[str, EquationSpec] = {}
        for j, eq_entry in enumerate(raw_eqs):
            eq_path = f"{path}.equations[{j}]"
            if not isinstance(eq_entry, dict):
                raise SchemaError(eq_path, "expected object")
            target = _require(eq_entry, "target", str, eq_path)
            if target not in roles:
                raise UndeclaredSymbol(target, target)
            if target not in assignable:
                raise SchemaError(f"{eq_path}.target",
                                  f"{target!r} has role {roles[target]!r}; "
                                  "equation targets must be output or intermediate")
            if eq_entry.get("condition") is not None:
                raise SchemaError(f"{eq_path}.condition",
                                  "equation conditions are not supported; write one "
                                  "Piecewise((a, c1), (b, c2), (fallback, True)) "
                                  "equation for the target")
            if target in by_target:
                raise SchemaError(f"{eq_path}.target",
                                  f"{target!r} has more than one equation")
            text = _require(eq_entry, "sympy", str, eq_path)
            expr = ex.parse(text)  # ParseError/Disallowed* propagate
            symbols = ex.free_symbols(expr)
            for symbol in symbols:
                if symbol not in roles:
                    raise UndeclaredSymbol(target, symbol)
            by_target[target] = EquationSpec(
                target=target,
                sympy=text,
                description=_optional_str(eq_entry, "description", eq_path),
                expr=expr,
                symbols=tuple(sorted(symbols)),
                compiled=ex.compile_expr(expr),
            )
        missing = outputs - by_target.keys()
        if missing:
            raise SchemaError(f"{path}.equations",
                              f"output(s) {sorted(missing)} have no equation in "
                              f"variant {vid!r}")
        direct, iterative = _plan(vid, by_target, given)
        variants.append(VariantSpec(id=vid, title=vtitle,
                                    equations=tuple(by_target.values()),
                                    direct=direct, iterative=iterative))

    # Lists and sources
    assumptions = tuple(_str_list(raw, "assumptions"))
    applicability = tuple(_str_list(raw, "applicability"))
    raw_sources = _require(raw, "sources", list, "$")
    if not raw_sources:
        raise SchemaError("$.sources", "sources must be non-empty")
    sources = []
    for i, entry in enumerate(raw_sources):
        path = f"$.sources[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(path, "expected object")
        sources.append(Source(title=_require(entry, "title", str, path),
                              url=_optional_str(entry, "url", path)))

    return MethodCard(
        id=card_id, title=title, category=category, description=description,
        variables=tuple(variables), variants=tuple(variants),
        assumptions=assumptions, applicability=applicability,
        sources=tuple(sources), units=units,
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


def _str_list(raw: dict, key: str) -> list[str]:
    value = raw.get(key, [])
    if not isinstance(value, list) or any(not isinstance(s, str) for s in value):
        raise SchemaError(f"$.{key}", "expected a list of strings")
    return value


# ------------------------------------------------------- dimensional audit ----

@dataclass(frozen=True)
class DimensionFinding:
    variant_id: str
    target: str
    message: str

    def __str__(self) -> str:
        return f"[{self.variant_id}] {self.target}: {self.message}"


_TRANSCENDENTAL = frozenset({"sin", "cos", "tan", "cot", "asin", "acos",
                             "atan", "exp", "log"})


def _mix(d1: Dimension, d2: Dimension) -> Optional[Dimension]:
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


def _dim(node: ex.ExprNode, dims: dict, report) -> Optional[Dimension]:
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
        if left is not None and right is not None and _mix(left, right) is None:
            report(f"comparison mixes {left} and {right} in {ex.to_text(node)}")
        return DIMENSIONLESS
    if isinstance(node, ex.Piecewise):
        result = None
        for value, condition in node.branches:
            _dim(condition, dims, report)
            d = _dim(value, dims, report)
            if d is None:
                continue
            mixed = d if result is None else _mix(result, d)
            if mixed is None:
                report(f"Piecewise branches mix {result} and {d}")
                return None
            result = mixed
        return result
    if isinstance(node, ex.Binary):
        left, right = _dim(node.left, dims, report), _dim(node.right, dims, report)
        if left is None or right is None:
            return None
        if node.op in ("+", "-"):
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
        result = args[0]  # atan2, Min and Max: the arguments mix
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
