"""Exception classes shared across the package.

Every failure mode a caller is expected to handle has its own class and
``code``, so tool layers (CLI, MCP server) can map errors to structured
payloads without string matching. An error carries only its code and its
message, plus the failing step and partial trace the engine attaches.
"""

from __future__ import annotations


class GeocardError(Exception):
    """Base class for all errors raised by this package.

    The engine may attach ``partial_trace`` (an EvaluationTrace of the
    steps completed before the fault) and ``failed_step`` (target,
    expression, resolved inputs) so the failing step stays auditable.
    """

    code = "error"
    partial_trace = None
    failed_step = None

    def payload(self) -> dict:
        """Structured form used by the CLI and server error paths."""
        body = {"error": self.code, "message": str(self)}
        if self.failed_step is not None:
            body["step"] = self.failed_step
        if self.partial_trace is not None:
            body["partial_trace"] = self.partial_trace.to_dict()
        return body


# ---------------------------------------------------------------- units ----

class UnknownUnit(GeocardError):
    code = "unknown_unit"

    def __init__(self, name: str):
        super().__init__(f"unknown unit: {name!r}")


class MalformedQuantity(GeocardError):
    code = "malformed_quantity"

    def __init__(self, text: str):
        super().__init__(f"cannot parse quantity from {text!r}")


class DimensionMismatch(GeocardError):
    code = "dimension_mismatch"

    def __init__(self, source, target, context: str = ""):
        where = f" ({context})" if context else ""
        super().__init__(f"incompatible dimensions: {source} vs {target}{where}")


class MissingUnit(GeocardError):
    code = "missing_unit"

    def __init__(self, keys):
        super().__init__(f"value(s) need a unit tag: {', '.join(sorted(keys))}")


class NonFiniteValue(GeocardError):
    code = "non_finite_value"

    def __init__(self, key: str):
        super().__init__(f"{key!r} is not a finite number")


# ----------------------------------------------------------- expressions ----

class ExpressionError(GeocardError):
    code = "expression_error"


class ParseError(ExpressionError):
    code = "parse_error"

    def __init__(self, position: int, message: str):
        super().__init__(f"parse error at position {position}: {message}")


class DisallowedFunction(ExpressionError):
    code = "disallowed_function"

    def __init__(self, name: str):
        super().__init__(f"function not in allowlist: {name!r}")


class DisallowedSyntax(ExpressionError):
    code = "disallowed_syntax"

    def __init__(self, description: str):
        super().__init__(f"disallowed syntax: {description}")


class UnboundSymbol(ExpressionError):
    code = "unbound_symbol"

    def __init__(self, name: str):
        super().__init__(f"symbol {name!r} is not bound in the environment")


class MathDomain(ExpressionError):
    code = "math_domain"


class NoBranchTaken(ExpressionError):
    code = "no_branch_taken"

    def __init__(self):
        super().__init__("no Piecewise condition evaluated to true")


# ------------------------------------------------------------------ cards ----

class SchemaError(GeocardError):
    code = "schema_error"

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")


class UndeclaredSymbol(GeocardError):
    code = "undeclared_symbol"

    def __init__(self, target: str, symbol: str):
        super().__init__(
            f"equation for {target!r} references undeclared symbol {symbol!r}"
        )


class DuplicateKey(GeocardError):
    code = "duplicate_key"

    def __init__(self, key: str, where: str):
        super().__init__(f"duplicate key {key!r} in {where}")


# ----------------------------------------------------------------- engine ----

class MissingInput(GeocardError):
    code = "missing_input"

    def __init__(self, keys):
        super().__init__(f"missing required input(s): {', '.join(sorted(keys))}")


class UnexpectedInput(GeocardError):
    code = "unexpected_input"

    def __init__(self, keys):
        super().__init__(f"unexpected input key(s): {', '.join(sorted(keys))}")


class UnresolvedVariable(GeocardError):
    code = "unresolved_variable"

    def __init__(self, key: str, variant_id: str, target: str):
        super().__init__(
            f"variable {key!r}, needed for {target!r} in variant "
            f"{variant_id!r}, is neither given nor produced by an equation")


class NonConvergence(GeocardError):
    code = "non_convergence"

    def __init__(self, search: str, iterations: int, measure: str, value: float):
        super().__init__(f"{search} did not converge after {iterations} "
                         f"iterations ({measure} {value:.3e})")


# ---------------------------------------------------------------- catalog ----

class UnknownMethod(GeocardError):
    code = "unknown_method"

    def __init__(self, card_id: str):
        super().__init__(f"unknown method card: {card_id!r}")


class UnknownVariant(GeocardError):
    code = "unknown_variant"

    def __init__(self, card_id: str, variant_id: str):
        super().__init__(f"card {card_id!r} has no variant {variant_id!r}")


# -------------------------------------------------------------------- ec7 ----

class UnknownDesignApproach(GeocardError):
    code = "unknown_design_approach"

    def __init__(self, label: str):
        super().__init__(f"unknown design approach: {label!r}")


class InvalidGeometry(GeocardError):
    code = "invalid_geometry"


class NoBracket(GeocardError):
    code = "no_bracket"

    def __init__(self, lo: float, hi: float):
        super().__init__(
            f"utilization does not cross 1.0 for widths in [{lo:g} m, {hi:g} m]"
        )


# ------------------------------------------------------------------ skills ----

class InvalidQuery(GeocardError, ValueError):
    code = "invalid_query"


class UnknownSkill(GeocardError):
    code = "unknown_skill"

    def __init__(self, name: str):
        super().__init__(f"unknown skill: {name!r}")
