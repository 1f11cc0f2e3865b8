"""Exception classes shared across the package.

Every failure mode a caller is expected to handle has its own class and
``code``, so tool layers (CLI, MCP server) can map errors to structured
payloads without string matching. An error carries only its code and its
message, plus the failing step and partial trace the engine attaches.

Each class states its message as a ``message`` template, which
``str.format`` fills with the constructor's arguments in the order the
raise sites pass them; the base template ``"{}"`` takes a finished text.
A quantity reader's error names no input: ``units.for_input`` appends
it where the input enters.
"""

from __future__ import annotations

import json


class GeocardError(Exception):
    """Base class for all errors raised by this package.

    The engine may attach ``partial_trace`` (a PartialTrace: the steps
    completed before the fault, and no outputs) and ``failed_step`` (target,
    expression, resolved inputs) so the failing step stays auditable.
    """

    code = "error"
    message = "{}"
    partial_trace = None
    failed_step = None

    def __init__(self, *args):
        super().__init__(self.message.format(*args))

    def payload(self) -> dict:
        """Structured form used by the CLI and server error paths."""
        body = {"error": self.code, "message": str(self)}
        if self.failed_step is not None:
            body["step"] = self.failed_step
        if self.partial_trace is not None:
            body["partial_trace"] = self.partial_trace.to_dict()
        return body


class _SortedKeys(GeocardError):
    """An error about a set of keys, listed sorted and comma-separated."""

    def __init__(self, keys):
        super().__init__(", ".join(sorted(keys)))


# ---------------------------------------------------------------- units ----

class UnknownUnit(GeocardError):
    code = "unknown_unit"
    message = "unknown unit: {!r}"


# The JSON type of a value a client sent, written before its JSON text;
# null is its own word.
_JSON_TYPES = {type(None): "", bool: "boolean ", int: "number ", float: "number ",
               list: "array ", dict: "object "}


def _as_sent(value) -> str:
    """A JSON value as its type and text (``boolean true``, ``null``); a
    string, or a value JSON cannot write, by its repr."""
    kind = _JSON_TYPES.get(type(value))
    if kind is None:
        return repr(value)
    try:
        return kind + json.dumps(value, ensure_ascii=False)
    except (TypeError, ValueError):  # holds a value that is not JSON's
        return repr(value)
    except RecursionError:  # a request may nest deeper than repr can go
        return kind + "nested too deeply to write"


class MalformedQuantity(GeocardError):
    code = "malformed_quantity"
    message = "cannot parse quantity from {}"  # the value as sent

    def __init__(self, value):
        super().__init__(_as_sent(value))


class DimensionMismatch(GeocardError):
    code = "dimension_mismatch"
    message = "incompatible dimensions: {} vs {}{}"  # source, target, " (context)" or ""

    def __init__(self, source, target, context: str = ""):
        super().__init__(source, target, f" ({context})" if context else "")


class MissingUnit(_SortedKeys):
    code = "missing_unit"
    message = "value(s) need a unit tag: {}"


class NonFiniteValue(GeocardError):
    code = "non_finite_value"
    message = "{!r} is not a finite number"


# ----------------------------------------------------------- expressions ----

class ExpressionError(GeocardError):
    code = "expression_error"


class ParseError(ExpressionError):
    code = "parse_error"
    message = "parse error at position {}: {}"  # position, what went wrong


class DisallowedFunction(ExpressionError):
    code = "disallowed_function"
    message = "function not in allowlist: {!r}"


class DisallowedSyntax(ExpressionError):
    code = "disallowed_syntax"
    message = "disallowed syntax: {}"


class UnboundSymbol(ExpressionError):
    code = "unbound_symbol"
    message = "symbol {!r} is not bound in the environment"


class MathDomain(ExpressionError):
    code = "math_domain"


class NoBranchTaken(ExpressionError):
    code = "no_branch_taken"
    message = "no Piecewise condition evaluated to true"


# ------------------------------------------------------------------ cards ----

class SchemaError(GeocardError):
    code = "schema_error"
    message = "{}: {}"  # JSON path, what is wrong there


class UndeclaredSymbol(GeocardError):
    code = "undeclared_symbol"
    # target, symbol
    message = "equation for {!r} references undeclared symbol {!r}"


class DuplicateKey(GeocardError):
    code = "duplicate_key"
    message = "duplicate key {!r} in {}"  # key, where


# ----------------------------------------------------------------- engine ----

class MissingInput(_SortedKeys):
    code = "missing_input"
    message = "missing required input(s): {}"


class UnexpectedInput(_SortedKeys):
    code = "unexpected_input"
    message = "unexpected input key(s): {}"


class UnresolvedVariable(GeocardError):
    code = "unresolved_variable"
    # key, variant id, target
    message = ("variable {0!r}, needed for {2!r} in variant {1!r}, "
               "is neither given nor produced by an equation")


class NonConvergence(GeocardError):
    code = "non_convergence"
    # search, iterations, measure, value
    message = "{} did not converge after {} iterations ({} {:.3e})"


# ---------------------------------------------------------------- catalog ----

class UnknownMethod(GeocardError):
    code = "unknown_method"
    message = "unknown method card: {!r}"


class UnknownVariant(GeocardError):
    code = "unknown_variant"
    message = "card {!r} has no variant {!r}"  # card id, variant id


# -------------------------------------------------------------------- ec7 ----

class UnknownDesignApproach(GeocardError):
    code = "unknown_design_approach"
    message = "unknown design approach: {!r}"


class InvalidGeometry(GeocardError):
    code = "invalid_geometry"


class NoBracket(GeocardError):
    code = "no_bracket"
    # the width search's floor and L, in m
    message = "utilization does not cross 1.0 for widths in [{:g} m, {:g} m]"


# ------------------------------------------------------------------ skills ----

class InvalidQuery(GeocardError, ValueError):
    code = "invalid_query"


class UnknownSkill(GeocardError):
    code = "unknown_skill"
    message = "unknown skill: {!r}"
