"""Every error's code and message, as a client sees them.

An MCP client or a CLI user sees a failure only as its ``payload()``:
``{"error": code, "message": text}``. The table below pins that pair for
each class in ``geocard.errors``, from the arguments its raise sites pass.
"""

import inspect

import pytest

from geocard import errors as er
from geocard.units import Quantity, default_registry, for_input, to_magnitude

# (class, arguments, code, message)
CASES = [
    (er.GeocardError, ("cannot read scenario file a.json: gone",), "error",
     "cannot read scenario file a.json: gone"),
    (er.UnknownUnit, ("furlong",), "unknown_unit", "unknown unit: 'furlong'"),
    (er.MalformedQuantity, ("3 m m",), "malformed_quantity",
     "cannot parse quantity from '3 m m'"),
    (er.DimensionMismatch, ("L", "M", "m -> kg"), "dimension_mismatch",
     "incompatible dimensions: L vs M (m -> kg)"),
    (er.MissingUnit, ({"q", "B"},), "missing_unit",
     "value(s) need a unit tag: B, q"),
    (er.NonFiniteValue, ("result",), "non_finite_value",
     "'result' is not a finite number"),
    (er.ExpressionError, ("bad expression",), "expression_error",
     "bad expression"),
    (er.ParseError, (4, "number '1e999' is out of range"), "parse_error",
     "parse error at position 4: number '1e999' is out of range"),
    (er.DisallowedFunction, ("system",), "disallowed_function",
     "function not in allowlist: 'system'"),
    (er.DisallowedSyntax, ("reserved word 'and'",), "disallowed_syntax",
     "disallowed syntax: reserved word 'and'"),
    (er.UnboundSymbol, ("x",), "unbound_symbol",
     "symbol 'x' is not bound in the environment"),
    (er.MathDomain, ("sqrt of negative value -1.0",), "math_domain",
     "sqrt of negative value -1.0"),
    (er.NoBranchTaken, (), "no_branch_taken",
     "no Piecewise condition evaluated to true"),
    (er.SchemaError, ("$.variables[0].key", "'eval' is a reserved name"),
     "schema_error", "$.variables[0].key: 'eval' is a reserved name"),
    (er.UndeclaredSymbol, ("q_ult", "z"), "undeclared_symbol",
     "equation for 'q_ult' references undeclared symbol 'z'"),
    (er.DuplicateKey, ("B", "variables of card TEST"), "duplicate_key",
     "duplicate key 'B' in variables of card TEST"),
    (er.MissingInput, (["q", "B", "gamma"],), "missing_input",
     "missing required input(s): B, gamma, q"),
    (er.UnexpectedInput, ({"z", "y"},), "unexpected_input",
     "unexpected input key(s): y, z"),
    (er.UnresolvedVariable, ("N_q", "strip", "q_ult"), "unresolved_variable",
     "variable 'N_q', needed for 'q_ult' in variant 'strip', is neither "
     "given nor produced by an equation"),
    (er.NonConvergence, ("width bisection", 200, "utilization gap", 0.01234),
     "non_convergence", "width bisection did not converge after 200 "
     "iterations (utilization gap 1.234e-02)"),
    (er.UnknownMethod, ("NOPE",), "unknown_method",
     "unknown method card: 'NOPE'"),
    (er.UnknownVariant, ("CARD", "strip"), "unknown_variant",
     "card 'CARD' has no variant 'strip'"),
    (er.UnknownDesignApproach, ("DA4",), "unknown_design_approach",
     "unknown design approach: 'DA4'"),
    (er.InvalidGeometry, ("width must be positive, got -1",),
     "invalid_geometry", "width must be positive, got -1"),
    (er.NoBracket, (0.0001, 21.4), "no_bracket",
     "utilization does not cross 1.0 for widths in [0.0001 m, 21.4 m]"),
    (er.InvalidQuery, ("query must be non-empty",), "invalid_query",
     "query must be non-empty"),
    (er.UnknownSkill, ("piles",), "unknown_skill", "unknown skill: 'piles'"),
]


@pytest.mark.parametrize("cls, args, code, message", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_code_and_message(cls, args, code, message):
    exc = cls(*args)
    assert str(exc) == message
    assert exc.args == (message,)
    assert exc.code == code
    assert exc.payload() == {"error": code, "message": message}


def test_dimension_mismatch_without_context():
    exc = er.DimensionMismatch("L", "M")
    assert str(exc) == "incompatible dimensions: L vs M"


# A reader's error names no input; to_magnitude, the entry of every input
# value, names it through for_input.

def test_dimension_mismatch_names_its_input():
    exc = for_input(er.DimensionMismatch("L", "M", "m -> kg"), "B")
    assert str(exc) == "incompatible dimensions: L vs M (m -> kg) for input 'B'"
    assert exc.payload() == {"error": "dimension_mismatch", "message": str(exc)}
    with pytest.raises(er.DimensionMismatch) as err:
        to_magnitude(Quantity(2.0, default_registry().resolve("m")), "kN", "B")
    assert str(err.value) == ("incompatible dimensions: length vs "
                              "length·mass·time^-2 (m -> kN) for input 'B'")


def test_unknown_unit_names_its_input():
    with pytest.raises(er.UnknownUnit) as err:
        to_magnitude("2 furlong", "m", "B")
    assert str(err.value) == "unknown unit: 'furlong' for input 'B'"
    assert err.value.payload() == {"error": "unknown_unit", "message": str(err.value)}


@pytest.mark.parametrize("value, written", [
    (True, "boolean true"), (None, "null"), (2.5, "number 2.5"),
    ([1, "m"], 'array [1, "m"]'), ({"B": 2}, 'object {"B": 2}'), ("2 m m", "'2 m m'")])
def test_malformed_quantity_writes_a_value_as_json(value, written):
    message = f"cannot parse quantity from {written} for input 'B'"
    assert str(for_input(er.MalformedQuantity(value), "B")) == message
    if not isinstance(value, (float, str)):  # to_magnitude reads these two
        with pytest.raises(er.MalformedQuantity) as err:
            to_magnitude(value, "m", "B")
        assert str(err.value) == message


def test_malformed_quantity_nested_too_deeply_to_write():
    value = []
    for _ in range(100_000):  # deeper than any recursion limit
        value = [value]
    with pytest.raises(er.MalformedQuantity) as err:
        to_magnitude(value, "m", "q")
    assert str(err.value) == ("cannot parse quantity from array nested too deeply "
                              "to write for input 'q'")


def test_invalid_query_is_a_value_error():
    assert isinstance(er.InvalidQuery("x"), ValueError)


def test_table_covers_every_error_with_a_distinct_code():
    public = {cls for name, cls in inspect.getmembers(er, inspect.isclass)
              if issubclass(cls, er.GeocardError) and not name.startswith("_")}
    assert {case[0] for case in CASES} == public
    codes = [case[0].code for case in CASES]
    assert len(set(codes)) == len(codes)
