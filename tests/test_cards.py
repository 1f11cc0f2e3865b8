"""Card loading, schema validation, and the dimensional audit."""

import json

import pytest

from conftest import HUGE_INT
from geocard.cards import load_card, validate_dimensions
from geocard.errors import (
    DisallowedFunction,
    DuplicateKey,
    GeocardError,
    ParseError,
    SchemaError,
    UndeclaredSymbol,
    UnknownUnit,
)


def minimal_card(**overrides) -> dict:
    card = {
        "id": "TEST_CARD",
        "title": "Test Card",
        "category": "Testing",
        "description": "A minimal valid card.",
        "variables": [
            {"key": "y", "name": "result", "role": "output", "unit": "kPa"},
            {"key": "x", "name": "driver", "role": "input", "unit": "kPa"},
        ],
        "variants": [
            {"id": "base", "title": "Base", "equations": [
                {"target": "y", "sympy": "2*x"},
            ]},
        ],
        "sources": [{"title": "Internal test fixture."}],
    }
    card.update(overrides)
    return card


def load(card_dict):
    return load_card(json.dumps(card_dict))


class TestLoadCard:
    def test_minimal_card_loads(self):
        card = load(minimal_card())
        assert card.id == "TEST_CARD"
        assert card.variant("base") is not None
        assert [v.key for v in card.variables if v.role == "input"][0] == "x"

    def test_bundled_terzaghi_shape(self):
        from geocard.catalog import load_catalog
        card = load_catalog().get_method("BEARING_CAPACITY_TERZAGHI")
        keys = {v.key for v in card.variables}
        assert {"q_ult", "phi_prime", "c_prime", "gamma", "B", "q"} <= keys
        strip = card.variant("general_shear_failure_strip")
        assert len(strip.equations) == 4
        assert card.sources[0].title.startswith("Terzaghi, K. (1943)")

    def test_undeclared_symbol_in_equation(self):
        bad = minimal_card()
        bad["variants"][0]["equations"][0]["sympy"] = "2*x + D_f"
        with pytest.raises(UndeclaredSymbol) as err:
            load(bad)
        assert err.value.symbol == "D_f"

    def test_unknown_unit(self):
        bad = minimal_card()
        bad["variables"][1]["unit"] = "furlongs"
        with pytest.raises(UnknownUnit):
            load(bad)

    def test_duplicate_variable_key(self):
        bad = minimal_card()
        bad["variables"].append(dict(bad["variables"][1]))
        with pytest.raises(DuplicateKey):
            load(bad)

    def test_duplicate_variant_id(self):
        bad = minimal_card()
        bad["variants"].append(bad["variants"][0])
        with pytest.raises(DuplicateKey):
            load(bad)

    def test_param_requires_default(self):
        bad = minimal_card()
        bad["variables"].append(
            {"key": "k", "name": "const", "role": "param", "unit": "dimensionless"})
        with pytest.raises(SchemaError):
            load(bad)

    def test_non_param_forbids_default(self):
        bad = minimal_card()
        bad["variables"][1]["default"] = 3.0
        with pytest.raises(SchemaError):
            load(bad)

    def test_target_must_be_assignable(self):
        bad = minimal_card()
        bad["variants"][0]["equations"].append({"target": "x", "sympy": "1"})
        with pytest.raises(SchemaError):
            load(bad)

    def test_target_role_message(self):
        bad = minimal_card()
        bad["variants"][0]["equations"].append({"target": "x", "sympy": "1"})
        with pytest.raises(SchemaError) as err:
            load(bad)
        assert str(err.value) == (
            "$.variants[0].equations[1].target: 'x' has role 'input'; "
            "equation targets must be output or intermediate")

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999",
                                         "1" + "0" * 400],
                             ids=["NaN", "Infinity", "-Infinity", "1e999", "10**400"])
    def test_param_default_must_be_finite(self, literal):
        bad = minimal_card()
        bad["variables"].append({"key": "k", "name": "const", "role": "param",
                                 "unit": "dimensionless", "default": "@"})
        with pytest.raises(SchemaError) as err:
            load_card(json.dumps(bad).replace('"@"', literal))
        assert err.value.path == "$.variables[2].default"

    def test_units_resolved_at_load(self):
        from geocard.units import default_registry
        spec = minimal_card()
        spec["variables"][1]["unit"] = "kN/m³"  # an alias
        spec["variables"][0]["unit"] = "kN/m^3"
        card = load(spec)
        registry = default_registry()
        assert card.units == {"y": registry.resolve("kN/m^3"),
                              "x": registry.resolve("kN/m^3")}
        assert card.variables[1].unit == "kN/m³"  # the card keeps what it declares
        assert load_card(json.dumps(card.to_dict())) == card

    def test_output_must_be_covered_in_every_variant(self):
        bad = minimal_card()
        bad["variants"].append(
            {"id": "empty", "title": "Empty", "equations": []})
        with pytest.raises(SchemaError):
            load(bad)

    def test_two_unconditioned_equations_for_one_target(self):
        bad = minimal_card()
        bad["variants"][0]["equations"].append({"target": "y", "sympy": "3*x"})
        with pytest.raises(SchemaError) as err:
            load(bad)
        assert err.value.path == "$.variants[0].equations[1].target"
        assert "more than one equation" in str(err.value)

    @pytest.mark.parametrize("equations", [
        [{"target": "y", "sympy": "2*x", "condition": "x > 0"}],
        [{"target": "y", "sympy": "2*x", "condition": "x > 0"},
         {"target": "y", "sympy": "0", "condition": "x <= 0"}],
    ], ids=["lone", "pair"])
    def test_equation_condition_is_rejected(self, equations):
        bad = minimal_card()
        bad["variants"][0]["equations"] = equations
        with pytest.raises(SchemaError) as err:
            load(bad)
        assert err.value.path == "$.variants[0].equations[0].condition"
        assert "Piecewise" in str(err.value)

    def test_null_equation_condition_is_ignored(self):
        ok = minimal_card()
        ok["variants"][0]["equations"][0]["condition"] = None
        assert load(ok) == load(minimal_card())

    def test_disallowed_function_propagates(self):
        bad = minimal_card()
        bad["variants"][0]["equations"][0]["sympy"] = "system(x)"
        with pytest.raises(DisallowedFunction):
            load(bad)

    def test_empty_sources_rejected(self):
        with pytest.raises(SchemaError):
            load(minimal_card(sources=[]))

    def test_lowercase_id_rejected(self):
        with pytest.raises(SchemaError):
            load(minimal_card(id="test_card"))

    def test_reserved_variable_key_rejected(self):
        bad = minimal_card()
        bad["variables"][1]["key"] = "pi"
        with pytest.raises(SchemaError):
            load(bad)

    @pytest.mark.parametrize("text", ["{not json", '{"id": %s}' % HUGE_INT],
                             ids=["malformed", "huge-int"])
    def test_invalid_json_is_schema_error(self, text):
        with pytest.raises(SchemaError):
            load_card(text)

    @pytest.mark.parametrize("expression", ["Min(2*x)", "Max(x)"])
    def test_one_argument_min_max_rejected(self, expression):
        bad = minimal_card()
        bad["variants"][0]["equations"][0]["sympy"] = expression
        with pytest.raises(ParseError, match="takes 2\\+ argument"):
            load(bad)

    @pytest.mark.parametrize("junk", [
        "[]", "null", "42", '{"id": 7}', '{"id": "X"}',
        '{"id": "X", "title": [], "category": "c", "description": "d", '
        '"variables": [], "variants": [], "sources": []}',
    ])
    def test_total_over_fuzz_corpus(self, junk):
        # Any malformed input must produce a structured error, never a crash.
        with pytest.raises(GeocardError):
            load_card(junk)

    def test_serialization_round_trip(self):
        from geocard.catalog import load_catalog
        for card_id in ("BEARING_CAPACITY_TERZAGHI", "BEARING_CAPACITY_VESIC",
                        "BEARING_CAPACITY_EUROCODE7"):
            card = load_catalog().get_method(card_id)
            again = load_card(json.dumps(card.to_dict()))
            assert again == card


class TestValidateDimensions:
    def test_terzaghi_strip_is_consistent(self):
        # Hand audit: kPa = kPa*1 + kPa*1 + (kN/m^3)*m*1
        from geocard.catalog import load_catalog
        card = load_catalog().get_method("BEARING_CAPACITY_TERZAGHI")
        assert validate_dimensions(card) == []

    def test_all_bundled_cards_are_consistent(self):
        from geocard.catalog import load_catalog
        catalog = load_catalog()
        assert catalog.diagnostics == []
        for card in catalog.cards.values():
            assert validate_dimensions(card) == []

    def test_pressure_target_from_length_expression(self):
        bad = minimal_card()
        bad["variables"][1]["unit"] = "m"
        findings = validate_dimensions(load(bad))  # y [kPa] = 2*x [m]
        assert len(findings) == 1
        assert findings[0].target == "y"

    def test_exp_of_dimensioned_argument(self):
        bad = minimal_card()
        bad["variables"][1]["unit"] = "m"
        bad["variants"][0]["equations"][0]["sympy"] = "exp(x)"
        findings = validate_dimensions(load(bad))
        assert len(findings) == 1
        assert "exp" in findings[0].message

    def test_addition_of_mixed_dimensions(self):
        bad = minimal_card()
        bad["variables"].append(
            {"key": "w", "name": "width", "role": "input", "unit": "m"})
        bad["variants"][0]["equations"][0]["sympy"] = "x + w"
        findings = validate_dimensions(load(bad))
        assert findings

    def test_angle_plus_literal_is_tolerated(self):
        # pi/4 + phi/2 appears in the canonical N_q expression.
        ok = minimal_card()
        ok["variables"] = [
            {"key": "y", "name": "out", "role": "output", "unit": "dimensionless"},
            {"key": "phi", "name": "angle", "role": "input", "unit": "radians"},
        ]
        ok["variants"][0]["equations"][0]["sympy"] = "tan(pi/4 + phi/2)**2"
        assert validate_dimensions(load(ok)) == []

    def test_angle_comparison_against_literal_zero(self):
        ok = minimal_card()
        ok["variables"] = [
            {"key": "y", "name": "out", "role": "output", "unit": "dimensionless"},
            {"key": "phi", "name": "angle", "role": "input", "unit": "radians"},
        ]
        ok["variants"][0]["equations"][0]["sympy"] = \
            "Piecewise((cot(phi), phi > 0), (5.14, True))"
        assert validate_dimensions(load(ok)) == []

    def test_numeric_literals_are_dimensionless(self):
        ok = minimal_card()
        ok["variants"][0]["equations"][0]["sympy"] = "2.5*x"
        assert validate_dimensions(load(ok)) == []

    def test_sqrt_halves_dimension(self):
        card = minimal_card()
        card["variables"] = [
            {"key": "y", "name": "out", "role": "output", "unit": "m"},
            {"key": "a", "name": "area-ish", "role": "input", "unit": "m"},
        ]
        card["variants"][0]["equations"][0]["sympy"] = "sqrt(a*a)"
        assert validate_dimensions(load(card)) == []

    def test_dimensioned_base_requires_literal_exponent(self):
        bad = minimal_card()
        bad["variables"].append(
            {"key": "n", "name": "exponent", "role": "input",
             "unit": "dimensionless"})
        bad["variables"][1]["unit"] = "m"
        bad["variants"][0]["equations"][0]["sympy"] = "x**n"
        findings = validate_dimensions(load(bad))
        assert findings

    def test_piecewise_branches_must_agree(self):
        bad = minimal_card()
        bad["variables"].append(
            {"key": "w", "name": "width", "role": "input", "unit": "m"})
        bad["variants"][0]["equations"][0]["sympy"] = \
            "Piecewise((x, w > 0), (w, True))"
        findings = validate_dimensions(load(bad))
        assert findings
