"""Card loading, schema validation, and the dimensional audit."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import HUGE_INT
from geocard import expression as ex
from geocard.cards import (CARD_FIELDS, DimensionFinding, EquationSpec, MethodCard,
                           VariantSpec, load_card, validate_dimensions)
from geocard.catalog import load_catalog
from geocard.ec7 import bundled_scenario_path, load_scenario
from geocard.engine import EvaluationRequest, evaluate_card
from geocard.errors import (
    DisallowedFunction,
    DuplicateKey,
    GeocardError,
    ParseError,
    SchemaError,
    UndeclaredSymbol,
    UnknownMethod,
    UnknownUnit,
)
from geocard.units import DIMENSIONLESS

_ROOT = Path(__file__).parents[1]
# Every bundled card, and the benchmark's cyclic card, which is read only.
CARD_TEXTS = {path.name: path.read_text("utf-8") for path in (
    *sorted((_ROOT / "src/geocard/data/catalog").glob("*.json")),
    _ROOT / "perfbench/cyclic_card.json")}


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
        assert str(err.value) == \
            "equation for 'y' references undeclared symbol 'D_f'"

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
        assert str(err.value) == "$.variables[2].default: expected a finite number"

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
        assert str(err.value) == \
            "$.variants[0].equations[1].target: 'y' has more than one equation"

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
        assert str(err.value) == (
            "$.variants[0].equations[0].condition: equation conditions are not "
            "supported; write one Piecewise((a, c1), (b, c2), (fallback, True)) "
            "equation for the target")

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

    @pytest.mark.parametrize("key", ["pi", "sqrt", "True", "eval", "lambda",
                                     "None", "__x", "x__y"])
    def test_reserved_variable_key_rejected(self, key):
        # A key the expression language refuses would put host-language
        # words into equations and traces, as in ``eval = 2*x``.
        bad = minimal_card()
        bad["variables"][0]["key"] = key
        bad["variants"][0]["equations"][0]["target"] = key
        with pytest.raises(SchemaError) as err:
            load(bad)
        assert str(err.value) == f"$.variables[0].key: {key!r} is a reserved name"

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

    def test_to_dict_writes_the_card_file(self):
        # Each field the file holds and no null for one it lacks; the two
        # lists are written even when empty.
        for name, text in CARD_TEXTS.items():
            written = load_card(text).to_dict()
            assert written == dict({"assumptions": [], "applicability": []},
                                   **json.loads(text)), name
            assert list(written) == list(CARD_FIELDS)

    def test_serialization_round_trip(self):
        for text in CARD_TEXTS.values():
            card = load_card(text)
            again = load_card(json.dumps(card.to_dict()))
            assert again == card


# ---------------------------------------------------------- boundary checks ----
#
# One row per check that refuses a malformed card, scenario or request: the
# call, and the exact error class and message a client sees. A row with
# neither is an input the checks accept.

def _card_with(value, *path):
    """A call that loads minimal_card() with ``value`` set at ``path``."""
    card = minimal_card()
    parent = card
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return lambda: load(card)


def _card_without(*path):
    """A call that loads minimal_card() with the field at ``path`` removed."""
    card = minimal_card()
    parent = card
    for step in path[:-1]:
        parent = parent[step]
    del parent[path[-1]]
    return lambda: load(card)


def _scenario_with(**changes):
    with open(bundled_scenario_path(), encoding="utf-8") as f:
        raw = json.load(f)
    return lambda: load_scenario(json.dumps(dict(raw, **changes)))


def _evaluate_as(card_id):
    card = load_catalog().get_method("BEARING_CAPACITY_TERZAGHI")
    return lambda: evaluate_card(card, EvaluationRequest(
        card_id=card_id, variant_id="general_shear_failure_strip", inputs={}))


BOUNDARY_CHECKS = [
    pytest.param(_card_with("2", "variables", 1, "default"), SchemaError,
                 "$.variables[1].default: expected a number, got str",
                 id="default-not-a-number"),
    pytest.param(_card_with(5, "variables", 1, "description"), SchemaError,
                 "$.variables[1].description: expected string",
                 id="description-not-a-string"),
    pytest.param(_card_with("x", "variables", 1), SchemaError,
                 "$.variables[1]: expected object", id="variable-not-an-object"),
    pytest.param(_card_with("1x", "variables", 1, "key"), SchemaError,
                 "$.variables[1].key: '1x' is not a valid symbol",
                 id="invalid-key"),
    pytest.param(_card_with("x\n", "variables", 1, "key"), SchemaError,
                 r"$.variables[1].key: 'x\n' is not a valid symbol",
                 id="key-with-trailing-newline"),
    pytest.param(_card_with("TEST_CARD\n", "id"), SchemaError,
                 r"$.id: 'TEST_CARD\n' is not UPPER_SNAKE",
                 id="id-with-trailing-newline"),
    pytest.param(_card_with("given", "variables", 1, "role"), SchemaError,
                 "$.variables[1].role: 'given' not one of "
                 "('input', 'output', 'intermediate', 'param')",
                 id="unknown-role"),
    pytest.param(_card_with([], "variants"), SchemaError,
                 "$.variants: card must declare at least one variant",
                 id="no-variants"),
    pytest.param(_card_with("base", "variants", 0), SchemaError,
                 "$.variants[0]: expected object", id="variant-not-an-object"),
    pytest.param(_card_with("y = 2*x", "variants", 0, "equations", 0),
                 SchemaError, "$.variants[0].equations[0]: expected object",
                 id="equation-not-an-object"),
    pytest.param(_card_with("z", "variants", 0, "equations", 0, "target"),
                 UndeclaredSymbol,
                 "equation for 'z' references undeclared symbol 'z'",
                 id="undeclared-target"),
    pytest.param(_card_with("A book.", "sources", 0), SchemaError,
                 "$.sources[0]: expected object", id="source-not-an-object"),
    pytest.param(_card_with(["shallow", 3], "assumptions"), SchemaError,
                 "$.assumptions: expected a list of strings",
                 id="assumption-not-a-string"),
    pytest.param(_card_without("title"), SchemaError,
                 "$.title: missing required field", id="card-missing-field"),
    pytest.param(_card_without("variables", 1, "name"), SchemaError,
                 "$.variables[1].name: missing required field",
                 id="variable-missing-field"),
    pytest.param(_card_without("variants", 0, "title"), SchemaError,
                 "$.variants[0].title: missing required field",
                 id="variant-missing-field"),
    pytest.param(_card_without("variants", 0, "equations", 0, "sympy"),
                 SchemaError,
                 "$.variants[0].equations[0].sympy: missing required field",
                 id="equation-missing-field"),
    pytest.param(_card_without("sources", 0, "title"), SchemaError,
                 "$.sources[0].title: missing required field",
                 id="source-missing-field"),
    pytest.param(_card_with(7, "category"), SchemaError,
                 "$.category: expected str, got int", id="string-not-a-string"),
    pytest.param(_card_with(None, "title"), SchemaError,
                 "$.title: expected str, got NoneType", id="null-string"),
    pytest.param(_card_with({}, "variables"), SchemaError,
                 "$.variables: expected list, got dict", id="list-not-a-list"),
    pytest.param(_card_with(True, "variables", 1, "default"), SchemaError,
                 "$.variables[1].default: expected a number, got bool",
                 id="default-a-bool"),
    pytest.param(_card_with(None, "variables", 1, "default"), None, None,
                 id="null-default-accepted"),
    pytest.param(_card_with(None, "assumptions"), SchemaError,
                 "$.assumptions: expected a list of strings",
                 id="null-assumptions"),
    pytest.param(_card_with(3, "sources", 0, "url"), SchemaError,
                 "$.sources[0].url: expected string", id="url-not-a-string"),
    pytest.param(_card_with([], "applicabilty"), SchemaError,
                 "$.applicabilty: unknown field", id="unknown-card-key"),
    pytest.param(_card_with("m", "variables", 1, "unitt"), SchemaError,
                 "$.variables[1].unitt: unknown field", id="unknown-variable-key"),
    pytest.param(_card_with([], "variants", 0, "equation"), SchemaError,
                 "$.variants[0].equation: unknown field", id="unknown-variant-key"),
    pytest.param(_card_with("2*x", "variants", 0, "equations", 0, "sympyy"),
                 SchemaError, "$.variants[0].equations[0].sympyy: unknown field",
                 id="unknown-equation-key"),
    pytest.param(_card_with("x", "sources", 0, "ulr"), SchemaError,
                 "$.sources[0].ulr: unknown field", id="unknown-source-key"),
    pytest.param(_scenario_with(c_u_k=None), None, None,
                 id="null-scenario-quantity-accepted"),
    pytest.param(_scenario_with(L=None), SchemaError,
                 "$.L: missing required field", id="null-required-quantity"),
    pytest.param(_scenario_with(surcharge_model=None), SchemaError,
                 "$.surcharge_model: must be one of ('effective_overburden', 'none')",
                 id="null-surcharge-model"),
    pytest.param(_scenario_with(surcharge_model="rigid"), SchemaError,
                 "$.surcharge_model: must be one of ('effective_overburden', 'none')",
                 id="unknown-surcharge-model"),
    pytest.param(_evaluate_as("BEARING_CAPACITY_VESIC"), UnknownMethod,
                 "unknown method card: 'BEARING_CAPACITY_VESIC'",
                 id="card-id-mismatch"),
]


@pytest.mark.parametrize("call, error, message", BOUNDARY_CHECKS)
def test_boundary_check(call, error, message):
    if error is None:  # a row the check accepts
        call()
        return
    with pytest.raises(GeocardError) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message


# ------------------------------------------------------- structural fuzz ----
#
# Each bundled card with one structural fault: a value swapped for another
# JSON value, a key dropped, or a key misspelled. Loading, the audit and one
# evaluation per variant may refuse it only with a GeocardError.

_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
              st.text(max_size=6)),
    lambda children: st.one_of(st.lists(children, max_size=2),
                               st.dictionaries(st.text(max_size=4), children,
                                               max_size=2)),
    max_leaves=4)


def _locations(node):
    """(container, key) for every member and element below ``node``."""
    members = (node.items() if isinstance(node, dict)
               else enumerate(node) if isinstance(node, list) else ())
    for key, child in members:
        yield node, key
        yield from _locations(child)


@st.composite
def _mutated_cards(draw):
    raw = json.loads(CARD_TEXTS[draw(st.sampled_from(sorted(CARD_TEXTS)))])
    parent, key = draw(st.sampled_from(list(_locations(raw))))
    mutation = draw(st.sampled_from(["swap", "drop", "misspell"]))
    if mutation == "swap":
        parent[key] = draw(_JSON_VALUES)
    elif mutation == "misspell" and isinstance(parent, dict):
        parent[key + draw(st.sampled_from(["s", "_", "x"]))] = parent.pop(key)
    else:
        del parent[key]
    return json.dumps(raw)


def assert_steps_read_bound_symbols(card) -> None:
    """No step of a loaded card's plans reads a symbol that is unbound when
    it runs: a direct step reads givens and earlier direct targets, a block
    step those and the block's targets, which the walk presets to 1.0. So
    the compiled equations need no guard against an unbound symbol."""
    givens = card.input_keys | card.param_defaults.keys()
    for variant in card.variants:
        bound = set(givens)
        for eq in variant.direct:
            assert bound.issuperset(eq.symbols), (variant.id, eq.target)
            bound.add(eq.target)
        bound.update(eq.target for eq in variant.iterative)
        for eq in variant.iterative:
            assert bound.issuperset(eq.symbols), (variant.id, eq.target)


class TestStructuralFuzz:
    @settings(max_examples=400, deadline=None)
    @given(_mutated_cards())
    def test_only_geocard_errors(self, text):
        try:
            card = load_card(text)
        except GeocardError:
            return
        assert_steps_read_bound_symbols(card)
        validate_dimensions(card)
        for variant in card.variants:
            request = EvaluationRequest(card.id, variant.id,
                                        dict.fromkeys(card.input_keys, 0.5))
            try:
                evaluate_card(card, request)
            except GeocardError:
                pass


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

    def test_a_hand_built_equation_with_no_tree_is_a_type_error(self):
        """A card built from the exported records, not by load_card, whose
        equation holds no parsed tree: the audit refuses it rather than
        find nothing."""
        card = load(minimal_card())
        fields = {name: getattr(card, name) for name in MethodCard.__slots__
                  if name != "trace_templates"}
        fields["variants"] = (VariantSpec("base", "Base", (EquationSpec("y", "2*x"),)),)
        with pytest.raises(TypeError, match="not an ExprNode: None"):
            validate_dimensions(MethodCard(**fields))

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


# ------------------------------------------------------ dimension rules ----
#
# One row per rule of the audit: the target's unit, the expression, the
# units of its variables, and every finding it must give, in order.

_L, _A, _N = "m", "radians", "dimensionless"
TARGET_MISMATCH = "expression has dimension {}, target declares {}"

DIMENSION_RULES = [
    # unary minus passes its operand's dimension through
    (_L, "-x", {"x": _L}, []),
    (_L, "-a", {"a": _A}, [TARGET_MISMATCH.format("angle", "length")]),
    (_L, "x + -a", {"x": _L, "a": _A},
     ["cannot add length and angle in x + -a"]),
    # a dimensioned base raised to a literal, negated or not
    (_L, "sqrt(x**2)", {"x": _L}, []),
    (_L, "1/x**-1", {"x": _L}, []),
    (_L, "x**(-2)*x**3", {"x": _L}, []),
    (_L, "x**0.5", {"x": _L}, [TARGET_MISMATCH.format("length^1/2", "length")]),
    (_L, "x**n", {"x": _L, "n": _N},
     ["dimensioned base requires a numeric literal exponent in x**n"]),
    (_L, "x**-n", {"x": _L, "n": _N},
     ["dimensioned base requires a numeric literal exponent in x**-n"]),
    (_N, "n**x", {"n": _N, "x": _L}, ["exponent has dimension length in n**x"]),
    (_N, "n**a", {"n": _N, "a": _A}, ["exponent has dimension angle in n**a"]),
    # sqrt halves, Abs keeps
    (_L, "sqrt(x)", {"x": _L}, [TARGET_MISMATCH.format("length^1/2", "length")]),
    (_L, "Abs(x)", {"x": _L}, []),
    (_L, "Abs(a)", {"a": _A}, [TARGET_MISMATCH.format("angle", "length")]),
    # Min and Max: all arguments mix; angle wins over dimensionless
    (_L, "Max(x, 2*x, x)", {"x": _L}, []),
    (_L, "Min(0, a)", {"a": _A}, [TARGET_MISMATCH.format("angle", "length")]),
    (_L, "Min(a, 0, n)", {"a": _A, "n": _N},
     [TARGET_MISMATCH.format("angle", "length")]),
    (_L, "Max(x, n, a)", {"x": _L, "n": _N, "a": _A},
     ["Max arguments mix length and dimensionless"]),
    (_L, "Min(x, x, a)", {"x": _L, "a": _A},
     ["Min arguments mix length and angle"]),
    # atan2: its two arguments mix, and the result is dimensionless
    (_A, "atan2(x, x)", {"x": _L}, []),
    (_L, "atan2(a, n)", {"a": _A, "n": _N},
     [TARGET_MISMATCH.format("dimensionless", "length")]),
    (_L, "atan2(x, a)", {"x": _L, "a": _A},
     ["atan2 arguments have dimensions length and angle"]),
    # transcendental functions take an angle or a dimensionless number
    (_N, "sin(a) + cos(a) + tan(n) + cot(a) + asin(n) + acos(n) + atan(n)"
         " + exp(n) + log(n)", {"a": _A, "n": _N}, []),
    (_N, "log(x)", {"x": _L},
     ["log argument x has dimension length; needs angle or dimensionless"]),
    (_L, "sin(x) + cos(x)", {"x": _L},
     ["sin argument x has dimension length; needs angle or dimensionless",
      "cos argument x has dimension length; needs angle or dimensionless"]),
    # Piecewise: conditions are audited; a poisoned branch is skipped
    (_L, "Piecewise((x, a > x), (2*x, True))", {"x": _L, "a": _A},
     ["comparison mixes angle and length in a > x"]),
    (_L, "Piecewise((sin(x), True))", {"x": _L},
     ["sin argument x has dimension length; needs angle or dimensionless"]),
    (_L, "Piecewise((sin(x), n > 0), (a, True))", {"x": _L, "a": _A, "n": _N},
     ["sin argument x has dimension length; needs angle or dimensionless",
      TARGET_MISMATCH.format("angle", "length")]),
    (_L, "Piecewise((n, n > 0), (a, a > 0), (x, True))",
     {"x": _L, "a": _A, "n": _N},
     ["Piecewise branches mix angle and length"]),
    # a literal 0, negated or not, takes the dimension it is mixed with
    (_L, "Piecewise((Max(x, 0) + 0, x > 0), (0, True))", {"x": _L}, []),
    (_L, "0 + x - 0 - -0 + (-0 - x)", {"x": _L}, []),
    (_L, "Min(0, x) + Max(-0, x, 0) + Min(x, -0)", {"x": _L}, []),
    (_N, "Piecewise((1, x > 0), (2, -0 >= x), (3, 0 = x), (4, x < -0))", {"x": _L}, []),
    (_A, "atan2(0, x) + atan2(x, -0)", {"x": _L}, []),
    (_L, "Piecewise((0, x > 0), (x, True))", {"x": _L}, []),
    (_L, "-(-0) + x", {"x": _L}, []),
    # ... and only a zero: another literal, or a zero among others, does not
    (_L, "x + 1", {"x": _L}, ["cannot add length and dimensionless in x + 1"]),
    (_L, "Max(x, 1)", {"x": _L}, ["Max arguments mix length and dimensionless"]),
    (_L, "Max(x, 0, n)", {"x": _L, "n": _N},
     ["Max arguments mix length and dimensionless"]),
    (_L, "Piecewise((1, x > 0.5), (x, True))", {"x": _L},
     ["comparison mixes length and dimensionless in x > 0.5",
      "Piecewise branches mix dimensionless and length"]),
    (_L, "Piecewise((0, x > 0), (-0, True))", {"x": _L},
     [TARGET_MISMATCH.format("dimensionless", "length")]),
    (_L, "0*x + 0", {"x": _L}, []),
    (_L, "0", {"x": _L}, [TARGET_MISMATCH.format("dimensionless", "length")]),
    # the target accepts an angle for a dimensionless result, and back
    (_A, "n", {"n": _N}, []),
    (_N, "a", {"a": _A}, []),
    # a literal exponent must be a fraction with denominator at most 1000
    (_L, "(x**0.25)**4", {"x": _L}, []),
    (_L, "x**1.5/x**0.5", {"x": _L}, []),
    (_L, "x**1.0004", {"x": _L},
     ["exponent 1.0004 is not a fraction with denominator at most 1000 "
      "in x**1.0004"]),
    (_L, "(x**3)**0.3333", {"x": _L},
     ["exponent 0.3333 is not a fraction with denominator at most 1000 "
      "in (x**3)**0.3333"]),
]


def _rule_card(target_unit: str, expression: str, units: dict) -> dict:
    card = minimal_card()
    card["variables"] = [{"key": "y", "name": "out", "role": "output",
                          "unit": target_unit}]
    card["variables"] += [{"key": key, "name": key, "role": "input",
                           "unit": unit} for key, unit in units.items()]
    card["variants"][0]["equations"][0]["sympy"] = expression
    return card


def _called_functions(node) -> set:
    found = {node.func} if isinstance(node, ex.Call) else set()
    for child in ex._children(node):
        found |= _called_functions(child)
    return found


class TestDimensionRules:
    @pytest.mark.parametrize("target_unit, expression, units, expected",
                             DIMENSION_RULES)
    def test_findings(self, target_unit, expression, units, expected):
        card = load(_rule_card(target_unit, expression, units))
        findings = validate_dimensions(card)
        assert [f.message for f in findings] == expected
        assert all((f.variant_id, f.target) == ("base", "y") for f in findings)

    def test_every_function_has_a_rule(self):
        called = set()
        for _, expression, _, _ in DIMENSION_RULES:
            called |= _called_functions(ex.parse(expression))
        assert called == ex.ALLOWED_FUNCTIONS - {"Piecewise"}


# ------------------------------------------------- audit equivalence ----
#
# ``_OracleChecker`` is the audit as first written, a class with two mixing
# rules, copied here as the oracle with one rule added since, the literal
# zero (``_oracle_zero``):
# ``validate_dimensions`` must give the same findings, in the same order, on
# every card.

def _oracle_compatible(d1, d2) -> bool:
    if d1 == d2:
        return True
    return d1.is_angle_like() and d2.is_angle_like()


def _oracle_join(d1, d2):
    return d1 if not d1.is_dimensionless() else d2


def _oracle_zero(node) -> bool:
    """A literal 0, negated or not, takes the dimension it is mixed with."""
    while isinstance(node, ex.Unary):
        node = node.operand
    return isinstance(node, ex.Number) and node.value == 0


_ORACLE_TRANSCENDENTAL = frozenset({"sin", "cos", "tan", "cot", "asin", "acos",
                                    "atan", "exp", "log"})


class _OracleChecker:
    def __init__(self, card):
        self.card = card
        self.var_dims = {key: unit.dimension for key, unit in card.units.items()}
        self.findings = []

    def check(self):
        for variant in self.card.variants:
            for eq in variant.equations:
                self._check_equation(variant.id, eq)
        return self.findings

    def _check_equation(self, variant_id, eq):
        report = lambda msg: self.findings.append(
            DimensionFinding(variant_id, eq.target, msg))
        result = self._dim(eq.expr, report)
        target_dim = self.var_dims[eq.target]
        if result is not None and not _oracle_compatible(result, target_dim):
            report(f"expression has dimension {result}, target declares {target_dim}")

    def _dim(self, node, report):
        if isinstance(node, (ex.Number, ex.Constant, ex.BoolLiteral)):
            return DIMENSIONLESS
        if isinstance(node, ex.Symbol):
            return self.var_dims[node.name]
        if isinstance(node, ex.Unary):
            return self._dim(node.operand, report)
        if isinstance(node, ex.Binary):
            left = self._dim(node.left, report)
            right = self._dim(node.right, report)
            if left is None or right is None:
                return None
            if node.op in ("+", "-"):
                if _oracle_zero(node.left):
                    return right
                if _oracle_zero(node.right):
                    return left
                if not _oracle_compatible(left, right):
                    report(f"cannot {('add', 'subtract')[node.op == '-']} "
                           f"{left} and {right} in {ex.to_text(node)}")
                    return None
                return _oracle_join(left, right)
            if node.op == "*":
                return left * right
            if node.op == "/":
                return left / right
            if left.is_dimensionless():
                if not right.is_dimensionless():
                    report(f"exponent has dimension {right} in {ex.to_text(node)}")
                    return None
                return DIMENSIONLESS
            exponent = node.right
            if isinstance(exponent, ex.Unary):
                exponent = exponent.operand
            if not isinstance(exponent, ex.Number):
                report(f"dimensioned base requires a numeric literal exponent "
                       f"in {ex.to_text(node)}")
                return None
            power = -exponent.value if isinstance(node.right, ex.Unary) else exponent.value
            return left ** power
        if isinstance(node, ex.Call):
            arg_dims = [self._dim(a, report) for a in node.args]
            if any(d is None for d in arg_dims):
                return None
            if node.func in _ORACLE_TRANSCENDENTAL:
                for d, a in zip(arg_dims, node.args):
                    if not d.is_angle_like():
                        report(f"{node.func} argument {ex.to_text(a)} has "
                               f"dimension {d}; needs angle or dimensionless")
                        return None
                return DIMENSIONLESS
            if node.func == "atan2":
                if (not _oracle_zero(node.args[0]) and not _oracle_zero(node.args[1])
                        and not _oracle_compatible(arg_dims[0], arg_dims[1])):
                    report(f"atan2 arguments have dimensions {arg_dims[0]} "
                           f"and {arg_dims[1]}")
                    return None
                return DIMENSIONLESS
            if node.func == "sqrt":
                return arg_dims[0] ** 0.5
            if node.func == "Abs":
                return arg_dims[0]
            if node.func in ("Min", "Max"):
                if not all(_oracle_zero(a) for a in node.args):
                    arg_dims = [d for d, a in zip(arg_dims, node.args)
                                if not _oracle_zero(a)]
                first = arg_dims[0]
                for d in arg_dims[1:]:
                    if not _oracle_compatible(first, d):
                        report(f"{node.func} arguments mix {first} and {d}")
                        return None
                    first = _oracle_join(first, d)
                return first
            raise AssertionError(node.func)
        if isinstance(node, ex.Piecewise):
            branch_dim = None
            zero_branch = False
            for value, condition in node.branches:
                self._dim(condition, report)
                d = self._dim(value, report)
                if d is None:
                    continue
                if _oracle_zero(value):
                    zero_branch = True
                elif branch_dim is None:
                    branch_dim = d
                elif not _oracle_compatible(branch_dim, d):
                    report(f"Piecewise branches mix {branch_dim} and {d}")
                    return None
                else:
                    branch_dim = _oracle_join(branch_dim, d)
            if branch_dim is None and zero_branch:
                return DIMENSIONLESS
            return branch_dim
        if isinstance(node, ex.Comparison):
            left = self._dim(node.left, report)
            right = self._dim(node.right, report)
            zero = _oracle_zero(node.left) or _oracle_zero(node.right)
            if (left is not None and right is not None and not zero
                    and not _oracle_compatible(left, right)):
                report(f"comparison mixes {left} and {right} in {ex.to_text(node)}")
            return DIMENSIONLESS
        raise TypeError(f"not an ExprNode: {node!r}")


_AUDIT_UNITS = st.sampled_from(["m", "kPa", "kN/m^3", "radians", "deg",
                                "dimensionless"])
# Literals a card writes: integers and halves (literal exponents), and zero.
_AUDIT_NUMBERS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 1.5])
_AUDIT_FUNCTIONS = ("sin", "cos", "tan", "cot", "asin", "acos", "atan",
                    "exp", "log", "sqrt", "Abs")


def _audit_trees(symbols):
    def extend(children):
        condition = st.one_of(
            st.just(ex.BoolLiteral(True)),
            st.builds(ex.Comparison,
                      st.sampled_from([">", ">=", "<", "<=", "="]),
                      children, children))
        return st.one_of(
            st.builds(ex.Unary, st.just("-"), children),
            st.builds(ex.Binary, st.sampled_from(["+", "-", "*", "/", "**"]),
                      children, children),
            st.builds(lambda base, n, neg: ex.Binary(
                "**", base, ex.Unary("-", ex.Number(n)) if neg else ex.Number(n)),
                      children, _AUDIT_NUMBERS, st.booleans()),
            st.builds(lambda f, a: ex.Call(f, (a,)),
                      st.sampled_from(_AUDIT_FUNCTIONS), children),
            st.builds(lambda a, b: ex.Call("atan2", (a, b)), children, children),
            st.builds(lambda f, args: ex.Call(f, tuple(args)),
                      st.sampled_from(["Min", "Max"]),
                      st.lists(children, min_size=2, max_size=3)),
            st.builds(lambda branches: ex.Piecewise(tuple(branches)),
                      st.lists(st.tuples(children, condition), min_size=1,
                               max_size=3)),
        )
    return st.recursive(
        st.one_of(st.builds(ex.Number, _AUDIT_NUMBERS),
                  st.just(ex.Constant("pi")),
                  st.sampled_from([ex.Symbol(s) for s in symbols])),
        extend, max_leaves=8)


_Z_TREES = _audit_trees(("a", "b", "c"))
_Y_TREES = _audit_trees(("a", "b", "c", "z"))


@st.composite
def _two_variant_cards(draw):
    """A card whose two variants each compute z from the inputs a, b and c,
    then y from the inputs and z; every variable has a drawn unit."""
    units = {key: draw(_AUDIT_UNITS) for key in ("y", "z", "a", "b", "c")}
    roles = {"y": "output", "z": "intermediate"}
    card = minimal_card()
    card["variables"] = [{"key": key, "name": key,
                          "role": roles.get(key, "input"), "unit": unit}
                         for key, unit in units.items()]
    card["variants"] = [
        {"id": vid, "title": vid, "equations": [
            {"target": "z", "sympy": ex.to_text(draw(_Z_TREES))},
            {"target": "y", "sympy": ex.to_text(draw(_Y_TREES))},
        ]} for vid in ("first", "second")]
    return card


class TestAuditMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(_two_variant_cards())
    def test_same_findings_in_same_order(self, card_dict):
        card = load(card_dict)
        assert validate_dimensions(card) == _OracleChecker(card).check()
