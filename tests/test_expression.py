"""Expression language tests: grammar, printing, sandboxing, evaluation."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from geocard import expression as ex
from geocard.errors import (
    DisallowedFunction,
    DisallowedSyntax,
    ExpressionError,
    MathDomain,
    NoBranchTaken,
    ParseError,
    UnboundSymbol,
)

NQ_TEXT = "exp(pi*tan(phi_prime))*tan(pi/4 + phi_prime/2)**2"
NC_TEXT = "Piecewise(((N_q - 1)*cot(phi_prime), phi_prime > 0), (5.14, True))"
QULT_TEXT = "c_prime*N_c + q*N_q + 0.5*gamma*B*N_gamma"


class TestParse:
    def test_card_nq_expression(self):
        node = ex.parse(NQ_TEXT)
        assert ex.free_symbols(node) == {"phi_prime"}

    def test_card_nc_piecewise(self):
        node = ex.parse(NC_TEXT)
        assert isinstance(node, ex.Piecewise)
        assert len(node.branches) == 2
        value, condition = node.branches[1]
        assert condition == ex.BoolLiteral(True)
        assert value == ex.Number(5.14)

    def test_power_right_associative(self):
        node = ex.parse("a**b**c")
        assert node == ex.Binary("**", ex.Symbol("a"),
                                 ex.Binary("**", ex.Symbol("b"), ex.Symbol("c")))

    def test_unary_minus_binds_looser_than_power(self):
        # -x**2 must parse as -(x**2)
        node = ex.parse("-x**2")
        assert isinstance(node, ex.Unary)
        assert isinstance(node.operand, ex.Binary)

    def test_unary_minus_binds_tighter_than_multiplication(self):
        node = ex.parse("2*-x")
        assert node == ex.Binary("*", ex.Number(2.0),
                                 ex.Unary("-", ex.Symbol("x")))

    def test_negative_exponent(self):
        assert ex.evaluate(ex.parse("2**-2"), {}) == 0.25

    def test_condition_grammar(self):
        cond = ex.parse_condition("phi_prime > 0")
        assert isinstance(cond, ex.Comparison)
        assert ex.parse_condition("True") == ex.BoolLiteral(True)

    def test_comparison_not_allowed_in_value_position(self):
        with pytest.raises(ParseError):
            ex.parse("a > b")

    @pytest.mark.parametrize("text, position", [("1e999", 0), ("2*1e400", 2),
                                                ("x + 1.5e309", 4)])
    def test_out_of_range_literal_is_parse_error(self, text, position):
        with pytest.raises(ParseError) as err:
            ex.parse(text)
        assert err.value.position == position

    def test_largest_float_literal_round_trips(self):
        node = ex.parse("1.7976931348623157e308")
        assert node == ex.Number(1.7976931348623157e308)
        assert ex.parse(ex.to_text(node)) == node

    @pytest.mark.parametrize("bad", ["", "   ", "1 +", "(a", "a b",
                                     "Piecewise()", "sin()", "f g(",
                                     "atan2(x)", "+x"])
    def test_malformed(self, bad):
        with pytest.raises((ParseError, DisallowedFunction, DisallowedSyntax)):
            ex.parse(bad)


class TestSandbox:
    def test_import_call(self):
        with pytest.raises(DisallowedSyntax):
            ex.parse("__import__('os')")

    @pytest.mark.parametrize("hostile", [
        "a.b",                       # attribute access
        "().__class__",              # dunder walk
        "lambda x: x",               # lambdas
        "import os",                 # import keyword
        "a; b",                      # statements
        "exec('x')",                 # exec
        "eval('1')",                 # eval
        "open('/etc/passwd')",       # non-allowlisted call
        "getattr(a, 'b')",           # non-allowlisted call
        "x = 1",                     # assignment (= in value position)
        "[1, 2]",                    # indexing / lists
        "{'a': 1}",                  # dicts
        "f'{x}'",                    # strings
        "a if b else c",             # conditional expression
        "__builtins__",              # dunder name
        "не_ascii",                  # non-identifier bytes
    ])
    def test_hostile_corpus_never_parses(self, hostile):
        with pytest.raises((ParseError, DisallowedFunction, DisallowedSyntax)):
            ex.parse(hostile)

    def test_unknown_function_is_rejected_by_name(self):
        with pytest.raises(DisallowedFunction) as err:
            ex.parse("system(x)")
        assert err.value.name == "system"

    def test_allowlist_is_closed(self):
        assert "eval" not in ex.ALLOWED_FUNCTIONS
        assert ex.ALLOWED_FUNCTIONS == {
            "sin", "cos", "tan", "cot", "asin", "acos", "atan", "atan2",
            "exp", "log", "sqrt", "Abs", "Min", "Max", "Piecewise"}

    @pytest.mark.parametrize("text", ["2\u00b2 * x", "\u0663 + 1", "x\u0663",
                                      "1.\u0663", "1e\u0663"])
    def test_only_ascii_digits_are_numbers(self, text):
        with pytest.raises(DisallowedSyntax):
            ex.parse(text)

    @pytest.mark.parametrize("text", [
        "(" * 300 + "x" + ")" * 300,
        "(" * 300,
        "-" * 2000 + "x",
        "x**" * 500 + "x",
        "sin(" * 300 + "x" + ")" * 300,
        "Piecewise((" * 100 + "x" + ", True))" * 100,
        "+".join(["x"] * 5000),
        "*".join(["x"] * (ex.MAX_NESTING + 1)),
    ])
    def test_nesting_is_bounded(self, text):
        with pytest.raises(ParseError, match="nested deeper"):
            ex.parse(text)

    def test_nesting_at_the_bound_parses(self):
        depth = ex.MAX_NESTING - 1
        assert ex.parse("(" * depth + "x" + ")" * depth) == ex.Symbol("x")
        ex.parse("+".join(["x"] * ex.MAX_NESTING))
        ex.parse_condition("+".join(["x"] * (ex.MAX_NESTING - 1)) + " > 0")

    _TOKENS = st.sampled_from(["1", "2.5", ".5e3", "x", "pi", "True", "(", ")",
                               ",", "+", "-", "*", "**", "/", ">", "<=", "=",
                               "sin", "Piecewise", " ", "\u00b2", "\u0663",
                               "\u00e9", "_", "e"])

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), st.lists(_TOKENS, max_size=40).map("".join)))
    def test_arbitrary_text_parses_or_raises_expression_error(self, text):
        for parse in (ex.parse, ex.parse_condition):
            try:
                parse(text)
            except ExpressionError:
                pass


class TestEvaluate:
    def test_nq_at_30_degrees(self):
        # Frozen from the scalar oracle: e^(pi tan 30) tan^2(60 deg)
        value = ex.evaluate(ex.parse(NQ_TEXT), {"phi_prime": math.radians(30)})
        assert value == pytest.approx(18.4011, abs=5e-5)

    def test_nq_at_zero(self):
        assert ex.evaluate(ex.parse(NQ_TEXT), {"phi_prime": 0.0}) == pytest.approx(1.0)

    def test_nc_piecewise_zero_branch(self):
        value = ex.evaluate(ex.parse(NC_TEXT), {"phi_prime": 0.0, "N_q": 1.0})
        assert value == 5.14

    def test_nc_piecewise_positive_branch(self):
        env = {"phi_prime": math.radians(30), "N_q": 18.401122218708668}
        value = ex.evaluate(ex.parse(NC_TEXT), env)
        assert value == pytest.approx(30.1396, abs=5e-5)

    def test_qult_linear_combination(self):
        env = {"c_prime": 0.0, "N_c": 30.13962779151909, "q": 18.0,
               "N_q": 18.401122218708668, "gamma": 18.0, "B": 2.0,
               "N_gamma": 22.402486271104557}
        value = ex.evaluate(ex.parse(QULT_TEXT), env)
        assert value == pytest.approx(734.4649528166381, rel=1e-12)

    def test_unbound_symbol(self):
        with pytest.raises(UnboundSymbol):
            ex.evaluate(ex.parse("a + b"), {"a": 1.0})

    def test_cot_is_cos_over_sin(self):
        x = 0.7
        got = ex.evaluate(ex.parse("cot(x)"), {"x": x})
        assert got == math.cos(x) / math.sin(x)

    @pytest.mark.parametrize("text,env", [
        ("log(x)", {"x": 0.0}),
        ("log(x)", {"x": -2.0}),
        ("sqrt(x)", {"x": -1.0}),
        ("cot(x)", {"x": 0.0}),
        ("1/x", {"x": 0.0}),
        ("asin(x)", {"x": 2.0}),
        ("x**0.5", {"x": -4.0}),
        ("exp(x)", {"x": 1e4}),
        ("0**x", {"x": -1.0}),
    ])
    def test_math_domain_errors(self, text, env):
        with pytest.raises(MathDomain):
            ex.evaluate(ex.parse(text), env)

    def test_no_branch_taken(self):
        node = ex.parse("Piecewise((1, x > 0))")
        with pytest.raises(NoBranchTaken):
            ex.evaluate(node, {"x": -1.0})

    def test_total_piecewise_never_raises_no_branch(self):
        node = ex.parse("Piecewise((1/x, x > 0), (0, True))")
        for x in (-5.0, 0.0, 3.0):
            ex.evaluate(node, {"x": x})  # must not raise NoBranchTaken

    def test_first_true_branch_wins(self):
        node = ex.parse("Piecewise((1, x > 0), (2, x > 0), (3, True))")
        assert ex.evaluate(node, {"x": 1.0}) == 1.0

    def test_min_max_abs(self):
        env = {"a": -3.0, "b": 2.0}
        assert ex.evaluate(ex.parse("Min(a, b)"), env) == -3.0
        assert ex.evaluate(ex.parse("Max(a, b, 5)"), env) == 5.0
        assert ex.evaluate(ex.parse("Abs(a)"), env) == 3.0

    def test_atan2(self):
        assert ex.evaluate(ex.parse("atan2(y, x)"), {"y": 1.0, "x": 1.0}) == \
            pytest.approx(math.pi / 4)

    def test_constants(self):
        assert ex.evaluate(ex.parse("pi"), {}) == math.pi
        assert ex.evaluate(ex.parse("e"), {}) == math.e

    def test_determinism(self):
        node = ex.parse(NQ_TEXT)
        env = {"phi_prime": 0.55850536}
        results = {ex.evaluate(node, env) for _ in range(100)}
        assert len(results) == 1


class TestFreeSymbols:
    def test_qult(self):
        assert ex.free_symbols(ex.parse(QULT_TEXT)) == {
            "c_prime", "N_c", "q", "N_q", "gamma", "B", "N_gamma"}

    def test_constants_only(self):
        assert ex.free_symbols(ex.parse("pi/4")) == set()

    def test_condition_symbols_counted(self):
        node = ex.parse("Piecewise((x, y > 0), (1, True))")
        assert ex.free_symbols(node) == {"x", "y"}


CARD_EXPRESSIONS = [
    NQ_TEXT,
    NC_TEXT,
    QULT_TEXT,
    "2*(N_q + 1)*tan(phi_prime)",
    "Piecewise((D_f/B, D_f <= B), (atan(D_f/B), True))",
    "Piecewise((1 + 0.1*K_p*(B/L), phi_prime >= pi/18), (1, True))",
    "(1 - beta/right_angle)**2",
    "1 + 2*tan(phi_prime)*(1 - sin(phi_prime))**2*k_depth",
    "Piecewise(((s_q*N_q - 1)/(N_q - 1), phi_prime_d > 0), (1 + 0.2*(B/L), True))",
    "-a**2*-b - (c + -d)/e_1**-f",
    "Min(a, Max(b, c), 2**3**2)",
    "atan2(y, x) + sqrt(Abs(z))",
]


class TestPrintParseRoundTrip:
    @pytest.mark.parametrize("text", CARD_EXPRESSIONS)
    def test_round_trip_card_expressions(self, text):
        node = ex.parse(text)
        assert ex.parse(ex.to_text(node)) == node

    @given(st.recursive(
        st.one_of(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            st.sampled_from(["x", "y", "phi", "B_1"]),
        ),
        lambda children: st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*", "/", "**"]),
                      children, children),
            st.tuples(st.just("neg"), children),
        ),
        max_leaves=20,
    ))
    def test_round_trip_random_trees(self, tree):
        node = _build(tree)
        assert ex.parse(ex.to_text(node)) == node


def _build(tree):
    if isinstance(tree, float):
        return ex.Number(tree)
    if isinstance(tree, str):
        return ex.Symbol(tree)
    if tree[0] == "neg":
        return ex.Unary("-", _build(tree[1]))
    op, left, right = tree
    return ex.Binary(op, _build(left), _build(right))
