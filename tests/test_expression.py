"""Expression language tests: grammar, printing, sandboxing, evaluation."""

import ast
import math
import struct
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

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
NC_TEXT = "Piecewise(((N_q - 1)*cot(phi_prime), phi_prime > 1e-8), (5.14, True))"
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
        assert str(err.value) == (f"parse error at position {position}: "
                                  f"number {text[position:]!r} is out of range")

    def test_largest_float_literal_round_trips(self):
        node = ex.parse("1.7976931348623157e308")
        assert node == ex.Number(1.7976931348623157e308)
        assert ex.parse(ex.to_text(node)) == node

    @pytest.mark.parametrize("bad, position, message", [
        ("", 0, "empty expression"),
        ("   ", 0, "empty expression"),
        ("1 +", 3, "unexpected end of input"),
        ("(a", 2, "unexpected end of input"),
        ("a b", 2, "unexpected trailing token 'b'"),
        ("Piecewise()", 10, "expected '(', found ')'"),
        ("sin()", 4, "unexpected token ')'"),
        ("f g(", 2, "unexpected trailing token 'g'"),
        ("atan2(x)", 0, "atan2 takes 2 argument(s), got 1"),
        ("Min(x)", 0, "Min takes 2+ argument(s), got 1"),
        ("Max(2*x)", 0, "Max takes 2+ argument(s), got 1"),
        ("+x", 0, "unary '+' is not supported"),
        # end of input after each construct that can stop early
        ("(", 1, "unexpected end of input"),
        ("sin(", 4, "unexpected end of input"),
        ("Min(a,", 6, "unexpected end of input"),
        ("-", 1, "unexpected end of input"),
        ("a **", 4, "unexpected end of input"),
        ("a *", 3, "unexpected end of input"),
        ("Piecewise((a, b >", 17, "unexpected end of input"),
        ("Piecewise((a, True)", 19, "unexpected end of input"),
        ("Piecewise((a, True),", 20, "unexpected end of input"),
        ("a)", 1, "unexpected trailing token ')'"),
    ])
    def test_malformed(self, bad, position, message):
        with pytest.raises(ParseError) as err:
            ex.parse(bad)
        assert type(err.value) is ParseError
        assert str(err.value) == f"parse error at position {position}: {message}"


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
        assert str(err.value) == "function not in allowlist: 'system'"

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

    @pytest.mark.parametrize("path", sorted(Path(ex.__file__).parent.glob("*.py")),
                             ids=lambda p: p.name)
    def test_source_names_no_host_execution(self, path):
        # The module docstring's promise: evaluation never reaches eval(),
        # exec(), compile() or __import__(), called or passed on by name.
        names = {node.id for node in ast.walk(ast.parse(path.read_text("utf-8")))
                 if isinstance(node, ast.Name)}
        assert names.isdisjoint({"eval", "exec", "compile", "__import__"})


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

    def test_tree_deeper_than_the_recursion_limit(self):
        """The walk is breadth-first, so a hand-built tree of any depth is read."""
        node = ex.Symbol("x")
        for _ in range(5000):
            node = ex.Binary("+", ex.Unary("-", node), ex.Symbol("y"))
        assert ex.free_symbols(node) == {"x", "y"}


@pytest.mark.parametrize("write", [ex.to_text, ex.compile_expr], ids=["to_text", "compile"])
def test_a_value_that_is_no_tree_is_a_type_error(write):
    """The printer and the compiler refuse what is not an ExprNode rather
    than return nothing for it."""
    with pytest.raises(TypeError, match="not an ExprNode: 'x'"):
        write("x")


class TestEveryClosureIsCompiled:
    def test_each_kept_pair_is_compiled_by_a_shipped_card(self, monkeypatch):
        """Each closure a table keeps for one pair of operand kinds, all
        but the ``("f", "f")`` that reads any other pair, is compiled by a
        bundled card or by the benchmark's cyclic card: the tables hold
        only what that traffic compiles."""
        from geocard.cards import load_card
        from geocard.catalog import card_files
        from geocard.units import DATA_DIR

        looked_up, by_kinds = set(), ex._by_kinds

        def recording(table, left, right, *extra):
            looked_up.add((id(table), left[0], right[0]))
            return by_kinds(table, left, right, *extra)
        monkeypatch.setattr(ex, "_by_kinds", recording)
        root = Path(__file__).parents[1]
        for path in (*card_files(DATA_DIR / "catalog"), root / "perfbench/cyclic_card.json"):
            load_card(path.read_text("utf-8"))
        tables = {**ex._ARITHMETIC_BY_KINDS, "/": ex._DIVIDE_BY_KINDS,
                  "comparison": ex._COMPARISON}
        assert [(name, kinds) for name, table in tables.items() for kinds in table
                if kinds != ("f", "f") and (id(table), *kinds) not in looked_up] == []


CARD_EXPRESSIONS = [
    NQ_TEXT,
    NC_TEXT,
    QULT_TEXT,
    "2*(N_q + 1)*tan(phi_prime)",
    "Piecewise((D_f/B, D_f <= B), (atan(D_f/B), True))",
    "Piecewise((1 + 0.1*K_p*(B/L), phi_prime >= pi/18), (1, True))",
    "(1 - beta/right_angle)**2",
    "1 + 2*tan(phi_prime)*(1 - sin(phi_prime))**2*k_depth",
    "Piecewise(((s_q*N_q - 1)/(N_q - 1), phi_prime_d > 1e-8), (1 + (B/L)/(pi + 2), True))",
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

    @pytest.mark.parametrize("count", [33, 63])
    def test_repeated_minus_round_trips(self, count):
        """A negation prints bare inside a negation, so a chain the parser
        accepts reads back at the same nesting."""
        node = ex.parse("-" * count + "x")
        assert ex.to_text(node) == "-" * count + "x"
        assert ex.parse(ex.to_text(node)) == node

    @pytest.mark.parametrize("text", ["(-x)**2", "-x**2", "2**-x", "a*-b",
                                      "a - -b", "-(a + b)"])
    def test_negation_prints_as_written(self, text):
        assert ex.to_text(ex.parse(text)) == text


def _build(tree):
    if isinstance(tree, float):
        return ex.Number(tree)
    if isinstance(tree, str):
        return ex.Symbol(tree)
    if tree[0] == "neg":
        return ex.Unary("-", _build(tree[1]))
    op, left, right = tree
    return ex.Binary(op, _build(left), _build(right))


# ------------------------------------------------- evaluator equivalence ----
#
# ``_walk`` is the recursive tree walker the evaluator was first written as,
# kept here as the oracle: ``ex.evaluate`` must give the same float bits, or
# raise the same exception type with the same message, on every tree. Its
# one change since is the NaN rule (``_operand`` and the ``**`` check): a NaN
# that a subtree computes, not a leaf, raises where it would vanish.

def _oracle_cot(x):
    s = math.sin(x)
    if s == 0.0:
        raise MathDomain(f"cot undefined at {x!r}")
    return math.cos(x) / s


def _oracle_log(x):
    if x <= 0.0:
        raise MathDomain(f"log of non-positive value {x!r}")
    return math.log(x)


def _oracle_sqrt(x):
    if x < 0.0:
        raise MathDomain(f"sqrt of negative value {x!r}")
    return math.sqrt(x)


_ORACLE_FUNCTIONS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "cot": _oracle_cot,
    "asin": math.asin, "acos": math.acos, "atan": math.atan,
    "atan2": math.atan2, "exp": math.exp, "log": _oracle_log,
    "sqrt": _oracle_sqrt, "Abs": abs, "Min": min, "Max": max,
}


def _operand(node, parent, env):
    """An operand of ``parent``, a comparison, Min or Max, that is NaN
    raises unless it is a leaf: the evaluator trusts env to hold no NaN."""
    value = _walk(node, env)
    if value != value and not isinstance(node, (ex.Number, ex.Constant, ex.Symbol)):
        raise MathDomain(f"NaN operand in {ex.to_text(parent)}")
    return value


def _walk(node, env):
    if isinstance(node, ex.Number):
        return node.value
    if isinstance(node, ex.Constant):
        return ex.CONSTANTS[node.name]
    if isinstance(node, ex.Symbol):
        try:
            return env[node.name]
        except KeyError:
            raise UnboundSymbol(node.name) from None
    if isinstance(node, ex.Unary):
        return -_walk(node.operand, env)
    if isinstance(node, ex.Binary):
        left = _walk(node.left, env)
        right = _walk(node.right, env)
        try:
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            if node.op == "/":
                if right == 0.0:
                    raise MathDomain(f"division by zero in {ex.to_text(node)}")
                return left / right
            result = left ** right
        except OverflowError:
            raise MathDomain(f"overflow in {ex.to_text(node)}") from None
        except ZeroDivisionError:
            raise MathDomain(
                f"zero raised to negative power in {ex.to_text(node)}") from None
        if isinstance(result, complex):
            raise MathDomain(f"complex result in {ex.to_text(node)}")
        if result == 1.0 and (left != left or right != right):
            raise MathDomain(f"NaN operand in {ex.to_text(node)}")
        return result
    if isinstance(node, ex.Call):
        args = [_operand(a, node, env) if node.func in ("Min", "Max") else _walk(a, env)
                for a in node.args]
        fn = _ORACLE_FUNCTIONS[node.func]
        try:
            return fn(*args)
        except ValueError as exc:
            raise MathDomain(f"{node.func}: {exc}") from None
        except OverflowError:
            raise MathDomain(f"overflow in {node.func}") from None
    if isinstance(node, ex.Piecewise):
        for value, condition in node.branches:
            if _walk(condition, env):
                return _walk(value, env)
        raise NoBranchTaken()
    if isinstance(node, ex.Comparison):
        left = _operand(node.left, node, env)
        right = _operand(node.right, node, env)
        return {
            ">": left > right, ">=": left >= right,
            "<": left < right, "<=": left <= right,
            "=": left == right,
        }[node.op]
    if isinstance(node, ex.BoolLiteral):
        return node.value
    raise TypeError(f"not an ExprNode: {node!r}")


def _bits(value: float):
    """A float's bits, with every NaN the same: the sign of NaN*NaN follows
    operand order in C, which CPython's specialized and generic float
    multiply need not share, so it may differ between two runs of one tree.
    No NaN reaches a trace: the env is finite, and a computed NaN raises or
    fails its step."""
    return "nan" if value != value else struct.pack("<d", value)


def _outcome(fn):
    """A float result as its ``_bits``, or the exception as (type, message)."""
    try:
        value = fn()
    except Exception as exc:  # host exceptions must match too
        return ("raised", type(exc), str(exc))
    assert type(value) is float
    return ("value", _bits(value))


# Values that reach the domain edges: zero of both signs, one, halves,
# negatives (complex powers), magnitudes that overflow, and the specials.
_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -8.0, 3.0, 400.0,
                     1e308, -1e308, 1e-320]),
    st.floats(min_value=-1e3, max_value=1e3),
)
_ENV_FLOATS = st.one_of(_EDGE_FLOATS, st.floats())  # NaN and infinities too
# Mostly specials, so that subtrees often compute a NaN (inf - inf, 0*inf).
_SPECIAL_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 2.0])

_UNARY_FUNCTIONS = ("sin", "cos", "tan", "cot", "asin", "acos", "atan",
                    "exp", "log", "sqrt", "Abs")


def _extend(children, min_args=1):
    """Trees over ``children``; a Min or Max takes at least ``min_args``
    (the evaluator takes one, the parser two)."""
    condition = st.one_of(
        st.just(ex.BoolLiteral(True)),
        st.builds(ex.Comparison, st.sampled_from([">", ">=", "<", "<=", "="]),
                  children, children),
    )
    return st.one_of(
        st.builds(ex.Unary, st.just("-"), children),
        st.builds(ex.Binary, st.sampled_from(["+", "-", "*", "/", "**"]),
                  children, children),
        st.builds(lambda f, a: ex.Call(f, (a,)),
                  st.sampled_from(_UNARY_FUNCTIONS), children),
        st.builds(lambda a, b: ex.Call("atan2", (a, b)), children, children),
        st.builds(lambda f, args: ex.Call(f, tuple(args)),
                  st.sampled_from(["Min", "Max"]),
                  st.lists(children, min_size=min_args, max_size=3)),
        st.builds(lambda branches: ex.Piecewise(tuple(branches)),
                  st.lists(st.tuples(children, condition), min_size=1,
                           max_size=3)),
    )


_TREES_LEAVES = st.one_of(
    st.builds(ex.Number, _EDGE_FLOATS),
    st.sampled_from([ex.Constant("pi"), ex.Constant("e")]),
    st.sampled_from([ex.Symbol(n) for n in ("x", "y", "z", "unbound")]),
)
_TREES = st.recursive(_TREES_LEAVES, _extend, max_leaves=12)
_LITERAL_LEAVES = st.one_of(
    st.builds(ex.Number, _EDGE_FLOATS),
    st.sampled_from([ex.Constant("pi"), ex.Constant("e")]),
)
_SYMBOL_LEAVES = st.sampled_from([ex.Symbol(n) for n in ("x", "y", "unbound")])


def _each_pair_of_operand_kinds(test):
    """``test`` with one more example for each operator, the comparison
    among them, and each pair of operand kinds: a symbol, a literal, and a
    sub-closure on either side. A closure is picked at load by that pair."""
    operands = ("x", "2", "(y + 1)")
    for op in ("+", "-", "*", "/", ">"):
        for left in operands:
            for right in operands:
                text = f"{left} {op} {right}"
                if op == ">":
                    text = f"Piecewise((1, {text}), (0, True))"
                test = example(ex.parse(text), {"x": 3.0, "y": 0.5, "z": 1.0})(test)
    return test


def _xyz(x=1.5, y=2.0, z=-0.5):
    return {"x": x, "y": y, "z": z}


class TestEvaluatorMatchesWalker:
    @settings(max_examples=300, deadline=None)
    @given(_TREES, st.fixed_dictionaries(
        {"x": _ENV_FLOATS, "y": _ENV_FLOATS, "z": _ENV_FLOATS}))
    @_each_pair_of_operand_kinds
    @example(ex.parse("x*y"), _xyz())
    @example(ex.parse("x - 2"), _xyz())
    @example(ex.parse("2 - x"), _xyz())
    @example(ex.parse("x*(y + 1)"), _xyz())
    @example(ex.parse("(y + 1)*x"), _xyz())
    @example(ex.parse("x/y"), _xyz(y=0.0))
    @example(ex.parse("x/y"), _xyz(y=-0.0))
    @example(ex.parse("x/y"), _xyz(y=math.nan))
    @example(ex.parse("x/(y - 2)"), _xyz())
    @example(ex.parse("x/2"), _xyz())
    @example(ex.parse("2/x"), _xyz(x=-0.0))
    @example(ex.parse("x/0"), _xyz())
    @example(ex.parse("x/-0.0"), _xyz())
    @example(ex.parse("0/x"), _xyz(x=0.0))
    @example(ex.parse("unbound/0"), _xyz())
    @example(ex.parse("unbound/y"), _xyz(y=0.0))
    @example(ex.parse("-x"), _xyz(x=0.0))
    @example(ex.parse("-unbound"), _xyz())
    @example(ex.parse("sin(x)"), _xyz())
    @example(ex.parse("log(x)"), _xyz(x=-1.0))
    @example(ex.parse("Piecewise((x, x > 1e-8), (0, True))"), _xyz(x=1e-9))
    @example(ex.parse("unbound*(x/0)"), _xyz())
    @example(ex.parse("(x/0)*unbound"), _xyz())
    def test_same_bits_or_same_error(self, node, env):
        assert _outcome(lambda: ex.evaluate(node, env)) == \
            _outcome(lambda: _walk(node, env))

    def test_nan_times_nan_is_one_outcome_on_every_call(self):
        """NaN*NaN of opposite signs, 30 times in one process: CPython's
        float multiply gives its NaN either sign once it is specialized."""
        node, env = ex.parse("x*y"), _xyz(x=math.nan, y=-math.nan)
        for _ in range(30):
            assert _outcome(lambda: ex.evaluate(node, env)) == \
                _outcome(lambda: _walk(node, env))

    # A NaN that a subtree computes raises as an operand of a comparison,
    # Min or Max, or of a ** that would give 1; a NaN leaf (only a test's
    # env holds one) is read as it is, and elsewhere a NaN propagates.
    @settings(max_examples=300, deadline=None)
    @given(_TREES, st.fixed_dictionaries(
        {"x": _SPECIAL_FLOATS, "y": _SPECIAL_FLOATS, "z": _SPECIAL_FLOATS}))
    @example(ex.parse("Max(0, x*y)"), _xyz(x=math.inf, y=0.0))
    @example(ex.parse("Max(x*y, 0)"), _xyz(x=math.inf, y=0.0))
    @example(ex.parse("Min(x - x, 5)"), _xyz(x=math.inf))
    @example(ex.parse("Min(5, x - x)"), _xyz(x=math.inf))
    @example(ex.parse("Min(5, x)"), _xyz(x=math.nan))
    @example(ex.parse("Piecewise((1, x - x > 0), (2, True))"), _xyz(x=math.inf))
    @example(ex.parse("Piecewise((1, 0 < x - x), (2, True))"), _xyz(x=math.inf))
    @example(ex.parse("Piecewise((1, x > y), (2, True))"), _xyz(x=math.nan))
    @example(ex.parse("(x - x)**0"), _xyz(x=math.inf))
    @example(ex.parse("1**(x - x)"), _xyz(x=math.inf))
    @example(ex.parse("(x - x)**y"), _xyz(x=math.inf, y=0.0))
    @example(ex.parse("(x - x)**2"), _xyz(x=math.inf))
    @example(ex.parse("x**0"), _xyz(x=math.nan))
    @example(ex.parse("Max(0, 1e308*10 - 1e308*10)"), _xyz())
    @example(ex.parse("Piecewise((1, 1e308*10 - 1e308*10 > x), (2, True))"), _xyz())
    def test_nan_operands_same_bits_or_same_error(self, node, env):
        assert _outcome(lambda: ex.evaluate(node, env)) == \
            _outcome(lambda: _walk(node, env))

    # Mostly literals, so that most subtrees are folded at load: one leaf in
    # five is a symbol. A subtree that raises must still raise when it is
    # evaluated, after what is left of it and before what is right of it.
    @settings(max_examples=500, deadline=None)
    @given(st.recursive(
        st.integers(0, 4).flatmap(lambda n: _SYMBOL_LEAVES if n == 4 else _LITERAL_LEAVES),
        _extend, max_leaves=12),
        st.fixed_dictionaries({"x": _ENV_FLOATS, "y": _ENV_FLOATS}))
    @example(ex.parse("1/0 + x"), {"x": 1.0, "y": 1.0})
    @example(ex.parse("1/0 + unbound"), {"x": 1.0, "y": 1.0})
    @example(ex.parse("x + 0**-1"), {"x": 1.0, "y": 1.0})
    @example(ex.parse("unbound + 0**-1"), {"x": 1.0, "y": 1.0})
    @example(ex.parse("exp(1000)*x"), {"x": 1.0, "y": 1.0})
    @example(ex.parse("-(0.0)*x"), {"x": 1.0, "y": 1.0})
    @example(ex.parse("-(0.0)*x"), {"x": -0.0, "y": 1.0})
    @example(ex.parse("pi/4"), {"x": 1.0, "y": 1.0})
    @example(ex.parse("2 + 3"), {"x": 1.0, "y": 1.0})
    @example(ex.parse("2 - 3"), {"x": 1.0, "y": 1.0})
    @example(ex.parse("2*3"), {"x": 1.0, "y": 1.0})
    @example(ex.parse("1/4"), {"x": 1.0, "y": 1.0})
    @example(ex.parse("Piecewise((x, 2 > 1), (0, True))"), {"x": 1.0, "y": 1.0})
    @example(ex.parse("2/0"), {"x": 1.0, "y": 1.0})
    @example(ex.parse("(x + 1)/0"), {"x": 1.0, "y": 1.0})
    def test_folded_trees_same_bits_or_same_error(self, node, env):
        assert _outcome(lambda: ex.evaluate(node, env)) == \
            _outcome(lambda: _walk(node, env))

    @pytest.mark.parametrize("text, env, message", [
        ("x/y", {"x": 1.0, "y": 0.0}, "division by zero in x/y"),
        ("x/(y - 1)", {"x": 1.0, "y": 1.0}, "division by zero in x/(y - 1)"),
        ("x**y", {"x": 10.0, "y": 400.0}, "overflow in x**y"),
        ("x**y", {"x": -8.0, "y": 0.5}, "complex result in x**y"),
        ("x**y", {"x": 0.0, "y": -1.0}, "zero raised to negative power in x**y"),
        ("asin(x)", {"x": 2.0}, "asin: math domain error"),
        ("exp(x)", {"x": 1000.0}, "overflow in exp"),
        ("cot(x)", {"x": 0.0}, "cot undefined at 0.0"),
        ("log(x)", {"x": -1.0}, "log of non-positive value -1.0"),
        ("sqrt(x)", {"x": -1.0}, "sqrt of negative value -1.0"),
    ])
    def test_math_domain_messages(self, text, env, message):
        with pytest.raises(MathDomain) as err:
            ex.evaluate(ex.parse(text), env)
        assert str(err.value) == message

    # sqrt and log at each edge of their domain: the message, or the value
    # when there is no error, as the evaluator gave them when its own
    # guards wrote these messages; now they come from its table.
    @pytest.mark.parametrize("func, x, expected", [
        ("sqrt", -1.0, "sqrt of negative value -1.0"),
        ("sqrt", -0.0, -0.0),
        ("sqrt", -5e-324, "sqrt of negative value -5e-324"),
        ("sqrt", -math.inf, "sqrt of negative value -inf"),
        ("sqrt", math.nan, math.nan),
        ("log", -1.0, "log of non-positive value -1.0"),
        ("log", -0.0, "log of non-positive value -0.0"),
        ("log", -5e-324, "log of non-positive value -5e-324"),
        ("log", -math.inf, "log of non-positive value -inf"),
        ("log", 0.0, "log of non-positive value 0.0"),
        ("log", math.nan, math.nan),
    ])
    @pytest.mark.parametrize("form", ["{}(x)", "{}(1*x)"], ids=["symbol", "closure"])
    def test_sqrt_and_log_edges(self, func, x, expected, form):
        node = ex.parse(form.format(func))
        if isinstance(expected, str):
            with pytest.raises(MathDomain) as err:
                ex.evaluate(node, {"x": x})
            assert str(err.value) == expected
        else:
            got = ex.evaluate(node, {"x": x})
            assert struct.pack("<d", got) == struct.pack("<d", expected)

    def test_unbound_and_no_branch_messages(self):
        with pytest.raises(UnboundSymbol) as err:
            ex.evaluate(ex.parse("x + w"), {"x": 1.0})
        assert str(err.value) == "symbol 'w' is not bound in the environment"
        with pytest.raises(NoBranchTaken) as err:
            ex.evaluate(ex.parse("Piecewise((1, x > 0))"), {"x": -1.0})
        assert str(err.value) == "no Piecewise condition evaluated to true"


def _bits_or_error_class(fn):
    try:
        value = fn()
    except Exception as exc:
        return type(exc)
    return _bits(value)


class TestPrintedTreesComputeTheSame:
    """``to_text`` prints every tree, negative and signed-zero literals
    included, as text whose compiled tree gives the same bits or the same
    error class; and a tree the parser built prints back to itself."""

    @settings(max_examples=300, deadline=None)
    @given(st.recursive(_TREES_LEAVES, lambda c: _extend(c, min_args=2), max_leaves=12),
           st.fixed_dictionaries({"x": _ENV_FLOATS, "y": _ENV_FLOATS, "z": _ENV_FLOATS}))
    @example(ex.Binary("**", ex.Number(-2.0), ex.Number(2.0)), _xyz())
    @example(ex.Binary("**", ex.Number(-0.0), ex.Number(2.0)), _xyz())
    @example(ex.Unary("-", ex.Binary("**", ex.Number(-8.0), ex.Number(0.5))), _xyz())
    @example(ex.Binary("**", ex.Symbol("x"), ex.Number(-2.0)), _xyz())
    @example(ex.Binary("-", ex.Number(-0.0), ex.Unary("-", ex.Number(-0.0))), _xyz())
    def test_same_bits_or_same_error_class(self, node, env):
        reparsed = ex.parse(ex.to_text(node))
        assert _bits_or_error_class(lambda: ex.compile_expr(reparsed)(env)) == \
            _bits_or_error_class(lambda: ex.compile_expr(node)(env))
        assert ex.parse(ex.to_text(reparsed)) == reparsed

    def test_negative_base_is_parenthesized(self):
        assert ex.to_text(ex.Binary("**", ex.Number(-2.0), ex.Number(2.0))) == "(-2)**2"


# ------------------------------------------------- tokenizer equivalence ----
#
# ``_oracle_tokenize`` is the tokenizer as first written, a character loop,
# copied here with its logic unchanged as the oracle: ``ex._tokenize`` must
# give the same tokens, or raise the same exception type with the same
# message.

def _oracle_tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if "0" <= c <= "9" or (c == "." and i + 1 < n
                                 and "0" <= text[i + 1] <= "9"):
            start = i
            while i < n and "0" <= text[i] <= "9":
                i += 1
            if i < n and text[i] == ".":
                i += 1
                while i < n and "0" <= text[i] <= "9":
                    i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and "0" <= text[j] <= "9":
                    i = j
                    while i < n and "0" <= text[i] <= "9":
                        i += 1
            value = float(text[start:i])
            if math.isinf(value):
                raise ParseError(start, f"number {text[start:i]!r} is out of range")
            tokens.append(("num", value, start))
            continue
        if ("a" <= c <= "z") or ("A" <= c <= "Z") or c == "_":
            start = i
            while i < n and (("a" <= text[i] <= "z") or ("A" <= text[i] <= "Z")
                             or "0" <= text[i] <= "9" or text[i] == "_"):
                i += 1
            name = text[start:i]
            if "__" in name:
                raise DisallowedSyntax(f"double-underscore identifier {name!r}")
            if name in ex._RESERVED:
                raise DisallowedSyntax(f"reserved word {name!r}")
            tokens.append(("name", name, start))
            continue
        if c == "*" and i + 1 < n and text[i + 1] == "*":
            tokens.append(("op", "**", i))
            i += 2
            continue
        if c in "><=" and i + 1 < n and text[i + 1] == "=":
            op = c + "="
            tokens.append(("op", "=" if op == "==" else op, i))
            i += 2
            continue
        if c in "+-*/(),><=":
            tokens.append(("op", c, i))
            i += 1
            continue
        if c == ".":
            raise DisallowedSyntax("attribute access ('.') is not part of the language")
        if c in "\"'":
            raise DisallowedSyntax("string literals are not part of the language")
        if c in "[]":
            raise DisallowedSyntax("indexing is not part of the language")
        raise DisallowedSyntax(f"character {c!r} is not part of the language")
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return ("tokens", tokenize(text))
    except Exception as exc:  # host exceptions must match too
        return ("raised", type(exc), str(exc))


_TEXT_PIECES = st.sampled_from([
    "0", "1", "9", "12", ".", "e", "E", "+", "-", "e+", "E-", "1e", "1e+",
    "2.5", ".5", "1e999", "1E-999", "*", "**", "/", "(", ")", ",", ">", ">=",
    "<", "<=", "=", "==", "!", "'", '"', "[", "]", "{", "@", "_", "__", "x",
    "x_1", "pi", "True", "if", "None", "lambda", "eval", "Min", " ", "\t",
    "\n", "\r", "\x0b", "\x1c", "\u00a0", "\u2003", "\u00e9", "\u00df",
    "\u00b2", "\u0663", "\uff11",
])


class TestTokenizerMatchesOracle:
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.text(max_size=30),
                     st.lists(_TEXT_PIECES, max_size=30).map("".join)))
    def test_same_tokens_or_same_error(self, text):
        assert _tokens_or_error(ex._tokenize, text) == \
            _tokens_or_error(_oracle_tokenize, text)
