"""The plain records keep the behaviour of the dataclasses they replace:
the same repr, field-wise equality only within one type, a hash and a
refused assignment when frozen, fields left out of equality where they
were ``compare=False``, and the same defaults."""

from fractions import Fraction

import pytest

from geocard import expression as ex
from geocard.cards import (DimensionFinding, EquationSpec, MethodCard, Source,
                           VariableSpec, VariantSpec)
from geocard.catalog import Catalog
from geocard.engine import EvaluationRequest, EvaluationTrace
from geocard.skills import Reference, Skill, SkillLibrary, SkillMatch
from geocard.units import Dimension, Quantity, Unit

LENGTH = Dimension(Fraction(1))
M_REPR = ("Unit(name='m', dimension=Dimension(length=Fraction(1, 1), "
          "mass=Fraction(0, 1), time=Fraction(0, 1), angle=Fraction(0, 1)), "
          "scale=1.0)")


def metre():
    return Unit("m", Dimension(Fraction(1)), 1.0)


def card(**hidden):
    """A small card; ``hidden`` replaces fields left out of equality."""
    fields = {"units": {"x": metre()}, "input_keys": frozenset({"x"}),
              "param_defaults": {}, "output_keys": (), **hidden}
    return MethodCard("C", "T", "cat", "d",
                      (VariableSpec("x", "x", "input", "m"),),
                      (VariantSpec("v", "V", ()),), ("a",), (), (Source("S"),),
                      **fields)


def trace(**changes):
    c = card()
    fields = {"card": c, "variant": c.variants[0], "env": {"x": 1.0},
              "request_inputs": {"x": "1 m"}, "request_overrides": {},
              "outputs": {"x": Quantity(1.0, metre())},
              "diagnostics": {"iterative_cycles": []}, **changes}
    return EvaluationTrace(**fields)


# (build, the repr the dataclass printed, frozen)
RECORDS = {
    "Dimension": (lambda: Dimension(Fraction(1), Fraction(2, 3)),
                  "Dimension(length=Fraction(1, 1), mass=Fraction(2, 3), "
                  "time=Fraction(0, 1), angle=Fraction(0, 1))", True),
    "Unit": (metre, M_REPR, True),
    "Quantity": (lambda: Quantity(2.5, metre()),
                 f"Quantity(magnitude=2.5, unit={M_REPR})", True),
    "Number": (lambda: ex.Number(1.5), "Number(value=1.5)", True),
    "Constant": (lambda: ex.Constant("pi"), "Constant(name='pi')", True),
    "Symbol": (lambda: ex.Symbol("x"), "Symbol(name='x')", True),
    "Unary": (lambda: ex.Unary("-", ex.Symbol("x")),
              "Unary(op='-', operand=Symbol(name='x'))", True),
    "Binary": (lambda: ex.Binary("+", ex.Number(1.0), ex.Symbol("x")),
               "Binary(op='+', left=Number(value=1.0), right=Symbol(name='x'))",
               True),
    "Call": (lambda: ex.Call("sin", (ex.Symbol("x"),)),
             "Call(func='sin', args=(Symbol(name='x'),))", True),
    "Piecewise": (lambda: ex.Piecewise(((ex.Number(1.0), ex.BoolLiteral(True)),)),
                  "Piecewise(branches=((Number(value=1.0), "
                  "BoolLiteral(value=True)),))", True),
    "Comparison": (lambda: ex.Comparison(">", ex.Symbol("x"), ex.Number(0.0)),
                   "Comparison(op='>', left=Symbol(name='x'), "
                   "right=Number(value=0.0))", True),
    "BoolLiteral": (lambda: ex.BoolLiteral(True), "BoolLiteral(value=True)", True),
    "VariableSpec": (lambda: VariableSpec("k", "k", "param", "dimensionless",
                                          "a factor", 2.0),
                     "VariableSpec(key='k', name='k', role='param', "
                     "unit='dimensionless', description='a factor', default=2.0)",
                     True),
    "EquationSpec": (lambda: EquationSpec("y", "2*x", "double", ex.parse("2*x"),
                                          ("x",)),
                     "EquationSpec(target='y', sympy='2*x', description='double')",
                     True),
    "VariantSpec": (lambda: VariantSpec("v", "V", ()),
                    "VariantSpec(id='v', title='V', equations=())", True),
    "Source": (lambda: Source("Book", "https://x"),
               "Source(title='Book', url='https://x')", True),
    "MethodCard": (card,
                   "MethodCard(id='C', title='T', category='cat', description='d', "
                   "variables=(VariableSpec(key='x', name='x', role='input', "
                   "unit='m', description=None, default=None),), "
                   "variants=(VariantSpec(id='v', title='V', equations=()),), "
                   "assumptions=('a',), applicability=(), "
                   "sources=(Source(title='S', url=None),))", True),
    "DimensionFinding": (lambda: DimensionFinding("v", "y", "bad"),
                         "DimensionFinding(variant_id='v', target='y', "
                         "message='bad')", True),
    "Catalog": (Catalog, "Catalog(cards={}, diagnostics=[], warnings=[])", False),
    "EvaluationRequest": (lambda: EvaluationRequest("C", "v", {"x": 1.0}, {"k": 2.0}),
                          "EvaluationRequest(card_id='C', variant_id='v', "
                          "inputs={'x': 1.0}, overrides={'k': 2.0})", False),
    "EvaluationTrace": (trace,
                        "EvaluationTrace(env={'x': 1.0}, request_inputs={'x': '1 m'}, "
                        "request_overrides={}, outputs={'x': Quantity(magnitude=1.0, "
                        f"unit={M_REPR})}}, diagnostics={{'iterative_cycles': []}})",
                        False),
    "Reference": (lambda: Reference("a.md", "text"),
                  "Reference(filename='a.md', text='text')", True),
    "Skill": (lambda: Skill("n", "d", "1", "c", "body", (Reference("a.md", "t"),)),
              "Skill(name='n', description='d', version='1', category='c', "
              "body='body', references=(Reference(filename='a.md', text='t'),))",
              True),
    "SkillMatch": (lambda: SkillMatch("n", 0.5, ("a",)),
                   "SkillMatch(name='n', score=0.5, matched_terms=('a',))", True),
    "SkillLibrary": (SkillLibrary,
                     "SkillLibrary(skills={}, diagnostics=[], warnings=[])", False),
}


@pytest.mark.parametrize("name", RECORDS)
class TestEveryRecord:
    def test_repr(self, name):
        build, text, _ = RECORDS[name]
        assert type(build()).__name__ == name
        assert repr(build()) == text

    def test_equal_records(self, name):
        build, _, frozen = RECORDS[name]
        a, b = build(), build()
        assert a is not b and a == b and not a != b
        if frozen:
            assert hash(a) == hash(b)
        else:
            with pytest.raises(TypeError):
                hash(a)

    def test_another_type_is_never_equal(self, name):
        build, _, _ = RECORDS[name]
        record = build()
        others = [other() for key, (other, _, _) in RECORDS.items() if key != name]
        assert all(record != other and not record == other for other in others)
        assert record != repr(record) and record != ()

    def test_assignment(self, name):
        build, _, frozen = RECORDS[name]
        record = build()
        field = type(record).__slots__[0]
        value = getattr(record, field)
        if frozen:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
                setattr(record, field, value)
            with pytest.raises(AttributeError):
                delattr(record, field)
        else:
            setattr(record, field, value)
        assert getattr(record, field) is value
        with pytest.raises(AttributeError):
            record.not_a_field = 1


def test_equal_fields_of_another_type_are_not_equal():
    assert ex.Symbol("pi") != ex.Constant("pi")
    assert ex.Number(1.0) != ex.BoolLiteral(1.0)
    assert ex.Binary(">", ex.Symbol("x"), ex.Number(0.0)) != ex.Comparison(
        ">", ex.Symbol("x"), ex.Number(0.0))
    assert len({ex.Symbol("x"), ex.Symbol("x"), ex.Constant("x")}) == 2


def test_each_compared_field_counts():
    assert Quantity(1.0, metre()) != Quantity(2.0, metre())
    assert Unit("m", LENGTH, 1.0) != Unit("mm", LENGTH, 1e-3)
    assert VariableSpec("x", "x", "input", "m") != VariableSpec("x", "x", "input", "mm")
    assert EquationSpec("y", "x", "a") != EquationSpec("y", "x", "b")
    assert trace() != trace(env={"x": 2.0})


class TestFieldsLeftOutOfEquality:
    def test_equation_spec(self):
        plain = EquationSpec("y", "2*x")
        parsed = EquationSpec("y", "2*x", None, ex.parse("2*x"), ("x",),
                              ex.compile_expr(ex.parse("2*x")))
        assert plain == parsed and hash(plain) == hash(parsed)

    def test_variant_spec(self):
        eq = EquationSpec("y", "2*x")
        assert VariantSpec("v", "V", (eq,)) == VariantSpec("v", "V", (eq,), (eq,), ())

    def test_method_card(self):
        a = card()
        b = card(units={}, input_keys=frozenset(), param_defaults={"k": 1.0},
                 output_keys=("x",))
        b.trace_templates["v"] = object()
        assert a == b and hash(a) == hash(b)

    def test_evaluation_trace_card_is_compared(self):
        a = trace()
        other = MethodCard("D", "T", "cat", "d", a.card.variables, a.card.variants,
                           (), (), a.card.sources, {}, frozenset(), {}, ())
        assert a != trace(card=other)
        assert repr(a) == repr(trace(card=other))


class TestDefaults:
    def test_dimension(self):
        zero = Fraction(0)
        assert Dimension() == Dimension(zero, zero, zero, zero)
        assert Dimension(angle=Fraction(1)).length == 0

    def test_optional_fields(self):
        v = VariableSpec("x", "x", "input", "m")
        assert (v.description, v.default) == (None, None)
        eq = EquationSpec("y", "x")
        assert (eq.description, eq.expr, eq.symbols, eq.compiled) == (None, None, (), None)
        variant = VariantSpec("v", "V", ())
        assert (variant.direct, variant.iterative) == ((), ())
        assert Source("S").url is None
        assert Skill("n", "d", "1", "c", "b").references == ()

    def test_fresh_containers(self):
        for make in (Catalog, SkillLibrary):
            a, b = make(), make()
            assert a.diagnostics == [] and a.diagnostics is not b.diagnostics
            assert a.warnings == [] and a.warnings is not b.warnings
        assert Catalog().cards is not Catalog().cards
        assert SkillLibrary().skills is not SkillLibrary().skills
        r1, r2 = EvaluationRequest("C", "v", {}), EvaluationRequest("C", "v", {})
        assert r1.overrides == {} and r1.overrides is not r2.overrides

    def test_each_card_gets_its_own_template_memo(self):
        a, b = card(), card()
        assert a.trace_templates == {} and a.trace_templates is not b.trace_templates

    def test_unit_scale_must_be_positive(self):
        with pytest.raises(ValueError, match="positive scale"):
            Unit("bad", LENGTH, 0.0)

    def test_arguments_are_checked(self):
        with pytest.raises(TypeError):
            Quantity(1.0)
        with pytest.raises(TypeError):
            ex.Symbol("x", "y")
        with pytest.raises(TypeError):
            VariableSpec("x", "x", "input", "m", colour="red")
