"""``stage_walk`` against ``evaluate_card``: staging refuses an input both
fixed and free and raises what ``evaluate_card`` raises before it
normalizes a free input, and a walk then returns and raises exactly what
``evaluate_card`` does for the fixed inputs with the free ones added, for
every bundled variant and the benchmark's cyclic card, whatever inputs are
free, faults included; and so does running the steps ``stage_walk``
returns as an EC7 trial runs them, falling back on the walk. The steps
bound when the card is staged, and those each walk runs, are read by
spying on ``_walk``; those of an EC7 trial, which runs its steps itself,
by wrapping each step's closure."""

import collections
import dataclasses
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import geocard.ec7
import geocard.engine
from geocard.cards import load_card
from geocard.catalog import load_catalog
from geocard.ec7 import (check_footing_uls_ec7, design_footing_width_ec7,
                         load_bundled_scenario)
from geocard.engine import EvaluationRequest, evaluate_card, stage_walk
from geocard.errors import GeocardError, UnexpectedInput
from geocard.record import set_field
from geocard.units import Quantity, default_registry
from test_golden_traces import _requests

CATALOG = load_catalog()
BENCH_CYCLIC = load_card(
    (Path(__file__).parents[1] / "perfbench/cyclic_card.json").read_text("utf-8"))

# (card, variant id, valid unit-tagged inputs), one per variant.
VARIANTS = [(CATALOG.get_method(card_id), variant, sets[0][0])
            for card_id, variant, sets in _requests(default_registry().resolve("mm"))]
VARIANTS.append((BENCH_CYCLIC, "coupled", {"p": "100 kPa", "a": 20.0}))
EC7 = CATALOG.get_method("BEARING_CAPACITY_EUROCODE7")


def plain(card, variant, inputs):
    return lambda: evaluate_card(card, EvaluationRequest(card.id, variant, inputs))


def staged(card, variant, fixed, free):
    """The staged variant as one call: ``trace(values, *walk(values))``."""
    walk, trace, _ = stage_walk(card, variant, fixed, free)
    return lambda values: trace(values, *walk(values))


def straight(card, variant, fixed, free):
    """The staged variant as an EC7 trial runs it: its steps one by one on
    a copy of the staged env, when every free value is a finite float and
    no step faults; otherwise ``walk``."""
    walk, trace, steps = stage_walk(card, variant, fixed, free)

    def call(values):
        if steps is not None and all(type(v) is float and math.isfinite(v)
                                     for v in values.values()):
            env = {**steps[0], **values}
            for target, step in steps[1]:
                try:
                    value = step(env)
                except GeocardError:
                    break
                if not math.isfinite(value):
                    break
                env[target] = value
            else:
                return trace(values, env, ())
        return trace(values, *walk(values))
    return call


def valid_inputs(card, variant) -> dict:
    return next(inputs for c, v, inputs in VARIANTS if c is card and v == variant)


def fault(exc: GeocardError) -> tuple:
    """Everything a caller can read of a fault."""
    partial = exc.partial_trace
    return ("fault", type(exc), str(exc), exc.failed_step,
            None if partial is None else (partial.to_json(), partial.env))


def outcome(evaluate):
    """Everything a caller can read of an evaluation or of its fault."""
    try:
        trace = evaluate()
    except GeocardError as exc:
        return fault(exc)
    return ("trace", trace.to_json(), trace.to_dict(), trace.env,
            {k: (q.magnitude, q.unit.name) for k, q in trace.outputs.items()})


def value(card, key):
    """A drawn input value: in range, at a domain edge, in another unit, of
    the wrong dimension, or not a quantity; any float for a key the card
    does not declare."""
    if key not in card.units:
        return st.floats(-5.0, 60.0)
    unit = card.units[key].name
    return st.one_of(
        st.floats(-5.0, 60.0),
        st.sampled_from([0.0, -1.0, math.pi / 2, 1e300, 5e-324, math.nan, math.inf,
                         -math.inf]),
        st.floats(0.1, 50.0).map(lambda x: f"{x!r} {unit}"),
        st.floats(0.1, 50.0).map(lambda x: Quantity(x, card.units[key])),
        st.sampled_from(["1 kN", "twelve", True]),
    )


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_staged_calls_match_evaluate_card(self, data):
        card, variant, valid = data.draw(st.sampled_from(VARIANTS))
        keys = sorted(card.input_keys)
        free = data.draw(st.sets(st.sampled_from([*keys, "k_extra"])))
        overlap = data.draw(st.integers(0, 4)) == 0  # a free input also fixed
        # Most fixed inputs keep their valid value, so most stagings succeed.
        fixed = {k: data.draw(value(card, k)) if data.draw(st.integers(0, 3)) == 0
                 else valid[k] for k in keys if overlap or k not in free}
        if fixed and data.draw(st.integers(0, 9)) == 0:  # an input neither fixed nor free
            del fixed[data.draw(st.sampled_from(sorted(fixed)))]
        try:
            calls, at_staging = [stage(card, variant, fixed, free)
                                 for stage in (staged, straight)], None
        except GeocardError as exc:
            calls, at_staging = [], fault(exc)
        if free & fixed.keys():  # no walk may read a fixed value it replaces
            assert at_staging == fault(UnexpectedInput(free & fixed.keys()))
            return
        for _ in range(data.draw(st.integers(1, 4))):
            values = {k: data.draw(st.one_of(st.just(valid.get(k, 1.0)), value(card, k)))
                      for k in free}
            expected = outcome(plain(card, variant, {**fixed, **values}))
            if at_staging is not None:
                assert at_staging == expected
            for call in calls:
                assert outcome(lambda: call(values)) == expected

    @pytest.mark.parametrize("order", [("gamma", "B"), ("B", "gamma")])
    def test_first_bad_free_value_in_call_order_raises(self, order):
        """Two free values that do not normalize: the error is the first's
        in the call's order, as in ``evaluate_card``, whatever order the
        staged card keeps its free keys in."""
        fixed = {k: v for k, v in valid_inputs(EC7, "drained").items()
                 if k not in order}
        call = staged(EC7, "drained", fixed, order)
        values = dict.fromkeys(order, "1 kPa")
        expected = outcome(plain(EC7, "drained", {**fixed, **values}))
        assert outcome(lambda: call(values)) == expected
        assert expected[0] == "fault"
        assert expected[2].endswith(
            f"-> {EC7.units[order[0]].name}) for input {order[0]!r}")


@pytest.fixture
def walks(monkeypatch):
    """The direct steps of each ``_walk``, in call order."""
    walked = []
    walk = geocard.engine._walk

    def spy(direct, block, env):
        walked.append([eq.target for eq in direct])
        return walk(direct, block, env)
    monkeypatch.setattr(geocard.engine, "_walk", spy)
    return walked


class TestWhatIsBound:
    """The direct steps bound at staging and walked by each call."""

    @pytest.mark.parametrize("variant, free, bound, rest", [
        ("drained", ["gamma", "B"], ["N_q", "N_c", "N_gamma"],
         ["s_q", "s_gamma", "s_c", "q_ult"]),
        ("drained", [], ["N_q", "N_c", "N_gamma", "s_q", "s_gamma", "s_c", "q_ult"], []),
        ("drained", ["phi_prime_d"], [],
         ["N_q", "N_c", "N_gamma", "s_q", "s_gamma", "s_c", "q_ult"]),
        ("undrained", ["B"], [], ["s_c", "q_ult"]),
    ], ids=["leading-run", "whole-plan", "empty-prefix", "first-step-reads-B"])
    def test_leading_run_is_bound_when_staged(self, walks, variant, free, bound,
                                              rest):
        valid = valid_inputs(EC7, variant)
        call = staged(EC7, variant,
                      {k: v for k, v in valid.items() if k not in free}, free)
        assert walks == [bound]
        values = {k: valid[k] for k in free}
        for _ in range(3):
            call(values)
        assert walks == [bound, rest, rest, rest]

    @pytest.mark.parametrize("variant, change, free", [
        ("nope", {}, ["B"]),
        ("drained", {"phi_prime_d": "1 kPa"}, ["B"]),
        ("drained", {}, ["B", "k_extra"]),
        ("drained", {"L": None}, ["B"]),
    ], ids=["unknown-variant", "fixed-input-does-not-normalize",
            "free-key-no-input", "input-neither-fixed-nor-free"])
    def test_staging_raises_what_evaluate_card_raises(self, walks, variant,
                                                      change, free):
        fixed = {k: v for k, v in {**valid_inputs(EC7, "drained"), **change}.items()
                 if k not in free and v is not None}
        with pytest.raises(GeocardError) as staging:
            stage_walk(EC7, variant, fixed, free)
        for width in (1.0, 2.0):
            expected = outcome(plain(EC7, variant, {**fixed, **dict.fromkeys(free, width)}))
            assert fault(staging.value) == expected
        assert walks == []

    @pytest.mark.parametrize("fixed_b", ["2 m", "1 kPa"], ids=["valid", "bad"])
    def test_input_both_fixed_and_free_raises_at_staging(self, walks, fixed_b):
        """A fixed value that a walk's free value would replace is refused,
        before the fixed values are normalized."""
        fixed = {**valid_inputs(EC7, "drained"), "B": fixed_b}
        with pytest.raises(UnexpectedInput) as staging:
            stage_walk(EC7, "drained", fixed, ["gamma", "B"])
        assert str(staging.value) == "unexpected input key(s): B, gamma"
        assert walks == []

    def test_fault_in_the_leading_run_walks_the_whole_plan(self, walks):
        """The fault binds nothing: each walk walks the plan from its first
        step and raises the fault with its own partial trace."""
        fixed = {k: v for k, v in valid_inputs(EC7, "drained").items() if k != "B"}
        fixed["phi_prime_d"] = math.pi / 2
        widths = (1.0, 2.0, 3.0)
        expected = [outcome(plain(EC7, "drained", {**fixed, "B": width}))
                    for width in widths]
        assert all(faulted[0] == "fault" for faulted in expected)
        walks.clear()
        call = staged(EC7, "drained", fixed, ["B"])
        assert [outcome(lambda: call({"B": width})) for width in widths] == expected
        # No walk starts past the first step: none runs from a bound env.
        assert all(walked[:1] == ["N_q"] for walked in walks)
        assert walks == [["N_q", "N_c", "N_gamma"]] + [
            [eq.target for eq in EC7.variant("drained").direct]] * 3


class TestWhatTheWidthSearchWalks:
    """The EC7 check stages the Annex D card once: the bearing capacity
    factors are evaluated once per check or design, and each trial evaluates
    only the steps that read the width or the unit weight below the base.
    A trial runs those steps itself, so the spy wraps each step's closure
    in a catalog of its own."""

    FACTORS = ["N_q", "N_c", "N_gamma"]
    TRIAL = ["s_q", "s_gamma", "s_c", "q_ult"]

    @pytest.fixture
    def evaluated(self):
        """A fresh catalog whose EC7 steps log their targets, and the log."""
        catalog, calls = load_catalog(), []

        def spy(target, compiled):
            def step(env):
                calls.append(target)
                return compiled(env)
            return step
        for variant in catalog.get_method(EC7.id).variants:
            for eq in variant.direct:
                set_field(eq, "compiled", spy(eq.target, eq.compiled))
        return catalog, calls

    def test_design_walks_the_factors_once(self, evaluated):
        catalog, calls = evaluated
        result = design_footing_width_ec7(load_bundled_scenario(), "DA1-C2",
                                          catalog=catalog)
        trials = (len(calls) - len(self.FACTORS)) // len(self.TRIAL)
        assert calls == self.FACTORS + self.TRIAL * trials
        assert trials >= result.iterations + 2  # the bracket's ends, then each halving

    def test_single_check_walks_the_bound_run_then_the_rest(self, evaluated):
        catalog, calls = evaluated
        check_footing_uls_ec7(load_bundled_scenario(), "DA1-C2", 1.5, catalog=catalog)
        assert calls == self.FACTORS + self.TRIAL


class TestWhatTheWidthSearchBuilds:
    """A trial computes the utilization only: a check, and a design, build
    one trace and one check result, at the width they return."""

    @pytest.fixture
    def built(self, monkeypatch):
        counts = collections.Counter()

        def counting(kind, make):
            def build(*args, **kwargs):
                counts[kind] += 1
                return make(*args, **kwargs)
            return build
        monkeypatch.setattr(geocard.engine, "EvaluationTrace",
                            counting("trace", geocard.engine.EvaluationTrace))
        monkeypatch.setattr(geocard.ec7, "UlsCheckResult",
                            counting("check", geocard.ec7.UlsCheckResult))
        return counts

    @pytest.mark.parametrize("drainage", ["drained", "undrained"])
    def test_design_builds_one_of_each(self, built, drainage):
        scenario = dataclasses.replace(load_bundled_scenario(), c_u_k=150.0)
        result = design_footing_width_ec7(scenario, "DA1-C2", tolerance=1e-6,
                                          catalog=CATALOG, drainage=drainage)
        assert result.iterations > 10
        assert built == {"trace": 1, "check": 1}

    def test_check_builds_one_of_each(self, built):
        check_footing_uls_ec7(load_bundled_scenario(), "DA2", 1.5, catalog=CATALOG)
        assert built == {"trace": 1, "check": 1}
