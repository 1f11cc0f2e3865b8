"""``stage`` and the EC7 trial against ``evaluate_card``: a trial runs the
steps ``stage`` returns on a copy of its env when every free value is a
finite float, and falls back on ``evaluate_card`` otherwise, at a step
that raises or gives a non-finite value, and where ``stage`` returns None.
Its outcome is exactly ``evaluate_card``'s for the fixed inputs with the
free ones added, for every bundled variant and the benchmark's cyclic
card, whatever inputs are free, faults included; and ``stage`` raises
nothing. The steps bound when the card is staged are read by spying on
``_walk``; those of an EC7 trial, which runs its steps itself, by wrapping
each step's closure."""

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
from geocard.engine import EvaluationRequest, EvaluationTrace, evaluate_card, stage
from geocard.errors import GeocardError
from geocard.units import Quantity, default_registry, to_magnitude
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


def trial(card, variant, fixed, staged):
    """The variant as an EC7 trial runs it from ``staged``, what ``stage``
    returned: the steps one by one on a copy of the staged env, when every
    free value is a finite float and no step faults; otherwise
    ``evaluate_card``."""
    def call(values):
        if staged is not None and all(type(v) is float and math.isfinite(v)
                                      for v in values.values()):
            spec, env, steps = staged
            env = {**env, **values}
            for target, step in steps:
                try:
                    value = step(env)
                except GeocardError:
                    break
                if not math.isfinite(value):
                    break
                env[target] = value
            else:
                return EvaluationTrace(card, spec, env, {**fixed, **values}, {},
                                       {"iterative_cycles": []})
        return plain(card, variant, {**fixed, **values})()
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
    def test_trial_matches_evaluate_card(self, data):
        card, variant, valid = data.draw(st.sampled_from(VARIANTS))
        keys = sorted(card.input_keys)
        free = data.draw(st.sets(st.sampled_from([*keys, "k_extra"])))
        overlap = data.draw(st.integers(0, 4)) == 0  # a free input also fixed
        # Most fixed inputs keep their valid value, so most stagings succeed.
        fixed = {k: data.draw(value(card, k)) if data.draw(st.integers(0, 3)) == 0
                 else valid[k] for k in keys if overlap or k not in free}
        if fixed and data.draw(st.integers(0, 9)) == 0:  # an input neither fixed nor free
            del fixed[data.draw(st.sampled_from(sorted(fixed)))]
        call = trial(card, variant, fixed, stage(card, variant, fixed, free))
        for _ in range(data.draw(st.integers(1, 4))):
            values = {k: data.draw(st.one_of(st.just(valid.get(k, 1.0)), value(card, k)))
                      for k in free}
            expected = outcome(plain(card, variant, {**fixed, **values}))
            assert outcome(lambda: call(values)) == expected


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
    """The direct steps bound at staging, and those a trial runs itself."""

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
        fixed = {k: v for k, v in valid.items() if k not in free}
        values = {k: to_magnitude(valid[k], EC7.units[k].name, k) for k in free}
        expected = outcome(plain(EC7, variant, {**fixed, **values}))
        walks.clear()
        staged = stage(EC7, variant, fixed, free)
        assert walks == [bound]
        assert [target for target, _ in staged[2]] == rest
        call = trial(EC7, variant, fixed, staged)
        for _ in range(3):
            assert outcome(lambda: call(values)) == expected
        assert walks == [bound]  # each trial runs the rest's closures itself

    @pytest.mark.parametrize("card, variant, change, free", [
        (EC7, "nope", {}, ["B"]),
        (EC7, "drained", {"phi_prime_d": "1 kPa"}, ["B"]),
        (EC7, "drained", {}, ["B", "k_extra"]),
        (EC7, "drained", {"L": None}, ["B"]),
        (BENCH_CYCLIC, "coupled", {}, ["p"]),
    ], ids=["unknown-variant", "fixed-input-does-not-normalize",
            "free-key-no-input", "input-neither-fixed-nor-free", "fixed-point-block"])
    def test_nothing_staged_is_left_to_evaluate_card(self, walks, card, variant,
                                                     change, free):
        """``stage`` raises nothing and binds nothing; every trial is an
        ``evaluate_card``, which raises the fault, or walks the cycle."""
        valid = valid_inputs(card, "drained" if card is EC7 else variant)
        fixed = {k: v for k, v in {**valid, **change}.items()
                 if k not in free and v is not None}
        staged = stage(card, variant, fixed, free)
        assert staged is None and walks == []
        call = trial(card, variant, fixed, staged)
        for width in (1.0, 2.0):
            values = dict.fromkeys(free, width)
            expected = outcome(plain(card, variant, {**fixed, **values}))
            assert expected[0] == ("trace" if card is BENCH_CYCLIC else "fault")
            assert outcome(lambda: call(values)) == expected

    def test_input_both_fixed_and_free_takes_the_free_value(self, walks):
        """A fixed value that a free value replaces is staged, and never
        read: the bound run stops before the first step that reads it."""
        fixed = {**valid_inputs(EC7, "drained"), "B": "2 m"}
        staged = stage(EC7, "drained", fixed, ["gamma", "B"])
        assert walks == [["N_q", "N_c", "N_gamma"]]
        values = {"gamma": 18.5, "B": 3.0}
        assert outcome(lambda: trial(EC7, "drained", fixed, staged)(values)) == \
            outcome(plain(EC7, "drained", {**fixed, **values}))

    def test_fault_in_the_leading_run_walks_the_whole_plan(self, walks):
        """The fault binds nothing and stages nothing: each trial evaluates
        the plan from its first step and raises the fault with its own
        partial trace."""
        fixed = {k: v for k, v in valid_inputs(EC7, "drained").items() if k != "B"}
        fixed["phi_prime_d"] = math.pi / 2
        widths = (1.0, 2.0, 3.0)
        expected = [outcome(plain(EC7, "drained", {**fixed, "B": width}))
                    for width in widths]
        assert all(faulted[0] == "fault" for faulted in expected)
        walks.clear()
        staged = stage(EC7, "drained", fixed, ["B"])
        assert staged is None
        call = trial(EC7, "drained", fixed, staged)
        assert [outcome(lambda: call({"B": width})) for width in widths] == expected
        # No walk starts past the first step: none runs from a bound env.
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
                object.__setattr__(eq, "compiled", spy(eq.target, eq.compiled))
        return catalog, calls

    def test_design_walks_the_factors_once(self, evaluated):
        catalog, calls = evaluated
        result = design_footing_width_ec7(load_bundled_scenario(), "DA1-C2",
                                          catalog=catalog)
        trials = (len(calls) - len(self.FACTORS)) // len(self.TRIAL)
        assert calls == self.FACTORS + self.TRIAL * trials
        assert trials == result.trials  # the bracket's ends, then each step between

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
        trace = counting("trace", geocard.engine.EvaluationTrace)
        monkeypatch.setattr(geocard.engine, "EvaluationTrace", trace)
        monkeypatch.setattr(geocard.ec7, "EvaluationTrace", trace)
        monkeypatch.setattr(geocard.ec7, "UlsCheckResult",
                            counting("check", geocard.ec7.UlsCheckResult))
        return counts

    @pytest.mark.parametrize("drainage", ["drained", "undrained"])
    def test_design_builds_one_of_each(self, built, drainage):
        scenario = dataclasses.replace(load_bundled_scenario(), c_u_k=150.0)
        result = design_footing_width_ec7(scenario, "DA1-C2", resolution=1e-6,
                                          catalog=CATALOG, drainage=drainage)
        assert result.trials > 5
        assert built == {"trace": 1, "check": 1}

    def test_check_builds_one_of_each(self, built):
        check_footing_uls_ec7(load_bundled_scenario(), "DA2", 1.5, catalog=CATALOG)
        assert built == {"trace": 1, "check": 1}
