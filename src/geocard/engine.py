"""Card execution: plan-ordered evaluation with a full audit trace.

The evaluation order is a property of the card, fixed once by
``cards.load_card``: each variant carries its direct targets in order, then
the targets left over because they form a dependency cycle or depend on
one. Each target has exactly one equation (a conditional formula is a
``Piecewise``), so the engine makes no choice at run time: it evaluates
the direct equations in order, then solves the leftover block by plain
fixed-point iteration from 1.0 in card units, re-evaluating the block's
equations in listed order until the largest relative change drops below
1e-9 (hard cap 200 iterations). Every intermediate and output variable
lands in the trace, each step as the dict that is its wire form: index,
target, expression, inputs (sorted), value, unit, description, method.
``strict_json`` is the one writer of traces and tool replies. ``_solve``
walks the same plan without a trace, for searches that only need values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Union

from .cards import EquationSpec, MethodCard, VariantSpec
from .errors import (
    GeocardError,
    MissingInput,
    NonConvergence,
    NonFiniteValue,
    UnexpectedInput,
    UnknownMethod,
    UnknownVariant,
)
from .units import Quantity, format_quantity, to_magnitude

FIXED_POINT_TOL = 1e-9
FIXED_POINT_MAX_ITER = 200

InputValue = Union[Quantity, float, int, str]


@dataclass(frozen=True)
class EvaluationRequest:
    card_id: str
    variant_id: str
    inputs: Mapping[str, InputValue]
    overrides: Mapping[str, InputValue] = field(default_factory=dict)


@dataclass(frozen=True)
class EvaluationTrace:
    card_id: str
    variant_id: str
    request_inputs: dict
    request_overrides: dict
    steps: tuple  # wire dicts, written once by _Runner._record
    outputs: dict  # key -> Quantity
    sources: tuple
    diagnostics: dict

    def to_dict(self) -> dict:
        """Canonical serialization: request, steps, outputs, sources, diagnostics."""
        return {
            "request": {
                "card": self.card_id,
                "variant": self.variant_id,
                "inputs": {k: self.request_inputs[k] for k in sorted(self.request_inputs)},
                "overrides": {k: self.request_overrides[k]
                              for k in sorted(self.request_overrides)},
            },
            "steps": list(self.steps),
            "outputs": {
                k: {"value": self.outputs[k].magnitude, "unit": self.outputs[k].unit.name}
                for k in sorted(self.outputs)
            },
            "sources": [
                {"title": s.title, "url": s.url} for s in self.sources
            ],
            "diagnostics": self.diagnostics,
        }

    def to_json(self) -> str:
        return strict_json(self.to_dict())


def strict_json(body) -> str:
    """Indented strict JSON of a trace or reply; a NaN or infinity is a
    domain error."""
    try:
        return json.dumps(body, indent=2, allow_nan=False)
    except ValueError:  # a NaN or infinity computed from finite inputs
        raise NonFiniteValue("result") from None


def _echo_value(value: InputValue):
    return format_quantity(value) if isinstance(value, Quantity) else value


def _check_input_keys(card: MethodCard, raw: Mapping) -> None:
    supplied = set(raw)
    missing = card.input_keys - supplied
    if missing:
        raise MissingInput(missing)
    extra = supplied - card.input_keys
    if extra:
        raise UnexpectedInput(extra)


def normalize_inputs(card: MethodCard, raw: Mapping[str, InputValue]) -> dict[str, float]:
    """Convert every supplied value to the card's declared unit magnitude.

    Accepts Quantity objects, unit-tagged strings ("38 deg"), and bare
    numbers; bare numbers are trusted as already card-normalized.
    """
    _check_input_keys(card, raw)
    return {key: to_magnitude(value, card.units[key].name, key)
            for key, value in raw.items()}


def _variant(card: MethodCard, variant_id: str) -> VariantSpec:
    variant = card.variant(variant_id)
    if variant is None:
        raise UnknownVariant(card.id, variant_id)
    return variant


class _Runner:
    """Walks a variant's plan and records every step in the trace."""

    def __init__(self, card: MethodCard, request: EvaluationRequest | None):
        self.card = card
        self.request = request
        self.steps: list[dict] = []
        self.env: dict[str, float] = {}
        self.cycles: list[dict] = []

    # -- helpers -------------------------------------------------------------

    def _trace(self, outputs: dict) -> EvaluationTrace:
        return EvaluationTrace(
            card_id=self.card.id,
            variant_id=self.request.variant_id,
            request_inputs={k: _echo_value(v) for k, v in self.request.inputs.items()},
            request_overrides={k: _echo_value(v) for k, v in self.request.overrides.items()},
            steps=tuple(self.steps),
            outputs=outputs,
            sources=self.card.sources,
            diagnostics={"iterative_cycles": self.cycles},
        )

    def _attach(self, exc: GeocardError, eq: EquationSpec) -> GeocardError:
        """Attach the partial trace and failing step to a fault, in place."""
        exc.partial_trace = self._trace(outputs={})
        exc.failed_step = {
            "target": eq.target,
            "expression": eq.sympy,
            "inputs": {k: self.env[k] for k in eq.symbols},
        }
        return exc

    def _eval(self, eq: EquationSpec) -> float:
        try:
            return eq.compiled(self.env)
        except GeocardError as exc:
            raise self._attach(exc, eq)

    def _record(self, eq: EquationSpec, value: float, method: str) -> None:
        """Append the step in its wire form; eq.symbols is sorted."""
        self.steps.append({
            "index": len(self.steps),
            "target": eq.target,
            "expression": eq.sympy,
            "inputs": {k: self.env[k] for k in eq.symbols},
            "value": value,
            "unit": self.card.units[eq.target].name,
            "description": eq.description,
            "method": method,
        })
        self.env[eq.target] = value

    # -- main ----------------------------------------------------------------

    def run(self) -> EvaluationTrace:
        card, request = self.card, self.request
        variant = _variant(card, request.variant_id)
        self.env.update(normalize_inputs(card, request.inputs))
        self.env.update(card.param_defaults)
        if request.overrides:
            bad = set(request.overrides) - card.param_defaults.keys()
            if bad:
                raise UnexpectedInput(bad)
            for key, value in request.overrides.items():
                self.env[key] = to_magnitude(value, card.units[key].name, key)

        self.walk(variant)
        outputs = {key: Quantity(self.env[key], card.units[key])
                   for key in card.output_keys}
        return self._trace(outputs)

    def walk(self, variant: VariantSpec) -> None:
        """Bind every target of the plan: direct steps, then the cycle."""
        for eq in variant.direct:
            value = self._eval(eq)
            if not math.isfinite(value):  # float arithmetic overflows silently
                raise self._attach(NonFiniteValue(eq.target), eq)
            self._record(eq, value, "direct")
        if variant.iterative:
            self._solve_cycle(variant.iterative)

    def _solve_cycle(self, block: tuple) -> None:
        cycle = [eq.target for eq in block]
        for target in cycle:
            self.env[target] = 1.0

        residual = float("inf")
        iterations = 0
        for iterations in range(1, FIXED_POINT_MAX_ITER + 1):
            residual = 0.0
            for eq in block:
                old = self.env[eq.target]
                new = self._eval(eq)
                if not math.isfinite(new):
                    raise self._attach(
                        NonConvergence(cycle, iterations, math.inf), eq)
                denom = max(abs(old), abs(new))
                change = 0.0 if denom == 0.0 else abs(new - old) / denom
                residual = max(residual, change)
                self.env[eq.target] = new
            if residual < FIXED_POINT_TOL:
                break
        else:
            raise self._attach(
                NonConvergence(cycle, FIXED_POINT_MAX_ITER, residual), block[0])

        for eq in block:
            self._record(eq, self.env[eq.target], "iterative")
        self.cycles.append({
            "variables": cycle,
            "iterations": iterations,
            "residual": residual,
        })


def evaluate_card(card: MethodCard, request: EvaluationRequest) -> EvaluationTrace:
    """Evaluate one variant of a card and return the complete audit trace."""
    if card.id != request.card_id:
        raise UnknownMethod(request.card_id)
    return _Runner(card, request).run()


class _Solver(_Runner):
    """The same plan walk with no trace: a step only binds its value, and a
    fault carries no partial trace."""

    def _record(self, eq: EquationSpec, value: float, method: str) -> None:
        self.env[eq.target] = value

    def _attach(self, exc: GeocardError, eq: EquationSpec) -> GeocardError:
        return exc


def _solve(card: MethodCard, variant_id: str,
           values: Mapping[str, float]) -> dict[str, float]:
    """Every bound value of one variant, computed as evaluate_card computes
    it but with no trace. ``values`` are card-normalized floats; a wrong key
    set or a non-finite value raises what evaluate_card would raise."""
    variant = _variant(card, variant_id)
    _check_input_keys(card, values)
    for key, value in values.items():
        if not math.isfinite(value):
            raise NonFiniteValue(key)
    solver = _Solver(card, None)
    solver.env.update(values)
    solver.env.update(card.param_defaults)
    solver.walk(variant)
    return solver.env
