"""Card execution: one plan walk, and the audit trace read from its values.

The evaluation order is a property of the card, fixed once by
``cards.load_card``: each variant carries its direct targets in order, then
the targets left over because they form a dependency cycle or depend on
one. Each target has exactly one equation (a conditional formula is a
``Piecewise``), so the engine makes no choice at run time. ``_walk`` binds
the direct equations in order, then solves the leftover block by plain
fixed-point iteration from 1.0 in card units, re-evaluating the block's
equations in listed order until the largest relative change drops below
1e-9 (hard cap 200 iterations). ``evaluate_card`` makes this walk and
returns a trace that keeps the variant and the bound values; the trace
builds its steps from them when they are read, as the dicts that are their
wire form: index, target, expression, inputs (sorted), value, unit,
description, method.

``EvaluationTrace.to_dict`` and ``strict_json`` are the reference writer of a
trace. ``to_json`` writes a complete trace from its variant's template
(``_TraceTemplate``): the reference writer's text for a trace whose every
value is a marker, split at the markers, so that a call only writes the
numbers and the request echo. A partial trace is written by the reference.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Mapping
from json.encoder import encode_basestring_ascii

from .cards import MethodCard, VariantSpec
from .errors import (
    GeocardError,
    MissingInput,
    NonConvergence,
    NonFiniteValue,
    UnexpectedInput,
    UnknownMethod,
    UnknownVariant,
)
from .record import Record
from .units import Quantity, format_quantity, to_magnitude

FIXED_POINT_TOL = 1e-9
FIXED_POINT_MAX_ITER = 200

# The types of an input value: a unit-tagged string is, say, "30 deg".
InputValue = (Quantity, float, int, str)


# The request and the trace are not frozen: a frozen record's __init__
# costs more per call, paid on every trial of a width search.
class EvaluationRequest(Record):
    __slots__ = ("card_id", "variant_id", "inputs", "overrides")

    def __init__(self, card_id: str, variant_id: str,
                 inputs: Mapping[str, InputValue],
                 overrides: Mapping[str, InputValue] | None = None):
        self.card_id = card_id
        self.variant_id = variant_id
        self.inputs = inputs
        self.overrides = {} if overrides is None else overrides


class EvaluationTrace(Record):
    __slots__ = ("card", "variant", "env", "request_inputs",
                 "request_overrides", "outputs", "diagnostics")
    _unprinted = ("card", "variant")

    def __init__(self, card: MethodCard, variant: VariantSpec, env: dict,
                 request_inputs: dict, request_overrides: dict, outputs: dict,
                 diagnostics: dict):
        self.card = card
        self.variant = variant
        self.env = env  # every value the walk bound, givens and targets
        # copies of the request's dicts, made at evaluation
        self.request_inputs = request_inputs
        self.request_overrides = request_overrides
        self.outputs = outputs  # key -> Quantity
        self.diagnostics = diagnostics

    @property
    def card_id(self) -> str:
        return self.card.id

    @property
    def variant_id(self) -> str:
        return self.variant.id

    @property
    def sources(self) -> tuple:
        return self.card.sources

    @property
    def steps(self) -> tuple:
        """The steps as wire dicts, built from the bound values on each read:
        each direct target is bound once and no given is a target, and the
        cycle's steps exist only once it has converged. eq.symbols is sorted."""
        env = self.env
        plan = [(eq, "direct") for eq in self.variant.direct if eq.target in env]
        if self.diagnostics["iterative_cycles"]:
            plan += [(eq, "iterative") for eq in self.variant.iterative]
        return tuple({
            "index": index,
            "target": eq.target,
            "expression": eq.sympy,
            "inputs": {k: env[k] for k in eq.symbols},
            "value": env[eq.target],
            "unit": self.card.units[eq.target].name,
            "description": eq.description,
            "method": method,
        } for index, (eq, method) in enumerate(plan))

    def to_dict(self) -> dict:
        """Canonical serialization: request, steps, outputs, sources, diagnostics."""
        return {
            "request": {
                "card": self.card_id,
                "variant": self.variant_id,
                "inputs": {k: _echo_value(self.request_inputs[k])
                           for k in sorted(self.request_inputs)},
                "overrides": {k: _echo_value(self.request_overrides[k])
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
        """``strict_json(self.to_dict())``, written from the variant's
        template when the trace is a complete one."""
        text = _template(self).write(self)
        return strict_json(self.to_dict()) if text is None else text


def strict_json(body) -> str:
    """Indented strict JSON of a trace or reply; a NaN or infinity is a
    domain error."""
    try:
        return json.dumps(body, indent=2, allow_nan=False)
    except ValueError:  # a NaN or infinity computed from finite inputs
        raise NonFiniteValue("result") from None


def _echo_value(value: InputValue):
    return format_quantity(value) if isinstance(value, Quantity) else value


# ------------------------------------------------------------ trace writer ----

def _number(value) -> str:
    """``value`` as strict_json writes it: a float by its repr, anything
    else by strict_json itself."""
    if type(value) is not float:
        return strict_json(value)
    if not math.isfinite(value):
        raise NonFiniteValue("result")
    return float.__repr__(value)


def _echo(value: InputValue) -> str:
    value = _echo_value(value)
    return encode_basestring_ascii(value) if type(value) is str else _number(value)


def _overrides(overrides: Mapping[str, InputValue]) -> str:
    """The overrides object at the depth of the request's fields."""
    if not overrides:
        return "{}"
    body = {k: _echo_value(overrides[k]) for k in sorted(overrides)}
    return strict_json(body).replace("\n", "\n    ")  # no JSON string holds a raw newline


# The value that fills a hole: (source, key) with source one of these.
_ENV, _INPUTS, _OUTPUTS, _CYCLE, _OVERRIDES = range(5)


class _PlantingEnv(dict):
    """An env that answers every read with a new marker."""

    def __init__(self, keys, plant):
        super().__init__(dict.fromkeys(keys))
        self.plant = plant

    def __getitem__(self, key):
        return self.plant(_ENV, key)


class _TraceTemplate:
    """The text of one variant's complete traces: static pieces, and
    between each two the (source, key) of the value that fills the hole.

    The pieces come from the reference writer: ``to_dict`` and
    ``strict_json`` write a trace whose every value is a distinct marker,
    and the text is split at the quoted markers. Card text may hold
    anything, a marker included, so the split must find each planted marker
    exactly once; otherwise the markers are drawn again.
    """

    def __init__(self, card: MethodCard, variant: VariantSpec):
        self.cycles = 1 if variant.iterative else 0
        attempt = 0
        while not self._build(card, variant, f"\x00{attempt}\x00"):
            attempt += 1
        self.env_keys = tuple(dict.fromkeys(
            key for source, key in self.holes if source == _ENV))

    def _build(self, card: MethodCard, variant: VariantSpec, tag: str) -> bool:
        planted = []  # (source, key) of each marker, by number

        def plant(source, key):
            planted.append((source, key))
            return f"{tag}{len(planted) - 1}"

        cycles = [_cycle(variant.iterative, plant(_CYCLE, "iterations"),
                         plant(_CYCLE, "residual"))] if self.cycles else []
        trace = EvaluationTrace(
            card, variant, _PlantingEnv(card.units, plant),
            {k: plant(_INPUTS, k) for k in card.input_keys}, {},
            {k: Quantity(plant(_OUTPUTS, k), card.units[k]) for k in card.output_keys},
            {"iterative_cycles": cycles})
        body = trace.to_dict()
        body["request"]["overrides"] = plant(_OVERRIDES, None)
        opening = re.escape(encode_basestring_ascii(tag)[:-1])  # '"' and the tag
        pieces = re.split(f'{opening}(\\d+)"', strict_json(body))
        found = [int(n) for n in pieces[1::2]]
        if sorted(found) != list(range(len(planted))):
            return False
        pieces[1::2] = [None] * len(found)  # the holes, filled per trace
        self.pieces = pieces
        self.holes = [planted[n] for n in found]
        return True

    def write(self, trace: EvaluationTrace) -> str | None:
        """The text of a trace of this variant, or None for a partial one:
        its walk stopped in the fixed-point block, or before a direct step."""
        cycles = trace.diagnostics["iterative_cycles"]
        if len(cycles) != self.cycles:
            return None
        env = trace.env
        try:
            values = [env[k] for k in self.env_keys]
        except KeyError:
            return None
        texts = (
            dict(zip(self.env_keys, map(_number, values))),
            {k: _echo(v) for k, v in trace.request_inputs.items()},
            {k: _number(q.magnitude) for k, q in trace.outputs.items()},
            {k: _number(cycles[0][k]) for k in ("iterations", "residual")}
            if cycles else None,
            {None: _overrides(trace.request_overrides)},
        )
        pieces = self.pieces[:]
        pieces[1::2] = [texts[source][key] for source, key in self.holes]
        return "".join(pieces)


def _template(trace: EvaluationTrace) -> _TraceTemplate:
    """The template of the trace's variant, memoized on its card."""
    templates = trace.card.trace_templates
    if trace.variant.id not in templates:
        templates[trace.variant.id] = _TraceTemplate(trace.card, trace.variant)
    return templates[trace.variant.id]


SPLICE = "\x00splice\x00"


def splice_json(body: dict | list, *texts: str) -> str:
    """``strict_json(body)`` with each top-level value that is SPLICE
    written as the next of ``texts``, that value's own strict JSON."""
    head, *tails = strict_json(body).split(encode_basestring_ascii(SPLICE))
    return head + "".join(text.replace("\n", "\n  ") + tail
                          for text, tail in zip(texts, tails, strict=True))


def normalize_inputs(card: MethodCard, raw: Mapping[str, InputValue]) -> dict[str, float]:
    """Convert every supplied value to the card's declared unit magnitude.

    Accepts Quantity objects, unit-tagged strings ("38 deg"), and bare
    numbers; bare numbers are trusted as already card-normalized.
    """
    if raw.keys() != card.input_keys:
        missing = card.input_keys - raw.keys()
        if missing:
            raise MissingInput(missing)
        raise UnexpectedInput(raw.keys() - card.input_keys)
    return {key: to_magnitude(value, card.units[key].name, key)
            for key, value in raw.items()}


def _walk(variant: VariantSpec, env: dict) -> list[dict]:
    """Bind every target of the plan in ``env``: the direct equations in
    order, then the fixed-point block. Returns the cycle diagnostics. A
    fault is raised with its ``failed_step``: the target, expression and
    the inputs bound when the step failed."""
    try:
        for eq in variant.direct:
            value = eq.compiled(env)
            if not math.isfinite(value):  # float arithmetic overflows silently
                raise NonFiniteValue(eq.target)
            env[eq.target] = value
        block = variant.iterative
        if not block:
            return []
        cycle = [eq.target for eq in block]
        search = f"fixed-point iteration over {{{', '.join(sorted(cycle))}}}"
        for target in cycle:
            env[target] = 1.0
        for iterations in range(1, FIXED_POINT_MAX_ITER + 1):
            residual = 0.0
            for eq in block:
                old, new = env[eq.target], eq.compiled(env)
                if not math.isfinite(new):
                    raise NonConvergence(search, iterations, "residual", math.inf)
                denom = max(abs(old), abs(new))
                change = 0.0 if denom == 0.0 else abs(new - old) / denom
                residual = max(residual, change)
                env[eq.target] = new
            if residual < FIXED_POINT_TOL:
                return [_cycle(block, iterations, residual)]
        eq = block[0]  # the iteration cap names the block's first step
        raise NonConvergence(search, FIXED_POINT_MAX_ITER, "residual",
                             residual)
    except GeocardError as exc:
        exc.failed_step = {
            "target": eq.target,
            "expression": eq.sympy,
            "inputs": {k: env[k] for k in eq.symbols},
        }
        raise


def _cycle(block: tuple, iterations, residual) -> dict:
    """The diagnostics of a converged fixed-point block."""
    return {"variables": [eq.target for eq in block], "iterations": iterations,
            "residual": residual}


def evaluate_card(card: MethodCard, request: EvaluationRequest) -> EvaluationTrace:
    """Evaluate one variant of a card and return the complete audit trace.

    A fault inside the plan carries a partial trace: the direct steps bound
    before it.
    """
    if card.id != request.card_id:
        raise UnknownMethod(request.card_id)
    variant = card.variant(request.variant_id)
    if variant is None:
        raise UnknownVariant(card.id, request.variant_id)
    env = normalize_inputs(card, request.inputs)
    env.update(card.param_defaults)
    if request.overrides:
        bad = set(request.overrides) - card.param_defaults.keys()
        if bad:
            raise UnexpectedInput(bad)
        for key, value in request.overrides.items():
            env[key] = to_magnitude(value, card.units[key].name, key)
    echo = dict(request.inputs), dict(request.overrides)
    try:
        cycles = _walk(variant, env)
    except GeocardError as exc:
        exc.partial_trace = EvaluationTrace(card, variant, env, *echo, {},
                                            {"iterative_cycles": []})
        raise
    return EvaluationTrace(card, variant, env, *echo,
                           {key: Quantity(env[key], card.units[key])
                            for key in card.output_keys},
                           {"iterative_cycles": cycles})
