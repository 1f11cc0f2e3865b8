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
builds its steps and outputs from them on each read: the steps as the
dicts that are their wire form (index, target, expression, inputs
(sorted), value, unit, description, method), each output as a Quantity in
the card's unit. A fault carries a ``PartialTrace``: the steps bound
before it, and no outputs.

``stage`` specializes a variant's plan to some fixed inputs, for a
caller that evaluates it at many values of the free ones (a width search):
it binds the longest leading run of the direct plan that reads no free
input once, and returns the closures of the rest. It raises nothing; where
it cannot stage, it returns None. The caller runs the closures itself and
calls ``evaluate_card`` wherever they do not serve, so every fault, its
order and its partial trace come from ``evaluate_card`` alone.

``strict_json`` is geocard's one JSON writer: every body it writes reads as
``json.dumps(body, indent=2, allow_nan=False)``, the tests' reference, and
it builds no closure, so a reply leaves no cyclic garbage for the collector.
``EvaluationTrace.to_dict`` and ``strict_json`` are the reference writer of a
trace. ``to_json`` writes a complete trace from its variant's ``Template``:
the reference writer's text for a trace whose every value is a hole,
split at the holes, so that a call only writes the numbers and the
request echo. Each hole is an index, fixed when the template is cut, into
one flat list of value texts, and a call builds that list and gathers it:
the env values the template reads, each key once (by ``float.__repr__``
when every one is a finite float), then the input and override echoes,
and the cycle's iterations and residual. Each input and each override is
its own hole, so a template is memoized on the card by the variant and the
trace's override keys, sorted: at most 2^P templates per variant, for P
params. An output is read from the env, so it fills the holes of its env
value. An echo that is the env's own value object takes the env's text; an
equal value does not, as 2 and 2.0, or -0.0 and 0.0, are written apart. A
partial trace is written by the reference. A reply whose body holds the
trace, an EC7 check or design, is written from one template of its whole
body, memoized by those and ``outer._shape()``. ``outer._body(trace, put)``
states that body once, each scalar but the trace passed through ``put`` in
document order: the cut puts a hole for each, and a call appends each to
its list, after the trace's texts.

A template keeps each static piece escaped for a JSON string literal as
well. ``to_reply`` writes a tool's value as the JSON string literal of its
text, the one form the MCP server's line carries, from the escaped pieces
and the fills: only the string values (the request echo, say) are escaped
per reply. ``to_json`` writes the text itself from the same template and
fills.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping
from itertools import count
from operator import itemgetter
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
# costs more per call, paid on every evaluation.
class EvaluationRequest(Record):
    __slots__ = ("card_id", "variant_id", "inputs", "overrides")

    # Its own __init__: one is built per evaluation.
    def __init__(self, card_id: str, variant_id: str,
                 inputs: Mapping[str, InputValue],
                 overrides: Mapping[str, InputValue] | None = None):
        self.card_id = card_id
        self.variant_id = variant_id
        self.inputs = inputs
        self.overrides = {} if overrides is None else overrides


class EvaluationTrace(Record):
    """The complete trace of a walk: the variant, the env it bound and the
    request echo; its steps and outputs are read from the env."""
    __slots__ = ("card", "variant", "env", "request_inputs",
                 "request_overrides", "diagnostics")
    _unprinted = ("card", "variant")

    # Its own __init__: one is built per evaluation.
    def __init__(self, card: MethodCard, variant: VariantSpec, env: dict,
                 request_inputs: dict, request_overrides: dict, diagnostics: dict):
        self.card = card
        self.variant = variant
        self.env = env  # every value the walk bound, givens and targets
        # copies of the request's dicts, made at evaluation
        self.request_inputs = request_inputs
        self.request_overrides = request_overrides
        self.diagnostics = diagnostics

    @property
    def outputs(self) -> dict:
        """Each output's env value as a Quantity in the card's unit."""
        env, units = self.env, self.card.units
        return {key: Quantity(env[key], units[key]) for key in self.card.output_keys}

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
                "card": self.card.id,
                "variant": self.variant.id,
                "inputs": {k: _echo_value(self.request_inputs[k])
                           for k in sorted(self.request_inputs)},
                "overrides": {k: _echo_value(self.request_overrides[k])
                              for k in sorted(self.request_overrides)},
            },
            "steps": list(self.steps),
            "outputs": {
                k: {"value": q.magnitude, "unit": q.unit.name}
                for k, q in sorted(self.outputs.items())
            },
            "sources": [
                {"title": s.title, "url": s.url} for s in self.card.sources
            ],
            "diagnostics": self.diagnostics,
        }

    def to_json(self) -> str:
        """``strict_json(self.to_dict())``, written from the variant's
        template when the trace is a complete one."""
        written = self._written()
        if written is None:
            return strict_json(self.to_dict())
        template, texts = written
        return template.text(template.gather(texts))

    def _written(self, outer=None) -> tuple[Template, list] | None:
        """The template of the trace's variant and override keys, or of
        ``outer``'s body around the trace, and the flat list of its value
        texts."""
        template, read, echoes = _template(self, outer)
        values = read(self.env)
        texts = _value_texts(values)
        # Each input and override echo; one that is the env's own object
        # has its text.
        request = (self.request_inputs, self.request_overrides)
        for side, key, at in echoes:
            value = request[side][key]
            texts.append(texts[at] if at is not None and value is values[at]
                         else encode_basestring_ascii(value) if type(value) is str
                         else strict_json(_echo_value(value)))
        cycles = self.diagnostics["iterative_cycles"]
        if cycles:
            texts += (strict_json(cycles[0]["iterations"]),
                      strict_json(cycles[0]["residual"]))
        if outer is not None:
            scalars = []
            outer._body(None, scalars.append)
            texts += map(strict_json, scalars)
        return template, texts


class PartialTrace(EvaluationTrace):
    """The trace of a walk stopped by a fault: the steps bound before it,
    and no outputs. The reference writer writes it."""
    __slots__ = ()

    @property
    def outputs(self) -> dict:
        return {}

    def _written(self, outer=None) -> None:
        return None


def strict_json(value, newline="\n") -> str:
    """Indented strict JSON of a trace, reply or scalar, ``newline`` before
    each item one level down: a string by its escape, a float or an int by
    its repr, None and a bool as JSON's words, a dict (keys are str: any
    other is a TypeError), list or tuple item by item, a subclass of one of
    these as its base. A NaN or infinity is a domain error; a value JSON
    cannot write is a TypeError."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is float:
        if math.isfinite(value):
            return float.__repr__(value)
        raise NonFiniteValue("result")
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    inner = newline + "  "
    if kind is dict:
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(key) + ": " + strict_json(item, inner)
            for key, item in value.items()]) + newline + "}" if value else "{}"
    if kind is list or kind is tuple:
        return "[" + inner + ("," + inner).join([
            strict_json(item, inner) for item in value]) + newline + "]" if value else "[]"
    if kind is _Hole:
        return value
    for base in (str, int, float, list, tuple, dict):
        if isinstance(value, base):  # a subclass, written as json writes its base
            return strict_json(base(value), newline)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _echo_value(value: InputValue):
    return format_quantity(value) if isinstance(value, Quantity) else value


# ---------------------------------------------------------------- templates ----

def _escape(text: str) -> str:
    """``text`` as it reads inside a JSON string literal."""
    return encode_basestring_ascii(text)[1:-1]


def _gather(items: list) -> Callable:
    """``itemgetter(*items)``, a tuple however many ``items`` there are."""
    if len(items) > 1:
        return itemgetter(*items)
    return lambda container: tuple(container[item] for item in items)


def _value_texts(values: tuple) -> list[str]:
    """``strict_json`` of each value: ``float.__repr__`` when every value
    is a finite float."""
    try:
        texts = list(map(float.__repr__, values))
    except TypeError:  # a value that is not a float
        return list(map(strict_json, values))
    # An infinity or a NaN makes the sum one; so may an overflow, and then
    # strict_json finds each value finite.
    return texts if math.isfinite(sum(values)) else list(map(strict_json, values))


# The kind of a hole's value. A number reads the same inside a JSON string
# literal; a string is escaped there.
NUMBER, STRING = range(2)


class _Hole(str):
    """A planted value, which ``strict_json`` writes raw: a NUL, its number
    and a NUL. No other JSON text holds a raw NUL: strings are escaped."""
    __slots__ = ()


class Template:
    """The text of a JSON body cut at its holes: static pieces, and between
    each two the index of a value in one flat list of value texts, which
    ``gather`` reads.

    ``cut`` gets the pieces from the reference writer in one pass.
    ``make_body(plant)`` builds the whole body with each value a hole from
    ``plant(name, kind)``; ``strict_json`` writes it, and the text is split
    at the holes. The flat list holds one text per distinct name, in the
    sorted order of the names (``names``), so the holes that plant one name
    share its text.

    Each static piece is kept twice: as it is, and escaped for a JSON
    string literal. ``literal`` writes the literal of a filled text from
    the escaped pieces and escapes only its string values, so no text is
    escaped twice.
    """

    def __init__(self, pieces: list[str], holes: list[tuple], names: list):
        """Each hole is ``(index in the flat list, kind)``, between two pieces."""
        self.names = names  # the name of each text in the flat list
        self.gather = _gather([index for index, _ in holes])
        self.quoted = [i for i, (_, kind) in enumerate(holes) if kind == STRING]
        self.layout = [None] * (2 * len(pieces) - 1)  # a None at each hole
        self.layout[::2] = pieces
        self.escaped = [None] * len(self.layout)
        self.escaped[::2] = map(_escape, pieces)
        self.escaped[0] = '"' + self.escaped[0]
        self.escaped[-1] += '"'

    @classmethod
    def cut(cls, make_body: Callable) -> Template:
        planted = []  # by number: (name, kind)

        def plant(name, kind=NUMBER):
            planted.append((name, kind))
            return _Hole(f"\x00{len(planted) - 1}\x00")

        parts = strict_json(make_body(plant)).split("\x00")
        found = [int(n) for n in parts[1::2]]
        if sorted(found) != list(range(len(planted))):
            raise ValueError(f"the body wrote holes {found}, not each of "
                             f"the {len(planted)} planted once")
        holes = [planted[n] for n in found]
        names = sorted({name for name, _ in holes})
        index = {name: i for i, name in enumerate(names)}
        return cls(parts[::2], [(index[name], kind) for name, kind in holes], names)

    def text(self, fills: tuple[str, ...]) -> str:
        parts = self.layout[:]
        parts[1::2] = fills
        return "".join(parts)

    def literal(self, fills: tuple[str, ...]) -> str:
        """The JSON string literal of ``text(fills)``."""
        parts = self.escaped[:]
        parts[1::2] = fills
        for i in self.quoted:
            parts[2 * i + 1] = _escape(fills[i])
        return "".join(parts)


def to_reply(obj) -> str:
    """The JSON string literal of a tool's reply text: a ``str``, a
    memoized reply, as it is; a dict by strict_json; a trace or an EC7
    result by the template and fills of ``obj._written()``, if any, else by
    the reference writer. A value that is not finite raises
    NonFiniteValue."""
    if isinstance(obj, (str, dict)):  # a memoized reply, or a tool's dict
        return obj if type(obj) is str else encode_basestring_ascii(strict_json(obj))
    written = obj._written()
    if written is None:
        return encode_basestring_ascii(strict_json(obj.to_dict()))
    template, texts = written
    return template.literal(template.gather(texts))


# The name of a value of a trace is (source, key), with source one of these:
# its flat list holds the env values the template reads, each key once,
# then the input and override echoes, the cycle's and the other scalars of
# an outer body, by their place in it. The list follows the sorted names,
# so this is the order ``_written`` appends them in.
_ENV, _INPUTS, _OVERRIDES, _CYCLE, _BODY = range(5)


class _PlantingEnv(dict):
    """An env that answers every read with a new hole."""

    def __init__(self, keys, plant):
        super().__init__(dict.fromkeys(keys))
        self.plant = plant

    def __getitem__(self, key):
        return self.plant((_ENV, key))


def _template(trace: EvaluationTrace, outer=None) -> tuple:
    """The writer of the trace's variant and sorted override keys, or of
    ``outer``'s body around it, memoized on its card by the variant id and
    the keys, or by those and ``outer._shape()``: the template, the
    reference writer's text of a complete trace whose every value is a hole
    (its outputs read the planting env, so they share the env's holes; each
    input and override echo is a STRING hole), inside ``outer._body`` with
    every other scalar a hole (STRING for a str, NUMBER otherwise); the
    getter of the env values it reads; and each echo's side (0 for an
    input, 1 for an override), key and the place of its env value among
    those (None for a key it does not read)."""
    card, variant = trace.card, trace.variant
    keys = tuple(sorted(trace.request_overrides)) if trace.request_overrides else ()
    memo = (variant.id, keys) if outer is None else (variant.id, keys, outer._shape())
    writer = card.trace_templates.get(memo)
    if writer is None:
        def make_body(plant):
            cycles = [_cycle(variant.iterative, plant((_CYCLE, "iterations")),
                             plant((_CYCLE, "residual")))] if variant.iterative else []
            planted = EvaluationTrace(
                card, variant, _PlantingEnv(card.units, plant),
                {k: plant((_INPUTS, k), STRING) for k in card.input_keys},
                {k: plant((_OVERRIDES, k), STRING) for k in keys},
                {"iterative_cycles": cycles})
            body = planted.to_dict()
            if outer is None:
                return body
            number = count()
            return outer._body(body, lambda value: plant(
                (_BODY, next(number)), STRING if type(value) is str else NUMBER))
        template = Template.cut(make_body)
        read = [key for source, key in template.names if source == _ENV]
        at = {key: i for i, key in enumerate(read)}
        writer = card.trace_templates[memo] = (
            template, _gather(read),
            [(source - _INPUTS, key, at.get(key)) for source, key in template.names
             if source in (_INPUTS, _OVERRIDES)])
    return writer


def normalize_inputs(card: MethodCard, raw: Mapping[str, InputValue]) -> dict[str, float]:
    """Convert every supplied value to the card's declared unit magnitude.

    Accepts Quantity objects, numbers, which are in card units, and text
    that names its unit ("38 deg") unless the unit is ``dimensionless``.
    Keys other than the card's inputs raise MissingInput or UnexpectedInput.
    """
    keys, units = raw.keys(), card.units
    if keys != card.input_keys:
        missing = card.input_keys - keys
        raise MissingInput(missing) if missing else UnexpectedInput(keys - card.input_keys)
    return {key: to_magnitude(value, units[key].name, key) for key, value in raw.items()}


def _walk(direct: tuple, block: tuple, env: dict) -> list[dict]:
    """Bind every target of a plan in ``env``: the ``direct`` equations in
    order, then the fixed-point ``block``. Returns the cycle diagnostics. A
    fault is raised with its ``failed_step``: the target, expression and
    the inputs bound when the step failed."""
    isfinite, absolute = math.isfinite, abs
    try:
        for eq in direct:
            value = eq.compiled(env)
            if not isfinite(value):  # float arithmetic overflows silently
                raise NonFiniteValue(eq.target)
            env[eq.target] = value
        if not block:
            return []
        for eq in block:
            env[eq.target] = 1.0
        for iterations in range(1, FIXED_POINT_MAX_ITER + 1):
            residual = 0.0
            for eq in block:
                old, new = env[eq.target], eq.compiled(env)
                if not isfinite(new):
                    raise NonConvergence(_search(block), iterations, "residual", math.inf)
                # max(abs(old), abs(new)) and max(residual, change) without
                # the calls: max keeps its first argument unless the second
                # is larger
                denom = absolute(old)
                if absolute(new) > denom:
                    denom = absolute(new)
                if denom != 0.0:
                    change = absolute(new - old) / denom
                    if change > residual:
                        residual = change
                env[eq.target] = new
            if residual < FIXED_POINT_TOL:
                return [_cycle(block, iterations, residual)]
        eq = block[0]  # the iteration cap names the block's first step
        raise NonConvergence(_search(block), FIXED_POINT_MAX_ITER, "residual",
                             residual)
    except GeocardError as exc:
        exc.failed_step = {
            "target": eq.target,
            "expression": eq.sympy,
            "inputs": {k: env[k] for k in eq.symbols},
        }
        raise


def _search(block: tuple) -> str:
    """The name of a fixed-point block's search, for its NonConvergence."""
    targets = ", ".join(sorted(eq.target for eq in block))
    return f"fixed-point iteration over {{{targets}}}"


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
    overrides = request.overrides
    if overrides:
        bad = set(overrides) - card.param_defaults.keys()
        if bad:
            raise UnexpectedInput(bad)
        for key, value in overrides.items():
            env[key] = to_magnitude(value, card.units[key].name, key)
    echo = (dict(request.inputs), dict(overrides))
    try:
        cycles = _walk(variant.direct, variant.iterative, env)
    except GeocardError as exc:
        exc.partial_trace = PartialTrace(card, variant, env, *echo,
                                         {"iterative_cycles": []})
        raise
    return EvaluationTrace(card, variant, env, *echo, {"iterative_cycles": cycles})


def stage(card: MethodCard, variant_id: str, fixed: Mapping[str, InputValue],
          free: Iterable[str]) -> tuple[VariantSpec, dict, tuple] | None:
    """A variant's plan specialized to the inputs ``fixed``, for a caller
    that evaluates it at many values of the inputs named ``free``:
    ``(variant, env, steps)``. ``env`` binds the fixed inputs, the param
    defaults and the longest leading run of the direct plan that reads no
    free key; ``steps`` is the ``(target, closure)`` of each later direct
    step. Run in turn on a copy of ``env`` with finite float free values
    bound, they bind what ``evaluate_card`` binds until one raises or gives
    a non-finite value. None, with nothing raised, for an unknown variant
    or one with a fixed-point block, keys that are not the card's inputs,
    a fixed input that does not normalize, or a fault in the bound run.
    """
    free = frozenset(free)
    variant = card.variant(variant_id)
    if variant is None or variant.iterative or fixed.keys() | free != card.input_keys:
        return None
    direct, bound = variant.direct, 0
    while bound < len(direct) and free.isdisjoint(direct[bound].symbols):
        bound += 1
    try:
        env = {key: to_magnitude(value, card.units[key].name, key)
               for key, value in fixed.items()}
        env.update(card.param_defaults)
        _walk(direct[:bound], (), env)
    except GeocardError:
        return None
    return variant, env, tuple((eq.target, eq.compiled) for eq in direct[bound:])
