"""MCP tool server: JSON-RPC 2.0 over stdio, newline-delimited.

One message per line in both directions (responses are compact JSON, so
they never contain raw newlines). Requests are processed strictly in
arrival order; every calculation tool is pure over the immutable catalog
and skill library, so identical transcripts replay byte-for-byte. The only
mutable state is the in-memory session default map, which fills missing
scalar inputs and never overrides an explicit argument or selects a
card/variant/skill.
"""

from __future__ import annotations

import json
import math
import sys
from io import TextIOBase

from . import __version__
from .cards import MethodCard
from .catalog import Catalog, default_catalog
from .ec7 import (
    check_footing_uls_ec7,
    design_footing_width_ec7,
    get_ec7_preset_partials,
    load_scenario,
)
from .engine import EvaluationRequest, evaluate_card, strict_json
from .errors import GeocardError, MalformedQuantity, MissingUnit, NonFiniteValue
from .skills import load_skills
from .units import split_quantity_text, to_magnitude

PROTOCOL_VERSION = "2024-11-05"
SERVER_NAME = "geocard"

INSTRUCTIONS = (
    "This server exposes verified geotechnical method cards, Eurocode 7 "
    "design workflows, and analysis skills. Follow a skill-first workflow: "
    "when given an engineering problem, first call geo_recommend_skills "
    "with a short problem description, then load the top match with "
    "geo_get_skill (include_references=true) and follow its procedure "
    "before invoking any calculation tool. Calculation results include a "
    "complete trace (inputs, every intermediate step, outputs, sources); "
    "surface that trace to the user rather than recomputing values. "
    "Prefer unit-tagged inputs (e.g. \"30 deg\", \"18 kN/m^3\") via "
    "geo_evaluate_with_units so the engine performs unit conversion."
)

# JSON-RPC error codes
PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32603


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):  # 1e999 decodes to infinity
        raise ValueError(f"non-finite number: {text}")
    return value


def _reject_constant(name: str):
    raise ValueError(f"not a JSON value: {name}")


# Request lines are strict JSON: NaN, Infinity and a number that overflows
# to infinity are parse errors, so no reply echoes what _write would refuse.
_REQUEST_DECODER = json.JSONDecoder(parse_float=_finite_float,
                                    parse_constant=_reject_constant)


def _schema(properties: dict, required: list) -> dict:
    return {
        "type": "object",
        "properties": properties,
        "required": required,
        "additionalProperties": False,
    }


TOOLS: list[dict] = [
    {
        "name": "geo_list_methods",
        "description": "List the method cards in the catalog (id, title, "
                       "category, variant ids), optionally filtered by exact "
                       "category string.",
        "inputSchema": _schema(
            {"category": {"type": "string"}}, []),
    },
    {
        "name": "geo_get_method",
        "description": "Retrieve one complete method card for inspection: "
                       "variables, variants, equations, assumptions, "
                       "applicability, sources.",
        "inputSchema": _schema(
            {"id": {"type": "string"}}, ["id"]),
    },
    {
        "name": "geo_evaluate",
        "description": "Evaluate a card variant with numeric inputs already "
                       "normalized to the card's declared units. Returns the "
                       "full evaluation trace.",
        "inputSchema": _schema(
            {
                "card": {"type": "string"},
                "variant": {"type": "string"},
                "inputs": {"type": "object"},
                "overrides": {"type": "object"},
            },
            ["card", "variant", "inputs"]),
    },
    {
        "name": "geo_evaluate_with_units",
        "description": "Evaluate a card variant with unit-tagged string "
                       "inputs (e.g. \"30 deg\"); values are converted to "
                       "the card's units before evaluation. Returns the full "
                       "evaluation trace.",
        "inputSchema": _schema(
            {
                "card": {"type": "string"},
                "variant": {"type": "string"},
                "inputs": {"type": "object"},
                "overrides": {"type": "object"},
            },
            ["card", "variant", "inputs"]),
    },
    {
        "name": "geo_list_skills",
        "description": "List available analysis skills (name, description, "
                       "category, version).",
        "inputSchema": _schema({}, []),
    },
    {
        "name": "geo_recommend_skills",
        "description": "Rank analysis skills by relevance to a problem "
                       "description. Call this before any calculation tool.",
        "inputSchema": _schema(
            {"query": {"type": "string"}, "limit": {"type": "integer"}},
            ["query"]),
    },
    {
        "name": "geo_get_skill",
        "description": "Retrieve a skill's full instructions, optionally "
                       "with its reference documents.",
        "inputSchema": _schema(
            {"name": {"type": "string"},
             "include_references": {"type": "boolean"}},
            ["name"]),
    },
    {
        "name": "geo_get_ec7_preset_partials",
        "description": "Standard EN 1997-1 partial factor set for a Design "
                       "Approach (DA1-C1, DA1-C2, DA2, DA3).",
        "inputSchema": _schema(
            {"design_approach": {"type": "string"}}, ["design_approach"]),
    },
    {
        "name": "geo_check_footing_uls_ec7",
        "description": "Eurocode 7 ULS bearing check of a footing scenario "
                       "at a given width: derives design parameters, "
                       "evaluates the Annex D card, returns V_d, R_d, "
                       "utilization, and the full trace.",
        "inputSchema": _schema(
            {
                "scenario": {"type": "object"},
                "design_approach": {"type": "string"},
                "B": {"type": ["number", "string"]},
                "drainage": {"type": "string"},
            },
            ["scenario", "design_approach", "B"]),
    },
    {
        "name": "geo_design_footing_width_ec7",
        "description": "Search (bisection) for the footing width where the "
                       "Eurocode 7 utilization reaches 1.0 for a Design "
                       "Approach; returns the width and the converged check.",
        "inputSchema": _schema(
            {
                "scenario": {"type": "object"},
                "design_approach": {"type": "string"},
                "tolerance": {"type": "number"},
                "drainage": {"type": "string"},
            },
            ["scenario", "design_approach"]),
    },
    {
        "name": "geo_session_set_defaults",
        "description": "Store session default values for scalar card inputs "
                       "(unit-tagged strings or numbers). Defaults fill "
                       "missing inputs in later evaluate calls; explicit "
                       "arguments always win. Defaults never select cards, "
                       "variants, or skills.",
        "inputSchema": _schema(
            {"defaults": {"type": "object"}}, ["defaults"]),
    },
    {
        "name": "geo_health",
        "description": "Diagnostic health check: catalog and skill load "
                       "status, counts, and server version.",
        "inputSchema": _schema({}, []),
    },
]
_TOOLS_BY_NAME = {tool["name"]: tool for tool in TOOLS}

_TYPE_CHECKS = {
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "object": lambda v: isinstance(v, dict),
}


def validate_arguments(schema: dict, arguments: dict) -> str | None:
    """Return a complaint string when arguments violate the schema."""
    if not isinstance(arguments, dict):
        return "arguments must be an object"
    for key in schema["required"]:
        if key not in arguments:
            return f"missing required argument {key!r}"
    for key, value in arguments.items():
        if key not in schema["properties"]:
            return f"unexpected argument {key!r}"
        declared = schema["properties"][key].get("type")
        types = declared if isinstance(declared, list) else [declared]
        if not any(_TYPE_CHECKS[t](value) for t in types):
            return f"argument {key!r} must be of type {' or '.join(types)}"
    return None


class McpServer:
    """Dispatches MCP requests over newline-delimited JSON-RPC."""

    def __init__(self, catalog: Catalog | None = None):
        self.catalog = catalog if catalog is not None else default_catalog()
        self.skills = load_skills()
        self.defaults: dict = {}  # session defaults: input key -> value
        # (tool, resolved argument, ...) -> the reply text of a tool whose
        # reply never changes for its arguments, written on first use.
        self._texts: dict = {}

    def _text(self, key: tuple, build, *args) -> str:
        """The memoized reply text under ``key``: ``build(*args)`` written
        by strict_json on first use. Each key is made of arguments that
        already resolved to a card, a category, a skill or a Design
        Approach, so a client cannot grow the memo; an error reply raises
        before it gets here."""
        text = self._texts.get(key)
        if text is None:
            text = self._texts[key] = strict_json(build(*args))
        return text

    # ---------------------------------------------------------- transport ----

    def serve(self, stdin: TextIOBase | None = None,
              stdout: TextIOBase | None = None) -> None:
        """Run until stdin closes."""
        stdin = stdin if stdin is not None else sys.stdin
        stdout = stdout if stdout is not None else sys.stdout
        for line in stdin:
            line = line.strip()
            if not line:
                continue
            try:
                message = _REQUEST_DECODER.decode(line)
            except (ValueError, RecursionError):  # also too deep, or an int over 4300 digits
                self._write(stdout, {
                    "jsonrpc": "2.0", "id": None,
                    "error": {"code": PARSE_ERROR, "message": "parse error"},
                })
                continue
            response = self.handle_message(message)
            if response is not None:
                self._write(stdout, response)

    @staticmethod
    def _write(stdout: TextIOBase, obj: dict) -> None:
        stdout.write(json.dumps(obj, separators=(",", ":"), allow_nan=False) + "\n")
        stdout.flush()

    # ----------------------------------------------------------- dispatch ----

    def handle_message(self, message) -> dict | None:
        """Handle one decoded message; None for a notification (no ``id``)."""
        if isinstance(message, dict) and "id" not in message:
            return None
        if not isinstance(message, dict) or message.get("jsonrpc") != "2.0":
            return self._error(message.get("id") if isinstance(message, dict) else None,
                               INVALID_REQUEST, "invalid request")
        msg_id = message["id"]
        method = message.get("method")
        params = message.get("params") or {}

        if method == "initialize":
            return self._result(msg_id, {
                "protocolVersion": PROTOCOL_VERSION,
                "capabilities": {"tools": {}},
                "serverInfo": {"name": SERVER_NAME, "version": __version__},
                "instructions": INSTRUCTIONS,
            })
        if method == "ping":
            return self._result(msg_id, {})
        if method == "tools/list":
            return self._result(msg_id, {"tools": TOOLS})
        if method == "tools/call":
            return self._call_tool(msg_id, params)
        return self._error(msg_id, METHOD_NOT_FOUND, f"method not found: {method}")

    def _call_tool(self, msg_id, params) -> dict:
        if not isinstance(params, dict) or not isinstance(params.get("name"), str):
            return self._error(msg_id, INVALID_PARAMS, "params.name must be a string")
        name = params["name"]
        descriptor = _TOOLS_BY_NAME.get(name)
        if descriptor is None:
            return self._error(msg_id, INVALID_PARAMS, f"unknown tool: {name}")
        arguments = params.get("arguments")
        if arguments is None:  # absent or null; any other non-object is rejected
            arguments = {}
        complaint = validate_arguments(descriptor["inputSchema"], arguments)
        if complaint is not None:
            return self._error(msg_id, INVALID_PARAMS, complaint)
        try:
            body, is_error = getattr(self, name)(arguments), False
        except GeocardError as exc:
            body, is_error = exc.payload(), True
        except Exception as exc:  # defensive: never crash the transport
            return self._error(msg_id, INTERNAL_ERROR,
                               f"{type(exc).__name__}: {exc}")
        try:  # a handler may return its reply text ready-made
            text = body if isinstance(body, str) else strict_json(body)
        except NonFiniteValue as exc:
            text, is_error = strict_json(exc.payload()), True
        return self._result(msg_id, {
            "content": [{"type": "text", "text": text}],
            "isError": is_error,
        })

    @staticmethod
    def _result(msg_id, result) -> dict:
        return {"jsonrpc": "2.0", "id": msg_id, "result": result}

    @staticmethod
    def _error(msg_id, code: int, message: str) -> dict:
        return {"jsonrpc": "2.0", "id": msg_id,
                "error": {"code": code, "message": message}}

    # ------------------------------------------------------------ handlers ----
    # One method per tool, named after it; _call_tool looks it up by name.

    def geo_list_methods(self, args) -> str | dict:
        category = args.get("category")
        if category is not None and category not in {
                card.category for card in self.catalog.cards.values()}:
            return {"methods": []}
        return self._text(("geo_list_methods", category),
                          lambda: {"methods": self.catalog.list_methods(category)})

    def geo_get_method(self, args) -> str:
        card = self.catalog.get_method(args["id"])
        return self._text(("geo_get_method", card.id), card.to_dict)

    def _merged_inputs(self, card: MethodCard, given: dict) -> dict:
        """Session defaults fill missing input keys; arguments always win."""
        merged = dict(given)
        for key, value in self.defaults.items():
            if key in card.input_keys:
                merged.setdefault(key, value)
        return merged

    def geo_evaluate(self, args, require_units: bool = False) -> str:
        card = self.catalog.get_method(args["card"])
        request = EvaluationRequest(
            card_id=args["card"],
            variant_id=args["variant"],
            inputs=self._merged_inputs(card, args["inputs"]),
            overrides=args.get("overrides") or {},
        )
        if require_units:
            untagged = [
                key for key, value in {**request.inputs, **request.overrides}.items()
                if key in card.units and card.units[key].name != "dimensionless"
                and not (isinstance(value, str) and split_quantity_text(value)[1])]
            if untagged:
                raise MissingUnit(untagged)
        return evaluate_card(card, request).to_json()

    def geo_evaluate_with_units(self, args) -> str:
        return self.geo_evaluate(args, require_units=True)

    def geo_list_skills(self, args) -> dict:
        return {"skills": self.skills.list_skills()}

    def geo_recommend_skills(self, args) -> dict:
        limit = args.get("limit", 5)
        matches = self.skills.recommend_skills(args["query"], limit)
        return {"matches": [m.to_dict() for m in matches]}

    def geo_get_skill(self, args) -> str:
        include = args.get("include_references", False)
        skill = self.skills.get_skill(args["name"], include)
        return self._text(("geo_get_skill", skill.name, include), skill.to_dict)

    def geo_get_ec7_preset_partials(self, args) -> str:
        pf = get_ec7_preset_partials(args["design_approach"])
        return self._text(("geo_get_ec7_preset_partials", pf.design_approach),
                          _partials_reply, pf)

    def geo_check_footing_uls_ec7(self, args) -> str:
        scenario = load_scenario(json.dumps(args["scenario"]))
        width = to_magnitude(args["B"], "m", "B")
        result = check_footing_uls_ec7(
            scenario, args["design_approach"], width,
            catalog=self.catalog, drainage=args.get("drainage", "drained"))
        return result.to_json()

    def geo_design_footing_width_ec7(self, args) -> str:
        scenario = load_scenario(json.dumps(args["scenario"]))
        result = design_footing_width_ec7(
            scenario, args["design_approach"],
            tolerance=args.get("tolerance", 1e-3),
            catalog=self.catalog, drainage=args.get("drainage", "drained"))
        return result.to_json()

    def geo_session_set_defaults(self, args) -> dict:
        """Check every value before storing any, so a rejected call stores nothing."""
        given = args["defaults"]
        for key, value in given.items():
            if isinstance(value, str):
                try:
                    value = split_quantity_text(value)[0]
                except MalformedQuantity:
                    continue  # no magnitude to check; the engine judges it on use
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise GeocardError(
                    f"default for {key!r} must be a number or unit-tagged string")
            to_magnitude(value, "dimensionless", key)  # NonFiniteValue
        self.defaults.update(given)
        return {
            "session_id": "default",
            "defaults": {k: self.defaults[k] for k in sorted(self.defaults)},
        }

    def geo_health(self, args) -> dict:
        diagnostics = list(self.catalog.diagnostics) + list(self.skills.diagnostics)
        warnings = list(self.catalog.warnings) + list(self.skills.warnings)
        healthy = (self.catalog.ok and self.skills.ok
                   and len(self.catalog.cards) >= 1 and len(self.skills.skills) >= 1)
        return {
            "status": "ok" if healthy else "degraded",
            "cards": len(self.catalog.cards),
            "skills": len(self.skills.skills),
            "version": __version__,
            "diagnostics": diagnostics,
            "warnings": warnings,
        }


def _partials_reply(pf) -> dict:
    return {
        "design_approach": pf.design_approach,
        "partials": pf.wire_dict(),
        "description": f"Standard EN 1997-1 partial factors for "
                       f"{pf.design_approach}",
    }


def serve(stdin: TextIOBase | None = None,
          stdout: TextIOBase | None = None) -> None:
    """Construct a server over the given streams and run until EOF."""
    McpServer().serve(stdin, stdout)
