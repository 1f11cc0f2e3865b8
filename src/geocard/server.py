"""MCP tool server: JSON-RPC 2.0 over stdio, newline-delimited.

One message per line in both directions (responses are compact JSON, so
they never contain raw newlines). Requests are processed strictly in
arrival order; every calculation tool is pure over the immutable catalog
and skill library, so identical transcripts replay byte-for-byte. The only
mutable state is the in-memory session default map, which fills missing
scalar inputs and never overrides an explicit argument or selects a
card/variant/skill. Each tool's argument check is built from its
``inputSchema`` once, at import.

This module is the protocol alone, so the handshake (``initialize``,
``tools/list``) loads no card, unit, engine or skill module. A server
imports the handlers, ``tools``, at its first ``tools/call`` that passes
its check, and builds its catalog and skills when a tool first reads them.

A tool returns its value, and ``engine.to_reply`` writes it as the JSON
string literal of its text inside the call's one guard, so a value it
cannot write fails as a fault of the tool would; it writes an error
payload too. Each response has one writer, ``_dispatch``, and one form:
the line ``serve`` writes. A tool result's line is assembled from the
envelope's fixed text, the id's JSON, that literal and ``isError``; every
other line is ``json.dumps(envelope, separators=(",", ":"),
allow_nan=False)``. ``handle_message`` decodes that line with
``json.loads``, so what it returns is what a client reads; the CLI's
``eval`` and ``ec7``, the tests and perfbench's in-process client call it.
"""

from __future__ import annotations

import json
import sys
from functools import cached_property
from io import TextIOBase
from json.encoder import encode_basestring_ascii

from . import __version__
from .errors import GeocardError

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

# A request id's JSON text as json.dumps writes it, by the id's type, and
# the texts of floats no JSON line can carry.
_ID_TEXT = {int: int.__repr__, str: encode_basestring_ascii, float: float.__repr__}
_NON_FINITE = frozenset({"nan", "inf", "-inf"})


def _finite_float(text: str) -> float:
    value = float(text)
    if abs(value) == float("inf"):  # 1e999 decodes to infinity
        raise ValueError(f"non-finite number: {text}")
    return value


def _reject_constant(name: str):
    raise ValueError(f"not a JSON value: {name}")


# Request lines are strict JSON: NaN, Infinity and a number that overflows
# to infinity are parse errors, so every id decoded has a JSON text.
_REQUEST_DECODER = json.JSONDecoder(parse_float=_finite_float,
                                    parse_constant=_reject_constant)


def _schema(properties: dict, required: list) -> dict:
    return {
        "type": "object",
        "properties": properties,
        "required": required,
        "additionalProperties": False,
    }


# The arguments of geo_evaluate and geo_evaluate_with_units.
_EVALUATE_SCHEMA = _schema(
    {
        "card": {"type": "string"},
        "variant": {"type": "string"},
        "inputs": {"type": "object"},
        "overrides": {"type": "object"},
    },
    ["card", "variant", "inputs"])


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
        "description": "Evaluate a card variant. A JSON number is taken in "
                       "the card's declared unit for its key; text must carry "
                       "a unit tag (e.g. \"30 deg\"). Returns the full "
                       "evaluation trace.",
        "inputSchema": _EVALUATE_SCHEMA,
    },
    {
        "name": "geo_evaluate_with_units",
        "description": "Evaluate a card variant with unit-tagged string "
                       "inputs (e.g. \"30 deg\"); values are converted to "
                       "the card's units before evaluation. Returns the full "
                       "evaluation trace.",
        "inputSchema": _EVALUATE_SCHEMA,
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
                "B": {"type": ["number", "string"],
                      "description": "Footing width: a JSON number in m, or "
                                     "text with a unit tag (e.g. \"2 m\")."},
                "drainage": {"type": "string"},
            },
            ["scenario", "design_approach", "B"]),
    },
    {
        "name": "geo_design_footing_width_ec7",
        "description": "Required footing width for a Design Approach: B_req "
                       "is the least width on a grid of step resolution "
                       "(default 0.1 mm), up to L, at which the Eurocode 7 "
                       "ULS check passes. Returns B_req with the check there, "
                       "and B_below, one step narrower, with its utilization "
                       "(> 1): two geo_check_footing_uls_ec7 calls confirm both.",
        "inputSchema": _schema(
            {
                "scenario": {"type": "object"},
                "design_approach": {"type": "string"},
                "resolution": {"type": ["number", "string"],
                               "description": "Grid step: 1 m over a whole "
                                              "number; a JSON number in m, or "
                                              "text with a unit tag (e.g. "
                                              "\"1 mm\")."},
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

_TYPE_CLASSES = {"string": (str,), "number": (int, float), "integer": (int,),
                 "boolean": (bool,), "object": (dict,)}


def _checker(schema: dict):
    """The argument check of a tool's ``schema``, built once: a complaint
    when the arguments are not an object, lack a required key (the first
    in schema order), or hold an undeclared key or a value of another type
    (the first in request order); else None."""
    required, tests = schema["required"], {}
    for key, spec in schema["properties"].items():
        types = spec["type"] if isinstance(spec["type"], list) else [spec["type"]]
        tests[key] = (tuple(c for t in types for c in _TYPE_CLASSES[t]),
                      f"argument {key!r} must be of type {' or '.join(types)}")

    def check(arguments) -> str | None:
        if not isinstance(arguments, dict):
            return "arguments must be an object"
        for key in required:
            if key not in arguments:
                return f"missing required argument {key!r}"
        for key, value in arguments.items():
            test = tests.get(key)
            if test is None:
                return f"unexpected argument {key!r}"
            # a bool is only a "boolean", though bool subclasses int
            if not isinstance(value, test[0]) or type(value) is bool and bool not in test[0]:
                return test[1]
        return None
    return check


_CHECKERS = {tool["name"]: _checker(tool["inputSchema"]) for tool in TOOLS}


class McpServer:
    """Dispatches MCP requests over newline-delimited JSON-RPC."""

    def __init__(self, catalog=None):
        if catalog is not None:
            self.catalog = catalog
        self.defaults: dict = {}  # session defaults: input key -> value
        self._texts: dict = {}  # tools._text's memo of unchanging replies
        self._tools = None  # geocard.tools, from the first tools/call

    @cached_property
    def catalog(self):  # unless one was passed: built when a tool first reads it
        from .catalog import default_catalog
        return default_catalog()

    @cached_property
    def skills(self):  # built when a tool first reads it
        from .skills import load_skills
        return load_skills()

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
                reply = self._error(None, PARSE_ERROR, "parse error")
            else:
                reply = self._dispatch(message)
            if reply is not None:
                stdout.write(reply)
                stdout.flush()

    # ----------------------------------------------------------- dispatch ----

    def handle_message(self, message) -> dict | None:
        """The decoded line ``serve`` writes for one decoded message; None
        for a notification (no ``id``). The CLI's ``eval`` and ``ec7`` send
        their calls here, as do the tests and perfbench's in-process client.

        A request whose id is null or not a string or a number (JSON-RPC
        2.0; MCP forbids a null id) is invalid, and so is one whose method
        is not a string: each gets a -32600 reply, with the id echoed only
        when it is valid. An id no line can carry (a NaN or infinite float,
        or an int past the 4300-digit limit) is invalid too. A batch (a
        JSON array) is one invalid request: MCP 2024-11-05 has no batches."""
        line = self._dispatch(message)
        return None if line is None else json.loads(line)

    def _dispatch(self, message) -> str | None:
        """The line ``serve`` writes for a decoded message, or None."""
        if not isinstance(message, dict):  # a batch or a bare value
            return self._error(None, INVALID_REQUEST, "invalid request")
        if "id" not in message:
            return None
        msg_id, method = message["id"], message.get("method")
        try:  # the id's JSON text; not for null, a bool, an object or an array
            id_text = _ID_TEXT[type(msg_id)](msg_id)
        except (KeyError, ValueError):  # ValueError: an int past 4300 digits
            id_text = None
        if id_text is None or id_text in _NON_FINITE:
            msg_id = None
        if (msg_id is None or message.get("jsonrpc") != "2.0"
                or not isinstance(method, str)):
            return self._error(msg_id, INVALID_REQUEST, "invalid request")
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
            return self._call_tool(msg_id, id_text, params)
        return self._error(msg_id, METHOD_NOT_FOUND, f"method not found: {method}")

    def _call_tool(self, msg_id, id_text: str, params) -> str:
        if not isinstance(params, dict) or not isinstance(params.get("name"), str):
            return self._error(msg_id, INVALID_PARAMS, "params.name must be a string")
        name = params["name"]
        check = _CHECKERS.get(name)
        if check is None:
            return self._error(msg_id, INVALID_PARAMS, f"unknown tool: {name}")
        arguments = params.get("arguments")
        if arguments is None:  # absent or null; any other non-object is rejected
            arguments = {}
        complaint = check(arguments)
        if complaint is not None:
            return self._error(msg_id, INVALID_PARAMS, complaint)
        tools = self._tools
        if tools is None:
            from . import tools
            self._tools = tools
        try:
            reply, is_error = tools.to_reply(getattr(tools, name)(self, arguments)), False
        except GeocardError as exc:
            reply, is_error = tools.to_reply(exc.payload()), True
        except Exception as exc:  # defensive: never crash the transport
            return self._error(msg_id, INTERNAL_ERROR,
                               f"{type(exc).__name__}: {exc}")
        return "".join((
            '{"jsonrpc":"2.0","id":', id_text,
            ',"result":{"content":[{"type":"text","text":', reply,
            '}],"isError":true}}\n' if is_error else '}],"isError":false}}\n'))

    @staticmethod
    def _result(msg_id, result) -> str:
        return json.dumps({"jsonrpc": "2.0", "id": msg_id, "result": result},
                          separators=(",", ":"), allow_nan=False) + "\n"

    @staticmethod
    def _error(msg_id, code: int, message: str) -> str:
        return json.dumps({"jsonrpc": "2.0", "id": msg_id,
                           "error": {"code": code, "message": message}},
                          separators=(",", ":"), allow_nan=False) + "\n"


def serve(stdin: TextIOBase | None = None,
          stdout: TextIOBase | None = None) -> None:
    """Construct a server over the given streams and run until EOF."""
    McpServer().serve(stdin, stdout)
