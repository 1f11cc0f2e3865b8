"""MCP server tests: protocol conformance, schema gating, tool behavior,
and the golden transcripts in process; test_goldens.py replays them."""

import collections
import enum
import gc
import io
import itertools
import json
import math
from json.encoder import encode_basestring_ascii
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from conftest import HUGE_INT
from geocard.ec7 import (DESIGN_APPROACHES, check_footing_uls_ec7,
                         design_footing_width_ec7, get_ec7_preset_partials,
                         load_scenario)
from geocard import __version__, engine, tools
from geocard.engine import EvaluationRequest, evaluate_card
from geocard.errors import GeocardError, NonFiniteValue
from geocard.server import (_CHECKERS, _REQUEST_DECODER, INSTRUCTIONS, McpServer, TOOLS,
                            serve)
from test_ec7 import OVERFLOWING, _reference_check

DATA_DIR = Path(__file__).parent / "data"

EXPECTED_TOOLS = [
    "geo_list_methods", "geo_get_method", "geo_evaluate",
    "geo_evaluate_with_units", "geo_list_skills", "geo_recommend_skills",
    "geo_get_skill", "geo_get_ec7_preset_partials",
    "geo_check_footing_uls_ec7", "geo_design_footing_width_ec7",
    "geo_session_set_defaults", "geo_health",
]

TERZAGHI_ARGS = {
    "card": "BEARING_CAPACITY_TERZAGHI",
    "variant": "general_shear_failure_strip",
    "inputs": {"phi_prime": "30 deg", "c_prime": "0 kPa",
               "gamma": "18 kN/m^3", "B": "2 m", "q": "18 kPa"},
}


JRC_SCENARIO = json.loads(
    (Path(__file__).parents[1] / "src/geocard/data/scenarios/jrc_a3.json")
    .read_text())


def rpc(method, params=None, msg_id=1):
    msg = {"jsonrpc": "2.0", "id": msg_id, "method": method}
    if params is not None:
        msg["params"] = params
    return msg


def call(server, name, arguments, msg_id=1):
    return server.handle_message(rpc(
        "tools/call", {"name": name, "arguments": arguments}, msg_id))


def tool_body(response):
    assert "result" in response, response
    result = response["result"]
    assert result["isError"] is False, result
    return json.loads(result["content"][0]["text"])


def tool_error(response):
    result = response["result"]
    assert result["isError"] is True, result
    return json.loads(result["content"][0]["text"])


@pytest.fixture(scope="module")
def server():
    return McpServer()


class TestProtocol:
    def test_initialize_handshake(self, server):
        response = server.handle_message(rpc("initialize", {
            "protocolVersion": "2024-11-05", "capabilities": {},
            "clientInfo": {"name": "t", "version": "0"}}, msg_id=0))
        result = response["result"]
        assert response["id"] == 0
        assert result["protocolVersion"] == "2024-11-05"
        assert result["serverInfo"]["name"] == "geocard"
        assert "tools" in result["capabilities"]
        assert "geo_recommend_skills" in result["instructions"]

    def test_initialized_notification_gets_no_response(self, server):
        assert server.handle_message(
            {"jsonrpc": "2.0", "method": "notifications/initialized"}) is None

    @pytest.mark.parametrize("msg_id", [7, "n-7", 0, 2.5])
    def test_request_named_like_a_notification_gets_a_reply(self, server, msg_id):
        response = server.handle_message(
            rpc("notifications/initialized", msg_id=msg_id))
        assert response == {"jsonrpc": "2.0", "id": msg_id, "error": {
            "code": -32601,
            "message": "method not found: notifications/initialized"}}

    @pytest.mark.parametrize("method", [
        "initialize", "ping", "tools/list", "tools/call",
        "notifications/cancelled"])
    def test_message_without_id_gets_no_reply(self, server, method):
        assert server.handle_message({"jsonrpc": "2.0", "method": method}) is None

    def test_tools_list(self, server):
        response = server.handle_message(rpc("tools/list"))
        names = [t["name"] for t in response["result"]["tools"]]
        assert names == EXPECTED_TOOLS
        for tool in response["result"]["tools"]:
            assert tool["description"]
            assert tool["inputSchema"]["type"] == "object"

    def test_every_tool_has_a_handler(self):
        """Each tool is served by the function of ``tools`` named after it,
        each such function is a listed tool, and the server itself has no
        handler."""
        handlers = {name for name in dir(tools)
                    if name.startswith("geo_") and callable(getattr(tools, name))}
        assert handlers == {tool["name"] for tool in TOOLS}
        assert not [name for name in dir(McpServer) if name.startswith("geo_")]

    def test_unknown_method_is_32601(self, server):
        response = server.handle_message(rpc("resources/list"))
        assert response["error"]["code"] == -32601

    def test_unknown_method_notification_is_silent(self, server):
        assert server.handle_message(
            {"jsonrpc": "2.0", "method": "resources/changed"}) is None

    def test_id_echo_for_string_ids(self, server):
        response = server.handle_message(rpc("ping", msg_id="abc-7"))
        assert response["id"] == "abc-7"
        assert response["result"] == {}

    def test_parse_error_on_garbage_line(self):
        stdin = io.StringIO('{"jsonrpc": "2.0", "id": 4, "method": "ping"}\n'
                            "this is not json\n")
        stdout = io.StringIO()
        serve(stdin, stdout)
        lines = stdout.getvalue().splitlines()
        assert json.loads(lines[0])["id"] == 4
        error = json.loads(lines[1])
        assert error["error"]["code"] == -32700
        assert error["id"] is None

    def test_invalid_jsonrpc_envelope(self, server):
        response = server.handle_message({"id": 9, "method": "ping"})
        assert response["error"]["code"] == -32600

    @pytest.mark.parametrize("msg_id", [None, True, False, {"a": 1}, [1], []])
    def test_id_not_a_string_or_number_is_invalid_with_null_id(self, server, msg_id):
        """JSON-RPC 2.0 ids are strings or numbers (a bool is neither), and
        MCP forbids a null request id: no such request is served."""
        response = server.handle_message(rpc("ping", msg_id=msg_id))
        assert response == {"jsonrpc": "2.0", "id": None, "error": {
            "code": -32600, "message": "invalid request"}}

    @pytest.mark.parametrize("method", [5, None, ["ping"], {"m": "ping"}, True])
    @pytest.mark.parametrize("msg_id", [3, "m-3"])
    def test_method_not_a_string_is_invalid_with_its_id(self, server, method, msg_id):
        response = server.handle_message(
            {"jsonrpc": "2.0", "id": msg_id, "method": method})
        assert response == {"jsonrpc": "2.0", "id": msg_id, "error": {
            "code": -32600, "message": "invalid request"}}

    @pytest.mark.parametrize("batch", [[rpc("ping", msg_id=1)],
                                       [rpc("ping", msg_id=1), rpc("ping", msg_id=2)], []])
    def test_batch_is_one_invalid_request(self, batch):
        """MCP 2024-11-05, the declared version, has no JSON-RPC batches
        (and 2025-06-18 removed them), so a batch line is a single -32600
        with a null id, and no member of it is served."""
        stdout = io.StringIO()
        serve(io.StringIO(json.dumps(batch) + "\n"), stdout)
        assert stdout.getvalue() == (
            '{"jsonrpc":"2.0","id":null,"error":{"code":-32600,'
            '"message":"invalid request"}}\n')


class TestSchemaGate:
    def test_missing_required_argument(self, server):
        response = call(server, "geo_get_method", {})
        assert response["error"]["code"] == -32602

    def test_wrong_argument_type(self, server):
        response = call(server, "geo_get_method", {"id": 7})
        assert response["error"]["code"] == -32602

    def test_unexpected_argument(self, server):
        response = call(server, "geo_health", {"verbose": True})
        assert response["error"]["code"] == -32602

    def test_unknown_tool(self, server):
        response = call(server, "geo_frobnicate", {})
        assert response["error"]["code"] == -32602

    def test_schema_rejects_before_domain_code(self, server):
        # Invalid params on a tool whose handler would raise UnknownMethod:
        # the protocol error wins, proving validation precedes dispatch.
        response = call(server, "geo_get_method", {"id": None})
        assert "error" in response and response["error"]["code"] == -32602


class TestTools:
    def test_list_methods(self, server):
        body = tool_body(call(server, "geo_list_methods", {}))
        assert [m["id"] for m in body["methods"]] == [
            "BEARING_CAPACITY_EUROCODE7", "BEARING_CAPACITY_MEYERHOF",
            "BEARING_CAPACITY_TERZAGHI", "BEARING_CAPACITY_VESIC"]

    def test_get_method(self, server):
        body = tool_body(call(server, "geo_get_method",
                              {"id": "BEARING_CAPACITY_TERZAGHI"}))
        assert body["id"] == "BEARING_CAPACITY_TERZAGHI"
        assert body["sources"]

    def test_preset_partials_wire_shape(self, server):
        body = tool_body(call(server, "geo_get_ec7_preset_partials",
                              {"design_approach": "DA1-C2"}))
        assert body == {
            "design_approach": "DA1-C2",
            "partials": {"gamma_G": 1.0, "gamma_Q": 1.3, "gamma_phi": 1.25,
                         "gamma_c": 1.25, "gamma_gamma": 1.0, "gamma_R": 1.0},
            "description": "Standard EN 1997-1 partial factors for DA1-C2",
        }

    def test_evaluate_with_units(self, server):
        body = tool_body(call(server, "geo_evaluate_with_units", TERZAGHI_ARGS))
        assert body["outputs"]["q_ult"]["value"] == pytest.approx(734.46, abs=5e-3)
        assert body["outputs"]["q_ult"]["unit"] == "kPa"
        assert len(body["steps"]) == 4

    def test_evaluate_numeric(self, server):
        body = tool_body(call(server, "geo_evaluate", {
            "card": "BEARING_CAPACITY_TERZAGHI",
            "variant": "general_shear_failure_strip",
            "inputs": {"phi_prime": math.radians(30), "c_prime": 0,
                       "gamma": 18, "B": 2, "q": 18}}))
        assert body["outputs"]["q_ult"]["value"] == pytest.approx(734.46, abs=5e-3)

    def test_repeat_calls_byte_identical(self, server):
        first = call(server, "geo_evaluate_with_units", TERZAGHI_ARGS)
        second = call(server, "geo_evaluate_with_units", TERZAGHI_ARGS)
        assert json.dumps(first) == json.dumps(second)

    def test_dimension_mismatch_is_tool_error(self, server):
        bad = {"card": "BEARING_CAPACITY_TERZAGHI",
               "variant": "general_shear_failure_strip",
               "inputs": {"phi_prime": "30 kPa", "c_prime": "0 kPa",
                          "gamma": "18 kN/m^3", "B": "2 m", "q": "18 kPa"}}
        payload = tool_error(call(server, "geo_evaluate_with_units", bad))
        assert payload["error"] == "dimension_mismatch"
        assert payload["message"] == (
            "incompatible dimensions: length^-1·mass·time^-2 vs angle "
            "(kPa -> radians) for input 'phi_prime'")

    @pytest.mark.parametrize("tool, arguments, key", [
        ("geo_check_footing_uls_ec7", {"scenario": {**JRC_SCENARIO, "D_f": "1 kPa"},
                                       "design_approach": "DA2", "B": 2.0}, "D_f"),
        ("geo_design_footing_width_ec7", {"scenario": {**JRC_SCENARIO, "D_f": "1 kPa"},
                                          "design_approach": "DA2"}, "D_f"),
        ("geo_check_footing_uls_ec7", {"scenario": JRC_SCENARIO,
                                       "design_approach": "DA2", "B": "2 kPa"}, "B"),
    ], ids=["scenario-check", "scenario-design", "width"])
    def test_ec7_dimension_mismatch_names_its_input(self, server, tool, arguments, key):
        payload = tool_error(call(server, tool, arguments))
        assert payload == {"error": "dimension_mismatch", "message":
                           "incompatible dimensions: length^-1·mass·time^-2 vs "
                           f"length (kPa -> m) for input {key!r}"}

    def test_engine_fault_carries_partial_trace(self, server):
        bad = {"card": "BEARING_CAPACITY_TERZAGHI",
               "variant": "general_shear_failure_strip",
               "inputs": {"phi_prime": "30 deg", "c_prime": "0 kPa",
                          "gamma": "18 kN/m^3", "B": "2 m"}}
        payload = tool_error(call(server, "geo_evaluate_with_units", bad))
        assert payload["error"] == "missing_input"
        assert "q" in payload["message"]

    def test_skill_tools(self, server):
        listing = tool_body(call(server, "geo_list_skills", {}))
        assert listing["skills"][0]["name"] == "shallow-foundation-bearing-capacity"
        matches = tool_body(call(server, "geo_recommend_skills",
                                 {"query": "bearing capacity of a strip footing"}))
        assert matches["matches"][0]["name"] == \
            "shallow-foundation-bearing-capacity"
        skill = tool_body(call(server, "geo_get_skill",
                               {"name": "shallow-foundation-bearing-capacity",
                                "include_references": True}))
        assert skill["references"]
        bare = tool_body(call(server, "geo_get_skill",
                              {"name": "shallow-foundation-bearing-capacity"}))
        assert bare["references"] == []

    def test_ec7_tools_roundtrip(self, server):
        scenario = json.loads(
            (Path(__file__).parents[1] / "src/geocard/data/scenarios/jrc_a3.json")
            .read_text())
        check = tool_body(call(server, "geo_check_footing_uls_ec7", {
            "scenario": scenario, "design_approach": "DA1-C2", "B": 1.497}))
        assert check["V_d"] == pytest.approx(5659.20, abs=0.02)
        assert check["pass"] is True
        assert check["trace"]["steps"]
        design = tool_body(call(server, "geo_design_footing_width_ec7", {
            "scenario": scenario, "design_approach": "DA2"}))
        assert abs(design["check"]["utilization"] - 1) < 1e-3

    def test_health(self, server):
        body = tool_body(call(server, "geo_health", {}))
        assert body["status"] == "ok"
        assert body["cards"] >= 4
        assert body["skills"] >= 1
        from geocard import __version__
        assert body["version"] == __version__

    def test_health_degraded_on_bad_catalog_dir(self, tmp_path):
        (tmp_path / "bad.json").write_text("{")
        from geocard.catalog import load_catalog
        degraded = McpServer(catalog=load_catalog(extra_dir=tmp_path))
        body = tool_body(call(degraded, "geo_health", {}))
        assert body["status"] == "degraded"
        assert body["diagnostics"]


class TestSessionDefaults:
    def test_defaults_fill_missing_inputs(self):
        server = McpServer()
        tool_body(call(server, "geo_session_set_defaults", {
            "defaults": {"gamma": "18 kN/m^3", "q": "18 kPa"}}))
        partial = {
            "card": "BEARING_CAPACITY_TERZAGHI",
            "variant": "general_shear_failure_strip",
            "inputs": {"phi_prime": "30 deg", "c_prime": "0 kPa", "B": "2 m"},
        }
        body = tool_body(call(server, "geo_evaluate_with_units", partial))
        assert body["outputs"]["q_ult"]["value"] == pytest.approx(734.46, abs=5e-3)

    def test_explicit_arguments_beat_defaults(self):
        server = McpServer()
        tool_body(call(server, "geo_session_set_defaults", {
            "defaults": {"q": "999 kPa"}}))
        body = tool_body(call(server, "geo_evaluate_with_units", TERZAGHI_ARGS))
        q_step = next(s for s in body["steps"] if s["target"] == "q_ult")
        assert q_step["inputs"]["q"] == 18.0

    def test_defaults_never_pick_cards_or_variants(self):
        server = McpServer()
        tool_body(call(server, "geo_session_set_defaults", {
            "defaults": {"card": "BEARING_CAPACITY_VESIC"}}))
        response = call(server, "geo_evaluate_with_units", {
            "variant": "general_shear_failure_strip",
            "inputs": {}})
        assert response["error"]["code"] == -32602  # card is still required


class TestSessionDefaultsRejectAll:
    """A rejected geo_session_set_defaults call stores none of its values."""

    @pytest.mark.parametrize("defaults, code", [
        ({"q": math.nan}, "non_finite_value"),
        ({"q": "18 kPa", "B": math.inf}, "non_finite_value"),
        ({"q": "1e400 kPa"}, "non_finite_value"),
        ({"q": 10 ** 400}, "non_finite_value"),
        ({"q": "18 kPa", "gamma": True}, "error"),
        ({"q": "18 kPa", "gamma": "18"}, "missing_unit"),
    ])
    def test_nothing_stored(self, defaults, code):
        server = McpServer()
        tool_body(call(server, "geo_session_set_defaults", {
            "defaults": {"c_prime": "0 kPa"}}))
        before = dict(server.defaults)
        response = strict_json(call(server, "geo_session_set_defaults",
                                    {"defaults": defaults}))
        assert tool_error(response)["error"] == code
        assert server.defaults == before

    def test_reply_keeps_default_session_id(self):
        body = tool_body(call(McpServer(), "geo_session_set_defaults", {
            "defaults": {"q": "18 kPa"}}))
        assert body == {"session_id": "default", "defaults": {"q": "18 kPa"}}


class TestCustomCatalogDrivesEc7:
    def test_shadowed_ec7_card_is_used(self, tmp_path):
        from geocard.catalog import load_catalog
        card = load_catalog().get_method("BEARING_CAPACITY_EUROCODE7").to_dict()
        card["sources"][0]["title"] = "Shadowed Annex D source"
        (tmp_path / "ec7.json").write_text(json.dumps(card))
        custom = McpServer(catalog=load_catalog(extra_dir=tmp_path))
        body = tool_body(call(custom, "geo_check_footing_uls_ec7", {
            "scenario": JRC_SCENARIO, "design_approach": "DA2", "B": 1.3}))
        assert body["trace"]["sources"][0]["title"] == "Shadowed Annex D source"


class TestGoldenTranscript:
    """The checked-in sessions, in process. The session transcript reaches
    every tool: references, session defaults, drained, undrained, eccentric
    and null-utilization checks, two designs, a failed walk, an unknown
    tool, invalid params and ids of every kind."""

    def _replay(self) -> str:
        requests = (DATA_DIR / "golden_transcript_requests.jsonl").read_text("utf-8")
        stdout = io.StringIO()
        serve(io.StringIO(requests), stdout)
        return stdout.getvalue()

    def test_session_in_process_writes_the_golden_lines(self):
        """One server fed the session's lines through ``handle_message``,
        which decodes the line ``serve`` writes: ``json.dumps`` of each
        reply gives that line back."""
        server, lines = McpServer(), []
        for line in (DATA_DIR / "golden_session_requests.jsonl").read_text("utf-8").splitlines():
            reply = server.handle_message(_REQUEST_DECODER.decode(line))
            if reply is not None:
                lines.append(json.dumps(reply, separators=(",", ":")) + "\n")
        expected = (DATA_DIR / "golden_session_expected.jsonl").read_text("utf-8")
        assert lines == expected.splitlines(keepends=True)

    def test_replay_is_stable_across_runs(self):
        assert self._replay() == self._replay()

    def test_session_reaches_every_tool(self):
        requests = [json.loads(line) for line in
                    (DATA_DIR / "golden_session_requests.jsonl")
                    .read_text("utf-8").splitlines()]
        called = {m["params"]["name"] for m in requests
                  if m.get("method") == "tools/call"}
        assert set(EXPECTED_TOOLS) <= called


def strict_json(response):
    """The reply re-encodes without NaN or Infinity anywhere."""
    json.dumps(response, allow_nan=False)
    return response


class TestUnitTaggedEvaluate:
    def test_bare_number_for_dimensioned_input_is_tool_error(self, server):
        args = json.loads(json.dumps(TERZAGHI_ARGS))
        args["inputs"]["phi_prime"] = 30
        payload = tool_error(call(server, "geo_evaluate_with_units", args))
        assert payload["error"] == "missing_unit"
        assert "phi_prime" in payload["message"]

    def test_bare_number_string_is_tool_error(self, server):
        args = json.loads(json.dumps(TERZAGHI_ARGS))
        args["inputs"]["B"] = "2"
        payload = tool_error(call(server, "geo_evaluate_with_units", args))
        assert payload["error"] == "missing_unit"

    def test_malformed_value_names_its_input(self, server):
        args = json.loads(json.dumps(TERZAGHI_ARGS))
        args["inputs"]["B"] = "two m"
        payload = tool_error(call(server, "geo_evaluate_with_units", args))
        assert payload["error"] == "malformed_quantity"
        assert payload["message"] == ("cannot parse quantity from 'two m' "
                                      "for input 'B'")

    def test_unknown_unit_names_its_input(self, server):
        args = json.loads(json.dumps(TERZAGHI_ARGS))
        args["inputs"]["B"] = "2 furlong"
        payload = tool_error(call(server, "geo_evaluate_with_units", args))
        assert payload == {"error": "unknown_unit",
                           "message": "unknown unit: 'furlong' for input 'B'"}

    def test_unknown_unit_in_a_scenario_names_its_field(self, server):
        response = call(server, "geo_check_footing_uls_ec7", {
            "scenario": {**JRC_SCENARIO, "L": "4 parsec"},
            "design_approach": "DA2", "B": 1.5})
        assert tool_error(response) == {
            "error": "unknown_unit",
            "message": "unknown unit: 'parsec' for input 'L'"}

    def test_bare_override_is_tool_error(self, server):
        args = {"card": "BEARING_CAPACITY_VESIC", "variant": "general",
                "inputs": {"phi_prime": "30 deg", "c_prime": "10 kPa",
                           "gamma": "18 kN/m^3", "B": "2 m", "L": "4 m",
                           "D_f": "1 m", "q": "18 kPa"},
                "overrides": {"beta": 0.1}}
        payload = tool_error(call(server, "geo_evaluate_with_units", args))
        assert payload["error"] == "missing_unit"

    def test_bare_number_for_dimensionless_input_is_accepted(self, tmp_path):
        (tmp_path / "ratio.json").write_text(json.dumps({
            "id": "TEST_RATIO", "title": "Ratio", "category": "Testing",
            "description": "Dimensionless input.",
            "variables": [
                {"key": "r", "name": "r", "role": "input", "unit": "dimensionless"},
                {"key": "y", "name": "y", "role": "output", "unit": "dimensionless"}],
            "variants": [{"id": "base", "title": "Base",
                          "equations": [{"target": "y", "sympy": "2*r"}]}],
            "sources": [{"title": "Internal test fixture."}]}))
        from geocard.catalog import load_catalog
        custom = McpServer(catalog=load_catalog(extra_dir=tmp_path))
        body = tool_body(call(custom, "geo_evaluate_with_units", {
            "card": "TEST_RATIO", "variant": "base", "inputs": {"r": 1.5}}))
        assert body["outputs"]["y"]["value"] == 3.0


class TestNonFiniteAtTheBoundary:
    @pytest.mark.parametrize("value", [math.nan, math.inf, "1e400 kPa"])
    def test_evaluate_input(self, server, value):
        args = json.loads(json.dumps(TERZAGHI_ARGS))
        args["inputs"]["q"] = value
        response = strict_json(call(server, "geo_evaluate", args))
        assert tool_error(response)["error"] == "non_finite_value"

    @pytest.mark.parametrize("width", [
        math.nan, "1e400 m", pytest.param(10 ** 400, id="huge-int")])
    def test_check_width(self, server, width):
        response = strict_json(call(server, "geo_check_footing_uls_ec7", {
            "scenario": JRC_SCENARIO, "design_approach": "DA2", "B": width}))
        assert tool_error(response)["error"] == "non_finite_value"

    @pytest.mark.parametrize("value, error", [
        (math.nan, "missing_unit"), ("1e400 kN", "non_finite_value")],
        ids=["nan", "1e400 kN"])
    def test_scenario_field(self, server, value, error):
        """A number names no unit, so a NaN is refused as one; tagged text
        that overflows is not finite."""
        scenario = dict(JRC_SCENARIO, G_k_col=value)
        response = strict_json(call(server, "geo_design_footing_width_ec7", {
            "scenario": scenario, "design_approach": "DA2"}))
        assert tool_error(response)["error"] == error

    @pytest.mark.parametrize("value, error", [
        (math.nan, "non_finite_value"), ("1e400 mm", "non_finite_value"),
        ("0.3 m", "schema_error"), (0.0, "schema_error"), ("0.1", "missing_unit"),
        ("1 kPa", "dimension_mismatch")])
    def test_design_resolution(self, server, value, error):
        """The resolution is read as the check reads B: a number in m, or
        text with a unit tag; then 1 m over it must be a whole number."""
        response = strict_json(call(server, "geo_design_footing_width_ec7", {
            "scenario": JRC_SCENARIO, "design_approach": "DA2",
            "resolution": value}))
        assert tool_error(response)["error"] == error

    def test_overflowing_result_is_tool_error(self, server):
        # Finite inputs whose product overflows to infinity in the trace.
        args = json.loads(json.dumps(TERZAGHI_ARGS))
        args["inputs"].update(gamma="1e300 kN/m^3", B="1e300 m")
        response = strict_json(call(server, "geo_evaluate_with_units", args))
        assert tool_error(response)["error"] == "non_finite_value"


class TestOverflowingScenario:
    @pytest.mark.parametrize("changes, da, key", OVERFLOWING)
    def test_check_names_the_field(self, server, changes, da, key):
        response = call(server, "geo_check_footing_uls_ec7", {
            "scenario": {**JRC_SCENARIO, **changes}, "design_approach": da,
            "B": 1.5})
        assert tool_error(response) == {
            "error": "non_finite_value",
            "message": f"{key!r} is not a finite number"}

    def test_design_names_the_field(self, server):
        response = call(server, "geo_design_footing_width_ec7", {
            "scenario": {**JRC_SCENARIO, "G_k_col": "1.7e308 kN"},
            "design_approach": "DA2"})
        assert tool_error(response) == {
            "error": "non_finite_value",
            "message": "'V_d' is not a finite number"}


    @pytest.mark.parametrize("da", DESIGN_APPROACHES)
    @pytest.mark.parametrize("tool, width", [
        ("geo_design_footing_width_ec7", {}), ("geo_check_footing_uls_ec7", {"B": 21.4})],
        ids=["design", "check"])
    def test_fault_in_the_staged_run_is_evaluate_cards(self, server, da, tool, width):
        """N_q overflows before any step that reads the width, so the card
        stages nothing, and the design faults at its first trial width,
        L = 21.4 m: the reply is ``evaluate_card``'s fault there."""
        scenario = {**JRC_SCENARIO, "phi_prime_k": "89.9999999 deg"}
        text, is_error = reply(server, tool, {
            "scenario": scenario, "design_approach": da, **width})
        payload = json.loads(text)
        assert is_error and payload["error"] == "math_domain"
        assert payload["message"].startswith("overflow in exp")
        assert payload["step"]["target"] == "N_q"
        assert payload["partial_trace"]["steps"] == []
        assert (text, is_error) == reference_reply(lambda: _reference_check(
            load_scenario(json.dumps(scenario)), da, 21.4,
            catalog=server.catalog).to_dict())


def reference_reply(dict_form) -> tuple:
    """The (text, isError) a reply had when every handler returned its
    dict form: ``dict_form()`` written by strict_json, or the error's
    payload."""
    try:
        return engine.strict_json(dict_form()), False
    except GeocardError as exc:
        return engine.strict_json(exc.payload()), True


def reply(server, name, arguments) -> tuple:
    result = call(server, name, arguments)["result"]
    return result["content"][0]["text"], result["isError"]


VESIC_UNITS = {"phi_prime": "deg", "c_prime": "kPa", "gamma": "kN/m^3",
               "B": "m", "L": "m", "D_f": "m", "q": "kPa"}


class TestRepliesMatchTheReference:
    """A calculation reply is written from the trace's template, nested in
    the EC7 replies' templates; its text must be what strict_json writes of the
    handler's dict form, byte for byte, error and NaN replies included."""

    @pytest.fixture(scope="class")
    def fresh(self):
        return McpServer()

    @settings(max_examples=30, deadline=None)
    @given(values=st.fixed_dictionaries({
               "phi_prime": st.floats(0.0, 45.0), "c_prime": st.floats(0.0, 50.0),
               "gamma": st.floats(10.0, 25.0), "B": st.floats(0.2, 10.0),
               "L": st.floats(0.2, 40.0), "D_f": st.floats(0.0, 5.0),
               "q": st.floats(0.0, 200.0)}),
           beta=st.one_of(st.none(), st.floats(0.0, 20.0)), tagged=st.booleans())
    @example(values={"phi_prime": 30.0, "c_prime": 0.0, "gamma": 1e300, "B": 1e300,
                     "L": 2.0, "D_f": 1.0, "q": 18.0}, beta=None, tagged=True)
    def test_evaluate(self, fresh, values, beta, tagged):
        if tagged:
            inputs = {k: f"{v!r} {VESIC_UNITS[k]}" for k, v in values.items()}
            overrides = {} if beta is None else {"beta": f"{beta!r} deg"}
        else:
            inputs = {**values, "phi_prime": math.radians(values["phi_prime"])}
            overrides = {} if beta is None else {"beta": math.radians(beta)}
        card = fresh.catalog.get_method("BEARING_CAPACITY_VESIC")
        arguments = {"card": card.id, "variant": "general", "inputs": inputs,
                     "overrides": overrides}
        name = "geo_evaluate_with_units" if tagged else "geo_evaluate"
        assert reply(fresh, name, arguments) == reference_reply(
            lambda: evaluate_card(card, EvaluationRequest(
                card.id, "general", inputs, overrides)).to_dict())

    def test_one_template_per_set_of_override_keys(self):
        """Each override is its own hole, so a variant's templates are one
        per set of override keys, in whatever order a client sends them:
        at most 2^P for P params, 4 for Vesic's beta and right_angle."""
        from geocard.catalog import load_catalog
        fresh = McpServer(catalog=load_catalog())
        card = fresh.catalog.get_method("BEARING_CAPACITY_VESIC")
        inputs = {"phi_prime": "30 deg", "c_prime": "10 kPa", "gamma": "18 kN/m^3",
                  "B": "2 m", "L": "4 m", "D_f": "1 m", "q": "18 kPa"}
        values = {"beta": 0.1, "right_angle": "90 deg"}
        for size in range(len(values) + 1):
            for keys in itertools.permutations(values, size):
                overrides = {k: values[k] for k in keys}
                arguments = {"card": card.id, "variant": "general", "inputs": inputs,
                             "overrides": overrides}
                assert reply(fresh, "geo_evaluate", arguments) == reference_reply(
                    lambda: evaluate_card(card, EvaluationRequest(
                        card.id, "general", inputs, overrides)).to_dict())
        templates = [memo for memo in card.trace_templates if memo[0] == "general"]
        assert 0 < len(templates) <= 2 ** len(card.param_defaults) == 4

    def test_nan_reply(self, fresh):
        args = json.loads(json.dumps(TERZAGHI_ARGS))
        args["inputs"].update(gamma="1e300 kN/m^3", B="1e300 m")
        text, is_error = reply(fresh, "geo_evaluate_with_units", args)
        assert is_error and json.loads(text)["error"] == "non_finite_value"
        card = fresh.catalog.get_method(args["card"])
        assert (text, is_error) == reference_reply(
            lambda: evaluate_card(card, EvaluationRequest(
                card.id, args["variant"], args["inputs"])).to_dict())

    @settings(max_examples=20, deadline=None)
    @given(da=st.sampled_from(DESIGN_APPROACHES), width=st.floats(0.05, 8.0),
           drainage=st.sampled_from(["drained", "undrained"]))
    def test_ec7_check(self, fresh, da, width, drainage):
        arguments = {"scenario": JRC_SCENARIO, "design_approach": da, "B": width,
                     "drainage": drainage}
        assert reply(fresh, "geo_check_footing_uls_ec7", arguments) == reference_reply(
            lambda: check_footing_uls_ec7(
                load_scenario(json.dumps(JRC_SCENARIO)), da, width,
                catalog=fresh.catalog, drainage=drainage).to_dict())

    @pytest.mark.parametrize("changes, da, key", OVERFLOWING)
    def test_ec7_check_overflow(self, fresh, changes, da, key):
        scenario = {**JRC_SCENARIO, **changes}
        arguments = {"scenario": scenario, "design_approach": da, "B": 1.5}
        assert reply(fresh, "geo_check_footing_uls_ec7", arguments) == reference_reply(
            lambda: check_footing_uls_ec7(load_scenario(json.dumps(scenario)), da,
                                          1.5, catalog=fresh.catalog).to_dict())

    @settings(max_examples=8, deadline=None)
    @given(da=st.sampled_from(DESIGN_APPROACHES), resolution=st.sampled_from(
        [(1e-3, 1e-3), ("0.5 mm", 5e-4), ("0.1 mm", 1e-4), (1e-6, 1e-6), (0.3, 0.3)]))
    def test_ec7_design(self, fresh, da, resolution):
        sent, metres = resolution
        arguments = {"scenario": JRC_SCENARIO, "design_approach": da,
                     "resolution": sent}
        assert reply(fresh, "geo_design_footing_width_ec7", arguments) == reference_reply(
            lambda: design_footing_width_ec7(
                load_scenario(json.dumps(JRC_SCENARIO)), da, resolution=metres,
                catalog=fresh.catalog).to_dict())

    def test_get_method(self, fresh):
        for card_id, card in fresh.catalog.cards.items():
            assert reply(fresh, "geo_get_method", {"id": card_id}) == (
                engine.strict_json(card.to_dict()), False)

    # The replies below are memoized on first use; each is asked for three
    # times, so the second and third come from the memo.

    @pytest.mark.parametrize("category", [
        None, "Shallow Foundations - Bearing Capacity", "No such category", ""])
    def test_list_methods(self, fresh, category):
        arguments = {} if category is None else {"category": category}
        expected = reference_reply(
            lambda: {"methods": fresh.catalog.list_methods(category)})
        assert [reply(fresh, "geo_list_methods", arguments)
                for _ in range(3)] == [expected] * 3

    @pytest.mark.parametrize("include", [None, True, False])
    @pytest.mark.parametrize("name", [
        "shallow-foundation-bearing-capacity", "no-such-skill"])
    def test_get_skill(self, fresh, name, include):
        arguments = {"name": name}
        if include is not None:
            arguments["include_references"] = include
        expected = reference_reply(
            lambda: fresh.skills.get_skill(name, bool(include)).to_dict())
        assert [reply(fresh, "geo_get_skill", arguments)
                for _ in range(3)] == [expected] * 3

    @pytest.mark.parametrize("da", [*DESIGN_APPROACHES, "DA9", ""])
    def test_get_ec7_preset_partials(self, fresh, da):
        def dict_form():
            pf = get_ec7_preset_partials(da)
            return {"design_approach": da, "partials": pf.wire_dict(),
                    "description": f"Standard EN 1997-1 partial factors for {da}"}
        assert [reply(fresh, "geo_get_ec7_preset_partials", {"design_approach": da})
                for _ in range(3)] == [reference_reply(dict_form)] * 3

    def test_unresolved_arguments_are_not_memoized(self):
        server = McpServer()
        for i in range(50):
            reply(server, "geo_list_methods", {"category": f"category {i}"})
            reply(server, "geo_get_skill", {"name": f"skill-{i}"})
            reply(server, "geo_get_ec7_preset_partials", {"design_approach": f"DA-{i}"})
            reply(server, "geo_get_method", {"id": f"CARD_{i}"})
        assert server._texts == {}


class TestRecommendSkillsArguments:
    @pytest.mark.parametrize("query", ["", "   "])
    def test_empty_query_is_tool_error(self, server, query):
        response = call(server, "geo_recommend_skills", {"query": query})
        assert tool_error(response)["error"] == "invalid_query"

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one_is_tool_error(self, server, limit):
        response = call(server, "geo_recommend_skills",
                        {"query": "bearing capacity", "limit": limit})
        assert tool_error(response)["error"] == "invalid_query"


class TestBoundaryLeaks:
    @pytest.mark.parametrize("line", [
        "[" * 100_000,
        '{"jsonrpc": "2.0", "id": NaN, "method": "ping"}',
        '{"jsonrpc": "2.0", "id": 1e999, "method": "ping"}',
        '{"jsonrpc": "2.0", "id": -Infinity, "method": "ping"}',
        '{"jsonrpc": "2.0", "id": %s, "method": "ping"}' % HUGE_INT,
        '{"jsonrpc": "2.0", "id": 2, "method": "tools/call", "params": '
        '{"name": "geo_evaluate", "arguments": {"card": "C", "variant": "v", '
        '"inputs": {"q": NaN}}}}',
    ], ids=["deep", "nan-id", "overflowing-id", "infinity-id", "huge-int-id",
            "nan-argument"])
    def test_unparseable_line_is_parse_error_and_serving_goes_on(self, line):
        stdout = io.StringIO()
        serve(io.StringIO(line + "\n"
                          '{"jsonrpc": "2.0", "id": 3, "method": "ping"}\n'),
              stdout)
        replies = [json.loads(reply) for reply in stdout.getvalue().splitlines()]
        assert replies == [
            {"jsonrpc": "2.0", "id": None,
             "error": {"code": -32700, "message": "parse error"}},
            {"jsonrpc": "2.0", "id": 3, "result": {}}]

    def test_deeply_nested_input_is_a_tool_error(self):
        """An input nested as deep as a request line may be is a malformed
        quantity, not an internal error, however deep the line decodes."""
        codes = set()
        for depth in range(900, 1001, 5):
            line = json.dumps(rpc("tools/call", {"name": "geo_evaluate", "arguments": {
                **TERZAGHI_ARGS, "inputs": {**TERZAGHI_ARGS["inputs"], "q": None}}}))
            stdout = io.StringIO()
            serve(io.StringIO(line.replace("null", "[" * depth + "]" * depth) + "\n"),
                  stdout)
            reply = json.loads(stdout.getvalue())
            if "error" in reply:
                assert reply["error"]["code"] == -32700, depth
                codes.add(-32700)
            else:
                assert tool_error(reply)["error"] == "malformed_quantity", depth
                codes.add("malformed_quantity")
        assert "malformed_quantity" in codes

    def test_huge_integer_resolution_is_tool_error(self, server):
        response = strict_json(call(server, "geo_design_footing_width_ec7", {
            "scenario": JRC_SCENARIO, "design_approach": "DA2",
            "resolution": 10**400}))
        assert tool_error(response)["error"] == "non_finite_value"

    def test_null_required_scenario_field_is_tool_error(self, server):
        response = strict_json(call(server, "geo_check_footing_uls_ec7", {
            "scenario": {**JRC_SCENARIO, "D_f": None},
            "design_approach": "DA2", "B": 1.5}))
        assert tool_error(response) == {
            "error": "schema_error", "message": "$.D_f: missing required field"}

    @pytest.mark.parametrize("tool, extra", [
        ("geo_check_footing_uls_ec7", {"B": 1.5}),
        ("geo_design_footing_width_ec7", {})])
    @pytest.mark.parametrize("key, value", [
        ("phi_prime_k", "100 deg"), ("phi_prime_k", "-5 deg"),
        ("c_prime_k", "-5 kPa"), ("c_u_k", "-5 kPa"),
        ("gamma_k", "-18 kN/m^3"), ("gamma_sw", "-25 kN/m^3"),
        ("G_k_col", "-500 kN"), ("Q_k", "-1 kN"),
        ("groundwater_depth", "-3 m")])
    def test_impossible_scenario_field_is_tool_error(self, server, tool, extra,
                                                     key, value):
        response = strict_json(call(server, tool, {
            "scenario": {**JRC_SCENARIO, key: value},
            "design_approach": "DA2", **extra}))
        error = tool_error(response)
        assert error["error"] == "schema_error"
        assert error["message"].startswith(f"$.{key}: must ")

    @pytest.mark.parametrize("tool, extra", [
        ("geo_check_footing_uls_ec7", {"B": 1.5}),
        ("geo_design_footing_width_ec7", {})])
    @pytest.mark.parametrize("key", ["ecc", "B"])
    def test_unknown_scenario_field_is_tool_error(self, server, tool, extra, key):
        response = strict_json(call(server, tool, {
            "scenario": {**JRC_SCENARIO, key: "0.3 m"},
            "design_approach": "DA2", **extra}))
        assert tool_error(response) == {
            "error": "schema_error", "message": f"$.{key}: unknown field"}

    @pytest.mark.parametrize("arguments", [[], 0, "", False, [1], "x"])
    def test_non_object_arguments_are_invalid_params(self, server, arguments):
        response = call(server, "geo_health", arguments)
        assert response["error"]["code"] == -32602

    @pytest.mark.parametrize("params", [{"name": "geo_health"},
                                        {"name": "geo_health", "arguments": None}])
    def test_absent_or_null_arguments_mean_none(self, server, params):
        assert tool_body(server.handle_message(rpc("tools/call", params)))[
            "status"] == "ok"


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


_CARD_KEYS = sorted({v.key for card in McpServer().catalog.cards.values()
                     for v in card.variables})
_QUANTITY_TEXT = st.sampled_from([
    "30 deg", "0.5 rad", "18 kN/m^3", "2 m", "0 kPa", "-1 m", "1e400 kPa",
    "1e308 MPa", "nan m", "inf kPa", "abc m", "3 furlongs", "2", "", " kPa"])
_HUGE_INT = st.integers(min_value=10**308, max_value=10**400)


def _json(floats, tuples=False):
    """JSON values whose floats are drawn from ``floats``, nested in lists
    and dicts, and in tuples too if ``tuples``."""
    def containers(inner):
        lists = st.lists(inner, max_size=3)
        return ((lists | lists.map(tuple)) if tuples else lists) | st.dictionaries(
            st.text(max_size=6), inner, max_size=3)
    return st.recursive(
        st.none() | st.booleans() | st.integers() | _HUGE_INT | floats
        | st.text(max_size=8) | _QUANTITY_TEXT, containers, max_leaves=6)


_JSON = _json(st.floats())
_BY_TYPE = {
    "string": st.text(max_size=8) | _QUANTITY_TEXT,
    "number": st.integers() | _HUGE_INT | st.floats(),
    "integer": st.integers() | _HUGE_INT,
    "boolean": st.booleans(),
    "object": st.dictionaries(st.text(max_size=6), _JSON, max_size=3),
}
_QUANTITIES = st.dictionaries(st.sampled_from(_CARD_KEYS), _JSON, max_size=6)
_SCENARIO = st.dictionaries(
    st.sampled_from(sorted(JRC_SCENARIO) + ["extra"]), _JSON, max_size=3).map(
        lambda changes: {**JRC_SCENARIO, **changes})
_CARD_IDS = st.sampled_from([
    "BEARING_CAPACITY_TERZAGHI", "BEARING_CAPACITY_MEYERHOF",
    "BEARING_CAPACITY_VESIC", "BEARING_CAPACITY_EUROCODE7", "NOPE"])
# Domain values per argument name, drawn beside the schema-typed ones.
_BY_PROPERTY = {
    "id": _CARD_IDS,
    "card": _CARD_IDS,
    "variant": st.sampled_from([
        "general_shear_failure_strip", "general_shear_failure_square",
        "drained", "undrained", "nope"]),
    "inputs": _QUANTITIES,
    "overrides": _QUANTITIES,
    "defaults": _QUANTITIES,
    "name": st.sampled_from(["shallow-foundation-bearing-capacity", "nope"]),
    "query": st.text(max_size=20),
    "design_approach": st.sampled_from(["DA1-C1", "DA1-C2", "DA2", "DA3", "x"]),
    "drainage": st.sampled_from(["drained", "undrained", "wet"]),
    "scenario": _SCENARIO,
    "B": st.floats(min_value=0.05, max_value=30) | _QUANTITY_TEXT,
    "resolution": st.floats(min_value=1e-6, max_value=0.1)
    | st.sampled_from([1e-3, "1 mm", "0.1 mm", "0.3 m", "1 kPa", "2"]),
}


@st.composite
def _tool_calls(draw):
    tool = draw(st.sampled_from(TOOLS))
    schema = tool["inputSchema"]

    def value(key):
        declared = schema["properties"][key]["type"]
        types = declared if isinstance(declared, list) else [declared]
        typed = st.one_of([_BY_TYPE[t] for t in types])
        return _BY_PROPERTY[key] | typed if key in _BY_PROPERTY else typed

    arguments = draw(st.fixed_dictionaries(
        {key: value(key) for key in schema["required"]},
        optional={key: value(key) for key in schema["properties"]
                  if key not in schema["required"]}))
    return tool["name"], arguments


class TestServerFuzz:
    @settings(max_examples=250, deadline=None)
    @given(_tool_calls())
    def test_every_reply_is_strict_json_and_never_internal_error(self, tool_call):
        name, arguments = tool_call
        response = call(McpServer(), name, arguments)
        json.dumps(response, allow_nan=False)
        if "error" in response:
            assert response["error"]["code"] != -32603, response
        else:
            json.loads(response["result"]["content"][0]["text"],
                       parse_constant=_reject_constant)


class TestStrictJson:
    """``engine.strict_json`` is geocard's JSON writer, and ``json.dumps``
    with ``indent=2, allow_nan=False`` its reference, over drawn bodies."""

    @settings(max_examples=300, deadline=None)
    @given(_json(st.floats(allow_nan=False, allow_infinity=False), tuples=True))
    @example(-0.0)
    @example(5e-324)
    @example(1e308)
    @example(10**400)
    @example({"\u00fc\x00\n\u2028": ["\x1f\"\\\ud800", "\u00e9\U0001f600", -0.0]})
    @example({"": {}, "a": [], "b": ()})
    @example([[{}], ({"c": [()]}, [[]]), {"d": {"e": {"f": [1, 2.5, None, True, False]}}}])
    def test_writes_what_json_dumps_writes(self, body):
        assert engine.strict_json(body) == json.dumps(body, indent=2, allow_nan=False)

    @settings(max_examples=300, deadline=None)
    @given(_json(st.floats(), tuples=True))
    @example([1.0, {"a": ("b", math.nan)}])
    @example({"a": {"b": [-math.inf]}})
    def test_non_finite_raises_where_json_dumps_raises(self, body):
        try:
            expected = json.dumps(body, indent=2, allow_nan=False)
        except ValueError:
            with pytest.raises(NonFiniteValue):
                engine.strict_json(body)
        else:
            assert engine.strict_json(body) == expected

    def test_subclasses_are_written_as_their_bases(self):
        Pair = collections.namedtuple("Pair", "a b")
        body = collections.OrderedDict(
            [("flag", enum.IntEnum("Flag", "ON")(1)), ("width", type("Width", (float,), {})(2.5)),
             ("unit", type("Tag", (str,), {})("m\u00b3")), ("pair", Pair([], -0.0))])
        assert engine.strict_json(body) == json.dumps(body, indent=2, allow_nan=False)

    @pytest.mark.parametrize("body", [
        object(), {1, 2}, b"x", {"a": [1, object()]}, [complex(1, 2)],
        {1: "a key json would write, and geocard never builds"}])
    def test_what_it_cannot_write_is_a_type_error(self, body):
        with pytest.raises(TypeError):
            engine.strict_json(body)


class TestNoCyclicGarbage:
    def test_a_warm_session_leaves_nothing_for_the_collector(self):
        """The golden session, served twice on one server to warm every
        memo, leaves no cyclic object on its third pass."""
        lines = (DATA_DIR / "golden_session_requests.jsonl").read_text()
        server = McpServer()
        for _ in range(2):
            server.serve(io.StringIO(lines), io.StringIO())
        stdout = io.StringIO()
        gc.collect()
        gc.disable()
        try:
            server.serve(io.StringIO(lines), stdout)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert stdout.getvalue() == (DATA_DIR / "golden_session_expected.jsonl").read_text()


_TYPE_CHECKS = {
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "object": lambda v: isinstance(v, dict),
}


def validate_arguments(schema: dict, arguments) -> str | None:
    """The reference argument check, which walks ``schema`` on each call:
    a complaint string when ``arguments`` violate it, else None."""
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


_TOOL = {tool["name"]: tool for tool in TOOLS}


@st.composite
def _tool_arguments(draw):
    """A tool and its arguments: mostly an object of declared and other
    keys in drawn order, each value of a declared type or of any JSON
    kind; otherwise a value of any JSON kind."""
    tool = draw(st.sampled_from(TOOLS))
    declared = tool["inputSchema"]["properties"]
    keys = st.text(max_size=4)
    if declared:
        keys = st.sampled_from(sorted(declared)) | keys

    def value(key):
        declared_type = declared[key]["type"] if key in declared else []
        types = declared_type if isinstance(declared_type, list) else [declared_type]
        return st.one_of(*[_BY_TYPE[t] for t in types], _JSON)

    pairs = draw(st.lists(keys.flatmap(lambda k: st.tuples(st.just(k), value(k))),
                          max_size=6))
    arguments = dict(pairs) if draw(st.integers(0, 5)) else draw(_JSON)
    return tool, arguments


class TestArgumentChecks:
    """Each tool's check, built at import from its ``inputSchema``, returns
    what the reference check returns, complaint text included."""

    @settings(max_examples=400, deadline=None)
    @given(_tool_arguments())
    @example((_TOOL["geo_recommend_skills"], {"limit": True, "query": "q"}))
    @example((_TOOL["geo_recommend_skills"], {"query": "q", "limit": 3.0, "x": 1}))
    @example((_TOOL["geo_check_footing_uls_ec7"],
              {"scenario": {}, "design_approach": "DA2", "B": [2]}))
    @example((_TOOL["geo_design_footing_width_ec7"],
              {"scenario": {}, "design_approach": "DA2", "resolution": True}))
    @example((_TOOL["geo_list_methods"], []))
    def test_check_returns_the_reference_complaint(self, drawn):
        tool, arguments = drawn
        expected = validate_arguments(tool["inputSchema"], arguments)
        assert _CHECKERS[tool["name"]](arguments) == expected


_IDS = st.one_of(st.integers() | _HUGE_INT, st.floats(), st.text(max_size=6),
                 st.sampled_from(["sitzung-ü", " ", '"\\', "\ud800"]),
                 st.none(), st.booleans(), st.just([1]), st.just({"a": 1}))


@st.composite
def _messages(draw):
    """A request of any kind: a tool call (valid or not), another method, a
    notification, a bad envelope, or a value that is not an object."""
    kind = draw(st.sampled_from(["call"] * 6 + ["other", "notification",
                                                "envelope", "bare"]))
    if kind == "bare":
        return draw(st.sampled_from([[], [rpc("ping")], 3, "ping", None]))
    name, arguments = draw(_tool_calls())
    name = draw(st.sampled_from([name] * 4 + ["geo_nope", 7]))
    message = rpc("tools/call", {"name": name, "arguments": arguments},
                  msg_id=draw(_IDS))
    if kind == "other":
        message["method"] = draw(st.sampled_from(
            ["ping", "initialize", "tools/list", "resources/list", 5]))
    elif kind == "notification":
        del message["id"]
    elif kind == "envelope":
        message[draw(st.sampled_from(["jsonrpc", "params"]))] = draw(
            st.sampled_from(["1.0", None, [], "x"]))
    return message


def _reference_reply(twin, message) -> dict | None:
    """The reply to a decoded ``message``, built by hand from JSON-RPC 2.0
    and MCP: each argument complaint from ``validate_arguments``, and a
    tool result's text as ``strict_json`` of the tool function's value on
    ``twin`` (its memoized text, or its ``to_dict`` for a trace or an EC7
    result), or of its error's payload. ``twin`` must have been sent the
    same calls as the server it stands in for."""
    def error(msg_id, code, text):
        return {"jsonrpc": "2.0", "id": msg_id, "error": {"code": code, "message": text}}

    if not isinstance(message, dict):
        return error(None, -32600, "invalid request")
    if "id" not in message:
        return None
    msg_id, method = message["id"], message.get("method")
    if (type(msg_id) not in (str, int, float)
            or type(msg_id) is float and not math.isfinite(msg_id)):
        msg_id = None
    if msg_id is None or message.get("jsonrpc") != "2.0" or not isinstance(method, str):
        return error(msg_id, -32600, "invalid request")
    params = message.get("params") or {}
    results = {"ping": {}, "tools/list": {"tools": TOOLS}, "initialize": {
        "protocolVersion": "2024-11-05", "capabilities": {"tools": {}},
        "serverInfo": {"name": "geocard", "version": __version__},
        "instructions": INSTRUCTIONS}}
    if method in results:
        return {"jsonrpc": "2.0", "id": msg_id, "result": results[method]}
    if method != "tools/call":
        return error(msg_id, -32601, f"method not found: {method}")
    if not isinstance(params, dict) or not isinstance(params.get("name"), str):
        return error(msg_id, -32602, "params.name must be a string")
    name, arguments = params["name"], params.get("arguments")
    if name not in _TOOL:
        return error(msg_id, -32602, f"unknown tool: {name}")
    arguments = {} if arguments is None else arguments
    complaint = validate_arguments(_TOOL[name]["inputSchema"], arguments)
    if complaint is not None:
        return error(msg_id, -32602, complaint)
    try:
        value = getattr(tools, name)(twin, arguments)
        text = json.loads(value) if isinstance(value, str) else engine.strict_json(
            value if isinstance(value, dict) else value.to_dict())
        is_error = False
    except GeocardError as exc:
        text, is_error = engine.strict_json(exc.payload()), True
    except Exception as exc:
        return error(msg_id, -32603, f"{type(exc).__name__}: {exc}")
    return {"jsonrpc": "2.0", "id": msg_id,
            "result": {"content": [{"type": "text", "text": text}], "isError": is_error}}


def _reference_lines(lines: list[str]) -> str:
    """What ``serve`` should write for ``lines``: each reply of
    ``_reference_reply``, on one twin, as a compact strict JSON line."""
    twin, written = McpServer(), []
    for line in lines:
        try:
            message = json.loads(line, parse_constant=_reject_constant)
        except ValueError:
            reply = {"jsonrpc": "2.0", "id": None,
                     "error": {"code": -32700, "message": "parse error"}}
        else:
            reply = _reference_reply(twin, message)
        if reply is not None:
            written.append(json.dumps(reply, separators=(",", ":"), allow_nan=False) + "\n")
    return "".join(written)


class TestWrittenLines:
    """``serve`` writes each reply once, a tool result's line assembled
    around its reply's literal; every line must be the reference reply,
    built in this test, and ``handle_message`` returns that line decoded."""

    @settings(max_examples=120, deadline=None)
    @given(st.lists(_messages(), min_size=1, max_size=5))
    @example([rpc("tools/call", {"name": "geo_evaluate_with_units",
                                 "arguments": TERZAGHI_ARGS}, msg_id="ü\ud800"),
              rpc("tools/call", {"name": "geo_check_footing_uls_ec7", "arguments": {
                  "scenario": JRC_SCENARIO, "design_approach": "DA2", "B": 1.5}},
                  msg_id=-2.5e-300),
              rpc("tools/call", {"name": "geo_design_footing_width_ec7", "arguments": {
                  "scenario": JRC_SCENARIO, "design_approach": "DA3"}}, msg_id=10**30),
              rpc("tools/call", {"name": "geo_get_skill", "arguments": {
                  "name": "shallow-foundation-bearing-capacity",
                  "include_references": True}}, msg_id=float("nan"))])
    @example([rpc("tools/call", {"name": "geo_session_set_defaults", "arguments": {
                  "defaults": {"q": "18 kPa"}}}),
              rpc("tools/call", {"name": "geo_evaluate", "arguments": {
                  **TERZAGHI_ARGS, "inputs": {"phi_prime": "30 deg", "c_prime": 0,
                                              "gamma": "18 kN/m^3", "B": "2 m"}}}, msg_id=2),
              rpc("tools/call", {"name": "geo_evaluate", "arguments": {
                  **TERZAGHI_ARGS, "inputs": {"phi_prime": "30 deg"}}}, msg_id=3),
              rpc("tools/call", {"name": "geo_get_method", "arguments": {"id": "NOPE"}})])
    def test_line_is_the_reference_reply(self, messages):
        lines = [json.dumps(message) for message in messages]  # NaN kept: a parse error
        stdout = io.StringIO()
        McpServer().serve(io.StringIO("\n".join(lines) + "\n"), stdout)
        assert stdout.getvalue() == _reference_lines(lines)
        server, written = McpServer(), iter(stdout.getvalue().splitlines())
        for line in lines:
            try:
                message = _REQUEST_DECODER.decode(line)
            except ValueError:
                next(written)  # the parse error's line
                continue
            reply = server.handle_message(message)
            if reply is not None:
                assert reply == json.loads(next(written))
        assert next(written, None) is None

    @pytest.mark.parametrize("msg_id", [math.nan, math.inf, -math.inf, 10**5000],
                             ids=["nan", "inf", "-inf", "int-of-5001-digits"])
    @pytest.mark.parametrize("method", ["ping", "tools/call"])
    def test_id_no_line_can_carry_is_invalid(self, msg_id, method):
        """Not one of serve's: its decoder yields no such id."""
        assert McpServer().handle_message(rpc(method, {"name": "geo_health"}, msg_id)) == {
            "jsonrpc": "2.0", "id": None, "error": {"code": -32600, "message": "invalid request"}}

    def test_memoized_literal_is_kept_and_reused(self):
        server, stdout = McpServer(), io.StringIO()
        message = rpc("tools/call", {"name": "geo_get_method",
                                     "arguments": {"id": "BEARING_CAPACITY_VESIC"}})
        line = json.dumps(message)
        server.serve(io.StringIO(f"{line}\n{line}\n"), stdout)
        [reply] = server._texts.values()  # one reply, written once and reused
        assert type(reply) is str  # kept as the literal the line carries
        assert reply == encode_basestring_ascii(engine.strict_json(
            server.catalog.get_method("BEARING_CAPACITY_VESIC").to_dict()))
        assert stdout.getvalue() == _reference_lines([line, line])


# One valid call of each tool.
_FIRST_CALLS = {
    "geo_list_methods": {},
    "geo_get_method": {"id": "BEARING_CAPACITY_VESIC"},
    "geo_evaluate": {**TERZAGHI_ARGS, "inputs": {
        "c_prime": 0, "phi_prime": 0.5, "gamma": 18, "B": 2, "q": 18}},
    "geo_evaluate_with_units": TERZAGHI_ARGS,
    "geo_list_skills": {},
    "geo_recommend_skills": {"query": "bearing capacity of a strip footing"},
    "geo_get_skill": {"name": "shallow-foundation-bearing-capacity",
                      "include_references": True},
    "geo_get_ec7_preset_partials": {"design_approach": "DA1-C2"},
    "geo_check_footing_uls_ec7": {"scenario": JRC_SCENARIO, "design_approach": "DA2",
                                  "B": 1.5},
    "geo_design_footing_width_ec7": {"scenario": JRC_SCENARIO, "design_approach": "DA3"},
    "geo_session_set_defaults": {"defaults": {"q": "18 kPa"}},
    "geo_health": {},
}


def _serve_lines(*messages, server=None) -> list[str]:
    """The lines ``serve`` writes for ``messages``, on a fresh server unless
    one is given."""
    stdout = io.StringIO()
    (server or McpServer()).serve(
        io.StringIO("".join(json.dumps(m) + "\n" for m in messages)), stdout)
    return stdout.getvalue().splitlines(keepends=True)


class TestFirstToolCall:
    """A server loads its tools, catalog and skills at its first tool call,
    and that call's line is the one a server that already answered a call
    writes."""

    def test_every_tool_has_a_first_call(self):
        assert set(_FIRST_CALLS) == {tool["name"] for tool in TOOLS}

    @pytest.mark.parametrize("name", EXPECTED_TOOLS)
    def test_first_call_writes_the_line_of_a_later_one(self, name):
        initialize = rpc("initialize", {}, msg_id=0)
        request = rpc("tools/call", {"name": name, "arguments": _FIRST_CALLS[name]},
                      msg_id=2)
        first = _serve_lines(initialize, request)
        later = _serve_lines(initialize, rpc("tools/call", {"name": "geo_health"}, msg_id=1),
                             request)
        assert first[-1] == later[-1]
        assert first[-1].endswith('"isError":false}}\n')

    def test_user_catalog_is_read_at_the_first_call(self, tmp_path, monkeypatch,
                                                    fresh_default_catalog):
        """A shadowing card and a duplicate in GEOCARD_CATALOG_DIR give the
        same health whether health is a server's first call or follows
        another, and a server made before the variable was set reads it."""
        card = json.loads((Path(__file__).parents[1] / "src/geocard/data/catalog"
                           / "bearing_capacity_vesic.json").read_text("utf-8"))
        (tmp_path / "a.json").write_text(json.dumps(dict(card, title="First")))
        (tmp_path / "b.json").write_text(json.dumps(dict(card, title="Second")))
        made_before = McpServer()
        monkeypatch.setenv("GEOCARD_CATALOG_DIR", str(tmp_path))
        health = rpc("tools/call", {"name": "geo_health"}, msg_id=2)
        lines = []
        for server, calls in [(made_before, []), (None, []),
                              (None, [rpc("tools/call", {"name": "geo_get_method", "arguments": {
                                  "id": "BEARING_CAPACITY_VESIC"}})])]:
            fresh_default_catalog.cache_clear()
            lines.append(_serve_lines(*calls, health, server=server)[-1])
        assert lines[0] == lines[1] == lines[2]
        body = json.loads(json.loads(lines[0])["result"]["content"][0]["text"])
        assert body["warnings"] == [
            f"{tmp_path / 'a.json'}: BEARING_CAPACITY_VESIC shadows a bundled card"]
        assert body["diagnostics"] == [
            f"{tmp_path / 'b.json'}: duplicate card id BEARING_CAPACITY_VESIC"]


class TestUnwritableToolValue:
    """``to_reply`` writes a tool's value inside the call's guard: a NaN is
    the tool's non_finite_value error, a value JSON cannot write is an
    internal error, and serving goes on after either."""

    @pytest.mark.parametrize("value, expected", [
        ({"x": math.nan}, {"result": {"content": [{"type": "text", "text": engine.strict_json(
            {"error": "non_finite_value", "message": "'result' is not a finite number"})}],
            "isError": True}}),
        ({"x": object()}, {"error": {"code": -32603, "message":
                                     "TypeError: Object of type object is not JSON serializable"}}),
    ], ids=["nan", "object"])
    def test_reply_and_next_line(self, value, expected, monkeypatch):
        monkeypatch.setattr(tools, "geo_health", lambda server, args: value)
        health = rpc("tools/call", {"name": "geo_health"})
        expected = {"jsonrpc": "2.0", "id": 1, **expected}
        assert McpServer().handle_message(health) == expected
        lines = _serve_lines(health, rpc("ping", msg_id=2))
        assert [json.loads(line) for line in lines] == [
            expected, {"jsonrpc": "2.0", "id": 2, "result": {}}]


# ------------------------------------------------ a model of one session ----

# Values a client may send for each input key: tagged strings and bare
# numbers, and last a tag of another dimension, which an evaluation rejects.
_INPUT_VALUES = {
    "phi_prime": ["30 deg", "0.5 rad", "28.5 deg", 0.5, "2 m"],
    "phi_prime_d": ["25 deg", "0.4 rad", 0.4, "1 kPa"],
    "c_prime": ["0 kPa", "5 kPa", "0.01 MPa", 5, "5 deg"],
    "c_prime_d": ["4 kPa", "0 kPa", 0, "4 m"],
    "c_u_d": ["50 kPa", "0.05 MPa", 0, "50 m"],
    "gamma": ["18 kN/m^3", "19.5 kN/m^3", 19.5, "18 deg"],
    "B": ["2 m", "1500 mm", "3 m", 2, "2 kPa"],
    "L": ["3 m", "4000 mm", 3, "3 kN"],
    "D_f": ["1 m", "0.5 m", 0.5, "1 deg"],
    "q": ["18 kPa", "0 kPa", "999 kPa", 0, "18 m"],
}
_PAD_SCENARIO = json.loads((DATA_DIR / "scenario_eccentric_pad.json").read_text())
_VARIANTS = [(card, variant) for card, variants in [
    ("BEARING_CAPACITY_TERZAGHI", ["general_shear_failure_strip",
                                   "general_shear_failure_square"]),
    ("BEARING_CAPACITY_MEYERHOF", ["general_shear_vertical"]),
    ("BEARING_CAPACITY_VESIC", ["general"]),
    ("BEARING_CAPACITY_EUROCODE7", ["drained", "undrained"]),
] for variant in variants]


def _inputs(keys):
    """A dict of some of ``keys``, each with a value of its own list; one
    value in sixteen has the wrong dimension."""
    return st.fixed_dictionaries({}, optional={key: st.sampled_from(
        _INPUT_VALUES[key][:-1] * 15 + _INPUT_VALUES[key][-1:]) for key in sorted(keys)})


_DEFAULTS = _inputs(_INPUT_VALUES)


def _wire(line: str) -> str:
    """The line ``serve`` writes, as ``_dispatch`` returns it, checked to be
    one strict JSON line whose tool text is strict JSON too, and no
    internal error."""
    assert line.endswith("\n") and line.count("\n") == 1, line
    decoded = json.loads(line, parse_constant=_reject_constant)
    json.dumps(decoded, allow_nan=False)
    if "error" in decoded:
        assert decoded["error"]["code"] != -32603, decoded
    else:
        json.loads(decoded["result"]["content"][0]["text"],
                   parse_constant=_reject_constant)
    return line


class SessionModel(RuleBasedStateMachine):
    """One McpServer driven through the dispatch ``serve`` uses, which
    returns the line it writes, against a model of its session: a plain dict of defaults, merged
    into each evaluation as ``_merged_inputs`` merges them."""

    def __init__(self):
        super().__init__()
        self.server = McpServer()
        self.defaults = {}
        self.ids = iter(range(1, 10 ** 6))

    def send(self, message) -> str | None:
        line = self.server._dispatch(message)
        return None if line is None else _wire(line)

    def call(self, name, arguments) -> dict:
        line = self.send(rpc("tools/call", {"name": name, "arguments": arguments},
                             next(self.ids)))
        return json.loads(line)

    def set_defaults(self, defaults, rejected: bool):
        reply = self.call("geo_session_set_defaults", {"defaults": defaults})
        assert reply["result"]["isError"] is rejected, reply
        if not rejected:
            self.defaults.update(defaults)
            assert json.loads(reply["result"]["content"][0]["text"]) == {
                "session_id": "default",
                "defaults": dict(sorted(self.defaults.items()))}

    @rule(defaults=_DEFAULTS)
    def set_valid_defaults(self, defaults):
        self.set_defaults(defaults, rejected=False)

    @rule(defaults=_DEFAULTS, key=st.sampled_from(sorted(_INPUT_VALUES)),
          bad=st.sampled_from([math.nan, -math.inf, "1e400 kPa",
                               {"value": 18, "unit": "kPa"}, [18], True,
                               "18", "1e3"]))
    def set_rejected_defaults(self, defaults, key, bad):
        self.set_defaults({**defaults, key: bad}, rejected=True)

    @rule(defaults=_DEFAULTS, key=st.sampled_from(sorted(_INPUT_VALUES)),
          text=st.sampled_from(["kPa", "abc m", "", "nan kPa"]))
    def set_defaults_with_no_number(self, defaults, key, text):
        """Stored: the evaluation that reads it judges it."""
        self.set_defaults({**defaults, key: text}, rejected=False)

    @rule(card_variant=st.sampled_from(_VARIANTS), data=st.data(),
          tool=st.sampled_from(["geo_evaluate", "geo_evaluate_with_units"]))
    def evaluate(self, card_variant, data, tool):
        """Some inputs given, and the rest, if any, from the defaults."""
        card, variant = card_variant
        input_keys = self.server.catalog.get_method(card).input_keys
        given = data.draw(_inputs(input_keys))
        msg_id = next(self.ids)
        arguments = {"card": card, "variant": variant, "inputs": given}
        line = self.send(rpc("tools/call", {"name": tool, "arguments": arguments},
                             msg_id))
        merged = dict(given)
        for key, value in self.defaults.items():
            if key in input_keys:
                merged.setdefault(key, value)
        fresh = rpc("tools/call", {
            "name": tool, "arguments": {**arguments, "inputs": merged}}, msg_id)
        assert line == _wire(McpServer()._dispatch(fresh))
        assert line == json.dumps(McpServer().handle_message(fresh),
                                  separators=(",", ":"), allow_nan=False) + "\n"

    @rule(da=st.sampled_from(DESIGN_APPROACHES),
          width=st.sampled_from([1.5, "2 m", "-1 m"]),
          drainage=st.sampled_from(["drained", "undrained"]))
    def check_ec7(self, da, width, drainage):
        reply = self.call("geo_check_footing_uls_ec7", {
            "scenario": _PAD_SCENARIO, "design_approach": da, "B": width,
            "drainage": drainage})
        assert reply["result"]["isError"] is (width == "-1 m"), reply

    @rule(scenario=st.sampled_from([JRC_SCENARIO, _PAD_SCENARIO]),
          da=st.sampled_from(DESIGN_APPROACHES))
    def design_ec7(self, scenario, da):
        reply = self.call("geo_design_footing_width_ec7", {
            "scenario": scenario, "design_approach": da})
        assert reply["result"]["isError"] is False, reply

    @rule(name=st.sampled_from(["geo_session_set_defaults", "geo_evaluate"]),
          defaults=_DEFAULTS)
    def notification(self, name, defaults):
        """No reply, and no effect on the defaults."""
        message = rpc("tools/call", {"name": name, "arguments": {
            "defaults": defaults}})
        del message["id"]
        assert self.send(message) is None

    @rule(message=st.sampled_from([
        [rpc("ping")], [], rpc("ping", msg_id=None),
        rpc("tools/call", {"name": "geo_session_set_defaults",
                           "arguments": {"defaults": {"q": "1 kPa"}}}, msg_id=None),
        rpc("resources/list"), rpc("tools/call", {"name": "geo_nope"})]))
    def garbage(self, message):
        assert "error" in json.loads(self.send(message))

    @invariant()
    def defaults_are_the_model(self):
        assert list(self.server.defaults.items()) == list(self.defaults.items())


TestSessionModel = SessionModel.TestCase
TestSessionModel.settings = settings(max_examples=40, stateful_step_count=12,
                                     deadline=None)
