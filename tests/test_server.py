"""MCP server tests: protocol conformance, schema gating, tool behavior,
and the byte-exact golden transcript replay."""

import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import HUGE_INT
from geocard.ec7 import (DESIGN_APPROACHES, check_footing_uls_ec7,
                         design_footing_width_ec7, get_ec7_preset_partials,
                         load_scenario)
from geocard import engine
from geocard.engine import EvaluationRequest, evaluate_card
from geocard.errors import GeocardError
from geocard.server import McpServer, TOOLS, serve
from test_ec7 import OVERFLOWING

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

    @pytest.mark.parametrize("msg_id", [7, "n-7", 0, None])
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

    def test_every_tool_has_a_handler(self, server):
        """Each tool is served by the method named after it, and each such
        method is a listed tool."""
        handlers = {name for name in dir(server)
                    if name.startswith("geo_") and callable(getattr(server, name))}
        assert handlers == {tool["name"] for tool in TOOLS}

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
    """The checked-in session must replay byte-for-byte."""

    def _replay(self) -> str:
        requests = (DATA_DIR / "golden_transcript_requests.jsonl").read_text()
        stdout = io.StringIO()
        serve(io.StringIO(requests), stdout)
        return stdout.getvalue()

    def test_replays_byte_identically(self):
        expected = (DATA_DIR / "golden_transcript_expected.jsonl").read_bytes()
        assert self._replay().encode("utf-8") == expected

    def test_replay_is_stable_across_runs(self):
        assert self._replay() == self._replay()


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

    def test_scenario_field(self, server):
        scenario = dict(JRC_SCENARIO, G_k_col=math.nan)
        response = strict_json(call(server, "geo_design_footing_width_ec7", {
            "scenario": scenario, "design_approach": "DA2"}))
        assert tool_error(response)["error"] == "non_finite_value"

    def test_design_tolerance(self, server):
        response = strict_json(call(server, "geo_design_footing_width_ec7", {
            "scenario": JRC_SCENARIO, "design_approach": "DA2",
            "tolerance": math.nan}))
        assert tool_error(response)["error"] == "schema_error"

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
    """A calculation reply is written from the trace's template and spliced
    into the EC7 replies; its text must be what strict_json writes of the
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
    @given(da=st.sampled_from(DESIGN_APPROACHES), tolerance=st.floats(1e-4, 1e-2))
    def test_ec7_design(self, fresh, da, tolerance):
        arguments = {"scenario": JRC_SCENARIO, "design_approach": da,
                     "tolerance": tolerance}
        assert reply(fresh, "geo_design_footing_width_ec7", arguments) == reference_reply(
            lambda: design_footing_width_ec7(
                load_scenario(json.dumps(JRC_SCENARIO)), da, tolerance=tolerance,
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

    def test_hostile_transcript_replays_byte_identically(self):
        requests = (DATA_DIR / "hostile_transcript_requests.jsonl").read_text()
        stdout = io.StringIO()
        McpServer().serve(io.StringIO(requests), stdout)
        expected = (DATA_DIR / "hostile_transcript_expected.jsonl").read_bytes()
        assert stdout.getvalue().encode("utf-8") == expected

    def test_huge_integer_tolerance_is_tool_error(self, server):
        response = strict_json(call(server, "geo_design_footing_width_ec7", {
            "scenario": JRC_SCENARIO, "design_approach": "DA2",
            "tolerance": 10**400}))
        assert tool_error(response)["error"] == "schema_error"

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
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | _HUGE_INT | st.floats()
    | st.text(max_size=8) | _QUANTITY_TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)
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
    "tolerance": st.floats(min_value=1e-6, max_value=0.1),
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
