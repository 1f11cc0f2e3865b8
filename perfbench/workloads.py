"""The three workloads: what one operation is, how it runs, how it is checked.

Each workload builds a fixed operation list from its seed, runs every
operation once with a clock (see ``clock``) around the call into geocard
only, and then checks the result against the closed forms in ``oracles``.
An operation fails when the call raises or a check does not hold.
Failures that come from the known width-design fault on the bundled
jrc_a3 scenario are counted but expected; any other failure makes the run
incorrect.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import inputs
import oracles
from clock import Clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent

SETUP_REPEATS = 11
DESIGN_TOLERANCE = 1e-3
SEEDED_SCENARIOS_PER_ROUND = 9
WARMUP_OPS = 5

# Operations per second of --seconds at which each workload's fixed list is
# sized; the run then measures for about that long on a 2-CPU machine.
NOMINAL_RATE = {"sweep": 270, "ec7_design": 100, "mcp_session": 140}


def strict_loads(text):
    """json.loads that rejects NaN and Infinity."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Outcome:
    """Latencies and check results of one run's operation list."""

    def __init__(self):
        self.latencies: list = []   # reference seconds, one per operation
        self.failed = 0
        self.unexpected: list = []  # failures other than the known fault
        self.determinism_ok = True
        self.extra: dict = {}

    def record(self, seconds: float, problems: list, known_fault: bool = False):
        self.latencies.append(seconds)
        if problems:
            self.failed += 1
            if not known_fault:
                self.unexpected.append("; ".join(problems))


def _timed(clock: Clock, outcome: Outcome, call):
    """Run ``call`` between clock marks; None (and a failed record) if it raised."""
    clock.start()
    try:
        result = call()
    except Exception as exc:  # a raising call is a failed operation
        outcome.record(clock.stop(), [f"raised {exc!r}"])
        return None, None
    return result, clock.stop()


# ================================================================= sweep ====

_CYCLIC_CARD = BENCH_DIR / "cyclic_card.json"
_STEPS = {"general_shear_failure_strip": 4, "general_shear_failure_square": 4,
          "general_shear_vertical": 11, "general": 14, "drained": 7,
          "undrained": 2, "coupled": 2}


class Sweep:
    """One operation: every bundled variant plus the cyclic card on one
    footing, each trace serialized with to_json()."""

    name = "sweep"

    def __init__(self, seed: int, seconds: int):
        rng = random.Random(f"sweep:{seed}")
        n_ops = max(100, round(seconds * NOMINAL_RATE["sweep"]))
        self.ops = [inputs.sweep_op(rng) for _ in range(n_ops)]
        warm = random.Random(f"sweep-warmup:{seed}")
        self.warmup = [inputs.sweep_op(warm) for _ in range(WARMUP_OPS)]

    @staticmethod
    def setup_sample() -> float:
        return library_setup_sample()

    @property
    def size(self) -> int:
        return len(self.ops)

    def prepare(self, geocard) -> None:
        catalog = geocard.load_catalog()
        self.cyclic = geocard.load_card(_CYCLIC_CARD.read_text("utf-8"))
        self.variants = [(catalog.get_method(card), variant, mapping)
                         for card, variant, mapping in inputs.SWEEP_VARIANTS]

    def requests(self, geocard, op) -> list:
        """The seven (card, request) pairs of one operation."""
        out = []
        for card, variant, mapping in self.variants:
            overrides = op["beta_override"] if card.id == "BEARING_CAPACITY_VESIC" else {}
            out.append((card, geocard.EvaluationRequest(
                card.id, variant, inputs.variant_inputs(op, mapping), overrides)))
        out.append((self.cyclic, geocard.EvaluationRequest(
            self.cyclic.id, "coupled", op["cyclic_sent"])))
        return out

    def run(self, geocard, clock: Clock, before_op=None) -> Outcome:
        from geocard import engine
        outcome = Outcome()
        for op in self.warmup:
            sweep_op(engine, self.requests(geocard, op))
        for index, op in enumerate(self.ops):
            requests = self.requests(geocard, op)
            if before_op:
                before_op(index)
            results, elapsed = _timed(clock, outcome,
                                      lambda: sweep_op(engine, requests))
            if results is not None:
                outcome.record(elapsed, self.check(op, results))
        return outcome

    def check(self, op, results) -> list:
        problems = []
        for (card_id, variant, mapping), (trace, text) in zip(
                inputs.SWEEP_VARIANTS, results):
            beta = op["x"]["beta"] if card_id == "BEARING_CAPACITY_VESIC" else 0.0
            expected = oracles.variant_qult(
                card_id, variant, {k: op["x"][src] for k, src in mapping.items()}, beta)
            problems += _check_trace(text, trace, variant, "q_ult", expected, 1e-9)
        trace, text = results[-1]
        expected = oracles.cyclic_fixed_point(op["cyclic_x"]["p"], op["cyclic_x"]["a"])
        problems += _check_trace(text, trace, "coupled", "x", expected, 1e-7)
        return problems


def sweep_op(engine, requests) -> list:
    out = []
    for card, request in requests:
        trace = engine.evaluate_card(card, request)
        out.append((trace, trace.to_json()))
    return out


def _check_trace(text, trace, variant, output, expected, rel) -> list:
    try:
        data = strict_loads(text)
        got = data["outputs"][output]["value"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{variant}: unreadable trace JSON ({exc})"]
    problems = []
    if not oracles.close(got, expected, rel):
        problems.append(f"{variant}: {output} {got!r} != oracle {expected!r}")
    if got != trace.outputs[output].magnitude:
        problems.append(f"{variant}: to_json and trace disagree on {output}")
    if len(data["steps"]) != _STEPS[variant]:
        problems.append(f"{variant}: {len(data['steps'])} steps, want {_STEPS[variant]}")
    return problems


# ============================================================ ec7_design ====

_JRC_FILE = SRC / "geocard" / "data" / "scenarios" / "jrc_a3.json"


def jrc_oracle_input() -> dict:
    """The bundled jrc_a3 scenario in card units, read apart from geocard."""
    raw = json.loads(_JRC_FILE.read_text("utf-8"))
    x = {k: oracles.to_card_units(raw[k]) for k in (
        "L", "D_f", "phi_prime_k", "c_prime_k", "gamma_k", "groundwater_depth",
        "G_k_col", "Q_k", "gamma_sw", "e")}
    x["surcharge_model"] = raw.get("surcharge_model", "effective_overburden")
    x["c_u_k"] = None
    return x


class Ec7Design:
    """One operation: one design_footing_width_ec7(scenario, da) call.

    A round is nine seeded scenarios and the bundled jrc_a3 scenario, each
    designed for all four Design Approaches. jrc_a3 does not depend on the
    seed, so its two designs that fail their own check (DA1-C2 and DA3)
    make the failed share 2 in 40 in every run whatever the seed.
    """

    name = "ec7_design"

    def __init__(self, seed: int, seconds: int):
        rng = random.Random(f"ec7_design:{seed}")
        per_round = 4 * (SEEDED_SCENARIOS_PER_ROUND + 1)
        rounds = max(3, round(seconds * NOMINAL_RATE["ec7_design"] / per_round))
        self.rounds = [[inputs.scenario(rng, r * SEEDED_SCENARIOS_PER_ROUND + i)
                        for i in range(SEEDED_SCENARIOS_PER_ROUND)]
                       for r in range(rounds)]

    @staticmethod
    def setup_sample() -> float:
        return library_setup_sample()

    @property
    def size(self) -> int:
        return 4 * (SEEDED_SCENARIOS_PER_ROUND + 1) * len(self.rounds)

    def prepare(self, geocard) -> None:
        jrc = {"scenario": geocard.load_bundled_scenario("jrc_a3"),
               "x": jrc_oracle_input(), "drainage": "drained", "fixed": True}
        self.ops = []
        for seeded in self.rounds:
            for sc in seeded:
                parsed = geocard.load_scenario(json.dumps(sc["sent"]))
                case = {"scenario": parsed, "x": sc["x"],
                        "drainage": sc["drainage"], "fixed": False}
                self.ops += [(case, da) for da in inputs.DESIGN_APPROACHES]
            self.ops += [(jrc, da) for da in inputs.DESIGN_APPROACHES]

    def run(self, geocard, clock: Clock, before_op=None) -> Outcome:
        from geocard import ec7
        outcome = Outcome()
        overshoot = seeded = 0
        for case, da in self.ops[:WARMUP_OPS]:
            design(ec7, case, da)
        for index, (case, da) in enumerate(self.ops):
            if before_op:
                before_op(index)
            result, elapsed = _timed(clock, outcome, lambda: design(ec7, case, da))
            if result is None:
                continue
            problems, over = check_design(case, da, result)
            if case["fixed"]:
                # The known fault: the returned width fails its own check.
                if over:
                    problems.append(f"jrc_a3 {da}: B_req fails its own check")
                outcome.record(elapsed, problems, known_fault=over and len(problems) == 1)
            else:
                seeded += 1
                overshoot += over
                outcome.record(elapsed, problems)
        outcome.extra["designs_failing_own_check"] = overshoot / max(seeded, 1)
        return outcome


def design(ec7, case, da):
    if case["drainage"] == "undrained":
        return ec7.design_footing_width_ec7(case["scenario"], da, drainage="undrained")
    return ec7.design_footing_width_ec7(case["scenario"], da)


def check_design(case, da, result) -> tuple:
    """Problems with a width design, and whether B_req overshoots the root."""
    o = oracles.ec7_uls(case["x"], da, result.B_req, case["drainage"])
    check = result.check
    problems = []
    if not abs(o["utilization"] - 1.0) < DESIGN_TOLERANCE:
        problems.append(f"{da}: oracle utilization {o['utilization']!r} at B_req")
    for key in ("V_d", "R_d", "utilization"):
        if not oracles.close(getattr(check, key), o[key]):
            problems.append(f"{da}: {key} {getattr(check, key)!r} != oracle {o[key]!r}")
    if check.B != result.B_req:
        problems.append(f"{da}: check made at {check.B!r}, not B_req")
    return problems, o["utilization"] > 1.0


# =========================================================== mcp_session ====

_SKILL_REFS = SRC / "geocard" / "data" / "skills" / inputs.SKILL_NAME / "references"
_CARD_VARIANTS = {
    "BEARING_CAPACITY_EUROCODE7": ["drained", "undrained"],
    "BEARING_CAPACITY_MEYERHOF": ["general_shear_vertical"],
    "BEARING_CAPACITY_TERZAGHI": ["general_shear_failure_strip",
                                  "general_shear_failure_square"],
    "BEARING_CAPACITY_VESIC": ["general"],
}
_INITIALIZE = (json.dumps({
    "jsonrpc": "2.0", "id": 0, "method": "initialize",
    "params": {"protocolVersion": "2024-11-05", "capabilities": {},
               "clientInfo": {"name": "perfbench", "version": "1"}}}) + "\n").encode()
_INITIALIZED = b'{"jsonrpc":"2.0","method":"notifications/initialized"}\n'


class StdioClient:
    """One ``geocard serve`` process driven over its stdin and stdout."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "geocard.cli", "serve"], cwd=ROOT,
            env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def exchange(self, line: bytes) -> bytes:
        self.proc.stdin.write(line)
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("server closed its output")
        return reply

    def notify(self, line: bytes) -> None:
        self.proc.stdin.write(line)
        self.proc.stdin.flush()

    def close(self) -> float:
        """End the server; return its peak resident memory in MB."""
        self.proc.stdin.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return usage.ru_maxrss / 1024

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                stream.close()


class InProcessClient:
    """The same exchange through McpServer.handle_message, as serve() does."""

    def __init__(self, geocard_server):
        self.server = geocard_server.McpServer()

    def exchange(self, line: bytes) -> bytes:
        reply = self.server.handle_message(json.loads(line))
        return (json.dumps(reply, separators=(",", ":"), allow_nan=False)
                + "\n").encode()

    def notify(self, line: bytes) -> None:
        self.server.handle_message(json.loads(line))


def _call(msg_id: int, tool: str, arguments: dict) -> bytes:
    return (json.dumps({"jsonrpc": "2.0", "id": msg_id, "method": "tools/call",
                        "params": {"name": tool, "arguments": arguments}})
            + "\n").encode()


class McpSession:
    """One operation: one agent task of eleven tool calls, closed loop."""

    name = "mcp_session"

    def __init__(self, seed: int, seconds: int):
        rng = random.Random(f"mcp_session:{seed}")
        n_tasks = max(100, round(seconds * NOMINAL_RATE["mcp_session"]))
        self.tasks = [inputs.mcp_task(rng, i) for i in range(n_tasks)]
        warm = random.Random(f"mcp_session-warmup:{seed}")
        self.warmup = [inputs.mcp_task(warm, i) for i in range(WARMUP_OPS)]
        self.references = {p.name: p.read_text("utf-8")
                           for p in sorted(_SKILL_REFS.glob("*.md"))}

    @staticmethod
    def setup_sample() -> float:
        """Seconds from spawning ``geocard serve`` to its initialize reply."""
        t0 = time.perf_counter()
        client = StdioClient()
        try:
            client.exchange(_INITIALIZE)
            elapsed = time.perf_counter() - t0
            client.close()
        finally:
            client.kill()
        return elapsed

    @property
    def size(self) -> int:
        return len(self.tasks)

    def prepare(self, geocard) -> None:
        next_id = 1
        calls = []     # per task: [(line, id, check)]
        for task in self.warmup + self.tasks:
            task_calls = []
            for tool, arguments, check in self._task_calls(task):
                task_calls.append((_call(next_id, tool, arguments), next_id, check))
                next_id += 1
            calls.append(task_calls)
        self.warmup_calls = calls[:len(self.warmup)]
        self.calls = calls[len(self.warmup):]

    def run(self, client, clock: Clock, before_op=None) -> Outcome:
        """Send every task to ``client``; check each reply afterwards."""
        outcome = Outcome()
        overshoot = 0
        client.exchange(_INITIALIZE)
        client.notify(_INITIALIZED)
        for calls in self.warmup_calls:
            for line, _, _ in calls:
                client.exchange(line)
        first_replies = None
        reply_bytes = []
        for index, calls in enumerate(self.calls):
            if before_op:
                before_op(index)
            replies, elapsed = _timed(
                clock, outcome, lambda: [client.exchange(line) for line, _, _ in calls])
            if replies is None:
                continue
            first_replies = first_replies or replies
            problems = []
            for (_, msg_id, check), reply in zip(calls, replies):
                problems += check_reply(reply, msg_id, check)
            outcome.record(elapsed, problems)
            reply_bytes.append(sum(len(r) for r in replies))
            overshoot += _design_overshoots(replies[-1])
        outcome.extra["reply_bytes"] = reply_bytes
        outcome.extra["designs_failing_own_check"] = overshoot / len(self.calls)
        # Determinism: the first task's requests, sent again after all the
        # others, get the same bytes back.
        if first_replies is not None:
            again = [client.exchange(line) for line, _, _ in self.calls[0]]
            outcome.determinism_ok = again == first_replies
        return outcome

    # -------------------------------------------------------- the task ----

    def _task_calls(self, task) -> list:
        sc, da = task["scenario"], task["design_approach"]
        drainage = {"drainage": "undrained"} if sc["drainage"] == "undrained" else {}
        first, with_default, numeric = task["evaluations"]
        partial = {k: v for k, v in with_default["tagged"].items() if k != "gamma"}
        get_card = first["card"]
        return [
            ("geo_recommend_skills", {"query": task["query"], "limit": 3},
             lambda body: _check_recommend(body, task["query"])),
            ("geo_get_skill", {"name": inputs.SKILL_NAME, "include_references": True},
             self._check_skill),
            ("geo_list_methods", {}, _check_list_methods),
            ("geo_get_method", {"id": get_card},
             lambda body: [] if body.get("id") == get_card else ["wrong card"]),
            ("geo_session_set_defaults", {"defaults": {"gamma": task["gamma_default"]}},
             lambda body: [] if body.get("defaults") == {"gamma": task["gamma_default"]}
             else ["defaults not echoed"]),
            ("geo_evaluate_with_units",
             {"card": first["card"], "variant": first["variant"], "inputs": first["tagged"]},
             lambda body: _check_eval(body, first, first["tagged"])),
            ("geo_evaluate_with_units",
             {"card": with_default["card"], "variant": with_default["variant"],
              "inputs": partial},
             lambda body: _check_eval(body, with_default,
                                      dict(partial, gamma=task["gamma_default"]))),
            ("geo_evaluate",
             {"card": numeric["card"], "variant": numeric["variant"],
              "inputs": numeric["numeric"]},
             lambda body: _check_eval(body, numeric, numeric["numeric"])),
            ("geo_get_ec7_preset_partials", {"design_approach": da},
             lambda body: _check_partials(body, da)),
            ("geo_check_footing_uls_ec7",
             dict({"scenario": sc["sent"], "design_approach": da,
                   "B": task["check_width"]}, **drainage),
             lambda body: _check_uls(body, sc, da, task["check_width"])),
            ("geo_design_footing_width_ec7",
             dict({"scenario": sc["sent"], "design_approach": da}, **drainage),
             lambda body: check_width_design(body, sc, da)),
        ]

    def _check_skill(self, body) -> list:
        refs = {r["filename"]: r["text"] for r in body.get("references", [])}
        if body.get("name") != inputs.SKILL_NAME or not body.get("body"):
            return ["wrong skill"]
        return [] if refs == self.references else ["references differ from disk"]


def check_reply(reply: bytes, msg_id: int, check) -> list:
    """Problems with one JSON-RPC reply: strict JSON, matching id, no tool
    error, and whatever ``check`` finds in the tool's text."""
    try:
        message = strict_loads(reply)
        if message.get("id") != msg_id:
            return [f"reply id {message.get('id')!r} for request {msg_id}"]
        result = message["result"]
        if result.get("isError") is not False:
            return [f"request {msg_id}: isError {result.get('isError')!r}"]
        body = strict_loads(result["content"][0]["text"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"request {msg_id}: unreadable reply ({exc})"]
    return [f"request {msg_id}: {p}" for p in check(body)]



def _design_overshoots(reply: bytes) -> bool:
    """Whether a width design reply states that its width fails the check."""
    try:
        text = json.loads(reply)["result"]["content"][0]["text"]
        return json.loads(text)["check"]["pass"] is False
    except (ValueError, KeyError, TypeError, IndexError):
        return False


def _check_recommend(body, query) -> list:
    matches = body.get("matches") or []
    tokens = set(query.lower().split())
    if not matches or matches[0]["name"] != inputs.SKILL_NAME:
        return ["skill not recommended"]
    top = matches[0]
    if not (0 < top["score"] <= 1) or not set(top["matched_terms"]) <= tokens:
        return [f"bad match {top}"]
    return []


def _check_list_methods(body) -> list:
    got = {m["id"]: m["variants"] for m in body.get("methods", [])}
    return [] if got == _CARD_VARIANTS else [f"catalog listing {got}"]


def _check_eval(body, evaluation, sent) -> list:
    values = {k: oracles.to_card_units(v) for k, v in sent.items()}
    expected = oracles.variant_qult(evaluation["card"], evaluation["variant"], values)
    try:
        got = body["outputs"]["q_ult"]["value"]
    except (KeyError, TypeError):
        return ["no q_ult in trace"]
    if body["request"]["inputs"] != sent:
        return ["trace does not echo the inputs used"]
    return [] if oracles.close(got, expected) else [f"q_ult {got!r} != oracle {expected!r}"]


def _check_partials(body, da) -> list:
    g_G, g_Q, g_phi, g_c, _, g_gamma, g_R = oracles.PARTIAL_FACTORS[da]
    want = {"gamma_G": g_G, "gamma_Q": g_Q, "gamma_phi": g_phi, "gamma_c": g_c,
            "gamma_gamma": g_gamma, "gamma_R": g_R}
    return [] if body.get("partials") == want else [f"{da} partials {body.get('partials')}"]


def _check_uls(body, sc, da, B) -> list:
    o = oracles.ec7_uls(sc["x"], da, B, sc["drainage"])
    problems = [f"{k} {body.get(k)!r} != oracle {o[k]!r}"
                for k in ("V_d", "R_d", "utilization") if not oracles.close(body.get(k), o[k])]
    if body.get("pass") != (o["utilization"] <= 1.0):
        problems.append("pass flag disagrees with utilization")
    return problems


def check_width_design(body, sc, da) -> list:
    """A design reply, checked against what the tool states: utilization
    within tolerance of 1, and V_d and R_d at B_req against the oracle."""
    check = body.get("check", {})
    B = body.get("B_req")
    if not isinstance(B, float) or not isinstance(check.get("utilization"), float):
        return ["no width or utilization"]
    o = oracles.ec7_uls(sc["x"], da, B, sc["drainage"])
    problems = [f"{k} {check.get(k)!r} != oracle {o[k]!r}"
                for k in ("V_d", "R_d") if not oracles.close(check.get(k), o[k])]
    if not abs(check["utilization"] - 1.0) < DESIGN_TOLERANCE:
        problems.append(f"utilization {check['utilization']!r} not within tolerance of 1")
    return problems


# ================================================================ set-up ====

_SETUP_CODE = ("import time; t0 = time.perf_counter(); import geocard; "
               "geocard.load_catalog(); print(time.perf_counter() - t0)")


def library_setup_sample() -> float:
    """Seconds to import geocard and load the catalog in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _SETUP_CODE], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout.split()[-1])


WORKLOADS = {w.name: w for w in (Sweep, Ec7Design, McpSession)}


def percentile(values: list, fraction: float) -> float:
    ordered = sorted(values)
    rank = fraction * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
