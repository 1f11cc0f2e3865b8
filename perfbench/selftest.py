"""Shows that the checks catch a wrong answer.

Real results from geocard are perturbed (a bearing capacity off by one
part in a million, a width 1 % too wide, a resistance off by one part in
a million, a NaN in a reply, a reply to the wrong request) and the checks
must find a problem in each, which counts its operation as failed. A
benchmark whose checks pass these would pass anything, so a run that lets
one through reports itself incorrect.
"""

from __future__ import annotations

import dataclasses
import json
import random
from types import SimpleNamespace

import inputs
import workloads


def _perturbed_trace(trace, text, output, factor):
    data = json.loads(text)
    data["outputs"][output]["value"] *= factor
    value = data["outputs"][output]["value"]
    fake = SimpleNamespace(outputs={output: SimpleNamespace(magnitude=value)})
    return fake, json.dumps(data)


def run(geocard) -> list:
    """Names of the perturbations the checks did not catch."""
    from geocard import ec7, engine

    cases = []

    sweep = workloads.Sweep(seed=0, seconds=0)
    sweep.prepare(geocard)
    op = sweep.ops[0]
    results = workloads.sweep_op(engine, sweep.requests(geocard, op))
    for index, output in ((0, "q_ult"), (3, "q_ult"), (6, "x")):
        bad = list(results)
        bad[index] = _perturbed_trace(*results[index], output, 1 + 1e-6)
        cases.append((f"sweep result {index} off by 1e-6", sweep.check(op, bad)))

    jrc = {"scenario": geocard.load_bundled_scenario("jrc_a3"),
           "x": workloads.jrc_oracle_input(), "drainage": "drained"}
    result = ec7.design_footing_width_ec7(jrc["scenario"], "DA1-C1")
    wide = dataclasses.replace(result, B_req=result.B_req * 1.01,
                               check=dataclasses.replace(result.check, B=result.B_req * 1.01))
    cases.append(("design width 1% wide", workloads.check_design(jrc, "DA1-C1", wide)[0]))
    off = dataclasses.replace(result, check=dataclasses.replace(
        result.check, R_d=result.check.R_d * (1 + 1e-6)))
    cases.append(("design R_d off by 1e-6", workloads.check_design(jrc, "DA1-C1", off)[0]))

    task = inputs.mcp_task(random.Random("selftest"), 0)
    sc = task["scenario"]
    design = ec7.design_footing_width_ec7(
        geocard.load_scenario(json.dumps(sc["sent"])), task["design_approach"],
        drainage=sc["drainage"]).to_dict()
    design["check"]["R_d"] *= 1 + 1e-6
    reply = _reply(7, design)
    cases.append(("tool R_d off by 1e-6", workloads.check_reply(
        reply, 7, lambda body: workloads.check_width_design(body, sc, task["design_approach"]))))
    cases.append(("NaN in tool text", workloads.check_reply(
        _reply(7, {"R_d": float("nan")}), 7, lambda body: [])))
    cases.append(("reply to another request", workloads.check_reply(
        _reply(8, {}), 7, lambda body: [])))

    return [name for name, problems in cases if not problems]


def _reply(msg_id: int, body: dict) -> bytes:
    text = json.dumps(body)  # allows NaN, as a faulty server would
    return json.dumps({"jsonrpc": "2.0", "id": msg_id, "result": {
        "content": [{"type": "text", "text": text}], "isError": False}}).encode()
