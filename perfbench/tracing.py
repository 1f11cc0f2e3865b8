"""Spans and counters around the calls into each geocard layer.

The tracer replaces each layer function under every name its callers look
it up by (``geocard.ec7.evaluate_card`` as well as
``geocard.engine.evaluate_card``), so the program itself is unchanged. A
span records name, start, end, parent span and the operation it belongs
to; spans stay in memory and are written out when the run ends. The
expression evaluator is only counted, never spanned: it recurses once per
node, and a span per node would swamp what it measures.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

SETUP = "setup"

# Tools an MCP task calls; each gets its own handle_message metric.
TASK_TOOLS = (
    "geo_recommend_skills", "geo_get_skill", "geo_list_methods",
    "geo_get_method", "geo_session_set_defaults", "geo_evaluate_with_units",
    "geo_evaluate", "geo_get_ec7_preset_partials", "geo_check_footing_uls_ec7",
    "geo_design_footing_width_ec7",
)

# (module attribute paths, span name): every name a caller may use.
_SPANNED = (
    (("geocard.catalog.load_catalog", "geocard.load_catalog",
      "geocard.server.load_catalog"), "catalog.load_catalog"),
    (("geocard.catalog.load_card", "geocard.cards.load_card",
      "geocard.load_card"), "cards.load_card"),
    (("geocard.catalog.validate_dimensions", "geocard.cards.validate_dimensions",
      "geocard.validate_dimensions"), "cards.validate_dimensions"),
    (("geocard.skills.load_skills", "geocard.server.load_skills",
      "geocard.load_skills"), "skills.load_skills"),
    (("geocard.skills.SkillLibrary.recommend_skills",), "skills.recommend_skills"),
    (("geocard.engine.normalize_inputs", "geocard.normalize_inputs"),
     "engine.normalize_inputs"),
    (("geocard.engine.EvaluationTrace.to_json",), "engine.to_json"),
    (("geocard.engine.EvaluationTrace.to_dict",), "engine.to_dict"),
    (("geocard.ec7.design_footing_width_ec7", "geocard.server.design_footing_width_ec7",
      "geocard.design_footing_width_ec7"), "ec7.design_footing_width_ec7"),
    (("geocard.ec7.check_footing_uls_ec7", "geocard.server.check_footing_uls_ec7",
      "geocard.check_footing_uls_ec7"), "ec7.check_footing_uls_ec7"),
    (("geocard.ec7.load_scenario", "geocard.server.load_scenario",
      "geocard.load_scenario"), "ec7.load_scenario"),
)
_EVALUATE_CARD = ("geocard.engine.evaluate_card", "geocard.ec7.evaluate_card",
                  "geocard.server.evaluate_card", "geocard.evaluate_card")


def _resolve(path: str):
    """(owner object, attribute name) for a dotted geocard path."""
    import importlib

    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        return owner, parts[-1]
    raise ImportError(path)


class Tracer:
    def __init__(self):
        self.spans: list = []   # [name, start, end, parent index, op]
        self.stack: list = []
        self.op = SETUP
        self.counts: Counter = Counter()
        self._eval_depth = 0    # >0 while inside engine.evaluate_card
        self._expr_depth = 0    # recursion depth of expression.evaluate
        self._restore: list = []

    def set_op(self, index: int) -> None:
        self.op = index

    # ------------------------------------------------------------ spans ----

    def span(self, name: str, fn, name_of=None):
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            record = [name_of(args) if name_of else name, 0.0, 0.0, parent, tracer.op]
            tracer.spans.append(record)
            tracer.stack.append(index)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer.stack.pop()
        return wrapper

    def _patch(self, paths, wrapper) -> None:
        for path in paths:
            owner, attr = _resolve(path)
            if attr in vars(owner):
                self._restore.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, wrapper)

    def install(self) -> None:
        for paths, name in _SPANNED:
            owner, attr = _resolve(paths[0])
            self._patch(paths, self.span(name, getattr(owner, attr)))

        owner, attr = _resolve(_EVALUATE_CARD[0])
        spanned = self.span("engine.evaluate_card", getattr(owner, attr))

        def evaluate_card(*args, **kwargs):
            self._eval_depth += 1
            try:
                trace = spanned(*args, **kwargs)
            finally:
                self._eval_depth -= 1
            self.counts["evaluations"] += 1
            for cycle in trace.diagnostics.get("iterative_cycles", ()):
                self.counts["fixed_point_iterations"] += cycle["iterations"]
            return trace
        self._patch(_EVALUATE_CARD, evaluate_card)

        import geocard.expression as ex
        free_symbols, evaluate = ex.free_symbols, ex.evaluate

        def counted_free_symbols(node):
            if self._eval_depth:
                self.counts["free_symbols_calls"] += 1
            return free_symbols(node)

        def counted_evaluate(node, env):
            if self._eval_depth:
                self.counts["evaluate_nodes"] += 1
                if not self._expr_depth:
                    self.counts["evaluate_calls"] += 1
            self._expr_depth += 1
            try:
                return evaluate(node, env)
            finally:
                self._expr_depth -= 1
        self._patch(("geocard.expression.free_symbols",), counted_free_symbols)
        self._patch(("geocard.expression.evaluate",), counted_evaluate)

        import geocard.units
        convert = geocard.units.convert

        def counted_convert(*args, **kwargs):
            if self.op != SETUP:
                self.counts["convert_calls"] += 1
            return convert(*args, **kwargs)
        self._patch(("geocard.units.convert", "geocard.engine.convert",
                     "geocard.convert"), counted_convert)

        owner, attr = _resolve("geocard.server.McpServer.handle_message")
        self._patch(("geocard.server.McpServer.handle_message",),
                    self.span("server.handle_message", getattr(owner, attr),
                              name_of=_message_span_name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(json.dumps({"id": index, "op": op, "name": name,
                                      "start": start, "end": end,
                                      "parent": parent}) + "\n")

    # ---------------------------------------------------------- metrics ----

    def layer_metrics(self, n_ops: int, scale: float) -> dict:
        """Per-layer figures: mean ms per call, counts per operation.

        Span times are multiplied by ``scale``, the run's median ratio of
        reference to measured kernel time (see ``clock``), so they read in
        the same reference milliseconds as the operation latencies.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total = defaultdict(list)
        self_ms = defaultdict(list)
        op_calls = Counter()
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            total[name].append((end - start) * 1e3)
            self_ms[name].append((end - start - child_time[index]) * 1e3)
            if op != SETUP:
                op_calls[name] += 1
        serial = [
            (end - start) * 1e3
            for name, start, end, parent, op in self.spans
            if name in ("engine.to_json", "engine.to_dict")
            and (parent < 0 or self.spans[parent][0] not in ("engine.to_json",
                                                            "engine.to_dict"))
        ]
        designs = [i for i, s in enumerate(self.spans)
                   if s[0] == "ec7.design_footing_width_ec7"]
        checks_in_design = sum(
            1 for s in self.spans
            if s[0] == "ec7.check_footing_uls_ec7" and s[3] >= 0
            and self.spans[s[3]][0] == "ec7.design_footing_width_ec7")
        evaluations = max(self.counts["evaluations"], 1)

        def mean(values):
            return statistics.fmean(values) * scale if values else 0.0

        metrics = {
            "catalog.load_catalog_ms": (mean(total["catalog.load_catalog"]), "ms"),
            "catalog.load_catalog_calls": (op_calls["catalog.load_catalog"] / n_ops, "count"),
            "cards.load_card_ms": (mean(total["cards.load_card"]), "ms"),
            "cards.validate_dimensions_ms": (mean(total["cards.validate_dimensions"]), "ms"),
            "skills.load_skills_ms": (mean(total["skills.load_skills"]), "ms"),
            "skills.recommend_skills_ms": (mean(total["skills.recommend_skills"]), "ms"),
            "engine.normalize_inputs_ms": (mean(total["engine.normalize_inputs"]), "ms"),
            "engine.evaluate_card_ms": (mean(self_ms["engine.evaluate_card"]), "ms"),
            "engine.evaluate_card_calls": (op_calls["engine.evaluate_card"] / n_ops, "count"),
            "engine.to_json_ms": (mean(serial), "ms"),
            "engine.fixed_point_iterations": (
                self.counts["fixed_point_iterations"] / n_ops, "count"),
            "expression.free_symbols_calls": (
                self.counts["free_symbols_calls"] / evaluations, "count"),
            "expression.evaluate_calls": (
                self.counts["evaluate_calls"] / evaluations, "count"),
            "expression.evaluate_nodes": (
                self.counts["evaluate_nodes"] / evaluations, "count"),
            "units.convert_calls": (self.counts["convert_calls"] / n_ops, "count"),
            "ec7.design_footing_width_ec7_ms": (
                mean(self_ms["ec7.design_footing_width_ec7"]), "ms"),
            "ec7.check_footing_uls_ec7_ms": (
                mean(self_ms["ec7.check_footing_uls_ec7"]), "ms"),
            "ec7.checks_per_design": (
                checks_in_design / len(designs) if designs else 0.0, "count"),
            "ec7.load_scenario_ms": (mean(total["ec7.load_scenario"]), "ms"),
        }
        for tool in TASK_TOOLS:
            metrics[f"server.handle_message_ms.{tool}"] = (
                mean(total[f"server.handle_message.{tool}"]), "ms")
        return metrics


def _message_span_name(args) -> str:
    message = args[1] if len(args) > 1 else None
    if isinstance(message, dict):
        params = message.get("params")
        if message.get("method") == "tools/call" and isinstance(params, dict):
            return f"server.handle_message.{params.get('name')}"
        return f"server.handle_message.{message.get('method')}"
    return "server.handle_message"
