"""The MCP tools: one function of ``(server, arguments)`` per tool, named
after it. ``McpServer`` imports this module at its first ``tools/call``,
so its handshake loads no card, skill, unit or engine module, and the
CLI reaches a function only through such a call. A function gets
arguments that passed the tool's schema check, reads the server's
catalog, skills and session defaults, and returns its value: a trace, an
EC7 result, a dict, or a memoized reply; a ``GeocardError`` is the tool's
error reply. ``engine.to_reply`` writes the value as the JSON string
literal of its text, which the server puts in its line.
"""

from __future__ import annotations

from . import __version__, engine
from .engine import EvaluationRequest, EvaluationTrace, to_reply
from .errors import DimensionMismatch, GeocardError, MalformedQuantity, MissingUnit, UnknownUnit
from .units import for_input, quantity_text, split_quantity_text, to_magnitude


def _text(server, key: tuple, build, *args) -> str:
    """The memoized reply under ``key``: ``build(*args)`` written by
    to_reply on first use, a JSON string literal. Each key is
    made of arguments that already resolved to a card, a category, a skill
    or a Design Approach, so a client cannot grow the memo; an error reply
    raises before it gets here."""
    reply = server._texts.get(key)
    if reply is None:
        reply = server._texts[key] = to_reply(build(*args))
    return reply


def geo_list_methods(server, args) -> str | dict:
    category = args.get("category")
    if category is not None and category not in {
            card.category for card in server.catalog.cards.values()}:
        return {"methods": []}
    return _text(server, ("geo_list_methods", category),
                 lambda: {"methods": server.catalog.list_methods(category)})


def geo_get_method(server, args) -> str:
    card = server.catalog.get_method(args["id"])
    return _text(server, ("geo_get_method", card.id), card.to_dict)


def _merged_inputs(server, card, given: dict) -> dict:
    """Session defaults fill missing input keys; arguments always win."""
    merged = dict(given)
    for key, value in server.defaults.items():
        if key in card.input_keys:
            merged.setdefault(key, value)
    return merged


def geo_evaluate(server, args, require_units: bool = False) -> EvaluationTrace:
    card = server.catalog.get_method(args["card"])
    request = EvaluationRequest(
        card_id=args["card"],
        variant_id=args["variant"],
        inputs=_merged_inputs(server, card, args["inputs"]),
        overrides=args.get("overrides") or {},
    )
    if require_units:
        untagged = [
            key for key, value in {**request.inputs, **request.overrides}.items()
            if key in card.units and card.units[key].name != "dimensionless"
            and not _has_unit_tag(value, card.units[key].name, key)]
        if untagged:
            raise MissingUnit(untagged)
    # looked up on engine when called, so a wrapper put there (a tracer's) sees it
    return engine.evaluate_card(card, request)


def geo_evaluate_with_units(server, args) -> EvaluationTrace:
    return geo_evaluate(server, args, require_units=True)


def geo_list_skills(server, args) -> dict:
    return {"skills": server.skills.list_skills()}


def geo_recommend_skills(server, args) -> dict:
    limit = args.get("limit", 5)
    matches = server.skills.recommend_skills(args["query"], limit)
    return {"matches": [m.to_dict() for m in matches]}


def geo_get_skill(server, args) -> str:
    include = args.get("include_references", False)
    skill = server.skills.get_skill(args["name"], include)
    return _text(server, ("geo_get_skill", skill.name, include), skill.to_dict)


# The EC7 tools import the workflow when called, so a session that never
# calls one does not load it (nor dataclasses).

def geo_get_ec7_preset_partials(server, args) -> str:
    from .ec7 import get_ec7_preset_partials

    pf = get_ec7_preset_partials(args["design_approach"])
    return _text(server, ("geo_get_ec7_preset_partials", pf.design_approach),
                 _partials_reply, pf)


def geo_check_footing_uls_ec7(server, args):
    from .ec7 import check_footing_uls_ec7, read_scenario

    scenario = read_scenario(args["scenario"])
    width = to_magnitude(args["B"], "m", "B")
    return check_footing_uls_ec7(
        scenario, args["design_approach"], width,
        catalog=server.catalog, drainage=args.get("drainage", "drained"))


def geo_design_footing_width_ec7(server, args):
    from .ec7 import design_footing_width_ec7, read_scenario

    scenario = read_scenario(args["scenario"])
    return design_footing_width_ec7(
        scenario, args["design_approach"],
        tolerance=args.get("tolerance", 1e-3),
        catalog=server.catalog, drainage=args.get("drainage", "drained"))


def geo_session_set_defaults(server, args) -> dict:
    """Check every value before storing any, so a rejected call stores
    nothing. Untagged numeric text is MissingUnit for a key that every card
    taking it as an input gives a unit; other keys, and text with no
    number, are judged on use. Only untagged text reads the catalog."""
    given = args["defaults"]
    untagged = []
    for key, value in given.items():
        if isinstance(value, str):
            try:
                value, tag = split_quantity_text(value)
            except MalformedQuantity:
                continue  # no magnitude to check; the engine judges it on use
            if not tag:
                untagged.append(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise GeocardError(
                f"default for {key!r} must be a number or unit-tagged string")
        to_magnitude(value, "dimensionless", key)  # NonFiniteValue
    units = {key: {card.units[key].name for card in server.catalog.cards.values()
                   if key in card.input_keys} for key in untagged}
    untagged = [key for key, names in units.items() if names and "dimensionless" not in names]
    if untagged:
        raise MissingUnit(untagged)
    server.defaults.update(given)
    return {
        "session_id": "default",
        "defaults": {k: server.defaults[k] for k in sorted(server.defaults)},
    }


def geo_health(server, args) -> dict:
    diagnostics = list(server.catalog.diagnostics) + list(server.skills.diagnostics)
    warnings = list(server.catalog.warnings) + list(server.skills.warnings)
    healthy = (server.catalog.ok and server.skills.ok
               and len(server.catalog.cards) >= 1 and len(server.skills.skills) >= 1)
    return {
        "status": "ok" if healthy else "degraded",
        "cards": len(server.catalog.cards),
        "skills": len(server.skills.skills),
        "version": __version__,
        "diagnostics": diagnostics,
        "warnings": warnings,
    }


def _has_unit_tag(value, unit_name: str, key: str) -> bool:
    """Whether a value is a quantity string with a unit tag, read as the
    evaluation reads it, so once. A tag of an unknown unit or of another
    dimension counts, so that a MissingUnit of another input comes first;
    the evaluation raises its error. A string with no number raises
    MalformedQuantity here, naming ``key``."""
    if not isinstance(value, str):
        return False
    try:
        return bool(quantity_text(value, unit_name)[1])
    except (UnknownUnit, DimensionMismatch):
        return True
    except MalformedQuantity as exc:
        raise for_input(exc, key)


def _partials_reply(pf) -> dict:
    return {
        "design_approach": pf.design_approach,
        "partials": pf.wire_dict(),
        "description": f"Standard EN 1997-1 partial factors for "
                       f"{pf.design_approach}",
    }
