"""geocard: declarative method cards for analytical geotechnical calculations.

Analytical methods live as JSON "method cards" (variables, units,
equations, variants, assumptions, sources) evaluated by a sandboxed
expression engine with dimensional analysis and an auditable trace. On
top sit Eurocode 7 partial-factor design workflows, Agent Skill packages,
a CLI, and an MCP (JSON-RPC over stdio) tool server.

Every MCP session and CLI call is a fresh interpreter, so the import is
kept to what a catalog load needs: ``units``, ``errors``, ``expression``,
``cards`` and ``catalog``, whose records are plain ``__slots__`` classes
on the base in ``record`` rather than dataclasses. The names exported
from ``engine``, ``ec7`` and ``skills`` are imported on first use
(PEP 562) and then kept here. ``import geocard; geocard.load_catalog()``
takes about 33 ms against 72 ms with every module and dataclass built at
import (perfbench ``setup_s`` on its reference clock, no bytecode cache).

Typical use:

    >>> from geocard import load_catalog, EvaluationRequest, evaluate_card
    >>> catalog = load_catalog()
    >>> card = catalog.get_method("BEARING_CAPACITY_TERZAGHI")
    >>> trace = evaluate_card(card, EvaluationRequest(
    ...     card_id=card.id, variant_id="general_shear_failure_strip",
    ...     inputs={"c_prime": "0 kPa", "phi_prime": "30 deg",
    ...             "gamma": "18 kN/m^3", "B": "2 m", "q": "18 kPa"}))
    >>> round(trace.outputs["q_ult"].magnitude, 2)
    734.46
"""

__version__ = "0.1.0"

from .cards import (  # noqa: F401
    DimensionFinding,
    EquationSpec,
    MethodCard,
    VariableSpec,
    VariantSpec,
    load_card,
    validate_dimensions,
)
from .catalog import Catalog, default_catalog, load_catalog  # noqa: F401
from .errors import GeocardError  # noqa: F401
from .units import (  # noqa: F401
    Dimension,
    Quantity,
    Unit,
    UnitRegistry,
    convert,
    default_registry,
    format_quantity,
    parse_quantity,
)

# Exported names whose modules a catalog load does not need: name -> module.
_LAZY = {
    **dict.fromkeys((
        "FootingScenario", "PartialFactorSet", "UlsCheckResult",
        "check_footing_uls_ec7", "compute_design_action",
        "derive_design_parameters", "design_footing_width_ec7",
        "get_ec7_preset_partials", "load_bundled_scenario", "load_scenario",
    ), "ec7"),
    **dict.fromkeys((
        "EvaluationRequest", "EvaluationTrace", "evaluate_card",
        "normalize_inputs",
    ), "engine"),
    **dict.fromkeys(("Skill", "SkillLibrary", "load_skills"), "skills"),
}


def __getattr__(name: str):
    """Import a lazily exported name's module on first use, and keep the
    value here, so later lookups no longer come through this hook."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_LAZY})
