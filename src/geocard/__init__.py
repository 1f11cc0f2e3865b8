"""geocard: declarative method cards for analytical geotechnical calculations.

Analytical methods live as JSON "method cards" (variables, units,
equations, variants, assumptions, sources) evaluated by a sandboxed
expression engine with dimensional analysis and an auditable trace. On
top sit Eurocode 7 partial-factor design workflows, Agent Skill packages,
a CLI, and an MCP (JSON-RPC over stdio) tool server.

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
from .ec7 import (  # noqa: F401
    FootingScenario,
    PartialFactorSet,
    UlsCheckResult,
    check_footing_uls_ec7,
    compute_design_action,
    derive_design_parameters,
    design_footing_width_ec7,
    get_ec7_preset_partials,
    load_bundled_scenario,
    load_scenario,
)
from .engine import (  # noqa: F401
    EvaluationRequest,
    EvaluationTrace,
    evaluate_card,
    normalize_inputs,
)
from .errors import GeocardError  # noqa: F401
from .skills import Skill, SkillLibrary, load_skills  # noqa: F401
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
